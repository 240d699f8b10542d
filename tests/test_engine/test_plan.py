"""Plan IR: rank checking, normalization, hashability."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.engine import (
    Complement,
    Extend,
    FilterAtom,
    FilterEq,
    FullScan,
    Intersect,
    Join,
    Plan,
    Project,
    Quantify,
    Scan,
    Union,
    normalize,
    plan_rank,
    plan_size,
)
from repro.errors import RankMismatchError, TypeSignatureError

SIG = (2, 1)


class TestPlanRank:
    def test_scan(self):
        assert plan_rank(Scan(0), SIG) == 2
        assert plan_rank(Scan(1), SIG) == 1

    def test_scan_out_of_range(self):
        with pytest.raises(TypeSignatureError):
            plan_rank(Scan(2), SIG)

    def test_full_scan(self):
        assert plan_rank(FullScan(3), SIG) == 3

    def test_filters_preserve_rank(self):
        assert plan_rank(FilterEq(FullScan(2), 0, 1), SIG) == 2
        assert plan_rank(
            FilterAtom(FullScan(3), 0, (0, 2)), SIG) == 3

    def test_filter_eq_negative_indices(self):
        assert plan_rank(FilterEq(FullScan(3), -2, -1), SIG) == 3

    def test_filter_atom_arity_mismatch(self):
        with pytest.raises(RankMismatchError):
            plan_rank(FilterAtom(FullScan(3), 0, (0,)), SIG)

    def test_project(self):
        assert plan_rank(Project(FullScan(3), (2, 0)), SIG) == 2
        with pytest.raises(RankMismatchError):
            plan_rank(Project(FullScan(2), (0, 5)), SIG)

    def test_extend_and_quantify(self):
        assert plan_rank(Extend(FullScan(2)), SIG) == 3
        assert plan_rank(Quantify(FullScan(2), "exists"), SIG) == 1
        with pytest.raises(RankMismatchError):
            plan_rank(Quantify(FullScan(0), "exists"), SIG)

    def test_join(self):
        assert plan_rank(Join(Scan(0), Scan(1)), SIG) == 3

    def test_mixed_rank_union_rejected(self):
        with pytest.raises(RankMismatchError):
            plan_rank(Union((Scan(0), Scan(1))), SIG)

    def test_quantify_kind_checked(self):
        with pytest.raises(ValueError):
            Quantify(FullScan(1), "most")


class TestNormalize:
    def test_double_complement_vanishes(self):
        assert normalize(Complement(Complement(Scan(0)))) == Scan(0)

    def test_aci_flattening_and_sorting(self):
        a = Union((Scan(0), Union((Scan(1), Scan(0)))))
        b = Union((Scan(1), Scan(0)))
        assert normalize(a) == normalize(b)

    def test_singleton_combinator_collapses(self):
        assert normalize(Union((Scan(0), Scan(0)))) == Scan(0)
        assert normalize(Intersect((Scan(1),))) == Scan(1)

    def test_operator_sugar_matches_constructors(self):
        assert normalize(Scan(0) | Scan(1)) == normalize(
            Union((Scan(1), Scan(0))))
        assert normalize(~(~Scan(0))) == Scan(0)
        assert normalize(Scan(0) & Scan(0)) == Scan(0)

    def test_filter_eq_argument_order(self):
        assert normalize(FilterEq(Scan(0), 1, 0)) == normalize(
            FilterEq(Scan(0), 0, 1))

    def test_identity_projection_needs_signature(self):
        p = Project(Scan(0), (0, 1))
        assert normalize(p) == p  # no signature: kept
        assert normalize(p, SIG) == Scan(0)  # signature: eliminated

    def test_non_identity_projection_kept(self):
        p = Project(Scan(0), (1, 0))
        assert normalize(p, SIG) == p

    def test_normalization_is_idempotent(self):
        plan = Complement(Union((
            FilterEq(Join(Scan(0), Scan(1)), 0, 2),
            Complement(Complement(Scan(0) | Scan(0))),
            Project(Extend(FullScan(1)), (1, 0)),
        )))
        once = normalize(plan, SIG)
        assert normalize(once, SIG) is once

    def test_unchanged_subtrees_keep_their_identity(self):
        inner = Join(Scan(0), Scan(1))
        plan = Complement(Complement(FilterEq(inner, 2, 0)))
        out = normalize(plan, SIG)
        assert out == FilterEq(inner, 0, 2)
        assert out.child is inner

    def test_plans_are_hashable_cache_keys(self):
        plan = Quantify(FilterAtom(FullScan(2), 0, (0, 1)), "forall")
        assert isinstance(plan, Plan)
        assert {plan: 1}[plan] == 1

    def test_plan_size(self):
        plan = Union((Scan(0), Complement(Scan(1))))
        assert plan_size(plan) == 4
        assert plan_size(Join(Scan(0), Scan(0))) == 3


class TestHashAcrossProcesses:
    """A plan's cached hash is per process: pickling must not carry it."""

    def test_nodes_have_no_instance_dict(self):
        plan = Quantify(FilterAtom(FullScan(2), 0, (0, 1)), "forall")
        hash(plan)
        assert not hasattr(plan, "__dict__")
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_unpickled_plan_rehashes_under_its_own_seed(self, tmp_path):
        # Hash (populating the cache), pickle under one hash seed; load
        # under another and look the plan up in a dict keyed by an
        # equal plan built there.  A pickled stale hash misses.
        src = str(Path(repro.__file__).resolve().parents[1])
        blob = tmp_path / "plan.pickle"
        build = ("from repro.engine import *; "
                 "p = Union((Quantify(FullScan(2), 'exists'), "
                 "Quantify(Scan(0), 'forall')))")
        dump = (f"{build}; import pickle, sys; hash(p); "
                f"open(sys.argv[1], 'wb').write(pickle.dumps(p))")
        load = (f"{build}; import pickle, sys; "
                f"q = pickle.loads(open(sys.argv[1], 'rb').read()); "
                f"assert q == p; print({{p: 'hit'}}.get(q))")

        def run(code, seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code, str(blob)], env=env,
                capture_output=True, text=True, check=True).stdout.strip()

        run(dump, "1")
        assert run(load, "3") == "hit"

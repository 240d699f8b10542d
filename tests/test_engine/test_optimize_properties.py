"""Property-test battery for the plan optimizer.

Random rank-correct plans over a small two-component database, checked
three ways:

* every rule, applied *in isolation*, preserves the evaluated
  representative set bit for bit against the interpreted engine;
* the full catalog preserves it too, and is idempotent
  (``optimize(optimize(p)) == optimize(p)``);
* the compiled backend agrees with the interpreter on the optimized
  plan.

The generator builds plans by rank, so every example is well-ranked and
evaluable — rule soundness is tested on live values, not just shapes.
The preparation machinery is checked on these plans and on unchecked
(often ill-ranked) ones: normalization returns a normal plan as the
same object, and the per-call rank memo agrees with ``plan_rank``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import (
    RULE_NAMES,
    Complement,
    Empty,
    Engine,
    EngineCache,
    Extend,
    FilterAtom,
    FilterEq,
    FullScan,
    Intersect,
    Join,
    MachineFixpoint,
    Project,
    Quantify,
    Scan,
    Union,
    normalize,
    optimize,
    optimize_result,
    plan_rank,
)
from repro.engine.optimize import iter_subplans
from repro.engine.plan import _Ranker
from repro.errors import RankMismatchError, TypeSignatureError
from repro.graphs import mixed_components_hsdb

SIGNATURE = (2,)
MAX_RANK = 3

# Module-level engines sharing one cache: repeated subplans across
# hypothesis examples stay warm, keeping the battery fast.
_CACHE = EngineCache()
_INTERPRETED = Engine(mixed_components_hsdb(), cache=_CACHE,
                      optimize=False, compiled=False)
_COMPILED = Engine(mixed_components_hsdb(), cache=_CACHE,
                   optimize=False, compiled=True)

kinds = st.sampled_from(["exists", "forall"])


def _leaves(rank):
    options = [st.just(FullScan(rank)), st.just(Empty(rank))]
    if rank == SIGNATURE[0]:
        options.append(st.just(Scan(0)))
    return st.one_of(options)


@st.composite
def _plans(draw, rank, depth):
    if depth <= 0:
        return draw(_leaves(rank))
    options = ["leaf", "complement", "union", "intersect"]
    if rank + 1 <= MAX_RANK:
        options += ["quantify", "project"]
    if rank >= 1:
        options += ["extend", "filter_eq", "filter_atom", "join"]
    choice = draw(st.sampled_from(options))
    if choice == "leaf":
        return draw(_leaves(rank))
    if choice == "complement":
        return Complement(draw(_plans(rank, depth - 1)))
    if choice in ("union", "intersect"):
        children = (draw(_plans(rank, depth - 1)),
                    draw(_plans(rank, depth - 1)))
        return (Union if choice == "union" else Intersect)(children)
    if choice == "quantify":
        return Quantify(draw(_plans(rank + 1, depth - 1)), draw(kinds))
    if choice == "project":
        coords = tuple(draw(st.integers(0, rank)) for __ in range(rank))
        return Project(draw(_plans(rank + 1, depth - 1)), coords)
    if choice == "extend":
        return Extend(draw(_plans(rank - 1, depth - 1)))
    if choice == "filter_eq":
        i = draw(st.integers(-rank, rank - 1))
        j = draw(st.integers(-rank, rank - 1))
        return FilterEq(draw(_plans(rank, depth - 1)), i, j)
    if choice == "filter_atom":
        positions = (draw(st.integers(0, rank - 1)),
                     draw(st.integers(0, rank - 1)))
        negate = draw(st.booleans())
        return FilterAtom(draw(_plans(rank, depth - 1)), 0, positions,
                          negate)
    # join
    split = draw(st.integers(0, rank))
    return Join(draw(_plans(split, depth - 1)),
                draw(_plans(rank - split, depth - 1)))


def random_plans():
    return st.integers(0, MAX_RANK).flatmap(
        lambda rank: _plans(rank, depth=3))


def _unchecked_plans():
    """Plans built without regard to rank: out-of-range scans, indices
    and coordinates, mixed-rank combinators, empty unions, dynamic
    fixpoints — most are ill-ranked somewhere."""
    small = st.integers(-1, MAX_RANK + 1)
    leaves = st.one_of(
        st.builds(Scan, st.integers(0, 1)),
        st.builds(FullScan, small),
        st.builds(Empty, small),
        st.just(MachineFixpoint(len)))
    coords = st.lists(small, max_size=3).map(tuple)

    def nodes(children):
        return st.one_of(
            st.builds(Complement, children),
            st.builds(Extend, children),
            st.builds(Quantify, children, kinds),
            st.builds(FilterEq, children, small, small),
            st.builds(FilterAtom, children, st.integers(0, 1), coords,
                      st.booleans()),
            st.builds(Project, children, coords),
            st.builds(Join, children, children),
            st.builds(Union, st.lists(children, max_size=3)),
            st.builds(Intersect, st.lists(children, max_size=3)))

    return st.recursive(leaves, nodes, max_leaves=8)


def any_plans():
    """Well-ranked and unchecked plans, mixed."""
    return st.one_of(random_plans(), _unchecked_plans())


BATTERY = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@BATTERY
@given(plan=random_plans())
def test_each_rule_in_isolation_preserves_values(plan):
    baseline = _INTERPRETED.evaluate(plan)
    for name in RULE_NAMES:
        rewritten = optimize(plan, SIGNATURE, rules=[name])
        if rewritten == plan:
            continue
        assert _INTERPRETED.evaluate(rewritten) == baseline, name


@BATTERY
@given(plan=random_plans())
def test_full_catalog_preserves_values(plan):
    assert (_INTERPRETED.evaluate(optimize(plan, SIGNATURE))
            == _INTERPRETED.evaluate(plan))


@BATTERY
@given(plan=random_plans())
def test_optimize_is_idempotent(plan):
    once = optimize(plan, SIGNATURE)
    assert optimize(once, SIGNATURE) == once


@BATTERY
@given(plan=random_plans())
def test_compiled_backend_agrees_on_optimized_plan(plan):
    rewritten = optimize(plan, SIGNATURE)
    assert (_COMPILED.evaluate(rewritten)
            == _INTERPRETED.evaluate(rewritten))


@settings(max_examples=40, deadline=None)
@given(plan=random_plans())
def test_rewrite_counts_explain_the_change(plan):
    result = optimize_result(plan, SIGNATURE)
    if result.plan != optimize(plan, SIGNATURE, rules=[]):
        assert result.total_rewrites > 0
    assert result.passes >= 1


def test_unknown_rule_names_rejected():
    with pytest.raises(ValueError, match="no-such-rule"):
        optimize(FullScan(1), SIGNATURE, rules=["no-such-rule"])


@BATTERY
@given(plan=any_plans(), signature=st.sampled_from([SIGNATURE, None]))
def test_normal_form_is_returned_as_is(plan, signature):
    once = normalize(plan, signature)
    assert normalize(once, signature) is once


@BATTERY
@given(plan=any_plans())
def test_rank_memo_agrees_with_plan_rank(plan):
    rank = _Ranker(SIGNATURE)
    for node in iter_subplans(plan):
        try:
            expected = plan_rank(node, SIGNATURE)
        except (RankMismatchError, TypeSignatureError):
            expected = None
        assert rank(node) == expected

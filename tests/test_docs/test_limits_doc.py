"""``docs/limits.md`` must match :data:`repro.trace.limits.REGISTRY`
and the live defaults of the governed entry points."""

import importlib
import inspect
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.engine.plan import MachineFixpoint
from repro.fcf import FcfDatabase, finite_value
from repro.fcf.qlf import QLfInterpreter
from repro.finite.ql import QLInterpreter
from repro.graphs import mixed_components_hsdb, path_db
from repro.qlhs.completeness import PQPipeline
from repro.qlhs.interpreter import QLhsInterpreter
from repro.errors import OutOfFuel
from repro.machines.counter import CounterMachine, Jmp
from repro.trace import limits

DOC = Path(__file__).resolve().parents[2] / "docs" / "limits.md"


def table_rows():
    """The data rows of the markdown table, unescaped, as tuples."""
    placeholder = "\x00"          # stands in for the escaped \| cells
    rows = []
    for line in DOC.read_text().splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip().replace(placeholder, "|")
                 for c in line.replace(r"\|", placeholder).split("|")[1:-1]]
        if cells[0] in ("Location", "---"):
            continue
        rows.append(tuple(cells))
    return rows


class TestTableMatchesRegistry:
    def test_row_count(self):
        assert len(table_rows()) == len(limits.REGISTRY)

    def test_rows_match_registry_in_order(self):
        for row, spec in zip(table_rows(), limits.REGISTRY):
            location, parameter, default, meaning, failure = row
            assert location == f"`{spec.location}`"
            assert parameter == f"`{spec.parameter}`"
            assert default == f"`{spec.default:_}`"
            assert meaning == spec.step_meaning
            assert failure == spec.failure

    def test_registry_locations_are_unique(self):
        locations = [spec.location for spec in limits.REGISTRY]
        assert len(set(locations)) == len(locations)


def resolve(location: str):
    """The object a registry ``location`` names (module, then attrs)."""
    parts = location.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ImportError(location)


BUDGET_SPECS = [spec for spec in limits.REGISTRY
                if spec.parameter == "budget"]


class TestRegistrySignatures:
    """Every ``budget`` row names a live keyword-only ``Budget | None``
    parameter, and no entry point has a parameter named ``fuel``."""

    def test_budget_rows_exist(self):
        assert len(BUDGET_SPECS) == 10

    @pytest.mark.parametrize("spec", BUDGET_SPECS,
                             ids=[s.location for s in BUDGET_SPECS])
    def test_budget_is_keyword_only(self, spec):
        parameters = inspect.signature(resolve(spec.location)).parameters
        assert "fuel" not in parameters
        budget = parameters["budget"]
        assert budget.kind is inspect.Parameter.KEYWORD_ONLY
        assert budget.default is None
        assert budget.annotation == "Budget | None"


class TestLiveDefaultsMatchRegistry:
    """The registry must describe what the code actually does."""

    @pytest.fixture(scope="class")
    def hsdb(self):
        return mixed_components_hsdb()

    def test_engine_default(self, hsdb):
        assert Engine(hsdb).budget.max_steps == limits.ENGINE

    def test_qlhs_interpreter_default(self, hsdb):
        interp = QLhsInterpreter(hsdb)
        assert interp.budget.max_steps == limits.QLHS_INTERPRETER

    def test_qlf_interpreter_default(self):
        interp = QLfInterpreter(FcfDatabase([finite_value(1, [(0,)])]))
        assert interp.budget.max_steps == limits.QLF_INTERPRETER

    def test_ql_interpreter_default(self):
        interp = QLInterpreter(path_db(3))
        assert interp.budget.max_steps == limits.QL_INTERPRETER

    def test_counter_run_default(self):
        with pytest.raises(OutOfFuel) as exc:
            CounterMachine([Jmp(0)], num_registers=1).run([0])
        assert exc.value.steps == limits.COUNTER_RUN + 1

    def test_machine_fixpoint_default(self):
        node = MachineFixpoint(lambda oracle: ())
        assert node.max_steps == limits.MACHINE_FIXPOINT

    def test_pq_pipeline_default(self, hsdb):
        pipeline = PQPipeline(hsdb)
        assert pipeline.budget.max_steps == limits.PQ_PIPELINE

    def test_check_case_default(self):
        import random

        from repro.check.generators import gen_case
        from repro.check.oracles import CaseContext
        ctx = CaseContext(gen_case(random.Random(7), 0))
        assert ctx.budget_steps == limits.CHECK_CASE
        assert ctx.budget().max_steps == limits.CHECK_CASE

    def test_serve_tenant_default(self):
        from repro.serve.tenants import Tenant
        tenant = Tenant("t")
        assert tenant.max_steps == limits.SERVE_REQUEST
        assert tenant.admit().max_steps == limits.SERVE_REQUEST

    def test_ingest_default(self):
        import inspect

        from repro.store.ingest import ingest_manifest
        signature = inspect.signature(ingest_manifest)
        assert (signature.parameters["budget_steps"].default
                == limits.INGEST_DB)

    def test_shard_executor_default(self):
        from repro.engine.shard import ShardExecutor
        executor = ShardExecutor(1)     # workers=1 never forks a pool
        assert executor.budget_steps == limits.SHARD_TASK

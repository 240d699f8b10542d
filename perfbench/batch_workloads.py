"""The batch workloads: in-process membership batches of E22's probe
plan over seeded Rado tuple grids.

* ``batch-seq`` runs each batch through ``Engine.batch_contains``.
* ``batch-sharded`` runs the same batches through a two-worker
  ``ShardExecutor`` started during set-up.

Each batch gets a fresh database and engine, so the engine's result
cache starts cold.  The pool's workers keep their own caches across
batches, as they do in service, but no two batches share a tuple.
Answers are checked against the direct relation semantics
(``batch-seq``) and against the sequential path bit for bit
(``batch-sharded``).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import nullcontext

from repro.engine import Engine, ResultCache, ShardExecutor
from repro.engine import executor as engine_executor
from repro.engine.frontends import plan_from_formula
from repro.logic import parse
from repro.logic import syntax as fo
from repro.symmetric import rado_hsdb
from repro.trace import TraceRecorder, recording

from common import ROUNDS, self_peak_rss_mb, summarize, tree_peak_rss_mb
from spans import SpanLog

#: E22's probe: quantifier-free but oracle-bound (every membership test
#: canonicalizes paths and asks the structure oracle).
PROBE_FORMULA = "R1(x, y) and not R1(y, x)"

#: Grid edge: each batch is EDGE x EDGE tuples over EDGE distinct
#: elements drawn from the first ELEMENTS Rado elements.  80 x 80 =
#: 6400 tuples is the grid the sharding question was first measured on
#: (E22 uses 100 x 100); fixed per-batch costs (the coordinator's
#: prepare, shipping, the IPC round trip) weigh more on smaller batches,
#: so whether sharding pays depends on this size.  The range is wide so
#: batches share no tuples: the pool workers' warm caches then hold no
#: answers for later batches, and a run does not speed up as it goes.
#: (Membership cost does not depend on element size.)
EDGE = 80
ELEMENTS = 10**9

WORKERS = 2

#: ``batch-seq`` set-ups before each round (``setup_s`` is the median
#: over the run); ``batch-sharded`` sets up once per round.  Spreading
#: them over the rounds keeps one slow spell from covering them all.
SEQ_SETUPS_PER_ROUND = 5


class Grids:
    """Seeded tuple grids, one per batch, generated on demand."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"batch:{seed}")
        self._grids: list[list[tuple]] = []

    def __getitem__(self, index: int) -> list[tuple]:
        while len(self._grids) <= index:
            elements = self._rng.sample(range(ELEMENTS), EDGE)
            self._grids.append([(x, y) for x in elements
                                for y in elements])
        return self._grids[index]


def build(log: SpanLog | None = None):
    """A fresh database, engine and probe plan (parse, then lower)."""
    db = rado_hsdb()
    engine = Engine(db)
    if log is None:
        formula = parse(PROBE_FORMULA)
        plan = plan_from_formula(formula, [fo.Var("x"), fo.Var("y")],
                                 db.signature)
    else:
        with log.span("parse"):
            formula = parse(PROBE_FORMULA)
        with log.span("lower"):
            plan = plan_from_formula(formula, [fo.Var("x"), fo.Var("y")],
                                     db.signature)
    return db, engine, plan


def start_pool() -> tuple[ShardExecutor, float]:
    """A started two-worker pool (workers forked and warmed) and the
    seconds that took."""
    t0 = time.perf_counter()
    executor = ShardExecutor(WORKERS)
    __, engine, plan = build()
    warm = [(x, y) for x in range(4) for y in range(4)]
    executor.batch_contains(engine, plan, warm)
    return executor, time.perf_counter() - t0


def close_pool(executor: ShardExecutor) -> None:
    """Shut the pool down and wait for its worker processes to exit.

    ``ShardExecutor.close`` does not wait, so the worker processes are
    taken from the underlying ``ProcessPoolExecutor`` first and joined.
    """
    pool = executor.pool._pool
    workers = list(pool._processes.values()) if pool is not None else []
    executor.close()
    for worker in workers:
        worker.join(timeout=60)


def stop_pool_helpers() -> None:
    """Stop and wait for the fork server the pools were forked from and
    the resource tracker multiprocessing started beside it, so the run
    leaves no process behind (not even an unreaped one)."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def run_batches(grids: Grids, first: int, count: int | None,
                seconds: float | None, executor: ShardExecutor | None,
                log: SpanLog | None = None):
    """Run batches ``first``, ``first + 1``, ... until ``seconds`` pass
    (or exactly ``count`` batches).

    Returns per-batch rows and the ``(start, end)`` of the window.
    """
    rows = []
    start = time.perf_counter()
    index = first
    while True:
        if count is not None and index - first >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        tuples = grids[index]
        index += 1
        with log.request(index) if log is not None else nullcontext():
            db, engine, plan = build(log)
            budget = engine.budget.fork()
            recorder = TraceRecorder() if log and executor else None
            t0 = time.perf_counter()
            if executor is None:
                answers = engine.batch_contains(plan, tuples, budget=budget)
            elif recorder is not None:
                with recording(recorder):
                    answers = executor.batch_contains(engine, plan, tuples,
                                                      budget=budget)
            else:
                answers = executor.batch_contains(engine, plan, tuples,
                                                  budget=budget)
            latency = time.perf_counter() - t0
        stats = engine.stats()
        __, rewrites = engine.cache.plans.optimizer_stats()
        row = {
            "index": index - 1,
            "t0": t0,
            "latency": latency,
            "tuples": len(tuples),
            "answers": answers,
            "steps": budget.steps,
            "oracle_questions": stats.oracle_questions,
            "rewrites": sum(n for __, n in rewrites),
            "plan_cache": stats.plan_cache,
            "result_cache": stats.result_cache,
        }
        if recorder is not None:
            row["shard_tasks"] = [s.duration for s in
                                  recorder.trace().find("engine.shard_task")]
        rows.append(row)
    return rows, (start, time.perf_counter())


def instrument_targets(sharded: bool):
    """The program functions the traced batch replay wraps in spans."""
    execute = ((ShardExecutor, "batch_contains") if sharded
               else (Engine, "batch_contains"))
    return [
        (Engine, "prepare", "prepare"),
        (engine_executor, "compile_plan", "compile"),
        (*execute, "execute"),
        (ResultCache, "get", "result_cache.get"),
        (ResultCache, "put", "result_cache.put"),
    ]


def check(rows, grids: Grids, sharded: bool) -> list[dict]:
    """Failed batches: answers that differ from the reference."""
    failures = []
    for row in rows:
        tuples = grids[row["index"]]
        if sharded:
            db, engine, plan = build()
            expected = engine.batch_contains(plan, tuples)
        else:
            db = rado_hsdb()
            expected = [db.contains(0, (x, y)) and not db.contains(0, (y, x))
                        for x, y in tuples]
        if row["answers"] != expected:
            wrong = sum(a != b for a, b in zip(row["answers"], expected))
            failures.append({"batch": row["index"], "wrong_answers": wrong})
    return failures


def layer_metrics(rows, log: SpanLog, sharded: bool,
                  pool_starts: list[float]) -> dict:
    """The per-layer metrics of one batch workload (traced rows)."""
    totals = log.totals()
    batches = len(rows)
    tuples = sum(r["tuples"] for r in rows)

    def self_us(name: str) -> float:
        return totals.get(name, {}).get("self_seconds", 0.0) * 1e6

    def per_op(name: str) -> float:
        row = totals.get(name)
        return row["self_seconds"] * 1e6 / row["count"] if row else 0.0

    def cache_sum(section: str, field: str) -> int:
        return sum(getattr(r[section], field) for r in rows)

    plan_hits = cache_sum("plan_cache", "hits")
    plan_all = plan_hits + cache_sum("plan_cache", "misses")
    result_hits = cache_sum("result_cache", "hits")
    result_all = result_hits + cache_sum("result_cache", "misses")
    oracle = sum(r["oracle_questions"] for r in rows)
    metrics = {
        "parse.us_per_query": self_us("parse") / batches,
        "lower.us_per_query": self_us("lower") / batches,
        "prepare.us_per_query": self_us("prepare") / batches,
        "prepare.rewrites_per_query":
            sum(r["rewrites"] for r in rows) / batches,
        "prepare.plan_cache_hit_ratio":
            plan_hits / plan_all if plan_all else 0.0,
        "compile.us_per_query": self_us("compile") / batches,
        "execute.us_per_query": self_us("execute") / batches,
        "execute.oracle_questions_per_query": oracle / batches,
        "execute.steps_per_query": sum(r["steps"] for r in rows) / batches,
        "execute.us_per_tuple": self_us("execute") / tuples,
        "execute.oracle_questions_per_tuple": oracle / tuples,
        "result_cache.hit_ratio":
            result_hits / result_all if result_all else 0.0,
        "result_cache.get_us_per_op": per_op("result_cache.get"),
        "result_cache.put_us_per_op": per_op("result_cache.put"),
        "result_cache.evictions": cache_sum("result_cache", "evictions"),
        "store.load_s": 0.0,
        "store.rows_loaded": 0,
        "store.lookup_us_per_req": 0.0,
        "store.replay_hits": 0,
        "store.write_us_per_req": 0.0,
        "store.write_throughs": 0,
        "shard.pool_start_s":
            statistics.median(pool_starts) if pool_starts else 0.0,
        "shard.worker_busy_s": 0.0,
        "shard.coordinator_s": 0.0,
        "shard.tasks": 0,
        "shard.balance": 0.0,
        "http.overhead_us_per_req": 0.0,
        "http.healthz_us": 0.0,
    }
    if sharded:
        busy = [sum(r["shard_tasks"]) for r in rows]
        # In the sharded path the execute layer's work runs in the
        # workers; the coordinator's execute span mostly waits for them.
        metrics["execute.us_per_tuple"] = sum(busy) * 1e6 / tuples
        metrics["shard.worker_busy_s"] = sum(busy) / batches
        metrics["shard.coordinator_s"] = sum(
            r["latency"] - max(r["shard_tasks"]) for r in rows) / batches
        metrics["shard.tasks"] = sum(
            len(r["shard_tasks"]) for r in rows) / batches
        metrics["shard.balance"] = sum(
            max(r["shard_tasks"]) * len(r["shard_tasks"])
            / sum(r["shard_tasks"]) for r in rows) / batches
    return metrics


def run_batch(ctx, sharded: bool) -> dict:
    """One batch workload run: set-up, measured rounds with their
    checks, and in the traced run a second, traced pass over the same
    batches."""
    grids = Grids(ctx.seed)
    setups, pool_starts, rounds, rss, rows, failures = [], [], [], [], [], []
    executor = None
    layers = {}

    def set_up():
        # An engine ready for the probe (database, engine, prepared
        # plan) and, when sharded, a started pool.
        nonlocal executor
        t0 = time.perf_counter()
        __, engine, plan = build()
        engine.prepare(plan)
        if sharded:
            if executor is not None:
                close_pool(executor)
            executor, pool_s = start_pool()
            pool_starts.append(pool_s)
        setups.append(time.perf_counter() - t0)

    try:
        for __ in range(ROUNDS):
            for __ in range(1 if sharded else SEQ_SETUPS_PER_ROUND):
                set_up()
            batch_rows, (start, end) = run_batches(
                grids, len(rows), None, ctx.seconds / ROUNDS, executor)
            rounds.append(([(r["t0"], r["t0"] + r["latency"], r["tuples"])
                            for r in batch_rows], start, end))
            rss.append(tree_peak_rss_mb(os.getpid()) if sharded
                       else self_peak_rss_mb())
            failures += check(batch_rows, grids, sharded)
            rows += batch_rows

        if ctx.trace:
            if sharded:
                # A fresh pool, so the traced pass starts from the same
                # worker state as an untraced round.
                close_pool(executor)
                executor, __ = start_pool()
            log = SpanLog()
            with log.instrument(instrument_targets(sharded)):
                traced, __ = run_batches(grids, 0, len(rows), None, executor,
                                         log)
            log.write_jsonl(ctx.trace_out)
            metrics = layer_metrics(traced, log, sharded, pool_starts)
            untraced_s = sum(r["latency"] for r in rows)
            traced_s = sum(r["latency"] for r in traced)
            metrics["trace.overhead_ratio"] = traced_s / untraced_s
            # The execute span wraps the whole timed call, so its self
            # time plus its children's always add up to the batch time:
            # an accounted ratio would hold by construction here.  It is
            # a serve-workload metric; 0 marks it off this path.
            metrics["trace.accounted_ratio"] = 0.0
            layers = {"per_layer": metrics}
    finally:
        if executor is not None:
            close_pool(executor)
            stop_pool_helpers()

    summary = summarize(rounds)
    params = {"probe": PROBE_FORMULA, "tuples_per_batch": EDGE * EDGE,
              "element_range": ELEMENTS, "workers": WORKERS if sharded else 1,
              "loop": "closed, one batch at a time", "rounds": ROUNDS,
              "setups": len(setups)}
    return {
        "workload": "batch-sharded" if sharded else "batch-seq",
        "params": params,
        "setup_runs_s": setups,
        "latency": summary,
        "attempted": len(rows),
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "throughput_ops_s": summary["throughput"],
            "peak_rss_mb": statistics.median(rss),
        },
        **layers,
    }

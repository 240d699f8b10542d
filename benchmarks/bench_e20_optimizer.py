"""E20 — the plan optimizer + compiled backend earn their defaults.

Claim: the frontends' naive lowering (projection towers, Extend-chains)
makes *cold* evaluation oracle-bound, and the rule-based optimizer
(:mod:`repro.engine.optimize`) plus the compile-to-closure backend
(:mod:`repro.engine.compile`) remove that cost without changing a
single answer.  Measured, on the E15 Rado sentence workload with a
fresh database per round (cold result cache, warm plan cache — the
serving tier's steady state for new tenants): wall time and oracle
questions of the naive interpreted path vs the default
optimized+compiled path, with bit-for-bit verdict agreement asserted
every round.  Gate: ≥5× cold speedup (≥2× under ``--quick``).

A second phase times *cold preparation* — what a never-seen query pays
before evaluation starts: normalize + optimize through a fresh
:class:`~repro.engine.cache.PlanCache` per round over the seeded corpus
of :mod:`repro.check.golden`, reported as µs and rewrites per query.
Its gate is exactness, not speed: the prepared plans, rewrite tallies
and pass counts must match the pinned ``PREPARE_DIGEST``.

Run under pytest (tier-2: ``pytest benchmarks/bench_e20_optimizer.py
-s``) or as a script emitting the E20 JSON artifact::

    PYTHONPATH=src python benchmarks/bench_e20_optimizer.py --out=e20.json
"""

import json
import statistics
import sys
import time

from repro.check.golden import (
    PREPARE_DIGEST,
    prepare_corpus,
    prepare_digest,
)
from repro.engine import (
    Engine,
    EngineCache,
    optimize_result,
    plan_from_sentence,
)
from repro.engine.cache import PlanCache
from repro.logic import parse
from repro.symmetric import rado_hsdb

try:
    from conftest import report
except ImportError:  # script mode: benchmarks/ is not on sys.path
    def report(title, rows):
        """Print an experiment's data series (script-mode fallback)."""
        print(f"\n[{title}]")
        for row in rows:
            print("   ", *row)

#: The E15 Rado sentence workload, verbatim (bench_e15_engine.py).
RADO_WORKLOAD = [
    "forall x. exists y. R1(x, y)",
    "exists x. R1(x, x)",
    "forall x. forall y. (R1(x, y) -> R1(y, x))",
    "exists x. exists y. (R1(x, y) and x != y)",
    "forall x. exists y. (R1(x, y) and x != y)",
    "exists x. forall y. R1(x, y)",
]

ROUNDS = 8
QUICK_ROUNDS = 3
GATE = 5.0
QUICK_GATE = 2.0


def _engine(db, plans: PlanCache, *, optimize: bool,
            compiled: bool) -> Engine:
    """A fresh engine: cold result cache, shared (warm) plan cache."""
    cache = EngineCache()
    cache.plans = plans
    return Engine(db, cache=cache, optimize=optimize, compiled=compiled)


def _run_rounds(rounds: int, plans: PlanCache, *, optimize: bool,
                compiled: bool):
    """``rounds`` cold evaluations of the workload, one fresh database
    (and engine, and result cache) per round.

    Databases, engines (fingerprinting), and lowered plans are built
    *outside* the timed region: that setup costs the two paths
    identically, and E20 measures evaluation, not setup.
    """
    engines = [_engine(rado_hsdb(), plans, optimize=optimize,
                       compiled=compiled) for __ in range(rounds)]
    workload = [plan_from_sentence(parse(s), engines[0].signature)
                for s in RADO_WORKLOAD]
    verdicts = []
    t0 = time.perf_counter()
    for engine in engines:
        verdicts.append([engine.holds(p) for p in workload])
    elapsed = time.perf_counter() - t0
    questions = sum(e.stats().oracle_questions for e in engines)
    return elapsed, questions, verdicts


def measure(rounds: int = ROUNDS) -> dict:
    """The E20 measurement: naive vs optimized+compiled, cold rounds."""
    plans = PlanCache()
    # Warm the plan cache (normalization + optimization memo) once so
    # both paths amortize preparation exactly as a long-lived serving
    # cache would; the timed rounds then measure pure evaluation.
    _run_rounds(1, plans, optimize=False, compiled=False)
    _run_rounds(1, plans, optimize=True, compiled=True)

    naive_s, naive_q, naive_verdicts = _run_rounds(
        rounds, plans, optimize=False, compiled=False)
    fast_s, fast_q, fast_verdicts = _run_rounds(
        rounds, plans, optimize=True, compiled=True)
    assert fast_verdicts == naive_verdicts, (
        "optimized+compiled path changed an answer: "
        f"{fast_verdicts!r} != {naive_verdicts!r}")

    optimizations, rewrites = plans.optimizer_stats()
    return {
        "experiment": "E20",
        "workload": RADO_WORKLOAD,
        "rounds": rounds,
        "interpreted": {"seconds": naive_s, "oracle_questions": naive_q},
        "optimized_compiled": {"seconds": fast_s,
                               "oracle_questions": fast_q},
        "speedup": naive_s / max(fast_s, 1e-9),
        "verdicts": naive_verdicts[0],
        "optimizations": optimizations,
        "rewrites": dict(rewrites),
    }


def measure_cold_prepare(rounds: int = ROUNDS) -> dict:
    """Cold preparation of the golden corpus: a fresh plan cache per
    round (median reported), and the digest of what it prepared."""
    corpus = prepare_corpus()
    per_round = []
    for __ in range(rounds):
        plans = PlanCache()
        t0 = time.perf_counter()
        prepared = [plans.prepared(plan, sig) for sig, plan in corpus]
        per_round.append(time.perf_counter() - t0)
    __, rewrites = plans.optimizer_stats()
    digest = prepare_digest(
        (p, optimize_result(plan, sig))
        for p, (sig, plan) in zip(prepared, corpus))
    return {
        "queries": len(corpus),
        "rounds": rounds,
        "us_per_query": statistics.median(per_round) / len(corpus) * 1e6,
        "rewrites_per_query": sum(n for __, n in rewrites) / len(corpus),
        "digest": digest,
        "digest_matches": digest == PREPARE_DIGEST,
    }


def _report(data: dict) -> None:
    interp = data["interpreted"]
    fast = data["optimized_compiled"]
    report("E20 optimizer+compiled cold-eval speedup (Rado workload)", [
        ("interpreted", f"{interp['seconds'] * 1e3:.2f} ms",
         f"{interp['oracle_questions']} oracle questions"),
        ("opt+compiled", f"{fast['seconds'] * 1e3:.2f} ms",
         f"{fast['oracle_questions']} oracle questions"),
        ("speedup", f"{data['speedup']:.2f}x",
         f"{data['rounds']} fresh-database rounds"),
        ("rewrites", sum(data["rewrites"].values()),
         f"across {data['optimizations']} optimized plans"),
    ])
    cold = data["cold_prepare"]
    report("E20 cold prepare (golden corpus, fresh plan cache per round)", [
        ("prepare", f"{cold['us_per_query']:.0f} us/query",
         f"median of {cold['rounds']} rounds x {cold['queries']} queries"),
        ("rewrites", f"{cold['rewrites_per_query']:.2f} per query"),
        ("digest", "matches" if cold["digest_matches"] else "MOVED",
         cold["digest"][:16]),
    ])


def test_e20_optimizer_speedup():
    """Optimized+compiled cold evaluation beats interpreted ≥5×."""
    data = measure(ROUNDS)
    data["cold_prepare"] = measure_cold_prepare(ROUNDS)
    _report(data)
    assert data["cold_prepare"]["digest_matches"], (
        "E20: cold preparation moved a prepared plan, rewrite tally or "
        "pass count")
    assert data["speedup"] >= GATE, (
        f"E20 gate: expected >= {GATE}x, measured "
        f"{data['speedup']:.2f}x")
    assert (data["optimized_compiled"]["oracle_questions"]
            < data["interpreted"]["oracle_questions"])
    assert data["optimizations"] > 0


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    out = None
    for arg in argv:
        if arg.startswith("--out="):
            out = arg.split("=", 1)[1]
        elif arg != "--quick":
            print(f"unknown flag {arg!r}\n"
                  "usage: bench_e20_optimizer.py [--quick] [--out=FILE]",
                  file=sys.stderr)
            return 2
    gate = QUICK_GATE if quick else GATE
    rounds = QUICK_ROUNDS if quick else ROUNDS
    data = measure(rounds)
    data["cold_prepare"] = measure_cold_prepare(rounds)
    data["gate"] = gate
    data["passed"] = (data["speedup"] >= gate
                      and data["cold_prepare"]["digest_matches"])
    _report(data)
    if out:
        with open(out, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
    if not data["cold_prepare"]["digest_matches"]:
        print("E20 gate FAILED: prepared plans moved (digest "
              f"{data['cold_prepare']['digest']} != {PREPARE_DIGEST})",
              file=sys.stderr)
        return 1
    if not data["passed"]:
        print(f"E20 gate FAILED: {data['speedup']:.2f}x < {gate}x",
              file=sys.stderr)
        return 1
    print(f"E20 gate passed: {data['speedup']:.2f}x >= {gate}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

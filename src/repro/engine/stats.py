"""Engine observability: counters, timings, and printable snapshots.

The paper's own cost model for query evaluation is *oracle questions* —
Definition 2.4 queries a database only through "is u ∈ Rᵢ?" questions,
and every experiment reports how many an algorithm asked.  The engine
adopts that model and extends it with the operational counters a serving
layer needs: cache hits/misses/evictions at both levels, per-node-kind
execution timings, and wall time.

:class:`EngineStats` is an immutable snapshot; the live engine holds a
:class:`MutableEngineStats` and snapshots it on demand (CLI ``--stats``,
benchmarks, tests).  The mutable tables are lock-protected, so engines
shared between threads (see ``docs/concurrency.md``) never lose counts
to interleaved read-modify-write updates, and a :meth:`MutableEngineStats.
snapshot` taken mid-traffic is internally consistent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one cache level.

    ``shared_hits``/``shared_misses`` split out the lookups made on
    behalf of *shared* subplan boundaries — interior probes of the
    compiled path and batch common subplans — from root-level requests.
    They are a subset of ``hits``/``misses``, not an addition: every
    shared probe also counts in the totals, so ``requests`` keeps its
    historical meaning.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    shared_hits: int = 0
    shared_misses: int = 0

    @property
    def requests(self) -> int:
        """Total counted lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per request (0.0 when the cache was never consulted)."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """A JSON-safe dict (round-trips through :meth:`from_dict`)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": self.size,
                "shared_hits": self.shared_hits,
                "shared_misses": self.shared_misses}

    @staticmethod
    def from_dict(data: dict) -> "CacheStats":
        """Rebuild a :class:`CacheStats` from :meth:`to_dict` output."""
        return CacheStats(hits=data["hits"], misses=data["misses"],
                          evictions=data["evictions"], size=data["size"],
                          shared_hits=data["shared_hits"],
                          shared_misses=data["shared_misses"])

    def merge(self, other: "CacheStats") -> "CacheStats":
        """The element-wise sum of two snapshots (disjoint caches)."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          evictions=self.evictions + other.evictions,
                          size=self.size + other.size,
                          shared_hits=self.shared_hits + other.shared_hits,
                          shared_misses=(self.shared_misses
                                         + other.shared_misses))


@dataclass(frozen=True)
class OptimizerStats:
    """Counters of the plan-optimization and compilation pipeline.

    ``optimizations`` counts distinct plans optimized (memo misses, not
    warm lookups), ``compiles`` counts closure compilations, and
    ``rewrites`` maps rule name to total firings across all optimized
    plans — the observable record of *which* algebraic laws actually
    pay off on a workload (``docs/optimizer.md``).
    """

    optimizations: int = 0
    compiles: int = 0
    rewrites: tuple[tuple[str, int], ...] = ()

    @property
    def total_rewrites(self) -> int:
        """Total rule firings across all rules."""
        return sum(n for __, n in self.rewrites)

    def to_dict(self) -> dict:
        """A JSON-safe dict (round-trips through :meth:`from_dict`)."""
        return {"optimizations": self.optimizations,
                "compiles": self.compiles,
                "rewrites": {name: n for name, n in self.rewrites}}

    @staticmethod
    def from_dict(data: dict) -> "OptimizerStats":
        """Rebuild an :class:`OptimizerStats` from :meth:`to_dict`
        output."""
        return OptimizerStats(
            optimizations=data["optimizations"],
            compiles=data["compiles"],
            rewrites=tuple(sorted(data["rewrites"].items())))

    def merge(self, other: "OptimizerStats") -> "OptimizerStats":
        """Sum two snapshots, combining rule tallies by name."""
        rewrites: dict[str, int] = dict(self.rewrites)
        for name, n in other.rewrites:
            rewrites[name] = rewrites.get(name, 0) + n
        return OptimizerStats(
            optimizations=self.optimizations + other.optimizations,
            compiles=self.compiles + other.compiles,
            rewrites=tuple(sorted(rewrites.items())))


@dataclass(frozen=True)
class EngineStats:
    """One immutable engine snapshot.

    ``oracle_questions`` counts ``≅_B`` oracle invocations (the
    :class:`~repro.util.memo.CallCounter` wrapped around the database's
    equivalence predicate) on the evaluating threads — the paper's
    currency.  ``node_timings``
    maps plan-node kind to ``(executions, total_seconds)``.
    """

    plan_cache: CacheStats = CacheStats()
    result_cache: CacheStats = CacheStats()
    optimizer: OptimizerStats = OptimizerStats()
    oracle_questions: int = 0
    evaluations: int = 0
    batch_requests: int = 0
    wall_time: float = 0.0
    node_timings: tuple[tuple[str, int, float], ...] = ()
    verdicts_true: int = 0
    verdicts_false: int = 0
    verdicts_unknown: int = 0
    unknown_reasons: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        """A JSON-safe dict of the whole snapshot.

        This is the wire format of the serving tier's ``GET /stats``
        endpoint; ``json.dumps(stats.to_dict())`` always succeeds and
        :meth:`from_dict` inverts it exactly (tuples become lists in
        JSON and are restored on the way back).
        """
        return {
            "plan_cache": self.plan_cache.to_dict(),
            "result_cache": self.result_cache.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "oracle_questions": self.oracle_questions,
            "evaluations": self.evaluations,
            "batch_requests": self.batch_requests,
            "wall_time": self.wall_time,
            "node_timings": [[kind, count, seconds]
                             for kind, count, seconds in self.node_timings],
            "verdicts": {"true": self.verdicts_true,
                         "false": self.verdicts_false,
                         "unknown": self.verdicts_unknown},
            "unknown_reasons": {r: n for r, n in self.unknown_reasons},
        }

    @staticmethod
    def from_dict(data: dict) -> "EngineStats":
        """Rebuild an :class:`EngineStats` from :meth:`to_dict` output
        (including a ``json.loads(json.dumps(...))`` round trip)."""
        verdicts = data["verdicts"]
        return EngineStats(
            plan_cache=CacheStats.from_dict(data["plan_cache"]),
            result_cache=CacheStats.from_dict(data["result_cache"]),
            optimizer=OptimizerStats.from_dict(
                data.get("optimizer", OptimizerStats().to_dict())),
            oracle_questions=data["oracle_questions"],
            evaluations=data["evaluations"],
            batch_requests=data["batch_requests"],
            wall_time=data["wall_time"],
            node_timings=tuple(
                (kind, count, seconds)
                for kind, count, seconds in data["node_timings"]),
            verdicts_true=verdicts["true"],
            verdicts_false=verdicts["false"],
            verdicts_unknown=verdicts["unknown"],
            unknown_reasons=tuple(
                sorted(data["unknown_reasons"].items())),
        )

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Combine two snapshots from *different* engines into one.

        This is the join-side aggregation of the ingest pipeline
        (``python -m repro ingest``): each worker process ships the
        :class:`EngineStats` of its private engine back to the parent,
        which folds them into one fleet-wide view.  Scalars add, cache
        and optimizer snapshots add component-wise, and the keyed
        tables (``node_timings``, ``unknown_reasons``) merge by key.
        Only meaningful across engines that do not share caches —
        merging two snapshots of one engine would double-count.
        """
        timings: dict[str, list] = {
            kind: [count, seconds]
            for kind, count, seconds in self.node_timings}
        for kind, count, seconds in other.node_timings:
            entry = timings.setdefault(kind, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
        reasons: dict[str, int] = dict(self.unknown_reasons)
        for reason, n in other.unknown_reasons:
            reasons[reason] = reasons.get(reason, 0) + n
        return EngineStats(
            plan_cache=self.plan_cache.merge(other.plan_cache),
            result_cache=self.result_cache.merge(other.result_cache),
            optimizer=self.optimizer.merge(other.optimizer),
            oracle_questions=self.oracle_questions + other.oracle_questions,
            evaluations=self.evaluations + other.evaluations,
            batch_requests=self.batch_requests + other.batch_requests,
            wall_time=self.wall_time + other.wall_time,
            node_timings=tuple(
                (kind, count, seconds)
                for kind, (count, seconds) in sorted(
                    timings.items(), key=lambda kv: -kv[1][1])),
            verdicts_true=self.verdicts_true + other.verdicts_true,
            verdicts_false=self.verdicts_false + other.verdicts_false,
            verdicts_unknown=self.verdicts_unknown + other.verdicts_unknown,
            unknown_reasons=tuple(sorted(reasons.items())),
        )

    def format(self) -> str:
        """A human-readable block (the CLI's ``--stats`` output)."""
        lines = [
            "EngineStats",
            f"  evaluations:      {self.evaluations} "
            f"({self.batch_requests} batched requests)",
            f"  wall time:        {self.wall_time * 1e3:.3f} ms",
            f"  oracle questions: {self.oracle_questions}",
            f"  plan cache:       {self.plan_cache.hits} hits / "
            f"{self.plan_cache.misses} misses / "
            f"{self.plan_cache.evictions} evictions "
            f"(hit rate {self.plan_cache.hit_rate:.0%}, "
            f"size {self.plan_cache.size})",
            f"  result cache:     {self.result_cache.hits} hits / "
            f"{self.result_cache.misses} misses / "
            f"{self.result_cache.evictions} evictions "
            f"(hit rate {self.result_cache.hit_rate:.0%}, "
            f"size {self.result_cache.size}, shared "
            f"{self.result_cache.shared_hits}/"
            f"{self.result_cache.shared_misses})",
        ]
        if self.optimizer.optimizations or self.optimizer.compiles:
            lines.append(
                f"  optimizer:        {self.optimizer.optimizations} "
                f"plans optimized / {self.optimizer.total_rewrites} "
                f"rewrites / {self.optimizer.compiles} compiles")
        if self.verdicts_true or self.verdicts_false or self.verdicts_unknown:
            reasons = ", ".join(f"{r}={n}" for r, n in self.unknown_reasons)
            lines.append(
                f"  verdicts:         {self.verdicts_true} true / "
                f"{self.verdicts_false} false / "
                f"{self.verdicts_unknown} unknown"
                + (f" ({reasons})" if reasons else ""))
        if self.node_timings:
            lines.append("  per-node timings:")
            for kind, count, seconds in self.node_timings:
                lines.append(
                    f"    {kind:<16} {count:>6} × "
                    f"{seconds / count * 1e6:>9.1f} µs "
                    f"(total {seconds * 1e3:.3f} ms)")
        return "\n".join(lines)


@dataclass
class MutableEngineStats:
    """The live counters an :class:`~repro.engine.executor.Engine` keeps.

    Thread-safe: every mutation runs under one private lock (use
    :meth:`add` for the scalar counters rather than ``+=`` on the
    public attributes), and :meth:`snapshot` freezes a consistent view
    even while other threads keep recording.
    """

    oracle_questions: int = 0
    evaluations: int = 0
    batch_requests: int = 0
    compiles: int = 0
    wall_time: float = 0.0
    node_counts: dict = field(default_factory=dict)
    node_seconds: dict = field(default_factory=dict)
    verdict_counts: dict = field(default_factory=dict)
    unknown_reasons: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def add(self, *, oracle_questions: int = 0, evaluations: int = 0,
            batch_requests: int = 0, compiles: int = 0,
            wall_time: float = 0.0) -> None:
        """Atomically accumulate the scalar counters.

        The race-free replacement for the historical ``stats.counter
        += n`` read-modify-write pattern.
        """
        with self._lock:
            self.oracle_questions += oracle_questions
            self.evaluations += evaluations
            self.batch_requests += batch_requests
            self.compiles += compiles
            self.wall_time += wall_time

    def record_node(self, kind: str, seconds: float) -> None:
        """Accumulate one plan-node execution into the timing tables."""
        with self._lock:
            self.node_counts[kind] = self.node_counts.get(kind, 0) + 1
            self.node_seconds[kind] = (
                self.node_seconds.get(kind, 0.0) + seconds)

    def record_verdict(self, status: str, reason: str | None = None) -> None:
        """Count one :class:`~repro.engine.verdict.Verdict` by status
        (and, for UNKNOWN, by machine-readable reason)."""
        with self._lock:
            self.verdict_counts[status] = (
                self.verdict_counts.get(status, 0) + 1)
            if reason is not None:
                self.unknown_reasons[reason] = (
                    self.unknown_reasons.get(reason, 0) + 1)

    def snapshot(self, plan_cache: CacheStats,
                 result_cache: CacheStats,
                 optimizations: int = 0,
                 rewrites: tuple[tuple[str, int], ...] = ()) -> EngineStats:
        """Freeze the live counters into an :class:`EngineStats`.

        ``optimizations``/``rewrites`` come from the (shareable) plan
        cache's optimizer memo; ``compiles`` is engine-local.
        """
        with self._lock:
            timings = tuple(
                (kind, self.node_counts[kind], self.node_seconds[kind])
                for kind in sorted(self.node_counts,
                                   key=lambda k: -self.node_seconds[k]))
            return EngineStats(
                plan_cache=plan_cache,
                result_cache=result_cache,
                optimizer=OptimizerStats(
                    optimizations=optimizations,
                    compiles=self.compiles,
                    rewrites=rewrites),
                oracle_questions=self.oracle_questions,
                evaluations=self.evaluations,
                batch_requests=self.batch_requests,
                wall_time=self.wall_time,
                node_timings=timings,
                verdicts_true=self.verdict_counts.get("true", 0),
                verdicts_false=self.verdict_counts.get("false", 0),
                verdicts_unknown=self.verdict_counts.get("unknown", 0),
                unknown_reasons=tuple(
                    sorted(self.unknown_reasons.items())),
            )

    def absorb(self, stats: EngineStats) -> None:
        """Fold a *worker process's* snapshot into these live counters.

        The join-side half of the sharded executor
        (:mod:`repro.engine.shard`): workers ship the
        :class:`EngineStats` of one task back as JSON and the
        coordinator folds the engine-core counters — scalars, node
        timings, verdict tallies, unknown reasons, and the worker's
        compile count — into its own engine's live stats.  The cache
        sections are deliberately **not** absorbed: they describe the
        worker's private caches, whose occupancy would double-count
        against the coordinator's own cache snapshots.
        """
        with self._lock:
            self.oracle_questions += stats.oracle_questions
            self.evaluations += stats.evaluations
            self.batch_requests += stats.batch_requests
            self.compiles += stats.optimizer.compiles
            self.wall_time += stats.wall_time
            for kind, count, seconds in stats.node_timings:
                self.node_counts[kind] = self.node_counts.get(kind, 0) + count
                self.node_seconds[kind] = (
                    self.node_seconds.get(kind, 0.0) + seconds)
            for status, n in (("true", stats.verdicts_true),
                              ("false", stats.verdicts_false),
                              ("unknown", stats.verdicts_unknown)):
                if n:
                    self.verdict_counts[status] = (
                        self.verdict_counts.get(status, 0) + n)
            for reason, n in stats.unknown_reasons:
                self.unknown_reasons[reason] = (
                    self.unknown_reasons.get(reason, 0) + n)

    def reset(self) -> None:
        """Zero every live counter."""
        with self._lock:
            self.oracle_questions = 0
            self.evaluations = 0
            self.batch_requests = 0
            self.compiles = 0
            self.wall_time = 0.0
            self.node_counts.clear()
            self.node_seconds.clear()
            self.verdict_counts.clear()
            self.unknown_reasons.clear()


class Timer:
    """A tiny context manager accumulating wall time."""

    __slots__ = ("seconds", "_start")

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start

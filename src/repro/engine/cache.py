"""The engine's two-level cache.

Level 1 — the **plan cache**: preparation (normalize + optimize,
:func:`repro.engine.optimize.optimize_result`) is pure but walks the
whole plan tree; it is memoized with the kwargs-capable
:func:`repro.util.memo.lru_cached`, so syntactically repeated plans
(every warm request) skip it entirely and differently written but
rewrite-equal plans converge on one result-cache key.

Level 2 — the **result cache**: finished answers keyed by
``(database fingerprint, normalized plan, args)``.  The fingerprint
(:mod:`repro.engine.fingerprint`) is what makes the entry safely
shareable across database *objects*: any two databases with the same
fingerprint agree on every generic query the engine computes, so a hit
is a correct answer regardless of which copy asked.  ``args`` carries
per-request parameters (e.g. the tuple of a membership test).

Both levels expose :class:`~repro.engine.stats.CacheStats` snapshots.

Thread safety (the serving-tier contract, ``docs/concurrency.md``):
one :class:`EngineCache` may back N engines on N threads.  The plan
cache inherits the locked memo of :func:`~repro.util.memo.lru_cached`;
the result cache is one ``OrderedDict`` LRU behind one lock, so each
``get``/``put`` (LRU refresh and eviction included) is atomic and
eviction order is exact LRU.  The work it guards is CPU-bound Python
under the GIL, so finer-grained locking would buy no parallelism.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from ..util.memo import lru_cached
from .plan import Plan, normalize
from .stats import CacheStats

#: Miss sentinel for :meth:`ResultCache.get`, distinct from any value
#: the cache can hold.
_MISSING = object()


class PlanCache:
    """Memoized plan preparation (level 1).

    Two memos: :meth:`normalized` (pure normalization, used when the
    optimizer is off) and :meth:`prepared` (one
    :func:`~repro.engine.optimize.optimize_result` call, which
    normalizes before and after every pass, so its plan needs no
    further normalization).  A never-seen query therefore costs one
    entry in one memo.  Both are thread-safe via the locked
    :func:`~repro.util.memo.lru_cached` wrapper; the optimizer's
    rewrite tallies accumulate under a private lock only on memo
    misses, so warm lookups stay contention-free.
    """

    def __init__(self, maxsize: int = 4096):
        self._normalize = lru_cached(maxsize=maxsize)(
            lambda plan, signature=None: normalize(plan, signature))
        self._prepare = lru_cached(maxsize=maxsize)(self._prepare_impl)
        self._opt_lock = threading.Lock()
        self._optimizations = 0
        self._rewrites: dict[str, int] = {}

    def _prepare_impl(self, plan: Plan, signature=None):
        # Imported here, not at module top: optimize.py imports plan.py
        # which this module also imports; keeping the heavy import lazy
        # avoids ordering constraints and costs one dict lookup per
        # memo *miss* only.
        from .optimize import optimize_result
        result = optimize_result(plan, signature)
        with self._opt_lock:
            self._optimizations += 1
            for name, count in result.rewrites:
                self._rewrites[name] = self._rewrites.get(name, 0) + count
        return result.plan

    def normalized(self, plan: Plan,
                   signature: tuple[int, ...] | None = None) -> Plan:
        """The normalized form of ``plan`` (memoized)."""
        return self._normalize(plan, signature=signature)

    def prepared(self, plan: Plan,
                 signature: tuple[int, ...] | None = None, *,
                 optimize: bool = True) -> Plan:
        """The executable form of ``plan``: normalized and, unless
        ``optimize=False``, rewritten by :func:`repro.engine.optimize.
        optimize` (both memoized)."""
        if not optimize:
            return self._normalize(plan, signature=signature)
        return self._prepare(plan, signature=signature)

    def optimizer_stats(self) -> tuple[int, tuple[tuple[str, int], ...]]:
        """``(plans_optimized, ((rule, firings), ...))`` so far."""
        with self._opt_lock:
            return self._optimizations, tuple(sorted(self._rewrites.items()))

    def stats(self) -> CacheStats:
        """A :class:`CacheStats` snapshot across both memos."""
        norm, prep = self._normalize, self._prepare
        with norm.lock:
            hits, misses = norm.hits, norm.misses
            evictions, size = norm.evictions, len(norm.cache)
        with prep.lock:
            return CacheStats(hits=hits + prep.hits,
                              misses=misses + prep.misses,
                              evictions=evictions + prep.evictions,
                              size=size + len(prep.cache))

    def clear(self) -> None:
        """Drop every memoized preparation (counters reset too)."""
        self._normalize.cache_clear()
        self._prepare.cache_clear()
        with self._opt_lock:
            self._optimizations = 0
            self._rewrites.clear()


class ResultCache:
    """Bounded LRU of finished answers (level 2), behind one lock.

    Keys are ``(fingerprint, plan, args)`` triples; values are whatever
    the executor produced (path frozensets, booleans, ``FcfValue``\\ s —
    all immutable, so sharing is safe).  One ``OrderedDict`` in
    recency order holds every entry; a ``put`` beyond ``maxsize``
    evicts the least recently used entry, exactly.

    Concurrency contract: every public method is safe to call from any
    thread and is atomic under the cache's one lock — ``get`` folds
    the containment check, LRU refresh and counter bump into one
    locked access (no TOCTOU window), ``put`` inserts and evicts in
    one step, so no caller ever observes ``len(self) > maxsize``.
    Counters satisfy ``hits + misses == counted lookups`` exactly.
    """

    def __init__(self, maxsize: int = 65536):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.shared_hits = 0
        self.shared_misses = 0

    @staticmethod
    def key(fingerprint: str, plan: Plan,
            args: Hashable = ()) -> Hashable:
        """The canonical ``(fingerprint, plan, args)`` cache key."""
        return (fingerprint, plan, args)

    def get(self, key: Hashable, default: Any = None, *,
            shared: bool = False) -> Any:
        """Counted lookup: a hit refreshes LRU order, a miss counts.

        One atomic locked access: the historical ``key in dict`` /
        ``dict[key]`` two-step (which could raise ``KeyError`` when a
        concurrent ``put`` evicted in between) is folded into it.

        ``shared=True`` marks the lookup as a *shared-subplan* probe
        (interior boundary of a compiled plan, or a batch common
        subplan): it still counts in ``hits``/``misses`` and
        additionally in the ``shared_*`` split, so observers can tell
        cross-query sharing from root-level traffic.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                if shared:
                    self.shared_misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            if shared:
                self.shared_hits += 1
            return value

    def __contains__(self, key: Hashable) -> bool:
        # Pure containment check — does not touch the counters; use
        # ``get`` for the counted access path.
        with self._lock:
            return key in self._data

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        with self._lock:
            data = self._data
            data[key] = value
            data.move_to_end(key)
            while len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1

    def stats(self) -> CacheStats:
        """A :class:`CacheStats` snapshot of the result cache."""
        with self._lock:
            return CacheStats(hits=self.hits, misses=self.misses,
                              evictions=self.evictions,
                              size=len(self._data),
                              shared_hits=self.shared_hits,
                              shared_misses=self.shared_misses)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time ``(key, value)`` snapshot of every entry.

        Taken under the lock and uncounted (LRU order and hit/miss
        tallies are untouched), so it is consistent and safe against
        concurrent writers.  This is what :meth:`repro.store.backend.
        Store.snapshot_cache` walks to persist a live cache.
        """
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        """Drop every entry and zero the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0
            self.shared_hits = self.shared_misses = 0

    def __len__(self) -> int:
        return len(self._data)


class EngineCache:
    """The two levels, bundled (one per engine; shareable across them).

    Sharing one :class:`EngineCache` between several engines over
    fingerprint-equal databases is the intended deployment shape for a
    serving tier: the fingerprint in every result key keeps tenants
    with different databases from ever reading each other's entries,
    and both levels are thread-safe, so the sharers may live on
    different threads (``docs/concurrency.md`` states the full
    contract; the E18 experiment bounds the locking overhead).
    """

    def __init__(self, plan_maxsize: int = 4096,
                 result_maxsize: int = 65536):
        self.plans = PlanCache(maxsize=plan_maxsize)
        self.results = ResultCache(maxsize=result_maxsize)

    def clear(self) -> None:
        """Clear both levels."""
        self.plans.clear()
        self.results.clear()

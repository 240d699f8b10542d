"""``EngineStats`` must round-trip exactly through its JSON wire form
(the serving tier's ``GET /stats`` leaf format)."""

import json

from repro.engine import Engine, plan_from_sentence
from repro.engine.stats import (
    CacheStats,
    EngineStats,
    MutableEngineStats,
    OptimizerStats,
)
from repro.graphs import mixed_components_hsdb
from repro.logic import parse


class TestCacheStatsRoundTrip:
    def test_round_trip(self):
        stats = CacheStats(hits=3, misses=2, evictions=1, size=4)
        assert CacheStats.from_dict(stats.to_dict()) == stats

    def test_json_safe(self):
        payload = json.dumps(CacheStats(hits=1).to_dict())
        assert CacheStats.from_dict(json.loads(payload)).hits == 1

    def test_shared_split_round_trips(self):
        stats = CacheStats(hits=9, misses=4, shared_hits=3,
                           shared_misses=2)
        assert CacheStats.from_dict(stats.to_dict()) == stats


class TestOptimizerStatsRoundTrip:
    def test_round_trip(self):
        stats = OptimizerStats(
            optimizations=3, compiles=2,
            rewrites=(("complement-quantify", 7), ("join-hoist", 1)))
        wire = json.dumps(stats.to_dict(), sort_keys=True)
        assert OptimizerStats.from_dict(json.loads(wire)) == stats

    def test_total_rewrites(self):
        stats = OptimizerStats(rewrites=(("a", 2), ("b", 3)))
        assert stats.total_rewrites == 5


class TestEngineStatsRoundTrip:
    def test_default_round_trip(self):
        stats = EngineStats()
        assert EngineStats.from_dict(stats.to_dict()) == stats

    def test_populated_round_trip_through_json_text(self):
        stats = EngineStats(
            plan_cache=CacheStats(hits=5, misses=1, size=1),
            result_cache=CacheStats(hits=9, misses=3, evictions=2, size=3,
                                    shared_hits=4, shared_misses=1),
            optimizer=OptimizerStats(optimizations=2, compiles=1,
                                     rewrites=(("project-prefix", 4),)),
            oracle_questions=42,
            evaluations=7,
            batch_requests=2,
            wall_time=0.125,
            node_timings=(("Fixpoint", 4, 0.1), ("Exists", 3, 0.025)),
            verdicts_true=4,
            verdicts_false=2,
            verdicts_unknown=1,
            unknown_reasons=(("deadline", 1),))
        wire = json.dumps(stats.to_dict(), sort_keys=True)
        restored = EngineStats.from_dict(json.loads(wire))
        assert restored == stats
        # And the round trip is idempotent at the wire level too.
        assert json.dumps(restored.to_dict(), sort_keys=True) == wire

    def test_verdict_dict_shape(self):
        data = EngineStats(verdicts_true=2, verdicts_unknown=1,
                           unknown_reasons=(("out_of_fuel", 1),)).to_dict()
        assert data["verdicts"] == {"true": 2, "false": 0, "unknown": 1}
        assert data["unknown_reasons"] == {"out_of_fuel": 1}

    def test_mutable_snapshot_round_trips(self):
        live = MutableEngineStats()
        live.add(oracle_questions=3, evaluations=2, wall_time=0.5)
        live.record_node("Fixpoint", 0.25)
        live.record_verdict("true")
        live.record_verdict("unknown", "deadline")
        snapshot = live.snapshot(CacheStats(hits=1), CacheStats(misses=1))
        assert EngineStats.from_dict(
            json.loads(json.dumps(snapshot.to_dict()))) == snapshot

    def test_real_engine_snapshot_round_trips(self):
        engine = Engine(mixed_components_hsdb())
        plan = plan_from_sentence(parse("exists x. R1(x, x)"),
                                  engine.signature)
        engine.eval(plan)
        engine.eval(plan)            # warm: exercises the cache counters
        snapshot = engine.stats()
        restored = EngineStats.from_dict(
            json.loads(json.dumps(snapshot.to_dict())))
        assert restored == snapshot
        assert restored.evaluations == 2


class TestMerge:
    """The ingest join-side aggregation: fold per-worker snapshots of
    *disjoint* engines into one fleet-wide view."""

    def test_cache_stats_merge_is_elementwise(self):
        a = CacheStats(hits=3, misses=2, evictions=1, size=4,
                       shared_hits=1, shared_misses=1)
        b = CacheStats(hits=5, misses=1, size=2)
        assert a.merge(b) == CacheStats(hits=8, misses=3, evictions=1,
                                        size=6, shared_hits=1,
                                        shared_misses=1)

    def test_optimizer_merge_combines_rule_tallies(self):
        a = OptimizerStats(optimizations=2, compiles=1,
                           rewrites=(("join-hoist", 3),))
        b = OptimizerStats(optimizations=1,
                           rewrites=(("join-hoist", 1),
                                     ("complement-quantify", 4)))
        merged = a.merge(b)
        assert merged.optimizations == 3
        assert merged.compiles == 1
        assert dict(merged.rewrites) == {"join-hoist": 4,
                                         "complement-quantify": 4}

    def test_engine_merge_sums_scalars_and_keyed_tables(self):
        a = EngineStats(evaluations=4, oracle_questions=10,
                        wall_time=0.5,
                        node_timings=(("Fixpoint", 2, 0.4),),
                        verdicts_true=3, verdicts_unknown=1,
                        unknown_reasons=(("out_of_fuel", 1),))
        b = EngineStats(evaluations=6, wall_time=0.25,
                        node_timings=(("Fixpoint", 1, 0.1),
                                      ("Join", 5, 0.9)),
                        verdicts_false=2, verdicts_unknown=2,
                        unknown_reasons=(("out_of_fuel", 1),
                                         ("deadline", 1)))
        merged = a.merge(b)
        assert merged.evaluations == 10
        assert merged.oracle_questions == 10
        assert merged.wall_time == 0.75
        assert merged.verdicts_true == 3
        assert merged.verdicts_false == 2
        assert merged.verdicts_unknown == 3
        assert dict(merged.unknown_reasons) == {"out_of_fuel": 2,
                                                "deadline": 1}
        timings = {kind: (count, seconds)
                   for kind, count, seconds in merged.node_timings}
        assert timings == {"Fixpoint": (3, 0.5), "Join": (5, 0.9)}
        # Ordered hottest-first, like every other timings table.
        assert merged.node_timings[0][0] == "Join"

    def test_merge_with_default_is_identity(self):
        a = EngineStats(evaluations=4, verdicts_true=1,
                        node_timings=(("Scan", 1, 0.1),))
        assert a.merge(EngineStats()) == a
        assert EngineStats().merge(a) == a

    def test_merged_snapshot_round_trips_through_json(self):
        a = EngineStats(evaluations=1, unknown_reasons=(("deadline", 1),))
        b = EngineStats(evaluations=2, verdicts_unknown=1)
        merged = a.merge(b)
        assert EngineStats.from_dict(
            json.loads(json.dumps(merged.to_dict()))) == merged

"""The serve workloads: a real ``python -m repro serve`` process under a
closed loop of blocking ``ServeClient`` callers.

* ``serve-hot`` restarts a server on a primed store and repeats a
  seeded query set from 2 clients.
* ``serve-novel`` drives a fresh server with a fresh store from 1
  client; every request is an FO sentence the server has never seen.

Every served verdict is checked against a fresh in-process
``Engine.eval`` on ``(status, reason)``
(:func:`repro.check.serve.reference_verdict`, the rule the serve oracle
uses).  The traced run replays the served requests in-process through
the calls the server makes (``Catalog.compile``, ``Engine.prepare``,
``Store.lookup_verdict``, ``Engine.eval``, ``Store.put_verdict``) with
spans around each layer, and takes the HTTP share from client latency
minus the ``wall_us`` the server reports.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro.check.generators import gen_sentence, gen_term
from repro.check.serve import reference_verdict
from repro.engine import Engine, ResultCache
from repro.engine import executor as engine_executor
from repro.logic.printer import to_text
from repro.qlhs.printer import term_to_text
from repro.serve import catalog as serve_catalog
from repro.serve.catalog import Catalog
from repro.serve.client import ServeClient, ServeError
from repro.serve.config import config_from_dict
from repro.store import Store
from repro.trace import Budget

from common import ROUNDS, peak_rss_mb, summarize
from spans import SpanLog

#: Per-request step budget.  The diverging QLhs programs burn all of
#: it, so it sets what priming and the reference checks cost; this is
#: the value the E21 store experiment uses.
MAX_STEPS = 200_000

#: The served catalog: the four builtin hs databases plus the default
#: config's fcf ``pair`` database, which the qlf frontend needs.
CONFIG = {
    "databases": {
        "clique": {"kind": "builtin"},
        "rado": {"kind": "builtin"},
        "triangles": {"kind": "builtin"},
        "k3k2": {"kind": "builtin"},
        "pair": {"kind": "fcf", "relations": [
            {"rank": 2, "tuples": [[0, 1], [1, 0]]},
            {"rank": 1, "tuples": [[0]], "cofinite": True}]},
    },
    "server": {"workers": 2},
    "tenants": {"default": {"max_steps": MAX_STEPS}},
}

HS_DATABASES = ("clique", "rado", "triangles", "k3k2")

#: E21's diverging QLhs programs: each persists an UNKNOWN(out_of_fuel)
#: row that a warm restart replays instead of re-burning the budget.
DIVERGING = tuple(f"while |Y1| = 0 do {{ Y{k} := !Y{k} }}"
                  for k in (2, 3, 4))

HOT_CLIENTS = 2
NOVEL_CLIENTS = 1

#: Span name -> layer.  ``catalog.compile`` is the frontend step around
#: parse + lower (memo probe, lazy database build), so it counts as
#: ``lower``.  The root ``request`` span's self time is the replay's own
#: code between layer calls (``serve_glue``); it is reported on its own
#: and not counted as accounted-for time.
LAYER_OF_SPAN = {
    "parse": "parse",
    "lower": "lower",
    "catalog.compile": "lower",
    "prepare": "prepare",
    "compile": "compile",
    "execute": "execute",
    "result_cache.get": "result_cache",
    "result_cache.put": "result_cache",
    "store.lookup": "store",
    "store.write": "store",
    "request": "serve_glue",
}


def instrument_targets():
    """The program functions the serve replay wraps in spans."""
    return [
        (serve_catalog, "parse_formula", "parse"),
        (serve_catalog, "parse_term", "parse"),
        (serve_catalog, "parse_program", "parse"),
        (serve_catalog, "lower_all", "lower"),
        (Catalog, "compile", "catalog.compile"),
        (Engine, "prepare", "prepare"),
        (engine_executor, "compile_plan", "compile"),
        (Engine, "eval", "execute"),
        (ResultCache, "get", "result_cache.get"),
        (ResultCache, "put", "result_cache.put"),
        (Store, "lookup_verdict", "store.lookup"),
        (Store, "put_verdict", "store.write"),
    ]


# -- inputs -------------------------------------------------------------------

def _signature(name: str) -> tuple[int, ...]:
    return Catalog(config_from_dict(CONFIG)).engine(
        name, "fcf" if name == "pair" else "hs").signature


def hot_queries(seed: int) -> list[tuple[str, str, str]]:
    """The seeded serve-hot query set: every builtin hs database under
    fo, qlhs and gmhs, qlf over the fcf database, and E21's diverging
    programs on two databases.  Duplicates are dropped."""
    rng = random.Random(f"serve-hot:{seed}")
    rows: list[tuple[str, str, str]] = []
    for name in HS_DATABASES:
        sig = _signature(name)
        rows += [(name, "fo", to_text(gen_sentence(rng, sig)))
                 for __ in range(8)]
        rows += [(name, "qlhs",
                  term_to_text(gen_term(rng, sig, rng.choice((0, 1, 2)))))
                 for __ in range(4)]
        rows += [(name, "gmhs", to_text(gen_sentence(rng, sig)))
                 for __ in range(2)]
    sig = _signature("pair")
    rows += [("pair", "qlf",
              term_to_text(gen_term(rng, sig, rng.choice((0, 1)),
                                    allow_e=False, allow_up=False)))
             for __ in range(4)]
    rows += [(name, "qlhs", text) for name in ("rado", "triangles")
             for text in DIVERGING]
    return list(dict.fromkeys(rows))


class NovelStream:
    """Never-seen FO sentences from ``gen_sentence`` at its defaults
    (depth 4, 2 quantifiers), over the builtin hs databases in turn.

    Deterministic in the seed; sentences already issued (same database,
    same text) are skipped, and the stream grows on demand.  Taking the
    databases in turn, not at random, keeps the database mix the same
    for every seed.
    """

    def __init__(self, seed: int, prefill: int = 4000):
        self._rng = random.Random(f"serve-novel:{seed}")
        self._signatures = {name: _signature(name)
                            for name in HS_DATABASES}
        self._seen: set = set()
        self.items: list[tuple[str, str, str]] = []
        self._lock = threading.Lock()
        self._next = 0
        while len(self.items) < prefill:
            self._grow()

    def _grow(self) -> None:
        name = HS_DATABASES[len(self.items) % len(HS_DATABASES)]
        while True:
            row = (name, "fo",
                   to_text(gen_sentence(self._rng, self._signatures[name])))
            if row not in self._seen:
                self._seen.add(row)
                self.items.append(row)
                return

    def take(self):
        """The next never-seen request (thread-safe)."""
        with self._lock:
            while self._next >= len(self.items):
                self._grow()
            row = self.items[self._next]
            self._next += 1
            return row


# -- the server process -------------------------------------------------------

class ServerProcess:
    """One ``python -m repro serve`` child, started and stopped here.

    ``start`` returns the set-up time: from spawning the process until
    the first ``/healthz`` answers 200.
    """

    def __init__(self, ctx, config_path: Path, store_path: Path):
        self.ctx = ctx
        self.cmd = [sys.executable, "-m", "repro", "serve",
                    f"--config={config_path}", "--host=127.0.0.1",
                    "--port=0", f"--store={store_path}"]
        self.proc = None
        self.base_url = None
        self.client = None
        self._log = None
        self._reader = None

    def start(self, timeout: float = 60.0) -> float:
        t0 = time.perf_counter()
        self._log = open(self.ctx.tmp / "server.log", "ab")
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.ctx.root, env=self.ctx.env,
            stdout=subprocess.PIPE, stderr=self._log)
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, args=(lines,),
                                        daemon=True)
        self._reader.start()
        deadline = t0 + timeout
        try:
            line = lines.get(timeout=timeout)
        except queue.Empty:
            line = None
        match = re.search(r"http://[0-9.]+:[0-9]+", line or "")
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.base_url = match.group(0)
        self.client = ServeClient(self.base_url)
        while True:
            try:
                self.client.healthz()
                return time.perf_counter() - t0
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.0005)

    def _pump(self, lines: queue.Queue) -> None:
        """Hand stdout lines over and keep the pipe drained."""
        for raw in self.proc.stdout:
            lines.put(raw.decode("utf-8", "replace"))
        lines.put(None)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the server snapshots its cache into the store), then
        wait; kill if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


# -- the closed loop ------------------------------------------------------------

def closed_loop(base_url: str, next_request, clients: int,
                seconds: float | None,
                limit: int | None = None) -> tuple[list[dict], tuple]:
    """``clients`` threads, each sending its next request only after the
    previous reply, until ``seconds`` pass (or each has sent ``limit``
    requests).  Returns the request records (in start order) and the
    ``(start, end)`` of the window."""
    records: list[dict] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    def client_main(index: int) -> None:
        client = ServeClient(base_url)
        mine = []
        while (time.perf_counter() < deadline
               and (limit is None or len(mine) < limit)):
            database, frontend, text = next_request(index)
            t0 = time.perf_counter()
            record = {"key": (database, frontend, text), "t0": t0}
            try:
                body = client.eval(database, text, frontend=frontend)
            except ServeError as exc:
                record["error"] = f"HTTP {exc.status}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record.update(status=body["status"], reason=body["reason"],
                              wall_us=body["wall_us"])
            record["latency"] = time.perf_counter() - t0
            mine.append(record)
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=client_main, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r["t0"])
    return records, (start, time.perf_counter())


def check_records(records: list[dict], expected: dict) -> list[dict]:
    """Failed operations: transport/HTTP errors and verdicts that differ
    from the in-process reference."""
    failures = []
    for record in records:
        if "error" in record:
            failures.append({"query": record["key"],
                             "error": record["error"]})
            continue
        got = (record["status"], record["reason"])
        want = expected[record["key"]]
        if got != want:
            failures.append({"query": record["key"], "served": list(got),
                             "in_process": list(want)})
    return failures


def references(keys, config) -> dict:
    """``(status, reason)`` of a fresh in-process ``Engine.eval`` per key."""
    catalog = Catalog(config)
    return {key: reference_verdict(catalog, *key, MAX_STEPS)
            for key in dict.fromkeys(keys)}


# -- the in-process replay (traced run) -------------------------------------------

def replay(config, store_path: Path, requests: list, log: SpanLog | None,
           warmup: list = ()):
    """Serve ``requests`` in-process the way ``ServeApp`` answers
    ``POST /eval``: compile, store probe, evaluate on a miss, write
    through.  A fresh catalog loads ``store_path`` first, as the server
    does at start-up; ``warmup`` requests run before the measured ones
    and leave no spans."""
    catalog = Catalog(config)
    t0 = time.perf_counter()
    store = Store(store_path)
    loaded = store.load_results(catalog.cache)
    load_s = time.perf_counter() - t0
    counts = {"hits": 0, "writes": 0, "steps": 0}

    def serve(database, frontend, text):
        budget = Budget(max_steps=MAX_STEPS)
        engine, plan = catalog.compile(database, frontend, text)
        verdict = store.lookup_verdict(
            engine.fingerprint, engine.prepare(plan), budget.max_steps)
        if verdict is not None:
            counts["hits"] += 1
        else:
            verdict = engine.eval(plan, budget=budget)
            counts["writes"] += store.put_verdict(
                engine.fingerprint, engine.prepare(plan), verdict,
                budget.max_steps)
        counts["steps"] += budget.steps

    for row in warmup:
        serve(*row)
    if log is not None:
        log.spans.clear()
    counts.update(hits=0, writes=0, steps=0)
    before = _counters(catalog)
    start = time.perf_counter()
    for number, row in enumerate(requests, 1):
        with log.request(number) if log is not None else nullcontext():
            serve(*row)
    wall = time.perf_counter() - start
    store.close()
    after = _counters(catalog)
    return {
        "wall_s": wall,
        "load_s": load_s,
        "rows_loaded": loaded["loaded"],
        "replay_hits": counts["hits"],
        "write_throughs": counts["writes"],
        "steps": counts["steps"],
        **{name: after[name] - before[name] for name in after},
    }


def _counters(catalog) -> dict:
    """The catalog's cumulative engine and shared-cache counters."""
    stats = catalog.stats()
    plans = stats["shared_cache"]["plans"]
    results = stats["shared_cache"]["results"]
    __, rewrites = catalog.cache.plans.optimizer_stats()
    return {
        "oracle_questions": sum(
            view["oracle_questions"]
            for views in stats["databases"].values()
            for view in views.values()),
        "rewrites": sum(n for __, n in rewrites),
        "plan_hits": plans["hits"],
        "plan_misses": plans["misses"],
        "result_hits": results["hits"],
        "result_misses": results["misses"],
        "result_evictions": results["evictions"],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(untraced: dict, log: SpanLog, n: int,
                  loop: list[dict], healthz_s: list[float]) -> dict:
    """The per-layer metrics of one serve workload."""
    totals = log.totals()

    def self_us(*names: str) -> float:
        return sum(totals.get(name, {}).get("self_seconds", 0.0)
                   for name in names) * 1e6

    def per_op(name: str) -> float:
        row = totals.get(name)
        return row["self_seconds"] * 1e6 / row["count"] if row else 0.0

    served = [r for r in loop if "error" not in r]
    http_us = [r["latency"] * 1e6 - r["wall_us"] for r in served]
    return {
        "parse.us_per_query": self_us("parse") / n,
        "lower.us_per_query": self_us("lower", "catalog.compile") / n,
        "prepare.us_per_query": self_us("prepare") / n,
        "prepare.rewrites_per_query": untraced["rewrites"] / n,
        "prepare.plan_cache_hit_ratio": _ratio(
            untraced["plan_hits"],
            untraced["plan_hits"] + untraced["plan_misses"]),
        "compile.us_per_query": self_us("compile") / n,
        "execute.us_per_query": self_us("execute") / n,
        "execute.oracle_questions_per_query":
            untraced["oracle_questions"] / n,
        "execute.steps_per_query": untraced["steps"] / n,
        "execute.us_per_tuple": 0.0,
        "execute.oracle_questions_per_tuple": 0.0,
        "result_cache.hit_ratio": _ratio(
            untraced["result_hits"],
            untraced["result_hits"] + untraced["result_misses"]),
        "result_cache.get_us_per_op": per_op("result_cache.get"),
        "result_cache.put_us_per_op": per_op("result_cache.put"),
        "result_cache.evictions": untraced["result_evictions"],
        "store.load_s": untraced["load_s"],
        "store.rows_loaded": untraced["rows_loaded"],
        "store.lookup_us_per_req": self_us("store.lookup") / n,
        "store.replay_hits": untraced["replay_hits"],
        "store.write_us_per_req": self_us("store.write") / n,
        "store.write_throughs": untraced["write_throughs"],
        "shard.pool_start_s": 0.0,
        "shard.worker_busy_s": 0.0,
        "shard.coordinator_s": 0.0,
        "shard.tasks": 0,
        "shard.balance": 0.0,
        "http.overhead_us_per_req": sum(http_us) / len(http_us),
        "http.healthz_us": statistics.median(healthz_s) * 1e6,
    }


def accounting(log: SpanLog, n: int, loop: list[dict],
               http_us: float) -> dict:
    """How the traced replay's per-layer self times plus the HTTP share
    add up against the client-observed request time.

    The HTTP share is client latency minus the server's ``wall_us``;
    the rest is the replay's layer self times.  ``serve_glue`` (the
    replay's own code) is reported but not counted: the replay's wall
    time must not account for itself.  Where the server's own
    ``wall_us`` exceeds the replayed layer time, the gap is time the
    server spends beyond the layer calls (thread hand-off, contention
    for the interpreter lock), which no layer span covers.
    """
    by_layer: dict[str, float] = {}
    for name, row in log.totals().items():
        layer = LAYER_OF_SPAN.get(name)
        if layer is not None:
            by_layer[layer] = (by_layer.get(layer, 0.0)
                               + row["self_seconds"] * 1e6 / n)
    glue_us = by_layer.pop("serve_glue", 0.0)
    replayed_us = sum(by_layer.values())
    by_layer["http"] = http_us
    served = [r for r in loop if "error" not in r]
    client_us = sum(r["latency"] for r in served) * 1e6 / len(served)
    return {"client_mean_us": client_us,
            "server_wall_mean_us":
                sum(r["wall_us"] for r in served) / len(served),
            "replayed_layers_mean_us": replayed_us,
            "serve_glue_mean_us": glue_us,
            "layers_us_per_request": by_layer,
            "accounted_ratio": sum(by_layer.values()) / client_us}


# -- the workloads ----------------------------------------------------------------

def _write_config(ctx) -> tuple[Path, object]:
    path = ctx.tmp / "serve-config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return path, config_from_dict(CONFIG)


def _finish(name, params, setups, rounds, rss, failures, attempted,
            layers):
    summary = summarize([
        ([(r["t0"], r["t0"] + r["latency"], 1)
          for r in records if "error" not in r], start, end)
        for records, start, end in rounds])
    return {
        "workload": name,
        "params": {**params, "rounds": ROUNDS},
        "setup_runs_s": setups,
        "latency": summary,
        "attempted": attempted,
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


def _trace_phase(ctx, config, store_path_for_replay, records, server,
                 warmup=()):
    """Traced-run extras: healthz timings from the live server, then the
    untraced and traced in-process replays of the served requests."""
    healthz = []
    for __ in range(100):
        t0 = time.perf_counter()
        server.client.healthz()
        healthz.append(time.perf_counter() - t0)
    server.stop()
    requests = [r["key"] for r in records]
    untraced = replay(config, store_path_for_replay(0), requests, None,
                      warmup)
    log = SpanLog()
    with log.instrument(instrument_targets()):
        traced = replay(config, store_path_for_replay(1), requests, log,
                        warmup)
    log.write_jsonl(ctx.trace_out)
    n = len(requests)
    metrics = layer_metrics(untraced, log, n, records, healthz)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    acct = accounting(log, n, records, metrics["http.overhead_us_per_req"])
    metrics["trace.accounted_ratio"] = acct["accounted_ratio"]
    return {"per_layer": metrics, "accounting": acct,
            "replay": {"untraced": untraced, "traced": traced}}


def run_serve_hot(ctx) -> dict:
    """Restart-and-repeat: a primed store; each round restarts a server
    on it and 2 closed-loop clients repeat the query set."""
    config_path, config = _write_config(ctx)
    queries = hot_queries(ctx.seed)
    store = ctx.tmp / "hot.sqlite"

    # Prime: one server lifetime answers every query once; SIGINT
    # snapshots its cache into the store.
    primer = ServerProcess(ctx, config_path, store)
    primer.start()
    try:
        for database, frontend, text in queries:
            primer.client.eval(database, text, frontend=frontend)
    finally:
        primer.stop()
    expected = references(queries, config)

    orders = []
    for c in range(HOT_CLIENTS):
        order = list(queries)
        random.Random(f"serve-hot-order:{ctx.seed}:{c}").shuffle(order)
        orders.append(order)
    next_request = _cycle(orders)
    setups, rounds, rss, first, layers = [], [], [], [], {}
    server = None
    try:
        for i in range(ROUNDS):
            server = ServerProcess(ctx, config_path, store)
            setups.append(server.start())
            # The first pass after a restart still pays compile and
            # prepare (the store persists results, not prepared plans).
            # It is checked and reported on its own, outside the timed
            # rounds.
            first += closed_loop(server.base_url, _cycle([queries]), 1,
                                 None, limit=len(queries))[0]
            records, (start, end) = closed_loop(
                server.base_url, next_request, HOT_CLIENTS,
                ctx.seconds / ROUNDS)
            rounds.append((records, start, end))
            rss.append(server.peak_rss_mb())
            if ctx.trace and i == ROUNDS - 1:
                layers = _trace_phase(ctx, config, lambda i: store, records,
                                      server, warmup=queries)
            server.stop()
    finally:
        if server is not None:
            server.stop()
    timed = [r for records, __, __ in rounds for r in records]
    failures = check_records(first + timed, expected)
    params = {"queries": len(queries), "clients": HOT_CLIENTS,
              "loop": "closed", "max_steps": MAX_STEPS,
              "diverging": len(DIVERGING) * 2,
              "untimed_first_pass_per_round": len(queries)}
    result = _finish("serve-hot", params, setups, rounds, rss, failures,
                     len(first) + len(timed), layers)
    first_ok = [r for r in first if "error" not in r]
    timed_ok = [r for r in timed if "error" not in r]
    result["first_pass_after_restart"] = {
        "requests": len(first_ok),
        "p50_ms": statistics.median(r["latency"] * 1e3 for r in first_ok),
        "mean_ms": sum(r["latency"] for r in first_ok) * 1e3 / len(first_ok),
        "server_wall_mean_us":
            sum(r["wall_us"] for r in first_ok) / len(first_ok),
        "timed_server_wall_mean_us":
            sum(r["wall_us"] for r in timed_ok) / len(timed_ok),
    }
    return result


def _cycle(orders):
    """``next_request`` for clients that each repeat their own order."""
    position = [0] * len(orders)

    def next_request(client):
        order = orders[client]
        row = order[position[client] % len(order)]
        position[client] += 1
        return row
    return next_request


def run_serve_novel(ctx) -> dict:
    """Never-seen FO sentences; each round drives a fresh server on a
    fresh store."""
    config_path, config = _write_config(ctx)
    stream = NovelStream(ctx.seed)
    setups, rounds, rss, failures, layers = [], [], [], [], {}
    server = None
    try:
        for i in range(ROUNDS):
            server = ServerProcess(ctx, config_path,
                                   ctx.tmp / f"novel-{i}.sqlite")
            setups.append(server.start())
            records, (start, end) = closed_loop(
                server.base_url, lambda c: stream.take(), NOVEL_CLIENTS,
                ctx.seconds / ROUNDS)
            rounds.append((records, start, end))
            rss.append(server.peak_rss_mb())
            if ctx.trace and i == ROUNDS - 1:
                layers = _trace_phase(
                    ctx, config,
                    lambda k: ctx.tmp / f"novel-replay-{k}.sqlite",
                    records, server)
            server.stop()
            failures += check_records(
                records, references([r["key"] for r in records], config))
    finally:
        if server is not None:
            server.stop()
    params = {"clients": NOVEL_CLIENTS, "loop": "closed",
              "generator": "gen_sentence(depth=4, quantifiers=2)",
              "databases": list(HS_DATABASES), "max_steps": MAX_STEPS}
    return _finish("serve-novel", params, setups, rounds, rss, failures,
                   sum(len(records) for records, __, __ in rounds), layers)

"""The repository benchmark: one command, four workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics.  The metric
names, their units and each workload's reason come from
``BENCHMARK.json``; ``perfbench/README.md`` maps every metric to its
layer and workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable report and the full result record, which also
records the machine, the code, the seed and the workload parameters
(and is written to ``.perfbench/results/``).  The exit code is 0 only
when every answer was checked and correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Workloads the command runs that ``BENCHMARK.json`` does not list, so
#: no bound applies to them and no benchmark gate runs them.  serve-hot's
#: run-to-run spread on a shared two-CPU machine (0.4-0.65 of the median
#: over ten runs) exceeds the largest bound a metric may have; it stays
#: runnable, unchecked, as the evidence behind its per-layer findings.
UNBOUNDED_WORKLOADS = {
    "serve-hot": "restart on a primed store, 2 clients repeat a seeded "
                 "query set: http and the store probe dominate, the engine "
                 "does almost nothing",
}

#: Address-space cap on the benchmark process, inherited by the servers
#: and pool workers it starts: a runaway evaluation fails with
#: MemoryError (a counted failure) instead of exhausting the machine.
MEMORY_CAP = 3 << 30


@dataclass
class Context:
    """What a workload run needs to know."""

    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool
    env: dict
    trace_out: Path


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def runner(workload: str):
    """The function that runs one workload (imported after ``src`` is on
    the path)."""
    if workload.startswith("serve-"):
        import serve_workloads
        return {"serve-hot": serve_workloads.run_serve_hot,
                "serve-novel": serve_workloads.run_serve_novel}[workload]
    import batch_workloads
    sharded = workload == "batch-sharded"
    return lambda ctx: batch_workloads.run_batch(ctx, sharded)


def report(record: dict) -> None:
    """The readable part of the output."""
    env = record["environment"]
    print(f"perfbench {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  cpus={env['cpus']}  "
          f"python={env['python']}  commit={env['git_commit']}")
    print(f"  why: {record['why']}")
    print(f"  params: {json.dumps(record['params'], sort_keys=True)}")
    lat = record["latency"]
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed_ratio']:.6f}  "
          f"samples={lat['samples']} in {lat['rounds']} rounds "
          f"{lat['round_samples']}  tail=p{lat['tail_percentile']:.3f} "
          f"({lat['tail_beyond']} of {lat['samples']} beyond)")
    for name, value in record["end_to_end"].items():
        print(f"  e2e {name:<24} {value:14.6f}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  layer {name:<36} {value:16.6f}")
    first = record.get("first_pass_after_restart")
    if first:
        print(f"  first pass after restart (untimed, 1 client): p50 "
              f"{first['p50_ms']:.3f} ms, mean {first['mean_ms']:.3f} ms "
              f"over {first['requests']} requests; server wall_us mean "
              f"{first['server_wall_mean_us']:.1f} against "
              f"{first['timed_server_wall_mean_us']:.1f} in the timed loop")
    acct = record.get("accounting")
    if acct:
        print(f"  accounting (us/request): client {acct['client_mean_us']:.1f}"
              f", server wall_us {acct['server_wall_mean_us']:.1f}, "
              f"replayed layers {acct['replayed_layers_mean_us']:.1f} "
              f"(+ glue {acct['serve_glue_mean_us']:.1f}, not counted); "
              + ", ".join(f"{k} {v:.1f}" for k, v in
                          acct["layers_us_per_request"].items()))
    for failure in record["failures"]:
        print(f"  FAILED {json.dumps(failure)}")


def main(argv: list[str]) -> int:
    spec = load_spec()
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads.update(UNBOUNDED_WORKLOADS)
    args = parse_args(argv, sorted(workloads))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    # SIGTERM unwinds like an error, so the servers and pools a run
    # started are stopped by the ``finally`` clauses that own them.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    __, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    # Every file the run makes, the pool's sockets included, stays in
    # the checkout.  multiprocessing removes its own directory under
    # ``mp`` at exit; the relative path keeps its socket paths short.
    tmp = WORK / f"t{os.getpid()}"
    tmp.mkdir(parents=True)
    for sub in ("results", "traces", "mp"):
        (WORK / sub).mkdir(exist_ok=True)
    tempfile.tempdir = os.path.join(".perfbench", "mp")
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    os.environ["TMPDIR"] = str(tmp)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ctx = Context(root=ROOT, tmp=tmp, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), env=env,
                  trace_out=WORK / "traces" / f"{stem}.jsonl")

    from common import environment
    started = time.time()
    try:
        result = runner(args.workload)(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "environment": environment(ROOT),
        **result,
    }
    record["failed_ratio"] = record["failed"] / max(1, record["attempted"])
    with open(WORK / "results" / f"{stem}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    report(record)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    correct = record["failed"] == 0 and record["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

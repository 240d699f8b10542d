"""Shared measurement helpers: latency summaries, memory, environment.

Everything here is benchmark-side; nothing under ``src/`` is touched.
Memory figures come from ``/proc`` and so need Linux.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: A run measures in this many rounds of ``seconds / ROUNDS`` each, one
#: after another, each on its own set-up (a fresh server or pool), with
#: the answer checks of a round done before the next starts.  Latency
#: and throughput are taken per round and the median over the rounds is
#: reported, so a slow spell of the shared machine that covers fewer
#: than half of the rounds does not move the figure.
ROUNDS = 5

#: The reported tail is the highest percentile of the run's operations
#: with at least this many samples beyond it.
TAIL_BEYOND = 10


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile of ``samples`` with ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, beyond)``.  The value is the
    ``TAIL_BEYOND + 1``-th largest sample; with fewer samples than that
    it is the largest, and ``beyond`` says how many lie past it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (1.0 - beyond / n), beyond


def summarize(rounds: list[tuple[list, float, float]]) -> dict:
    """Latency and throughput over a run's rounds.

    Each round is ``(ops, start, end)``: ``ops`` holds ``(t0, t1,
    work)`` per completed operation, where ``work`` is what throughput
    counts (1 per request, the tuple count per batch), and ``start`` /
    ``end`` bound the round's timed window.
    """
    p50s, rates, everything = [], [], []
    for ops, start, end in rounds:
        latencies = [t1 - t0 for t0, t1, __ in ops]
        everything += latencies
        if latencies:
            p50s.append(statistics.median(latencies))
        rates.append(sum(work for __, __, work in ops) / (end - start))
    tail, percentile, beyond = _tail(everything)
    return {
        "samples": len(everything),
        "rounds": len(rounds),
        "round_samples": [len(ops) for ops, __, __ in rounds],
        "round_p50_ms": [p * 1e3 for p in p50s],
        "round_throughput": rates,
        "p50_ms": statistics.median(p50s) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "throughput": statistics.median(rates),
        "mean_ms": statistics.fmean(everything) * 1e3,
        "pooled_p50_ms": statistics.median(everything) * 1e3,
    }


# -- memory ---------------------------------------------------------------

def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children, grandchildren ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS of ``pid`` plus the peaks of all its live descendants."""
    total = peak_rss_mb(pid)
    for child in descendants(pid):
        try:
            total += peak_rss_mb(child)
        except (OSError, RuntimeError):
            pass  # exited between the scan and the read
    return total


# -- environment ------------------------------------------------------------

def environment(root: Path) -> dict:
    """What every result records about the machine and the code."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # benchmark checkouts are not git repositories
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }

"""Shared plumbing for the end-to-end benchmark: results, percentiles,
process accounting (RSS, CPU, bytes written), work directories and the
stall watchdog.

Nothing here imports the program under test, so the module is usable
before ``src/`` has been put on the import path.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import shutil
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and ``e2ebench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, WALs and worker span dumps; git-ignored and
#: removed at the end of every run.
WORK_ROOT = ROOT / ".e2ebench-work"

#: Seed of the synthetic taxi records.  The records are the same in
#: every run; ``--seed`` draws the operations (queries, tick queries,
#: the advisor's sample), so runs differ in what they ask, not in the
#: data they ask it of.
DATA_SEED = 2014

#: Exit code of a run the watchdog ended.
WATCHDOG_EXIT = 3


def prepare_imports() -> None:
    """Put the checkout's ``src/`` (the program) and the checkout root
    (this package) first on ``sys.path``; refuse to run without them, so
    an installed copy of the program is never measured by mistake."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program source at {SRC}/repro; "
                         "run from a full checkout")
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    correct: bool = True
    #: operation kind -> [attempted, failed]
    ops: dict[str, list[int]] = field(default_factory=dict)
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: per-op latencies (seconds) of the phase, for the tracing overhead
    latencies: list[float] = field(default_factory=list)

    def count(self, kind: str, failed: bool = False) -> None:
        entry = self.ops.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += int(failed)

    def fail(self, message: str) -> None:
        """Record a correctness failure (the run exits non-zero)."""
        self.correct = False
        self.notes.append(f"CHECK FAILED: {message}")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


# -- percentiles -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-th percentile (an observed value)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values, q: float, notes: list[str], what: str) -> float:
    """The ``q``-th percentile of ``values`` as a tail figure.  With
    fewer than 40 samples no percentile has ten samples beyond it, so the
    median is reported instead; a thinner tail is reported with a note."""
    n = len(values)
    if n < 40:
        notes.append(f"{what}: {n} samples, tail reported as the median")
        return percentile(values, 50)
    beyond = n - math.ceil(q / 100.0 * n)
    if beyond < 10:
        notes.append(f"{what}: only {beyond} samples beyond p{q:g} (n={n})")
    return percentile(values, q)


def latency_metrics(metrics: dict, values, steal, notes: list[str],
                    what: str) -> None:
    """Gated ``latency_p50_ms`` of ``values`` (seconds), each scaled to
    the CPU time the host granted by its steal share (one share for all
    values, or one per value); the raw p50, p95 and p99 go to the notes."""
    shares = steal if isinstance(steal, list) else [steal] * len(values)
    granted = [v * (1.0 - s) for v, s in zip(values, shares)]
    metrics["latency_p50_ms"] = (percentile(granted, 50) * 1e3, "ms")
    notes.append(
        f"{what} as measured: p50 {percentile(values, 50) * 1e3:.3f} ms, "
        f"p95 {tail_percentile(values, 95, notes, what) * 1e3:.3f} ms, "
        f"p99 {tail_percentile(values, 99, notes, what) * 1e3:.3f} ms over "
        f"{len(values)} samples; mean host steal "
        f"{sum(shares) / len(shares):.1%}")


def traced_run_metrics(out: Outcome, base_latencies) -> None:
    """Figures a traced run takes from its untraced window: the tracing
    overhead (mean traced over mean untraced operation latency, minus 1)
    and the tail as measured, which is reported there but not gated."""
    out.metrics["trace.overhead"] = (
        sum(out.latencies) / len(out.latencies)
        / (sum(base_latencies) / len(base_latencies)) - 1.0, "ratio")
    for q in (95, 99):
        out.metrics[f"tail.latency_p{q}_ms"] = (
            tail_percentile(base_latencies, q, out.notes, "untraced window")
            * 1e3, "ms")


# -- host CPU steal --------------------------------------------------------------


def host_cpu() -> tuple[int, int]:
    """(busy, stolen) clock ticks of the whole machine so far, from
    ``/proc/stat``; busy includes stolen.  (0, 0) where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's busy CPU time between two
    :func:`host_cpu` samples that the hypervisor gave to other guests."""
    busy = after[0] - before[0]
    return (after[1] - before[1]) / busy if busy > 0 else 0.0


def granted_seconds(fn):
    """Run ``fn()``; return its result and its wall seconds scaled to
    the CPU time the host granted (wall x (1 - steal share))."""
    before = host_cpu()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall * (1.0 - steal_share(before, host_cpu()))


# -- process accounting ------------------------------------------------------


def _status_kb(pid: int | str, key: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids=()) -> float:
    """Summed peak resident set (VmHWM) of this process and ``pids``, MB."""
    own = _status_kb("self", "VmHWM")
    if own is None:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own + sum(_status_kb(pid, "VmHWM") or 0 for pid in pids)
    return total / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def bytes_written() -> int:
    """Bytes this process has passed to write-type system calls."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


def dir_bytes(path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def worker_pids() -> list[int]:
    """Pids of this process's live ``multiprocessing`` children."""
    return [p.pid for p in multiprocessing.active_children()]


def stop_children(timeout: float = 5.0) -> int:
    """Terminate, then kill, every ``multiprocessing`` child; wait for
    each to end.  Returns how many were still alive."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    deadline = time.monotonic() + timeout
    for child in children:
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join(timeout)
    return len(children)


def stop_resource_tracker(settle: bool = True, timeout: float = 5.0) -> None:
    """End the helper process ``multiprocessing`` starts beside spawn
    workers to track their semaphores, and wait for it.

    ``active_children`` does not list it, and on its own it ends only
    after this process has exited, so it would outlive the run.  With
    ``settle`` the dropped worker queues are collected first (their
    feeder threads joined), so that no semaphore finalizer starts a new
    helper afterwards."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is None:
        return
    deadline = time.monotonic() + timeout
    if settle:
        gc.collect()
        for thread in threading.enumerate():
            if thread.name == "QueueFeederThread":
                thread.join(max(0.0, deadline - time.monotonic()))
        gc.collect()
    fd, pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def stop_processes() -> None:
    """Stop every process a run started: the workers, then the
    semaphore tracker."""
    stop_children()
    stop_resource_tracker()


# -- work directories ----------------------------------------------------------


@contextmanager
def work_dir(name: str):
    """A fresh directory under :data:`WORK_ROOT`, removed afterwards."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# -- the stall watchdog ----------------------------------------------------------


class Watchdog:
    """Ends a run that has not finished within ``limit`` seconds.

    The serving front door never notices a worker that died, so a stall
    would otherwise hang the benchmark forever.  On expiry the watchdog
    reports the stall on stderr, stops every worker process, removes
    ``cleanup`` and exits with :data:`WATCHDOG_EXIT` without printing a
    result line.
    """

    def __init__(self, limit: float, cleanup: Path | None = None):
        self._limit = limit
        self._cleanup = cleanup
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True,
                                        name="e2ebench-watchdog")

    def start(self) -> "Watchdog":
        self._thread.start()
        return self

    def cancel(self) -> None:
        self._done.set()

    def _watch(self) -> None:
        if self._done.wait(self._limit):
            return
        stopped = stop_children()
        stop_resource_tracker(settle=False)
        print(f"e2ebench: watchdog: run stalled for {self._limit:.0f} s; "
              f"stopped {stopped} worker process(es); run failed",
              file=sys.stderr, flush=True)
        if self._cleanup is not None:
            shutil.rmtree(self._cleanup, ignore_errors=True)
        os._exit(WATCHDOG_EXIT)

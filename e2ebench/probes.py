"""Tracing from outside the program: wrappers around its public calls.

A :class:`Tracer` patches named functions and methods of the program's
modules with timing wrappers.  Each wrapper charges its call to a
*layer*; nested wrapped calls are subtracted from their caller, so the
per-layer **self** times of one thread add up to the time spent inside
the outermost wrapped call.  Spans stay in memory; worker processes
write theirs to a file when they exit (:func:`traced_shard_worker_main`).

*Root* layers (a shard worker's ``serve_request``, or a benchmark
operation opened with :meth:`Tracer.root`) additionally record one span
each, carrying the per-layer self-time breakdown of everything that ran
under them on that thread — the raw material of the ledger.

Only the benchmark's own files change; nothing under ``src/`` does.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_perf = time.perf_counter


class Tracer:
    """In-memory per-layer timing fed by patched program functions."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive seconds of the outermost call of each layer
        self.outer_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: (layer, t0, t1, extra) of layers patched with ``keep=True``
        self.spans: list[tuple] = []
        #: (name, t0, t1, breakdown, extra) of root spans
        self.roots: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- per-thread state ------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []      # child-time accumulators
            local.depth = defaultdict(int)
            local.frames = []     # breakdown dicts of open roots
        return local

    def _enter(self, layer: str):
        st = self._state()
        st.stack.append(0.0)
        st.depth[layer] += 1
        return st

    def _exit(self, st, layer: str, dur: float) -> None:
        child = st.stack.pop()
        st.depth[layer] -= 1
        own = dur - child
        if st.stack:
            st.stack[-1] += dur
        if st.frames:
            frame = st.frames[-1]
            frame[layer] = frame.get(layer, 0.0) + own
        with self._lock:
            self.self_s[layer] += own
            self.calls[layer] += 1
            if st.depth[layer] == 0:
                self.outer_s[layer] += dur

    # -- instrumentation ---------------------------------------------------

    def wrap(self, fn, layer: str, keep=None, on_result=None, root=None):
        """A timing wrapper around ``fn`` charged to ``layer``.

        ``keep(args, result)`` returns the extra data of a kept span;
        ``on_result(result)`` updates counters; ``root(args)`` makes the
        call a root span whose extra data it returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._enter(layer)
            if root is not None:
                st.frames.append({})
            t0 = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _perf()
                tracer._exit(st, layer, t1 - t0)
                if root is not None:
                    frame = st.frames.pop()
                    with tracer._lock:
                        tracer.roots.append((layer, t0, t1, frame,
                                             root(args)))
                if keep is not None:
                    with tracer._lock:
                        tracer.spans.append((layer, t0, t1,
                                             keep(args, result)))
                if on_result is not None and result is not None:
                    on_result(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, name: str, layer: str, **kw) -> None:
        """Replace ``owner.name`` (module function, method, static or
        class method) with a wrapper; :meth:`uninstall` restores it."""
        raw = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, layer, **kw))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, layer, **kw))
        else:
            new = self.wrap(raw, layer, **kw)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a work counter; also to the innermost open root span
        of this thread, under ``"#" + name``."""
        frames = self._state().frames
        if frames:
            key = "#" + name
            frames[-1][key] = frames[-1].get(key, 0.0) + amount
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._lock:
            for table in (self.self_s, self.outer_s, self.calls,
                          self.counters):
                table.clear()
            self.spans.clear()
            self.roots.clear()

    @contextmanager
    def root(self, name: str, extra=None):
        """Open a benchmark-level root span (one operation) on this
        thread; wrapped calls under it land in its breakdown."""
        st = self._state()
        st.frames.append({})
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            frame = st.frames.pop()
            with self._lock:
                self.roots.append((name, t0, t1, frame, extra))

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "outer_s": dict(self.outer_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "spans": list(self.spans),
                "roots": list(self.roots),
            }


# -- the standard probe set --------------------------------------------------------


def _workload_counter(tracer: Tracer):
    """Fold an ``execute_workload`` result's work counters into the
    tracer (``engine.*``)."""
    def on_result(result):
        stats = result.stats
        tracer.count("engine.records_scanned", stats.records_scanned)
        tracer.count("engine.records_returned", stats.records_returned)
        tracer.count("engine.bytes_read", stats.bytes_read)
        tracer.count("engine.partitions_decoded", stats.partitions_decoded)
    return on_result


def install_scan_probes(tracer: Tracer) -> None:
    """Wrappers on the read path shared by every process: engine entry
    points, partition lookup, unit reads, decode and record filtering."""
    from repro.data.dataset import Dataset
    from repro.encoding.base import EagerPartitionReader, EncodingScheme
    from repro.encoding.columnar import ColumnarBlob
    from repro.partition.base import Partitioning
    from repro.partition.index import PartitionIndex
    from repro.storage.engine import BlotStore
    from repro.storage.unit import DirectoryStore, InMemoryStore

    tracer.patch(BlotStore, "execute_workload", "engine.execute",
                 on_result=_workload_counter(tracer))
    tracer.patch(BlotStore, "query", "engine.query")
    tracer.patch(BlotStore, "count", "engine.count")
    tracer.patch(Partitioning, "involved", "partition.involved")
    tracer.patch(PartitionIndex, "involved", "partition.involved")
    for store in (DirectoryStore, InMemoryStore):
        tracer.patch(store, "get_view", "unit.read")
        tracer.patch(store, "get", "unit.read")
    tracer.patch(EncodingScheme, "open", "encoding.decode",
                 on_result=lambda _r: tracer.count(
                     "encoding.partitions_opened"))
    tracer.patch(EncodingScheme, "encode", "encoding.encode")
    tracer.patch(EagerPartitionReader, "dataset", "encoding.decode")
    tracer.patch(ColumnarBlob, "decode_column", "encoding.decode",
                 on_result=lambda _r: tracer.count(
                     "encoding.columns_decoded"))
    tracer.patch(ColumnarBlob, "dataset", "encoding.decode")
    for name in ("filter_box", "mask_box", "take", "count_in_box"):
        tracer.patch(Dataset, name, "data.filter")
    tracer.patch(Dataset, "concat", "data.concat")


def install_build_probes(tracer: Tracer) -> None:
    """Wrappers on replica construction: every partitioning scheme's
    ``build`` and whole ``materialize_store`` calls (window sealing)."""
    import repro.partition as partition_pkg
    import repro.storage.config as config_mod
    from repro.partition.base import PartitioningScheme

    for obj in vars(partition_pkg).values():
        if isinstance(obj, type) and issubclass(obj, PartitioningScheme) \
                and "build" in obj.__dict__:
            tracer.patch(obj, "build", "partition.build")
    tracer.patch(config_mod, "materialize_store", "storage.materialize")


def _queries_of_request(args):
    _store, request, shard_id, _options = args
    return (request.request_id, shard_id,
            tuple(task.query for task in request.tasks))


def traced_shard_worker_main(config, assignment, shard_id, request_queue,
                             response_queue, options=None) -> None:
    """Shard worker entry point of a traced fleet.

    Installs the scan probes and a root probe on ``serve_request``,
    runs the program's own ``shard_worker_main`` loop, and writes the
    spans next to the store's dataset file when the loop exits."""
    import os

    import repro.serve.worker as worker_mod

    tracer = Tracer()
    install_scan_probes(tracer)
    tracer.patch(worker_mod, "serve_request", "serve.request",
                 root=_queries_of_request)
    cpu0 = time.process_time()
    try:
        worker_mod.shard_worker_main(config, assignment, shard_id,
                                     request_queue, response_queue, options)
    finally:
        data = tracer.export()
        data["cpu_s"] = time.process_time() - cpu0
        out = Path(os.path.dirname(config.dataset_path)) / \
            f"trace-shard-{shard_id}.pkl"
        with open(out, "wb") as fh:
            pickle.dump(data, fh)


def load_worker_traces(store_root) -> list[dict]:
    """The span dumps the traced workers of one fleet wrote."""
    traces = []
    for path in sorted(Path(store_root).glob("trace-shard-*.pkl")):
        with open(path, "rb") as fh:
            traces.append(pickle.load(fh))
    return traces


# -- the ledger ----------------------------------------------------------------------

#: Layers whose self time on an operation's blocking path the ledger
#: reports (``ledger.<layer>_ms``); the stages plus the wait and the
#: unattributed remainder add up to the operation's wall time.
LEDGER_LAYERS = (
    "costmodel.route", "costmodel.np", "serve.ipc", "serve.request",
    "serve.merge", "engine.execute", "engine.query", "engine.count",
    "partition.involved", "partition.build", "unit.read", "encoding.decode",
    "encoding.encode", "encoding.ratio", "data.filter", "data.concat",
    "ingest.append", "wal.append", "core.prune", "core.greedy", "core.exact",
)


def ledger_metrics(metrics: dict, ops: int, wall_s: float, wait_s: float,
                   layer_s: dict, remainder_s: float, run_s: float) -> None:
    """Per-operation ledger: mean wall, wait, layer self times and the
    unattributed remainder (ms), and their closure — the sum of all
    stages over ``run_s``, the time the operations occupied as the
    workload's own loop measured it, apart from the spans.  It reads 1.0
    when the operations tile that time and no stage is counted twice."""
    n = max(ops, 1)
    metrics["ledger.ops"] = (ops, "count")
    metrics["ledger.wall_ms"] = (wall_s / n * 1e3, "ms")
    metrics["ledger.wait_ms"] = (wait_s / n * 1e3, "ms")
    for layer in LEDGER_LAYERS:
        metrics[f"ledger.{layer}_ms"] = (layer_s.get(layer, 0.0) / n * 1e3,
                                         "ms")
    metrics["ledger.remainder_ms"] = (remainder_s / n * 1e3, "ms")
    stages = wait_s + sum(layer_s.get(layer, 0.0) for layer in LEDGER_LAYERS)
    metrics["ledger.closure"] = (
        (stages + remainder_s) / run_s if run_s else 0.0, "ratio")


def root_ledger(metrics: dict, roots, run_s: float, waits=None) -> None:
    """The ledger of benchmark-level root spans (one per operation):
    wrapped layers' self times, the wait before each root (``waits``,
    seconds, same order) and the rest of the root as remainder."""
    layer_s: dict[str, float] = {}
    wall = wait = remainder = 0.0
    for i, (_name, t0, t1, frame, _extra) in enumerate(roots):
        lead = waits[i] if waits is not None else 0.0
        charged = 0.0
        for key, value in frame.items():
            if key.startswith("#"):
                continue
            charged += value
            if key in LEDGER_LAYERS:
                layer_s[key] = layer_s.get(key, 0.0) + value
            else:
                remainder += value
        wall += lead + (t1 - t0)
        wait += lead
        remainder += (t1 - t0) - charged
    ledger_metrics(metrics, len(roots), wall, wait, layer_s, remainder, run_s)

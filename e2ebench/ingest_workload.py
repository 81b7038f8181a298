"""``ingest-live``: paced appends with reads beside them.

Set-up: generate a time-ordered taxi stream and load its head into an
``IngestingBlotStore`` with a WAL (fsync off), background compaction
and time-window rollover.  A tick appends the next batch, then runs one
range ``query`` and one ``count`` around a record appended so far.

The run has two phases over one store.  The paced phase is an open
loop: tick ``k`` is due at ``k / ticks_per_second`` and is timed from
its due time, so a stall also delays the ticks behind it (the latency
figure).  The burst phase then runs a fixed number of further ticks
back to back and waits for the compactions they triggered.  Its reads
per second, taken in chunks of ``CHUNK_TICKS`` ticks, are the
throughput figure: compaction, window sealing and the write lock they
take compete with the ticks for the interpreter, so their cost shows
in how fast the burst goes.  Answers are checked against the
closed-box oracle over the records appended so far, and after
``close()`` a reopened store must hold every acknowledged record.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from e2ebench import common
from e2ebench.oracle import RangeOracle
from e2ebench.probes import (
    Tracer,
    install_build_probes,
    install_scan_probes,
    root_ledger,
)


@dataclass(frozen=True)
class Size:
    initial: int
    ticks_per_second: float
    #: burst ticks per second of ``--seconds`` (a fixed amount of work)
    burst_per_second: float
    batch: int
    auto_compact_at: int
    #: time-window length in the records' own clock (seconds of taxi time)
    window_seconds: float
    setup_repeats: int


FULL = Size(initial=20_000, ticks_per_second=50.0, burst_per_second=60.0,
            batch=100, auto_compact_at=10_000, window_seconds=7_200.0,
            setup_repeats=5)
SMOKE = Size(initial=2_000, ticks_per_second=50.0, burst_per_second=60.0,
             batch=20, auto_compact_at=200, window_seconds=3_600.0,
             setup_repeats=1)

#: Per-axis query extent as a share of the stream's universe.
EXTENT = (0.03, 0.08)
#: Burst ticks per throughput sample.
CHUNK_TICKS = 50


def _specs():
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
    from repro.storage.ingest import ReplicaSpec

    return [
        ReplicaSpec(GridPartitioner(4, 4), encoding_scheme_by_name("ROW-PLAIN"),
                    name="grid-plain"),
        ReplicaSpec(CompositeScheme(KdTreePartitioner(16), 4),
                    encoding_scheme_by_name("COL-GZIP"), name="kd-gzip"),
    ]


class Stream:
    """The seeded inputs of one run: records, batches and tick queries."""

    def __init__(self, seed: int, size: Size, seconds: float):
        from repro.data import synthetic_shanghai_taxis
        from repro.workload import Query

        self.size = size
        self.paced = max(1, round(seconds * size.ticks_per_second))
        self.ticks = self.paced + max(1, round(seconds
                                               * size.burst_per_second))
        total = size.initial + self.ticks * size.batch
        self.data = synthetic_shanghai_taxis(
            total, seed=common.DATA_SEED).sorted_by_time()
        cols = self.data.columns
        self.batches = [
            self.data.take(np.arange(size.initial + k * size.batch,
                                     size.initial + (k + 1) * size.batch))
            for k in range(self.ticks)]
        rng = np.random.default_rng([seed, 202])
        u = self.data.bounding_box()
        span = np.array([u.width, u.height, u.duration])
        self.queries = []
        for k in range(self.ticks):
            i = rng.integers(self.visible(k))
            w, h, t = rng.uniform(*EXTENT, size=3) * span
            self.queries.append(Query(float(w), float(h), float(t),
                                      float(cols["x"][i]), float(cols["y"][i]),
                                      float(cols["t"][i])))

    def visible(self, tick: int) -> int:
        """Records appended once tick ``tick`` has appended its batch."""
        return self.size.initial + (tick + 1) * self.size.batch

    def open_store(self, wal_dir):
        from repro.storage.ingest import IngestingBlotStore

        initial = self.data.take(np.arange(self.size.initial))
        return IngestingBlotStore(
            initial, _specs(), auto_compact_at=self.size.auto_compact_at,
            wal_dir=str(wal_dir), fsync_wal=False, background_compaction=True,
            window_seconds=self.size.window_seconds)


def _loop(stream: Stream, store, out: common.Outcome, ticks: range,
          paced: bool, tracer=None) -> dict:
    """Ticks ``ticks``, paced (open loop from due times) or back to
    back; answers are kept (they are small) and checked after it."""
    period = 1.0 / stream.size.ticks_per_second
    root = "tick" if paced else "burst"
    kept = []
    late = []
    waits = []
    durations = []
    kinds = {"append": [], "query": [], "count": []}
    buffer_s = 0.0
    buffered = 0
    paused = 0.0
    rates = []
    begin = time.perf_counter()
    t0 = begin + (0.05 if paced else 0.0)
    chunk_t0, chunk_host, chunk_reads = t0, common.host_cpu(), 0
    end = t0
    for i, k in enumerate(ticks):
        due = t0 + i * period if paced else time.perf_counter()
        pause = due - time.perf_counter()
        if pause > 0:
            paused += pause
            time.sleep(pause)
        start = time.perf_counter()
        # The part of a late tick's lateness spent queued behind the
        # tick before it belongs to that tick, not to this one's wait.
        waits.append(start - max(due, end))
        query = stream.queries[k]
        with tracer.root(root) if tracer is not None else nullcontext():
            try:
                store.append(stream.batches[k])
                ok_append = True
            except Exception as exc:  # noqa: BLE001 - counted as failed
                ok_append = False
                out.notes.append(f"append failed: {exc!r}")
            t_append = time.perf_counter()
            if tracer is not None:
                buffered += store.buffered_records
            try:
                result = store.query(query)
                buffer_s += result.stats.buffer_seconds
            except Exception as exc:  # noqa: BLE001
                result = exc
            t_query = time.perf_counter()
            try:
                total, stats = store.count(query)
                buffer_s += stats.buffer_seconds
            except Exception as exc:  # noqa: BLE001
                total = exc
            end = time.perf_counter()
        out.count("append", not ok_append)
        out.count("query", isinstance(result, Exception))
        out.count("count", isinstance(total, Exception))
        late.append(start - due)
        durations.append(end - due)
        kinds["append"].append(t_append - due)
        kinds["query"].append(t_query - t_append)
        kinds["count"].append(end - t_query)
        kept.append((k, result, total))
        if not paced:
            chunk_reads += (not isinstance(result, Exception)) \
                + (not isinstance(total, Exception))
            if (i + 1) % CHUNK_TICKS == 0 or (i + 1 == len(ticks)
                                              and not rates):
                host = common.host_cpu()
                rates.append(chunk_reads / ((end - chunk_t0) * (
                    1.0 - common.steal_share(chunk_host, host))))
                chunk_t0, chunk_host, chunk_reads = \
                    time.perf_counter(), host, 0
    if not paced:
        # Not on the throughput clock: whether a compaction is still
        # running when the last tick ends is chance.
        store.wait_for_compaction()
    finish = time.perf_counter()
    return {"kept": kept, "late": late, "waits": waits, "ticks": durations,
            "kinds": kinds,
            "elapsed": finish - t0, "busy": finish - begin - paused,
            "rates": rates,
            "buffer_s": buffer_s, "buffered": buffered}


def _check(stream: Stream, oracle: RangeOracle, kept, out) -> None:
    for k, result, total in kept:
        box = stream.queries[k].box()
        visible = stream.visible(k)
        if not isinstance(result, Exception) and \
                not oracle.matches(result.records.columns, box, visible):
            out.fail(f"tick {k}: query answer differs from the oracle")
        if not isinstance(total, Exception) and \
                total != len(oracle.expected(box, visible)):
            out.fail(f"tick {k}: count {total} differs from the oracle")


def _check_recovery(stream: Stream, oracle: RangeOracle, wal_dir,
                    out) -> int:
    """Reopen the closed store from its WAL: every acknowledged record
    must come back, bit for bit.  Then fold what the WAL replayed and
    return the bytes the store keeps on disk — the footprint once every
    record is compacted, which does not depend on when the run's
    background compactions happened to fire."""
    from repro.storage.ingest import IngestingBlotStore

    reopened = IngestingBlotStore.open(
        str(wal_dir), _specs(), window_seconds=stream.size.window_seconds)
    try:
        got = oracle.ranks_of(reopened.dataset().columns)
        reopened.compact()
    finally:
        reopened.close()
    want = oracle.all_ranks(stream.visible(stream.ticks - 1))
    if got is None or not np.array_equal(got, want):
        out.fail("store reopened from its WAL lost or altered records")
    return common.dir_bytes(wal_dir)


def _plan_cost(store, queries) -> float:
    """Mean Eq. 7 predicted seconds per query of the plans the program
    routes: the base store's plus every sealed window the query's time
    range reaches."""
    from repro.workload import Workload

    unique = list(dict.fromkeys(queries))
    workload = Workload.unweighted(unique)
    rows = np.arange(len(unique))
    total = np.zeros(len(unique))
    for layer in [None, *store.windows]:
        target = store.base if layer is None else layer.store
        plan = target.route_workload(workload)
        cost = plan.costs[rows, plan.assignments]
        if layer is not None:
            cost = cost * [layer.intersects(q.box()) for q in unique]
        total += cost
    return float(total.mean())


def _phase(stream, oracle, wal_dir, out, tracer=None) -> dict:
    store = stream.open_store(wal_dir)
    try:
        if tracer is not None:
            tracer.reset()
        written0 = common.bytes_written()
        cpu0 = time.process_time()
        host0 = common.host_cpu()
        paced = _loop(stream, store, out, range(stream.paced), True, tracer)
        paced["steal"] = common.steal_share(host0, common.host_cpu())
        # Off the clock: the burst starts with no compaction in flight.
        store.wait_for_compaction()
        compactions = store.compactions
        host0 = common.host_cpu()
        burst = _loop(stream, store, out, range(stream.paced, stream.ticks),
                      False, tracer)
        burst["steal"] = common.steal_share(host0, common.host_cpu())
        burst["compactions"] = store.compactions - compactions
        agg = {"paced": paced, "burst": burst,
               "kept": paced["kept"] + burst["kept"],
               "cpu": time.process_time() - cpu0,
               "buffer_s": paced["buffer_s"] + burst["buffer_s"],
               "buffered": paced["buffered"] + burst["buffered"]}
        if tracer is not None:
            # Before close() and the checks, which run program code too.
            agg["trace"] = tracer.export()
        agg["written"] = common.bytes_written() - written0
        agg["compactions"] = store.compactions
        if store.compaction_failures:
            out.fail(f"{store.compaction_failures} compaction(s) failed: "
                     f"{store.last_compaction_error}")
        agg["rss"] = common.peak_rss_mb()
        if tracer is None:
            agg["plan_cost"] = _plan_cost(store, stream.queries)
    finally:
        store.close()
    _check(stream, oracle, agg["kept"], out)
    agg["stored"] = _check_recovery(stream, oracle, wal_dir, out)
    return agg


def _kind_notes(agg, out) -> None:
    paced, burst = agg["paced"], agg["burst"]
    for kind, values in paced["kinds"].items():
        label = "append (from due)" if kind == "append" else kind
        out.notes.append(
            f"{label}: p50 {common.percentile(values, 50) * 1e3:.3f} ms, "
            f"p95 {common.tail_percentile(values, 95, [], kind) * 1e3:.3f} ms,"
            f" p99 {common.tail_percentile(values, 99, [], kind) * 1e3:.3f} ms")
    out.notes.append(
        f"generator lateness: max {max(paced['late']) * 1e3:.2f} ms, "
        f"p99 {common.percentile(paced['late'], 99) * 1e3:.2f} ms; "
        f"compactions {agg['compactions']}")
    out.notes.append(
        f"burst: {len(burst['ticks'])} ticks in {burst['elapsed']:.3f} s as "
        f"measured ({burst['compactions']} compactions), host steal "
        f"{burst['steal']:.1%}")


def run(seed: int, seconds: float, smoke: bool, traced: bool,
        work) -> common.Outcome:
    size = SMOKE if smoke else FULL
    out = common.Outcome()
    setups = []
    for k in range(size.setup_repeats if not traced else 1):
        def set_up(k=k):
            stream = Stream(seed, size, seconds)
            return stream, stream.open_store(work / f"setup-{k}")

        (stream, store), granted = common.granted_seconds(set_up)
        setups.append(granted)
        store.close()
    oracle = RangeOracle(stream.data.columns)
    agg = _phase(stream, oracle, work / "wal", out)
    total = stream.visible(stream.ticks - 1)
    burst = agg["burst"]
    out.latencies = agg["paced"]["ticks"]
    m = out.metrics
    m["cpu.ms_per_op"] = (agg["cpu"] / stream.ticks * 1e3, "ms")
    if not traced:
        m["setup_s"] = (float(np.median(setups)), "s")
        m["throughput_qps"] = (float(np.median(burst["rates"])), "queries/s")
        common.latency_metrics(m, agg["paced"]["ticks"],
                               agg["paced"]["steal"], out.notes,
                               "tick latency")
        m["peak_rss_mb"] = (agg["rss"], "MB")
        m["stored_bytes_per_record"] = (agg["stored"] / total, "B")
        m["plan_cost_s"] = (agg["plan_cost"], "s")
        _kind_notes(agg, out)
        return out

    base_latencies = agg["paced"]["ticks"]
    tracer = Tracer()
    install_scan_probes(tracer)
    install_build_probes(tracer)
    from repro.storage.engine import BlotStore
    from repro.storage.ingest import IngestingBlotStore
    from repro.storage.wal import WriteAheadLog

    tracer.patch(IngestingBlotStore, "append", "ingest.append")
    tracer.patch(IngestingBlotStore, "query", "engine.query")
    tracer.patch(IngestingBlotStore, "count", "engine.count")
    tracer.patch(BlotStore, "add_replica", "ingest.rebuild")
    tracer.patch(WriteAheadLog, "append", "wal.append")
    tracer.patch(WriteAheadLog, "snapshot", "wal.snapshot")
    try:
        traced_agg = _phase(stream, oracle, work / "wal-traced", out, tracer)
    finally:
        tracer.uninstall()
    out.latencies = traced_agg["paced"]["ticks"]
    common.traced_run_metrics(out, base_latencies)
    _ingest_layers(traced_agg["trace"], traced_agg, stream, out.metrics)
    return out


def _ingest_layers(data: dict, agg: dict, stream: Stream, m: dict) -> None:
    ticks = stream.ticks
    outer, self_s, calls = data["outer_s"], data["self_s"], data["calls"]
    reads = max(ticks, 1)

    def per_call(layer):
        return outer.get(layer, 0.0) / max(calls.get(layer, 0), 1) * 1e3

    m["ingest.append_ms"] = (outer.get("ingest.append", 0.0) / reads * 1e3,
                             "ms")
    m["wal.append_ms"] = (per_call("wal.append"), "ms")
    m["wal.snapshot_s"] = (outer.get("wal.snapshot", 0.0), "s")
    m["engine.query_ms"] = (outer.get("engine.query", 0.0) / reads * 1e3, "ms")
    m["engine.count_ms"] = (outer.get("engine.count", 0.0) / reads * 1e3, "ms")
    m["engine.buffer_ms"] = (agg["buffer_s"] / (2 * reads) * 1e3, "ms")
    m["ingest.compactions"] = (agg["compactions"], "count")
    m["ingest.rebuild_s"] = (outer.get("ingest.rebuild", 0.0), "s")
    m["ingest.seal_s"] = (outer.get("storage.materialize", 0.0), "s")
    m["ingest.buffer_records"] = (agg["buffered"] / reads, "count")
    appended = sum(b.binary_size_bytes() for b in stream.batches)
    m["ingest.write_amplification"] = (agg["written"] / appended, "ratio")
    m["partition.build_s"] = (outer.get("partition.build", 0.0), "s")
    m["encoding.encode_s"] = (self_s.get("encoding.encode", 0.0), "s")
    m["partition.involved_ms"] = (
        self_s.get("partition.involved", 0.0) / (2 * reads) * 1e3, "ms")
    m["unit.read_ms"] = (self_s.get("unit.read", 0.0) / (2 * reads) * 1e3,
                         "ms")
    m["encoding.decode_ms"] = (
        self_s.get("encoding.decode", 0.0)
        / max(data["counters"].get("encoding.partitions_opened", 0), 1) * 1e3,
        "ms")
    m["data.filter_ms"] = (self_s.get("data.filter", 0.0) / (2 * reads) * 1e3,
                           "ms")
    m["data.concat_ms"] = (self_s.get("data.concat", 0.0) / (2 * reads) * 1e3,
                           "ms")
    roots = [r for r in data["roots"] if r[0] == "tick"]
    root_ledger(m, roots, agg["paced"]["busy"], waits=agg["paced"]["waits"])

"""``serve-narrow`` / ``serve-wide``: a process-mode ``ShardServer``
fleet under a closed loop of two clients.

Set-up: generate the taxi records, materialize the store (two diverse
replicas) and start the fleet up to its first answered query.  Each
client sends its next query as soon as the previous one returns.  The
measured window is cut into short segments; between segments (off the
clock) every answer of the segment is compared with the closed-box
oracle, so no answer is kept longer than one segment.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass

import numpy as np

from e2ebench import common
from e2ebench.oracle import RangeOracle
from e2ebench.probes import (
    Tracer,
    install_build_probes,
    install_scan_probes,
    ledger_metrics,
    load_worker_traces,
    traced_shard_worker_main,
)

CLIENTS = 2
SHARDS = 2
SEGMENT_SECONDS = 0.5
WARMUP_QUERIES = 40


@dataclass(frozen=True)
class Extent:
    """Per-axis query extent as a share of the universe."""

    lo: float
    hi: float
    #: centre queries on a random record (results never empty) rather
    #: than uniformly over the universe
    on_records: bool


EXTENTS = {
    # A few percent per axis around a record: tens of records back.
    "serve-narrow": Extent(0.02, 0.04, on_records=True),
    # About half of every axis: ~10^4 records back.
    "serve-wide": Extent(0.45, 0.50, on_records=False),
}


@dataclass(frozen=True)
class Size:
    records: int
    pool: int
    setup_repeats: int


FULL = Size(records=60_000, pool=20_000, setup_repeats=3)
SMOKE = Size(records=4_000, pool=400, setup_repeats=1)


def _replica_specs():
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner

    return [
        (GridPartitioner(4, 4), encoding_scheme_by_name("ROW-PLAIN"),
         "grid-plain"),
        (CompositeScheme(KdTreePartitioner(16), 4),
         encoding_scheme_by_name("COL-GZIP"), "kd-gzip"),
    ]


def make_queries(dataset, extent: Extent, n: int, seed: int) -> list:
    """``n`` distinct positioned range queries drawn from ``seed``."""
    from repro.workload import Query

    rng = np.random.default_rng([seed, 101])
    u = dataset.bounding_box()
    span = np.array([u.width, u.height, u.duration])
    lo = np.array([u.x_min, u.y_min, u.t_min])
    cols = dataset.columns
    frac = rng.uniform(extent.lo, extent.hi, size=(n, 3))
    size = frac * span
    if extent.on_records:
        pick = rng.integers(len(dataset), size=n)
        centre = np.stack([cols["x"][pick], cols["y"][pick],
                           cols["t"][pick]], axis=1)
    else:
        centre = lo + size / 2 + rng.uniform(size=(n, 3)) * (span - size)
    queries = dict.fromkeys(
        Query(float(s[0]), float(s[1]), float(s[2]),
              float(c[0]), float(c[1]), float(c[2]))
        for s, c in zip(size, centre))
    return list(queries)


class Fleet:
    """One set-up: records, materialized store and a started server."""

    def __init__(self, size: Size, root, worker_main=None):
        self.size = size
        self.root = root
        self.worker_main = worker_main
        self.server = None
        self.dataset = None
        self.config = None
        #: (query, answer) of the first query, which ends the set-up
        self.first = None

    async def start(self, first_query_of) -> float:
        """Build and start; returns the seconds until the first answer,
        scaled to the CPU time the host granted."""
        import repro.serve.server as server_mod
        from repro.data import synthetic_shanghai_taxis
        from repro.serve import ShardServer
        from repro.storage import materialize_store

        host0 = common.host_cpu()
        t0 = time.perf_counter()
        self.dataset = synthetic_shanghai_taxis(self.size.records,
                                                seed=common.DATA_SEED)
        self.config = materialize_store(self.dataset, _replica_specs(),
                                        str(self.root))
        original = server_mod.shard_worker_main
        if self.worker_main is not None:
            server_mod.shard_worker_main = self.worker_main
        try:
            self.server = ShardServer(self.config, n_shards=SHARDS,
                                      worker_mode="process")
            await self.server.start()
        finally:
            server_mod.shard_worker_main = original
        query = first_query_of(self.dataset)
        answer = await self.server.query(query)
        granted = (time.perf_counter() - t0) * (
            1.0 - common.steal_share(host0, common.host_cpu()))
        self.first = (query, answer)
        return granted

    async def stop(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None


async def _segment(server, queries, cursor, seconds, log) -> None:
    """Two closed-loop clients for ``seconds``; appends
    ``(query, t_call, t_return, result_or_exception)`` to ``log``."""
    end = time.perf_counter() + seconds

    async def client():
        while time.perf_counter() < end:
            query = queries[next(cursor) % len(queries)]
            t0 = time.perf_counter()
            try:
                answer = await server.query(query)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                answer = exc
            log.append((query, t0, time.perf_counter(), answer))

    await asyncio.gather(*(client() for _ in range(CLIENTS)))


def _check_answer(oracle: RangeOracle, out: common.Outcome, kind: str,
                  query, answer) -> None:
    out.count(kind)
    if not oracle.matches(answer.columns, query.box()):
        out.fail(f"{kind} answer to {query} differs from the oracle")


async def _measure(fleet: Fleet, queries, seconds: float, out: common.Outcome,
                   oracle: RangeOracle, on_request=None) -> dict:
    """The measured window: closed loop in segments, every answer
    checked between segments.  The set-up's first query and the
    warm-up queries before the window are checked too (off the clock).
    Returns timing aggregates."""
    server = fleet.server
    cursor = itertools.count()
    _check_answer(oracle, out, "first", *fleet.first)
    for q in queries[-WARMUP_QUERIES:]:
        _check_answer(oracle, out, "warmup", q, await server.query(q))
    t_start = time.perf_counter()
    workers = common.worker_pids()
    cpu_workers0 = sum(common.cpu_seconds(p) for p in workers)
    cpu_front = 0.0
    latencies: list[float] = []
    steals: list[float] = []
    result_bytes = 0
    measured = 0.0
    rates: list[float] = []
    served: list = []
    while measured < seconds:
        log: list = []
        host0 = common.host_cpu()
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        await _segment(server, queries, cursor,
                       min(SEGMENT_SECONDS, seconds - measured), log)
        cpu_front += time.process_time() - cpu0
        segment = time.perf_counter() - t0
        steal = common.steal_share(host0, common.host_cpu())
        measured += segment
        answered = sum(1 for entry in log
                       if not isinstance(entry[3], BaseException))
        rates.append(answered / (segment * (1.0 - steal)))
        steals.extend([steal] * answered)
        for query, t_call, t_ret, answer in log:
            failed = isinstance(answer, BaseException)
            out.count("query", failed)
            if failed:
                out.notes.append(f"query failed: {type(answer).__name__}: "
                                 f"{answer}")
                continue
            latencies.append(t_ret - t_call)
            served.append(query)
            result_bytes += sum(c.nbytes for c in answer.columns.values())
            if on_request is not None:
                on_request(query, t_call, t_ret, answer)
            if not oracle.matches(answer.columns, query.box()):
                out.fail(f"answer to {query} differs from the oracle")
    cpu = {
        "frontdoor": cpu_front,
        "workers": sum(common.cpu_seconds(p) for p in workers)
        - cpu_workers0,
    }
    return {"t_start": t_start, "latencies": latencies, "steals": steals,
            "measured": measured, "rates": rates, "served": served,
            "result_bytes": result_bytes, "cpu": cpu,
            "rss": common.peak_rss_mb(workers)}


def _first_query(extent, seed):
    return lambda dataset: make_queries(dataset, extent, 1, seed + 7)[0]


async def _run_untraced(name, seed, seconds, size, work, out) -> None:
    extent = EXTENTS[name]
    setups = []
    earlier = []
    fleet = None
    for k in range(size.setup_repeats):
        if fleet is not None:
            earlier.append(fleet.first)
            await fleet.stop()
        fleet = Fleet(size, work / f"setup-{k}")
        setups.append(await fleet.start(_first_query(extent, seed)))
    try:
        queries = make_queries(fleet.dataset, extent, size.pool, seed)
        oracle = RangeOracle(fleet.dataset.columns)
        for first in earlier:
            _check_answer(oracle, out, "first", *first)
        agg = await _measure(fleet, queries, seconds, out, oracle)
        lat = agg["latencies"]
        served = list(dict.fromkeys(agg["served"]))
        from repro.workload import Workload

        plan = fleet.server.router.route_workload(Workload.unweighted(served))
        plan_cost = float(plan.costs[np.arange(len(served)),
                                     plan.assignments].mean())
        stored = common.dir_bytes(work / f"setup-{size.setup_repeats - 1}"
                                  / "units")
    finally:
        await fleet.stop()
    m = out.metrics
    m["setup_s"] = (float(np.median(setups)), "s")
    m["throughput_qps"] = (float(np.median(agg["rates"])), "queries/s")
    common.latency_metrics(m, lat, agg["steals"], out.notes,
                           "request latency")
    m["cpu.ms_per_op"] = (
        (agg["cpu"]["frontdoor"] + agg["cpu"]["workers"]) / len(lat) * 1e3,
        "ms")
    m["peak_rss_mb"] = (agg["rss"], "MB")
    m["stored_bytes_per_record"] = (stored / size.records, "B")
    m["plan_cost_s"] = (plan_cost, "s")
    out.latencies = lat


# -- the traced run ---------------------------------------------------------------


def _serve_ledger(requests, front: dict, workers: list, t_start: float,
                  client_s: float, metrics: dict) -> None:
    """Per-request blocking path: batch wait -> route -> dispatch (IPC
    plus the slowest shard's ``serve_request``, split by layer) -> merge
    -> remainder (until the caller resumes).  All intervals are on the
    one monotonic clock the front door and the workers share.  The
    ledger closes on ``client_s``, the clients' measured time (clients x
    window), pro rata for the requests it could match."""
    routes = [s for s in front["spans"] if s[0] == "costmodel.route"
              and s[1] >= t_start]
    merges = [s for s in front["spans"] if s[0] == "serve.merge"
              and s[1] >= t_start]
    route_of: dict = {}
    for idx, (_l, _t0, _t1, queries) in enumerate(routes):
        for q in queries:
            route_of.setdefault(q, []).append(idx)
    merge_of: dict = {}
    for _l, t0, t1, result_id in merges:
        merge_of.setdefault(result_id, []).append((t0, t1))
    worker_of: dict = {}
    for _name, t0, t1, frame, (_rid, _shard, queries) in workers:
        if t0 >= t_start:
            for q in queries:
                worker_of.setdefault(q, []).append((t0, t1, frame))

    rows = []
    batch_merge: dict[int, list] = {}
    for query, t_call, t_ret, result_id in requests:
        ridx = next((i for i in route_of.get(query, ())
                     if routes[i][1] >= t_call), None)
        merge = next(((a, b) for a, b in merge_of.get(result_id, ())
                      if t_call <= a and b <= t_ret), None)
        if ridx is None or merge is None:
            continue
        # One merge interval per batch: first to last concat.
        span = batch_merge.setdefault(ridx, [merge[0], merge[1]])
        span[0] = min(span[0], merge[0])
        span[1] = max(span[1], merge[1])
        rows.append((query, t_call, t_ret, ridx))

    layer_s = {"costmodel.route": 0.0, "serve.ipc": 0.0, "serve.merge": 0.0}
    wall = wait = remainder = dispatch = 0.0
    for query, t_call, t_ret, ridx in rows:
        _l, r0, r1, _qs = routes[ridx]
        m0, m1 = batch_merge[ridx]
        legs = [w for w in worker_of.get(query, ()) if r1 <= w[0] <= m0]
        slowest = max(legs, key=lambda w: w[1] - w[0], default=None)
        worker_s = slowest[1] - slowest[0] if slowest else 0.0
        if slowest is not None:
            for layer, s in slowest[2].items():
                if not layer.startswith("#"):
                    layer_s[layer] = layer_s.get(layer, 0.0) + s
        wall += t_ret - t_call
        wait += r0 - t_call
        layer_s["costmodel.route"] += r1 - r0
        layer_s["serve.ipc"] += max(m0 - r1 - worker_s, 0.0)
        layer_s["serve.merge"] += m1 - m0
        dispatch += m0 - r1
        remainder += t_ret - m1
    ledger_metrics(metrics, len(rows), wall, wait, layer_s, remainder,
                   client_s * len(rows) / max(len(requests), 1))
    n = max(len(rows), 1)
    metrics["serve.batch_wait_ms"] = (wait / n * 1e3, "ms")
    metrics["serve.dispatch_ms"] = (dispatch / n * 1e3, "ms")
    metrics["serve.ipc_ms"] = (layer_s["serve.ipc"] / n * 1e3, "ms")
    metrics["serve.merge_ms"] = (layer_s["serve.merge"] / n * 1e3, "ms")
    metrics["costmodel.route_ms"] = (layer_s["costmodel.route"] / n * 1e3,
                                     "ms")


async def _run_traced(name, seed, seconds, size, work, out) -> list:
    """Untraced window (the overhead baseline), then a traced fleet.
    Returns the untraced window's latencies."""
    extent = EXTENTS[name]
    fleet = Fleet(size, work / "untraced")
    await fleet.start(_first_query(extent, seed))
    try:
        queries = make_queries(fleet.dataset, extent, size.pool, seed)
        oracle = RangeOracle(fleet.dataset.columns)
        base_agg = await _measure(fleet, queries, seconds, out, oracle)
    finally:
        await fleet.stop()

    tracer = Tracer()
    install_scan_probes(tracer)
    install_build_probes(tracer)
    import repro.serve.server as server_mod

    tracer.patch(server_mod, "concat_payloads", "serve.merge",
                 keep=lambda _args, result: id(result))
    fleet = Fleet(size, work / "traced",
                  worker_main=traced_shard_worker_main)
    try:
        await fleet.start(_first_query(extent, seed))
        setup_trace = tracer.export()
        tracer.patch(fleet.server.router, "route_workload",
                     "costmodel.route",
                     keep=lambda args, _r: tuple(q for q, _w in args[0]))
        requests: list[tuple] = []
        agg = await _measure(
            fleet, queries, seconds, out, oracle,
            on_request=lambda q, t0, t1, answer: requests.append(
                (q, t0, t1, id(answer))))
        t_start = agg["t_start"]
        front = tracer.export()
        await fleet.stop()
    finally:
        tracer.uninstall()
        await fleet.stop()
    workers = load_worker_traces(work / "traced")
    if len(workers) != SHARDS:
        out.fail(f"expected {SHARDS} worker span dumps, got {len(workers)}")

    m = out.metrics
    n = max(len(agg["latencies"]), 1)
    _serve_ledger(requests, front,
                  [r for w in workers for r in w["roots"]], t_start,
                  CLIENTS * agg["measured"], m)
    roots = [r for w in workers for r in w["roots"] if r[1] >= t_start]
    by_layer: dict[str, float] = {}
    counts: dict[str, float] = {}
    for _name, _t0, _t1, frame, _extra in roots:
        for key, value in frame.items():
            target = counts if key.startswith("#") else by_layer
            target[key] = target.get(key, 0.0) + value
    shard_requests = max(len(roots), 1)
    execute_s = sum(by_layer.values()) - by_layer.get("serve.request", 0.0)
    m["engine.execute_ms"] = (execute_s / shard_requests * 1e3, "ms")
    m["partition.involved_ms"] = (
        by_layer.get("partition.involved", 0.0) / n * 1e3, "ms")
    m["unit.read_ms"] = (by_layer.get("unit.read", 0.0) / n * 1e3, "ms")
    decoded = counts.get("#engine.partitions_decoded", 0.0)
    m["encoding.decode_ms"] = (
        by_layer.get("encoding.decode", 0.0)
        / max(counts.get("#encoding.partitions_opened", 0.0), 1) * 1e3, "ms")
    m["encoding.columns_decoded"] = (
        counts.get("#encoding.columns_decoded", 0.0) / n, "count")
    m["data.filter_ms"] = (by_layer.get("data.filter", 0.0) / n * 1e3, "ms")
    m["data.concat_ms"] = (
        (by_layer.get("data.concat", 0.0)
         + front["self_s"].get("data.concat", 0.0)) / n * 1e3, "ms")
    m["engine.partitions_decoded"] = (decoded / n, "count")
    m["engine.bytes_read"] = (counts.get("#engine.bytes_read", 0.0) / n, "B")
    scanned = counts.get("#engine.records_scanned", 0.0)
    m["engine.records_scanned"] = (scanned / n, "count")
    m["engine.scan_yield"] = (
        counts.get("#engine.records_returned", 0.0) / scanned
        if scanned else 0.0, "ratio")
    routes = [s for s in front["spans"] if s[0] == "costmodel.route"
              and s[1] >= t_start]
    m["serve.batch_size"] = (
        sum(len(s[3]) for s in routes) / max(len(routes), 1), "count")
    m["serve.result_bytes"] = (agg["result_bytes"] / n, "B")
    nb = max(len(base_agg["latencies"]), 1)
    m["serve.frontdoor_cpu_ms"] = (base_agg["cpu"]["frontdoor"] / nb * 1e3,
                                   "ms")
    m["serve.worker_cpu_ms"] = (base_agg["cpu"]["workers"] / nb * 1e3, "ms")
    m["cpu.ms_per_op"] = (m["serve.frontdoor_cpu_ms"][0]
                          + m["serve.worker_cpu_ms"][0], "ms")
    m["partition.build_s"] = (
        setup_trace["outer_s"].get("partition.build", 0.0), "s")
    m["encoding.encode_s"] = (
        setup_trace["self_s"].get("encoding.encode", 0.0), "s")
    out.latencies = agg["latencies"]
    return base_agg["latencies"]


def run(name: str, seed: int, seconds: float, smoke: bool, traced: bool,
        work) -> common.Outcome:
    size = SMOKE if smoke else FULL
    out = common.Outcome()
    if traced:
        base = asyncio.run(_run_traced(name, seed, seconds, size, work, out))
        common.traced_run_metrics(out, base)
    else:
        asyncio.run(_run_untraced(name, seed, seconds, size, work, out))
    return out

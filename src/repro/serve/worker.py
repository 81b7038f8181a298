"""The shard worker: one process (or thread) owning a slice of every replica.

A worker rehydrates the store from the pickled
:class:`~repro.storage.StoreConfig` it was spawned with — no live
handle ever crosses the process boundary — and masks each replica down
to the units its :class:`~repro.cluster.ShardAssignment` shard owns.
The engine's scan paths treat masked (``None``) unit keys as partitions
contributing no records, so a worker's answer is exactly the slice of
the full answer its shard is responsible for.

Workers never fail over or repair on their own: ownership masks are
per-replica, so a worker switching replicas unilaterally would return a
slice of a *different* partitioning than its peers — duplicated and
missing records.  Failover is the front door's job: a worker reports
per-query structured failures and the server re-dispatches those
queries, pinned to the next-ranked replica, to every shard at once.

Tracing: when a request frame carries a
:class:`~repro.obs.distributed.TraceContext`, the worker opens a
``shard_serve`` span under the front door's dispatch span and threads
its own context into :class:`~repro.storage.options.ExecOptions`, so
the engine's ``workload``/``query``/``scan`` spans land in the worker's
recorder already parented into the originating request's trace.  The
front door collects them later with a
:class:`~repro.serve.protocol.TraceRequest`.  An expired deadline on
the frame fails every task structurally instead of scanning.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.costmodel.model import RoutingPlan
from repro.errors import DeadlineExceededError
from repro.obs.distributed import TraceContext
from repro.obs.trace import NULL_RECORDER
from repro.serve.protocol import (
    MetricsRequest,
    MetricsResponse,
    ShardRequest,
    ShardResponse,
    TraceRequest,
    TraceResponse,
    dataset_to_payload,
)
from repro.storage.config import StoreConfig, hydrate_store
from repro.storage.options import ExecOptions
from repro.workload.query import Workload


def open_shard_store(config: StoreConfig, assignment, shard_id: int):
    """Hydrate this shard's view of the store: every replica reopened
    from its manifest, unit keys masked to the shard's owned set."""
    return hydrate_store(
        config,
        replica_transform=lambda r: assignment.mask_replica(r, shard_id),
    )


def pinned_plan(replica_name: str, n_queries: int) -> RoutingPlan:
    """A degenerate routing plan pinning every query to one replica —
    how the front door's routing decision is carried into
    ``execute_workload`` on each shard."""
    return RoutingPlan(
        replica_names=(replica_name,),
        assignments=np.zeros(n_queries, dtype=np.intp),
        costs=np.zeros((n_queries, 1), dtype=np.float64),
    )


def _worker_options(options: ExecOptions | None) -> ExecOptions:
    base = options if options is not None else ExecOptions()
    # Coordinated failover: the server owns replica switching.
    return replace(base, failover=False, repair=False)


def _recorder_of(store):
    obs = getattr(store, "observability", None)
    return obs.tracer if obs is not None else NULL_RECORDER


def serve_request(store, request: ShardRequest, shard_id: int,
                  options: ExecOptions) -> ShardResponse:
    """Answer one batched request against this shard's masked store.

    The batch path decodes each owned partition once across all queries;
    if any partition read fails the whole ``execute_workload`` call
    aborts (it never returns partial result sets), so the worker falls
    back to per-query execution to isolate exactly which queries the
    pinned replica cannot serve here.
    """
    ctx = request.trace
    if ctx is not None and ctx.deadline is not None:
        now = time.time()
        if now > ctx.deadline:
            err = DeadlineExceededError(ctx.deadline, now)
            return ShardResponse(
                request_id=request.request_id, shard_id=shard_id,
                failures={task.index: f"{type(err).__name__}: {err}"
                          for task in request.tasks})
    if ctx is not None and ctx.trace_id:
        rec = _recorder_of(store)
        shard_span = rec.start("shard_serve", context=ctx, shard=shard_id,
                               replica=request.replica,
                               n_tasks=len(request.tasks))
        options = replace(
            options, trace=True,
            trace_context=TraceContext(trace_id=shard_span.trace_id,
                                       parent_span_id=shard_span.span_id,
                                       tenant=ctx.tenant,
                                       deadline=ctx.deadline))
    else:
        shard_span = None
    queries = [task.query for task in request.tasks]
    results: dict[int, dict[str, np.ndarray]] = {}
    failures: dict[int, str] = {}
    try:
        try:
            outcome = store.execute_workload(
                Workload.unweighted(queries),
                plan=pinned_plan(request.replica, len(queries)),
                options=options,
            )
            for task, qr in zip(request.tasks, outcome.results):
                results[task.index] = dataset_to_payload(qr.records)
        except Exception:
            for task in request.tasks:
                try:
                    qr = store.query(task.query, replica=request.replica,
                                     options=options)
                    results[task.index] = dataset_to_payload(qr.records)
                except Exception as exc:
                    failures[task.index] = f"{type(exc).__name__}: {exc}"
    finally:
        if shard_span is not None:
            shard_span.annotate(results=len(results),
                                failures=len(failures))
            shard_span.finish()
    return ShardResponse(request_id=request.request_id, shard_id=shard_id,
                         results=results, failures=failures)


def _metrics_snapshot(store) -> dict:
    obs = store.observability
    if obs is None:
        return {"counters": [], "gauges": [], "histograms": [],
                "quantiles": []}
    return obs.metrics.snapshot()


def _trace_spans(store, clear: bool) -> tuple[dict, ...]:
    rec = _recorder_of(store)
    spans = tuple(s.to_dict() for s in rec.spans())
    if clear:
        rec.clear()
    return spans


def shard_worker_main(config: StoreConfig, assignment, shard_id: int,
                      request_channel, response_channel,
                      options: ExecOptions | None = None) -> None:
    """The worker loop: ``spawn`` target for process workers, ``Thread``
    target for in-process ones.  The channels are the worker's blocking
    :class:`~multiprocessing.connection.Connection` ends (one duplex
    connection may serve as both).  Exits on the ``None`` sentinel or
    when the front door's end closes, and closes its own end on the way
    out, however it exits, so the front door reads EOF."""
    opts = _worker_options(options)
    with request_channel, response_channel:
        store = open_shard_store(config, assignment, shard_id)
        try:
            while True:
                message = request_channel.recv()
                if message is None:
                    break
                if isinstance(message, MetricsRequest):
                    reply = MetricsResponse(
                        request_id=message.request_id,
                        shard_id=shard_id,
                        snapshot=_metrics_snapshot(store),
                    )
                elif isinstance(message, TraceRequest):
                    reply = TraceResponse(
                        request_id=message.request_id,
                        shard_id=shard_id,
                        spans=_trace_spans(store, message.clear),
                    )
                else:
                    reply = serve_request(store, message, shard_id, opts)
                response_channel.send(reply)
        except (EOFError, ConnectionError):
            pass  # the front door's end closed: nobody is left to answer
        finally:
            store.close()

"""The deployment shape: real ``spawn`` worker processes.

These tests prove the API-redesign claim end to end — a
:class:`~repro.storage.StoreConfig` crosses a genuine process boundary,
each worker rehydrates its masked shard view, and the union of shard
answers is bit-equal to the single-process engine.  Thread-mode
coverage lives in ``test_server.py``; this file keeps the query count
small because each worker pays a real interpreter start.
"""

import asyncio
import dataclasses
import multiprocessing
import os
import signal

import pytest

from repro.errors import DegradedReadError
from repro.serve import ShardServer
from repro.storage import FaultSpec
from repro.verify.oracle import canonical, datasets_identical


def test_spawn_workers_answer_bit_equal(config, queries, baseline):
    subset = queries[:6]

    async def go():
        async with ShardServer(config, n_shards=2,
                               worker_mode="process") as server:
            results = await server.execute(subset)
            stats = server.server_stats()
        return results, stats

    results, stats = asyncio.run(go())
    assert stats["queries_served"] == len(subset)
    for got, want in zip(results, baseline):
        assert not isinstance(got, BaseException), got
        assert datasets_identical(canonical(got), want)


def test_spawn_workers_report_metrics(config, queries):
    observed = dataclasses.replace(config, observability=True)

    async def go():
        async with ShardServer(observed, n_shards=2,
                               worker_mode="process") as server:
            await server.query(queries[0])
            return await server.metrics_snapshot()

    snap = asyncio.run(go())
    assert sorted(snap["shards"]) == [0, 1]
    # Each worker hydrated its own telemetry bundle; the counters it
    # published while scanning surface in the merged fleet view,
    # alongside the front door's own request accounting.
    merged_total = sum(c["value"] for c in snap["merged"]["counters"])
    shard_total = sum(c["value"]
                      for s in snap["shards"].values()
                      for c in s["counters"])
    frontdoor_total = sum(c["value"]
                          for c in snap["frontdoor"]["counters"])
    assert shard_total > 0
    assert merged_total == shard_total + frontdoor_total


def test_killed_worker_fails_fast_and_the_server_still_stops(
        config, queries, baseline):
    # Slow reads keep the first query in flight while one worker is
    # SIGKILLed: it and every later query must end in DegradedReadError
    # (never a hang), and stop() must still return.
    slow = dataclasses.replace(config, faults=FaultSpec(slow_seconds=0.3))
    query = next(q for q, want in zip(queries, baseline) if len(want))

    async def go():
        server = ShardServer(slow, n_shards=2, worker_mode="process")
        await server.start()
        try:
            before = set(multiprocessing.active_children())
            in_flight = asyncio.ensure_future(server.query(query))
            await asyncio.sleep(0.05)
            assert not in_flight.done()
            os.kill(before.pop().pid, signal.SIGKILL)
            with pytest.raises(DegradedReadError, match="shard"):
                await asyncio.wait_for(in_flight, 5.0)
            with pytest.raises(DegradedReadError, match="shard"):
                await asyncio.wait_for(server.query(queries[0]), 5.0)
        finally:
            await asyncio.wait_for(server.stop(), 30.0)

    asyncio.run(go())

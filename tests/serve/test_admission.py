"""Admission control, tenant quotas and the query batcher in isolation."""

import asyncio

import pytest

from repro.errors import OverloadError, QuotaExceededError
from repro.serve import AdmissionController, Batcher, QuotaConfig, TenantQuotas


class TestAdmissionController:
    def test_admits_up_to_limit_then_sheds(self):
        gate = AdmissionController(max_inflight=2)
        gate.acquire()
        gate.acquire()
        with pytest.raises(OverloadError) as exc_info:
            gate.acquire()
        assert exc_info.value.inflight == 2
        assert exc_info.value.limit == 2
        assert gate.admitted == 2
        assert gate.shed == 1

    def test_release_reopens_a_slot(self):
        gate = AdmissionController(max_inflight=1)
        gate.acquire()
        gate.release()
        gate.acquire()
        assert gate.inflight == 1
        assert gate.shed == 0

    def test_release_without_acquire_rejected(self):
        gate = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError, match="release"):
            gate.release()

    def test_limit_validated(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(max_inflight=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTenantQuotas:
    def test_burst_then_rejection_with_retry_horizon(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=2.0, burst=3), clock=clock)
        for _ in range(3):
            quotas.check("acme")
        with pytest.raises(QuotaExceededError) as exc_info:
            quotas.check("acme")
        assert exc_info.value.tenant == "acme"
        # Empty bucket at rate 2/s: next token in 0.5s.
        assert exc_info.value.retry_after_seconds == pytest.approx(0.5)
        assert quotas.rejected == 1

    def test_tokens_refill_with_time(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=2.0, burst=2), clock=clock)
        quotas.check("acme")
        quotas.check("acme")
        clock.now = 0.5  # one token back
        quotas.check("acme")
        with pytest.raises(QuotaExceededError):
            quotas.check("acme")

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=100.0, burst=2), clock=clock)
        quotas.check("acme")
        clock.now = 1000.0
        quotas.check("acme")
        quotas.check("acme")
        with pytest.raises(QuotaExceededError):
            quotas.check("acme")

    def test_tenants_have_independent_buckets(self):
        quotas = TenantQuotas(QuotaConfig(rate=1.0, burst=1),
                              clock=FakeClock())
        quotas.check("a")
        quotas.check("b")  # b's bucket untouched by a's spend
        with pytest.raises(QuotaExceededError):
            quotas.check("a")

    def test_overrides_win_over_default(self):
        clock = FakeClock()
        quotas = TenantQuotas(
            QuotaConfig(rate=1.0, burst=1),
            overrides={"vip": QuotaConfig(rate=1.0, burst=5)},
            clock=clock)
        for _ in range(5):
            quotas.check("vip")
        with pytest.raises(QuotaExceededError):
            quotas.check("vip")
        assert quotas.config_for("vip").burst == 5
        assert quotas.config_for("anyone").burst == 1

    def test_config_validated(self):
        with pytest.raises(ValueError, match="rate"):
            QuotaConfig(rate=0.0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            QuotaConfig(rate=1.0, burst=0)


def _run_bounded(coro, seconds: float = 5.0):
    """Run ``coro``, failing instead of hanging if batches never form."""
    return asyncio.run(asyncio.wait_for(coro, seconds))


async def _spin(iterations: int = 10) -> None:
    """Let the loop run a few iterations without advancing any timer."""
    for _ in range(iterations):
        await asyncio.sleep(0)


def _echo_flush(batches, gate=None):
    """A flush callback recording each batch; the first batch waits on
    ``gate`` (an ``asyncio.Event``) when one is given."""
    async def flush(batch):
        batches.append([query for query, _ in batch])
        if gate is not None and len(batches) == 1:
            await gate.wait()
        for query, future in batch:
            future.set_result(query)
    return flush


class TestNaturalBatching:
    """The default ``window_seconds=0``: no timer, batches form from
    what arrives within one loop iteration or during a flush."""

    def test_lone_submit_flushes_without_a_timer(self):
        async def go():
            batcher = Batcher(_echo_flush([]))
            submit = asyncio.ensure_future(batcher.submit("lone"))
            await _spin()
            return submit.done() and submit.result()

        assert asyncio.run(go()) == "lone"

    def test_same_iteration_submits_share_one_flush(self):
        batches = []

        async def go():
            batcher = Batcher(_echo_flush(batches))
            return await asyncio.gather(*(batcher.submit(i)
                                          for i in range(5)))

        assert asyncio.run(go()) == [0, 1, 2, 3, 4]
        assert batches == [[0, 1, 2, 3, 4]]

    def test_submits_during_a_flush_are_held_then_batched(self):
        batches = []

        async def go():
            gate = asyncio.Event()
            batcher = Batcher(_echo_flush(batches, gate))
            first = asyncio.ensure_future(batcher.submit("a"))
            later = []
            for query in "bcd":
                await _spin()
                later.append(asyncio.ensure_future(batcher.submit(query)))
            await _spin()
            held = [list(b) for b in batches]
            gate.set()
            return held, await asyncio.gather(first, *later)

        held, results = _run_bounded(go())
        assert held == [["a"]]
        assert results == ["a", "b", "c", "d"]
        assert batches == [["a"], ["b", "c", "d"]]

    def test_max_batch_flushes_even_while_a_flush_is_in_flight(self):
        batches = []

        async def go():
            gate = asyncio.Event()
            batcher = Batcher(_echo_flush(batches, gate), max_batch=2)
            first = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            full = await asyncio.gather(batcher.submit("b"),
                                        batcher.submit("c"))
            gate.set()
            return full, await first

        full, first = _run_bounded(go())
        assert full == ["b", "c"]
        assert first == "a"
        assert batches == [["a"], ["b", "c"]]


class TestBatcher:
    def test_max_batch_flushes_immediately(self):
        batches = []

        async def flush(batch):
            batches.append(len(batch))
            for query, future in batch:
                future.set_result(query * 10)

        async def go():
            batcher = Batcher(flush, window_seconds=60.0, max_batch=3)
            results = await asyncio.gather(*(batcher.submit(i)
                                             for i in range(3)))
            await batcher.drain()
            return results, batcher

        results, batcher = asyncio.run(go())
        assert results == [0, 10, 20]
        assert batches == [3]
        assert batcher.batches_flushed == 1
        assert batcher.queries_batched == 3

    def test_window_flushes_a_partial_batch(self):
        async def flush(batch):
            for query, future in batch:
                future.set_result(query)

        async def go():
            batcher = Batcher(flush, window_seconds=0.005, max_batch=100)
            return await batcher.submit("lone")

        assert asyncio.run(go()) == "lone"

    def test_crashed_flush_propagates_to_submitters(self):
        async def flush(batch):
            raise RuntimeError("shard fell over")

        async def go():
            batcher = Batcher(flush, window_seconds=0.001, max_batch=100)
            with pytest.raises(RuntimeError, match="shard fell over"):
                await batcher.submit("q")

        asyncio.run(go())

    def test_drain_flushes_pending_before_window(self):
        async def flush(batch):
            for query, future in batch:
                future.set_result(query)

        async def go():
            batcher = Batcher(flush, window_seconds=60.0, max_batch=100)
            submit = asyncio.ensure_future(batcher.submit("q"))
            await asyncio.sleep(0)  # let submit enqueue
            await batcher.drain()
            return await submit

        assert asyncio.run(go()) == "q"

    def test_parameters_validated(self):
        async def flush(batch):
            pass

        with pytest.raises(ValueError, match="window"):
            Batcher(flush, window_seconds=-0.1)
        with pytest.raises(ValueError, match="max_batch"):
            Batcher(flush, max_batch=0)

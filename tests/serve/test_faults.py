"""Fault injection against the solve service.

Each test breaks one thing — a client, a deadline, the admission queue,
a cache entry — and checks two properties: the failure is reported
through its typed channel, and the rest of the service is untouched
(surviving rows stay bit-exact, the metrics ledger stays conserved).
"""

import asyncio

import numpy as np
import pytest

from repro.csp.config import CSPConfig
from repro.csp.scenarios import make_instance
from repro.csp.solver import CSPSolveResult, SpikingCSPSolver
from repro.runtime.cache import RunResultCache, derive_cache_key
from repro.serve import (
    LoadShedError,
    ServeStatus,
    ServiceClosedError,
    SolveService,
)

CHECK_INTERVAL = 10


def _instance(seed, num_vertices=9):
    return make_instance("coloring", seed=seed, num_vertices=num_vertices, num_colors=3)


def _assert_ledger(metrics):
    assert metrics.served + metrics.cancelled + metrics.shed + metrics.in_flight == (
        metrics.submitted
    )


def test_cancellation_frees_slot_without_perturbing_survivors():
    """Cancelling one client mid-solve drops its row via ``retain``; the
    surviving row's trajectory — noise stream, step count, spikes — is
    bit-identical to a standalone run."""

    async def main():
        victim = _instance(901)
        survivor = _instance(6)
        service = SolveService(capacity=2, check_interval=CHECK_INTERVAL, seed=1, clock="steps")
        async with service:
            victim_task = asyncio.ensure_future(
                service.submit(*victim, client="victim", max_steps=100_000)
            )
            survivor_task = asyncio.ensure_future(
                service.submit(*survivor, client="survivor", max_steps=800)
            )
            await service.wait_for_step(service.step + 12)
            assert not victim_task.done()
            victim_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await victim_task
            served = await survivor_task
            # The victim's slot really is released, not just orphaned.
            await service.wait_for_step(service.step + CHECK_INTERVAL + 1)
            assert service.metrics().running == 0
            await service.stop(drain=True)
        return survivor, served, service.metrics()

    (graph, clamps), served, metrics = asyncio.run(main())
    offline = SpikingCSPSolver(graph, CSPConfig(), seed=served.seed).solve(
        clamps, max_steps=800, check_interval=CHECK_INTERVAL
    )
    assert offline.solved == served.result.solved
    assert offline.steps == served.result.steps
    assert offline.total_spikes == served.result.total_spikes
    np.testing.assert_array_equal(offline.values, served.result.values)
    assert metrics.cancelled == 1
    _assert_ledger(metrics)


def test_deadline_expiry_returns_typed_timeout():
    async def main():
        service = SolveService(capacity=1, check_interval=CHECK_INTERVAL, seed=1, clock="steps")
        async with service:
            hard = _instance(901)
            blocker = asyncio.ensure_future(
                service.submit(*hard, client="blocker", max_steps=100_000)
            )
            # Queued behind the blocker with a deadline it cannot make
            # ("steps" clock: step_seconds=1e-3, so 0.005 = 5 steps).
            expired = await service.submit(
                *_instance(7), client="late", deadline=0.005, max_steps=800
            )
            blocker.cancel()
            with pytest.raises(asyncio.CancelledError):
                await blocker
            await service.stop(drain=True)
        return expired, service.metrics()

    expired, metrics = asyncio.run(main())
    assert expired.status is ServeStatus.TIMEOUT
    assert not expired.solved
    assert expired.result is None
    assert metrics.timeouts == 1
    _assert_ledger(metrics)


def test_running_deadline_expires_at_checkpoint():
    # A near-threshold instance (the hard-pool parameters from
    # benchmarks/bench_csp_solver.py) needs hundreds of steps, so it
    # cannot finish before the ~35-step deadline.
    hard = make_instance(
        "coloring", seed=901, num_vertices=40, num_colors=4, edge_probability=0.45
    )

    async def main():
        service = SolveService(capacity=1, check_interval=CHECK_INTERVAL, seed=1, clock="steps")
        async with service:
            result = await service.submit(
                *hard, client="slow", max_steps=100_000, deadline=0.035
            )
            await service.stop(drain=True)
        return result, service.metrics()

    result, metrics = asyncio.run(main())
    assert result.status is ServeStatus.TIMEOUT
    # Expired at the first decode checkpoint on or after the deadline,
    # and the dead row was retired from the batch.
    assert 30 <= result.steps_in_service <= 40
    assert metrics.running == 0
    _assert_ledger(metrics)


def test_admission_beyond_capacity_sheds_with_typed_error():
    async def main():
        service = SolveService(
            capacity=1, queue_limit=1, check_interval=CHECK_INTERVAL, seed=1, clock="steps"
        )
        async with service:
            blocker = asyncio.ensure_future(
                service.submit(*_instance(901), client="a", max_steps=100_000)
            )
            await service.wait_for_step(1)
            queued = asyncio.ensure_future(
                service.submit(*_instance(902), client="b", max_steps=100_000)
            )
            await asyncio.sleep(0)
            with pytest.raises(LoadShedError) as excinfo:
                await service.submit(*_instance(903), client="c", max_steps=800)
            for task in (blocker, queued):
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            await service.stop(drain=True)
        return excinfo.value, service.metrics()

    error, metrics = asyncio.run(main())
    assert error.client == "c"
    assert error.queue_limit == 1
    assert error.queue_depth == 1
    assert metrics.shed == 1
    _assert_ledger(metrics)


def test_corrupted_cache_entry_is_a_miss(tmp_path):
    """A truncated pickle behind a service cache key must be re-solved,
    not surfaced as an exception or a wrong answer."""

    def serve_once(cache):
        async def main():
            async with SolveService(
                capacity=1,
                check_interval=CHECK_INTERVAL,
                seed=2,
                clock="steps",
                cache=cache,
            ) as service:
                return await service.submit(*_instance(11), max_steps=800)

        return asyncio.run(main())

    cache = RunResultCache(tmp_path)
    first = serve_once(cache)
    # On disk the entry sits under the identity bound to the code.
    path = cache._path(derive_cache_key("serve", first.key))
    assert path.exists()

    # Truncate mid-pickle: unpicklable garbage.
    path.write_bytes(path.read_bytes()[:7])
    resolved = serve_once(RunResultCache(tmp_path))
    assert not resolved.from_cache  # miss: re-solved from scratch
    assert resolved.result.steps == first.result.steps
    assert not path.exists() or path.read_bytes() != b""  # garbage unlinked

    # Entry of the wrong type: equally a miss (``expect`` guard).
    RunResultCache(tmp_path).put(derive_cache_key("serve", first.key), {"not": "a result"})
    resolved = serve_once(RunResultCache(tmp_path))
    assert not resolved.from_cache
    assert resolved.result.steps == first.result.steps

    # Intact entry: a hit, bit-identical payload.
    hit = serve_once(RunResultCache(tmp_path))
    assert hit.from_cache
    assert isinstance(hit.result, CSPSolveResult)
    assert hit.result.steps == first.result.steps
    np.testing.assert_array_equal(hit.result.values, first.result.values)


def test_cache_get_expect_guard_direct(tmp_path):
    cache = RunResultCache(tmp_path)
    key = "ab" + "0" * 62
    cache.put(key, {"foreign": True})
    assert cache.get(key, expect=CSPSolveResult) is None
    assert not cache._path(key).exists()  # wrong-type entry evicted
    cache.put(key, {"foreign": True})
    assert cache.get(key) == {"foreign": True}  # untyped reads still work


def test_closed_service_rejects_submissions():
    async def main():
        service = SolveService(capacity=1, clock="steps")
        async with service:
            await service.submit(*_instance(3), max_steps=0)
        with pytest.raises(ServiceClosedError):
            await service.submit(*_instance(3), max_steps=800)

    asyncio.run(main())


def test_abort_stop_resolves_outstanding_as_cancelled():
    async def main():
        service = SolveService(capacity=1, check_interval=CHECK_INTERVAL, clock="steps")
        running = None
        async with service:
            running = asyncio.ensure_future(service.submit(*_instance(901), max_steps=100_000))
            await service.wait_for_step(5)
            await service.stop(drain=False)
            result = await running
        return result, service.metrics()

    result, metrics = asyncio.run(main())
    assert result.status is ServeStatus.CANCELLED
    assert result.result is None
    assert metrics.running == 0
    _assert_ledger(metrics)

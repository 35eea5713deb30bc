"""Metrics accounting: conservation laws and deterministic percentiles."""

import asyncio

import pytest

from repro.serve import (
    LoadShedError,
    MetricsRecorder,
    OpenLoopLoad,
    SolveService,
    nearest_rank_percentile,
    run_open_loop,
    run_open_loop_sync,
)


# --------------------------------------------------------------------- #
# nearest-rank percentile
# --------------------------------------------------------------------- #
def test_percentile_empty_sample_is_zero():
    assert nearest_rank_percentile([], 0.5) == 0.0


def test_percentile_is_always_a_sample_point():
    values = [3.0, 1.0, 4.0, 1.0, 5.0]
    for fraction in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        assert nearest_rank_percentile(values, fraction) in values


def test_percentile_nearest_rank_definition():
    values = [10, 20, 30, 40]
    assert nearest_rank_percentile(values, 0.0) == 10
    assert nearest_rank_percentile(values, 0.25) == 10
    assert nearest_rank_percentile(values, 0.5) == 20  # exact multiple: rank 2
    assert nearest_rank_percentile(values, 0.51) == 30
    assert nearest_rank_percentile(values, 1.0) == 40


def test_percentile_rejects_out_of_range_fractions():
    with pytest.raises(ValueError):
        nearest_rank_percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        nearest_rank_percentile([1.0], -0.1)


def test_recorder_rejects_unknown_status():
    with pytest.raises(ValueError):
        MetricsRecorder().record_served("exploded", 0.0, 0)


# --------------------------------------------------------------------- #
# ledger conservation under a concurrent workload
# --------------------------------------------------------------------- #
SPEC = OpenLoopLoad(
    num_clients=4,
    requests_per_client=5,
    mean_interarrival_steps=15.0,
    scenario="coloring",
    scenario_params={"num_vertices": 9, "num_colors": 3},
    unique_instances=6,
    seed=33,
    max_steps=800,
)


def test_ledger_conservation_with_shed_and_cancellations():
    """``served + shed + cancelled + in_flight == submitted`` holds with
    every admission outcome present in the mix."""

    async def main():
        service = SolveService(
            capacity=2,
            queue_limit=2,
            check_interval=10,
            default_max_steps=800,
            seed=33,
            clock="steps",
        )
        shed = 0
        async with service:
            load = asyncio.ensure_future(run_open_loop(service, SPEC))
            # A client that gives up mid-solve.
            from repro.csp.scenarios import make_instance

            hard = make_instance("coloring", seed=901, num_vertices=9, num_colors=3)
            quitter = asyncio.ensure_future(
                service.submit(*hard, client="quitter", max_steps=100_000)
            )
            await service.wait_for_step(40)
            quitter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await quitter
            rows = await load
            shed = sum(1 for _, _, result in rows if result is None)
            await service.stop(drain=True)
        return shed, service.metrics()

    shed_rows, metrics = asyncio.run(main())
    assert metrics.served + metrics.shed + metrics.cancelled + metrics.in_flight == (
        metrics.submitted
    )
    assert metrics.served == metrics.solved + metrics.unsolved + metrics.timeouts
    assert metrics.admitted == metrics.submitted - metrics.shed
    assert metrics.cancelled == 1
    assert metrics.shed == shed_rows
    assert metrics.in_flight == 0  # drained
    assert metrics.queue_depth == 0 and metrics.running == 0
    assert 0.0 < metrics.occupancy <= 1.0


def test_load_shed_error_counts_in_ledger():
    async def main():
        async with SolveService(
            capacity=1, queue_limit=1, check_interval=10, seed=1, clock="steps"
        ) as service:
            from repro.csp.scenarios import make_instance

            hard = make_instance("coloring", seed=901, num_vertices=9, num_colors=3)
            blocker = asyncio.ensure_future(service.submit(*hard, client="a", max_steps=100_000))
            await service.wait_for_step(1)
            queued = asyncio.ensure_future(
                service.submit(*hard, client="b", seed=1, max_steps=100_000)
            )
            await asyncio.sleep(0)
            with pytest.raises(LoadShedError):
                await service.submit(*hard, client="c", seed=2, max_steps=100_000)
            snapshot = service.metrics()
            for task in (blocker, queued):
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
        return snapshot

    snapshot = asyncio.run(main())
    assert snapshot.submitted == 3
    assert snapshot.shed == 1
    assert snapshot.in_flight == 2  # blocker running + queued
    assert snapshot.served == 0


# --------------------------------------------------------------------- #
# deterministic latency percentiles (fake clock)
# --------------------------------------------------------------------- #
def test_latency_percentiles_deterministic_across_runs():
    def run():
        _, metrics, _ = run_open_loop_sync(
            SPEC,
            capacity=3,
            check_interval=10,
            default_max_steps=800,
            seed=33,
            clock="steps",
        )
        return metrics

    first, second = run(), run()
    assert first.latency_steps_p50 == second.latency_steps_p50
    assert first.latency_steps_p99 == second.latency_steps_p99
    assert first.latency_p50 == second.latency_p50
    assert first.latency_p99 == second.latency_p99
    assert first.elapsed == second.elapsed
    assert first.total_steps == second.total_steps
    # With the step clock, clock latencies are step latencies scaled.
    assert first.latency_p99 == pytest.approx(first.latency_steps_p99 * 1e-3)
    assert first.latency_steps_p50 <= first.latency_steps_p99
    assert first.latency_steps_p99 > 0


def test_cache_hits_and_coalescing_reported():
    async def main():
        from repro.csp.scenarios import make_instance

        instance = make_instance("coloring", seed=12, num_vertices=9, num_colors=3)
        async with SolveService(
            capacity=2, check_interval=10, seed=5, clock="steps"
        ) as service:
            first = await service.submit(*instance, max_steps=800)
            repeat = await service.submit(*instance, max_steps=800)
            both = await asyncio.gather(
                service.submit(*instance, seed=77, max_steps=100_000, client="x"),
                service.submit(*instance, seed=77, max_steps=100_000, client="y"),
            )
            snapshot = service.metrics()
        return first, repeat, both, snapshot

    first, repeat, (a, b), snapshot = asyncio.run(main())
    assert not first.from_cache and repeat.from_cache
    assert repeat.result.steps == first.result.steps
    # Identical concurrent requests shared one batch row.
    assert a.coalesced != b.coalesced  # exactly one joined the other
    assert a.result.steps == b.result.steps
    assert snapshot.cache_hits == 1
    assert snapshot.coalesced == 1
    assert snapshot.served == 4

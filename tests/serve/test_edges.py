"""Edge-case guards around batch recomposition and service admission."""

import asyncio

import numpy as np
import pytest

from repro.csp.config import CSPConfig
from repro.csp.scenarios import make_instance
from repro.csp.solver import SpikingCSPSolver, _empty_result
from repro.runtime.batch import BatchedNetwork, BatchIncompatibleError
from repro.serve import (
    IncompatibleInstanceError,
    InvalidRequestError,
    ServeStatus,
    ServeSupervisor,
    SolveService,
)


def _instance(seed, num_vertices=9):
    return make_instance("coloring", seed=seed, num_vertices=num_vertices, num_colors=3)


def _networks(count, *, base_seed=0):
    config = CSPConfig()
    nets = []
    for i in range(count):
        graph, clamps = _instance(30 + i)
        solver = SpikingCSPSolver(graph, config, seed=base_seed + i)
        nets.append(solver.build_network(clamps))
    return nets


def _batch(count):
    return BatchedNetwork.from_networks(_networks(count), synapse_mode="exact")


def test_extend_with_zero_new_rows_is_a_noop():
    reference = _batch(3)
    extended = _batch(3)
    extended.extend([])
    assert extended.batch_size == 3
    for step in range(1, 31):
        np.testing.assert_array_equal(reference.step(step), extended.step(step))


def test_retain_empty_selection_raises_and_leaves_batch_usable():
    batch = _batch(2)
    reference = _batch(2)
    for step in range(1, 11):
        batch.step(step)
        reference.step(step)
    with pytest.raises(BatchIncompatibleError, match="empty"):
        batch.retain([])
    # The refused retain must not have corrupted any state.
    for step in range(11, 21):
        np.testing.assert_array_equal(reference.step(step), batch.step(step))


def test_retain_full_selection_is_a_noop():
    batch = _batch(3)
    reference = _batch(3)
    for step in range(1, 11):
        batch.step(step)
        reference.step(step)
    batch.retain([0, 1, 2])
    assert batch.batch_size == 3
    for step in range(11, 21):
        np.testing.assert_array_equal(reference.step(step), batch.step(step))


def test_submit_many_empty_returns_empty():
    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            results = await service.submit_many([])
            metrics = service.metrics()
        return results, metrics

    results, metrics = asyncio.run(main())
    assert results == []
    assert metrics.submitted == 0
    assert metrics.total_steps == 0  # nothing ever entered the batch


@pytest.mark.parametrize(
    "seeds",
    [
        pytest.param([1.5], id="fractional-seed"),
        pytest.param(["7"], id="string-seed"),
        pytest.param([1, 2], id="wrong-length"),
    ],
)
def test_submit_many_checks_every_seed_like_submit(seeds):
    graph, clamps = _instance(7)

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            with pytest.raises(InvalidRequestError):
                await asyncio.wait_for(
                    service.submit_many([(graph, clamps)], seeds=seeds, max_steps=600), 5.0
                )
            return service.metrics()

    assert asyncio.run(main()).submitted == 0


def test_submit_many_serves_an_integer_like_seed_under_its_value():
    graph, clamps = _instance(7)

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            return await service.submit_many([(graph, clamps)], seeds=[np.int64(5)], max_steps=600)

    [served] = asyncio.run(main())
    assert served.seed == 5 and served.result is not None


def test_zero_step_budget_served_immediately():
    """``max_steps <= 0`` mirrors the batch engines' guard: the zero-step
    decode (clamps only), served without touching the batch."""
    graph, clamps = _instance(4)

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            zero = await service.submit(graph, clamps, max_steps=0)
            negative = await service.submit(graph, clamps, max_steps=-5)
            metrics = service.metrics()
        return zero, negative, metrics

    zero, negative, metrics = asyncio.run(main())
    offline = _empty_result(graph, graph.resolve_clamps(clamps))
    for served in (zero, negative):
        assert served.status is ServeStatus.UNSOLVED
        assert served.result.steps == offline.steps == 0
        np.testing.assert_array_equal(served.result.values, offline.values)
        np.testing.assert_array_equal(served.result.decided, offline.decided)
    assert metrics.total_steps == 0
    assert metrics.served == 2
    assert metrics.in_flight == 0


def test_mismatched_neuron_count_is_a_typed_rejection():
    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            small = _instance(5, num_vertices=6)
            large = _instance(5, num_vertices=12)
            await service.submit(*small, max_steps=600)
            with pytest.raises(IncompatibleInstanceError):
                await service.submit(*large, max_steps=600)
            metrics = service.metrics()
        return metrics

    metrics = asyncio.run(main())
    # The rejected instance never entered the ledger.
    assert metrics.submitted == 1
    assert metrics.served == 1


def test_inconsistent_clamps_rejected_at_submit():
    graph, _ = _instance(6)
    # Clamp both endpoints of an explicit conflict edge to the values
    # the edge forbids (adjacent vertices, same colour).
    pre, post = next((a, b) for a, targets in enumerate(graph._explicit) for b in targets)
    clamps = {}
    for neuron in (pre, post):
        vi = int(graph._neuron_var[neuron])
        variable = graph.variables[vi]
        clamps[variable.name] = int(variable.domain[neuron - int(graph.offsets[vi])])

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            with pytest.raises(ValueError, match="clamps"):
                await service.submit(graph, clamps, max_steps=600)

    asyncio.run(main())


def _out_of_domain(graph):
    variable = graph.variables[0]
    return {"clamps": {variable.name: max(int(v) for v in variable.domain) + 1}}


def _conflicting_values(graph):
    variable = graph.variables[0]
    return {"clamps": [(variable.name, int(v)) for v in variable.domain[:2]]}


@pytest.mark.parametrize(
    "malformed",
    [
        pytest.param(lambda graph: {"max_steps": float("nan")}, id="nan-budget"),
        pytest.param(lambda graph: {"max_steps": float("inf")}, id="inf-budget"),
        pytest.param(lambda graph: {"max_steps": 2.5}, id="fractional-budget"),
        pytest.param(lambda graph: {"deadline": float("nan")}, id="nan-deadline"),
        pytest.param(lambda graph: {"clamps": {"no-such-variable": 0}}, id="unknown-variable"),
        pytest.param(_out_of_domain, id="out-of-domain-value"),
        pytest.param(_conflicting_values, id="conflicting-values"),
        pytest.param(lambda graph: {"seed": -1}, id="negative-seed"),
        pytest.param(lambda graph: {"seed": "abc"}, id="string-seed"),
        pytest.param(lambda graph: {"seed": 1.5}, id="fractional-seed"),
        pytest.param(lambda graph: {"client": ["a"]}, id="unhashable-client"),
        pytest.param(lambda graph: {"deadline": "5"}, id="string-deadline"),
        pytest.param(lambda graph: {"graph": None}, id="non-graph"),
    ],
)
def test_malformed_request_is_a_typed_rejection(malformed):
    graph, clamps = _instance(7)
    request = {"graph": graph, "clamps": clamps, "max_steps": 600, **malformed(graph)}

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            with pytest.raises(InvalidRequestError):
                # A booked malformed request may never return: bound the wait.
                await asyncio.wait_for(service.submit(**request), timeout=5.0)
            return service.metrics()

    # Rejected before the ledger booked anything.
    assert asyncio.run(main()).submitted == 0


def test_malformed_seed_does_not_stall_a_valid_request():
    graph, clamps = _instance(7)

    async def main():
        async with SolveService(capacity=2, clock="steps") as service:
            return await asyncio.gather(
                asyncio.wait_for(service.submit(graph, clamps, seed=-1, max_steps=600), 5.0),
                asyncio.wait_for(service.submit(graph, clamps, seed=3, max_steps=600), 5.0),
                return_exceptions=True,
            )

    bad, good = asyncio.run(main())
    assert isinstance(bad, InvalidRequestError)
    assert not isinstance(good, BaseException), good
    assert good.result is not None and good.seed == 3


@pytest.mark.parametrize(
    "unpicklable",
    [
        pytest.param(lambda clamps: {"clamps": (item for item in clamps.items())}, id="generator"),
        pytest.param(lambda clamps: {"clamps": clamps, "client": lambda: "x"}, id="lambda-client"),
    ],
)
def test_unpicklable_supervisor_request_is_a_typed_rejection(unpicklable):
    graph, clamps = _instance(7)
    supervisor = ServeSupervisor(service_kwargs={"capacity": 2})
    with pytest.raises(InvalidRequestError):
        supervisor.submit(graph, **unpicklable(clamps), timeout=5.0)
    # Rejected before booking and before any child was spawned.
    assert supervisor.child_pid is None
    assert not supervisor._pending and not supervisor._events

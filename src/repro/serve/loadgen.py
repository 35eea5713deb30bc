"""Synthetic open-loop load for the continuous-batching solve service.

An *open-loop* generator decides arrival times in advance (a Poisson
process per client over the scheduler's step clock) and submits each
request at its scheduled step whether or not earlier requests have
completed — the load model under which continuous batching earns its
keep, since a closed loop would never queue deeper than its client
count.  Arrival schedules are derived from the spec seed alone, and the
service's :meth:`~repro.serve.service.SolveService.wait_for_step` clock
makes them reproducible: the same spec against the same service
parameters yields the same admissions, the same shed set and the same
per-request results.

Client-side resilience: with a ``retry_budget``, a request shed with
:class:`~repro.serve.service.LoadShedError` backs off exponentially with
deterministic seeded jitter (in scheduler steps, so retried runs stay
reproducible) and resubmits, up to the budget or the per-request retry
deadline.  Retry counts are surfaced through the ``stats`` mapping.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..csp.graph import ConstraintGraph
from ..csp.scenarios import make_instance
from ..runtime.sweep import derive_task_seed
from .service import LoadShedError, ServeResult, SolveService

__all__ = ["OpenLoopLoad", "build_instance_pool", "run_open_loop", "run_open_loop_sync"]

#: Mixed into the spec seed for the retry-jitter streams, so backoff
#: jitter never correlates with arrival schedules or instance picks.
_RETRY_SEED_SALT = 0x52455452  # "RETR"


@dataclass(frozen=True)
class OpenLoopLoad:
    """A seeded open-loop workload against one :class:`SolveService`.

    ``unique_instances`` bounds the instance pool: with fewer unique
    instances than total requests, repeats exercise the dedup layer
    (in-flight coalescing plus the result memo/cache).  Inter-arrival
    gaps are exponential with mean ``mean_interarrival_steps`` in
    scheduler steps, quantised to whole steps.

    ``retry_budget`` resubmissions are attempted after a load shed,
    spaced ``min(retry_cap_steps, retry_base_steps * 2**attempt)``
    scheduler steps apart with seeded jitter in ``[0.5, 1.5)``; a retry
    is abandoned once ``retry_deadline_steps`` steps have passed since
    the request's scheduled arrival (mirroring the service-side request
    ``deadline``, which is enforced in clock units).
    """

    num_clients: int = 4
    requests_per_client: int = 8
    mean_interarrival_steps: float = 40.0
    scenario: str = "coloring"
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    unique_instances: int = 16
    seed: int = 0
    max_steps: int = 1500
    deadline: Optional[float] = None
    #: Resubmissions allowed per request after a load shed (0 = off).
    retry_budget: int = 0
    retry_base_steps: float = 8.0
    retry_cap_steps: float = 128.0
    #: Give up retrying once this many steps have passed since arrival.
    retry_deadline_steps: Optional[float] = None

    @property
    def total_requests(self) -> int:
        return self.num_clients * self.requests_per_client


def build_instance_pool(spec: OpenLoopLoad) -> List[Tuple[ConstraintGraph, Dict[str, int]]]:
    """The spec's deterministic pool of distinct instances."""
    return [
        # reprolint: disable-next-line=RL002 -- instance-identity seeds; pool is the replay key
        make_instance(spec.scenario, seed=spec.seed + i, **dict(spec.scenario_params))
        for i in range(max(1, spec.unique_instances))
    ]


def arrival_schedule(spec: OpenLoopLoad, client: int) -> List[Tuple[int, int]]:
    """One client's ``(arrival_step, pool_index)`` schedule, seed-derived."""
    rng = np.random.default_rng(derive_task_seed(spec.seed, client))
    gaps = rng.exponential(spec.mean_interarrival_steps, size=spec.requests_per_client)
    arrivals = np.maximum(1, np.ceil(np.cumsum(gaps))).astype(np.int64)
    pool = max(1, spec.unique_instances)
    picks = rng.integers(0, pool, size=spec.requests_per_client)
    return [(int(step), int(pick)) for step, pick in zip(arrivals, picks)]


def new_load_stats() -> Dict[str, int]:
    """A zeroed client-side resilience ledger (see :func:`run_open_loop`)."""
    return {"retries": 0, "shed": 0, "recovered_by_retry": 0}


async def run_open_loop(
    service: SolveService,
    spec: OpenLoopLoad,
    *,
    stats: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, int, Optional[ServeResult]]]:
    """Drive ``spec`` against a running service.

    Returns one ``(client, pool_index, result)`` row per request in a
    deterministic order (by client, then by that client's schedule);
    requests shed past the retry budget carry ``None``.  ``stats``
    (optionally a caller-provided dict, updated in place) collects the
    client-side ledger: ``retries`` (resubmissions sent), ``shed``
    (requests that ultimately gave up) and ``recovered_by_retry``
    (requests that succeeded on a resubmission).
    """
    pool = build_instance_pool(spec)
    ledger = stats if stats is not None else new_load_stats()
    for key in new_load_stats():
        ledger.setdefault(key, 0)

    async def one_request(ordinal: int, client: int, arrival: int, pick: int
                          ) -> Optional[ServeResult]:
        await service.wait_for_step(arrival)
        graph, clamps = pool[pick]
        jitter = np.random.default_rng(
            derive_task_seed(spec.seed ^ _RETRY_SEED_SALT, ordinal)
        )
        attempt = 0
        while True:
            try:
                result = await service.submit(
                    graph,
                    clamps,
                    client=f"client-{client}",
                    max_steps=spec.max_steps,
                    deadline=spec.deadline,
                )
                if attempt:
                    ledger["recovered_by_retry"] += 1
                return result
            except LoadShedError:
                if attempt >= spec.retry_budget:
                    ledger["shed"] += 1
                    return None
                backoff = min(
                    spec.retry_cap_steps, spec.retry_base_steps * (2.0**attempt)
                )
                delay = max(1, int(round(backoff * (0.5 + jitter.random()))))
                target = service.step + delay
                if (
                    spec.retry_deadline_steps is not None
                    and target - arrival > spec.retry_deadline_steps
                ):
                    ledger["shed"] += 1
                    return None
                attempt += 1
                ledger["retries"] += 1
                await service.wait_for_step(target)

    tasks: List[Tuple[int, int, "asyncio.Task[Optional[ServeResult]]"]] = []
    ordinal = 0
    for client in range(spec.num_clients):
        for arrival, pick in arrival_schedule(spec, client):
            tasks.append(
                (client, pick, asyncio.ensure_future(one_request(ordinal, client, arrival, pick)))
            )
            ordinal += 1
    results = await asyncio.gather(*(task for _, _, task in tasks))
    return [(client, pick, result) for (client, pick, _), result in zip(tasks, results)]


def run_open_loop_sync(
    spec: OpenLoopLoad, **service_kwargs: Any
) -> Tuple[List[Tuple[int, int, Optional[ServeResult]]], "Any", Dict[str, int]]:
    """Run ``spec`` on a fresh service; returns (rows, metrics, stats)."""

    async def _run():
        stats = new_load_stats()
        service = SolveService(**service_kwargs)
        async with service:
            rows = await run_open_loop(service, spec, stats=stats)
            await service.stop(drain=True)
            return rows, service.metrics(), stats

    return asyncio.run(_run())

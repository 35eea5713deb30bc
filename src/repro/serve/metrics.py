"""Serving metrics: request accounting, latency percentiles, occupancy.

The :class:`MetricsRecorder` is the single source of truth for the
:class:`~repro.serve.service.SolveService` request ledger.  Every
request moves through exactly one terminal state, so the counters obey
a conservation law the test suite pins down:

``served + cancelled + shed + in_flight == submitted``

where ``served`` covers every request that left the service with a
result (solved, unsolved or deadline timeout), ``cancelled`` counts
client-side cancellations, ``shed`` counts typed admission rejections
and ``in_flight`` is whatever is still queued or running.

Latencies are recorded twice per request: in *clock units* (whatever
clock the service was built with — wall time by default, a
deterministic step-derived clock in tests and benchmarks) and in
*scheduler steps* (global batch steps between submission and
completion).  The step-based percentiles are exactly reproducible for a
seeded workload, so CI can gate p99 latency without wall-clock
flakiness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence

__all__ = ["MetricsRecorder", "MetricsSnapshot", "nearest_rank_percentile"]


def nearest_rank_percentile(values: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile of ``values`` (0 for an empty sample).

    ``fraction`` is in ``[0, 1]``; the nearest-rank definition returns
    the smallest sample value with at least ``fraction`` of the sample
    at or below it — always an actual sample point, never an
    interpolation, so percentiles of integer step counts stay integers.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    # ceil(len * fraction), with a round() guard so exact multiples do
    # not drift up a rank through float error (0.5 of 4 must rank 2).
    rank = max(1, math.ceil(round(len(ordered) * fraction, 9)))
    return float(ordered[min(rank, len(ordered)) - 1])


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time view of the service ledger (plain numbers only)."""

    #: Requests presented to ``submit`` (before any admission decision).
    submitted: int
    #: Requests accepted into the service (``submitted - shed``).
    admitted: int
    #: Requests rejected with :class:`~repro.serve.service.LoadShedError`.
    shed: int
    #: Requests that left the service with a result (any status below).
    served: int
    solved: int
    unsolved: int
    timeouts: int
    #: Requests abandoned by their client before completion.
    cancelled: int
    #: Served straight from the result cache / in-memory memo.
    cache_hits: int
    #: Joined an identical in-flight request instead of a fresh slot.
    coalesced: int
    #: Requests currently queued (not yet in the batch).
    queue_depth: int
    #: Batch rows currently live.
    running: int
    #: Requests inside the service: ``admitted - served - cancelled``.
    in_flight: int
    #: Global scheduler steps advanced so far.
    total_steps: int
    #: Mean live rows per step over the run, as a fraction of capacity.
    occupancy: float
    #: Completed solves per clock second (cache hits excluded).
    solves_per_second: float
    #: Latency percentiles in clock units (submission to completion).
    latency_p50: float
    latency_p99: float
    #: Latency percentiles in scheduler steps (deterministic).
    latency_steps_p50: float
    latency_steps_p99: float
    #: Clock time elapsed since the service started.
    elapsed: float
    #: Engine checkpoints written (crash-safe snapshots of the batch).
    checkpoints: int = 0
    #: Successful state restores performed at startup (0 or 1).
    restores: int = 0
    #: Live batch rows resurrected from the restored checkpoint.
    restored_rows: int = 0
    #: Admissions re-enqueued from the write-ahead journal at startup.
    replayed: int = 0
    #: Snapshots that failed validation and were skipped during restore.
    checkpoint_failures: int = 0

    def as_dict(self) -> Mapping[str, float]:
        """The snapshot as a JSON-ready mapping (benchmark emission)."""
        return dict(self.__dict__)


class MetricsRecorder:
    """Mutable counters behind the service's :class:`MetricsSnapshot`."""

    def __init__(self) -> None:
        self.submitted = 0
        self.shed = 0
        self.solved = 0
        self.unsolved = 0
        self.timeouts = 0
        self.cancelled = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.total_steps = 0
        self.occupancy_rows = 0
        self.latencies: List[float] = []
        self.step_latencies: List[int] = []
        self.started_at: float = 0.0
        self.restores = 0
        self.restored_rows = 0
        self.replayed = 0
        self.checkpoint_failures = 0

    # ------------------------------------------------------------------ #
    # Event hooks (called by the service)
    # ------------------------------------------------------------------ #
    def record_submitted(self) -> None:
        self.submitted += 1

    def record_shed(self) -> None:
        self.shed += 1

    def record_cancelled(self) -> None:
        self.cancelled += 1

    def record_step(self, live_rows: int) -> None:
        self.total_steps += 1
        self.occupancy_rows += live_rows

    def record_served(self, status: str, latency: float, step_latency: int) -> None:
        """Book one terminally served request (any non-cancel status)."""
        if status == "solved":
            self.solved += 1
        elif status == "unsolved":
            self.unsolved += 1
        elif status == "timeout":
            self.timeouts += 1
        else:  # pragma: no cover - defensive; cancels use record_cancelled
            raise ValueError(f"unknown serve status {status!r}")
        self.latencies.append(float(latency))
        self.step_latencies.append(int(step_latency))

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    def record_restore(self, *, rows: int, replayed: int, failures: int) -> None:
        """Book one successful startup recovery."""
        self.restores += 1
        self.restored_rows += int(rows)
        self.replayed += int(replayed)
        self.checkpoint_failures += int(failures)

    def record_coalesced(self) -> None:
        self.coalesced += 1

    # ------------------------------------------------------------------ #
    @property
    def served(self) -> int:
        return self.solved + self.unsolved + self.timeouts

    def snapshot(
        self, *, queue_depth: int, running: int, capacity: int, now: float, checkpoints: int = 0
    ) -> MetricsSnapshot:
        admitted = self.submitted - self.shed
        elapsed = max(0.0, now - self.started_at)
        return MetricsSnapshot(
            submitted=self.submitted,
            admitted=admitted,
            shed=self.shed,
            served=self.served,
            solved=self.solved,
            unsolved=self.unsolved,
            timeouts=self.timeouts,
            cancelled=self.cancelled,
            cache_hits=self.cache_hits,
            coalesced=self.coalesced,
            queue_depth=queue_depth,
            running=running,
            in_flight=admitted - self.served - self.cancelled,
            total_steps=self.total_steps,
            occupancy=(
                self.occupancy_rows / (self.total_steps * capacity)
                if self.total_steps and capacity
                else 0.0
            ),
            solves_per_second=self.solved / elapsed if elapsed > 0 else 0.0,
            latency_p50=nearest_rank_percentile(self.latencies, 0.50),
            latency_p99=nearest_rank_percentile(self.latencies, 0.99),
            latency_steps_p50=nearest_rank_percentile(self.step_latencies, 0.50),
            latency_steps_p99=nearest_rank_percentile(self.step_latencies, 0.99),
            elapsed=elapsed,
            checkpoints=checkpoints,
            restores=self.restores,
            restored_rows=self.restored_rows,
            replayed=self.replayed,
            checkpoint_failures=self.checkpoint_failures,
        )

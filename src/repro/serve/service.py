"""Continuous-batching solve service over the exact-mode batched runtime.

:class:`SolveService` accepts CSP instances from many concurrent asyncio
clients and keeps them solving inside **one always-hot fused batch**:
admitted requests are stacked into a live
:class:`~repro.runtime.batch.BatchedNetwork` (integer CSR propagation,
compiled batched drives), and whenever a row finishes — solved, out of
its per-request step budget, past its deadline or abandoned by its
client — the freed slot is refilled from the admission queue through
``BatchedNetwork.retain`` / ``extend``, exactly the mechanics of
:func:`repro.csp.portfolio.solve_instances_portfolio`.

**Bit-exactness contract.**  Every served solve is bit-identical to the
standalone run ``SpikingCSPSolver(graph, config, seed=request_seed)
.solve(clamps, max_steps=budget, check_interval=check_interval)`` — and
therefore to the same request's row in an offline
:func:`repro.csp.solver.solve_instances` call with the same derived
seeds.  The service guarantees this the same way the portfolio engine
does: each row keeps a *local* step counter (``global step - admission
offset``) that drives its anneal phase (``step_offset`` stamped into
the row's :class:`~repro.runtime.drives.AnnealedNoiseSpec`), its
sliding-window decode slots and its recency bookkeeping, so neither the
arrival order, the interleaving with other clients, nor mid-run
retain/extend of neighbouring rows can perturb a request's trajectory.
The differential suite (``tests/serve/test_offline_equivalence.py``)
pins the contract.

**Scheduling.**  Admission is FIFO per client with round-robin
fairness across clients.  A bounded admission queue sheds load with a
typed :class:`LoadShedError` at submit time.  Deadlines (in clock
units) are enforced at admission and at decode checkpoints; expiry
yields a typed ``timeout`` result rather than an exception.  Client
cancellation (``asyncio`` task cancellation while awaiting ``submit``)
frees the request's batch slot at the next scheduler round without
touching surviving rows' streams.

**Dedup.**  Every request gets one content identity
(:func:`repro.runtime.cache.derive_identity`): a hash of the graph's
structural digest (:meth:`~repro.csp.graph.ConstraintGraph.cache_token`,
memoised on the graph), the resolved clamps, the budget and the seed,
plus the service's config, backend and check interval, tokenised once
at construction.  The identity does not depend on the code, so it is
stable across source edits.  It drives everything in-process: identical
in-flight requests coalesce onto one batch row, completed results are
memoised, admissions are journaled under it, and the default request
seed is derived from it — so a repeat instance maps to the same seed,
and the same answer, regardless of arrival order or code revision.
Only an attached :class:`~repro.runtime.cache.RunResultCache` uses a
code-bound key (:func:`~repro.runtime.cache.derive_cache_key` of the
identity), so a result on disk is only served by the code that wrote it.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import math
import operator
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from pathlib import Path

import numpy as np

from ..csp.config import CSPConfig
from ..csp.graph import ClampsLike, ConstraintGraph
from ..csp.solver import (
    CSP_SLOT_DECODER,
    CSPSolveResult,
    SpikingCSPSolver,
    _empty_result,
    _solve_result,
)
from ..runtime.batch import BatchRow
from ..runtime.cache import RunResultCache, derive_cache_key, derive_identity
from ..runtime.checkpoint import CheckpointStore, FaultPlan
from ..runtime.slots import SlotAdmission, SlotCheckpoint, SlotDecision, SlotEngine, SlotRow
from .metrics import MetricsRecorder, MetricsSnapshot

__all__ = [
    "IncompatibleInstanceError",
    "InvalidRequestError",
    "LoadShedError",
    "ServePolicy",
    "ServeResult",
    "ServeStatus",
    "ServiceClosedError",
    "SolveService",
    "derive_request_seed",
]

#: LRU bound of the in-memory result memo (entries).
_MEMO_LIMIT = 4096
#: LRU bound of the shared solvers (one synapse build each), keyed by
#: structural digest.
_SOLVER_CACHE_SIZE = 64
#: Clock units per scheduler step under ``clock="steps"``.
_STEP_SECONDS = 1e-3


class ServeError(Exception):
    """Base of the service's typed rejections."""


class LoadShedError(ServeError):
    """Admission rejected: the queue is at its configured limit."""

    def __init__(self, *, client: str, queue_depth: int, queue_limit: int) -> None:
        super().__init__(
            f"admission queue full ({queue_depth}/{queue_limit}); "
            f"request from client {client!r} shed"
        )
        self.client = client
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit


class IncompatibleInstanceError(ServeError):
    """The instance cannot join the live batch (neuron count mismatch)."""


class ServiceClosedError(ServeError):
    """The service has been stopped and accepts no new submissions."""


class InvalidRequestError(ServeError, ValueError):
    """A malformed request: non-integer budget, NaN deadline or bad clamps."""


class ServeStatus(Enum):
    """Terminal state of one served request."""

    SOLVED = "solved"
    UNSOLVED = "unsolved"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one :meth:`SolveService.submit` call."""

    status: ServeStatus
    client: str
    #: Code-independent request identity (``None`` for zero-budget
    #: requests, which are answered before one is derived).
    key: Optional[str]
    #: Noise seed the solve ran (or would run) under.
    seed: int
    #: Per-request step budget.
    max_steps: int
    #: The solve outcome; ``None`` for timeouts resolved before a decode
    #: and for service-side cancellations.
    result: Optional[CSPSolveResult]
    #: Served from the memo / result cache without touching the batch.
    from_cache: bool
    #: Joined an identical in-flight request's batch row.
    coalesced: bool
    submitted_step: int
    finished_step: int
    #: Clock-units latency from submission to completion.
    latency: float

    @property
    def solved(self) -> bool:
        return self.status is ServeStatus.SOLVED

    @property
    def steps_in_service(self) -> int:
        """Scheduler steps between submission and completion."""
        return self.finished_step - self.submitted_step


def derive_request_seed(service_seed: int, key: str) -> int:
    """Deterministic noise seed of a request, derived from its identity.

    Mixes the service's root seed with the first 128 bits of the request
    identity through :class:`numpy.random.SeedSequence`, so a repeat of
    the same instance maps to the same seed (and, the solver being
    deterministic, the same answer) regardless of arrival order or code
    revision — the property the dedup layer and the differential suite
    rely on.
    """
    sequence = np.random.SeedSequence([int(service_seed), int(key[:32], 16)])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


@dataclass
class _Waiter:
    """One client awaiting a ticket's outcome."""

    future: "asyncio.Future[ServeResult]"
    client: str
    submitted_step: int
    submitted_at: float
    #: Absolute expiry in clock units (``None`` = no deadline).
    deadline: Optional[float]
    coalesced: bool = False
    cancelled: bool = False


@dataclass
class _Ticket:
    """One admission unit: an instance plus everyone waiting on it."""

    key: str
    graph: ConstraintGraph
    clamps: list
    seed: int
    max_steps: int
    waiters: List[_Waiter] = field(default_factory=list)
    #: ``queued`` -> ``running`` -> ``done``; ``dead`` = abandoned while queued.
    state: str = "queued"
    #: Resurrected from a checkpoint / journal replay.  Recovered
    #: tickets start with no waiters (their clients died with the old
    #: process) but must run to completion anyway: their results land in
    #: the memo / cache, where the supervisor's resubmissions find them.
    recovered: bool = False


class ServePolicy:
    """Slot policy of the serve scheduler.

    The continuous-batching mechanics live in the shared
    :class:`~repro.runtime.slots.SlotEngine`; this policy is the serve
    layer's checkpoint brain — decode-and-finish, deadline expiry,
    abandoned-ticket cleanup and queue-driven refilling — all of which
    stays on the :class:`SolveService` (admission fairness, dedup and
    metrics are service concerns, not engine concerns).

    It is a :class:`~repro.runtime.slots.DurablePolicy`: a row's token is
    its ticket's identity (key, graph, clamps, seed, budget — never the
    waiters' futures) and the policy state is the service's neuron
    count.  A rebuilt ticket is *recovered*: it runs to completion for
    the crashed process's clients, whom the supervisor resubmits.
    """

    def __init__(self, service: "SolveService") -> None:
        self._service = service

    def initial_admissions(self, engine: SlotEngine) -> List[SlotAdmission]:
        return self._service._take_admissions(self._service._capacity)

    def on_checkpoint(self, checkpoint: SlotCheckpoint) -> SlotDecision:
        return self._service._checkpoint_decision(checkpoint)

    def describe(self, row: SlotRow) -> Dict[str, Any]:
        ticket = row.payload
        return {
            "key": ticket.key,
            "graph": ticket.graph,
            "clamps": ticket.clamps,
            "seed": ticket.seed,
            "max_steps": ticket.max_steps,
        }

    def rebuild(self, token: Dict[str, Any]) -> Tuple[_Ticket, BatchRow]:
        ticket = _Ticket(**token, state="running", recovered=True)
        self._service._inflight[ticket.key] = ticket
        return ticket, self._service._build_row(ticket)

    def export_state(self) -> Dict[str, Any]:
        return {"num_neurons": self._service._num_neurons}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._service._num_neurons = state["num_neurons"]


class SolveService:
    """Continuous-batching CSP solve service (see the module docstring).

    Parameters
    ----------
    capacity:
        Batch rows kept hot (the paper-scale default is 32).
    queue_limit:
        Maximum queued (not yet admitted) requests before submissions
        are shed with :class:`LoadShedError`; ``None`` = unbounded.
    config / backend / check_interval:
        Solver parameters shared by every admitted request (a fused
        batch needs one decode window and check cadence).  The
        scheduler also yields to asyncio every ``check_interval``
        steps: the granularity at which new submissions, cancellations
        and step-waiters are noticed.
    default_max_steps:
        Per-request step budget when ``submit`` does not give one.
    seed:
        Root of the derived per-request seeds (:func:`derive_request_seed`).
    cache:
        Optional :class:`~repro.runtime.cache.RunResultCache` persisting
        results across service instances, keyed by the request identity
        bound to the code fingerprint; corrupt or wrong-typed entries
        are treated as misses.  Repeat requests are also served from an
        in-memory LRU memo.
    clock:
        ``"monotonic"`` (wall time) or ``"steps"`` (deterministic: one
        millisecond per global step — what the fault-injection and
        metrics tests use).
    checkpoint_dir / checkpoint_every:
        With a directory set, the live engine state (plus every running
        ticket's identity) is snapshotted crash-safely every
        ``checkpoint_every`` steps — default ``10 * check_interval`` —
        through :class:`~repro.runtime.checkpoint.CheckpointStore`.
    journal_path:
        Write-ahead admission journal (:class:`~repro.serve.journal.AdmissionJournal`):
        every content-keyed admission is durable before it is queued,
        every completion is retired with a ``done`` record.
    fault:
        A :class:`~repro.runtime.checkpoint.FaultPlan` injecting
        deterministic crashes / torn writes for the chaos suites.

    With a checkpoint directory or a journal, construction recovers:
    it restores the newest readable checkpoint and re-enqueues
    unfinished journaled admissions.  Recovered work re-runs under its
    content-derived seed, so results are bit-identical to the
    uninterrupted run; the supervisor (:mod:`repro.serve.supervisor`)
    collects them by resubmission.
    """

    def __init__(
        self,
        *,
        capacity: int = 32,
        queue_limit: Optional[int] = None,
        config: Optional[CSPConfig] = None,
        backend: str = "fixed",
        check_interval: int = 10,
        default_max_steps: int = 3000,
        seed: int = 0,
        cache: Optional[RunResultCache] = None,
        clock: str = "monotonic",
        checkpoint_dir: Union[str, "Path", None] = None,
        checkpoint_every: Optional[int] = None,
        journal_path: Union[str, "Path", None] = None,
        fault: Optional[FaultPlan] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be positive (or None for unbounded)")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        self._capacity = int(capacity)
        self._queue_limit = None if queue_limit is None else int(queue_limit)
        self._config = config if config is not None else CSPConfig()
        self._backend = backend
        self._check_interval = int(check_interval)
        self._default_max_steps = int(default_max_steps)
        self._seed = int(seed)
        self._cache = cache
        #: The request-invariant part of every request identity.
        self._service_identity = derive_identity(
            "serve-config",
            {"config": self._config, "backend": backend, "check_interval": self._check_interval},
        )
        if clock == "monotonic":
            # reprolint: disable-next-line=RL002 -- injectable-clock seam (SolveService(clock=...))
            self._clock: Callable[[], float] = time.monotonic
        elif clock == "steps":
            self._clock = lambda: self._step * _STEP_SECONDS
        else:
            raise ValueError(f"unknown clock {clock!r}")

        # Admission state.
        self._queues: Dict[str, Deque[_Ticket]] = {}
        self._rr: Deque[str] = deque()
        self._queued = 0
        self._inflight: Dict[str, _Ticket] = {}

        # Batch state: the shared continuous-batching engine plus the
        # serve policy adapter (checkpoints route back through
        # :meth:`_checkpoint_decision`).  The engine owns the periodic
        # snapshots and the fault plan's crash step; the admission
        # journal below stays a service concern.
        self._num_neurons: Optional[int] = None
        self._ckpt_store: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            self._ckpt_store = CheckpointStore(checkpoint_dir, kind="serve", fault=fault)
        self._engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, self._config.decode_window),
            check_interval=self._check_interval,
            store=self._ckpt_store,
            checkpoint_every=checkpoint_every,
            fault=fault,
        )
        self._policy = ServePolicy(self)

        # Dedup / sharing caches.
        self._memo: "OrderedDict[str, CSPSolveResult]" = OrderedDict()
        self._solvers: "OrderedDict[str, SpikingCSPSolver]" = OrderedDict()

        # Scheduler plumbing.
        self._task: Optional["asyncio.Task[None]"] = None
        self._wake = asyncio.Event()
        self._step_heap: List[Tuple[int, int, "asyncio.Future[int]"]] = []
        self._wait_seq = itertools.count()
        self._closed = False
        self._draining = False
        self._started = False

        self._metrics = MetricsRecorder()

        # Write-ahead admission journal (optional, fed by the same
        # deterministic FaultPlan as the engine's snapshots).
        self._journal = None
        if journal_path is not None:
            from .journal import AdmissionJournal

            self._journal = AdmissionJournal(journal_path, fault=fault)
        if self._ckpt_store is not None or self._journal is not None:
            self._recover()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        graph: ConstraintGraph,
        clamps: ClampsLike = (),
        *,
        client: str = "default",
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> ServeResult:
        """Solve one instance through the live batch; awaits the outcome.

        Raises :class:`InvalidRequestError` (a ``ValueError``) on a
        ``max_steps`` that is not an integer, a NaN ``deadline`` or
        clamps naming an unknown variable, a value outside its domain or
        conflicting values — all before the request is booked;
        :class:`LoadShedError` when the admission queue is full; and
        :class:`IncompatibleInstanceError` when the graph's neuron count
        differs from the live batch's.  Cancelling the awaiting task
        abandons the request: its batch slot is freed at the next
        scheduler round.
        """
        if self._closed:
            raise ServiceClosedError("service is stopped")
        self._ensure_started()
        try:
            budget = self._default_max_steps if max_steps is None else operator.index(max_steps)
        except TypeError:
            raise InvalidRequestError(f"max_steps must be an integer, got {max_steps!r}") from None
        if deadline is not None and math.isnan(deadline):
            raise InvalidRequestError("deadline is NaN")
        try:
            resolved = graph.resolve_clamps(clamps)
        except (KeyError, IndexError, ValueError) as exc:
            raise InvalidRequestError(f"invalid clamps: {exc}") from exc
        if not graph.clamps_consistent(resolved):
            raise InvalidRequestError("clamps violate a constraint edge")

        if budget <= 0:
            # Mirrors the batch engines' max_steps<=0 guard: the
            # zero-step decode (clamps only), served immediately.
            self._metrics.record_submitted()
            result = _empty_result(graph, resolved)
            status = ServeStatus.SOLVED if result.solved else ServeStatus.UNSOLVED
            self._metrics.record_served(status.value, 0.0, 0)
            return ServeResult(
                status=status,
                client=client,
                key=None,
                seed=self._seed,
                max_steps=budget,
                result=result,
                from_cache=False,
                coalesced=False,
                submitted_step=self._step,
                finished_step=self._step,
                latency=0.0,
            )

        if self._num_neurons is None:
            self._num_neurons = graph.num_neurons
        elif graph.num_neurons != self._num_neurons:
            raise IncompatibleInstanceError(
                f"instance has {graph.num_neurons} neurons; the live batch "
                f"is configured for {self._num_neurons}"
            )
        self._metrics.record_submitted()

        key = self._request_identity(graph, resolved, seed, budget)
        request_seed = int(seed) if seed is not None else derive_request_seed(self._seed, key)

        cached = self._lookup_cached(key)
        if cached is not None:
            self._metrics.record_cache_hit()
            status = ServeStatus.SOLVED if cached.solved else ServeStatus.UNSOLVED
            self._metrics.record_served(status.value, 0.0, 0)
            return ServeResult(
                status=status,
                client=client,
                key=key,
                seed=request_seed,
                max_steps=budget,
                result=cached,
                from_cache=True,
                coalesced=False,
                submitted_step=self._step,
                finished_step=self._step,
                latency=0.0,
            )

        now = self._now()
        waiter = _Waiter(
            future=asyncio.get_running_loop().create_future(),
            client=client,
            submitted_step=self._step,
            submitted_at=now,
            deadline=(now + float(deadline)) if deadline is not None else None,
        )
        ticket = self._inflight.get(key)
        if ticket is not None and ticket.state in ("queued", "running"):
            # Identical request already in flight: share its batch row.
            waiter.coalesced = True
            ticket.waiters.append(waiter)
            self._metrics.record_coalesced()
        else:
            if self._queue_limit is not None and self._queued >= self._queue_limit:
                self._metrics.record_shed()
                raise LoadShedError(
                    client=client, queue_depth=self._queued, queue_limit=self._queue_limit
                )
            ticket = _Ticket(
                key=key,
                graph=graph,
                clamps=resolved,
                seed=request_seed,
                max_steps=budget,
                waiters=[waiter],
            )
            self._inflight[key] = ticket
            if self._journal is not None:
                # Write-ahead: the admission is durable before the
                # client can observe it as accepted.
                self._journal.admit(
                    key=key,
                    client=client,
                    graph=graph,
                    clamps=resolved,
                    seed=request_seed,
                    max_steps=budget,
                )
            self._enqueue(client, ticket)
        self._wake.set()
        try:
            return await waiter.future
        except asyncio.CancelledError:
            self._abandon(waiter, ticket)
            raise

    async def submit_many(
        self,
        instances: Sequence[Tuple[ConstraintGraph, ClampsLike]],
        *,
        client: str = "default",
        seeds: Optional[Sequence[int]] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> List[ServeResult]:
        """Submit a batch of instances concurrently; results in order.

        An empty instance list returns ``[]`` without touching the
        service (mirroring ``solve_instances([]) == []``).
        """
        if not instances:
            return []
        if seeds is not None and len(seeds) != len(instances):
            raise ValueError("seeds must match the number of instances")
        return list(
            await asyncio.gather(
                *(
                    self.submit(
                        graph,
                        clamps,
                        client=client,
                        seed=None if seeds is None else int(seeds[i]),
                        max_steps=max_steps,
                        deadline=deadline,
                    )
                    for i, (graph, clamps) in enumerate(instances)
                )
            )
        )

    async def wait_for_step(self, step: int) -> int:
        """Resolve once the scheduler's global step counter reaches ``step``.

        The deterministic time base of open-loop load generators: when
        the service is idle, the step counter fast-forwards to the next
        awaited step, so arrival schedules never deadlock on an empty
        batch.  Returns the step count at release.
        """
        if self._step >= int(step) or self._closed:
            return self._step
        self._ensure_started()
        future: "asyncio.Future[int]" = asyncio.get_running_loop().create_future()
        heapq.heappush(self._step_heap, (int(step), next(self._wait_seq), future))
        self._wake.set()
        return await future

    def metrics(self) -> MetricsSnapshot:
        """A point-in-time snapshot of the request ledger."""
        return self._metrics.snapshot(
            queue_depth=self._queued,
            running=self._engine.num_rows,
            capacity=self._capacity,
            now=self._now(),
            checkpoints=self._ckpt_store.saves if self._ckpt_store is not None else 0,
        )

    @property
    def _step(self) -> int:
        """The engine's global step count (the service's time base)."""
        return self._engine.global_step

    @property
    def step(self) -> int:
        """Global scheduler steps advanced so far."""
        return self._engine.global_step

    @property
    def capacity(self) -> int:
        return self._capacity

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the scheduler.

        ``drain=True`` (default) finishes every queued and running
        request first; ``drain=False`` aborts outstanding requests,
        resolving their waiters with ``ServeStatus.CANCELLED``.
        """
        self._closed = True
        task, self._task = self._task, None
        if task is None or task.done():
            self._abort_outstanding()
            if self._journal is not None:
                self._journal.close()
            return
        if drain:
            self._draining = True
            self._wake.set()
            await task
        else:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._abort_outstanding()
        if self._journal is not None:
            self._journal.close()

    async def __aenter__(self) -> "SolveService":
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # Request identity and caching
    # ------------------------------------------------------------------ #
    def _request_identity(
        self,
        graph: ConstraintGraph,
        resolved: Sequence[Tuple[int, int, int]],
        seed: Optional[int],
        budget: int,
    ) -> str:
        """Code-independent identity of one request (see the module docstring).

        The payload is positional — service identity, graph, clamps,
        budget, explicit seed, seed root — because a sequence tokenises
        without the per-key sort a mapping costs on every submit.
        """
        identity = derive_identity(
            "serve",
            (
                self._service_identity,
                graph,
                np.asarray(resolved, dtype=np.int64).reshape(-1, 3),
                int(budget),
                None if seed is None else int(seed),
                self._seed if seed is None else None,
            ),
        )
        assert identity is not None  # graph token, int64 array and ints all tokenise
        return identity

    @staticmethod
    def _cache_key(key: str) -> str:
        """The :class:`RunResultCache` key of an identity: bound to the code."""
        cache_key = derive_cache_key("serve", key)
        assert cache_key is not None  # a string always tokenises
        return cache_key

    def _lookup_cached(self, key: str) -> Optional[CSPSolveResult]:
        if key in self._memo:
            self._memo.move_to_end(key)
            return self._memo[key]
        if self._cache is not None:
            # Wrong-typed entries are as unusable as truncated ones:
            # ``expect`` makes the cache treat both as misses.
            entry = self._cache.get(self._cache_key(key), expect=CSPSolveResult)
            if entry is not None:
                self._remember(key, entry)
                return entry
        return None

    def _remember(self, key: str, result: CSPSolveResult) -> None:
        self._memo[key] = result
        self._memo.move_to_end(key)
        while len(self._memo) > _MEMO_LIMIT:
            self._memo.popitem(last=False)

    def _store(self, key: str, result: CSPSolveResult) -> None:
        self._remember(key, result)
        if self._cache is not None:
            self._cache.put(self._cache_key(key), result)

    # ------------------------------------------------------------------ #
    # Admission plumbing
    # ------------------------------------------------------------------ #
    def _enqueue(self, client: str, ticket: _Ticket) -> None:
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
            self._rr.append(client)
        queue.append(ticket)
        self._queued += 1

    def _next_ticket(self) -> Optional[_Ticket]:
        """Pop the next queued ticket, round-robin across clients."""
        for _ in range(len(self._rr)):
            client = self._rr.popleft()
            queue = self._queues.get(client)
            while queue and queue[0].state == "dead":
                queue.popleft()
            if queue:
                ticket = queue.popleft()
                self._queued -= 1
                if queue:
                    self._rr.append(client)
                else:
                    del self._queues[client]
                return ticket
            if queue is not None:
                del self._queues[client]
        return None

    def _abandon(self, waiter: _Waiter, ticket: _Ticket) -> None:
        """A client's await was cancelled: book and schedule the cleanup."""
        if waiter.future.done() and not waiter.future.cancelled():
            return  # resolved before the client went away; already booked
        waiter.cancelled = True
        self._metrics.record_cancelled()
        if not self._has_live_waiters(ticket):
            if ticket.state == "queued":
                ticket.state = "dead"
                self._queued -= 1
                self._inflight.pop(ticket.key, None)
            elif ticket.state == "running":
                # The scheduler frees the batch slot at its next round.
                self._wake.set()

    @staticmethod
    def _has_live_waiters(ticket: _Ticket) -> bool:
        if ticket.recovered and ticket.state in ("queued", "running"):
            # No client of *this* process awaits a recovered ticket, but
            # its result is owed to the crashed process's clients (the
            # supervisor resubmits them); it always runs to completion.
            return True
        return any(not w.cancelled and not w.future.done() for w in ticket.waiters)

    def _expire_waiters(self, ticket: _Ticket, now: float) -> None:
        """Resolve waiters whose deadline has passed with a typed timeout."""
        for waiter in ticket.waiters:
            if waiter.cancelled or waiter.future.done() or waiter.deadline is None:
                continue
            if now >= waiter.deadline:
                self._resolve_waiter(waiter, ticket, ServeStatus.TIMEOUT, None)

    def _resolve_waiter(
        self,
        waiter: _Waiter,
        ticket: _Ticket,
        status: ServeStatus,
        result: Optional[CSPSolveResult],
        *,
        from_cache: bool = False,
    ) -> None:
        if waiter.future.done():
            return
        latency = self._now() - waiter.submitted_at
        waiter.future.set_result(
            ServeResult(
                status=status,
                client=waiter.client,
                key=ticket.key,
                seed=ticket.seed,
                max_steps=ticket.max_steps,
                result=result,
                from_cache=from_cache,
                coalesced=waiter.coalesced,
                submitted_step=waiter.submitted_step,
                finished_step=self._step,
                latency=latency,
            )
        )
        if status is ServeStatus.CANCELLED:
            self._metrics.record_cancelled()
        else:
            self._metrics.record_served(status.value, latency, self._step - waiter.submitted_step)

    def _finish_ticket(self, ticket: _Ticket, result: CSPSolveResult) -> None:
        """A row completed with a result: resolve, memoise, release."""
        ticket.state = "done"
        self._inflight.pop(ticket.key, None)
        # Unsolved outcomes are cached too: the solver is deterministic,
        # so "unsolved within this budget under this seed" is the
        # request's true answer.
        self._store(ticket.key, result)
        if self._journal is not None:
            self._journal.done(ticket.key)
        status = ServeStatus.SOLVED if result.solved else ServeStatus.UNSOLVED
        for waiter in ticket.waiters:
            self._resolve_waiter(waiter, ticket, status, result)

    def _drop_ticket(self, ticket: _Ticket) -> None:
        """Release a ticket whose waiters are all gone (cancel/timeout)."""
        ticket.state = "done"
        self._inflight.pop(ticket.key, None)

    # ------------------------------------------------------------------ #
    # Durability: startup recovery (snapshots are the engine's)
    # ------------------------------------------------------------------ #
    def _recover(self) -> None:
        """Resurrect state from the newest checkpoint plus the journal.

        The engine restores its newest readable snapshot through
        :class:`ServePolicy` (corrupt or torn snapshots are skipped,
        their typed failures collected by the store and counted in the
        metrics); journaled admissions that neither finished (``done``
        record), survived into the restored batch, nor already sit in
        the result cache are re-enqueued as recovered tickets.
        Recovered work re-runs under its original content-derived seed,
        so every result is bit-identical to the uninterrupted run's.
        """
        records = []
        done_keys = set()
        if self._journal is not None:
            records, _torn = self._journal.replay(repair=True)
            done_keys = {r["key"] for r in records if r["kind"] == "done"}
        restored = self._engine.resume(self._policy)
        failures = len(self._ckpt_store.failures) if self._ckpt_store is not None else 0
        restored_rows = self._engine.num_rows
        replayed = 0
        for record in records:
            if record.get("kind") != "admit":
                continue
            key = record["key"]
            if key in done_keys or key in self._inflight:
                continue
            if self._lookup_cached(key) is not None:
                continue
            graph = record["graph"]
            ticket = _Ticket(
                key=key,
                graph=graph,
                clamps=record["clamps"],
                seed=record["seed"],
                max_steps=record["max_steps"],
                recovered=True,
            )
            self._inflight[key] = ticket
            self._enqueue(record["client"], ticket)
            if self._num_neurons is None:
                self._num_neurons = graph.num_neurons
            replayed += 1
        if restored or replayed:
            self._metrics.record_restore(rows=restored_rows, replayed=replayed, failures=failures)
        elif failures:
            self._metrics.checkpoint_failures += failures

    # ------------------------------------------------------------------ #
    # Batch-row construction (the bit-exactness-critical path)
    # ------------------------------------------------------------------ #
    def _build_row(self, ticket: _Ticket) -> BatchRow:
        """A fresh solver row spec for one admission.

        Graphs with identical structure share one solver, and so one
        synapse build (keyed by the structural digest, LRU-bounded),
        which also keeps the batch engine on its shared-matrix fast path
        for repeat instances.  Sharing never changes results: the
        connectivity and the drive vector are pure functions of the
        structure, the resolved clamps and the service-wide config, and
        the row's noise stream comes from the ticket's seed.  The
        admission offset (the bit-exactness mechanism) is stamped by
        :meth:`SlotEngine.recompose`.
        """
        digest = ticket.graph.cache_token()
        solver = self._solvers.get(digest)
        if solver is None:
            solver = SpikingCSPSolver(ticket.graph, self._config, backend=self._backend)
            self._solvers[digest] = solver
            while len(self._solvers) > _SOLVER_CACHE_SIZE:
                self._solvers.popitem(last=False)
        else:
            self._solvers.move_to_end(digest)
        return solver.row(ticket.clamps, seed=ticket.seed)

    def _take_admissions(self, count: int) -> List[SlotAdmission]:
        """Admit up to ``count`` queued tickets as fresh batch rows."""
        if count <= 0 or not self._queued:
            return []
        now = self._now()
        taken: List[SlotAdmission] = []
        while len(taken) < count:
            ticket = self._next_ticket()
            if ticket is None:
                break
            self._expire_waiters(ticket, now)
            if not self._has_live_waiters(ticket):
                self._drop_ticket(ticket)
                continue
            ticket.state = "running"
            row = SlotRow(
                graph=ticket.graph,
                clamps=ticket.clamps,
                budget=ticket.max_steps,
                payload=ticket,
            )
            taken.append((row, self._build_row(ticket)))
        return taken

    # ------------------------------------------------------------------ #
    # The scheduler
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return float(self._clock())

    def _ensure_started(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is stopped")
        if self._task is None or self._task.done():
            if not self._started:
                self._started = True
                self._metrics.started_at = self._now()
            self._task = asyncio.get_running_loop().create_task(self._run())

    def _release_step_waiters(self) -> None:
        while self._step_heap and self._step_heap[0][0] <= self._step:
            _, _, future = heapq.heappop(self._step_heap)
            if not future.done():
                future.set_result(self._step)

    def _flush_step_waiters(self) -> None:
        while self._step_heap:
            _, _, future = heapq.heappop(self._step_heap)
            if not future.done():
                future.set_result(self._step)

    def _prune_cancelled_rows(self) -> None:
        """Free batch slots of rows every client has abandoned."""
        rows = self._engine.rows
        if not rows:
            return
        keep = [i for i, row in enumerate(rows) if self._has_live_waiters(row.payload)]
        if len(keep) == len(rows):
            return
        kept = set(keep)
        for i, row in enumerate(rows):
            if i not in kept:
                self._drop_ticket(row.payload)
        self._engine.recompose(keep, [])

    def _admit(self) -> None:
        refills = self._take_admissions(self._capacity - self._engine.num_rows)
        if refills:
            self._engine.admit(refills)

    async def _run(self) -> None:
        while True:
            self._release_step_waiters()
            self._prune_cancelled_rows()
            self._admit()
            if not self._engine.num_rows:
                if self._queued:
                    continue  # a fresh admission round will pick them up
                if self._draining:
                    break
                if self._step_heap:
                    # Idle with clients waiting on future steps: fast-
                    # forward the step clock (open-loop arrival times
                    # pass whether or not the batch is busy).
                    self._engine.fast_forward(self._step_heap[0][0])
                    continue
                self._wake.clear()
                if self._queued or self._step_heap or self._draining:
                    continue  # a submit landed between the checks
                await self._wake.wait()
                continue
            for _ in range(self._check_interval):
                # One durable step: the engine's stepping, local counters
                # and windows keep every served row bit-identical to its
                # standalone solve; the decision (finish, expire, refill)
                # is ServePolicy's; snapshots and the crash hook follow.
                self._metrics.record_step(self._engine.num_rows)
                self._engine.advance(self._policy)
                if not self._engine.num_rows:
                    break
            await asyncio.sleep(0)
        self._flush_step_waiters()

    def _checkpoint_decision(self, checkpoint: SlotCheckpoint) -> SlotDecision:
        """Decide which rows finish, expire or survive one checkpoint."""
        now = self._now()
        finished = checkpoint.finished
        updates_per_step = self._engine.updates_per_step or 0
        keep: List[int] = []
        for row, live in enumerate(checkpoint.rows):
            ticket = live.payload
            if row in finished:
                self._finish_ticket(ticket, _solve_result(finished[row], updates_per_step))
                continue
            if checkpoint.at_check[row]:
                self._expire_waiters(ticket, now)
                if not self._has_live_waiters(ticket):
                    self._drop_ticket(ticket)
                    continue
            keep.append(row)
        refills = self._take_admissions(self._capacity - len(keep))
        return SlotDecision(keep=keep, admissions=refills)

    def _abort_outstanding(self) -> None:
        """Resolve every outstanding waiter with ``CANCELLED`` (abort path)."""
        tickets: List[_Ticket] = [row.payload for row in self._engine.rows]
        for queue in self._queues.values():
            tickets.extend(t for t in queue if t.state == "queued")
        for ticket in tickets:
            for waiter in ticket.waiters:
                self._resolve_waiter(waiter, ticket, ServeStatus.CANCELLED, None)
            self._drop_ticket(ticket)
        self._engine.recompose([], [])
        self._queues.clear()
        self._rr.clear()
        self._queued = 0
        self._inflight.clear()
        self._flush_step_waiters()

"""Shared continuous-batching slot engine over :class:`BatchedNetwork`.

The batched constraint solver (:func:`repro.csp.solver.solve_instances`),
the restart-portfolio engine
(:func:`repro.csp.portfolio.solve_instances_portfolio`) and the solve
service (:class:`repro.serve.SolveService`) share one slot lifecycle:
the global step loop over one exact-mode fused batch, the per-row
*local* step counters, the sliding-window decode books and the
retain-then-extend recomposition.  :class:`SlotEngine` owns it; what
remains per subsystem is a :class:`SlotPolicy` — which rows retire and
which admissions refill the freed slots at each decode checkpoint.

The engine's invariants (every consumer inherits them):

* **Rows, not networks.**  An admission is a :class:`SlotRow` plus a
  row spec (:class:`~repro.runtime.batch.BatchRow`, e.g. from
  ``SpikingCSPSolver.row``); a network is read through
  :func:`~repro.runtime.batch.batch_row`.
* **Local step counters.**  A row's *local* step, ``global step -
  offset`` (``offset``: the global step at admission, also stamped into
  its drive spec's ``step_offset``), drives its anneal phase, its
  sliding-window slot and its spike recency, so a row stacked into a
  half-finished batch replays a fresh standalone run.
* **One recomposition call.**  :meth:`SlotEngine.recompose` hands the
  survivors and the admissions to one :meth:`BatchedNetwork.retain`
  call, which drops the retired rows *before* stacking the admissions
  and checks every admission against the survivors first, so a refusal
  changes nothing; the engine guards the nothing-to-do and
  nothing-survives edges and stamps admissions on copies of their specs.
  The books, offsets and budgets are rows of one
  :class:`~repro.runtime.rows.RowStack`: they move in place, and the
  native books (``izh_books``) are bound once per capacity.  Direct
  ``retain``/``extend`` calls outside ``repro/runtime/`` are forbidden
  (reprolint rule RL001, ``docs/LINTING.md``).
* **Checkpoint cadence.**  A row is decoded when its local step hits the
  check interval or its budget; the union over rows decides when a
  checkpoint fires, and its first :meth:`SlotEngine.decode_row` call
  decodes every at-check row in one pass (:meth:`SlotDecoder.decode_rows`).
* **One retirement rule.**  :attr:`SlotCheckpoint.finished` holds the
  at-check rows whose decode solved or whose budget is spent.
* **Zero-step runs.**  ``max_steps <= 0`` never allocates a batch; the
  canonical zero-step window (:meth:`SlotEngine.empty_window`) decodes
  clamps only, identically in every layer.
* **One durable step.**  :meth:`SlotEngine.advance` is the only place a
  step, a policy decision, a periodic snapshot
  (:class:`~repro.runtime.checkpoint.CheckpointStore`) and an injected
  crash (:class:`~repro.runtime.checkpoint.FaultPlan`) meet; a
  :class:`DurablePolicy` names each live row with a picklable token, so
  :meth:`SlotEngine.run` resumes a killed solve bit-identically.

The engine is ignorant of constraint graphs: rows carry ``graph`` /
``clamps`` opaquely and an injected :class:`SlotDecoder` decodes them
(``repro.csp.solver.CSP_SLOT_DECODER``), which keeps ``repro.runtime``
below ``repro.csp`` in the layering.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, cast

import numpy as np

from . import native
from .batch import BatchedNetwork, BatchIncompatibleError, BatchRow, Replica, batch_row
from .checkpoint import CheckpointError, CheckpointStore, FaultPlan
from .drives import AnnealedNoiseSpec
from .rows import Field, RowStack

__all__ = [
    "DurablePolicy",
    "OneShotPolicy",
    "SlotCheckpoint",
    "SlotDecision",
    "SlotDecode",
    "SlotDecoder",
    "SlotEngine",
    "SlotOutcome",
    "SlotPolicy",
    "SlotRow",
]


@dataclass(frozen=True)
class SlotDecode:
    """One row's decoded assignment at a checkpoint."""

    values: np.ndarray
    decided: np.ndarray
    #: The decoded assignment satisfies the row's instance.
    solved: bool


@dataclass
class SlotRow:
    """One live batch row: an instance run with a local step budget.

    ``graph`` and ``clamps`` are opaque to the engine — they are handed
    to the injected :class:`SlotDecoder` verbatim.  ``payload`` is
    policy-owned context (an entry index, a portfolio attempt, a serve
    ticket); the engine never looks at it.
    """

    graph: Any
    clamps: Any
    #: Local step budget: the row retires no later than its budget-th
    #: local step (the ``at_budget`` checkpoint mask).
    budget: int
    payload: Any = None
    #: Global steps completed when the row was admitted (its local step
    #: 0).  Assigned by the engine at admission.
    offset: int = 0
    #: Decoder-owned constants of this row (its clamp indices, say),
    #: built by the :class:`SlotDecoder` at the row's first decode.
    plan: Any = field(default=None, repr=False, compare=False)


#: An admission: the row descriptor plus its fresh row spec (or a
#: network, read through :func:`~repro.runtime.batch.batch_row`).
SlotAdmission = Tuple[SlotRow, Replica]


@dataclass
class SlotDecision:
    """A policy's verdict at one checkpoint.

    ``keep`` lists the surviving row indices in strictly increasing
    order; every other live row retires.  ``admissions`` are stacked
    into the freed capacity.  ``stop`` ends a :meth:`SlotEngine.run`
    loop after this recomposition (the portfolio's all-instances-solved
    early exit).
    """

    keep: List[int]
    admissions: List[SlotAdmission] = field(default_factory=list)
    stop: bool = False


@dataclass
class SlotOutcome:
    """A retired row's bookkeeping snapshot (recorded by policies)."""

    row: SlotRow
    #: Local steps completed when the row retired.
    local_steps: int
    #: Spikes the row emitted over its lifetime.
    spikes: int
    decode: SlotDecode


class SlotDecoder(Protocol):
    """Decodes rows' assignments from their sliding-window state."""

    def decode_rows(
        self, rows: Sequence[SlotRow], window_counts: np.ndarray, last_spike: np.ndarray
    ) -> List[SlotDecode]:  # pragma: no cover - interface
        """One decode per row; ``window_counts``/``last_spike`` are ``(R, N)``."""
        ...


class SlotPolicy(Protocol):
    """Scheduling policy driven by :meth:`SlotEngine.run`.

    The engine owns the mechanics (stepping, windows, recomposition);
    the policy owns the decisions (retire / admit / stop).  Incremental
    consumers (the serve scheduler) skip :meth:`initial_admissions` and
    feed checkpoints to :meth:`on_checkpoint` themselves.
    """

    def initial_admissions(self, engine: "SlotEngine") -> List[SlotAdmission]:
        """The first wave of rows (called once, before the first step)."""
        ...  # pragma: no cover - interface

    def on_checkpoint(self, checkpoint: "SlotCheckpoint") -> SlotDecision:
        """Decide retirements and admissions at a decode checkpoint."""
        ...  # pragma: no cover - interface


class DurablePolicy(SlotPolicy, Protocol):
    """A :class:`SlotPolicy` an engine with a checkpoint store can resume.

    A snapshot holds the engine state with one :meth:`describe` token in
    place of each live row's payload, plus :meth:`export_state`.
    Resuming restores the policy state first (a foreign snapshot raises
    there), then turns each token back into a payload and a fresh row
    spec through :meth:`rebuild`.
    """

    def describe(self, row: SlotRow) -> Any:
        """A picklable token that :meth:`rebuild` turns back into the row."""
        ...  # pragma: no cover - interface

    def rebuild(self, token: Any) -> Tuple[Any, Replica]:
        """``(payload, fresh row spec or network)`` of the row a token describes."""
        ...  # pragma: no cover - interface

    def export_state(self) -> Any:
        """The policy's picklable state, saved beside the engine's."""
        ...  # pragma: no cover - interface

    def restore_state(self, state: Any) -> None:
        """Adopt an exported state (``CheckpointError`` when foreign)."""
        ...  # pragma: no cover - interface


@dataclass
class SlotCheckpoint:
    """Engine state handed to a policy when any row hits a check point.

    :attr:`finished` is the engine's retirement rule; policies may retire
    other rows too (abandoned requests, raced attempts).
    """

    engine: "SlotEngine"
    #: Global step count (the step just executed).
    step: int
    #: Per-row local step counts (1-based), ``step - offset``.
    local: np.ndarray
    #: Rows at a decode point (check-interval multiple or budget).
    at_check: np.ndarray
    #: Rows whose local budget is exhausted.
    at_budget: np.ndarray

    @property
    def rows(self) -> List[SlotRow]:
        return self.engine.rows

    @functools.cached_property
    def finished(self) -> Dict[int, SlotOutcome]:
        """Outcomes of the at-check rows whose decode solved or whose budget is spent.

        By ascending row index; decoded through :meth:`SlotEngine.decode_row`.
        """
        engine = self.engine
        finished: Dict[int, SlotOutcome] = {}
        for i in np.flatnonzero(self.at_check).tolist():
            decode = engine.decode_row(i)
            if decode.solved or self.at_budget[i]:
                finished[i] = SlotOutcome(
                    row=engine.rows[i],
                    local_steps=int(self.local[i]),
                    spikes=int(engine.row_spikes[i]),
                    decode=decode,
                )
        return finished


def _stamped(spec: BatchRow, step: int) -> BatchRow:
    """A copy of ``spec`` whose annealed drive starts at global step ``step``."""
    if not isinstance(spec.drive_spec, AnnealedNoiseSpec):
        return spec
    return replace(spec, drive_spec=replace(spec.drive_spec, step_offset=step))


def _book_fields(window: int, size: int) -> Dict[str, Field]:
    """The engine's row stack for rows of ``size`` neurons, by attribute.

    The books a snapshot carries, in snapshot order (``history`` rings
    the last ``window`` steps: its rows lie on axis 1), then the offsets
    and budgets; ``izh_books`` reads each through the ``BooksBlock``
    field named like it without the underscore.
    """
    neurons = (None, size)
    return {
        "_history": Field(np.bool_, (window, None, size), "history"),
        "_window_counts": Field(np.int64, neurons, "window_counts"),
        "_last_spike": Field(np.int64, neurons, "last_spike"),
        "_row_spikes": Field(np.int64, key="row_spikes"),
        "_offsets": Field(np.int64),
        "_budgets": Field(np.int64),
    }


class _NativeBooks:
    """The native books (``izh_books`` of :mod:`repro.runtime.native`) bound to the engine's buffers.

    Bound when the engine's row stack was allocated; holds the outputs
    of the last call (:attr:`local`, :attr:`at_check`, :attr:`at_budget`).
    """

    def __init__(self, books: Any, engine: "SlotEngine") -> None:
        stack, self._size = engine._stack, int(engine.num_neurons or 0)
        assert stack is not None
        self.local = np.zeros(stack.capacity, dtype=np.int64)
        self.at_check, self.at_budget = np.zeros((2, stack.capacity), dtype=bool)
        self._block = block = native.BooksBlock(
            capacity=stack.capacity, size=self._size, window=engine._window,
            check_interval=engine._check_interval, local=self.local.ctypes.data,
            at_check=self.at_check.ctypes.data, at_budget=self.at_budget.ctypes.data,
        )
        fields = _book_fields(engine._window, self._size)
        stack.bind(block, [(attr[1:], attr, field.dtype) for attr, field in fields.items()])
        self._at = ctypes.addressof(block)
        self._books = books
        #: The fired masks seen so far (the batch swaps two), by id, with
        #: their addresses; holding the array keeps its id unique.
        self._masks: Dict[int, Tuple[np.ndarray, int]] = {}

    def __call__(self, rows: int, step: int, fired: np.ndarray) -> int:
        """The live rows' books after global step ``step``; returns how many are at a check."""
        seen = self._masks.get(id(fired))
        if seen is None:
            if fired.dtype != np.bool_ or not fired.flags.c_contiguous:
                raise RuntimeError("the fired mask must be a C-contiguous bool array")
            if len(self._masks) >= 2:
                self._masks.clear()
            seen = self._masks[id(fired)] = (fired, fired.ctypes.data)
        if fired.shape != (rows, self._size):
            raise RuntimeError(f"the fired mask must be a {(rows, self._size)} array")
        return self._books(self._at, rows, step, seen[1])


class SlotEngine:
    """The continuous-batching core shared by solve / portfolio / serve.

    Parameters
    ----------
    decoder:
        Decodes a row's sliding window into an assignment
        (:class:`SlotDecoder`); the engine itself is graph-agnostic.
    window:
        Sliding decode window length in steps (``CSPConfig.decode_window``).
    check_interval:
        Local-step cadence of decode checkpoints.
    store / checkpoint_every:
        With a :class:`~repro.runtime.checkpoint.CheckpointStore`, the
        engine and its :class:`DurablePolicy` are snapshotted every
        ``checkpoint_every`` global steps (default ``10 *
        check_interval``) and :meth:`run` resumes from the newest
        readable snapshot.
    fault:
        A :class:`~repro.runtime.checkpoint.FaultPlan` whose
        ``crash_at_step`` kills the process inside :meth:`advance`, with
        or without a store.

    Every batch runs exact-mode synapses and owns its input: solver rows
    compile into one :class:`~repro.runtime.drives.PortfolioAnnealedDrive`,
    which the batch recomposes with its rows and carries in
    its snapshot.
    """

    # The live rows of the row stack (_book_fields), made at the first
    # admission; the per-neuron books are ``None`` before it.
    _history: Optional[np.ndarray]
    _window_counts: Optional[np.ndarray]
    _last_spike: Optional[np.ndarray]
    _row_spikes: np.ndarray
    _offsets: np.ndarray
    _budgets: np.ndarray
    #: ``izh_books`` bound to the books, or ``None``: the NumPy books.
    _native_books: Optional[_NativeBooks]

    def __init__(
        self,
        *,
        decoder: SlotDecoder,
        window: int,
        check_interval: int,
        store: Optional[CheckpointStore] = None,
        checkpoint_every: Optional[int] = None,
        fault: Optional[FaultPlan] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        every = 10 * int(check_interval) if checkpoint_every is None else int(checkpoint_every)
        if every < 1:
            raise ValueError("checkpoint_every must be positive")
        self._decoder = decoder
        self._window = int(window)
        self._check_interval = int(check_interval)
        self._store = store
        self._checkpoint_every = every
        self._fault = fault

        self._batch: Optional[BatchedNetwork] = None
        self._step = 0
        self._num_neurons: Optional[int] = None
        self._updates_per_step: Optional[int] = None
        self._rows: List[SlotRow] = []
        self._stack: Optional[RowStack] = None
        self._history = self._window_counts = self._last_spike = None
        self._row_spikes = self._offsets = self._budgets = np.zeros(0, dtype=np.int64)
        self._native_books = None
        #: The last checkpoint's at-check mask (until the rows or their
        #: windows change) and the decodes made since, by row index.
        self._at_check: Optional[np.ndarray] = None
        self._decoded: Dict[int, SlotDecode] = {}

    # ------------------------------------------------------------------ #
    # Introspection (read-only views for policies and trailing decodes)
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> List[SlotRow]:
        return self._rows

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def global_step(self) -> int:
        """Global steps advanced so far (also the live batch's step index)."""
        return self._step

    @property
    def num_neurons(self) -> Optional[int]:
        return self._num_neurons

    @property
    def updates_per_step(self) -> Optional[int]:
        """Neuron updates per global step per row (neurons x sub-steps)."""
        return self._updates_per_step

    @property
    def row_spikes(self) -> np.ndarray:
        """Per-row lifetime spike counts (parallel to :attr:`rows`)."""
        return self._row_spikes

    def local_steps(self) -> np.ndarray:
        """Per-row local step counts completed so far."""
        return self._step - self._offsets

    def decode_row(self, row: int) -> SlotDecode:
        """Decode one live row's current sliding window.

        At a checkpoint, the first call for an at-check row decodes every
        at-check row in one batched pass and later calls read that
        result; any other row (a trailing decode after :meth:`run`, say)
        is decoded as a batch of one.
        """
        decode = self._decoded.get(row)
        if decode is None:
            at_check = self._at_check
            if at_check is not None and at_check[row]:
                indices = np.flatnonzero(at_check)
            else:
                indices = np.asarray([row])
            assert self._window_counts is not None and self._last_spike is not None
            decodes = self._decoder.decode_rows(
                [self._rows[i] for i in indices],
                self._window_counts[indices],
                self._last_spike[indices],
            )
            self._decoded.update(zip(indices.tolist(), decodes))
            decode = self._decoded[row]
        return decode

    def _forget_decodes(self) -> None:
        """Drop cached decodes: the rows or their windows changed."""
        self._at_check = None
        if self._decoded:
            self._decoded = {}

    # ------------------------------------------------------------------ #
    # Zero-step canonicalisation
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty_window(num_neurons: int) -> Tuple[np.ndarray, np.ndarray]:
        """The canonical zero-step window: no spikes, no recency.

        Decoding it yields the clamps-only assignment — what the step
        loop produces when the budget is exhausted before the first
        step.  The single source of the ``max_steps <= 0`` semantics for
        the solver, portfolio and serve layers (their historical
        per-layer copies drifted-by-construction; see
        ``repro.csp.solver._empty_result``).
        """
        return (
            np.zeros(num_neurons, dtype=np.int64),
            np.full(num_neurons, -1, dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Admission / retirement
    # ------------------------------------------------------------------ #
    def fast_forward(self, step: int) -> None:
        """Advance the global step clock while no rows are live.

        The serve scheduler uses this to let open-loop arrival schedules
        pass wall-clock-free through idle periods.  Refusing to skip a
        live batch keeps the step index consumed by drive providers
        contiguous.
        """
        if self._rows:
            raise RuntimeError("cannot fast-forward a live batch")
        if int(step) > self._step:
            self._step = int(step)

    def admit(self, admissions: Sequence[SlotAdmission]) -> None:
        """Stack admissions into the live batch, keeping every current row."""
        self.recompose(list(range(len(self._rows))), admissions)

    def recompose(self, keep: Sequence[int], admissions: Sequence[SlotAdmission]) -> None:
        """Apply one retire/admit decision to the live batch.

        ``keep`` lists surviving row indices in strictly increasing
        order; anything else raises before the engine changes, with
        :meth:`BatchedNetwork.retain`'s errors (``IndexError`` out of
        range, ``ValueError`` not strictly increasing), and so does an
        admission the survivors' batch refuses
        (:class:`~repro.runtime.batch.BatchIncompatibleError`).  The
        survivors and admissions go to the batch in one
        :meth:`BatchedNetwork.retain` call, which checks every admission
        before it changes anything; the batch is built afresh when
        nothing survives, and the degenerate shapes (nothing retired or
        admitted, an empty recomposition) are guarded here.  Admitted
        rows start at the current global step: ``row.offset`` becomes
        ``global_step`` once the batch accepted them, and the batch
        stacks copies of their row specs whose drive ``step_offset`` is
        ``global_step`` (the caller's specs stay as they were), so each
        new row's local phase sequence replays a standalone run's.
        """
        keep = list(keep)
        if any(i < 0 or i >= len(self._rows) for i in keep):
            raise IndexError(f"keep indices out of range for {len(self._rows)} rows")
        if any(b <= a for a, b in zip(keep, keep[1:])):
            raise ValueError("keep indices must be strictly increasing")
        admissions = list(admissions)
        if len(keep) == len(self._rows) and not admissions:
            return
        specs = [_stamped(batch_row(replica), self._step) for _, replica in admissions]
        size = self._num_neurons if self._num_neurons is not None else specs[0].size
        if any(spec.size != size for spec in specs):
            raise BatchIncompatibleError(f"admissions must have the engine's {size} neurons")
        if keep:
            assert self._batch is not None
            self._batch.retain(keep, specs)  # checks every admission before it changes
        else:
            # Nothing survives: tear the batch down, or build it afresh.
            self._batch = BatchedNetwork.from_networks(specs) if specs else None
        self._forget_decodes()
        for row, _ in admissions:
            row.offset = self._step
        self._rows = [self._rows[i] for i in keep] + [row for row, _ in admissions]
        if self._stack is None:
            self._num_neurons = size
            self._updates_per_step = size * specs[0].substeps
            self._stack = RowStack(self, _book_fields(self._window, size))
        self._stack.retain(keep)
        books = {"_last_spike": -1, "_offsets": self._step,
                 "_budgets": [row.budget for row, _ in admissions]}
        if self._stack.extend(len(admissions), books):
            self._bind_books()

    def _bind_books(self) -> None:
        """Bind ``izh_books`` to the row stack as allocated; ``None`` keeps the NumPy books."""
        tally = native.books()
        self._native_books = None if tally is None else _NativeBooks(tally, self)

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def _config_descriptor(self) -> dict:
        return {"window": int(self._window), "check_interval": int(self._check_interval)}

    def export_state(self, tokens: Sequence[Any]) -> dict:
        """A picklable snapshot of the engine between two steps.

        Captures the global step clock, every live row's descriptor
        (graph, clamps, budget, admission offset), the sliding-window /
        recency / spike bookkeeping and the batched network state, its
        drive's (noise cursors included) among it — everything
        :meth:`restore_state` needs to continue bit-identically.

        ``tokens`` stand in for the rows' payloads, one picklable token
        per row (:meth:`DurablePolicy.describe`): a payload may hold
        objects that must never reach a pickle, such as the serve
        scheduler's asyncio futures.  Rows that step their own closures
        (their specs did not compile into one drive) raise
        :class:`~repro.runtime.checkpoint.CheckpointError`.
        """
        if len(tokens) != len(self._rows):
            raise ValueError("payload tokens must match the live row count")
        batch = None if self._batch is None else self._batch.export_state()
        if batch is not None and batch["drive"] is None:
            # The batch calls its rows' closures, whose noise state a
            # resume could not replay.
            raise CheckpointError("only rows that compile into one drive can be snapshotted")
        rows = []
        for i, row in enumerate(self._rows):
            rows.append(
                {
                    "graph": row.graph,
                    "clamps": row.clamps,
                    "budget": int(row.budget),
                    "offset": int(row.offset),
                    "token": tokens[i],
                }
            )
        state = {
            "config": self._config_descriptor(),
            "step": int(self._step),
            "num_neurons": self._num_neurons,
            "updates_per_step": self._updates_per_step,
            "rows": rows,
        }
        if self._stack is None:
            state.update((f.key, None) for f in _book_fields(self._window, 0).values() if f.key)
        else:
            state.update(self._stack.export())
        state["batch"] = batch
        return state

    def restore_state(self, state: dict, rebuilt: Sequence[Tuple[Any, Replica]]) -> None:
        """Rebuild the engine from a snapshot; continues bit-identically.

        ``rebuilt`` holds one ``(payload, row spec)`` pair per snapshot
        row, in row order (:meth:`DurablePolicy.rebuild` of the row's
        token): the row freshly built from the same (graph, clamps,
        seed, config) the original row was — the snapshot stores only
        state arrays and the caller re-derives the structure.  The fresh
        rows' state, drive streams included, is then overwritten
        wholesale with the snapshot's, which is what makes the restored
        engine's next step bit-identical to the uninterrupted run's.

        Restoring onto an engine with live rows, with a mismatched
        window/check-interval configuration, with books that disagree
        with the rows or with a batch state the rebuilt batch refuses
        raises before anything changes.
        """
        if self._rows:
            raise RuntimeError("cannot restore into an engine with live rows")
        config = dict(state["config"])
        if config != self._config_descriptor():
            raise ValueError(
                f"checkpoint engine configuration {config} does not match "
                f"the live engine {self._config_descriptor()}"
            )
        row_states = list(state["rows"])
        rebuilt = list(rebuilt)
        if len(rebuilt) != len(row_states):
            raise ValueError(
                f"restore got {len(rebuilt)} rows for {len(row_states)} snapshot rows"
            )
        rows = [
            SlotRow(
                graph=rs["graph"],
                clamps=rs["clamps"],
                budget=int(rs["budget"]),
                payload=payload,
                offset=int(rs["offset"]),
            )
            for rs, (payload, _) in zip(row_states, rebuilt)
        ]
        size, stack, batch, books = state["num_neurons"], self._stack, None, {}
        if size != self._num_neurons:
            stack = None  # the books of another neuron count
        if rows:
            if stack is None:
                stack = RowStack(self, _book_fields(self._window, size))  # allocated below
            try:
                books = stack.check(state, len(rows))
            except ValueError as exc:
                raise ValueError(
                    f"checkpoint bookkeeping arrays disagree with the row set: {exc}"
                ) from None
            batch = BatchedNetwork.from_networks([replica for _, replica in rebuilt])
            batch.restore_state(state["batch"])
        # Every check passed: nothing below refuses.
        self._forget_decodes()
        self._step = int(state["step"])
        self._num_neurons = size
        self._updates_per_step = state["updates_per_step"]
        self._batch = batch
        self._rows = rows
        if stack is not self._stack:
            self._stack, self._native_books = stack, None
        books.update(_offsets=[r.offset for r in rows], _budgets=[r.budget for r in rows])
        if stack is not None and stack.extend(len(rows), books):
            self._bind_books()

    def _save(self, policy: SlotPolicy) -> None:
        """Snapshot the engine and its (durable) policy at this step."""
        assert self._store is not None
        durable = cast(DurablePolicy, policy)
        tokens = [durable.describe(row) for row in self._rows]
        self._store.save(
            self._step, {"engine": self.export_state(tokens), "policy": durable.export_state()}
        )

    def resume(self, policy: DurablePolicy) -> bool:
        """Restore the store's newest readable snapshot; ``False`` if none.

        The policy state is restored first, so a snapshot of some other
        run raises :class:`~repro.runtime.checkpoint.CheckpointError`
        before any row is built.
        """
        latest = self._store.load_latest() if self._store is not None else None
        if latest is None:
            return False
        _, snapshot = latest
        policy.restore_state(snapshot["policy"])
        engine = snapshot["engine"]
        self.restore_state(engine, [policy.rebuild(row["token"]) for row in engine["rows"]])
        return True

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[SlotCheckpoint]:
        """Advance every live row by one global step.

        Updates the per-row sliding windows, recency and spike totals on
        *local* step coordinates, then returns a :class:`SlotCheckpoint`
        when any row reaches a decode point (check-interval multiple of
        its local step, or its local budget) — ``None`` otherwise.  The
        books are one C call (``izh_books``) wherever the native library
        of :mod:`repro.runtime.native` loaded, and NumPy otherwise; both
        update the same arrays, so a snapshot saved on one path resumes
        on the other.
        """
        if self._batch is None:
            raise RuntimeError("no live rows to step")
        self._forget_decodes()
        self._step += 1
        fired = self._batch.step(self._step)
        rows = len(self._rows)
        books = self._native_books
        if books is not None:
            if not books(rows, self._step, fired):
                return None
            # Copies: the next call overwrites the outputs.
            local, at_check, at_budget = (
                books.local[:rows].copy(), books.at_check[:rows].copy(),
                books.at_budget[:rows].copy(),
            )
        else:
            # The NumPy books: the reference of izh_books.
            local = self._step - self._offsets  # per-row local step (1-based)
            slot, index = local % self._window, np.arange(rows)
            self._window_counts -= self._history[slot, index]
            self._history[slot, index] = fired
            self._window_counts += fired
            if fired.any():
                rows, cols = np.nonzero(fired)
                self._last_spike[rows, cols] = local[rows]
                self._row_spikes += fired.sum(axis=1)
            at_budget = local >= self._budgets
            at_check = (local % self._check_interval == 0) | at_budget
            if not at_check.any():
                return None
        self._at_check = at_check
        return SlotCheckpoint(
            engine=self, step=self._step, local=local, at_check=at_check, at_budget=at_budget
        )

    def advance(self, policy: SlotPolicy) -> bool:
        """One durable global step; ``True`` when the policy asks to stop.

        Steps every live row, applies the policy's decision at a decode
        checkpoint, snapshots on the ``checkpoint_every`` cadence (with a
        store, ``policy`` must be a :class:`DurablePolicy`) and then
        honours the fault plan's crash step.  :meth:`run` loops over it;
        the serve scheduler calls it directly.
        """
        checkpoint = self.step()
        stop = False
        if checkpoint is not None:
            decision = policy.on_checkpoint(checkpoint)
            self.recompose(decision.keep, decision.admissions)
            stop = decision.stop
        if self._store is not None and self._step % self._checkpoint_every == 0:
            self._save(policy)
        if self._fault is not None and self._fault.should_crash(self._step):
            os._exit(FaultPlan.CRASH_EXIT_CODE)
        return stop

    def run(self, policy: SlotPolicy, *, max_steps: int) -> None:
        """Closed-loop drive: admit the policy's first wave, step to done.

        With a store, the run resumes from the newest readable snapshot
        instead of admitting the first wave, and saves once more at
        completion.  The loop ends when every row has retired, the
        global step budget is exhausted, or the policy's decision says
        ``stop``.  Rows still live at exit are *not* decoded — callers
        snapshot them through :meth:`decode_row` / :meth:`local_steps`.
        ``max_steps <= 0`` returns immediately without admitting or
        restoring anything — the zero-step guard, centralised: no batch
        is ever allocated and callers decode the canonical
        :meth:`empty_window`.
        """
        if max_steps <= 0:
            return
        if self._store is None or not self.resume(cast(DurablePolicy, policy)):
            self.recompose(list(range(len(self._rows))), policy.initial_admissions(self))
        while self._rows and self._step < max_steps:
            if self.advance(policy):
                break
        if self._store is not None:
            self._save(policy)


class OneShotPolicy:
    """Run every admitted row to solution or budget; never refill.

    The policy behind :meth:`SpikingCSPSolver.solve_batch` /
    :func:`repro.csp.solver.solve_instances`: one attempt per instance,
    rows retiring as they solve (batch shrinking) or exhaust their
    budget, outcomes recorded in retirement order in :attr:`outcomes`.
    With every budget equal to the run's ``max_steps``, all rows retire
    inside :meth:`SlotEngine.run` and no trailing decode is needed.

    It is a :class:`DurablePolicy` when every row's payload is its index
    in ``admissions``: the index is the row's token, the admission's
    never-stepped row spec is its rebuilt row (a resumed run admits
    nothing else), and the state is the retired outcomes plus
    ``identity``, which a resumed run must match.
    """

    def __init__(self, admissions: Sequence[SlotAdmission], *, identity: Any = None) -> None:
        self._admissions = list(admissions)
        self._identity = identity
        self.outcomes: List[SlotOutcome] = []

    def initial_admissions(self, engine: SlotEngine) -> List[SlotAdmission]:
        return list(self._admissions)

    def on_checkpoint(self, checkpoint: SlotCheckpoint) -> SlotDecision:
        finished = checkpoint.finished
        self.outcomes.extend(finished.values())
        return SlotDecision(keep=[i for i in range(len(checkpoint.rows)) if i not in finished])

    def describe(self, row: SlotRow) -> int:
        return row.payload

    def rebuild(self, token: int) -> Tuple[Any, Replica]:
        row, replica = self._admissions[token]
        return row.payload, replica

    def export_state(self) -> dict:
        return {
            "identity": self._identity,
            "outcomes": [
                (self.describe(o.row), o.local_steps, o.spikes, o.decode) for o in self.outcomes
            ],
        }

    def restore_state(self, state: dict) -> None:
        if state["identity"] != self._identity:
            raise CheckpointError(
                "checkpoint belongs to a different solve: its identity does not match this run's"
            )
        self.outcomes = [
            SlotOutcome(self._admissions[token][0], steps, spikes, decode)
            for token, steps, spikes, decode in state["outcomes"]
        ]

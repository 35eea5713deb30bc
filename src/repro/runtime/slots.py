"""Shared continuous-batching slot engine over :class:`BatchedNetwork`.

Three subsystems grew the same bit-exactness-critical slot lifecycle
independently: the batched constraint solver
(:func:`repro.csp.solver.solve_instances`), the restart-portfolio engine
(:func:`repro.csp.portfolio.solve_instances_portfolio`) and the solve
service (:class:`repro.serve.SolveService`).  Each hand-rolled the
global step loop over one exact-mode fused batch, the per-row *local*
step counters, the sliding-window decode bookkeeping and the
retain-then-extend batch recomposition.  :class:`SlotEngine` owns that
machinery once; what remains per subsystem is a :class:`SlotPolicy` —
the *scheduling* decision of which rows retire and which admissions
refill the freed slots at each decode checkpoint.

The engine's invariants (every consumer inherits them):

* **Rows, not networks.**  An admission is a :class:`SlotRow` plus a
  row spec (:class:`~repro.runtime.batch.BatchRow`, e.g. from
  ``SpikingCSPSolver.row``); a network is still accepted and read
  through the one adapter, :func:`~repro.runtime.batch.batch_row`.
* **Local step counters.**  Each :class:`SlotRow` records the global
  step count at admission (``offset``); its *local* step —
  ``global step - offset`` — drives its anneal phase (``step_offset``
  stamped into the row spec's drive spec at admission), its sliding-window
  slot and its spike-recency bookkeeping.  A row stacked into a
  half-finished batch therefore replays exactly the trajectory of a
  fresh standalone run.
* **Retain before extend.**  Batch recomposition always drops retired
  rows (:meth:`BatchedNetwork.retain`) *before* stacking admissions
  (:meth:`BatchedNetwork.extend`), with the ``extend([])`` /
  nothing-survives edge cases guarded in one place
  (:meth:`SlotEngine.recompose`): surviving rows' network state and
  noise streams are untouched by their neighbours' departures and
  arrivals.  Direct ``retain``/``extend`` calls outside
  ``repro/runtime/`` are forbidden (reprolint rule RL001,
  ``docs/LINTING.md``).
* **Checkpoint cadence.**  Rows are decoded when their local step hits
  the check interval or their local budget — the union mask over rows
  decides when a checkpoint fires, so mixed-offset batches check each
  row on its own standalone schedule.  The first
  :meth:`SlotEngine.decode_row` call of a checkpoint decodes every
  at-check row in one batched pass (:meth:`SlotDecoder.decode_rows`).
* **One retirement rule.**  :attr:`SlotCheckpoint.finished` holds the
  at-check rows whose decode solved or whose budget is spent; policies
  read it instead of re-deriving it.
* **Zero-step runs.**  ``max_steps <= 0`` never allocates a batch; the
  canonical zero-step window (:meth:`SlotEngine.empty_window`) decodes
  clamps only, identically across the solver, portfolio and serve
  layers.
* **One durable step.**  :meth:`SlotEngine.advance` is the only place a
  step, a policy decision, a periodic snapshot
  (:class:`~repro.runtime.checkpoint.CheckpointStore`) and an injected
  crash (:class:`~repro.runtime.checkpoint.FaultPlan`) meet; a
  :class:`DurablePolicy` names each live row with a picklable token, so
  :meth:`SlotEngine.run` resumes a killed solve bit-identically.

The engine is deliberately ignorant of constraint graphs: rows carry
``graph`` / ``clamps`` opaquely and decoding is delegated to an injected
:class:`SlotDecoder` (the CSP layers pass
``repro.csp.solver.CSP_SLOT_DECODER``), which keeps ``repro.runtime``
below ``repro.csp`` in the layering.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, cast

import numpy as np

from . import native
from .batch import BatchedNetwork, BatchRow, Replica, batch_row
from .checkpoint import CheckpointError, CheckpointStore, FaultPlan

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


#: The per-row books a snapshot carries, in snapshot order: ``(snapshot
#: key, attribute, row axis)``.  ``history`` rings the last ``window``
#: steps, so its rows lie on axis 1.  The keys stay literal strings (see
#: ``repro.runtime.batch._STATE``).
_BOOKS = (
    ("history", "_history", 1),
    ("window_counts", "_window_counts", 0),
    ("last_spike", "_last_spike", 0),
    ("row_spikes", "_row_spikes", 0),
)
#: What ``izh_books`` reads and updates in place, as ``(BooksBlock field,
#: engine attribute, dtype, per neuron)``: the books, then the rows'
#: offsets and budgets.  ``history`` is ``(window, R, N)``, the other
#: per-neuron arrays ``(R, N)``, the rest ``(R,)``.
_NATIVE_BOOKS = (
    ("history", "_history", np.bool_, True),
    ("window_counts", "_window_counts", np.int64, True),
    ("last_spike", "_last_spike", np.int64, True),
    ("row_spikes", "_row_spikes", np.int64, False),
    ("offsets", "_offsets", np.int64, False),
    ("budgets", "_budgets", np.int64, False),
)


class _NativeBooks:
    """The native books (``izh_books`` of :mod:`repro.runtime.native`) bound to one row set.

    Holds the C pointer block, the engine's books it points into and the
    per-row outputs of the last call (:attr:`local`, :attr:`at_check`,
    :attr:`at_budget`), which the next call overwrites.  Every
    recomposition, restore and teardown installs new book arrays, so
    :meth:`SlotEngine._install` binds a fresh one each time.
    """

    def __init__(self, books: Any, engine: "SlotEngine") -> None:
        count, size = len(engine.rows), int(engine.num_neurons or 0)
        self.local = np.zeros(count, dtype=np.int64)
        self.at_check = np.zeros(count, dtype=bool)
        self.at_budget = np.zeros(count, dtype=bool)
        block = native.BooksBlock(
            rows=count, size=size, window=engine._window, check_interval=engine._check_interval,
            local=self.local.ctypes.data, at_check=self.at_check.ctypes.data,
            at_budget=self.at_budget.ctypes.data,
        )
        pointed: List[np.ndarray] = []
        for field_name, attr, dtype, wide in _NATIVE_BOOKS:
            array = getattr(engine, attr)
            want = (count, size) if wide else (count,)
            if field_name == "history":
                want = (engine._window,) + want
            # The C loop trusts these; a converted copy would detach it from the books.
            if array.shape != want or array.dtype != dtype or not array.flags.c_contiguous:
                raise RuntimeError(f"slot books must be C-contiguous {want} stacks of {dtype}")
            setattr(block, field_name, array.ctypes.data)
            pointed.append(array)
        # Alive while the C loop may touch them.
        self._keep = (block, pointed)
        self._books = books
        self._block = ctypes.addressof(block)
        self._shape = (count, size)
        #: The fired masks seen so far (the batch swaps two), by id, with
        #: their addresses; holding the array keeps its id unique.
        self._masks: Dict[int, Tuple[np.ndarray, int]] = {}

    def __call__(self, step: int, fired: np.ndarray) -> int:
        """The books after global step ``step``; returns how many rows are at a check."""
        seen = self._masks.get(id(fired))
        if seen is None:
            if (fired.shape != self._shape or fired.dtype != np.bool_
                    or not fired.flags.c_contiguous):
                raise RuntimeError(f"the fired mask must be a C-contiguous {self._shape} bool array")
            if len(self._masks) >= 2:
                self._masks.clear()
            seen = self._masks[id(fired)] = (fired, fired.ctypes.data)
        return self._books(self._block, step, seen[1])


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
    which the batch restacks when it is refilled mid-run and carries in
    its snapshot.
    """

    # The per-row books (see _BOOKS); the per-neuron ones are ``None``
    # until the first admission fixes the neuron count.
    _history: Optional[np.ndarray]
    _window_counts: Optional[np.ndarray]
    _last_spike: Optional[np.ndarray]
    _row_spikes: np.ndarray
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
        self._install([], self._fresh_books(0))
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
    # Admission / retirement (the retain-before-extend owner)
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
        range, ``ValueError`` not strictly increasing).  The canonical
        composition order — retain survivors, then extend with
        admissions, rebuilding from scratch when nothing survives —
        together with the degenerate-shape guards (``extend([])`` no-op,
        empty recomposition) lives here and only here.  Admitted rows
        are stamped with the current global step: ``row.offset`` and
        their row spec's drive ``step_offset`` both become
        ``global_step``, so each new row's local phase sequence replays
        a standalone run's.
        """
        keep = list(keep)
        if any(i < 0 or i >= len(self._rows) for i in keep):
            raise IndexError(f"keep indices out of range for {len(self._rows)} rows")
        if any(b <= a for a, b in zip(keep, keep[1:])):
            raise ValueError("keep indices must be strictly increasing")
        admissions = list(admissions)
        if len(keep) == len(self._rows) and not admissions:
            return
        self._forget_decodes()
        new_rows = [self._rows[i] for i in keep]
        new_specs: List[BatchRow] = []
        for row, replica in admissions:
            spec = batch_row(replica)
            row.offset = self._step
            if spec.drive_spec is not None:
                spec.drive_spec.step_offset = self._step
            new_rows.append(row)
            new_specs.append(spec)
        if not new_rows:
            # Nothing survives and nothing arrives: tear the batch down.
            self._batch = None
            self._install([], self._fresh_books(0))
            return
        if self._num_neurons is None:
            self._num_neurons = new_specs[0].size
        if self._updates_per_step is None and new_specs:
            self._updates_per_step = int(self._num_neurons) * new_specs[0].substeps
        if keep and self._batch is not None:
            if len(keep) < len(self._rows):
                self._batch.retain(keep)
            if new_specs:  # the extend([]) guard, centralised
                self._batch.extend(new_specs)
        else:
            self._batch = BatchedNetwork.from_networks(new_specs)
        kept = np.asarray(keep, dtype=np.int64)
        books = self._fresh_books(len(new_specs))
        for _, attr, axis in _BOOKS:
            old = getattr(self, attr)
            if old is not None:
                books[attr] = np.concatenate([old.take(kept, axis=axis), books[attr]], axis=axis)
        self._install(new_rows, books)

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
        for key, attr, _ in _BOOKS:
            book = getattr(self, attr)
            state[key] = None if book is None else book.copy()
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

        Restoring onto an engine with live rows, or with a mismatched
        window/check-interval configuration, raises before mutating.
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
        self._forget_decodes()
        self._step = int(state["step"])
        self._num_neurons = state["num_neurons"]
        self._updates_per_step = state["updates_per_step"]
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
        books = self._fresh_books(len(rows))
        if rows:
            for key, attr, _ in _BOOKS:
                book = np.array(state[key], dtype=books[attr].dtype, copy=True, order="C")
                if book.shape != books[attr].shape:
                    self._install([], self._fresh_books(0))
                    raise ValueError("checkpoint bookkeeping arrays disagree with the row set")
                books[attr] = book
            self._batch = BatchedNetwork.from_networks([replica for _, replica in rebuilt])
            self._batch.restore_state(state["batch"])
        self._install(rows, books)

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

    def _fresh_books(self, count: int) -> Dict[str, Any]:
        """Books of ``count`` unstepped rows: empty windows, no recency, no spikes."""
        books: Dict[str, Any] = {attr: None for _, attr, _ in _BOOKS}
        books["_row_spikes"] = np.zeros(count, dtype=np.int64)
        if self._num_neurons is not None:
            shape = (count, int(self._num_neurons))
            books["_history"] = np.zeros((self._window,) + shape, dtype=bool)
            books["_window_counts"] = np.zeros(shape, dtype=np.int64)
            books["_last_spike"] = np.full(shape, -1, dtype=np.int64)
        return books

    def _install(self, rows: List[SlotRow], books: Dict[str, Any]) -> None:
        """Make ``rows`` the live rows, with their books (keyed by attribute)."""
        self._rows = rows
        for _, attr, _ in _BOOKS:
            setattr(self, attr, books[attr])
        self._offsets = np.asarray([r.offset for r in rows], dtype=np.int64)
        self._budgets = np.asarray([r.budget for r in rows], dtype=np.int64)
        self._row_index = np.arange(len(rows), dtype=np.int64)
        # The native books point into these very arrays: bind afresh.
        tally = native.books() if rows else None
        self._native_books = None if tally is None else _NativeBooks(tally, self)

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
        books = self._native_books
        if books is not None:
            if not books(self._step, fired):
                return None
            # Copies: the next call overwrites the outputs.
            local, at_check, at_budget = (
                books.local.copy(), books.at_check.copy(), books.at_budget.copy()
            )
        else:
            # The NumPy books: the reference of izh_books.
            local = self._step - self._offsets  # per-row local step (1-based)
            slot = local % self._window
            self._window_counts -= self._history[slot, self._row_index]
            self._history[slot, self._row_index] = fired
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

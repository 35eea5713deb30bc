"""Compiled drives: a batch's per-replica input closures as one ``(B, N)`` drive.

The exact-mode batch engine historically evaluated one external-input
closure per replica per step — ``B`` Python calls, ``B`` small RNG draws
and ``B`` temporary arrays every millisecond.  This module *compiles*
the declarative form of those closures, their drive specs, into one
vectorised drive that is **bit-identical** to calling the closures one
by one:

* every replica keeps its own independent noise stream (the generator
  its row spec owns — for a network, a clone of the one its closure
  would have consumed), so results remain bit-comparable with
  sequential runs;
* the streams are pregenerated in chunks of :data:`DEFAULT_CHUNK_STEPS`
  network steps with one ``standard_normal`` call per replica per chunk.
  NumPy's ``Generator.standard_normal`` fills output arrays sequentially
  from the underlying bit stream, so a ``(chunk, N)`` draw yields exactly
  the same values as ``chunk`` successive ``(N,)`` draws (locked down in
  ``tests/runtime/test_drives.py``);
* the per-step arithmetic (anneal amplitude, mask, drive offset, scale)
  runs as a handful of fused elementwise ``(B, N)`` operations matching
  the closure expressions term for term.

Closures advertise their compilability by carrying a ``drive_spec``
attribute (an :class:`AnnealedNoiseSpec`, attached by
:meth:`repro.csp.solver.SpikingCSPSolver.build_network`); the 80-20
workload's ``EightyTwentyNetwork.thalamic_input`` bound method is
recognised structurally (:func:`declared_spec`).
:func:`lift_drive_spec` is the one place a closure's spec is lifted,
with a clone of the closure's generator, so stacking a network never
perturbs its closure; the drives consume the generators their specs own
and never clone.

A drive has one owner, :class:`~repro.runtime.batch.BatchedNetwork`: it
compiles its rows' specs when they compile (:func:`drive_class` names
the drive of a spec family), steps each row's own closure when they do
not, restacks the drive with its rows and carries the drive's state in
its snapshot.  The two drives share one lifecycle — ``retain``,
``extend`` and ``export_state``/``restore_state``:
:class:`PortfolioAnnealedDrive`, the annealed drive of every constraint
solve, whose per-row anneal parameters and step offsets let a row
stacked in mid-run replay a standalone solve, and
:class:`CompiledScaledDrive`, the 80-20 thalamic input.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

from ..snn.eighty_twenty import EightyTwentyNetwork
from ..snn.network import InputProvider

__all__ = [
    "DEFAULT_CHUNK_STEPS",
    "AnnealedNoiseSpec",
    "ScaledNoiseSpec",
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "declared_spec",
    "drive_class",
    "lift_drive_spec",
]

#: Network steps of noise pregenerated per replica per generator call.
DEFAULT_CHUNK_STEPS = 32


@dataclass
class AnnealedNoiseSpec:
    """Declarative form of the constraint solver's annealed-noise closure.

    ``drive + amplitude(step) * standard_normal(N) * free_mask`` with
    ``amplitude(step) = noise_sigma * (1 - (1 - anneal_floor) * phase)``
    and ``phase = (step % anneal_period) / max(anneal_period, 1)``.
    """

    drive: np.ndarray
    free_mask: np.ndarray
    rng: np.random.Generator
    noise_sigma: float
    anneal_period: int
    anneal_floor: float
    #: Global step count already completed when this replica's run starts.
    #: The replica's *local* step — the one driving its anneal phase — is
    #: ``step - step_offset``.  Always 0 for ordinary batches; the
    #: restart-portfolio engine (:mod:`repro.csp.portfolio`) sets it so a
    #: replica stacked in mid-run sees the same phase sequence a fresh
    #: standalone solve would.
    step_offset: int = 0


@dataclass
class ScaledNoiseSpec:
    """Declarative form of a per-neuron-scaled noise drive (80-20 thalamic)."""

    scale: np.ndarray
    rng: np.random.Generator


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Snapshot a generator so a compiled drive never perturbs the source."""
    return copy.deepcopy(rng)


class _ChunkedNormals:
    """Per-replica standard-normal streams, pregenerated in step chunks.

    Each replica's stream is bit-identical to successive per-step
    ``standard_normal(num_values)`` draws from its generator, which this
    object consumes: the generators are owned by the specs handed in.
    """

    def __init__(
        self, rngs: Sequence[np.random.Generator], num_values: int, chunk_steps: int
    ) -> None:
        if chunk_steps < 1:
            raise ValueError("chunk_steps must be positive")
        self._rngs = list(rngs)
        self._chunk_steps = chunk_steps
        self._buffer = np.empty((len(self._rngs), chunk_steps, num_values), dtype=np.float64)
        self._row = chunk_steps  # force a refill on the first call

    def next_rows(self) -> np.ndarray:
        """The next ``(B, num_values)`` slab of every replica's stream."""
        if self._row == self._chunk_steps:
            for b, rng in enumerate(self._rngs):
                rng.standard_normal(out=self._buffer[b])
            self._row = 0
        rows = self._buffer[:, self._row, :]
        self._row += 1
        return rows

    def retain(self, keep: Sequence[int]) -> None:
        keep = list(keep)
        self._rngs = [self._rngs[i] for i in keep]
        self._buffer = np.ascontiguousarray(self._buffer[keep])

    def extend(self, rngs: Sequence[np.random.Generator]) -> None:
        """Append fresh per-replica streams, joining the chunk mid-flight.

        Each appended stream stays bit-identical to successive per-step
        draws from its generator: the new rows' remaining slots of the
        current chunk are filled with the stream's *first* draws, so the
        next :meth:`next_rows` calls consume them in order and the next
        refill continues each stream where it left off.
        """
        if not rngs:
            return
        num_values = self._buffer.shape[2]
        add = np.empty((len(rngs), self._chunk_steps, num_values), dtype=np.float64)
        remaining = self._chunk_steps - self._row
        if remaining > 0:
            for b, rng in enumerate(rngs):
                rng.standard_normal(out=add[b, self._row :])
        self._rngs.extend(rngs)
        self._buffer = np.concatenate([self._buffer, add])

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """A picklable snapshot of every stream: generators, unread draws, cursor.

        ``numpy.random.Generator`` pickles its full bit-generator state,
        so restoring the snapshot resumes each replica's stream at
        exactly the draw it would have produced next — the property the
        checkpoint/restore bit-identity contract rests on.  Only the
        chunk's unread slots are state; the ones already read are not
        exported.
        """
        return {
            "rngs": copy.deepcopy(self._rngs),
            "buffer": self._buffer[:, self._row :].copy(),
            "row": int(self._row),
            "chunk_steps": int(self._chunk_steps),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the streams with a snapshot of as many; checks before it writes."""
        if int(state["chunk_steps"]) != self._chunk_steps:
            raise ValueError(
                f"checkpoint chunk_steps {state['chunk_steps']} differs from "
                f"the live configuration {self._chunk_steps}"
            )
        row = int(state["row"])
        if not 0 <= row <= self._chunk_steps:
            raise ValueError(f"checkpoint chunk cursor {row} out of range")
        rngs = list(state["rngs"])
        unread = np.asarray(state["buffer"], dtype=np.float64)
        expected = (len(self._rngs), self._chunk_steps - row, self._buffer.shape[2])
        if len(rngs) != len(self._rngs) or unread.shape != expected:
            raise ValueError(
                f"checkpoint noise streams ({len(rngs)} generators, unread draws "
                f"{unread.shape}) do not match the live streams {expected}"
            )
        self._rngs = [_clone_rng(rng) for rng in rngs]
        self._buffer[:, row:] = unread
        self._row = row


class _StackedDrive:
    """One row per replica, stacked from drive specs, plus the replicas' noise streams.

    A drive names its spec family (``_SPEC``) and its per-row arrays
    (``_ROWS``: ``(snapshot key, attribute, spec field, dtype)`` in
    snapshot order, the first ``(B, N)`` wide) and evaluates one step in
    ``__call__``; this base stacks, restacks and snapshots the rows.  The
    keys stay literal strings: pickle memoises an interned string once
    per snapshot.
    """

    _SPEC: type
    _ROWS: tuple

    def __init__(self, specs: Sequence[Any], *, chunk_steps: int = DEFAULT_CHUNK_STEPS) -> None:
        if not specs:
            raise ValueError("cannot compile zero drives")
        for (_, attr, _, _), rows in zip(self._ROWS, self._rows_of(specs)):
            setattr(self, attr, rows)
        width = self._wide().shape[1]
        self._normals = _ChunkedNormals([s.rng for s in specs], width, chunk_steps)
        self._alloc()

    @classmethod
    def _rows_of(cls, specs: Sequence[Any]) -> List[np.ndarray]:
        """The specs' per-row arrays, in ``_ROWS`` order; ``ValueError`` on another family."""
        if not all(isinstance(spec, cls._SPEC) for spec in specs):
            raise ValueError(f"can only stack drive specs of kind {cls._SPEC.__name__}")
        return [
            np.asarray([getattr(s, field) for s in specs], dtype=dtype)
            for _, _, field, dtype in cls._ROWS
        ]

    def _wide(self) -> np.ndarray:
        """The ``(B, N)`` per-row array the output takes its shape from."""
        return getattr(self, self._ROWS[0][1])

    def _alloc(self) -> None:
        """Fit the output buffer to the live rows."""
        self._out = np.empty_like(self._wide())

    def retain(self, keep: Sequence[int]) -> None:
        """Drop every row not listed in ``keep``."""
        keep = list(keep)
        for _, attr, _, _ in self._ROWS:
            setattr(self, attr, getattr(self, attr)[keep])
        self._normals.retain(keep)
        self._alloc()

    def extend(self, specs: Sequence[Any]) -> None:
        """Stack fresh rows' specs onto the drive; their streams join the chunk mid-flight."""
        if not specs:
            return
        new_rows = self._rows_of(specs)
        if new_rows[0].shape[1:] != self._wide().shape[1:]:
            raise ValueError("stacked-in drive width differs from the live rows")
        for (_, attr, _, _), rows in zip(self._ROWS, new_rows):
            setattr(self, attr, np.concatenate([getattr(self, attr), rows]))
        self._normals.extend([s.rng for s in specs])
        self._alloc()

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """A picklable snapshot: the per-row arrays and the noise streams."""
        state = {key: getattr(self, attr).copy() for key, attr, _, _ in self._ROWS}
        state["normals"] = self._normals.export_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the live rows with an exported snapshot of as many rows.

        The restore path rebuilds the batch from *fresh* rows (live
        generators are not part of a row's identity) and then stamps this
        saved state over it, so the drive arrays, per-row offsets and
        noise cursors continue exactly where the snapshot left them.
        Everything is checked before anything is replaced.
        """
        arrays = []
        for key, attr, _, dtype in self._ROWS:
            arr = np.array(state[key], dtype=dtype)
            expected = getattr(self, attr).shape
            if arr.shape != expected:
                raise ValueError(
                    f"checkpoint drive array {key!r} has shape {arr.shape}, expected {expected}"
                )
            arrays.append((attr, arr))
        self._normals.restore_state(state["normals"])
        for attr, arr in arrays:
            setattr(self, attr, arr)
        self._alloc()


class PortfolioAnnealedDrive(_StackedDrive):
    """All replicas' annealed-noise drives as one vectorised drive.

    Batches stack rows that *started at different global steps* (the
    slot engine refills freed slots mid-run) and may run different
    anneal configurations (the restart portfolio diversifies them), so
    every row carries its own ``noise_sigma`` / ``anneal_period`` /
    ``anneal_floor`` and ``step_offset``: row ``b`` sees the amplitude a
    fresh standalone solve would see at its local step
    ``step - offset_b``.  The per-row amplitude arithmetic evaluates the
    closure expression term for term, elementwise in float64, so every
    row stays bit-identical to its sequential counterpart.
    """

    _SPEC = AnnealedNoiseSpec
    _ROWS = (
        ("drives", "_drives", "drive", np.float64),
        ("masks", "_masks", "free_mask", bool),
        ("sigma", "_sigma", "noise_sigma", np.float64),
        ("period", "_period", "anneal_period", np.int64),
        ("floor", "_floor", "anneal_floor", np.float64),
        ("offsets", "_offsets", "step_offset", np.int64),
    )
    _drives: np.ndarray
    _masks: np.ndarray
    _sigma: np.ndarray
    _period: np.ndarray
    _floor: np.ndarray
    _offsets: np.ndarray

    def _alloc(self) -> None:
        super()._alloc()
        self._noise = np.empty_like(self._drives)
        # max(period, 1) of the closure, vectorised once per composition.
        self._period_div = np.maximum(self._period, 1).astype(np.float64)

    def __call__(self, step: int) -> np.ndarray:
        # Per-row local phase; identical term order to the per-replica
        # closure, evaluated elementwise (IEEE float64 either way).
        local = step - self._offsets
        phase = (local % self._period) / self._period_div
        amplitude = self._sigma * (1.0 - (1.0 - self._floor) * phase)
        normals = self._normals.next_rows()
        np.multiply(normals, amplitude[:, None], out=self._noise)
        self._noise *= self._masks
        np.add(self._drives, self._noise, out=self._out)
        return self._out


class CompiledScaledDrive(_StackedDrive):
    """All replicas' scaled-noise (thalamic) drives as one vectorised drive."""

    _SPEC = ScaledNoiseSpec
    _ROWS = (("scales", "_scales", "scale", np.float64),)
    _scales: np.ndarray

    def __call__(self, step: int) -> np.ndarray:
        normals = self._normals.next_rows()
        np.multiply(normals, self._scales, out=self._out)
        return self._out


#: Former name of the one annealed drive, still wrapped by ``perfbench/tracing.py``.
CompiledAnnealedDrive = PortfolioAnnealedDrive

#: The drive of each spec family.
_DRIVES: Dict[type, Type[_StackedDrive]] = {
    d._SPEC: d for d in (PortfolioAnnealedDrive, CompiledScaledDrive)
}


def drive_class(specs: Sequence[Any], size: int) -> Optional[Type[_StackedDrive]]:
    """The drive stacking ``specs``, or ``None`` unless they are one family ``size`` wide."""
    drive = _DRIVES.get(type(specs[0])) if specs else None
    if drive is None:
        return None
    field = drive._ROWS[0][2]
    for spec in specs:
        if type(spec) is not drive._SPEC or np.shape(getattr(spec, field)) != (size,):
            return None
    return drive


def declared_spec(provider: Optional[InputProvider]) -> Optional[Any]:
    """The drive spec an input closure declares, or ``None`` for opaque or absent ones.

    The spec shares the live generator of the closure it describes.
    """
    if provider is None:
        return None
    spec = getattr(provider, "drive_spec", None)
    if spec is not None:
        return spec
    # The 80-20 thalamic input is a bound method of the network
    # definition; recognise it structurally and lift its config + live
    # generator into a spec.
    owner = getattr(provider, "__self__", None)
    if (
        isinstance(owner, EightyTwentyNetwork)
        and getattr(provider, "__func__", None) is EightyTwentyNetwork.thalamic_input
    ):
        cfg = owner.config
        scale = np.concatenate(
            [
                np.full(cfg.num_excitatory, cfg.thalamic_excitatory, dtype=np.float64),
                np.full(cfg.num_inhibitory, cfg.thalamic_inhibitory, dtype=np.float64),
            ]
        )
        return ScaledNoiseSpec(scale=scale, rng=owner.rng)
    return None


def lift_drive_spec(provider: Optional[InputProvider]) -> Optional[Any]:
    """The drive spec a closure declares, owning a clone of its generator.

    ``None`` for opaque or absent closures.  The clone is what keeps
    stacking a network from perturbing its closure: the closure's next
    draws stay those of a fresh same-seed generator.
    """
    spec = declared_spec(provider)
    return None if spec is None else replace(spec, rng=_clone_rng(spec.rng))

"""Compiled drives: a batch's per-replica input closures as one ``(B, N)`` drive.

The exact-mode batch engine historically evaluated one external-input
closure per replica per step — ``B`` Python calls and ``B`` temporary
arrays every millisecond.  This module *compiles* the declarative form
of those closures, their drive specs, into one vectorised drive that is
**bit-identical** to calling the closures one by one:

* every replica keeps its own independent noise stream (the generator
  its row spec owns — for a network, a clone of the one its closure
  would have consumed): each step draws ``rng.standard_normal(out=row)``
  once per row, the values the closure's ``standard_normal(N)`` draws,
  so retiring, admitting and snapshotting a row never touches another
  row's stream;
* the per-step arithmetic (anneal amplitude, mask, drive offset, scale)
  runs as a handful of fused elementwise ``(B, N)`` operations matching
  the closure expressions term for term.

A fixed-point batch on the native step (:mod:`repro.runtime.native`)
does not call a :class:`PortfolioAnnealedDrive` at all: the C step reads
its per-row arrays and each row's bit-generator address and evaluates
:meth:`PortfolioAnnealedDrive.__call__` term for term.  ``__call__``
stays the reference and the NumPy step's path.

Closures advertise their compilability by carrying a ``drive_spec``
attribute (an :class:`AnnealedNoiseSpec`, attached by
:meth:`repro.csp.solver.SpikingCSPSolver.build_network`); the 80-20
workload's ``EightyTwentyNetwork.thalamic_input`` bound method is
recognised structurally (:func:`declared_spec`).  Specs check their
fields when built: an anneal period is an integer of at least 1 and a
generator is a ``numpy.random.Generator``.  :func:`lift_drive_spec` is
the one place a closure's spec is lifted, with a clone of the closure's
generator, so stacking a network never perturbs its closure.

A drive has one owner, :class:`~repro.runtime.batch.BatchedNetwork`,
which compiles its rows' specs when they compile (:func:`drive_class`
names the drive of a spec family), recomposes the drive with its rows
and carries the drive's state in its snapshot.  A drive keeps its
per-row arrays in one :class:`~repro.runtime.rows.RowStack` — retained
in place, extended after the live rows — and shares one lifecycle,
``retain``, ``extend`` and ``export_state``/``restore_state``:
:class:`PortfolioAnnealedDrive`, the annealed drive of every constraint
solve, whose per-row anneal parameters and step offsets let a row
stacked in mid-run replay a standalone solve, and
:class:`CompiledScaledDrive`, the 80-20 thalamic input.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..snn.eighty_twenty import EightyTwentyNetwork
from ..snn.network import InputProvider
from .rows import Field, RowStack

__all__ = [
    "AnnealedNoiseSpec",
    "ScaledNoiseSpec",
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "declared_spec",
    "drive_class",
    "lift_drive_spec",
]


def _check_rng(rng: Any) -> None:
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"a drive spec's rng must be a numpy.random.Generator, not {type(rng).__name__}")


@dataclass
class AnnealedNoiseSpec:
    """Declarative form of the constraint solver's annealed-noise closure.

    ``drive + amplitude(step) * standard_normal(N) * free_mask`` with
    ``amplitude(step) = noise_sigma * (1 - (1 - anneal_floor) * phase)``
    and ``phase = (step % anneal_period) / anneal_period``.  Raises
    ``ValueError`` for an ``anneal_period`` that is not an integer of at
    least 1 and ``TypeError`` for an ``rng`` that is not a
    ``numpy.random.Generator``.
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

    def __post_init__(self) -> None:
        try:
            period = operator.index(self.anneal_period)
        except TypeError:
            raise ValueError(
                f"anneal_period must be an integer, not {type(self.anneal_period).__name__}"
            ) from None
        if period < 1:
            raise ValueError(f"anneal_period must be at least 1, got {period}")
        self.anneal_period = period
        _check_rng(self.rng)


@dataclass
class ScaledNoiseSpec:
    """Declarative form of a per-neuron-scaled noise drive (80-20 thalamic).

    Raises ``TypeError`` for an ``rng`` that is not a ``numpy.random.Generator``.
    """

    scale: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        _check_rng(self.rng)


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Snapshot a generator so a compiled drive never perturbs the source."""
    return copy.deepcopy(rng)


class _StackedDrive:
    """One row per replica, stacked from drive specs, plus each replica's generator.

    A drive names its spec family (``_SPEC``) and its per-row arrays
    (``_ROWS``: ``(snapshot key, attribute, spec field, dtype, (B, N)
    wide)`` in snapshot order, the first wide) and evaluates one step in
    ``__call__`` into ``_out``, drawing ``rng.standard_normal(out=row)``
    once per row.  This base keeps the arrays in one
    :class:`~repro.runtime.rows.RowStack`, which retains, extends and
    snapshots them, and the generators in ``_rngs`` (consumed in place:
    the specs own them).  The keys stay literal strings: pickle memoises
    an interned string once per snapshot.
    """

    _SPEC: type
    _ROWS: tuple
    _out: np.ndarray

    def __init__(self, specs: Sequence[Any]) -> None:
        if not specs:
            raise ValueError("cannot compile zero drives")
        self._width = np.shape(getattr(specs[0], self._ROWS[0][2]))
        self._stack = RowStack(self, self._fields(self._width))
        self._rngs: List[np.random.Generator] = []
        self.extend(specs)

    def _fields(self, width: Tuple[int, ...]) -> Dict[str, Field]:
        """The stack's fields for rows ``width`` wide: ``_ROWS``, then the scratch."""
        fields = {
            attr: Field(dtype, (None, *width) if wide else (None,), key)
            for key, attr, _, dtype, wide in self._ROWS
        }
        fields["_out"] = Field(np.float64, (None, *width), scratch=True)
        return fields

    def _rows_of(self, specs: Sequence[Any]) -> Dict[str, Any]:
        """The specs' per-row arrays by attribute; ``ValueError`` on another family or width."""
        if not all(isinstance(spec, self._SPEC) for spec in specs):
            raise ValueError(f"can only stack drive specs of kind {self._SPEC.__name__}")
        rows = {
            attr: np.asarray([getattr(s, field) for s in specs], dtype=dtype)
            for _, attr, field, dtype, _ in self._ROWS
        }
        if rows[self._ROWS[0][1]].shape[1:] != self._width:
            raise ValueError("stacked-in drive width differs from the live rows")
        return rows

    def retain(self, keep: Sequence[int]) -> None:
        """Drop every row not listed in ``keep`` (strictly increasing)."""
        self._stack.retain(keep)
        self._rngs = [self._rngs[i] for i in keep]

    def extend(self, specs: Sequence[Any]) -> bool:
        """Stack fresh rows' specs, and their generators, onto the drive.

        Returns whether the arrays were reallocated
        (:meth:`~repro.runtime.rows.RowStack.extend`).
        """
        if not specs:
            return False
        rows = self._rows_of(specs)
        self._rngs.extend(spec.rng for spec in specs)
        return self._stack.extend(len(specs), rows)

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """A picklable snapshot: the live per-row arrays and copies of the generators.

        A ``numpy.random.Generator`` pickles its full bit-generator
        state, so a restore resumes each stream at the very next draw.
        """
        state: Dict[str, Any] = self._stack.export()
        state["rngs"] = copy.deepcopy(self._rngs)
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the live rows with an exported snapshot of as many rows.

        The restore path rebuilds the batch from *fresh* rows and stamps
        this saved state over it.  Everything is checked before anything
        is replaced, and everything is replaced in place — the arrays by
        copy, each generator by its bit-generator state — so the
        addresses the native step holds stay valid.
        """
        arrays = self._stack.check(state, len(self._rngs))
        rngs = list(state["rngs"])
        kinds = [type(getattr(rng, "bit_generator", None)) for rng in rngs]
        if kinds != [type(rng.bit_generator) for rng in self._rngs]:
            raise ValueError(
                f"checkpoint noise streams ({len(rngs)} generators) do not match the "
                f"live streams ({len(self._rngs)}) in number or bit generator"
            )
        self._stack.restore(arrays)
        for live, saved in zip(self._rngs, rngs):
            live.bit_generator.state = saved.bit_generator.state


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
    row stays bit-identical to its sequential counterpart.  The native
    step reads ``_drives``, ``_masks``, ``_sigma``, ``_period``,
    ``_floor``, ``_offsets`` and ``_bitgens`` — each row's ``bitgen_t``
    address, a row of the stack like the others — and evaluates
    :meth:`__call__` in C.
    """

    _SPEC = AnnealedNoiseSpec
    _ROWS = (
        ("drives", "_drives", "drive", np.float64, True),
        ("masks", "_masks", "free_mask", bool, True),
        ("sigma", "_sigma", "noise_sigma", np.float64, False),
        ("period", "_period", "anneal_period", np.int64, False),
        ("floor", "_floor", "anneal_floor", np.float64, False),
        ("offsets", "_offsets", "step_offset", np.int64, False),
    )
    _drives: np.ndarray
    _masks: np.ndarray
    _sigma: np.ndarray
    _period: np.ndarray
    _floor: np.ndarray
    _offsets: np.ndarray
    _bitgens: np.ndarray
    _noise: np.ndarray

    def _fields(self, width: Tuple[int, ...]) -> Dict[str, Field]:
        fields = super()._fields(width)
        fields["_bitgens"] = Field(np.uintp)
        fields["_noise"] = Field(np.float64, (None, *width), scratch=True)
        return fields

    def _rows_of(self, specs: Sequence[Any]) -> Dict[str, Any]:
        rows = super()._rows_of(specs)
        rows["_bitgens"] = [spec.rng.bit_generator.ctypes.bit_generator.value for spec in specs]
        return rows

    def restore_state(self, state: dict) -> None:
        # The native step divides by the period: refuse one no spec allows.
        if np.any(np.asarray(state["period"]) < 1):
            raise ValueError("checkpoint anneal periods must be at least 1")
        super().restore_state(state)

    def __call__(self, step: int) -> np.ndarray:
        # Per-row local phase; identical term order to the per-replica
        # closure, evaluated elementwise (IEEE float64 either way).
        local = step - self._offsets
        phase = (local % self._period) / self._period
        amplitude = self._sigma * (1.0 - (1.0 - self._floor) * phase)
        noise = self._noise
        for row, rng in zip(noise, self._rngs):
            rng.standard_normal(out=row)
        noise *= amplitude[:, None]
        noise *= self._masks
        np.add(self._drives, noise, out=self._out)
        return self._out


class CompiledScaledDrive(_StackedDrive):
    """All replicas' scaled-noise (thalamic) drives as one vectorised drive."""

    _SPEC = ScaledNoiseSpec
    _ROWS = (("scales", "_scales", "scale", np.float64, True),)
    _scales: np.ndarray

    def __call__(self, step: int) -> np.ndarray:
        out = self._out
        for row, rng in zip(out, self._rngs):
            rng.standard_normal(out=row)
        out *= self._scales
        return out


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

"""Compiled batched external-input providers (drive compilation).

The exact-mode batch engine historically evaluated one external-input
closure per replica per step — ``B`` Python calls, ``B`` small RNG draws
and ``B`` temporary arrays every millisecond.  This module *compiles*
those per-replica closures into a single ``(B, N)`` vectorised provider
that is **bit-identical** to calling the closures one by one:

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
recognised structurally.  :func:`lift_drive_spec` is the one place a
closure's spec is lifted, with a clone of the closure's generator, so
compiling never perturbs the source; the drives themselves consume the
generators their specs own and never clone.
:func:`compile_batched_external` returns ``None`` when any provider
cannot be compiled, in which case the batch engine falls back to the
per-replica loop.

There are two providers.  :class:`PortfolioAnnealedDrive` is the one
annealed drive: every slot-engine batch (one-shot solves, the restart
portfolio, the solve service) runs on it, with per-row anneal
parameters and step offsets, :meth:`~PortfolioAnnealedDrive.extend` for
mid-run refills and ``export_state``/``restore_state`` for checkpoints.
:class:`CompiledScaledDrive` serves the 80-20 thalamic input.  Both
support ``retain`` (drop replicas) so a batch can shrink its active set
together with the network state, and declare ``batch_shape`` so
:class:`~repro.runtime.batch.BatchedNetwork` validates the output shape
once at construction instead of every step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence

import numpy as np

from ..snn.eighty_twenty import EightyTwentyNetwork
from ..snn.network import SNNNetwork

__all__ = [
    "DEFAULT_CHUNK_STEPS",
    "AnnealedNoiseSpec",
    "ScaledNoiseSpec",
    "CompiledDrive",
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "compile_batched_external",
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
        """A picklable snapshot of every stream: generators, buffer, cursor.

        ``numpy.random.Generator`` pickles its full bit-generator state,
        so restoring the snapshot resumes each replica's stream at
        exactly the draw it would have produced next — the property the
        checkpoint/restore bit-identity contract rests on.
        """
        return {
            "rngs": copy.deepcopy(self._rngs),
            "buffer": self._buffer.copy(),
            "row": int(self._row),
            "chunk_steps": int(self._chunk_steps),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the streams wholesale with an exported snapshot."""
        if int(state["chunk_steps"]) != self._chunk_steps:
            raise ValueError(
                f"checkpoint chunk_steps {state['chunk_steps']} differs from "
                f"the live configuration {self._chunk_steps}"
            )
        buffer = np.asarray(state["buffer"], dtype=np.float64)
        rngs = list(state["rngs"])
        if buffer.ndim != 3 or buffer.shape[0] != len(rngs):
            raise ValueError("checkpoint noise buffer does not match its generator list")
        if buffer.shape[1] != self._chunk_steps or buffer.shape[2] != self._buffer.shape[2]:
            raise ValueError(
                f"checkpoint noise buffer shape {buffer.shape} does not match "
                f"the live stream width {self._buffer.shape[1:]}"
            )
        row = int(state["row"])
        if not 0 <= row <= self._chunk_steps:
            raise ValueError(f"checkpoint chunk cursor {row} out of range")
        self._rngs = [_clone_rng(rng) for rng in rngs]
        self._buffer = buffer.copy()
        self._row = row


class CompiledDrive:
    """Base of the compiled providers: shape contract plus retain plumbing."""

    batch_shape: tuple

    def __call__(self, step: int) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def retain(self, keep: Sequence[int]) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class PortfolioAnnealedDrive(CompiledDrive):
    """All replicas' annealed-noise drives as one vectorised provider.

    Batches stack rows that *started at different global steps* (the
    slot engine refills freed slots mid-run) and may run different
    anneal configurations (the restart portfolio diversifies them), so
    every row carries its own ``noise_sigma`` / ``anneal_period`` /
    ``anneal_floor`` and ``step_offset``: row ``b`` sees the amplitude a
    fresh standalone solve would see at its local step
    ``step - offset_b``.  The per-row amplitude arithmetic evaluates the
    closure expression term for term, elementwise in float64, so every
    row stays bit-identical to its sequential counterpart.

    Besides :meth:`retain`, this provider supports :meth:`extend`: the
    :class:`AnnealedNoiseSpec` of fresh rows (offset included) are
    stacked onto the live rows, joining the pregenerated noise chunk
    mid-flight.  Either way the drive consumes the generators the specs
    own.
    """

    #: Per-row arrays as ``(snapshot key, attribute, spec field, dtype)``,
    #: in snapshot order.  The keys stay literal strings: pickle memoises
    #: an interned string once per snapshot.
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

    def __init__(
        self, specs: Sequence[AnnealedNoiseSpec], *, chunk_steps: int = DEFAULT_CHUNK_STEPS
    ) -> None:
        if not specs:
            raise ValueError("cannot compile zero drives")
        for (_, attr, _, _), rows in zip(self._ROWS, self._rows_of(specs)):
            setattr(self, attr, rows)
        self._normals = _ChunkedNormals([s.rng for s in specs], self._drives.shape[1], chunk_steps)
        self._alloc()

    @classmethod
    def _rows_of(cls, specs: Sequence[AnnealedNoiseSpec]) -> List[np.ndarray]:
        """The specs' per-row arrays, in ``_ROWS`` order; ``ValueError`` on another kind."""
        if not all(isinstance(spec, AnnealedNoiseSpec) for spec in specs):
            raise ValueError("can only stack rows whose drive spec is an annealed-noise spec")
        return [
            np.asarray([getattr(s, field) for s in specs], dtype=dtype)
            for _, _, field, dtype in cls._ROWS
        ]

    def _alloc(self) -> None:
        self._noise = np.empty_like(self._drives)
        self._out = np.empty_like(self._drives)
        self.batch_shape = self._drives.shape
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

    def retain(self, keep: Sequence[int]) -> None:
        keep = list(keep)
        for _, attr, _, _ in self._ROWS:
            setattr(self, attr, getattr(self, attr)[keep])
        self._normals.retain(keep)
        self._alloc()

    def extend(self, specs: Sequence[AnnealedNoiseSpec]) -> None:
        """Stack fresh rows' annealed-noise specs onto the batch."""
        if not specs:
            return
        new_rows = self._rows_of(specs)
        if new_rows[0].shape[1:] != self._drives.shape[1:]:
            raise ValueError("stacked-in drive width differs from the live batch")
        for (_, attr, _, _), rows in zip(self._ROWS, new_rows):
            setattr(self, attr, np.concatenate([getattr(self, attr), rows]))
        self._normals.extend([s.rng for s in specs])
        self._alloc()

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """A picklable snapshot: per-row anneal params, offsets, streams."""
        state = {key: getattr(self, attr).copy() for key, attr, _, _ in self._ROWS}
        state["normals"] = self._normals.export_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the provider wholesale with an exported snapshot.

        The restore path rebuilds the batch from *fresh* rows (live
        generators are not part of a row's identity) and then stamps this
        saved state over it, so the drive amplitudes, per-row offsets and
        noise cursors continue exactly where the snapshot left them.
        """
        rows = np.shape(state["drives"])[:1]  # (row count,)
        arrays = []
        for key, attr, _, dtype in self._ROWS:
            arr = np.array(state[key], dtype=dtype)
            expected = rows + getattr(self, attr).shape[1:]
            if arr.shape != expected:
                raise ValueError(
                    f"checkpoint drive array {key!r} has shape {arr.shape}, expected {expected}"
                )
            arrays.append((attr, arr))
        self._normals.restore_state(state["normals"])
        if (len(self._normals._rngs),) != rows:
            raise ValueError("checkpoint noise streams disagree with the drive row count")
        for attr, arr in arrays:
            setattr(self, attr, arr)
        self._alloc()


class CompiledScaledDrive(CompiledDrive):
    """All replicas' scaled-noise (thalamic) drives as one provider."""

    def __init__(
        self, specs: Sequence[ScaledNoiseSpec], *, chunk_steps: int = DEFAULT_CHUNK_STEPS
    ) -> None:
        if not specs:
            raise ValueError("cannot compile zero drives")
        self._scales = np.stack([np.asarray(s.scale, dtype=np.float64) for s in specs])
        num_values = self._scales.shape[1]
        self._normals = _ChunkedNormals([s.rng for s in specs], num_values, chunk_steps)
        self._out = np.empty_like(self._scales)
        self.batch_shape = self._scales.shape

    def __call__(self, step: int) -> np.ndarray:
        normals = self._normals.next_rows()
        np.multiply(normals, self._scales, out=self._out)
        return self._out

    def retain(self, keep: Sequence[int]) -> None:
        keep = list(keep)
        self._scales = np.ascontiguousarray(self._scales[keep])
        self._normals.retain(keep)
        self._out = np.empty_like(self._scales)
        self.batch_shape = self._scales.shape


#: Former name of the one annealed drive, still wrapped by ``perfbench/tracing.py``.
CompiledAnnealedDrive = PortfolioAnnealedDrive


def _spec_of(network: SNNNetwork) -> Optional[Any]:
    """The drive spec of a network's external provider, or ``None``.

    The spec shares the live generator of the closure it describes.
    """
    provider = network.external_input
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


def _owned(spec: Any) -> Any:
    """A copy of ``spec`` owning a clone of its generator."""
    return replace(spec, rng=_clone_rng(spec.rng))


def lift_drive_spec(network: SNNNetwork) -> Optional[Any]:
    """The drive spec of a network's provider, owning a clone of its generator.

    ``None`` for opaque or absent providers.  The clone is what keeps
    stacking a network from perturbing its closure: the closure's next
    draws stay those of a fresh same-seed generator.
    """
    spec = _spec_of(network)
    return None if spec is None else _owned(spec)


def compile_batched_external(
    networks: Sequence[SNNNetwork], *, chunk_steps: int = DEFAULT_CHUNK_STEPS
) -> Optional[CompiledDrive]:
    """Compile the networks' per-replica input closures into one provider.

    Returns a :class:`CompiledDrive` producing ``(B, N)`` arrays
    bit-identical to the per-replica closure outputs — a
    :class:`PortfolioAnnealedDrive` for annealed specs, whatever their
    anneal configurations — or ``None`` when any closure is unrecognised
    (opaque callables, mixed drive families, differing widths); callers
    then fall back to the per-replica loop, which handles every provider.
    The drive runs on clones of the closures' generators.
    """
    sources: List[Any] = []
    for network in networks:
        spec = _spec_of(network)
        if spec is None:
            return None
        sources.append(spec)
    # Replicas sharing one generator object would interleave a single
    # stream when run per replica; independent clones cannot reproduce
    # that, so such batches are not compilable.
    if len({id(s.rng) for s in sources}) != len(sources):
        return None
    if all(isinstance(s, AnnealedNoiseSpec) for s in sources):
        if len({s.drive.shape for s in sources}) != 1:
            return None
        return PortfolioAnnealedDrive([_owned(s) for s in sources], chunk_steps=chunk_steps)
    if all(isinstance(s, ScaledNoiseSpec) for s in sources):
        if len({s.scale.shape for s in sources}) != 1:
            return None
        return CompiledScaledDrive([_owned(s) for s in sources], chunk_steps=chunk_steps)
    return None

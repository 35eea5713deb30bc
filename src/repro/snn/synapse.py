"""Synaptic connectivity and current handling for SNN simulations.

Two connectivity containers are provided:

* :class:`DenseSynapses` — a full weight matrix, as used by Izhikevich's
  80-20 network (every neuron connects to every other neuron).
* :class:`SparseSynapses` — compressed sparse connectivity, as used by the
  Sudoku Winner-Takes-All network where each neuron inhibits only the
  digits in its row, column, 3x3 box and cell.

Both expose ``propagate(fired)``: the synaptic current delivered to every
postsynaptic neuron given the boolean array of presynaptic spikes, i.e.
``I_j = Σ_i W[j, i] · fired[i]`` (weights are indexed ``[post, pre]``).

:class:`CurrentState` models the synaptic current book-keeping of the
processor: either recomputed from scratch every network step (Izhikevich's
original script) or accumulated and exponentially decayed with the DCU's
shift-add approximation (the ``nmdec`` path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np
from scipy import sparse

from ..fixedpoint import Q15_16
from .fixed_izhikevich import decay_current_raw

__all__ = ["DenseSynapses", "SparseSynapses", "CurrentState", "quantize_weights_q15_16"]


def quantize_weights_q15_16(weights: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Quantise a weight array to raw Q15.16 ``int64`` payloads.

    Returns ``(raw, lossless)`` where ``lossless`` is ``True`` iff every
    weight is *exactly* representable in Q15.16 (no rounding, no
    saturation).  Lossless weights are the precondition of the batched
    integer propagation path: when they hold, any float64 summation of
    the weights is exact (every partial sum is an integer multiple of
    ``2**-16`` well inside the 53-bit mantissa), so an integer gather +
    reduction is bit-identical to the sequential float propagation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    raw = np.asarray(Q15_16.from_float(weights), dtype=np.int64)
    lossless = bool(np.all(raw.astype(np.float64) / Q15_16.scale == weights))
    return raw, lossless


class DenseSynapses:
    """All-to-all connectivity backed by a dense ``[post, pre]`` matrix."""

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weight matrix must be 2-D [post, pre]")
        self.weights = weights
        # Column-gather scratch, sized to the observed firing counts and
        # grown geometrically (firing is typically sparse, so worst-case
        # ``(post, pre)`` sizing would waste weights-sized memory per
        # instance).  Fortran order keeps the ``[:, :k]`` slice
        # contiguous so the gather writes straight into it instead of
        # materialising a fresh ``(post, k)`` array per step.
        self._gather_scratch: Optional[np.ndarray] = None

    @property
    def num_pre(self) -> int:
        return self.weights.shape[1]

    @property
    def num_post(self) -> int:
        return self.weights.shape[0]

    @property
    def num_synapses(self) -> int:
        """Number of non-zero synapses."""
        return int(np.count_nonzero(self.weights))

    def quantized_q15_16(self) -> Tuple[np.ndarray, bool]:
        """Raw Q15.16 weights plus the lossless-quantisation flag."""
        return quantize_weights_q15_16(self.weights)

    def propagate(self, fired: np.ndarray) -> np.ndarray:
        """Synaptic current delivered by the firing presynaptic neurons."""
        fired = np.asarray(fired, dtype=bool)
        if fired.shape[0] != self.num_pre:
            raise ValueError("fired mask length does not match presynaptic count")
        idx = np.flatnonzero(fired)
        if idx.size == 0:
            return np.zeros(self.num_post, dtype=np.float64)
        # Gather the firing columns into the preallocated scratch and
        # pairwise-sum them.  NumPy's pairwise reduction depends only on
        # the reduction length, not the memory layout, so this is
        # bit-identical to the historical ``weights[:, fired].sum(axis=1)``
        # (locked down in tests/snn) without the per-step column copy.
        if self._gather_scratch is None or self._gather_scratch.shape[1] < idx.size:
            width = min(self.num_pre, 2 * idx.size)
            self._gather_scratch = np.empty((self.num_post, width), order="F")
        columns = self._gather_scratch[:, : idx.size]
        np.take(self.weights, idx, axis=1, out=columns)
        return columns.sum(axis=1)


class SparseSynapses:
    """Sparse connectivity backed by a CSC matrix (efficient column gather)."""

    def __init__(self, matrix: sparse.spmatrix) -> None:
        self.matrix = sparse.csc_matrix(matrix, dtype=np.float64)
        #: Read-only raw Q15.16 payloads, kept once a quantisation proved
        #: lossless (see :meth:`quantized_q15_16`).
        self._lossless_raw: Optional[np.ndarray] = None

    @classmethod
    def from_triplets(
        cls, triplets: Iterable[Tuple[int, int, float]], *, num_neurons: int
    ) -> "SparseSynapses":
        """Build from ``(pre, post, weight)`` triplets."""
        pres, posts, weights = [], [], []
        for pre, post, w in triplets:
            pres.append(pre)
            posts.append(post)
            weights.append(w)
        matrix = sparse.coo_matrix(
            (weights, (posts, pres)), shape=(num_neurons, num_neurons)
        )
        return cls(matrix)

    @property
    def num_pre(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_post(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_synapses(self) -> int:
        return int(self.matrix.nnz)

    def quantized_q15_16(self) -> Tuple[np.ndarray, bool]:
        """Raw Q15.16 payloads of ``matrix.data`` plus the lossless flag.

        A lossless result is memoised (read-only): the matrix is never
        mutated after construction, and the batch engine asks again for
        every live row at each recomposition.  Lossy payloads are never
        kept; the batch falls back to float propagation after its first
        ask, so they are not requested again.
        """
        if self._lossless_raw is not None:
            return self._lossless_raw, True
        raw, lossless = quantize_weights_q15_16(self.matrix.data)
        if lossless:
            raw.flags.writeable = False
            self._lossless_raw = raw
        return raw, lossless

    def propagate(self, fired: np.ndarray) -> np.ndarray:
        """Synaptic current delivered by the firing presynaptic neurons."""
        fired = np.asarray(fired, dtype=bool)
        if fired.shape[0] != self.num_pre:
            raise ValueError("fired mask length does not match presynaptic count")
        if not fired.any():
            return np.zeros(self.num_post, dtype=np.float64)
        indicator = fired.astype(np.float64)
        return np.asarray(self.matrix @ indicator).ravel()

    def out_degree(self) -> np.ndarray:
        """Number of outgoing synapses per presynaptic neuron."""
        return np.asarray((self.matrix != 0).sum(axis=0)).ravel()

    def in_degree(self) -> np.ndarray:
        """Number of incoming synapses per postsynaptic neuron."""
        return np.asarray((self.matrix != 0).sum(axis=1)).ravel()


@dataclass
class CurrentState:
    """Synaptic current book-keeping with optional DCU-style decay.

    Parameters
    ----------
    num_neurons:
        Population size.
    mode:
        ``"recompute"`` — the current is rebuilt from external input plus
        this step's synaptic events (Izhikevich's original script);
        ``"decay"`` — the current persists across steps and decays through
        the DCU approximation before new events are added.
    tau_select:
        DCU decay selector (1..9), only used in ``"decay"`` mode.
    h_shift:
        Timestep shift used by the decay (1 → 0.5 ms, 3 → 0.125 ms).
    """

    num_neurons: int
    mode: str = "recompute"
    tau_select: int = 4
    h_shift: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("recompute", "decay"):
            raise ValueError(f"unknown current mode {self.mode!r}")
        self.current = np.zeros(self.num_neurons, dtype=np.float64)

    def update(self, external: np.ndarray, synaptic: np.ndarray) -> np.ndarray:
        """Advance one network step and return the current seen by the neurons."""
        external = np.asarray(external, dtype=np.float64)
        synaptic = np.asarray(synaptic, dtype=np.float64)
        if self.mode == "recompute":
            self.current = external + synaptic
        else:
            raw = np.asarray(Q15_16.from_float(self.current), dtype=np.int64)
            raw = decay_current_raw(raw, self.tau_select, self.h_shift)
            self.current = np.asarray(Q15_16.to_float(raw)) + external + synaptic
        return self.current

    def reset(self) -> None:
        """Zero the stored current."""
        self.current = np.zeros(self.num_neurons, dtype=np.float64)

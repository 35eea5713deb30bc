"""Vectorised batch engine: advance ``B`` independent networks at once.

The sequential :class:`~repro.snn.network.SNNNetwork` drives one network
per Python loop iteration, so a seed sweep of the 80-20 workload or a
multi-puzzle Sudoku solve-rate run pays the NumPy dispatch overhead of
every small array operation ``B`` times per step.  :class:`BatchedNetwork`
stacks the state of ``B`` *compatible* networks into ``(B, N)`` arrays and
advances all of them in one fused update per step, amortising that
overhead across the whole batch.

Two operating points are supported, selected by ``synapse_mode``:

``"exact"`` (default)
    The batched run is **bit-exact** with ``B`` sequential
    ``SNNNetwork.run`` calls — bit-identical spike rasters for the
    fixed-point backend and bit-identical float64 trajectories for the
    reference backend.  Whenever the connectivity is sparse and every
    synaptic weight is exactly representable in Q15.16 (the WTA
    constraint networks, whose weights are small integers), propagation
    runs through the **integer CSR kernel**: the weights are quantised to
    raw ``int64`` once at stack time and one batched gather + segmented
    integer reduction delivers the synaptic current of all ``B``
    replicas at once.  Integer adds commute, so the fused reduction is
    bit-identical to the sequential per-replica propagation *by
    construction* — this path is the default for every batch that
    qualifies.  Everything else (e.g. the 80-20 network's dense random
    weights) runs the per-replica propagation with the identical
    sequential expressions.

``"fused"``
    Dense connectivity (the 80-20 network) is propagated for the whole
    batch at once: a float gather + segmented reduction over the stacked
    weight matrices.  Floating-point summation order then differs from
    the sequential column reduction, so results are numerically
    equivalent (same distribution, ULP-level differences in the synaptic
    current) but not guaranteed bit-identical.  This is the
    high-throughput mode used by the 80-20 seed-sweep benchmarks.  Sparse
    batches propagate exactly as in ``"exact"`` mode: through the integer
    kernel when their weights qualify (so fused *is* bit-exact there),
    per replica otherwise.

A batch owns its input.  At construction it compiles its rows' drive
specs into one ``(B, N)`` drive (:mod:`repro.runtime.drives`) when every
row has a spec, the specs are one family as wide as the batch, and no
two rows draw from one generator at the source (judged on a network's
closure generator, not on the clone its row owns); otherwise it calls
each row's own closure every step.  :meth:`BatchedNetwork.retain` and
:meth:`BatchedNetwork.extend` restack the drive with the rows, and
:meth:`BatchedNetwork.export_state` carries its state.

Every fixed-point step sums its current at scale ``2^16``
(:meth:`BatchedNetwork._fixed_isyn_raw`): the drive current times
``2^16``, the decayed raw current, then the integer kernel's raw sum (or
a float synaptic current times ``2^16``), rounded once by
:func:`_quantize_scaled_q15_16`.  Scaling by a power of two commutes with
float rounding, so this is bit-identical to the sequential
``Q15_16.from_float((decayed + external) + synaptic)`` without its
float round-trip.  In ``"decay"`` current mode the engine carries the
quantised current as raw integer state across steps, so the per-step
re-quantisation of the float current disappears entirely.

Every per-replica array is one row of a ``(B, N)`` stack, named in one
place (``_STATE`` and ``_PARAMS``).  A replica enters a batch as a
:class:`BatchRow` — its layout, connectivity, 1-D arrays and inputs —
and :meth:`BatchedNetwork._rows_of` is the one reader that stacks them.
Solvers build row specs directly (``SpikingCSPSolver.row``);
:func:`batch_row` is the one adapter that reads an :class:`SNNNetwork`
into one.  Batches shrink and grow along those rows:
:meth:`BatchedNetwork.retain` drops replicas (e.g. solver instances that
already converged) so late steps only advance the survivors, and
:meth:`BatchedNetwork.extend` stacks fresh ones in.  Spike
recording in :meth:`BatchedNetwork.run` goes through a preallocated
bit-packed buffer (one bit per neuron-step) instead of a ``(T, B, N)``
bool cube.

The fixed-point update is fused through :class:`_FixedBatchKernel`, a
scratch-buffer reimplementation of the integer datapath that is
bit-identical to :func:`repro.sim.npu.izhikevich_update_raw` by
construction (integer arithmetic is exact, so reassociating the adds and
reusing buffers cannot change results); ``tests/runtime`` locks the
equivalence down with randomized cross-checks.  The pure-integer regions
carrying that proof are marked ``# reprolint: exact-int`` — reprolint's
RL003 rule (``docs/LINTING.md``) fails the lint on any float literal,
true division or float cast introduced inside them.

A fixed-point batch has two step paths.  The *NumPy step* (the drive,
:meth:`BatchedNetwork._fixed_isyn_raw`, then ``2^h`` calls of
:meth:`_FixedBatchKernel.substep`) is the reference and runs everywhere.
The *native step* does the same work term for term in one C call
(``native_step.c``, loaded by :mod:`repro.runtime.native`): a
:class:`~repro.runtime.drives.PortfolioAnnealedDrive` with its noise,
drawn from each row's own bit generator; the integer synaptic scatter,
the current sum and its quantiser, and every substep.  A batch takes it
when it is fixed-point, its synapses run on the integer kernel or are
absent, and the library loaded; otherwise, and on hosts without a C
compiler or NumPy's ``npyrandom`` archive, it takes the NumPy step.
Both paths carry the same state arrays and generators, so results,
snapshots and restores are identical on either;
:attr:`BatchedNetwork.native_step` tells which one a batch runs.  A step
whose current is NaN raises :class:`FloatingPointError` on either path
and leaves ``v``, ``u``, the last-fired mask and the current feed as it
found them; every row's noise stream has still advanced by one step.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Type, Union

import numpy as np

from ..fixedpoint import Q7_8, Q15_16
from ..sim.dcu import SHIFT_SELECTIONS
from ..sim.npu import _COEFF_004_Q4_11, _CONST_140_ACC, _VTH_RAW
from ..snn.analysis import SpikeRaster
from ..snn.fixed_izhikevich import FixedPointPopulation
from ..snn.izhikevich import euler_step
from ..snn.network import InputProvider, SNNNetwork, Synapses
from ..snn.synapse import DenseSynapses, SparseSynapses
from . import native
from .drives import PortfolioAnnealedDrive, declared_spec, drive_class, lift_drive_spec

__all__ = ["BatchRow", "BatchedNetwork", "BatchIncompatibleError", "batch_row"]

_Q7_8_MIN, _Q7_8_MAX = Q7_8.raw_min, Q7_8.raw_max
_Q15_16_MIN, _Q15_16_MAX = Q15_16.raw_min, Q15_16.raw_max
# NumPy-scalar clip bounds: saves the per-call Python-int -> dtype
# inspection inside np.clip on the hot substep path.
_Q7_8_MIN_I, _Q7_8_MAX_I = np.int64(_Q7_8_MIN), np.int64(_Q7_8_MAX)
_Q15_16_MIN_I, _Q15_16_MAX_I = np.int64(_Q15_16_MIN), np.int64(_Q15_16_MAX)

# The clip ufunc without np.clip's four Python wrapper frames — worth
# several microseconds per call on the substep hot path.  Falls back to
# the public wrapper if NumPy moves the internal namespace again.
try:  # pragma: no cover - depends on the installed NumPy
    _clip = np._core.umath.clip
except AttributeError:  # pragma: no cover
    _clip = np.clip
_ACC_FROM_Q7_8 = 16 - Q7_8.frac_bits  # promote Q7.8 raw to the Q?.16 accumulator
_BV_SHIFT = 11 + Q7_8.frac_bits - 16  # align b*v (Q4.11 * Q7.8) to 16 frac bits
#: Largest ``h_shift`` the native step takes (``nmldh`` selects 1 or 3).
_NATIVE_MAX_H_SHIFT = 8
#: ``BatchedNetwork._native`` before the first step of a composition.
_UNBOUND: Any = object()


class BatchIncompatibleError(ValueError):
    """Raised when the networks handed to the batch engine cannot be stacked."""


# reprolint: exact-int -- pure int64 shift network (decay path)
def _decay_raw(
    isyn_raw: np.ndarray, tau_select: int, h_shift: int, delta: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Scratch-buffer twin of :func:`repro.snn.fixed_izhikevich.decay_current_raw`, into ``out``.

    Same integer shift-add network (``I - (approx(I / tau) >> h)`` with
    Q15.16 saturation), minus the per-step temporaries — integer ops are
    exact, so reusing buffers cannot change the result.  ``isyn_raw`` is
    only read; ``delta`` and ``out`` alias neither it nor each other.
    """
    shifts = SHIFT_SELECTIONS[tau_select]
    np.right_shift(isyn_raw, shifts[0], out=delta)
    for shift in shifts[1:]:
        np.right_shift(isyn_raw, shift, out=out)
        delta += out
    np.right_shift(delta, h_shift, out=delta)
    np.subtract(isyn_raw, delta, out=out)
    _clip(out, _Q15_16_MIN_I, _Q15_16_MAX_I, out)
    return out


def _quantize_scaled_q15_16(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Quantise a current pre-scaled by ``2^16`` into ``out`` (int64).

    Bit-identical to :meth:`repro.fixedpoint.QFormat.from_float` of
    ``z / 2^16`` with the default rounding and overflow modes: rounding
    to nearest with ties away from zero is ``copysign(floor(|z| + 0.5),
    z)``, and multiplying a float64 by the power of two ``2^16`` commutes
    with rounding, so ``fl(a + b) * 2^16 == fl(a * 2^16 + b * 2^16)``.
    Saturation happens on the float side (the bounds are exactly
    representable), which keeps enormous inputs away from undefined
    float->int casts; a NaN has no integer at all and raises
    :class:`FloatingPointError`, as the native step does.  ``scratch``
    must not alias ``z``: ``z`` still carries the sign after ``scratch``
    has lost it.
    """
    np.abs(z, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    np.copysign(scratch, z, out=scratch)
    np.clip(scratch, float(_Q15_16_MIN), float(_Q15_16_MAX), out=scratch)
    with np.errstate(invalid="raise"):
        np.copyto(out, scratch, casting="unsafe")
    return out


# reprolint: exact-int -- fixed-point Izhikevich substep, all-int64
class _FixedBatchKernel:
    """Scratch-buffer fixed-point Izhikevich substep over ``(B, N)`` state.

    Bit-identical to :func:`repro.sim.npu.izhikevich_update_raw`; the only
    differences are preallocated temporaries and in-place NumPy ops, which
    are exact for integer arithmetic.
    """

    def __init__(
        self,
        a_raw: np.ndarray,
        b_raw: np.ndarray,
        c_raw: np.ndarray,
        d_raw: np.ndarray,
        *,
        h_shift: int,
        pin_voltage: bool,
    ) -> None:
        self.a = a_raw
        self.b = b_raw
        self.c = c_raw
        self.d_q78 = d_raw >> (11 - Q7_8.frac_bits)
        self.h_shift = h_shift
        self.pin_voltage = pin_voltage
        shape = a_raw.shape
        self._v_acc = np.empty(shape, dtype=np.int64)
        self._u_acc = np.empty(shape, dtype=np.int64)
        self._dv = np.empty(shape, dtype=np.int64)
        self._du = np.empty(shape, dtype=np.int64)
        self._u_sp = np.empty(shape, dtype=np.int64)
        self._spike = np.empty(shape, dtype=bool)

    def substep(self, v: np.ndarray, u: np.ndarray, isyn_raw: np.ndarray) -> np.ndarray:
        """Advance ``(v, u)`` in place by one NPU timestep; returns spikes."""
        v_acc, u_acc, dv, du = self._v_acc, self._u_acc, self._dv, self._du
        np.left_shift(v, _ACC_FROM_Q7_8, out=v_acc)
        np.left_shift(u, _ACC_FROM_Q7_8, out=u_acc)

        # dv = ((0.04 v^2 + 5 v + 140 - u + Isyn)) >> h
        np.multiply(v, v, out=dv)
        dv *= _COEFF_004_Q4_11
        np.right_shift(dv, 11, out=dv)
        np.multiply(v_acc, 5, out=du)  # reuse du as a temporary for 5*v_acc
        dv += du
        dv += _CONST_140_ACC
        dv -= u_acc
        dv += isyn_raw
        np.right_shift(dv, self.h_shift, out=dv)

        # du = (a (b v - u)) >> h — the two narrowing shifts (>> 11, >> h)
        # collapse into one arithmetic shift, which is bit-identical.
        np.multiply(self.b, v, out=du)
        np.right_shift(du, _BV_SHIFT, out=du)
        du -= u_acc
        du *= self.a
        np.right_shift(du, 11 + self.h_shift, out=du)

        v_acc += dv
        np.right_shift(v_acc, _ACC_FROM_Q7_8, out=v_acc)
        _clip(v_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, v_acc)
        u_acc += du
        np.right_shift(u_acc, _ACC_FROM_Q7_8, out=u_acc)
        _clip(u_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, u_acc)

        spike = self._spike
        np.greater_equal(v_acc, _VTH_RAW, out=spike)
        np.copyto(v, v_acc)
        np.copyto(u, u_acc)
        if spike.any():
            # Reset only when something fired; quiet substeps (the common
            # case in settled WTA phases) skip the whole spike datapath.
            u_sp = self._u_sp
            np.add(u_acc, self.d_q78, out=u_sp)
            _clip(u_sp, _Q7_8_MIN_I, _Q7_8_MAX_I, u_sp)
            np.copyto(v, self.c, where=spike)
            np.copyto(u, u_sp, where=spike)
        if self.pin_voltage:
            np.maximum(v, self.c, out=v)
        return spike


class _SynapseBatch:
    """Batched synaptic propagation over stacked connectivity.

    One engine per kind of workload, picked at stack time:

    * **integer sparse** (``self.integer``; the CSP/Sudoku WTA networks):
      every weight is exactly representable in Q15.16, so the weights
      live as raw integers and :meth:`propagate_raw` performs one batched
      CSC gather + scatter-add for the whole batch, over either the one
      shared matrix (``"shared"``) or the replicas' matrices flattened
      onto one grid (``"flat"``).  Exact in any summation order, hence
      bit-identical to the sequential propagation.
    * **fused dense float** (``mode == "fused"`` over dense connectivity;
      the 80-20 seed sweep): one gather over the stacked weight matrices
      plus a segmented reduction; reassociates sums (ULP-level
      differences, no bit guarantee).
    * **per-replica float** (everything else): the sequential
      ``Synapses.propagate`` expressions, one replica at a time.
    """

    def __init__(
        self,
        synapses: Sequence[Synapses],
        size: int,
        mode: str,
        *,
        integer_mode: Optional[bool] = None,
    ) -> None:
        if len({type(s) for s in synapses}) != 1:
            raise BatchIncompatibleError("all networks must use the same synapse kind")
        self.mode = mode
        self.size = size
        self._synapses: List[Any] = list(synapses)
        self._none = synapses[0] is None
        self._build(integer_mode)
        if integer_mode is True and not self.integer and not self._none:
            raise BatchIncompatibleError(
                "integer propagation requires sparse weights exactly representable in Q15.16"
            )

    def _build(self, integer_mode: Optional[bool]) -> None:
        """(Re)build the stacked structures for the current replica set."""
        batch, size = len(self._synapses), self.size
        self._resize()
        self._weight_rows: Optional[np.ndarray] = None
        self._gather: tuple = ()  # (indptr, indices, col_counts, data, uniform)
        self._int_kind: Optional[str] = None
        self.integer = integer_mode is not False and self._build_integer()
        first = self._synapses[0]
        if not self.integer and self.mode == "fused" and isinstance(first, DenseSynapses):
            # Row (b * N + i) holds W_b[:, i]: the outgoing weights of
            # presynaptic neuron i in replica b.  One gather over the
            # firing (replica, neuron) pairs plus a segmented reduction
            # then yields every replica's synaptic current at once.
            stacked = np.stack([np.asarray(s.weights) for s in self._synapses])
            self._weight_rows = np.ascontiguousarray(stacked.transpose(0, 2, 1)).reshape(
                batch * size, size
            )

    def _resize(self) -> None:
        batch, size = len(self._synapses), self.size
        self._out = np.zeros((batch, size), dtype=np.float64)
        self._raw_out = np.zeros((batch, size), dtype=np.int64)

    def _build_integer(self) -> bool:
        """Stack raw Q15.16 sparse weights; ``False`` when that would lose bits.

        Rows rely on :meth:`SparseSynapses.quantized_q15_16` memoising
        its lossless payloads: a row is quantised once, not once per
        recomposition.
        """
        first = self._synapses[0]
        if not isinstance(first, SparseSynapses):
            return False
        synapses = self._synapses
        shared = self._one_matrix()
        raws = []
        for synapse in synapses[:1] if shared else synapses:
            raw, lossless = synapse.quantized_q15_16()
            if not lossless:
                return False
            raws.append(raw)
        if shared:
            counts = np.diff(np.asarray(first.matrix.indptr, dtype=np.int64))
            indices = np.asarray(first.matrix.indices, dtype=np.int64)
        else:
            # Independent per-replica connectivity: flatten the B CSC
            # structures over one (B * N)-column grid with globally offset
            # row indices, so a single gather serves the whole batch.
            counts, indices = self._flat_columns(synapses, 0)
        self._set_gather(counts, indices, np.concatenate(raws, dtype=np.int64))
        self._int_kind = "shared" if shared else "flat"
        return True

    def _one_matrix(self) -> bool:
        """Whether every replica shares the first replica's matrix object."""
        first = self._synapses[0].matrix
        return all(s.matrix is first for s in self._synapses[1:])

    def _flat_columns(self, synapses: Sequence[Any], first_replica: int) -> tuple:
        """Column counts and grid-offset row indices of consecutive replicas."""
        matrices = [synapse.matrix for synapse in synapses]
        ptrs = np.stack([m.indptr for m in matrices]).astype(np.int64)  # (B, N + 1)
        indices = np.concatenate([m.indices for m in matrices]).astype(np.int64)
        replicas = np.arange(first_replica, first_replica + len(matrices), dtype=np.int64)
        indices += np.repeat(replicas * self.size, ptrs[:, -1])
        return np.diff(ptrs, axis=1).ravel(), indices

    def _set_gather(self, counts: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        """Install the integer grid: int64 CSC arrays, read in place by the native step."""
        indptr = np.concatenate([[0], np.cumsum(counts)])
        uniform = None
        if counts.size and int(counts[0]) > 0 and np.all(counts == counts[0]):
            uniform = int(counts[0])  # constant fan-out (the WTA graphs)
        self._gather = (indptr, indices, counts, data, uniform)

    # ------------------------------------------------------------------ #
    # reprolint: exact-int -- integer scatter-add (bincount sums below 2^53 are exact)
    def propagate_raw(self, fired: np.ndarray) -> np.ndarray:
        """Raw Q15.16 synaptic current ``(B, N)`` (integer path only)."""
        out = self._raw_out
        out_flat = out.reshape(-1)
        out_flat[:] = 0
        if self._none:
            return out
        flat = np.flatnonzero(fired.ravel())
        if flat.size == 0:
            return out
        indptr, indices, col_counts, data, uniform = self._gather
        if self._int_kind == "flat":
            cols = flat
            target_offset = None
        else:
            cols = flat % self.size
            target_offset = (flat // self.size) * self.size
        if uniform is not None:
            # Constant fan-out (the WTA graphs): the expansion collapses
            # to one broadcast add, skipping the cumsum/repeat machinery.
            sel = (indptr[cols][:, None] + np.arange(uniform)).reshape(-1)
            targets = indices[sel]
            if target_offset is not None:
                targets = (targets.reshape(-1, uniform) + target_offset[:, None]).reshape(-1)
        else:
            cnt = col_counts[cols]
            total = int(cnt.sum())
            if total == 0:
                return out
            csum = np.cumsum(cnt)
            offsets = np.repeat(indptr[cols] - (csum - cnt), cnt)
            sel = offsets + np.arange(total)
            targets = indices[sel]
            if target_offset is not None:
                targets = targets + np.repeat(target_offset, cnt)
        # bincount sums the int64 weights in float64: every partial sum is
        # an integer below 2^53, hence exact.
        sums = np.bincount(targets, weights=data[sel], minlength=out_flat.size)
        np.copyto(out_flat, sums, casting="unsafe")
        return out

    def propagate(self, fired: np.ndarray) -> np.ndarray:
        """Synaptic current ``(B, N)`` delivered by the firing mask ``(B, N)``."""
        out = self._out
        if self._none:
            out[:] = 0.0
            return out
        if self.integer:
            raw = self.propagate_raw(fired)
            np.divide(raw, 65536.0, out=out)  # exact: |raw| < 2^53
            return out
        if self._weight_rows is None:
            for i, syn in enumerate(self._synapses):
                out[i] = syn.propagate(fired[i])
            return out
        idx = np.flatnonzero(fired.ravel())
        out[:] = 0.0
        if idx.size:
            rows = self._weight_rows[idx]
            counts = fired.sum(axis=1)
            nonempty = counts > 0
            starts = (np.cumsum(counts) - counts)[nonempty]
            out[nonempty] = np.add.reduceat(rows, starts, axis=0)
        return out

    def retain(self, keep: np.ndarray) -> None:
        """Drop all replica rows not listed in ``keep``.

        A flat integer grid whose survivors still hold several matrices
        is sliced down to the kept replicas' columns; any other stack is
        rebuilt.  Either way the stacks equal a fresh build's.
        """
        old = len(self._synapses)
        self._synapses = [self._synapses[i] for i in keep]
        if self._int_kind != "flat" or self._one_matrix():
            self._build(self.integer)
            return
        indptr, indices, counts, data, _ = self._gather
        nnz = np.diff(indptr[:: self.size])  # entries per old replica
        kept = np.zeros(old, dtype=bool)
        kept[keep] = True
        entries = np.repeat(kept, nnz)
        shift = np.repeat((keep - np.arange(len(keep))) * self.size, nnz[keep])
        columns = counts.reshape(old, self.size)[keep].ravel()
        self._set_gather(columns, indices[entries] - shift, data[entries])
        self._resize()

    def validate_extend(self, synapses: Sequence[Synapses]) -> None:
        """Raise if :meth:`extend` would refuse — without mutating anything.

        Checks the synapse kind and, when the integer kernel is live,
        that every new weight set quantises losslessly (the kernel must
        not silently fall back to float mid-run: a snapshot's descriptor
        records which path is active).
        """
        kind = type(self._synapses[0])
        for synapse in synapses:
            if type(synapse) is not kind:
                raise BatchIncompatibleError("stacked-in synapse kind differs from the batch")
            if self.integer and not synapse.quantized_q15_16()[1]:
                raise BatchIncompatibleError(
                    "integer propagation requires weights exactly representable in Q15.16"
                )

    def extend(self, synapses: Sequence[Synapses]) -> None:
        """Append replica synapse sets (checked by :meth:`validate_extend`).

        A flat integer grid grows by the new replicas' columns; any other
        stack is rebuilt.  Either way the stacks equal a fresh build's.
        """
        old = len(self._synapses)
        self._synapses.extend(synapses)
        if self._int_kind != "flat":
            self._build(self.integer)
            return
        _, indices, counts, data, _ = self._gather
        new_counts, new_indices = self._flat_columns(synapses, old)
        raws = [data] + [synapse.quantized_q15_16()[0] for synapse in synapses]
        self._set_gather(
            np.concatenate([counts, new_counts]),
            np.concatenate([indices, new_indices]),
            np.concatenate(raws, dtype=np.int64),
        )
        self._resize()


#: ``izh_batch.synapses`` codes of the C source, by ``_SynapseBatch._int_kind``.
_NATIVE_SYNAPSES = {None: 0, "shared": 1, "flat": 2}
#: The fixed-point arrays the native step reads or updates in place, as
#: ``(StepBlock field, batch attribute)``.
_NATIVE_ROWS = (("isyn", "_isyn_raw"), ("v", "v_raw"), ("u", "u_raw"),
                ("a", "a_raw"), ("b", "b_raw"), ("c", "c_raw"), ("d", "d_raw"))
#: The annealed drive's per-row arrays the native step reads, as
#: ``(StepBlock field, PortfolioAnnealedDrive attribute, dtype, (B, N) wide)``.
_NATIVE_DRIVE = (("drive", "_drives", np.float64, True), ("mask", "_masks", np.bool_, True),
                 ("sigma", "_sigma", np.float64, False), ("period", "_period", np.int64, False),
                 ("anneal_floor", "_floor", np.float64, False),
                 ("offset", "_offsets", np.int64, False))


class _NativeStep:
    """The native fused step (:mod:`repro.runtime.native`) bound to one batch composition.

    Holds the C pointer block and every array and generator it points
    into; the batch drops it in ``_alloc`` (construction, ``retain``,
    ``extend``) and binds a fresh one on its next step.  ``restore_state``
    copies in place — arrays by copy, generators by bit-generator state —
    so the pointers stay valid across it.  The integer grid is read where
    ``_SynapseBatch._gather`` keeps it.  When the batch's drive is a
    :class:`~repro.runtime.drives.PortfolioAnnealedDrive` (``annealed``),
    the C step evaluates it from the drive's per-row arrays and draws
    each row's normals from that row's ``bitgen_t``; otherwise the batch
    passes the drive's output, whose address is cached while the drive
    returns the same buffer.  The two fired masks the batch swaps are the
    other per-step addresses.
    """

    def __init__(self, step: Callable[..., int], batch: "BatchedNetwork") -> None:
        shape = (batch.batch_size, batch.size)
        drive = batch._drive
        self.annealed = isinstance(drive, PortfolioAnnealedDrive)
        # (StepBlock field, array, dtype, shape) of every array the block points into.
        pointed = [(field, getattr(batch, attr), np.int64, shape) for field, attr in _NATIVE_ROWS]
        if self.annealed:
            pointed += [(field, getattr(drive, attr), dtype, shape if wide else shape[:1])
                        for field, attr, dtype, wide in _NATIVE_DRIVE]
        masks = (batch._fired, batch._last_fired)
        for _, array, dtype, want in pointed + [(None, m, np.bool_, shape) for m in masks]:
            # The C loop trusts these; a converted copy would detach it from the state.
            if array.shape != want or array.dtype != dtype or not array.flags.c_contiguous:
                raise RuntimeError(f"batch arrays must be C-contiguous {want} stacks of {dtype}")
        synapses = batch._synapses
        self._syn = np.zeros(shape, dtype=np.int64)  # C scratch, zero between calls
        block = native.StepBlock(
            cells=batch.batch_size * batch.size,
            size=batch.size,
            h_shift=batch.h_shift,
            pin_voltage=int(batch._pin_voltage),
            decay=int(batch.current_mode == "decay"),
            synapses=_NATIVE_SYNAPSES[synapses._int_kind],
            syn=self._syn.ctypes.data,
        )
        if batch.current_mode == "decay":
            shifts = SHIFT_SELECTIONS[batch.tau_select]
            block.shift_count = len(shifts)
            block.shifts[: len(shifts)] = shifts
        gather: List[np.ndarray] = []
        if synapses._int_kind is not None:
            indptr, indices, _, data, _ = synapses._gather
            gather = [indptr, indices, data]
            if any(a.dtype != np.int64 or not a.flags.c_contiguous for a in gather):
                raise RuntimeError("the integer synapse grid must be C-contiguous int64 arrays")
            block.indptr, block.indices, block.weights = (a.ctypes.data for a in gather)
        for field, array, _, _ in pointed:
            setattr(block, field, array.ctypes.data)
        owned: List[Any] = []
        if self.annealed:
            rngs = list(drive._rngs)
            bitgens = np.array(
                [rng.bit_generator.ctypes.bit_generator.value for rng in rngs], dtype=np.uintp
            )
            noise = np.empty(batch.size)  # C scratch: one row's normals
            block.annealed, block.rngs, block.noise = 1, bitgens.ctypes.data, noise.ctypes.data
            owned = [rngs, bitgens, noise]
        # Alive while the C loop may touch them.
        self._keep = (block, pointed, masks, gather, owned)
        self._step = step
        self._block = ctypes.addressof(block)
        self._shape = shape
        self._masks = {id(mask): mask.ctypes.data for mask in masks}
        self._external: Optional[np.ndarray] = None
        self._external_at = 0

    def __call__(
        self, step: int, external: Optional[np.ndarray], last_fired: np.ndarray, fired: np.ndarray
    ) -> None:
        """One step at global step ``step``; ``external`` is ``None`` when ``annealed``."""
        if external is None or external is self._external:
            at = self._external_at
        elif external.flags.c_contiguous and external.shape == self._shape:
            self._external, self._external_at = external, external.ctypes.data
            at = self._external_at
        else:
            # A view or a broadcastable row: step a contiguous copy, uncached.
            external = np.ascontiguousarray(np.broadcast_to(external, self._shape))
            at = external.ctypes.data
        masks = self._masks
        if self._step(self._block, step, at, masks[id(last_fired)], masks[id(fired)]):
            raise FloatingPointError("NaN in the input current of a fixed-point step")


#: Per-replica arrays a checkpoint carries, by backend (``is_fixed_point``):
#: ``(snapshot key, attribute)`` pairs in snapshot order — the state one
#: step hands the next.  A fixed-point step reads the raw Q15.16 current,
#: never a float one; a float64 step rewrites its raw scratch before any
#: read.  The keys stay literal strings: pickle memoises an interned
#: string once per snapshot.
_STATE = {
    True: (("last_fired", "_last_fired"), ("isyn_raw", "_isyn_raw"),
           ("v_raw", "v_raw"), ("u_raw", "u_raw")),
    False: (("last_fired", "_last_fired"), ("current", "_current"), ("v", "v"), ("u", "u")),
}
#: Per-replica neuron parameters, by backend; not exported, because a
#: restore rebuilds them from the rows.
_PARAMS = {True: ("a_raw", "b_raw", "c_raw", "d_raw"), False: ("a", "b", "c", "d")}
#: The population arrays of each backend, by attribute name: the
#: checkpointed state without a leading underscore, then the parameters.
_POPULATION = {
    fixed: tuple(attr for _, attr in _STATE[fixed] if not attr.startswith("_")) + _PARAMS[fixed]
    for fixed in (True, False)
}
#: What :func:`_layout` compares, in order, for the error message.
_LAYOUT_FIELDS = ("size", "is_fixed_point", "(current_mode, tau_select)", "timestep")


def _layout(network: SNNNetwork) -> tuple:
    """What every replica of one batch must share.

    Size, backend (fixed-point or float64), ``(current_mode,
    tau_select)`` and the timestep: ``(h_shift, pin_voltage)`` on the
    fixed-point backend, ``v_substeps`` on the float64 one.
    """
    pop = network.population
    if isinstance(pop, FixedPointPopulation):
        timestep: object = (pop.h_shift, pop.pin_voltage)
    else:
        timestep = pop.v_substeps
    modes = (network.current_mode, network.tau_select)
    return (network.size, network.is_fixed_point, modes, timestep)


@dataclass
class BatchRow:
    """One replica in the form a batch stacks: a row spec.

    ``layout`` is the :func:`_layout` tuple every row of a batch shares.
    ``arrays`` holds the replica's 1-D per-neuron arrays by batch
    attribute name: ``_last_fired``, ``_current`` (a fixed-point batch
    only seeds its raw current from it) and the population arrays of
    ``_POPULATION``; the batch copies them when it stacks, so rows may
    share read-only arrays.  ``provider`` is the replica's input closure
    and ``drive_spec`` its declarative form (``repro.runtime.drives``),
    whose generator this row owns: a batch compiles its rows' specs into
    one drive when they compile and calls each row's provider otherwise.
    """

    layout: tuple
    synapses: Synapses
    arrays: Dict[str, np.ndarray]
    provider: Optional[InputProvider] = None
    drive_spec: Any = None

    @property
    def size(self) -> int:
        return int(self.layout[0])

    @property
    def substeps(self) -> int:
        """Population updates per neuron per 1 ms step."""
        _, fixed, _, timestep = self.layout
        return 1 << timestep[0] if fixed else 1


#: A replica as the batch accepts it: a network or its row spec.
Replica = Union[SNNNetwork, BatchRow]


def batch_row(replica: Replica) -> BatchRow:
    """The row spec of a replica: the one reader of :class:`SNNNetwork` state.

    Row specs pass through.  A network is read as it stands — the
    last-fired mask, the float synaptic current (a fixed-point batch
    derives its raw Q15.16 feed from it), the population's state and
    parameters, the synapses and the external-input provider — so
    stacking an already-stepped ("warm") network continues exactly where
    its sequential engine left off.  The provider's drive spec is lifted
    with a clone of its generator (:func:`~repro.runtime.drives.lift_drive_spec`),
    which leaves the network's own closure untouched.
    """
    if isinstance(replica, BatchRow):
        return replica
    fixed = replica.is_fixed_point
    dtype = np.int64 if fixed else np.float64
    arrays = {
        "_last_fired": np.asarray(replica._last_fired, dtype=bool),
        "_current": np.asarray(replica.current_state.current, dtype=np.float64),
    }
    for name in _POPULATION[fixed]:
        arrays[name] = np.asarray(getattr(replica.population, name), dtype=dtype)
    return BatchRow(
        layout=_layout(replica),
        synapses=replica.synapses,
        arrays=arrays,
        provider=replica.external_input,
        drive_spec=lift_drive_spec(replica.external_input),
    )


def _source(row: BatchRow) -> Any:
    """The generator a row's noise comes from at its source.

    A row read off a network owns a clone of its closure's generator, so
    the closure's own generator is the source; a row spec's is its own.
    """
    spec = declared_spec(row.provider)
    return (row.drive_spec if spec is None else spec).rng


def _drive_class(rows: Sequence[BatchRow], size: int) -> Optional[Type[Any]]:
    """The drive ``rows`` compile into, or ``None``: the compile rule.

    Every row has a drive spec, the specs are one family ``size`` wide
    (:func:`~repro.runtime.drives.drive_class`), and no two rows draw
    from one generator at the source: replicas sharing one generator
    interleave a single stream when each steps its own closure, which
    independent streams cannot replay.
    """
    drive = drive_class([row.drive_spec for row in rows], size)
    if drive is None or len({id(_source(row)) for row in rows}) != len(rows):
        return None
    return drive


def _check_closures(rows: Sequence[BatchRow]) -> None:
    """Refuse rows a batch that calls closures cannot drive: a spec and no closure."""
    if any(row.provider is None and row.drive_spec is not None for row in rows):
        raise BatchIncompatibleError(
            "a row whose drive is only a spec must compile with the batch's other rows"
        )


def _check_layout(rows: Sequence[BatchRow], expected: Optional[tuple] = None) -> tuple:
    """The layout ``rows`` (and ``expected``, if given) share; raises otherwise."""
    layouts = {row.layout for row in rows}
    if expected is not None:
        layouts.add(expected)
    if len(layouts) > 1:
        for what, values in zip(_LAYOUT_FIELDS, zip(*layouts)):
            if len(set(values)) > 1:
                raise BatchIncompatibleError(
                    f"networks differ in {what}: {sorted(map(str, set(values)))}"
                )
    return layouts.pop()


class BatchedNetwork:
    """``B`` independent, structurally compatible networks as one unit of work.

    Build with :meth:`from_networks`; the replicas — :class:`SNNNetwork`
    instances or :class:`BatchRow` specs — must share the population kind
    (all fixed-point or all float64), size, timestep configuration,
    current mode and synapse kind.  The stacked engine owns copies of the
    per-replica state, so the source networks are left untouched.

    The batch owns its input: it compiles the rows' drive specs into one
    drive, or calls each row's closure when they do not compile (see the
    module docstring); a network's own closure is never consumed by a
    compiled drive.

    Parameters
    ----------
    networks:
        The replicas to stack (networks go through :func:`batch_row`).
    synapse_mode:
        ``"exact"`` (bit-exact with the sequential engine) or ``"fused"``
        (vectorised dense propagation; see the module docstring).
    integer_csr:
        ``None`` (default) auto-enables the integer propagation kernel
        whenever the connectivity is sparse and every weight is exactly
        representable in Q15.16; ``False`` forces the float paths (the
        legacy behaviour, kept for benchmarking); ``True`` requires the
        integer kernel and raises :class:`BatchIncompatibleError` if the
        weights do not qualify.
    """

    # Per-replica rows, one (B, N) array each (see _STATE and _PARAMS);
    # _isyn_raw is state on the fixed-point backend, scratch on float64.
    _last_fired: np.ndarray
    _current: np.ndarray
    _isyn_raw: np.ndarray
    v_raw: np.ndarray
    u_raw: np.ndarray
    a_raw: np.ndarray
    b_raw: np.ndarray
    c_raw: np.ndarray
    d_raw: np.ndarray
    v: np.ndarray
    u: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __init__(
        self,
        networks: Sequence[Replica],
        *,
        synapse_mode: str = "exact",
        integer_csr: Optional[bool] = None,
    ) -> None:
        if not networks:
            raise BatchIncompatibleError("cannot batch zero networks")
        if synapse_mode not in ("exact", "fused"):
            raise ValueError(f"unknown synapse mode {synapse_mode!r}")
        rows = [batch_row(replica) for replica in networks]
        self._layout = layout = _check_layout(rows)
        self.size, self.is_fixed_point, (self.current_mode, self.tau_select), timestep = layout
        if self.is_fixed_point:
            self.h_shift, self._pin_voltage = timestep
            self._substeps = 1 << self.h_shift  # FixedPointPopulation.substeps_per_ms
        else:
            self.h_shift, self._v_substeps = 1, timestep
        self.rows = rows
        self.synapse_mode = synapse_mode
        drive = _drive_class(rows, self.size)
        if drive is None:
            _check_closures(rows)
        self._drive = None if drive is None else drive([row.drive_spec for row in rows])
        self._synapses = _SynapseBatch(
            [row.synapses for row in rows], self.size, synapse_mode, integer_mode=integer_csr
        )
        for name, stacked in self._rows_of(rows).items():
            setattr(self, name, stacked)
        self._alloc()

    # ------------------------------------------------------------------ #
    # Stacking
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networks(
        cls,
        networks: Sequence[Replica],
        *,
        synapse_mode: str = "exact",
        integer_csr: Optional[bool] = None,
    ) -> "BatchedNetwork":
        """Stack compatible replicas: :class:`SNNNetwork` instances or row specs."""
        return cls(networks, synapse_mode=synapse_mode, integer_csr=integer_csr)

    @property
    def integer_propagation(self) -> bool:
        """``True`` when the integer CSR synapse kernel is active."""
        return self._synapses.integer

    def _row_names(self) -> List[str]:
        """Attributes of every per-replica array: checkpointed state, then parameters."""
        fixed = self.is_fixed_point
        return [attr for _, attr in _STATE[fixed]] + list(_PARAMS[fixed])

    def _rows_of(self, rows: Sequence[BatchRow]) -> Dict[str, np.ndarray]:
        """Stack the rows' per-replica arrays, keyed by attribute name.

        The one reader of row specs: construction stacks its rows and
        :meth:`extend` appends them.  A fixed-point batch keeps no float
        current: its raw Q15.16 current feed is derived here from the
        rows' float current.
        """
        stacked = {
            name: np.stack([row.arrays[name] for row in rows])
            for name in self._row_names()
            if name != "_isyn_raw"
        }
        if self.is_fixed_point:
            isyn_raw = np.zeros((len(rows), self.size), dtype=np.int64)
            if self.current_mode == "decay":
                # Carry the quantised current as raw integer state: the
                # sequential engine re-quantises its float current at the
                # top of every step, and the result is exactly the kernel
                # input of the previous step, so the round-trip can be
                # hoisted out of the loop entirely.
                current = np.stack([row.arrays["_current"] for row in rows])
                _quantize_scaled_q15_16(current * 65536.0, isyn_raw, np.empty_like(current))
            stacked["_isyn_raw"] = isyn_raw
        return stacked

    def _alloc(self) -> None:
        """Fit the engine to the live rows: scratch buffers and kernel."""
        self.batch_size = len(self.rows)
        shape = (self.batch_size, self.size)
        self._fired = np.zeros(shape, dtype=bool)
        self._ext = np.zeros(shape, dtype=np.float64)
        self._fscratch = np.zeros(shape, dtype=np.float64)
        self._fscratch2 = np.zeros(shape, dtype=np.float64)
        self._iscratch = np.zeros(shape, dtype=np.int64)
        self._iscratch2 = np.zeros(shape, dtype=np.int64)
        self._v_scratch: Optional[np.ndarray] = None
        if self.is_fixed_point:
            self._kernel = _FixedBatchKernel(
                self.a_raw, self.b_raw, self.c_raw, self.d_raw,
                h_shift=self.h_shift, pin_voltage=self._pin_voltage,
            )
        else:
            # Raw current of the decay, rewritten before every read.
            self._isyn_raw = np.zeros(shape, dtype=np.int64)
        # The native step binds to this composition on its next step.
        self._native: Any = _UNBOUND

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _external(self, step: int) -> np.ndarray:
        if self._drive is not None:
            return self._drive(step)
        for i, row in enumerate(self.rows):
            provider = row.provider
            if provider is None:
                self._ext[i] = 0.0
            else:
                self._ext[i] = np.asarray(provider(step), dtype=np.float64)
        return self._ext

    def _update_current(self, external: np.ndarray, synaptic: np.ndarray) -> np.ndarray:
        # Float64 backend; mirrors CurrentState.update elementwise (hence bit-exact).
        if self.current_mode == "recompute":
            np.add(external, synaptic, out=self._current)
        else:
            z = np.multiply(self._current, 65536.0, out=self._fscratch)
            raw = _quantize_scaled_q15_16(z, self._isyn_raw, self._fscratch2)
            decayed = _decay_raw(raw, self.tau_select, self.h_shift, self._iscratch, self._iscratch2)
            np.divide(decayed, 65536.0, out=self._current)
            self._current += external
            self._current += synaptic
        return self._current

    def _fixed_isyn_raw(self, external: np.ndarray) -> np.ndarray:
        """Kernel input current of a fixed-point step, summed at scale ``2^16``.

        Sequential reference, per replica: ``current = (decayed +
        external) + synaptic`` (``decayed`` in decay mode only), then
        ``isyn_raw = Q15_16.from_float(current)``.  Here every term enters
        scaled by ``2^16`` — the drive current, the decayed raw current,
        then the integer kernel's raw sum or a float synaptic current —
        in the reference's order, and one quantiser rounds the sum:
        bit-identical (see :func:`_quantize_scaled_q15_16`).  The sum is
        quantised into scratch and committed to ``_isyn_raw`` only once
        no cell raised, so a NaN leaves the current feed as it was.
        """
        z = np.multiply(external, 65536.0, out=self._fscratch)
        if self.current_mode == "decay":
            # int64 -> float64 is exact: |raw| < 2^53.
            z += _decay_raw(
                self._isyn_raw, self.tau_select, self.h_shift, self._iscratch, self._iscratch2
            )
        synapses = self._synapses
        if synapses.integer or synapses._none:
            z += synapses.propagate_raw(self._last_fired)
        else:
            z += np.multiply(synapses.propagate(self._last_fired), 65536.0, out=self._fscratch2)
        fresh = _quantize_scaled_q15_16(z, self._iscratch, self._fscratch2)
        self._isyn_raw, self._iscratch = fresh, self._isyn_raw
        return fresh

    @property
    def native_step(self) -> bool:
        """``True`` when this batch steps through the native fused kernel.

        Read-only: a fixed-point batch whose synapses run on the integer
        kernel or are absent takes the native step whenever the library
        of :mod:`repro.runtime.native` loaded, and the NumPy step
        otherwise.  Asking binds (and, once per process, loads) as the
        next step would.
        """
        return self._native_binding() is not None

    def _native_binding(self) -> Optional[_NativeStep]:
        if self._native is _UNBOUND:
            synapses = self._synapses
            step = None
            # Larger shifts stay on the NumPy step: in C, shifting by
            # 64 or more is undefined.
            if (self.is_fixed_point and (synapses.integer or synapses._none)
                    and 0 <= self.h_shift <= _NATIVE_MAX_H_SHIFT):
                step = native.load()
            self._native = None if step is None else _NativeStep(step, self)
        return self._native

    def _advance_population(self, step_index: int) -> np.ndarray:
        fired = self._fired
        if self.is_fixed_point:
            bound = self._native_binding()
            if bound is not None:
                # An annealed drive is evaluated inside the C step.
                external = None if bound.annealed else self._external(step_index)
                bound(step_index, external, self._last_fired, fired)
                return fired
            isyn_raw = self._fixed_isyn_raw(self._external(step_index))
            fired[:] = False
            for _ in range(self._substeps):
                spike = self._kernel.substep(self.v_raw, self.u_raw, isyn_raw)
                np.logical_or(fired, spike, out=fired)
            return fired
        external = self._external(step_index)
        synaptic = self._synapses.propagate(self._last_fired)
        current = self._update_current(external, synaptic)
        self.v, self.u, fired_f = euler_step(
            self.v, self.u, current, self.a, self.b, self.c, self.d,
            dt_ms=1.0, v_substeps=self._v_substeps,
        )
        fired[:] = fired_f
        return fired

    def step(self, step_index: int) -> np.ndarray:
        """Advance every replica by one 1 ms step; returns the ``(B, N)`` mask."""
        fired = self._advance_population(step_index)
        # Swap instead of copy: ``fired`` is the engine-owned ``_fired``
        # buffer, fully rewritten by the next advance.
        self._last_fired, self._fired = fired, self._last_fired
        return self._last_fired

    def run(
        self,
        num_steps: int,
        *,
        record: bool = True,
        progress_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        start_step: int = 0,
    ) -> List[SpikeRaster]:
        """Run ``num_steps`` steps; returns one :class:`SpikeRaster` per replica.

        Parameters
        ----------
        record:
            When true, spikes are recorded into a preallocated bit-packed
            buffer (one bit per neuron-step, 8x smaller than the
            historical bool cube) and unpacked into the returned rasters.
            When false, spikes are not stored and empty rasters with
            correct dimensions are returned.
        progress_callback:
            Invoked as ``cb(step, fired)`` with the ``(B, N)`` mask after
            every step.  Shrinking the batch (:meth:`retain`) from inside
            the callback is not supported while recording.
        start_step:
            Value of the first step index passed to the input providers
            (the Sudoku solver counts steps from 1).
        """
        batch_size = self.batch_size
        packed = (
            np.zeros((num_steps, batch_size, (self.size + 7) // 8), dtype=np.uint8)
            if record
            else None
        )
        for t in range(num_steps):
            fired = self.step(start_step + t)
            if packed is not None:
                if self.batch_size != batch_size:
                    raise RuntimeError("batch shrank mid-run while recording spikes")
                packed[t] = np.packbits(fired, axis=-1)
            if progress_callback is not None:
                progress_callback(start_step + t, fired)
        if packed is None:
            return [SpikeRaster.empty(self.size, num_steps) for _ in range(self.batch_size)]
        return [
            SpikeRaster.from_bool_matrix(
                np.unpackbits(packed[:, b, :], axis=1, count=self.size).astype(bool)
            )
            for b in range(batch_size)
        ]

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def _state_descriptor(self) -> dict:
        """The structural identity a snapshot must match to be restored."""
        drive = self._drive
        return {
            "batch_size": int(self.batch_size),
            "size": int(self.size),
            "is_fixed_point": bool(self.is_fixed_point),
            "current_mode": self.current_mode,
            "tau_select": int(self.tau_select),
            "synapse_mode": self.synapse_mode,
            "h_shift": int(self.h_shift),
            "integer": bool(self._synapses.integer),
            "drive": None if drive is None else type(drive).__name__,
        }

    def export_state(self) -> dict:
        """A picklable snapshot of the full per-replica simulation state.

        Covers everything the step loop carries between steps: the
        ``_STATE`` rows — the last-fired masks, the current (the raw
        Q15.16 integer feed on the fixed-point backend, the float
        synaptic current on float64) and the membrane/recovery state
        (raw Q7.8 integers on the fixed-point backend) — and, under
        ``"drive"``, the compiled drive's state (noise streams and
        cursors included; ``None`` for a batch that calls its rows'
        closures, whose state is theirs), plus a structural descriptor
        so a restore onto a mismatched batch fails loudly.  Kernel
        parameters, connectivity and drive specs are *not* serialised —
        they are pure functions of the rows the restore path rebuilds
        the batch from.
        """
        state = {"descriptor": self._state_descriptor()}
        for key, attr in _STATE[self.is_fixed_point]:
            state[key] = getattr(self, attr).copy()
        state["drive"] = None if self._drive is None else self._drive.export_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the live per-replica state with an exported snapshot.

        The batch must have been rebuilt to the snapshot's structure
        first (same replica count, backend, current mode, synapse engine
        and drive); any mismatch raises :class:`BatchIncompatibleError`
        (``ValueError`` from the drive) before a single array is touched.
        """
        descriptor = dict(state["descriptor"])
        mine = self._state_descriptor()
        if descriptor != mine:
            diff = {
                key: (descriptor.get(key), mine.get(key))
                for key in set(descriptor) | set(mine)
                if descriptor.get(key) != mine.get(key)
            }
            raise BatchIncompatibleError(
                f"checkpoint state does not match the live batch: {diff}"
            )
        arrays = []
        for key, attr in _STATE[self.is_fixed_point]:
            target = getattr(self, attr)
            arr = np.asarray(state[key], dtype=target.dtype)
            if arr.shape != target.shape:
                raise BatchIncompatibleError(
                    f"checkpoint array {key!r} has shape {arr.shape}, "
                    f"expected {target.shape}"
                )
            arrays.append((target, arr))
        if self._drive is not None:
            self._drive.restore_state(state["drive"])
        for target, arr in arrays:
            np.copyto(target, arr)

    # ------------------------------------------------------------------ #
    # Active-set shrinking and growth
    # ------------------------------------------------------------------ #
    def retain(self, keep: Sequence[int]) -> None:
        """Shrink the batch to the replica rows listed in ``keep``.

        ``keep`` must be strictly increasing current row indices.  All
        per-replica state (every row array, synapse stacks, the drive) is
        sliced down so subsequent steps only advance the surviving
        replicas; each survivor's trajectory is unaffected (replicas are
        independent).

        **Layering seam.**  Within ``src/repro`` the sanctioned caller
        is :meth:`repro.runtime.slots.SlotEngine.recompose`, which owns
        the retain-before-extend composition order and its edge guards
        for the solver, portfolio and serve layers alike; direct calls
        from outside ``repro/runtime/`` are rejected by reprolint's
        RL001 layering rule (``python -m tools.reprolint``, see
        ``docs/LINTING.md``).
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size == 0:
            raise BatchIncompatibleError("cannot retain an empty batch")
        if np.any(keep < 0) or np.any(keep >= self.batch_size):
            raise IndexError(f"retain indices out of range for batch of {self.batch_size}")
        if np.any(np.diff(keep) <= 0):
            raise ValueError("retain indices must be strictly increasing")
        if keep.size == self.batch_size:
            return
        self.rows = [self.rows[i] for i in keep]
        for name in self._row_names():
            setattr(self, name, getattr(self, name)[keep])
        self._synapses.retain(keep)
        if self._drive is not None:
            self._drive.retain(keep)
        self._alloc()

    def extend(self, networks: Sequence[Replica]) -> None:
        """Stack additional replicas into the live batch.

        The inverse of :meth:`retain`: the given replicas — row specs, or
        networks read through :func:`batch_row` — are appended as new
        batch rows by the same :meth:`_rows_of` construction uses, so each
        new replica's trajectory is bit-identical to running it
        standalone from its current state.  Existing rows are untouched —
        appending rows cannot change their fused updates (replicas are
        independent).

        The replicas must satisfy the same compatibility contract as
        construction (size, population kind, current mode, timestep
        configuration, synapse kind; integer-kernel batches additionally
        require losslessly quantisable weights) and join its input path:
        a batch with a compiled drive takes only rows that compile with
        its rows, whose specs the drive stacks on; a batch that calls
        closures takes only rows it can call.

        **Layering seam.**  As with :meth:`retain`, the sanctioned
        ``src/repro`` caller is
        :meth:`repro.runtime.slots.SlotEngine.recompose` (enforced by
        reprolint rule RL001, ``docs/LINTING.md``); the slot engine uses the pair to
        refill freed batch slots with fresh admissions mid-run.
        """
        if not networks:
            return
        rows = [batch_row(replica) for replica in networks]
        # Validate everything that can refuse BEFORE mutating any state,
        # so a raise leaves the batch fully usable.
        _check_layout(rows, self._layout)
        if self._drive is None:
            _check_closures(rows)
        elif _drive_class(self.rows + rows, self.size) is not type(self._drive):
            raise BatchIncompatibleError("stacked-in rows do not compile into the batch's drive")
        synapses = [row.synapses for row in rows]
        self._synapses.validate_extend(synapses)
        stacked = self._rows_of(rows)
        self.rows.extend(rows)
        for name, new in stacked.items():
            setattr(self, name, np.concatenate([getattr(self, name), new]))
        self._synapses.extend(synapses)
        if self._drive is not None:
            self._drive.extend([row.drive_spec for row in rows])
        self._alloc()

    # ------------------------------------------------------------------ #
    @property
    def membrane_potentials(self) -> np.ndarray:
        """Float view of the ``(B, N)`` membrane potentials in millivolts.

        The returned array is a reused scratch buffer, overwritten by the
        next access — copy it to persist values across calls.
        """
        if self._v_scratch is None or self._v_scratch.shape != (self.batch_size, self.size):
            self._v_scratch = np.empty((self.batch_size, self.size), dtype=np.float64)
        if self.is_fixed_point:
            np.divide(self.v_raw, float(Q7_8.scale), out=self._v_scratch)
        else:
            np.copyto(self._v_scratch, self.v)
        return self._v_scratch

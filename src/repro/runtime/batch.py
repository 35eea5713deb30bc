"""Vectorised batch engine: advance ``B`` independent networks at once.

The sequential :class:`~repro.snn.network.SNNNetwork` drives one network
per Python loop iteration, so a seed sweep of the 80-20 workload or a
multi-puzzle Sudoku solve-rate run pays the NumPy dispatch overhead of
every small array operation ``B`` times per step.  :class:`BatchedNetwork`
stacks the state of ``B`` *compatible* networks into ``(B, N)`` arrays and
advances all of them in one fused update per step.

Two operating points are supported, selected by ``synapse_mode``:

``"exact"`` (default)
    **Bit-exact** with ``B`` sequential ``SNNNetwork.run`` calls on
    either backend.  Sparse connectivity whose weights are all exactly
    representable in Q15.16 (the WTA constraint networks) propagates
    through the **integer grid**: raw ``int64`` CSC columns of the
    distinct structures of the rows, each row addressing its structure
    through a column base, and one batched gather + segmented integer
    reduction for all ``B`` replicas, bit-identical *by construction*
    because integer adds commute.  Everything else (e.g. the 80-20
    network's dense random weights) runs the per-replica propagation
    with the sequential expressions.
``"fused"``
    Dense connectivity (the 80-20 network) is propagated for the whole
    batch at once: a float gather + segmented reduction whose summation
    order differs from the sequential one (ULP-level differences, no
    bit guarantee); the high-throughput mode of the 80-20 seed sweeps.
    Sparse batches propagate exactly as in ``"exact"`` mode.

A batch owns its input.  It compiles its rows' drive specs into one
``(B, N)`` drive (:mod:`repro.runtime.drives`) when every row has a spec,
the specs are one family as wide as the batch, and no two rows draw from
one generator at the source (judged on a network's closure generator,
not on the clone its row owns); otherwise it calls each row's own
closure every step.

Every fixed-point step sums its current at scale ``2^16``
(:meth:`BatchedNetwork._fixed_isyn_raw`) and rounds it once
(:func:`_quantize_scaled_q15_16`); scaling by a power of two commutes
with float rounding, so this is bit-identical to the sequential
``Q15_16.from_float((decayed + external) + synaptic)``.  In ``"decay"``
current mode the quantised current is carried as raw integer state.

A replica enters a batch as a :class:`BatchRow` — its layout,
connectivity, 1-D arrays and inputs; :func:`batch_row` is the one
adapter that reads an :class:`SNNNetwork` into one, and solvers build
row specs directly (``SpikingCSPSolver.row``).  Every per-replica array —
the checkpointed state (``_STATE``), the parameters (``_PARAMS``) and the
step's scratch (``_SCRATCH``) — is a row of one
:class:`~repro.runtime.rows.RowStack`: buffers sized to a capacity whose
live ``(B, N)`` prefix the batch sees as attributes.
:meth:`BatchedNetwork.retain` is the one recomposition: it checks every
admission first, then drops replicas (solver instances that converged)
by moving the survivors down in place and writes the admissions after
them, reallocating only when the buffers are full; the compiled drive
keeps its rows the same way, and :meth:`BatchedNetwork.extend` is a
``retain`` that keeps every row.  The integer grid is built once at
construction and rebuilt from the live rows only when an admission
brings a structure it lacks: a retirement leaves it as it is, so it
never holds more structures than the rows live at its last build.
:meth:`BatchedNetwork.run` records spikes into a bit-packed buffer (one
bit per neuron-step).

The fixed-point update is fused through :class:`_FixedBatchKernel`, a
scratch-buffer reimplementation of the integer datapath that is
bit-identical to :func:`repro.sim.npu.izhikevich_update_raw` by
construction; ``tests/runtime`` locks the equivalence down with
randomized cross-checks.  The pure-integer regions carrying that proof
are marked ``# reprolint: exact-int`` — reprolint's RL003 rule
(``docs/LINTING.md``) fails the lint on any float literal, true
division or float cast inside them.

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
compiler or NumPy's ``npyrandom`` archive, it takes the NumPy step.  Its
pointer block is bound when the row stacks are allocated and again only
when they grow — the column bases among them — and each call passes the
live row count; the integer grid's three pointers are rewritten when
the grid is rebuilt.  Both paths carry the same state arrays and
generators, so results, snapshots and restores are identical on either;
:attr:`BatchedNetwork.native_step` tells which one a batch runs.  A step
whose current is NaN raises :class:`FloatingPointError` on either path
and leaves ``v``, ``u``, the last-fired mask and the current feed as it
found them; every row's noise stream has still advanced by one step.
The float64 backend refuses a NaN current the same way.
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
from .rows import Field, RowStack

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
    differences are reused temporaries and in-place NumPy ops, which are
    exact for integer arithmetic.  :meth:`substep` reads the ``(B, N)``
    int64 parameters ``a_raw`` .. ``d_raw`` and the scratch of
    :data:`SCRATCH` as attributes of ``rows`` (a batch passes itself).
    """

    #: The scratch rows :meth:`substep` writes, as ``(attribute, dtype)``.
    SCRATCH = (("_v_acc", np.int64), ("_u_acc", np.int64), ("_dv", np.int64),
               ("_du", np.int64), ("_u_sp", np.int64), ("_spike", np.bool_))

    def __init__(self, *, h_shift: int, pin_voltage: bool) -> None:
        self.h_shift = h_shift
        self.pin_voltage = pin_voltage

    def substep(
        self, rows: Any, v: np.ndarray, u: np.ndarray, isyn_raw: np.ndarray
    ) -> np.ndarray:
        """Advance ``(v, u)`` in place by one NPU timestep; returns spikes."""
        v_acc, u_acc, dv, du = rows._v_acc, rows._u_acc, rows._dv, rows._du
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
        np.multiply(rows.b_raw, v, out=du)
        np.right_shift(du, _BV_SHIFT, out=du)
        du -= u_acc
        du *= rows.a_raw
        np.right_shift(du, 11 + self.h_shift, out=du)

        v_acc += dv
        np.right_shift(v_acc, _ACC_FROM_Q7_8, out=v_acc)
        _clip(v_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, v_acc)
        u_acc += du
        np.right_shift(u_acc, _ACC_FROM_Q7_8, out=u_acc)
        _clip(u_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, u_acc)

        spike = rows._spike
        np.greater_equal(v_acc, _VTH_RAW, out=spike)
        np.copyto(v, v_acc)
        np.copyto(u, u_acc)
        if spike.any():
            # Reset only when something fired; quiet substeps (the common
            # case in settled WTA phases) skip the whole spike datapath.
            u_sp = rows._u_sp
            np.right_shift(rows.d_raw, 11 - Q7_8.frac_bits, out=u_sp)  # d: Q4.11 -> Q7.8
            u_sp += u_acc
            _clip(u_sp, _Q7_8_MIN_I, _Q7_8_MAX_I, u_sp)
            np.copyto(v, rows.c_raw, where=spike)
            np.copyto(u, u_sp, where=spike)
        if self.pin_voltage:
            np.maximum(v, rows.c_raw, out=v)
        return spike


class _SynapseBatch:
    """Batched synaptic propagation over the live rows' connectivity.

    One engine per kind of workload, picked at stack time:

    * **integer sparse** (``self.integer``; the CSP/Sudoku WTA networks):
      sparse weights that all quantise losslessly to Q15.16 live as raw
      integers on one grid — int64 ``indptr``/``indices``/``weights``
      over the distinct structures (matrices, by identity) of the rows
      live at its last :meth:`build`, with targets local to a row.  A row
      addresses its structure through its column base (the batch's
      ``_base`` row, from :meth:`columns`), and :meth:`propagate_raw`
      performs one batched CSC gather + scatter-add for the whole batch.
      Exact in any summation order, hence bit-identical to the
      sequential propagation.
    * **fused dense float** (``mode == "fused"`` over dense connectivity;
      the 80-20 seed sweep): one gather over the stacked weight matrices
      plus a segmented reduction; reassociates sums (ULP-level
      differences, no bit guarantee).
    * **per-replica float** (everything else): the sequential
      ``Synapses.propagate`` expressions, one replica at a time.
    """

    def __init__(self, synapses: Sequence[Synapses], size: int, mode: str) -> None:
        if len({type(s) for s in synapses}) != 1:
            raise BatchIncompatibleError("all networks must use the same synapse kind")
        self.mode = mode
        self.size = size
        self.kind = type(synapses[0])
        self._none = synapses[0] is None
        self.integer = issubclass(self.kind, SparseSynapses) and all(
            s.quantized_q15_16()[1] for s in synapses
        )
        #: (indptr, indices, col_counts, weights, uniform fan-out or None).
        self.grid: tuple = ()
        #: Each structure of the grid, by ``id``: its matrix (which keeps
        #: the id unique) and its first column.
        self._columns: Dict[int, Tuple[Any, int]] = {}
        self.restack(synapses)

    def build(self, synapses: Sequence[SparseSynapses]) -> List[int]:
        """Rebuild the grid over the distinct structures of ``synapses``; their first columns.

        Rows rely on :meth:`SparseSynapses.quantized_q15_16` memoising
        its lossless payloads: a structure is quantised once, not once
        per build.  The native step reads the int64 grid in place.
        """
        columns: Dict[int, Tuple[Any, int]] = {}
        matrices, raws = [], []
        for synapse in synapses:
            if id(synapse.matrix) not in columns:
                columns[id(synapse.matrix)] = (synapse.matrix, len(matrices) * self.size)
                matrices.append(synapse.matrix)
                raws.append(synapse.quantized_q15_16()[0])
        ptrs = np.stack([m.indptr for m in matrices], dtype=np.int64)  # (structures, N + 1)
        counts = np.diff(ptrs, axis=1).ravel()
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        uniform = None
        if counts.size and int(counts[0]) > 0 and np.all(counts == counts[0]):
            uniform = int(counts[0])  # constant fan-out (the WTA graphs)
        indices = np.concatenate([m.indices for m in matrices], dtype=np.int64)
        self.grid = (indptr, indices, counts, np.concatenate(raws, dtype=np.int64), uniform)
        self._columns = columns
        return [columns[id(synapse.matrix)][1] for synapse in synapses]

    def columns(self, synapses: Sequence[SparseSynapses]) -> Optional[List[int]]:
        """Each synapse set's first grid column, or ``None`` when the grid lacks a structure."""
        try:
            return [self._columns[id(synapse.matrix)][1] for synapse in synapses]
        except KeyError:
            return None

    def restack(self, synapses: Sequence[Synapses]) -> None:
        """Adopt the live rows' synapse sets for the float paths."""
        self._synapses: List[Any] = list(synapses)
        self._weight_rows: Optional[np.ndarray] = None
        if not self.integer and self.mode == "fused" and issubclass(self.kind, DenseSynapses):
            # Row (b * N + i) holds W_b[:, i]: the outgoing weights of
            # presynaptic neuron i in replica b.  One gather over the
            # firing (replica, neuron) pairs plus a segmented reduction
            # then yields every replica's synaptic current at once.
            stacked = np.stack([np.asarray(s.weights) for s in synapses])
            self._weight_rows = np.ascontiguousarray(stacked.transpose(0, 2, 1)).reshape(
                len(synapses) * self.size, self.size
            )

    # ------------------------------------------------------------------ #
    # reprolint: exact-int -- integer scatter-add (bincount sums below 2^53 are exact)
    def propagate_raw(self, fired: np.ndarray, base: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Raw Q15.16 synaptic current ``(B, N)`` into ``out`` (integer path only).

        ``base`` holds each row's first grid column.
        """
        out_flat = out.reshape(-1)
        out_flat[:] = 0
        if self._none:
            return out
        flat = np.flatnonzero(fired.ravel())
        if flat.size == 0:
            return out
        indptr, indices, col_counts, data, uniform = self.grid
        row, cols = np.divmod(flat, self.size)
        first = flat - cols  # the firing cell's row's first target
        cols += base[row]
        if uniform is not None:
            # Constant fan-out (the WTA graphs): the expansion collapses
            # to one broadcast add, skipping the cumsum/repeat machinery.
            sel = (indptr[cols][:, None] + np.arange(uniform)).reshape(-1)
            targets = (indices[sel].reshape(-1, uniform) + first[:, None]).reshape(-1)
        else:
            cnt = col_counts[cols]
            total = int(cnt.sum())
            if total == 0:
                return out
            csum = np.cumsum(cnt)
            offsets = np.repeat(indptr[cols] - (csum - cnt), cnt)
            sel = offsets + np.arange(total)
            targets = indices[sel] + np.repeat(first, cnt)
        # bincount sums the int64 weights in float64: every partial sum is
        # an integer below 2^53, hence exact.
        sums = np.bincount(targets, weights=data[sel], minlength=out_flat.size)
        np.copyto(out_flat, sums, casting="unsafe")
        return out

    def propagate(
        self, fired: np.ndarray, base: np.ndarray, out: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        """Synaptic current ``(B, N)`` of the firing mask into ``out``; ``raw``: int64 scratch."""
        if self._none:
            out[:] = 0.0
            return out
        if self.integer:
            np.divide(self.propagate_raw(fired, base, raw), 65536.0, out=out)  # exact: |raw| < 2^53
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


#: The batch rows the native step reads or updates in place, as
#: ``(StepBlock field, batch attribute, dtype)``; ``_syn`` is its scratch.
_NATIVE_ROWS = tuple((field, attr, np.int64) for field, attr in (
    ("base", "_base"), ("isyn", "_isyn_raw"), ("v", "v_raw"), ("u", "u_raw"), ("a", "a_raw"),
    ("b", "b_raw"), ("c", "c_raw"), ("d", "d_raw"), ("syn", "_syn")))
#: The annealed drive's rows the native step reads, as
#: ``(StepBlock field, PortfolioAnnealedDrive attribute, dtype)``.
_NATIVE_DRIVE = (("drive", "_drives", np.float64), ("mask", "_masks", np.bool_),
                 ("sigma", "_sigma", np.float64), ("period", "_period", np.int64),
                 ("anneal_floor", "_floor", np.float64), ("offset", "_offsets", np.int64),
                 ("rngs", "_bitgens", np.uintp))


class _NativeStep:
    """The native fused step (:mod:`repro.runtime.native`) bound to one batch's buffers.

    Bound when the batch's row stack — and its drive's — were allocated;
    recompositions within capacity and restores write in place
    (generators by bit-generator state), so the pointers stay valid until
    an admission reallocates.  The integer grid is rebuilt only when an
    admission brings a structure it lacks; :meth:`grid` then rewrites its
    three pointers.  With a :class:`~repro.runtime.drives.PortfolioAnnealedDrive`
    (``annealed``) the C step evaluates the drive itself; otherwise the
    batch passes the drive's output.
    """

    def __init__(self, step: Callable[..., int], batch: "BatchedNetwork") -> None:
        drive = batch._drive
        self.annealed = isinstance(drive, PortfolioAnnealedDrive)
        self.kernel = step
        self._noise = np.empty(batch.size)  # C scratch: one row's normals
        self._block = block = native.StepBlock(
            size=batch.size,
            h_shift=batch.h_shift,
            pin_voltage=int(batch._pin_voltage),
            decay=int(batch.current_mode == "decay"),
            annealed=int(self.annealed),
            noise=self._noise.ctypes.data,
        )
        if batch.current_mode == "decay":
            shifts = SHIFT_SELECTIONS[batch.tau_select]
            block.shift_count = len(shifts)
            block.shifts[: len(shifts)] = shifts
        batch._stack.bind(block, _NATIVE_ROWS)
        if self.annealed:
            drive._stack.bind(block, _NATIVE_DRIVE)
        self._at = ctypes.addressof(block)
        # The two fired-mask buffers the batch swaps, by id; holding them keeps the ids unique.
        self._buffers = (batch._fired.base, batch._last_fired.base)
        self._masks = {id(buffer): buffer.ctypes.data for buffer in self._buffers}
        self.grid(batch._synapses)

    def grid(self, synapses: _SynapseBatch) -> None:
        """Point the block at the integer grid as last built; without one (no synapses) at NULL."""
        if synapses.grid:
            indptr, indices, _, weights, _ = synapses.grid
            self._grid = (indptr, indices, weights)  # alive while the C loop may read it
            if any(a.dtype != np.int64 or not a.flags.c_contiguous for a in self._grid):
                raise RuntimeError("the integer synapse grid must be C-contiguous int64 arrays")
            self._block.indptr, self._block.indices, self._block.weights = (
                a.ctypes.data for a in self._grid
            )

    def __call__(
        self, rows: int, step: int, external: Optional[np.ndarray], last_fired: np.ndarray,
        fired: np.ndarray,
    ) -> None:
        """One step of the ``rows`` live rows; ``external`` is ``None`` when ``annealed``."""
        at = 0
        if external is not None:
            external = np.ascontiguousarray(np.broadcast_to(external, (rows, self._noise.size)))
            at = external.ctypes.data
        masks = self._masks
        if self.kernel(self._at, rows, step, at, masks[id(last_fired.base)],
                       masks[id(fired.base)]):
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
#: Scratch rows of a step, as ``(attribute, dtype)``: the next step's
#: fired mask and the closures' drive, then the native step's (``_syn``,
#: zero between calls) or the NumPy step's — float and integer
#: temporaries and the synaptic outputs, then the substep's own on the
#: fixed-point backend and ``_isyn_raw`` on float64.
_SCRATCH = (("_fired", np.bool_), ("_ext", np.float64))
_NATIVE_SCRATCH = (("_syn", np.int64),)
_NUMPY_SCRATCH = {
    fixed: (("_fscratch", np.float64), ("_fscratch2", np.float64), ("_iscratch", np.int64),
            ("_iscratch2", np.int64), ("_out", np.float64), ("_raw_out", np.int64))
    + (_FixedBatchKernel.SCRATCH if fixed else (("_isyn_raw", np.int64),))
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
    """

    # Per-replica rows, the live (B, N) prefix of the row stack's buffers
    # (see _STATE, _PARAMS and _SCRATCH); _isyn_raw is state on the
    # fixed-point backend, scratch on float64.  _base (B,) holds each
    # row's first column in the integer synapse grid.
    _base: np.ndarray
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

    def __init__(self, networks: Sequence[Replica], *, synapse_mode: str = "exact") -> None:
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
        self.synapse_mode = synapse_mode
        drive = _drive_class(rows, self.size)
        if drive is None:
            _check_closures(rows)
        self._drive = None if drive is None else drive([row.drive_spec for row in rows])
        self._synapses = _SynapseBatch([row.synapses for row in rows], self.size, synapse_mode)
        fixed, width, kernel = self.is_fixed_point, (None, self.size), self._native_kernel()
        dtype = np.int64 if fixed else np.float64
        fields = {attr: Field(np.bool_ if attr == "_last_fired" else dtype, width, key)
                  for key, attr in _STATE[fixed]}
        fields.update((attr, Field(dtype, width)) for attr in _PARAMS[fixed])
        fields["_base"] = Field(np.int64)
        scratch = _SCRATCH + (_NUMPY_SCRATCH[fixed] if kernel is None else _NATIVE_SCRATCH)
        fields.update((attr, Field(dt, width, scratch=True)) for attr, dt in scratch)
        self._stack = RowStack(self, fields)
        self._stack.extend(len(rows), self._rows_of(rows))
        self.rows = rows
        if self._synapses.integer:
            self._base[:] = self._synapses.build([row.synapses for row in rows])
        if fixed:
            self._kernel = _FixedBatchKernel(h_shift=self.h_shift, pin_voltage=self._pin_voltage)
        self._native = None if kernel is None else _NativeStep(kernel, self)

    # ------------------------------------------------------------------ #
    # Stacking
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networks(
        cls, networks: Sequence[Replica], *, synapse_mode: str = "exact"
    ) -> "BatchedNetwork":
        """Stack compatible replicas: :class:`SNNNetwork` instances or row specs."""
        return cls(networks, synapse_mode=synapse_mode)

    @property
    def batch_size(self) -> int:
        """The live row count."""
        return len(self.rows)

    @property
    def integer_propagation(self) -> bool:
        """``True`` when the integer CSR synapse kernel is active."""
        return self._synapses.integer

    def _rows_of(self, rows: Sequence[BatchRow]) -> Dict[str, np.ndarray]:
        """Stack the rows' per-replica arrays, keyed by attribute name.

        The one reader of row specs: construction and :meth:`retain`
        write its arrays into the row stack.  A fixed-point batch keeps
        no float current: its raw Q15.16 current feed is derived here
        from the rows' float current.
        """
        names = [attr for _, attr in _STATE[self.is_fixed_point]] + list(_PARAMS[self.is_fixed_point])
        stacked = {
            name: np.stack([row.arrays[name] for row in rows])
            for name in names
            if name != "_isyn_raw"
        }
        if self.is_fixed_point and self.current_mode == "decay":
            # Carry the quantised current as raw integer state: the
            # sequential engine re-quantises its float current at the
            # top of every step, and the result is exactly the kernel
            # input of the previous step, so the round-trip can be
            # hoisted out of the loop entirely.
            current = np.stack([row.arrays["_current"] for row in rows])
            stacked["_isyn_raw"] = _quantize_scaled_q15_16(
                current * 65536.0, np.empty(current.shape, dtype=np.int64), np.empty_like(current)
            )
        return stacked

    def _native_kernel(self) -> Optional[Callable[..., int]]:
        """The native step this batch takes for life, or ``None``: the NumPy step.

        A fixed-point batch whose synapses run on the integer kernel or
        are absent takes the native step whenever the library loaded.
        Larger shifts than ``_NATIVE_MAX_H_SHIFT`` stay on the NumPy
        step: in C, shifting by 64 or more is undefined.
        """
        synapses = self._synapses
        if (self.is_fixed_point and (synapses.integer or synapses._none)
                and 0 <= self.h_shift <= _NATIVE_MAX_H_SHIFT):
            return native.load()
        return None

    def _check_admissions(self, rows: Sequence[BatchRow], kept: Sequence[BatchRow]) -> None:
        """Raise if ``rows`` cannot join the live rows ``kept`` — without mutating anything.

        The compatibility contract of construction (layout, synapse kind,
        and losslessly quantisable weights on the integer kernel: the
        kernel must not fall back to float mid-run, since a snapshot's
        descriptor records which path is active), and the batch's input
        path: a compiled drive takes only rows that compile with the kept
        rows, a batch that calls closures only rows it can call.
        """
        _check_layout(rows, self._layout)
        if self._drive is None:
            _check_closures(rows)
        elif _drive_class(list(kept) + list(rows), self.size) is not type(self._drive):
            raise BatchIncompatibleError("stacked-in rows do not compile into the batch's drive")
        synapses = self._synapses
        for row in rows:
            if type(row.synapses) is not synapses.kind:
                raise BatchIncompatibleError("stacked-in synapse kind differs from the batch")
            if synapses.integer and not row.synapses.quantized_q15_16()[1]:
                raise BatchIncompatibleError(
                    "integer propagation requires weights exactly representable in Q15.16"
                )

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
        """The float64 backend's current; mirrors ``CurrentState.update`` elementwise.

        The new current is computed into scratch and committed only when
        no cell is NaN; a NaN raises :class:`FloatingPointError` and
        leaves the stored current as it was, as ``SNNNetwork.step`` does.
        """
        fresh = self._fscratch
        if self.current_mode == "recompute":
            np.add(external, synaptic, out=fresh)
        else:
            z = np.multiply(self._current, 65536.0, out=fresh)
            raw = _quantize_scaled_q15_16(z, self._isyn_raw, self._fscratch2)
            decayed = _decay_raw(raw, self.tau_select, self.h_shift, self._iscratch, self._iscratch2)
            np.divide(decayed, 65536.0, out=fresh)
            fresh += external
            fresh += synaptic
        if np.isnan(fresh).any():
            raise FloatingPointError("NaN in the input current of a float64 step")
        self._current, self._fscratch = fresh, self._current
        return fresh

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
            z += synapses.propagate_raw(self._last_fired, self._base, self._raw_out)
        else:
            synaptic = synapses.propagate(self._last_fired, self._base, self._out, self._raw_out)
            z += np.multiply(synaptic, 65536.0, out=self._fscratch2)
        fresh = _quantize_scaled_q15_16(z, self._iscratch, self._fscratch2)
        self._isyn_raw, self._iscratch = fresh, self._isyn_raw
        return fresh

    @property
    def native_step(self) -> bool:
        """``True`` when this batch steps through the native fused kernel.

        Read-only: a fixed-point batch whose synapses run on the integer
        kernel or are absent takes the native step whenever the library
        of :mod:`repro.runtime.native` loaded (once per process, at the
        first such batch), and the NumPy step otherwise.
        """
        return self._native is not None

    def _advance_population(self, step_index: int) -> np.ndarray:
        fired = self._fired
        if self.is_fixed_point:
            bound = self._native
            if bound is not None:
                # An annealed drive is evaluated inside the C step.
                external = None if bound.annealed else self._external(step_index)
                bound(len(self.rows), step_index, external, self._last_fired, fired)
                return fired
            isyn_raw = self._fixed_isyn_raw(self._external(step_index))
            fired[:] = False
            for _ in range(self._substeps):
                spike = self._kernel.substep(self, self.v_raw, self.u_raw, isyn_raw)
                np.logical_or(fired, spike, out=fired)
            return fired
        external = self._external(step_index)
        synaptic = self._synapses.propagate(self._last_fired, self._base, self._out, self._raw_out)
        current = self._update_current(external, synaptic)
        v, u, fired_f = euler_step(
            self.v, self.u, current, self.a, self.b, self.c, self.d,
            dt_ms=1.0, v_substeps=self._v_substeps,
        )
        np.copyto(self.v, v)
        np.copyto(self.u, u)
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

        Covers everything the step loop carries between steps: the live
        ``_STATE`` rows — the last-fired masks, the current (the raw
        Q15.16 integer feed on the fixed-point backend, the float
        synaptic current on float64) and the membrane/recovery state —
        and, under ``"drive"``, the compiled drive's state (``None`` for
        a batch that calls its rows' closures, whose state is theirs),
        plus a structural descriptor so a restore onto a mismatched
        batch fails loudly.  Parameters, connectivity and drive specs
        are *not* serialised: the restore path rebuilds them from rows.
        """
        state = {"descriptor": self._state_descriptor()}
        state.update(self._stack.export())
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
        try:
            arrays = self._stack.check(state, self.batch_size)
        except ValueError as exc:
            raise BatchIncompatibleError(f"checkpoint {exc}") from None
        if self._drive is not None:
            self._drive.restore_state(state["drive"])
        self._stack.restore(arrays)

    # ------------------------------------------------------------------ #
    # Active-set shrinking and growth
    # ------------------------------------------------------------------ #
    def retain(self, keep: Sequence[int], networks: Sequence[Replica] = ()) -> None:
        """Recompose the batch: keep the rows ``keep``, then stack ``networks`` after them.

        ``keep`` must be strictly increasing current row indices.  The
        one recomposition, atomic: every check runs first — the indices,
        then each admission's layout, input path (a compiled drive takes
        only rows that compile with the kept ones, a batch that calls
        closures only rows it can call) and synapses (the batch's kind,
        and losslessly quantisable weights on the integer kernel) — so a
        refusal changes nothing.  Then the row stack, the synapses, the
        drive and the native block change once each: the survivors' rows
        move down in place, in order, and the admissions — row specs, or
        networks read through :func:`batch_row` — are written after them
        by the same :meth:`_rows_of` construction uses, so every row's
        trajectory is the one it would have standalone.  The row stacks
        reallocate only when they are full.  The integer grid is rebuilt
        from the live rows only when an admission brings a structure it
        lacks; a retirement leaves it as it is.

        **Layering seam.**  Within ``src/repro`` the sanctioned caller
        is :meth:`repro.runtime.slots.SlotEngine.recompose`, which owns
        the recomposition's edge guards and stamps each admission's
        offsets; direct calls from outside ``repro/runtime/`` are
        rejected by reprolint's RL001 layering rule
        (``docs/LINTING.md``).
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size == 0:
            raise BatchIncompatibleError("cannot retain an empty batch")
        if np.any(keep < 0) or np.any(keep >= self.batch_size):
            raise IndexError(f"retain indices out of range for {self.batch_size} rows")
        if np.any(np.diff(keep) <= 0):
            raise ValueError("retain indices must be strictly increasing")
        rows = [batch_row(replica) for replica in networks]
        kept = [self.rows[i] for i in keep]
        if rows:
            self._check_admissions(rows, kept)
        elif keep.size == self.batch_size:
            return
        values = self._rows_of(rows) if rows else {}
        # Every check passed: nothing below refuses.
        synapses = self._synapses
        self.rows = live = kept + rows
        bases = synapses.columns([row.synapses for row in rows]) if synapses.integer else []
        rebuilt = bases is None
        if bases is None:  # an admission brings a structure the grid lacks
            bases = synapses.build([row.synapses for row in live])
        self._stack.retain(keep)
        grown = self._stack.extend(len(rows), values)
        self._base[len(live) - len(bases):] = bases  # the admissions', or every row's
        synapses.restack([row.synapses for row in live])
        if self._drive is not None:
            self._drive.retain(keep)
            grown |= self._drive.extend([row.drive_spec for row in rows])
        bound = self._native
        if bound is not None and grown:
            self._native = _NativeStep(bound.kernel, self)  # the buffers moved
        elif bound is not None and rebuilt:
            bound.grid(synapses)

    def extend(self, networks: Sequence[Replica]) -> None:
        """Stack additional replicas after the live rows: :meth:`retain` keeping every row.

        **Layering seam.**  As with :meth:`retain` (reprolint rule RL001).
        """
        self.retain(range(self.batch_size), networks)

    # ------------------------------------------------------------------ #
    @property
    def membrane_potentials(self) -> np.ndarray:
        """The ``(B, N)`` membrane potentials in millivolts, as a fresh float array."""
        if self.is_fixed_point:
            return np.divide(self.v_raw, float(Q7_8.scale))
        return self.v.copy()

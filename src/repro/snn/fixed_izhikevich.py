"""Fixed-point Izhikevich population, bit-exact with the IzhiRISC-V NPU.

This is the vectorised engine used for the full-size 80-20 and Sudoku
experiments.  It calls the *same* integer datapath as the NPU model
(:func:`repro.sim.npu.izhikevich_update_raw`) with per-neuron parameter
arrays, so simulating a network here is bit-identical to executing one
``nmpn`` instruction per neuron per sub-step on the processor — only
orders of magnitude faster, which is what makes the 1000-neuron x 1000 ms
raster and the 100-puzzle Sudoku sweep tractable in Python.

Synaptic currents can either be recomputed every network step (matching
Izhikevich's original script and the float64 reference) or accumulated
and decayed through the DCU shift-add approximation (matching the paper's
AMPA-style ``nmdec`` path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fixedpoint import Q4_11, Q7_8, Q15_16
from ..sim.dcu import approx_divide
from ..sim.npu import izhikevich_update_raw

__all__ = ["FixedPointPopulation", "decay_current_raw"]


def decay_current_raw(isyn_raw: np.ndarray, tau_select: int, h_shift: int) -> np.ndarray:
    """Vectorised DCU decay: ``I - (approx(I / tau) >> h_shift)`` in Q15.16."""
    delta = approx_divide(isyn_raw, tau_select)
    out = np.asarray(isyn_raw, dtype=np.int64) - (np.asarray(delta, dtype=np.int64) >> h_shift)
    return np.asarray(Q15_16.handle_overflow(out), dtype=np.int64)


@dataclass
class FixedPointPopulation:
    """A population of Izhikevich neurons in the NPU's fixed-point formats.

    State and parameters are stored as raw integer payloads (``int64``
    NumPy arrays): ``v``/``u``/``c`` in Q7.8, ``a``/``b``/``d`` in Q4.11.
    """

    a_raw: np.ndarray
    b_raw: np.ndarray
    c_raw: np.ndarray
    d_raw: np.ndarray
    v_raw: np.ndarray
    u_raw: np.ndarray
    #: ``h_shift = 1`` → 0.5 ms sub-steps, ``h_shift = 3`` → 0.125 ms.
    h_shift: int = 1
    #: Cap the membrane potential at the reset value (Sudoku WTA stabiliser).
    pin_voltage: bool = False

    @classmethod
    def from_float_parameters(
        cls,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        d: np.ndarray,
        *,
        v0: float = -65.0,
        h_shift: int = 1,
        pin_voltage: bool = False,
    ) -> "FixedPointPopulation":
        """Quantise real-valued parameters and start at the resting state."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        v = np.full_like(a, float(v0))
        u = b * v
        return cls(
            a_raw=np.asarray(Q4_11.from_float(a), dtype=np.int64),
            b_raw=np.asarray(Q4_11.from_float(b), dtype=np.int64),
            c_raw=np.asarray(Q7_8.from_float(c), dtype=np.int64),
            d_raw=np.asarray(Q4_11.from_float(d), dtype=np.int64),
            v_raw=np.asarray(Q7_8.from_float(v), dtype=np.int64),
            u_raw=np.asarray(Q7_8.from_float(u), dtype=np.int64),
            h_shift=h_shift,
            pin_voltage=pin_voltage,
        )

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of neurons."""
        return int(self.v_raw.shape[0])

    @property
    def substeps_per_ms(self) -> int:
        """Number of NPU calls needed to advance the population by 1 ms."""
        return 1 << self.h_shift

    @property
    def v(self) -> np.ndarray:
        """Membrane potentials in millivolts (float view)."""
        return np.asarray(Q7_8.to_float(self.v_raw))

    @property
    def u(self) -> np.ndarray:
        """Recovery variable (float view)."""
        return np.asarray(Q7_8.to_float(self.u_raw))

    # ------------------------------------------------------------------ #
    def substep(self, isyn_raw: np.ndarray) -> np.ndarray:
        """Advance by one NPU timestep (0.5 ms or 0.125 ms); returns spikes."""
        v_new, u_new, spike = izhikevich_update_raw(
            self.v_raw,
            self.u_raw,
            np.asarray(isyn_raw, dtype=np.int64),
            a_raw=self.a_raw,
            b_raw=self.b_raw,
            c_raw=self.c_raw,
            d_raw=self.d_raw,
            h_shift=self.h_shift,
            pin_voltage=self.pin_voltage,
        )
        self.v_raw = np.asarray(v_new, dtype=np.int64)
        self.u_raw = np.asarray(u_new, dtype=np.int64)
        return np.asarray(spike, dtype=np.int64)

    def step_ms(self, isyn: np.ndarray) -> np.ndarray:
        """Advance by one 1 ms network step (several NPU sub-steps).

        Parameters
        ----------
        isyn:
            Real-valued synaptic + injected current, quantised to Q15.16
            once and held constant over the sub-steps (exactly what the
            generated assembly does).

        Returns
        -------
        Boolean array marking neurons that spiked at least once within
        the network step.
        """
        isyn_raw = np.asarray(Q15_16.from_float(np.asarray(isyn, dtype=np.float64)), dtype=np.int64)
        fired = np.zeros(self.size, dtype=bool)
        for _ in range(self.substeps_per_ms):
            fired |= self.substep(isyn_raw).astype(bool)
        return fired

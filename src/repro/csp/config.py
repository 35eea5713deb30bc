"""Drive, weight and decode parameters of the spiking constraint solver.

:class:`CSPConfig` generalises the Sudoku solver's ``WTAConfig``: the same
inhibition / self-excitation weights, clamp ("clue") and free-cell drives,
annealed exploration noise and sliding-window decode apply to *any*
constraint graph built from variables with finite domains.  The defaults
are the values tuned on the fixed-point (Q7.8 / Q15.16) NPU datapath with
the membrane pin enabled — the configuration the paper's 729-neuron
Sudoku network converged with — and they transfer well to the smaller
scenario networks (graph coloring, N-queens, Latin squares).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..isa.nm_ext import TAU_SELECT_MAX, TAU_SELECT_MIN

__all__ = ["CSPConfig"]

#: The two timesteps ``nmldh`` selects (``NMConfig.h_shift``): 0.5 ms and 0.125 ms.
_H_SHIFTS = (1, 3)


@dataclass(frozen=True)
class CSPConfig:
    """Weights and drive levels of a WTA constraint-solver network."""

    #: Inhibitory weight applied to every conflicting neuron on a spike.
    inhibition_weight: float = -30.0
    #: Self-excitation applied to the spiking neuron itself (persistence).
    #: The default of 0 gives pure noise-driven sampling, which converged
    #: most reliably on the fixed-point datapath.
    self_excitation: float = 0.0
    #: Constant drive of clamped (clue) value neurons.
    clamp_drive: float = 10.0
    #: Constant bias of free-variable candidate neurons.
    free_bias: float = 3.0
    #: Standard deviation of the exploration noise on free variables.
    noise_sigma: float = 4.0
    #: DCU decay selector for the synaptic current (tau ≈ a few ms).
    tau_select: int = 2
    #: Izhikevich parameters of every neuron (fast-spiking-like).
    a: float = 0.1
    b: float = 0.2
    c: float = -65.0
    d: float = 2.0
    #: Sliding window (in 1 ms steps) over which spike counts are decoded.
    decode_window: int = 20
    #: Period (in steps) of the exploration-noise annealing cycle; within
    #: each period the noise amplitude ramps down from its maximum to a
    #: small residual, letting the network alternately explore and settle.
    anneal_period: int = 200
    #: Fraction of the noise amplitude retained at the end of a cycle.
    anneal_floor: float = 0.25
    #: Fixed-point timestep shift (1 → two 0.5 ms substeps per network step).
    h_shift: int = 1
    #: Pin the membrane at the reset potential (required for convergence on
    #: the fixed-point datapath, per the paper's §VI-C observation).
    pin_voltage: bool = True

    def __post_init__(self) -> None:
        """Refuse values that break a solve (``ValueError``)."""
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise ValueError(f"CSPConfig.{field.name} must be finite, got {value!r}")
        if self.anneal_period < 1:
            raise ValueError(f"CSPConfig.anneal_period must be >= 1, got {self.anneal_period!r}")
        if self.decode_window < 1:
            raise ValueError(f"CSPConfig.decode_window must be >= 1, got {self.decode_window!r}")
        if not TAU_SELECT_MIN <= self.tau_select <= TAU_SELECT_MAX:
            raise ValueError(
                f"CSPConfig.tau_select must be in {TAU_SELECT_MIN}..{TAU_SELECT_MAX}, "
                f"got {self.tau_select!r}"
            )
        if self.h_shift not in _H_SHIFTS:
            raise ValueError(f"CSPConfig.h_shift must be 1 or 3, got {self.h_shift!r}")

    def with_updates(self, **changes) -> "CSPConfig":
        """A copy of this config with the given fields replaced (and validated)."""
        return replace(self, **changes)

"""Network-level simulation engine tying populations, synapses and inputs.

:class:`SNNNetwork` runs a spiking network for a number of 1 ms steps,
recording the spike raster.  It is backend-agnostic: the population may be
a double-precision :class:`~repro.snn.izhikevich.IzhikevichPopulation`
(the "MATLAB" reference) or a
:class:`~repro.snn.fixed_izhikevich.FixedPointPopulation` (bit-exact with
the IzhiRISC-V NPU), and the synaptic current may be recomputed per step
or decayed through the DCU approximation — covering all the arithmetic
variants compared in the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .analysis import SpikeRaster
from .fixed_izhikevich import FixedPointPopulation
from .izhikevich import IzhikevichPopulation
from .synapse import CurrentState, DenseSynapses, SparseSynapses

__all__ = ["SNNNetwork", "InputProvider"]

#: Signature of an external-input provider: ``f(step) -> current array``.
InputProvider = Callable[[int], np.ndarray]

Population = Union[IzhikevichPopulation, FixedPointPopulation]
Synapses = Union[DenseSynapses, SparseSynapses, None]


@dataclass
class SNNNetwork:
    """A recurrent spiking network driven by an external-input provider.

    Parameters
    ----------
    population:
        The neuron population (float64 reference or fixed-point engine).
    synapses:
        Recurrent connectivity, or ``None`` for an unconnected population.
    external_input:
        Callable mapping the step index to the externally injected current
        (e.g. the 80-20 network's thalamic noise); ``None`` means zero.
    current_mode:
        ``"recompute"`` or ``"decay"`` (see :class:`CurrentState`).
    tau_select:
        DCU decay selector used in ``"decay"`` mode.
    """

    population: Population
    synapses: Synapses = None
    external_input: Optional[InputProvider] = None
    current_mode: str = "recompute"
    tau_select: int = 4

    def __post_init__(self) -> None:
        h_shift = getattr(self.population, "h_shift", 1)
        self.current_state = CurrentState(
            num_neurons=self.population.size,
            mode=self.current_mode,
            tau_select=self.tau_select,
            h_shift=h_shift,
        )
        self._last_fired = np.zeros(self.population.size, dtype=bool)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of neurons in the network."""
        return self.population.size

    @property
    def is_fixed_point(self) -> bool:
        """``True`` when the population runs on the NPU fixed-point datapath."""
        return isinstance(self.population, FixedPointPopulation)

    def _external(self, step: int) -> np.ndarray:
        if self.external_input is None:
            return np.zeros(self.size, dtype=np.float64)
        return np.asarray(self.external_input(step), dtype=np.float64)

    def _advance_population(self, current: np.ndarray) -> np.ndarray:
        if isinstance(self.population, FixedPointPopulation):
            return self.population.step_ms(current)
        return self.population.step(current, dt_ms=1.0)

    # ------------------------------------------------------------------ #
    def step(self, step_index: int) -> np.ndarray:
        """Advance the network by one 1 ms step; returns the fired mask.

        A step whose current is NaN raises :class:`FloatingPointError`
        (the fixed-point quantiser has no integer for it) and leaves the
        population, the last-fired mask and the stored current as it
        found them; the input closure has still been called.
        """
        external = self._external(step_index)
        if self.synapses is not None:
            synaptic = self.synapses.propagate(self._last_fired)
        else:
            synaptic = np.zeros(self.size, dtype=np.float64)
        previous = self.current_state.current
        current = self.current_state.update(external, synaptic)
        try:
            fired = self._advance_population(current)
        except FloatingPointError:
            self.current_state.current = previous
            raise
        self._last_fired = np.asarray(fired, dtype=bool)
        return self._last_fired

    def run(
        self,
        num_steps: int,
        *,
        record: bool = True,
        progress_callback: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> SpikeRaster:
        """Run ``num_steps`` network steps and return the spike raster.

        Parameters
        ----------
        record:
            When false, spikes are not stored (useful for long warm-ups);
            an empty raster with correct dimensions is returned.
        progress_callback:
            Optional callable invoked as ``cb(step, fired)`` after every
            step (used by the Sudoku solver to detect convergence).
        """
        fired_matrix = np.zeros((num_steps, self.size), dtype=bool) if record else None
        for t in range(num_steps):
            fired = self.step(t)
            if fired_matrix is not None:
                fired_matrix[t] = fired
            if progress_callback is not None:
                progress_callback(t, fired)
        if fired_matrix is None:
            return SpikeRaster.empty(self.size, num_steps)
        return SpikeRaster.from_bool_matrix(fired_matrix)

    def reset_currents(self) -> None:
        """Clear the synaptic-current state and the last-fired mask."""
        self.current_state.reset()
        self._last_fired = np.zeros(self.size, dtype=bool)

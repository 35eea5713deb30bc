"""SNN Sudoku solver: a thin adapter over the generic ``repro.csp`` engine.

The paper's solver (§VI-C) runs the 729-neuron Winner-Takes-All network on
the bit-exact fixed-point population (the same arithmetic as the
``nmpn``/``nmdec`` instructions, including the *pin* behaviour the paper
added specifically for this use case) and decodes the board state from the
spike activity.  Since the WTA machinery generalises to any finite-domain
constraint problem, the construction now lives in :mod:`repro.csp`:

* the 9x9 board maps to the shared Sudoku
  :class:`~repro.csp.graph.ConstraintGraph`
  (:func:`repro.csp.scenarios.sudoku.sudoku_graph`);
* clue cells map to unary clamps;
* the run itself is :class:`~repro.csp.solver.SpikingCSPSolver` with the
  board-shaped :class:`WTAConfig` translated to a
  :class:`~repro.csp.config.CSPConfig`.

The adapter is **bit-identical** to the pre-refactor solver: same noise
streams, same synapse matrix, same decode and stop conditions, hence the
same boards, spike counts and step counts (locked down by
``tests/csp/test_sudoku_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..csp.config import CSPConfig
from ..csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
from ..csp.solver import CSPSolveResult, SpikingCSPSolver, decode_assignment
from ..snn.network import SNNNetwork
from .board import BacktrackingSolver, SudokuBoard
from .wta import GRID, WTAConfig

__all__ = ["SolveResult", "SNNSudokuSolver"]


@dataclass
class SolveResult:
    """Outcome of one SNN solving run."""

    solved: bool
    steps: int
    board: SudokuBoard
    #: Total number of spikes emitted during the run.
    total_spikes: int
    #: Number of neuron updates performed (neurons x sub-steps x steps).
    neuron_updates: int
    #: True when the answer also matches the reference backtracking solution.
    matches_reference: Optional[bool] = None


def _csp_config(config: WTAConfig) -> CSPConfig:
    """Translate the board-shaped WTA parameters to the generic config."""
    return CSPConfig(
        inhibition_weight=config.inhibition_weight,
        self_excitation=config.self_excitation,
        clamp_drive=config.clue_drive,
        free_bias=config.free_bias,
        noise_sigma=config.noise_sigma,
        tau_select=config.tau_select,
        a=config.a,
        b=config.b,
        c=config.c,
        d=config.d,
        decode_window=config.decode_window,
        anneal_period=config.anneal_period,
        anneal_floor=config.anneal_floor,
    )


class SNNSudokuSolver:
    """Solve Sudoku puzzles with the 729-neuron WTA spiking network.

    Parameters
    ----------
    config:
        WTA weights and drive levels.
    backend:
        ``"fixed"`` (default) runs on the NPU fixed-point datapath with the
        membrane pin enabled — the configuration the paper converged with;
        ``"float64"`` runs the double-precision reference dynamics.
    seed:
        Seed of the exploration-noise stream.
    """

    def __init__(
        self,
        config: Optional[WTAConfig] = None,
        *,
        backend: str = "fixed",
        seed: int = 7,
    ) -> None:
        if backend not in ("fixed", "float64"):
            raise ValueError(f"unknown backend {backend!r}")
        self.config = config if config is not None else WTAConfig()
        self.backend = backend
        self.seed = seed
        self._csp = SpikingCSPSolver(
            shared_sudoku_graph(), _csp_config(self.config), backend=backend, seed=seed
        )
        self.synapses = self._csp.synapses

    # ------------------------------------------------------------------ #
    # Network assembly (kept for the runtime backends)
    # ------------------------------------------------------------------ #
    def _drive_vector(self, puzzle: SudokuBoard) -> np.ndarray:
        """Constant per-neuron drive: strong for clue digits, bias otherwise."""
        return self._csp.graph.drive_vector(
            clamps_from_cells(puzzle.cells),
            clamp_drive=self.config.clue_drive,
            free_bias=self.config.free_bias,
        )

    def _build_network(self, puzzle: SudokuBoard) -> SNNNetwork:
        return self._csp.build_network(clamps_from_cells(puzzle.cells))

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    @staticmethod
    def decode(
        window_counts: np.ndarray,
        last_spike_step: np.ndarray,
        puzzle: SudokuBoard,
    ) -> SudokuBoard:
        """Decode the board from recent spike activity.

        Within each cell the digit with the most spikes in the sliding
        window wins; ties are broken by the most recent spike.  Cells whose
        candidates have not spiked recently stay empty; clue cells are
        always taken from the puzzle.
        """
        values, _ = decode_assignment(
            shared_sudoku_graph(),
            window_counts,
            last_spike_step,
            clamps_from_cells(puzzle.cells),
        )
        return SudokuBoard(values.reshape(GRID, GRID))

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def _to_result(
        self,
        csp_result: CSPSolveResult,
        puzzle: SudokuBoard,
        verify_against_reference: bool,
    ) -> SolveResult:
        board = SudokuBoard(csp_result.values.reshape(GRID, GRID))
        matches = None
        if verify_against_reference:
            reference = BacktrackingSolver().solve(puzzle)
            matches = reference is not None and bool(np.all(reference.cells == board.cells))
        return SolveResult(
            solved=csp_result.solved,
            steps=csp_result.steps,
            board=board,
            total_spikes=csp_result.total_spikes,
            neuron_updates=csp_result.neuron_updates,
            matches_reference=matches,
        )

    def solve(
        self,
        puzzle: SudokuBoard,
        *,
        max_steps: int = 3000,
        check_interval: int = 10,
        verify_against_reference: bool = False,
    ) -> SolveResult:
        """Run the network until the decoded board is a valid solution.

        Parameters
        ----------
        puzzle:
            The clue board (0 = empty cell).
        max_steps:
            Upper bound on 1 ms network steps.
        check_interval:
            How often (in steps) the decoded board is tested for validity.
        verify_against_reference:
            Also compare the SNN answer against the backtracking solver's
            solution (only meaningful for uniquely-solvable puzzles).
        """
        if not puzzle.is_valid():
            raise ValueError("puzzle contains conflicting clues")
        csp_result = self._csp.solve(
            clamps_from_cells(puzzle.cells),
            max_steps=max_steps,
            check_interval=check_interval,
        )
        return self._to_result(csp_result, puzzle, verify_against_reference)

    def solve_batch(
        self,
        puzzles: List[SudokuBoard],
        *,
        max_steps: int = 3000,
        check_interval: int = 10,
        verify_against_reference: bool = False,
    ) -> List[SolveResult]:
        """Solve ``B`` puzzles at once on the vectorised batch engine.

        All puzzle networks are stacked into one exact-mode
        :class:`~repro.runtime.batch.BatchedNetwork` (they share the WTA
        connectivity and differ only in drive and noise): the inhibitory
        weights are exact Q15.16 values, so every 1 ms step propagates
        spikes for the whole batch through the integer CSR kernel and
        draws all noise from one compiled ``(B, 729)`` drive, while
        each result stays bit-identical to a sequential :meth:`solve`
        call on the same puzzle — including the per-puzzle noise streams,
        decode windows and step counts.  Replicas that solve early are
        dropped from the live batch (their result recorded) while the
        rest keeps running; the run stops as soon as every replica has
        solved or ``max_steps`` is reached.
        """
        for puzzle in puzzles:
            if not puzzle.is_valid():
                raise ValueError("puzzle contains conflicting clues")
        csp_results = self._csp.solve_batch(
            [clamps_from_cells(p.cells) for p in puzzles],
            max_steps=max_steps,
            check_interval=check_interval,
        )
        return [
            self._to_result(csp_result, puzzle, verify_against_reference)
            for csp_result, puzzle in zip(csp_results, puzzles)
        ]

    def solve_many(
        self, puzzles: List[SudokuBoard], *, max_steps: int = 3000
    ) -> List[SolveResult]:
        """Solve a list of puzzles (the Top-100-style sweep).

        Thin wrapper over :meth:`solve_batch`, which advances all puzzles
        together on the batched runtime while producing results
        bit-identical to sequential :meth:`solve` calls.
        """
        return self.solve_batch(puzzles, max_steps=max_steps)

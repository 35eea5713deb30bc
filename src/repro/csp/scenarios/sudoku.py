"""Sudoku as a generic constraint graph (the paper's original scenario).

81 cell variables with domain 1..9, laid out row-major so the neuron
numbering coincides exactly with the historical
``repro.sudoku.wta.neuron_index`` convention
(``row * 81 + col * 9 + digit - 1``), and one ``all_different`` unit per
row, column and 3x3 box.  ``repro.sudoku.solver.SNNSudokuSolver`` builds
its network from this graph; the clue board maps to unary clamps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..graph import ConstraintGraph, Variable

__all__ = [
    "GRID",
    "BOX",
    "sudoku_graph",
    "shared_sudoku_graph",
    "clamps_from_cells",
    "cells_from_values",
    "sudoku_instance",
]

GRID = 9
BOX = 3
_DOMAIN = tuple(range(1, GRID + 1))


def _cell_name(row: int, col: int) -> str:
    return f"cell({row},{col})"


#: Every cell's variable name, row-major.
_CELL_NAMES = tuple(_cell_name(r, c) for r in range(GRID) for c in range(GRID))


def sudoku_graph() -> ConstraintGraph:
    """The 729-neuron Sudoku constraint graph (Fig. 4 connectivity)."""
    variables = [Variable(_cell_name(r, c), _DOMAIN) for r in range(GRID) for c in range(GRID)]
    graph = ConstraintGraph(variables, name="sudoku")
    for r in range(GRID):
        graph.add_all_different([_cell_name(r, c) for c in range(GRID)])
    for c in range(GRID):
        graph.add_all_different([_cell_name(r, c) for r in range(GRID)])
    for br in range(0, GRID, BOX):
        for bc in range(0, GRID, BOX):
            graph.add_all_different(
                [_cell_name(r, c) for r in range(br, br + BOX) for c in range(bc, bc + BOX)]
            )
    return graph


@lru_cache(maxsize=1)
def shared_sudoku_graph() -> ConstraintGraph:
    """A process-wide shared Sudoku graph (treat as immutable).

    The graph structure is fixed, and its cached per-neuron conflict
    arrays are expensive enough to be worth sharing between every
    ``SNNSudokuSolver`` instance and the static decode helper.
    """
    return sudoku_graph()


def clamps_from_cells(cells: np.ndarray) -> Dict[str, int]:
    """Unary clamps for every filled cell of a 9x9 clue grid (0 = empty)."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.shape != (GRID, GRID):
        raise ValueError(f"a Sudoku grid must be 9x9, got {cells.shape}")
    flat = cells.ravel()
    filled = np.flatnonzero(flat)
    return dict(zip([_CELL_NAMES[i] for i in filled.tolist()], flat[filled].tolist()))


def cells_from_values(values: np.ndarray) -> np.ndarray:
    """Reshape a decoded 81-variable assignment back into a 9x9 grid."""
    return np.asarray(values, dtype=np.int64).reshape(GRID, GRID)


def sudoku_instance(
    seed: int = 100, *, target_clues: int = 28
) -> Tuple[ConstraintGraph, Dict[str, int]]:
    """A generated, uniquely-solvable Sudoku instance as (graph, clamps)."""
    from ...sudoku.puzzles import PuzzleGenerator

    generated = PuzzleGenerator().generate(seed=seed, target_clues=target_clues)
    return shared_sudoku_graph(), clamps_from_cells(generated.puzzle.cells)

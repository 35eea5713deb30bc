"""Sudoku board representation, validation and a reference backtracking solver.

The SNN Sudoku solver (paper §VI-C) needs three conventional ingredients
around it: a board representation, a validity checker used to decide when
the network has converged to a legal solution, and a classical solver used
both to verify puzzle uniqueness when generating the evaluation set and as
the non-neuromorphic reference baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SudokuBoard", "BacktrackingSolver"]

GRID = 9
BOX = 3

#: :meth:`SudokuBoard.from_string`'s reading of ASCII: a digit is kept, a
#: ``.`` becomes ``0`` and any other ASCII character is dropped.
_ASCII_CELLS = str.maketrans(
    {**{chr(c): None for c in range(128) if not chr(c).isdigit()}, ".": "0"}
)


@dataclass
class SudokuBoard:
    """A 9x9 Sudoku grid; 0 denotes an empty cell."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.shape != (GRID, GRID):
            raise ValueError(f"a Sudoku board must be 9x9, got {cells.shape}")
        if cells.min() < 0 or cells.max() > 9:
            raise ValueError("cell values must be within 0..9")
        self.cells = cells

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "SudokuBoard":
        return cls(np.zeros((GRID, GRID), dtype=np.int64))

    @classmethod
    def from_string(cls, text: str) -> "SudokuBoard":
        """Parse an 81-character puzzle string (``0`` or ``.`` for blanks).

        The cells are the string's digits and dots, in order; every other
        character is skipped.  A string of ASCII characters is read in one
        pass (:data:`_ASCII_CELLS`); any other input character by character.
        """
        if isinstance(text, str):
            cells = text.translate(_ASCII_CELLS)
            if cells.isascii():  # only ASCII digits are left
                if len(cells) != GRID * GRID:
                    raise ValueError(f"expected 81 cells, got {len(cells)}")
                raw = np.frombuffer(cells.encode("ascii"), dtype=np.uint8)
                return cls(raw.reshape(GRID, GRID) - ord("0"))
        digits = [ch for ch in text if ch.isdigit() or ch == "."]
        if len(digits) != GRID * GRID:
            raise ValueError(f"expected 81 cells, got {len(digits)}")
        values = [0 if ch == "." else int(ch) for ch in digits]
        return cls(np.asarray(values, dtype=np.int64).reshape(GRID, GRID))

    def to_string(self) -> str:
        """Serialise to an 81-character string with ``.`` for blanks."""
        return "".join("." if v == 0 else str(int(v)) for v in self.cells.ravel())

    def copy(self) -> "SudokuBoard":
        return SudokuBoard(self.cells.copy())

    def pretty(self) -> str:
        """Human-readable rendering with box separators."""
        lines = []
        for r in range(GRID):
            if r % BOX == 0 and r:
                lines.append("------+-------+------")
            row = []
            for c in range(GRID):
                if c % BOX == 0 and c:
                    row.append("|")
                v = int(self.cells[r, c])
                row.append(str(v) if v else ".")
            lines.append(" ".join(row))
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_clues(self) -> int:
        """Number of filled cells."""
        return int(np.count_nonzero(self.cells))

    def is_complete(self) -> bool:
        """All 81 cells filled (validity not implied)."""
        return bool(np.all(self.cells > 0))

    def clue_positions(self) -> List[Tuple[int, int, int]]:
        """List of ``(row, col, digit)`` for every filled cell."""
        rows, cols = np.nonzero(self.cells)
        return [(int(r), int(c), int(self.cells[r, c])) for r, c in zip(rows, cols)]

    def candidates(self, row: int, col: int) -> List[int]:
        """Digits legal in ``(row, col)`` given the current grid."""
        if self.cells[row, col]:
            return [int(self.cells[row, col])]
        used = set(self.cells[row, :]) | set(self.cells[:, col])
        br, bc = BOX * (row // BOX), BOX * (col // BOX)
        used |= set(self.cells[br : br + BOX, bc : bc + BOX].ravel())
        return [d for d in range(1, 10) if d not in used]

    def is_valid(self) -> bool:
        """No duplicated digit within any row, column or 3x3 box."""
        for axis_cells in self._units():
            filled = axis_cells[axis_cells > 0]
            if len(np.unique(filled)) != len(filled):
                return False
        return True

    def is_solved(self) -> bool:
        """Complete and valid."""
        return self.is_complete() and self.is_valid()

    def conflicts(self) -> int:
        """Number of constraint units containing at least one duplicate."""
        count = 0
        for unit in self._units():
            filled = unit[unit > 0]
            count += int(len(filled) - len(np.unique(filled)))
        return count

    def respects_clues(self, clues: "SudokuBoard") -> bool:
        """Every original clue is preserved in this board."""
        mask = clues.cells > 0
        return bool(np.all(self.cells[mask] == clues.cells[mask]))

    def _units(self) -> Iterator[np.ndarray]:
        for r in range(GRID):
            yield self.cells[r, :]
        for c in range(GRID):
            yield self.cells[:, c]
        for br in range(0, GRID, BOX):
            for bc in range(0, GRID, BOX):
                yield self.cells[br : br + BOX, bc : bc + BOX].ravel()


class BacktrackingSolver:
    """Classical depth-first Sudoku solver with candidate ordering.

    Used to (a) generate puzzles with a unique solution, (b) verify that
    the SNN solver's answer matches the true solution, and (c) serve as
    the conventional-algorithm baseline in the examples.
    """

    def __init__(self, *, rng: Optional[np.random.Generator] = None) -> None:
        self.rng = rng
        self.nodes_visited = 0

    # ------------------------------------------------------------------ #
    def solve(self, board: SudokuBoard) -> Optional[SudokuBoard]:
        """Return one solution, or ``None`` if the puzzle is unsatisfiable."""
        self.nodes_visited = 0
        solutions = self._search(board.copy(), limit=1)
        return solutions[0] if solutions else None

    def count_solutions(self, board: SudokuBoard, *, limit: int = 2) -> int:
        """Count solutions up to ``limit`` (2 suffices for uniqueness tests)."""
        self.nodes_visited = 0
        return len(self._search(board.copy(), limit=limit))

    def has_unique_solution(self, board: SudokuBoard) -> bool:
        """``True`` when exactly one solution exists."""
        return self.count_solutions(board, limit=2) == 1

    # ------------------------------------------------------------------ #
    def _search(self, board: SudokuBoard, *, limit: int) -> List[SudokuBoard]:
        solutions: List[SudokuBoard] = []
        self._recurse(board, solutions, limit)
        return solutions

    def _recurse(self, board: SudokuBoard, solutions: List[SudokuBoard], limit: int) -> None:
        if len(solutions) >= limit:
            return
        self.nodes_visited += 1
        target: Optional[Tuple[int, int, List[int]]] = None
        # Most-constrained-cell heuristic.
        for r in range(GRID):
            for c in range(GRID):
                if board.cells[r, c] == 0:
                    cands = board.candidates(r, c)
                    if target is None or len(cands) < len(target[2]):
                        target = (r, c, cands)
                        if len(cands) <= 1:
                            break
            if target is not None and len(target[2]) <= 1:
                break
        if target is None:
            solutions.append(board.copy())
            return
        row, col, cands = target
        if self.rng is not None:
            cands = list(cands)
            self.rng.shuffle(cands)
        for digit in cands:
            board.cells[row, col] = digit
            self._recurse(board, solutions, limit)
            board.cells[row, col] = 0
            if len(solutions) >= limit:
                return

"""Regenerate the benchmark's Sudoku corpus (``data/sudoku-50.txt``).

Usage::

    python3 perfbench/make_corpus.py

Writes 256 uniquely-solvable puzzles of 50 clues made by the
repository's ``PuzzleGenerator`` (seeds 0..255), one per line as
``<puzzle> <solution>`` in the 81-character ``SudokuBoard`` string form.  The workloads take their
Sudoku instances from this fixed corpus as they are; the seed only
permutes which puzzles share a ``solve_instances`` call.  So every seed
runs the same puzzles and the set-up does not spend seconds on clue
removal.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "sudoku-50.txt"
COUNT = 256
CLUES = 50


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.sudoku.puzzles import PuzzleGenerator

    generator = PuzzleGenerator()
    lines = []
    for seed in range(COUNT):
        made = generator.generate(seed=seed, target_clues=CLUES)
        lines.append(f"{made.puzzle.to_string()} {made.solution.to_string()}")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"wrote {COUNT} puzzles to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

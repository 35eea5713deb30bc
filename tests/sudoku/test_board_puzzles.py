"""Tests for the Sudoku board, the backtracking solver and puzzle generation."""

import numpy as np
import pytest

from repro.sudoku import (
    BacktrackingSolver,
    EXAMPLE_PUZZLE,
    PuzzleGenerator,
    SudokuBoard,
    generate_puzzle_set,
)


class TestBoard:
    def test_from_string_and_back(self):
        board = SudokuBoard.from_string(EXAMPLE_PUZZLE)
        assert board.num_clues == 30
        assert board.to_string().count(".") == 81 - 30

    def test_dots_accepted(self):
        board = SudokuBoard.from_string("." * 81)
        assert board.num_clues == 0

    def test_eighty_cells_are_refused(self):
        with pytest.raises(ValueError):
            SudokuBoard.from_string(EXAMPLE_PUZZLE.replace(".", "0")[:80])
        with pytest.raises(ValueError):
            SudokuBoard.from_string("1" * 80 + " \n|x")

    def test_any_string_parses_as_one_character_at_a_time(self):
        # The reference rule: digits (any isdigit() character) and dots are
        # the cells, in order; everything else is skipped.
        def reference(text):
            digits = [ch for ch in text if ch.isdigit() or ch == "."]
            if len(digits) != 81:
                raise ValueError(f"expected 81 cells, got {len(digits)}")
            values = [0 if ch == "." else int(ch) for ch in digits]
            return SudokuBoard(np.asarray(values, dtype=np.int64).reshape(9, 9))

        def outcome(parse, text):
            try:
                return parse(text).cells.tolist()
            except Exception as exc:  # the type is what must agree
                return type(exc)

        rng = np.random.default_rng(5)
        alphabet = list("0123456789.....| -+\n\tx") + ["\u0663", "\u00b2", "\uff17", "\u00e9"]
        texts = [EXAMPLE_PUZZLE, " ".join(EXAMPLE_PUZZLE), "\u0663" * 81, "9" * 81]
        texts += ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(79, 130, 400)]
        accepted = 0
        for text in texts:
            expected = outcome(reference, text)
            assert outcome(SudokuBoard.from_string, text) == expected, repr(text)
            accepted += isinstance(expected, list)
        assert 0 < accepted < len(texts)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            SudokuBoard.from_string("123")
        with pytest.raises(ValueError):
            SudokuBoard(np.zeros((8, 9), dtype=int))

    def test_validity_checks(self):
        board = SudokuBoard.from_string(EXAMPLE_PUZZLE)
        assert board.is_valid()
        assert not board.is_complete()
        board.cells[0, 1] = 5  # duplicate 5 in row 0
        assert not board.is_valid()
        assert board.conflicts() >= 1

    def test_candidates(self):
        board = SudokuBoard.from_string(EXAMPLE_PUZZLE)
        cands = board.candidates(0, 2)
        assert all(1 <= d <= 9 for d in cands)
        assert 5 not in cands  # 5 already in row 0
        assert 3 not in cands  # 3 already in row 0
        assert board.candidates(0, 0) == [5]  # a filled cell

    def test_respects_clues(self):
        clues = SudokuBoard.from_string(EXAMPLE_PUZZLE)
        other = clues.copy()
        assert other.respects_clues(clues)
        row, col, _ = clues.clue_positions()[0]
        other.cells[row, col] = 9 if other.cells[row, col] != 9 else 8
        assert not other.respects_clues(clues)

    def test_pretty_render(self):
        text = SudokuBoard.from_string(EXAMPLE_PUZZLE).pretty()
        assert text.count("\n") == 10
        assert "|" in text


class TestBacktrackingSolver:
    def test_solves_example(self):
        board = SudokuBoard.from_string(EXAMPLE_PUZZLE)
        solution = BacktrackingSolver().solve(board)
        assert solution is not None
        assert solution.is_solved()
        assert solution.respects_clues(board)

    def test_unique_solution_detection(self):
        assert BacktrackingSolver().has_unique_solution(SudokuBoard.from_string(EXAMPLE_PUZZLE))
        # An empty board has many solutions.
        assert not BacktrackingSolver().has_unique_solution(SudokuBoard.empty())

    def test_unsolvable_board(self):
        board = SudokuBoard.empty()
        board.cells[0, :] = [1, 2, 3, 4, 5, 6, 7, 8, 0]
        board.cells[1, 0] = 9
        board.cells[0, 8] = 0
        # Make cell (0,8) impossible: its row has 1-8 and its column/box has 9.
        board.cells[2, 8] = 9
        board.cells[1, 8] = 0
        candidates = board.candidates(0, 8)
        if candidates:  # ensure the construction really blocks the cell
            board.cells[1, 8] = candidates[0] if candidates[0] != 9 else 0
        result = BacktrackingSolver().solve(board)
        # Either unsolvable (None) or solvable-but-valid; both must not crash.
        assert result is None or result.is_solved()

    def test_nodes_visited_counter(self):
        solver = BacktrackingSolver()
        solver.solve(SudokuBoard.from_string(EXAMPLE_PUZZLE))
        assert solver.nodes_visited > 0


class TestPuzzleGenerator:
    def test_complete_grid_is_solved(self):
        grid = PuzzleGenerator(seed=5).complete_grid()
        assert grid.is_solved()

    def test_different_seeds_different_grids(self):
        g1 = PuzzleGenerator().complete_grid(seed=1)
        g2 = PuzzleGenerator().complete_grid(seed=2)
        assert not np.array_equal(g1.cells, g2.cells)

    def test_generated_puzzle_is_unique_and_solvable(self):
        gp = PuzzleGenerator().generate(seed=11, target_clues=32)
        assert gp.puzzle.is_valid()
        assert gp.num_clues >= 17
        assert BacktrackingSolver().has_unique_solution(gp.puzzle)
        assert gp.solution.is_solved()
        assert gp.solution.respects_clues(gp.puzzle)

    def test_difficulty_proxy_positive(self):
        gp = PuzzleGenerator().generate(seed=12, target_clues=30)
        assert gp.difficulty_proxy() > 0

    def test_generate_puzzle_set_deterministic(self):
        set_a = generate_puzzle_set(2, base_seed=50, target_clues=32)
        set_b = generate_puzzle_set(2, base_seed=50, target_clues=32)
        assert len(set_a) == 2
        for a, b in zip(set_a, set_b):
            assert np.array_equal(a.puzzle.cells, b.puzzle.cells)

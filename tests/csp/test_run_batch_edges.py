"""Degenerate-shape guards of the shared batch loop (satellite bugfixes).

The one-shot batch loop historically fell through its step loop when
``max_steps=0`` and decoded an all-zero window after allocating the full
batch state; the explicit guards must reproduce those results exactly
without building a batch, and an empty instance list must return ``[]``.
"""

import numpy as np
import pytest

from repro.csp import ConstraintGraph, SpikingCSPSolver, Variable, make_instance
from repro.csp.solver import solve_instances


class TestZeroStepBudget:
    def test_solve_returns_unsolved_zero_steps(self):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        result = SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=0)
        assert not result.solved
        assert result.steps == 0
        assert result.total_spikes == 0
        assert result.neuron_updates == 0
        assert result.attempt_steps == (0,)

    def test_clamped_variables_still_decode(self):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        result = SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=0)
        resolved = graph.resolve_clamps(clamps)
        for vi, value, _ in resolved:
            assert result.decided[vi]
            assert result.values[vi] == value
        free = np.ones(graph.num_variables, dtype=bool)
        free[[vi for vi, _, _ in resolved]] = False
        assert not result.decided[free].any()

    def test_fully_clamped_consistent_instance_counts_as_solved(self):
        # All variables clamped consistently: the empty decode already is
        # a solution, exactly as the fall-through loop reported it.
        graph = ConstraintGraph([Variable(n, (1, 2)) for n in "ab"], name="tiny")
        graph.add_not_equal("a", "b")
        result = SpikingCSPSolver(graph, seed=1).solve({"a": 1, "b": 2}, max_steps=0)
        assert result.solved
        assert result.steps == 0

    def test_negative_budget_behaves_like_zero(self):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        zero = SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=0)
        negative = SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=-3)
        assert (negative.solved, negative.steps) == (zero.solved, zero.steps)
        np.testing.assert_array_equal(negative.values, zero.values)

    def test_no_batch_state_allocated(self, monkeypatch):
        import repro.runtime.batch as batch_mod

        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("batch must not be built for max_steps=0")

        monkeypatch.setattr(batch_mod.BatchedNetwork, "from_networks", classmethod(boom))
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=0)

    def test_solve_batch_zero_budget(self):
        graph, _ = make_instance("queens", seed=0, n=5)
        results = SpikingCSPSolver(graph, seed=11).solve_batch([{}, {"row0": 1}], max_steps=0)
        assert [r.steps for r in results] == [0, 0]
        assert all(not r.solved for r in results)


class TestEmptyEntries:
    def test_solve_instances_empty(self):
        assert solve_instances([]) == []

    def test_solve_batch_empty(self):
        graph, _ = make_instance("queens", seed=0, n=5)
        assert SpikingCSPSolver(graph, seed=11).solve_batch([]) == []

    def test_empty_list_never_builds_a_batch(self, monkeypatch):
        import repro.runtime.batch as batch_mod

        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("batch must not be built for empty entries")

        monkeypatch.setattr(batch_mod.BatchedNetwork, "from_networks", classmethod(boom))
        assert solve_instances([]) == []


class TestPositiveBudgetUnaffected:
    def test_one_step_budget_still_runs(self):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        result = SpikingCSPSolver(graph, seed=5).solve(clamps, max_steps=1)
        assert result.steps == 1
        assert result.neuron_updates == graph.num_neurons * 2

    @pytest.mark.parametrize("max_steps", [5, 10, 17])
    def test_non_interval_budgets_decode_at_the_end(self, max_steps):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        result = SpikingCSPSolver(graph, seed=5).solve(
            clamps, max_steps=max_steps, check_interval=10
        )
        assert result.steps <= max_steps

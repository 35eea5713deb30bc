"""Workload/harness layers of the restart portfolio + seed-mixing fixes."""

from repro.csp import PortfolioConfig
from repro.harness import csp_portfolio_solve_rate
from repro.runtime import (
    CSPPortfolioSweepConfig,
    PooledSudokuSweepConfig,
    csp_portfolio_sweep,
    derive_task_seed,
    pooled_sudoku_sweep,
)


class TestCSPPortfolioSweep:
    def test_summary_shape_and_determinism(self):
        config = CSPPortfolioSweepConfig(
            scenario="coloring",
            count=4,
            base_seed=0,
            max_steps=500,
            portfolio=PortfolioConfig(base_budget=60, seed=3),
            scenario_params={"num_vertices": 10, "num_colors": 3, "edge_probability": 0.8},
        )
        a = csp_portfolio_sweep(config)
        b = csp_portfolio_sweep(config)
        assert a["num_instances"] == 4
        assert 0.0 <= a["solve_rate"] <= 1.0
        assert a["total_attempts"] >= 4
        assert a["total_neuron_updates"] == sum(r.neuron_updates for r in a["results"])
        assert (a["solved"], a["total_attempts"], a["total_neuron_updates"]) == (
            b["solved"],
            b["total_attempts"],
            b["total_neuron_updates"],
        )


class TestCSPPortfolioSolveRate:
    def test_compares_against_fixed_seed_baseline(self):
        summary = csp_portfolio_solve_rate(
            scenario="coloring",
            count=6,
            max_steps=800,
            seed=100,
            portfolio=PortfolioConfig(base_budget=80, seed=0),
            scenario_params={"num_vertices": 12, "num_colors": 3, "edge_probability": 0.85},
        )
        assert summary["num_instances"] == 6
        assert "fixed_solve_rate" in summary and "fixed_neuron_updates" in summary
        assert len(summary["results"]) == len(summary["fixed_results"]) == 6
        # Shared first-attempt seeds: any instance the fixed engine solves
        # within the first attempt budget is solved identically.
        for fixed, port in zip(summary["fixed_results"], summary["results"]):
            if fixed.solved and fixed.steps <= 80:
                assert port.solved and port.steps == fixed.steps

    def test_compare_fixed_optional(self):
        summary = csp_portfolio_solve_rate(
            scenario="coloring",
            count=2,
            max_steps=200,
            seed=0,
            scenario_params={"num_vertices": 8, "num_colors": 3},
            compare_fixed=False,
        )
        assert "fixed_solve_rate" not in summary


class TestPooledSudokuSeedMixing:
    def test_puzzle_seeds_use_seed_sequence(self):
        config = PooledSudokuSweepConfig(count=2, base_seed=1000, target_clues=40, max_steps=40)
        got = [r["puzzle_seed"] for r in pooled_sudoku_sweep(config).results]
        assert got == [derive_task_seed(1000, i) for i in range(2)]

"""Restart-portfolio engine: bit-exactness, scheduling and accounting.

Three contracts are locked down:

* **one attempt per instance** — under ``PortfolioConfig(schedule="fixed",
  base_budget=max_steps, max_attempts=1)`` the portfolio loop reproduces
  fixed-seed ``solve_instances`` bit-for-bit (same decode points, same
  shrink timing, same spike counts), so the portfolio is a strict
  superset of the one-shot solve;
* **every attempt is a standalone solve** — an attempt stacked into a
  half-finished batch (fresh seed, Luby budget, step offset) produces
  exactly the trajectory of ``SpikingCSPSolver(...).solve`` with that
  seed and budget, because attempts carry their own local step counter
  through the compiled portfolio drive;
* **deterministic scheduling** — Luby budgets, attempt seeds and the
  refill order depend only on the portfolio seed and instance indices,
  never on wall clock or slot assignment.
"""

import numpy as np
import pytest

from repro.csp import (
    CSPConfig,
    PortfolioConfig,
    SpikingCSPSolver,
    derive_attempt_seed,
    luby,
    make_instance,
    solve_instances_portfolio,
)
from repro.csp.solver import solve_instances


def _one_shot(max_steps, **overrides):
    """The portfolio config equivalent to one ``solve_instances`` attempt each."""
    return PortfolioConfig(schedule="fixed", base_budget=max_steps, max_attempts=1, **overrides)


def _hard_coloring_pool(count=8, *, base=0, num_vertices=12, edge_probability=0.85):
    return [
        make_instance(
            "coloring",
            seed=base + i,
            num_vertices=num_vertices,
            num_colors=3,
            edge_probability=edge_probability,
        )
        for i in range(count)
    ]


class TestLubySequence:
    def test_canonical_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_power_of_two_peaks(self):
        for k in range(1, 8):
            assert luby(2**k - 1) == 2 ** (k - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestAttemptSeeds:
    def test_deterministic_and_distinct(self):
        seeds = {derive_attempt_seed(0, i, k) for i in range(4) for k in range(1, 5)}
        assert len(seeds) == 16
        assert derive_attempt_seed(0, 2, 3) == derive_attempt_seed(0, 2, 3)
        assert derive_attempt_seed(0, 2, 3) != derive_attempt_seed(1, 2, 3)


class TestPortfolioConfig:
    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError):
            PortfolioConfig(schedule="fibonacci")

    def test_rejects_non_drive_variant_keys(self):
        with pytest.raises(ValueError):
            PortfolioConfig(anneal_variants=({"inhibition_weight": -10.0},))

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            PortfolioConfig(base_budget=0)

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"max_parallel": -1}, id="negative-max-parallel"),
            pytest.param({"max_attempts": -1}, id="negative-max-attempts"),
            pytest.param({"base_budget": 2.5}, id="fractional-budget"),
            pytest.param({"schedule": "geometric", "growth": float("nan")}, id="nan-growth"),
        ],
    )
    def test_rejects_malformed_fields(self, fields):
        with pytest.raises(ValueError):
            PortfolioConfig(**fields)

    def test_luby_budgets(self):
        cfg = PortfolioConfig(schedule="luby", base_budget=100)
        assert [cfg.attempt_budget(k) for k in range(1, 8)] == [100, 100, 200, 100, 100, 200, 400]

    def test_geometric_budgets(self):
        cfg = PortfolioConfig(schedule="geometric", base_budget=100, growth=2.0)
        assert [cfg.attempt_budget(k) for k in range(1, 5)] == [100, 200, 400, 800]

    def test_attempt_config_cycles_variants_from_second_attempt(self):
        base = CSPConfig()
        cfg = PortfolioConfig(anneal_variants=({"noise_sigma": 5.0}, {"anneal_period": 120}))
        assert cfg.attempt_config(base, 1) is base
        assert cfg.attempt_config(base, 2).noise_sigma == 5.0
        assert cfg.attempt_config(base, 3).anneal_period == 120
        assert cfg.attempt_config(base, 4).noise_sigma == 5.0


class TestRestartsDisabledBitIdentity:
    def test_matches_solve_instances_mixed_convergence(self):
        graph, clamps = make_instance("coloring", seed=5, num_vertices=10, num_colors=3)
        instances = [(graph, clamps)] * 6
        seeds = [1, 2, 3, 4, 5, 6]
        fixed = solve_instances(instances, seeds=seeds, max_steps=1200, check_interval=10)
        port = solve_instances_portfolio(
            instances,
            seeds=seeds,
            portfolio=_one_shot(1200),
            max_steps=1200,
            check_interval=10,
        )
        assert len({r.steps for r in fixed}) > 1, "test needs mixed convergence"
        for f, p in zip(fixed, port):
            assert (p.solved, p.steps, p.total_spikes, p.neuron_updates) == (
                f.solved,
                f.steps,
                f.total_spikes,
                f.neuron_updates,
            )
            assert (p.attempts, p.attempt_steps) == (1, (f.steps,))
            np.testing.assert_array_equal(p.values, f.values)
            np.testing.assert_array_equal(p.decided, f.decided)

    def test_matches_solve_instances_when_unsolved(self):
        # Tiny budget: nothing solves, both engines run to max_steps.
        graph, clamps = make_instance("latin", seed=2, n=4, clamp_fraction=0.25)
        instances = [(graph, clamps)] * 2
        fixed = solve_instances(instances, seeds=[3, 4], max_steps=30, check_interval=10)
        port = solve_instances_portfolio(
            instances,
            seeds=[3, 4],
            portfolio=_one_shot(30),
            max_steps=30,
            check_interval=10,
        )
        for f, p in zip(fixed, port):
            assert not p.solved and p.steps == f.steps == 30
            assert p.total_spikes == f.total_spikes
            np.testing.assert_array_equal(p.values, f.values)

    def test_default_first_attempt_seeds_derive_from_portfolio_seed(self):
        instances = _hard_coloring_pool(3)
        explicit = solve_instances_portfolio(
            instances,
            seeds=[derive_attempt_seed(9, i, 1) for i in range(3)],
            portfolio=_one_shot(400, seed=9),
            max_steps=400,
        )
        derived = solve_instances_portfolio(
            instances,
            portfolio=_one_shot(400, seed=9),
            max_steps=400,
        )
        for e, d in zip(explicit, derived):
            assert (e.solved, e.steps, e.total_spikes) == (d.solved, d.steps, d.total_spikes)


class TestRestartRefill:
    def test_restarts_fire_and_attempts_match_standalone_solves(self):
        instances = _hard_coloring_pool(8)
        pcfg = PortfolioConfig(schedule="luby", base_budget=60, seed=123)
        results = solve_instances_portfolio(
            instances, portfolio=pcfg, max_steps=2000, check_interval=10
        )
        assert sum(r.attempts for r in results) > len(results), "expected restarts"
        # Each solved instance's winning attempt reproduces the standalone
        # solve with the derived seed and Luby budget bit-for-bit.
        for i, result in enumerate(results):
            if not result.solved:
                continue
            graph, clamps = instances[i]
            matched = False
            for k in range(1, result.attempts + 1):
                seed = derive_attempt_seed(pcfg.seed, i, k)
                budget = min(pcfg.attempt_budget(k), 2000)
                solo = SpikingCSPSolver(graph, seed=seed).solve(
                    clamps, max_steps=budget, check_interval=10
                )
                if solo.solved and solo.steps == result.steps:
                    np.testing.assert_array_equal(solo.values, result.values)
                    np.testing.assert_array_equal(solo.decided, result.decided)
                    matched = True
                    break
            assert matched, f"instance {i}: no attempt reproduces the portfolio win"

    def test_luby_budgets_emitted_deterministically(self):
        # An unsatisfiable instance (3 all-different variables over a
        # 2-value domain) exhausts every attempt, so the recorded attempt
        # steps are exactly the Luby budgets (the last one truncated at
        # the global budget).
        from repro.csp import ConstraintGraph, Variable

        graph = ConstraintGraph([Variable(n, (1, 2)) for n in "abc"], name="unsat")
        graph.add_all_different(["a", "b", "c"])
        pcfg = PortfolioConfig(schedule="luby", base_budget=50, seed=7, max_parallel=1)
        [result] = solve_instances_portfolio(
            [(graph, {})], portfolio=pcfg, max_steps=330, check_interval=10
        )
        assert not result.solved
        expected = [50 * luby(k) for k in range(1, result.attempts + 1)]
        expected[-1] = 330 - sum(expected[:-1])  # truncated by the global budget
        assert list(result.attempt_steps) == expected
        assert result.neuron_updates == 330 * graph.num_neurons * 2

    def test_deterministic_across_runs(self):
        instances = _hard_coloring_pool(5)
        pcfg = PortfolioConfig(base_budget=50, seed=7)
        a = solve_instances_portfolio(instances, portfolio=pcfg, max_steps=700)
        b = solve_instances_portfolio(instances, portfolio=pcfg, max_steps=700)
        assert [(r.solved, r.steps, r.total_spikes, r.attempt_steps) for r in a] == [
            (r.solved, r.steps, r.total_spikes, r.attempt_steps) for r in b
        ]

    def test_raced_attempts_are_cancelled_and_accounted(self):
        # slots > instances races several attempts per instance from the
        # start; cancelled racers' steps still land in attempt_steps.
        instances = _hard_coloring_pool(2)
        pcfg = PortfolioConfig(schedule="fixed", base_budget=80, seed=1, max_parallel=3)
        results = solve_instances_portfolio(instances, portfolio=pcfg, max_steps=600, slots=6)
        for result in results:
            assert result.attempts == len(result.attempt_steps)
            assert result.neuron_updates == sum(result.attempt_steps) * (
                instances[0][0].num_neurons * 2
            )

    def test_max_attempts_caps_total_work(self):
        graph, clamps = make_instance("latin", seed=2, n=4, clamp_fraction=0.25)
        pcfg = PortfolioConfig(base_budget=40, seed=3, max_attempts=2, max_parallel=1)
        [result] = solve_instances_portfolio(
            [(graph, clamps)], portfolio=pcfg, max_steps=5000, check_interval=10
        )
        assert not result.solved
        assert result.attempts == 2
        assert sum(result.attempt_steps) == 80  # 2 x base_budget << max_steps

    def test_float64_backend(self):
        instances = _hard_coloring_pool(3, num_vertices=10, edge_probability=0.8)
        results = solve_instances_portfolio(
            instances,
            backend="float64",
            portfolio=PortfolioConfig(base_budget=60, seed=9),
            max_steps=600,
        )
        assert len(results) == 3

    def test_anneal_variants_diversify_restarts(self):
        instances = _hard_coloring_pool(4, num_vertices=10, edge_probability=0.8)
        plain = PortfolioConfig(base_budget=40, seed=11, max_parallel=1)
        varied = PortfolioConfig(
            base_budget=40,
            seed=11,
            max_parallel=1,
            anneal_variants=({"noise_sigma": 6.0},),
        )
        a = solve_instances_portfolio(instances, portfolio=plain, max_steps=600)
        b = solve_instances_portfolio(instances, portfolio=varied, max_steps=600)
        # First attempts share seeds and the base config; any instance
        # needing a restart sees a different (diversified) stream.
        diverged = any(
            ra.attempts >= 2 and (ra.steps, ra.total_spikes) != (rb.steps, rb.total_spikes)
            for ra, rb in zip(a, b)
        )
        assert diverged, "variants should change at least one restart trajectory"


class TestEdgeShapes:
    def test_empty_instances(self):
        assert solve_instances_portfolio([]) == []

    def test_zero_step_budget_matches_solve_instances(self):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        fixed = solve_instances([(graph, clamps)], seeds=[5], max_steps=0)
        port = solve_instances_portfolio([(graph, clamps)], seeds=[5], max_steps=0)
        for f, p in zip(fixed, port):
            assert (p.solved, p.steps, p.total_spikes, p.neuron_updates) == (
                f.solved,
                f.steps,
                f.total_spikes,
                f.neuron_updates,
            )
            np.testing.assert_array_equal(p.values, f.values)

    def test_mismatched_neuron_counts_rejected(self):
        small = make_instance("coloring", seed=0, num_vertices=6, num_colors=3)
        big = make_instance("coloring", seed=0, num_vertices=9, num_colors=3)
        with pytest.raises(ValueError):
            solve_instances_portfolio([small, big])

    def test_mismatched_seed_count_rejected(self):
        inst = make_instance("coloring", seed=0, num_vertices=6, num_colors=3)
        with pytest.raises(ValueError):
            solve_instances_portfolio([inst, inst], seeds=[1])

    @pytest.mark.parametrize("slots", [0, -3])
    def test_non_positive_slots_rejected(self, slots):
        inst = make_instance("coloring", seed=0, num_vertices=6, num_colors=3)
        with pytest.raises(ValueError, match="slots"):
            solve_instances_portfolio([inst, inst], slots=slots, max_steps=50)

    def test_restarts_disabled_with_fewer_slots_still_attempts_every_instance(self):
        # Instances beyond the initial wave must get their one attempt
        # when a slot frees up, not be silently returned unsolved.
        instances = _hard_coloring_pool(4, num_vertices=10, edge_probability=0.7)
        results = solve_instances_portfolio(
            instances,
            portfolio=_one_shot(1500),
            max_steps=1500,
            slots=2,
        )
        assert [r.attempts for r in results] == [1, 1, 1, 1]
        assert sum(r.solved for r in results) >= 3


class TestSolveInstancesDefaultSeeding:
    """Satellite bugfix: per-instance seeds are independent by default."""

    def test_identical_instances_diverge_by_default(self):
        graph, clamps = make_instance("coloring", seed=5, num_vertices=10, num_colors=3)
        results = solve_instances([(graph, clamps)] * 4, max_steps=600, check_interval=10)
        trajectories = {(r.steps, r.total_spikes) for r in results}
        assert len(trajectories) > 1, "default seeds must differ between replicas"

    def test_explicit_shared_seeds_stay_identical(self):
        graph, clamps = make_instance("coloring", seed=5, num_vertices=10, num_colors=3)
        results = solve_instances(
            [(graph, clamps)] * 3, seeds=[7, 7, 7], max_steps=600, check_interval=10
        )
        assert len({(r.steps, r.total_spikes) for r in results}) == 1

    def test_default_matches_derive_task_seed(self):
        from repro.runtime.sweep import derive_task_seed

        graph, clamps = make_instance("coloring", seed=5, num_vertices=10, num_colors=3)
        default = solve_instances([(graph, clamps)] * 3, seed=42, max_steps=400)
        explicit = solve_instances(
            [(graph, clamps)] * 3,
            seeds=[derive_task_seed(42, i) for i in range(3)],
            max_steps=400,
        )
        for d, e in zip(default, explicit):
            assert (d.solved, d.steps, d.total_spikes) == (e.solved, e.steps, e.total_spikes)
            np.testing.assert_array_equal(d.values, e.values)

"""Batched CSP solving with active-set shrinking vs. sequential solves.

``solve_instances`` drops replicas from the live batch as soon as their
decoded assignment is a solution, so late steps only advance unsolved
instances.  Replicas are independent, so shrinking must not change any
result: every batched solve — mixed convergence times included — has to
reproduce the sequential per-instance solve bit-for-bit (boards, step
counts, spike counts).
"""

from collections import OrderedDict

import numpy as np

from repro.csp import SpikingCSPSolver, make_instance
from repro.csp import solver as solver_module
from repro.csp.graph import ConstraintGraph
from repro.csp.solver import solve_instances


class TestSolveBatchShrinking:
    def test_mixed_convergence_matches_sequential(self):
        # Different noise seeds converge at different steps, so the batch
        # shrinks several times before the last replica solves.
        graph, clamps = make_instance("coloring", seed=5, num_vertices=10, num_colors=3)
        seeds = [1, 2, 3, 4, 5, 6]
        sequential = [
            SpikingCSPSolver(graph, seed=s).solve(clamps, max_steps=1200, check_interval=10)
            for s in seeds
        ]
        batched = solve_instances(
            [(graph, clamps)] * len(seeds),
            seeds=seeds,
            max_steps=1200,
            check_interval=10,
        )
        assert len({r.steps for r in sequential}) > 1, "test needs mixed convergence"
        for seq, bat in zip(sequential, batched):
            assert bat.solved == seq.solved
            assert bat.steps == seq.steps
            assert bat.total_spikes == seq.total_spikes
            assert bat.neuron_updates == seq.neuron_updates
            np.testing.assert_array_equal(bat.values, seq.values)
            np.testing.assert_array_equal(bat.decided, seq.decided)

    def test_solve_batch_same_graph_matches_sequential(self):
        graph, _ = make_instance("queens", seed=0, n=5)
        solver = SpikingCSPSolver(graph, seed=11)
        clamp_sets = [{}, {"row0": 1}, {"row0": 3}]
        sequential = [
            SpikingCSPSolver(graph, seed=11).solve(c, max_steps=800, check_interval=10)
            for c in clamp_sets
        ]
        batched = solver.solve_batch(clamp_sets, max_steps=800, check_interval=10)
        for seq, bat in zip(sequential, batched):
            assert (bat.solved, bat.steps, bat.total_spikes) == (
                seq.solved,
                seq.steps,
                seq.total_spikes,
            )
            np.testing.assert_array_equal(bat.values, seq.values)

    def test_solve_instances_shares_synapses_per_graph(self, monkeypatch):
        # Identical graph objects must share one synapse build so the
        # batch engine takes its shared-matrix fast path instead of
        # stacking B duplicate CSC structures.  Start from an empty
        # connectivity owner, so earlier tests' builds cannot serve it.
        monkeypatch.setattr(solver_module, "_CONNECTIVITY", OrderedDict())
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
        builds = []
        original = ConstraintGraph.build_synapses

        def counting(self, **kwargs):
            builds.append(self)
            return original(self, **kwargs)

        monkeypatch.setattr(ConstraintGraph, "build_synapses", counting)
        solve_instances([(graph, clamps)] * 4, seeds=[1, 2, 3, 4], max_steps=30)
        assert len(builds) == 1

    def test_unsolved_instances_survive_to_max_steps(self):
        # A clamped-down Latin square with a tiny step budget: nothing
        # solves, the batch never shrinks, and results still match.
        graph, clamps = make_instance("latin", seed=2, n=4, clamp_fraction=0.25)
        seeds = [3, 4]
        sequential = [
            SpikingCSPSolver(graph, seed=s).solve(clamps, max_steps=30, check_interval=10)
            for s in seeds
        ]
        batched = solve_instances(
            [(graph, clamps)] * 2, seeds=seeds, max_steps=30, check_interval=10
        )
        for seq, bat in zip(sequential, batched):
            assert bat.steps == seq.steps
            assert bat.solved == seq.solved
            assert bat.total_spikes == seq.total_spikes
            np.testing.assert_array_equal(bat.values, seq.values)

"""The solver's connectivity owner: one WTA synapse object per structure.

``SpikingCSPSolver`` takes its synapses from ``repro.csp.solver._connectivity``,
keyed by the graph's structural digest and the two weights.  Graph objects
of equal structure therefore share one object (and the batch engine its
shared-matrix kernel), other weights or a mutated graph get their own, and
sharing never changes a result.
"""

import numpy as np

from repro.csp import CSPConfig, SpikingCSPSolver, make_instance
from repro.csp.solver import solve_instances


def _twin_graphs(seed=11):
    """One coloring structure generated twice: two distinct graph objects."""
    first = make_instance("coloring", seed=seed, num_vertices=9, num_colors=3)
    second = make_instance("coloring", seed=seed, num_vertices=9, num_colors=3)
    assert first[0] is not second[0]
    return first, second


def _same_matrix(a, b):
    return a.matrix.shape == b.matrix.shape and (a.matrix != b.matrix).nnz == 0


def test_equal_structures_share_one_connectivity_object():
    (g1, _), (g2, _) = _twin_graphs()
    assert SpikingCSPSolver(g1).synapses is SpikingCSPSolver(g2).synapses


def test_other_weights_get_their_own_connectivity():
    (graph, _), _ = _twin_graphs()
    default = SpikingCSPSolver(graph).synapses
    weaker = SpikingCSPSolver(graph, CSPConfig(inhibition_weight=-12.0)).synapses
    assert weaker is not default
    assert _same_matrix(weaker, graph.build_synapses(inhibition_weight=-12.0))


def test_mutated_graph_gets_a_fresh_build():
    (graph, _), _ = _twin_graphs(seed=12)
    cached = SpikingCSPSolver(graph).synapses
    # Coloring conflicts are same-colour only, so two different colours
    # on two variables are a new conflict edge.
    a, b = graph.variables[0], graph.variables[1]
    graph.add_conflict(a.name, a.domain[0], b.name, b.domain[1])
    config = CSPConfig()
    fresh = graph.build_synapses(
        inhibition_weight=config.inhibition_weight, self_excitation=config.self_excitation
    )
    rebuilt = SpikingCSPSolver(graph).synapses
    assert rebuilt is not cached
    assert _same_matrix(rebuilt, fresh)
    assert not _same_matrix(cached, fresh)


def test_sharing_across_graph_objects_is_bit_exact():
    (g1, clamps), (g2, _) = _twin_graphs(seed=13)
    seeds = [1, 2, 3, 4]
    shared = solve_instances([(g1, clamps)] * 4, seeds=seeds, max_steps=600)
    twins = solve_instances([(g1, clamps), (g2, clamps)] * 2, seeds=seeds, max_steps=600)
    for a, b in zip(shared, twins):
        assert (a.solved, a.steps, a.total_spikes, a.neuron_updates) == (
            b.solved,
            b.steps,
            b.total_spikes,
            b.neuron_updates,
        )
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.decided, b.decided)

"""Tests for synaptic containers, current state and the network engine."""

import numpy as np
import pytest
from scipy import sparse

from repro.snn import (
    CurrentState,
    DenseSynapses,
    FixedPointPopulation,
    IzhikevichPopulation,
    SNNNetwork,
    SparseSynapses,
)


class TestDenseSynapses:
    def test_propagation(self):
        weights = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [5.0, 6.0, 0.0]])
        syn = DenseSynapses(weights)
        fired = np.array([True, False, True])
        np.testing.assert_allclose(syn.propagate(fired), [2.0, 7.0, 5.0])

    def test_no_spikes_gives_zero(self):
        syn = DenseSynapses(np.ones((4, 4)))
        np.testing.assert_allclose(syn.propagate(np.zeros(4, dtype=bool)), np.zeros(4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseSynapses(np.ones(3))
        with pytest.raises(ValueError):
            DenseSynapses(np.ones((3, 3))).propagate(np.zeros(4, dtype=bool))

    def test_counts(self):
        syn = DenseSynapses(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert syn.num_synapses == 2
        assert syn.num_pre == 2 and syn.num_post == 2


class TestSparseSynapses:
    def test_from_triplets(self):
        syn = SparseSynapses.from_triplets([(0, 1, -2.0), (0, 2, -3.0), (1, 0, 1.0)], num_neurons=3)
        out = syn.propagate(np.array([True, False, False]))
        np.testing.assert_allclose(out, [0.0, -2.0, -3.0])

    def test_degrees(self):
        syn = SparseSynapses.from_triplets([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], num_neurons=3)
        np.testing.assert_array_equal(syn.out_degree(), [2, 1, 0])
        np.testing.assert_array_equal(syn.in_degree(), [0, 1, 2])

    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.random((20, 20)) * (rng.random((20, 20)) < 0.2)
        ds = DenseSynapses(dense)
        ss = SparseSynapses(sparse.csc_matrix(dense))
        fired = rng.random(20) < 0.3
        np.testing.assert_allclose(ds.propagate(fired), ss.propagate(fired), atol=1e-12)


class TestCurrentState:
    def test_recompute_mode(self):
        state = CurrentState(num_neurons=3, mode="recompute")
        out1 = state.update(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        out2 = state.update(np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(out1, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out2, [1.5, 1.5, 1.5])  # no accumulation

    def test_decay_mode_accumulates(self):
        state = CurrentState(num_neurons=1, mode="decay", tau_select=2)
        first = state.update(np.array([4.0]), np.zeros(1))[0]
        second = state.update(np.array([4.0]), np.zeros(1))[0]
        assert second > first  # persistent current builds up

    def test_decay_mode_decays_without_input(self):
        state = CurrentState(num_neurons=1, mode="decay", tau_select=2)
        state.update(np.array([10.0]), np.zeros(1))
        values = [state.update(np.zeros(1), np.zeros(1))[0] for _ in range(30)]
        assert values[-1] < values[0]
        assert values[-1] >= 0.0

    def test_reset(self):
        state = CurrentState(num_neurons=2, mode="decay")
        state.update(np.array([5.0, 5.0]), np.zeros(2))
        state.reset()
        np.testing.assert_allclose(state.current, 0.0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CurrentState(num_neurons=1, mode="magic")


class TestSNNNetwork:
    def _float_population(self, n):
        return IzhikevichPopulation.from_parameters(
            np.full(n, 0.02), np.full(n, 0.2), np.full(n, -65.0), np.full(n, 8.0)
        )

    def test_unconnected_population_driven_by_external(self):
        net = SNNNetwork(self._float_population(5), external_input=lambda t: np.full(5, 12.0))
        raster = net.run(400)
        assert raster.num_spikes > 0
        assert raster.num_neurons == 5 and raster.num_steps == 400

    def test_without_input_is_silent(self):
        net = SNNNetwork(self._float_population(5))
        assert net.run(200).num_spikes == 0

    def test_recurrent_excitation_increases_activity(self):
        rng = np.random.default_rng(1)
        drive = lambda t: 6.0 + rng.standard_normal(20)  # noqa: E731
        isolated = SNNNetwork(self._float_population(20), external_input=drive)
        coupled = SNNNetwork(
            self._float_population(20),
            synapses=DenseSynapses(np.full((20, 20), 2.0)),
            external_input=lambda t: 6.0 + np.random.default_rng(1).standard_normal(20),
        )
        assert coupled.run(300).num_spikes >= isolated.run(300).num_spikes

    def test_fixed_point_backend(self):
        pop = FixedPointPopulation.from_float_parameters(
            np.full(5, 0.02), np.full(5, 0.2), np.full(5, -65.0), np.full(5, 8.0)
        )
        net = SNNNetwork(pop, external_input=lambda t: np.full(5, 12.0))
        assert net.is_fixed_point
        assert net.run(300).num_spikes > 0

    def test_progress_callback(self):
        seen = []
        net = SNNNetwork(self._float_population(3), external_input=lambda t: np.full(3, 10.0))
        net.run(10, progress_callback=lambda t, fired: seen.append(t))
        assert seen == list(range(10))

    def test_record_false_returns_empty_raster(self):
        net = SNNNetwork(self._float_population(3), external_input=lambda t: np.full(3, 10.0))
        raster = net.run(50, record=False)
        assert raster.num_spikes == 0 and raster.num_steps == 50

    @pytest.mark.parametrize("mode", ["recompute", "decay"])
    def test_a_nan_drive_raises_and_leaves_the_neurons_untouched(self, mode):
        # The sequential reference agrees with the batch engine: NaN has no
        # fixed-point current, so the step refuses instead of stepping on one.
        pop = FixedPointPopulation.from_float_parameters(
            np.full(4, 0.1), np.full(4, 0.2), np.full(4, -65.0), np.full(4, 2.0)
        )
        net = SNNNetwork(
            pop, external_input=lambda t: np.array([1.0, np.nan, 2.0, 3.0]), current_mode=mode
        )
        v, u = pop.v_raw.copy(), pop.u_raw.copy()
        with pytest.raises(FloatingPointError):
            net.step(0)
        np.testing.assert_array_equal(net.population.v_raw, v)
        np.testing.assert_array_equal(net.population.u_raw, u)

    def test_reset_currents(self):
        net = SNNNetwork(self._float_population(3), current_mode="decay")
        net.step(0)
        net.reset_currents()
        np.testing.assert_allclose(net.current_state.current, 0.0)

"""Batched-vs-sequential equivalence of the vectorised batch engine.

The contract of :class:`repro.runtime.batch.BatchedNetwork` in its
default (``exact``) mode: running ``B`` stacked networks produces
**bit-identical** spike rasters to ``B`` sequential ``SNNNetwork.run``
calls — exactly equal rasters for the fixed-point backend (the hardware
datapath is integer arithmetic) and equal-within-float64 trajectories
(which in practice are also bit-equal, since the fused update performs
the identical elementwise operations) for the double-precision reference.
"""

import numpy as np
import pytest

from repro.fixedpoint import Q15_16
from repro.runtime import BatchedNetwork, BatchIncompatibleError
from repro.runtime.batch import _FixedBatchKernel, _quantize_scaled_q15_16
from repro.sim.npu import izhikevich_update_raw
from repro.snn import EightyTwentyConfig, build_eighty_twenty
from repro.sudoku import SNNSudokuSolver, generate_puzzle_set

NUM_STEPS = 120
SEEDS_B8 = [21, 22, 23, 24, 25, 26, 27, 28]


def _make_networks(seeds, *, backend="fixed", current_mode="recompute"):
    """Fresh, independently seeded scaled-down 80-20 networks."""
    networks = []
    for seed in seeds:
        definition = build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=48, num_inhibitory=12, seed=seed)
        )
        if backend == "float64":
            networks.append(definition.float_network())
        else:
            networks.append(definition.fixed_network(current_mode=current_mode))
    return networks


def _assert_rasters_equal(sequential, batched):
    assert len(sequential) == len(batched)
    for seq_raster, batch_raster in zip(sequential, batched):
        assert seq_raster.num_steps == batch_raster.num_steps
        assert seq_raster.num_neurons == batch_raster.num_neurons
        np.testing.assert_array_equal(seq_raster.times, batch_raster.times)
        np.testing.assert_array_equal(seq_raster.neuron_ids, batch_raster.neuron_ids)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_fixed_point_bit_exact(self, batch_size):
        seeds = SEEDS_B8[:batch_size]
        sequential = [net.run(NUM_STEPS) for net in _make_networks(seeds)]
        batched = BatchedNetwork.from_networks(_make_networks(seeds)).run(NUM_STEPS)
        _assert_rasters_equal(sequential, batched)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_float64_equivalent(self, batch_size):
        seeds = SEEDS_B8[:batch_size]
        seq_nets = _make_networks(seeds, backend="float64")
        sequential = [net.run(NUM_STEPS) for net in seq_nets]
        bat_nets = _make_networks(seeds, backend="float64")
        batch = BatchedNetwork.from_networks(bat_nets)
        batched = batch.run(NUM_STEPS)
        _assert_rasters_equal(sequential, batched)
        # Final membrane potentials agree to float64 tolerance as well.
        final_v = np.stack([net.population.v for net in seq_nets])
        np.testing.assert_allclose(batch.membrane_potentials, final_v, rtol=1e-12, atol=1e-12)

    def test_fixed_point_decay_mode_bit_exact(self):
        seeds = SEEDS_B8[:4]
        sequential = [net.run(NUM_STEPS) for net in _make_networks(seeds, current_mode="decay")]
        batched = BatchedNetwork.from_networks(
            _make_networks(seeds, current_mode="decay")
        ).run(NUM_STEPS)
        _assert_rasters_equal(sequential, batched)

    def test_fused_mode_matches_exact_without_synapses(self):
        # With no recurrent synapses the fused mode performs the identical
        # arithmetic, so exact and fused runs must agree bit-for-bit.
        def make():
            nets = _make_networks(SEEDS_B8[:4])
            for net in nets:
                net.synapses = None
            return nets

        def provider(step):
            rng = np.random.default_rng(step)
            return 8.0 * rng.standard_normal((4, 60))

        exact = BatchedNetwork.from_networks(
            make(), synapse_mode="exact", batched_external=provider
        ).run(NUM_STEPS)
        fused = BatchedNetwork.from_networks(
            make(), synapse_mode="fused", batched_external=provider
        ).run(NUM_STEPS)
        _assert_rasters_equal(exact, fused)

    def test_fused_mode_statistically_consistent(self):
        # With dense synapses the fused gather changes float summation
        # order; rates must still match the sequential run closely.
        sequential = [net.run(NUM_STEPS) for net in _make_networks(SEEDS_B8)]
        fused = BatchedNetwork.from_networks(
            _make_networks(SEEDS_B8), synapse_mode="fused"
        ).run(NUM_STEPS)
        seq_rate = np.mean([r.mean_rate_hz() for r in sequential])
        fused_rate = np.mean([r.mean_rate_hz() for r in fused])
        assert abs(fused_rate - seq_rate) <= max(2.0, 0.3 * seq_rate)

    def test_warm_networks_resume_bit_exact(self):
        # Stacking networks that have already been stepped must carry the
        # synaptic-current state and last-fired masks over, so the batch
        # continues exactly where each sequential engine left off.
        seeds = SEEDS_B8[:3]
        warm_steps, tail_steps = 40, 40
        sequential_nets = _make_networks(seeds, current_mode="decay")
        for net in sequential_nets:
            net.run(warm_steps)
        sequential_tail = [
            np.stack([net.step(warm_steps + t) for t in range(tail_steps)])
            for net in sequential_nets
        ]
        batched_nets = _make_networks(seeds, current_mode="decay")
        for net in batched_nets:
            net.run(warm_steps)
        batch = BatchedNetwork.from_networks(batched_nets)
        batched_tail = batch.run(tail_steps, start_step=warm_steps)
        for b, expected in enumerate(sequential_tail):
            np.testing.assert_array_equal(
                batched_tail[b].to_bool_matrix(), expected
            )

    def test_incompatible_networks_rejected(self):
        mixed = _make_networks([1]) + _make_networks([2], backend="float64")
        with pytest.raises(BatchIncompatibleError):
            BatchedNetwork.from_networks(mixed)
        with pytest.raises(BatchIncompatibleError):
            BatchedNetwork.from_networks([])
        sizes = _make_networks([1])
        other = [
            build_eighty_twenty(
                EightyTwentyConfig(num_excitatory=24, num_inhibitory=6, seed=3)
            ).fixed_network()
        ]
        with pytest.raises(BatchIncompatibleError):
            BatchedNetwork.from_networks(sizes + other)


class TestFusedKernelPrimitives:
    def test_kernel_bit_exact_with_npu_datapath(self):
        rng = np.random.default_rng(7)
        shape = (6, 40)
        v = rng.integers(-22000, 8200, size=shape)
        u = rng.integers(-8000, 8000, size=shape)
        isyn = rng.integers(-(1 << 22), 1 << 22, size=shape)
        a = rng.integers(1, 300, size=shape)
        b = rng.integers(1, 600, size=shape)
        c = rng.integers(-18000, -10000, size=shape)
        d = rng.integers(0, 4000, size=shape)
        for h_shift, pin in ((1, False), (3, False), (1, True)):
            expected_v, expected_u, expected_spike = izhikevich_update_raw(
                v, u, isyn, a_raw=a, b_raw=b, c_raw=c, d_raw=d, h_shift=h_shift, pin_voltage=pin
            )
            kernel = _FixedBatchKernel(a, b, c, d, h_shift=h_shift, pin_voltage=pin)
            got_v = v.astype(np.int64).copy()
            got_u = u.astype(np.int64).copy()
            spike = kernel.substep(got_v, got_u, isyn.astype(np.int64))
            np.testing.assert_array_equal(got_v, expected_v)
            np.testing.assert_array_equal(got_u, expected_u)
            np.testing.assert_array_equal(spike, expected_spike.astype(bool))

    def test_fused_quantizer_matches_qformat(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [
                rng.uniform(-40000.0, 40000.0, size=500),
                np.array([0.0, -0.5, 0.5, 1.5, -1.5, 32767.99998, -32768.0]),
                rng.uniform(-1e-4, 1e-4, size=100),
                np.array([1e15, -1e15, 1e300, -1e300, np.inf, -np.inf]),
            ]
        )
        out = np.empty(values.shape, dtype=np.int64)
        _quantize_scaled_q15_16(values * 65536.0, out, np.empty_like(values))
        expected = np.asarray(Q15_16.from_float(values), dtype=np.int64)
        np.testing.assert_array_equal(out, expected)


class TestSudokuSolveBatch:
    def test_solve_batch_bit_identical_to_sequential(self):
        puzzles = [g.puzzle for g in generate_puzzle_set(2, base_seed=1000, target_clues=40)]
        solver = SNNSudokuSolver()
        sequential = [solver.solve(p, max_steps=600, check_interval=5) for p in puzzles]
        batched = solver.solve_batch(puzzles, max_steps=600, check_interval=5)
        assert len(batched) == len(sequential)
        for seq_result, batch_result in zip(sequential, batched):
            assert batch_result.solved == seq_result.solved
            assert batch_result.steps == seq_result.steps
            assert batch_result.total_spikes == seq_result.total_spikes
            assert batch_result.neuron_updates == seq_result.neuron_updates
            np.testing.assert_array_equal(batch_result.board.cells, seq_result.board.cells)

    def test_solve_many_delegates_to_batch(self):
        puzzles = [g.puzzle for g in generate_puzzle_set(2, base_seed=1000, target_clues=40)]
        solver = SNNSudokuSolver()
        many = solver.solve_many(puzzles, max_steps=200)
        batch = solver.solve_batch(puzzles, max_steps=200)
        for a, b in zip(many, batch):
            assert a.steps == b.steps and a.total_spikes == b.total_spikes

"""Randomized bit-exactness suite for the integer CSR propagation kernel.

The integer path quantises synaptic weights to raw Q15.16 ``int64`` once
at stack time and propagates spikes for the whole batch with one gather +
segmented integer reduction, feeding the raw sum straight into the
fixed-point accumulator.  Its contract: whenever every weight is exactly
representable in Q15.16, a batched run is **bit-identical** to ``B``
sequential ``SNNNetwork.run`` calls — for shared and per-replica sparse
connectivity, dense connectivity, recompute and decay current modes, and
warm-started state.  Non-representable weights must silently fall back
to the per-replica float path with the same bit-exactness guarantee,
and that float path (forced here by weights that report a lossy
quantisation) must agree with the integer one.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.fixedpoint import Q15_16
from repro.runtime import BatchedNetwork, BatchIncompatibleError
from repro.runtime.batch import _quantize_scaled_q15_16
from repro.snn.fixed_izhikevich import FixedPointPopulation
from repro.snn.izhikevich import IzhikevichPopulation
from repro.snn.network import SNNNetwork
from repro.snn.synapse import DenseSynapses, SparseSynapses, quantize_weights_q15_16

NUM_NEURONS = 48
NUM_STEPS = 80


def _representable_sparse(rng, *, num_neurons=NUM_NEURONS, density=0.15):
    """Random sparse connectivity whose weights are exact Q15.16 values."""
    nnz = max(1, int(num_neurons * num_neurons * density))
    rows = rng.integers(0, num_neurons, size=nnz)
    cols = rng.integers(0, num_neurons, size=nnz)
    vals = rng.integers(-20 * 65536, 20 * 65536, size=nnz) / 65536.0
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(num_neurons, num_neurons))
    return SparseSynapses(matrix)


class _LossySparse(SparseSynapses):
    """Sparse weights that report a lossy quantisation, so a batch takes the float path."""

    def quantized_q15_16(self):
        return quantize_weights_q15_16(self.matrix.data)[0], False


def _representable_dense(rng, *, num_neurons=NUM_NEURONS):
    raw = rng.integers(-4 * 65536, 4 * 65536, size=(num_neurons, num_neurons))
    return DenseSynapses(raw / 65536.0)


def _population(rng, *, backend="fixed", num_neurons=NUM_NEURONS):
    a = np.full(num_neurons, 0.1)
    b = np.full(num_neurons, 0.2)
    c = np.full(num_neurons, -65.0)
    d = np.full(num_neurons, 2.0)
    if backend == "fixed":
        return FixedPointPopulation.from_float_parameters(a, b, c, d, h_shift=1)
    return IzhikevichPopulation.from_parameters(a, b, c, d)


def _noise_input(seed, *, num_neurons=NUM_NEURONS, scale=6.0):
    rng = np.random.default_rng(seed)

    def provider(step):
        return 3.0 + scale * rng.standard_normal(num_neurons)

    return provider


def _make_networks(seeds, synapse_factory, *, backend="fixed", current_mode="decay"):
    networks = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        networks.append(
            SNNNetwork(
                population=_population(rng, backend=backend),
                synapses=synapse_factory(rng, seed),
                external_input=_noise_input(seed),
                current_mode=current_mode,
                tau_select=2,
            )
        )
    return networks


def _assert_bit_identical(sequential_nets, batched_nets, *, num_steps=NUM_STEPS, **batch_kwargs):
    sequential = [net.run(num_steps) for net in sequential_nets]
    batch = BatchedNetwork.from_networks(batched_nets, **batch_kwargs)
    batched = batch.run(num_steps)
    for seq, bat in zip(sequential, batched):
        np.testing.assert_array_equal(seq.to_bool_matrix(), bat.to_bool_matrix())
    return batch


class TestIntegerPathBitExact:
    @pytest.mark.parametrize("current_mode", ["recompute", "decay"])
    def test_per_replica_sparse(self, current_mode):
        seeds = [101, 102, 103, 104, 105]

        def factory(rng, seed):
            return _representable_sparse(rng)

        batch = _assert_bit_identical(
            _make_networks(seeds, factory, current_mode=current_mode),
            _make_networks(seeds, factory, current_mode=current_mode),
        )
        assert batch.integer_propagation

    @pytest.mark.parametrize("current_mode", ["recompute", "decay"])
    def test_shared_sparse(self, current_mode, assert_same_grid):
        seeds = [7, 8, 9, 10]
        shared = _representable_sparse(np.random.default_rng(99))

        def factory(rng, seed):
            return shared

        batch = _assert_bit_identical(
            _make_networks(seeds, factory, current_mode=current_mode),
            _make_networks(seeds, factory, current_mode=current_mode),
        )
        assert batch.integer_propagation
        assert_same_grid(batch)
        assert batch._synapses.grid[0].size == NUM_NEURONS + 1  # the one structure

    def test_dense(self):
        seeds = [31, 32, 33]

        def factory(rng, seed):
            return _representable_dense(rng)

        batch = _assert_bit_identical(
            _make_networks(seeds, factory),
            _make_networks(seeds, factory),
        )
        assert not batch.integer_propagation

    def test_float64_population_uses_integer_gather(self):
        seeds = [61, 62, 63]

        def factory(rng, seed):
            return _representable_sparse(rng)

        batch = _assert_bit_identical(
            _make_networks(seeds, factory, backend="float64", current_mode="recompute"),
            _make_networks(seeds, factory, backend="float64", current_mode="recompute"),
        )
        assert batch.integer_propagation

    def test_warm_start_resumes_bit_exact(self):
        seeds = [41, 42, 43]

        def factory(rng, seed):
            return _representable_sparse(rng)

        warm, tail = 30, 30
        sequential_nets = _make_networks(seeds, factory)
        for net in sequential_nets:
            net.run(warm)
        expected = [
            np.stack([net.step(warm + t) for t in range(tail)]) for net in sequential_nets
        ]
        batched_nets = _make_networks(seeds, factory)
        for net in batched_nets:
            net.run(warm)
        batch = BatchedNetwork.from_networks(batched_nets)
        assert batch.integer_propagation
        rasters = batch.run(tail, start_step=warm)
        for b, exp in enumerate(expected):
            np.testing.assert_array_equal(rasters[b].to_bool_matrix(), exp)

    def test_legacy_mode_matches_integer_mode(self):
        seeds = [71, 72, 73, 74]

        def factory(rng, seed):
            return _representable_sparse(rng)

        def lossy(rng, seed):
            return _LossySparse(_representable_sparse(rng).matrix)

        integer = BatchedNetwork.from_networks(_make_networks(seeds, factory))
        legacy = BatchedNetwork.from_networks(_make_networks(seeds, lossy))
        assert integer.integer_propagation and not legacy.integer_propagation
        int_rasters = integer.run(NUM_STEPS)
        leg_rasters = legacy.run(NUM_STEPS)
        for a, b in zip(int_rasters, leg_rasters):
            np.testing.assert_array_equal(a.to_bool_matrix(), b.to_bool_matrix())


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestIntegerPathBitExactOnNumPyStep(TestIntegerPathBitExact):
    """The same cases on the NumPy step."""


class TestFallbacks:
    def test_non_representable_weights_fall_back(self):
        seeds = [11, 12, 13]

        def factory(rng, seed):
            # Random float weights: essentially never exact Q15.16 values.
            matrix = sparse.random(
                NUM_NEURONS, NUM_NEURONS, density=0.1, random_state=int(seed), format="coo"
            )
            return SparseSynapses(matrix)

        batch = _assert_bit_identical(
            _make_networks(seeds, factory),
            _make_networks(seeds, factory),
        )
        assert not batch.integer_propagation

    def test_quantize_weights_lossless_flag(self):
        raw, lossless = quantize_weights_q15_16(np.array([-30.0, 0.0, 1.5, 2.0**-16]))
        assert lossless
        np.testing.assert_array_equal(raw, [-30 * 65536, 0, 98304, 1])
        _, lossy = quantize_weights_q15_16(np.array([0.1]))
        assert not lossy
        # Saturating values are not lossless either.
        _, saturated = quantize_weights_q15_16(np.array([40000.0]))
        assert not saturated

    def test_sparse_lossless_quantisation_is_memoised_read_only(self):
        syn = SparseSynapses(sparse.identity(4, format="csc") * -30.0)
        raw, lossless = syn.quantized_q15_16()
        assert lossless
        again, _ = syn.quantized_q15_16()
        assert again is raw
        assert not raw.flags.writeable

    @staticmethod
    def _int64_arrays(obj):
        return [
            name
            for name, value in vars(obj).items()
            if isinstance(value, np.ndarray) and value.dtype == np.int64
        ]

    def test_lossy_weights_keep_no_raw_copy(self):
        rng = np.random.default_rng(0)
        dense = DenseSynapses(rng.normal(size=(8, 8)))  # 80-20 style float weights
        _, lossless = dense.quantized_q15_16()
        assert not lossless
        assert self._int64_arrays(dense) == []
        lossy_sparse = SparseSynapses(sparse.identity(4, format="csc") * 0.1)
        _, lossless = lossy_sparse.quantized_q15_16()
        assert not lossless
        assert self._int64_arrays(lossy_sparse) == []


class TestScaledQuantizer:
    def test_matches_reference_quantisation(self):
        """round(base * 2^16 + S) must equal quantize(base + S / 2^16) bit-for-bit."""
        rng = np.random.default_rng(5)
        base = rng.uniform(-40000.0, 40000.0, size=4096)
        # Adversarial near-tie cases around half-integer raw boundaries.
        base[:1024] = (
            rng.integers(-(2**30), 2**30, size=1024)
            + 0.5
            + rng.choice([0.0, 2.0**-30, -(2.0**-30), 1e-12, -1e-12], size=1024)
        ) / 65536.0
        syn_raw = rng.integers(-(2**40), 2**40, size=4096)
        expected = np.asarray(Q15_16.from_float(base + syn_raw / 65536.0), dtype=np.int64)
        z = base * 65536.0 + syn_raw
        out = np.empty(z.shape, dtype=np.int64)
        _quantize_scaled_q15_16(z, out, np.empty_like(z))
        np.testing.assert_array_equal(out, expected)


class TestActiveSetShrinking:
    def _networks(self, seeds):
        def factory(rng, seed):
            return _representable_sparse(rng)

        return _make_networks(seeds, factory)

    def test_retain_preserves_survivor_trajectories(self):
        seeds = [81, 82, 83, 84, 85]
        reference = [net.run(60) for net in self._networks(seeds)]
        batch = BatchedNetwork.from_networks(self._networks(seeds))
        head = batch.run(30)
        keep = [0, 2, 4]
        batch.retain(keep)
        assert batch.batch_size == 3
        tail = batch.run(30, start_step=30)
        for row, b in enumerate(keep):
            full = reference[b].to_bool_matrix()
            np.testing.assert_array_equal(head[b].to_bool_matrix(), full[:30])
            np.testing.assert_array_equal(tail[row].to_bool_matrix(), full[30:])

    def test_retain_validates_indices(self):
        batch = BatchedNetwork.from_networks(self._networks([1, 2, 3]))
        with pytest.raises(BatchIncompatibleError):
            batch.retain([])
        with pytest.raises(IndexError):
            batch.retain([0, 3])
        with pytest.raises(ValueError):
            batch.retain([1, 0])
        batch.retain([0, 1, 2])  # no-op
        assert batch.batch_size == 3

    def test_retain_all_modes_state_consistency(self):
        # After a retain, membrane potentials must track the survivors.
        seeds = [5, 6, 7]
        batch = BatchedNetwork.from_networks(self._networks(seeds))
        batch.run(10)
        before = batch.membrane_potentials.copy()
        batch.retain([1, 2])
        after = batch.membrane_potentials
        np.testing.assert_array_equal(after, before[[1, 2]])


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestActiveSetShrinkingOnNumPyStep(TestActiveSetShrinking):
    """The same cases on the NumPy step."""


class TestBitPackedRecording:
    def test_run_rasters_match_manual_stepping(self):
        seeds = [21, 22]

        def factory(rng, seed):
            return _representable_sparse(rng)

        stepped = BatchedNetwork.from_networks(_make_networks(seeds, factory))
        manual = np.stack(
            [stepped.step(t).copy() for t in range(NUM_STEPS)]
        )  # (T, B, N)
        recorded = BatchedNetwork.from_networks(_make_networks(seeds, factory)).run(NUM_STEPS)
        for b, raster in enumerate(recorded):
            np.testing.assert_array_equal(raster.to_bool_matrix(), manual[:, b, :])

    def test_record_false_returns_empty_rasters(self):
        def factory(rng, seed):
            return _representable_sparse(rng)

        batch = BatchedNetwork.from_networks(_make_networks([1, 2], factory))
        rasters = batch.run(17, record=False)
        assert len(rasters) == 2
        assert all(r.num_steps == 17 and r.times.size == 0 for r in rasters)


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestBitPackedRecordingOnNumPyStep(TestBitPackedRecording):
    """The same cases on the NumPy step."""

"""Compiled batched drives: bit-identity with the per-replica closures.

The drive compiler's contract: a compiled ``(B, N)`` provider produces,
for every replica and every step, exactly the array the replica's own
closure would have returned — per-replica RNG streams included.  The
chunked pregeneration this relies on (``standard_normal((K, N))`` equals
``K`` successive ``standard_normal(N)`` draws) is pinned down explicitly,
since the whole bit-exactness story of the compiled drives rests on it.
"""

import numpy as np
import pytest

from repro.csp import CSPConfig, SpikingCSPSolver
from repro.csp.scenarios import make_instance
from repro.runtime import BatchedNetwork, BatchIncompatibleError
from repro.runtime.drives import (
    AnnealedNoiseSpec,
    CompiledScaledDrive,
    PortfolioAnnealedDrive,
    ScaledNoiseSpec,
    compile_batched_external,
)
from repro.snn import EightyTwentyConfig, build_eighty_twenty


def _csp_networks(seeds, *, scenario="coloring", instance_seed=3):
    graph, clamps = make_instance(scenario, seed=instance_seed, num_vertices=8, num_colors=3)
    networks = []
    for seed in seeds:
        solver = SpikingCSPSolver(graph, seed=int(seed))
        networks.append(solver.build_network(clamps))
    return networks


class TestChunkedStreamEquivalence:
    def test_block_draws_match_stepwise_draws(self):
        # The foundation: Generator.standard_normal fills outputs
        # sequentially from one stream, independent of the output shape.
        stepwise = np.random.default_rng(123)
        blocked = np.random.default_rng(123)
        expected = np.stack([stepwise.standard_normal(37) for _ in range(24)])
        got = blocked.standard_normal((24, 37))
        np.testing.assert_array_equal(expected, got)

    def test_out_parameter_matches_allocation(self):
        a = np.random.default_rng(7).standard_normal((5, 11))
        buf = np.empty((5, 11))
        np.random.default_rng(7).standard_normal(out=buf)
        np.testing.assert_array_equal(a, buf)


class TestCompiledAnnealedDrive:
    @pytest.mark.parametrize("chunk_steps", [1, 4, 32])
    def test_bit_identical_to_closures(self, chunk_steps):
        seeds = [11, 12, 13]
        reference = [net.external_input for net in _csp_networks(seeds)]
        compiled = compile_batched_external(_csp_networks(seeds), chunk_steps=chunk_steps)
        assert isinstance(compiled, PortfolioAnnealedDrive)
        assert compiled.batch_shape == (3, reference[0](1).shape[0])
        # Re-create the closures: the reference calls above consumed step 1.
        reference = [net.external_input for net in _csp_networks(seeds)]
        for step in range(1, 101):
            expected = np.stack([closure(step) for closure in reference])
            got = compiled(step)
            np.testing.assert_array_equal(expected, got)

    def test_compile_does_not_consume_closure_streams(self):
        networks = _csp_networks([21, 22])
        compiled = compile_batched_external(networks)
        compiled(1)
        compiled(2)
        # The closures' own generators were cloned, not consumed: calling
        # them now still yields the stream from its very beginning.
        fresh = [net.external_input for net in _csp_networks([21, 22])]
        for step in (1, 2, 3):
            for net, ref in zip(networks, fresh):
                np.testing.assert_array_equal(net.external_input(step), ref(step))

    def test_retain_keeps_survivor_streams(self):
        seeds = [31, 32, 33, 34]
        compiled = compile_batched_external(_csp_networks(seeds))
        reference = [net.external_input for net in _csp_networks(seeds)]
        for step in (1, 2, 3):
            np.testing.assert_array_equal(
                compiled(step), np.stack([c(step) for c in reference])
            )
        compiled.retain([0, 2])
        assert compiled.batch_shape[0] == 2
        survivors = [reference[0], reference[2]]
        for step in (4, 5, 6):
            np.testing.assert_array_equal(
                compiled(step), np.stack([c(step) for c in survivors])
            )

    def test_mixed_anneal_configs_compile(self):
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
        configs = [
            CSPConfig(),
            CSPConfig(anneal_period=50),
            CSPConfig(noise_sigma=3.0, anneal_floor=0.5),
        ]

        def networks():
            return [
                SpikingCSPSolver(graph, cfg, seed=seed).build_network(clamps)
                for seed, cfg in enumerate(configs, start=1)
            ]

        compiled = compile_batched_external(networks())
        assert isinstance(compiled, PortfolioAnnealedDrive)
        reference = [net.external_input for net in networks()]
        for step in range(1, 121):
            expected = np.stack([closure(step) for closure in reference])
            np.testing.assert_array_equal(expected, compiled(step))


class TestCompiledScaledDrive:
    def _definitions(self, seeds):
        return [
            build_eighty_twenty(
                EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=seed)
            )
            for seed in seeds
        ]

    def test_bit_identical_to_thalamic_input(self):
        seeds = [41, 42, 43]
        networks = [d.fixed_network() for d in self._definitions(seeds)]
        compiled = compile_batched_external(networks)
        assert isinstance(compiled, CompiledScaledDrive)
        reference = self._definitions(seeds)
        for step in range(40):
            expected = np.stack([d.thalamic_input(step) for d in reference])
            np.testing.assert_array_equal(compiled(step), expected)

    def test_compile_leaves_source_generators_untouched(self):
        definitions = self._definitions([51])
        networks = [definitions[0].fixed_network()]
        compiled = compile_batched_external(networks)
        for step in range(5):
            compiled(step)
        # The definition's generator must still be at its post-build
        # position: the first thalamic draw equals that of a twin
        # definition that was never compiled.
        twin = self._definitions([51])[0]
        np.testing.assert_array_equal(definitions[0].thalamic_input(0), twin.thalamic_input(0))


class TestCompileDispatch:
    def test_opaque_closures_are_not_compiled(self):
        networks = _csp_networks([1, 2])
        networks[1].external_input = lambda step: np.zeros(networks[1].size)
        assert compile_batched_external(networks) is None

    def test_zero_input_networks_are_not_compiled(self):
        networks = _csp_networks([1, 2])
        networks[0].external_input = None
        assert compile_batched_external(networks) is None

    def test_shared_generator_is_not_compiled(self):
        # Two networks off one 80-20 definition share its generator: run
        # per replica they would interleave one stream, which independent
        # clones cannot reproduce — so compilation must refuse.
        definition = build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=5)
        )
        networks = [definition.fixed_network(), definition.fixed_network()]
        assert compile_batched_external(networks) is None

    def test_mixed_drive_families_are_not_compiled(self):
        csp = _csp_networks([1])
        definition = build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=1)
        )
        assert compile_batched_external([csp[0], definition.fixed_network()]) is None


class TestConstructionTimeValidation:
    def test_declared_shape_mismatch_raises_at_construction(self):
        networks = _csp_networks([1, 2, 3])
        compiled = compile_batched_external(networks[:2])  # declares B=2
        with pytest.raises(BatchIncompatibleError):
            BatchedNetwork.from_networks(networks, batched_external=compiled)

    def test_declared_shape_match_passes(self):
        networks = _csp_networks([1, 2, 3])
        compiled = compile_batched_external(networks)
        batch = BatchedNetwork.from_networks(networks, batched_external=compiled)
        assert batch._ext_validated

    def test_plain_callable_validated_on_every_step(self):
        networks = _csp_networks([1, 2])
        size = networks[0].size

        def flaky_provider(step):
            # Correct shape on step 1, a single row afterwards — the
            # latter must raise, not broadcast silently.
            return np.zeros((2, size)) if step == 1 else np.zeros(size)

        batch = BatchedNetwork.from_networks(networks, batched_external=flaky_provider)
        batch.step(1)
        with pytest.raises(ValueError):
            batch.step(2)

    def test_unretainable_provider_rejected_before_any_mutation(self):
        networks = _csp_networks([1, 2])

        def provider(step):
            return np.zeros((2, networks[0].size))

        batch = BatchedNetwork.from_networks(networks, batched_external=provider)
        batch.step(1)
        with pytest.raises(BatchIncompatibleError):
            batch.retain([0])
        # The refused retain must leave the batch fully usable.
        assert batch.batch_size == 2
        assert batch.step(2).shape == (2, networks[0].size)


class TestSpecConstruction:
    def test_annealed_spec_attached_by_solver(self):
        net = _csp_networks([9])[0]
        spec = net.external_input.drive_spec
        assert isinstance(spec, AnnealedNoiseSpec)
        assert spec.drive.shape == (net.size,)
        assert spec.free_mask.dtype == bool

    def test_scaled_spec_recognised_from_bound_method(self):
        definition = build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=2)
        )
        compiled = compile_batched_external([definition.fixed_network()])
        assert isinstance(compiled, CompiledScaledDrive)

    def test_direct_spec_compilation(self):
        specs = [
            ScaledNoiseSpec(scale=np.full(16, 2.0), rng=np.random.default_rng(s))
            for s in (1, 2)
        ]
        compiled = CompiledScaledDrive(specs)
        out = compiled(0)
        assert out.shape == (2, 16)

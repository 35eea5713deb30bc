"""Compiled drives: bit-identity with the per-replica closures, and the compile rule.

The drive compiler's contract: a compiled ``(B, N)`` drive produces, for
every replica and every step, exactly the array the replica's own
closure would have returned — per-replica RNG streams included.  A
drive draws ``rng.standard_normal(out=row)`` once per row per step; that
this equals the closure's ``standard_normal(N)`` (and that a block draw
equals successive row draws) is pinned down explicitly.
A batch compiles its rows' specs when they compile and steps each row's
own closure otherwise; either way it equals its networks stepped one by
one.
"""

import numpy as np
import pytest

from repro.csp import CSPConfig, SpikingCSPSolver
from repro.csp.scenarios import make_instance
from repro.runtime import BatchedNetwork
from repro.runtime.batch import batch_row
from repro.runtime.drives import (
    AnnealedNoiseSpec,
    CompiledScaledDrive,
    PortfolioAnnealedDrive,
    ScaledNoiseSpec,
)
from repro.snn import EightyTwentyConfig, build_eighty_twenty
from repro.snn.fixed_izhikevich import FixedPointPopulation
from repro.snn.network import SNNNetwork


def _csp_networks(seeds, *, scenario="coloring", instance_seed=3):
    graph, clamps = make_instance(scenario, seed=instance_seed, num_vertices=8, num_colors=3)
    networks = []
    for seed in seeds:
        solver = SpikingCSPSolver(graph, seed=int(seed))
        networks.append(solver.build_network(clamps))
    return networks


def _lifted(networks):
    """The networks' drive specs as a batch reads them: each owns a generator clone."""
    return [batch_row(network).drive_spec for network in networks]


def _definitions(seeds, **config):
    return [
        build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=seed, **config)
        )
        for seed in seeds
    ]


def _lockstep(networks, steps, start=0):
    """Spikes ``(steps, B, N)`` of the networks stepped one by one, in row order."""
    return np.stack(
        [np.stack([net.step(t).copy() for net in networks]) for t in range(start, start + steps)]
    )


def _batched(batch, steps, start=0):
    return np.stack([batch.step(t).copy() for t in range(start, start + steps)])


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
    def test_bit_identical_to_closures(self):
        seeds = [11, 12, 13]
        compiled = PortfolioAnnealedDrive(_lifted(_csp_networks(seeds)))
        reference = [net.external_input for net in _csp_networks(seeds)]
        for step in range(1, 101):
            expected = np.stack([closure(step) for closure in reference])
            got = compiled(step)
            np.testing.assert_array_equal(expected, got)

    def test_compile_does_not_consume_closure_streams(self):
        networks = _csp_networks([21, 22])
        batch = BatchedNetwork.from_networks(networks)
        batch.step(1)
        batch.step(2)
        # The closures' own generators were cloned, not consumed: calling
        # them now still yields the stream from its very beginning.
        fresh = [net.external_input for net in _csp_networks([21, 22])]
        for step in (1, 2, 3):
            for net, ref in zip(networks, fresh):
                np.testing.assert_array_equal(net.external_input(step), ref(step))

    def test_retain_keeps_survivor_streams(self):
        seeds = [31, 32, 33, 34]
        compiled = PortfolioAnnealedDrive(_lifted(_csp_networks(seeds)))
        reference = [net.external_input for net in _csp_networks(seeds)]
        for step in (1, 2, 3):
            np.testing.assert_array_equal(
                compiled(step), np.stack([c(step) for c in reference])
            )
        compiled.retain([0, 2])
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

        batch = BatchedNetwork.from_networks(networks())
        assert type(batch._drive) is PortfolioAnnealedDrive
        reference = [net.external_input for net in networks()]
        for step in range(1, 121):
            expected = np.stack([closure(step) for closure in reference])
            np.testing.assert_array_equal(expected, batch._drive(step))


class TestCompiledScaledDrive:
    def test_bit_identical_to_thalamic_input(self):
        seeds = [41, 42, 43]
        batch = BatchedNetwork.from_networks([d.fixed_network() for d in _definitions(seeds)])
        assert type(batch._drive) is CompiledScaledDrive
        reference = _definitions(seeds)
        for step in range(40):
            expected = np.stack([d.thalamic_input(step) for d in reference])
            np.testing.assert_array_equal(batch._drive(step), expected)

    def test_mixed_thalamic_scales_compile(self):
        # Each row carries its own replica's scales.
        definitions = _definitions([44]) + _definitions([45], thalamic_inhibitory=3.0)
        batch = BatchedNetwork.from_networks([d.fixed_network() for d in definitions])
        assert type(batch._drive) is CompiledScaledDrive
        reference = _definitions([44]) + _definitions([45], thalamic_inhibitory=3.0)
        for step in range(40):
            expected = np.stack([d.thalamic_input(step) for d in reference])
            np.testing.assert_array_equal(batch._drive(step), expected)

    def test_compile_leaves_source_generators_untouched(self):
        definitions = _definitions([51])
        batch = BatchedNetwork.from_networks([definitions[0].fixed_network()])
        for step in range(5):
            batch.step(step)
        # The definition's generator must still be at its post-build
        # position: the first thalamic draw equals that of a twin
        # definition that was never compiled.
        twin = _definitions([51])[0]
        np.testing.assert_array_equal(definitions[0].thalamic_input(0), twin.thalamic_input(0))

    def test_a_compiled_batch_extends_retains_and_snapshots(self, assert_same_snapshot):
        seeds = [61, 62, 63, 64]
        expected = _lockstep([d.fixed_network() for d in _definitions(seeds)], 60)
        networks = [d.fixed_network() for d in _definitions(seeds)]
        batch = BatchedNetwork.from_networks(networks[:2])
        np.testing.assert_array_equal(_batched(batch, 13), expected[:13, :2])
        for network in networks[2:]:
            network.run(13)  # warm: their closures stand at step 13
        batch.extend(networks[2:])  # joins mid-run
        assert type(batch._drive) is CompiledScaledDrive
        np.testing.assert_array_equal(_batched(batch, 20, start=13), expected[13:33])

        saved = batch.export_state()
        _batched(batch, 5, start=33)
        batch.restore_state(saved)
        assert_same_snapshot(batch.export_state(), saved)
        # A batch rebuilt from fresh rows continues from the snapshot too.
        rebuilt = BatchedNetwork.from_networks([d.fixed_network() for d in _definitions(seeds)])
        rebuilt.restore_state(saved)
        np.testing.assert_array_equal(_batched(rebuilt, 27, start=33), expected[33:])

        batch.retain([0, 2, 3])
        np.testing.assert_array_equal(_batched(batch, 27, start=33), expected[33:, [0, 2, 3]])


# ---------------------------------------------------------------------- #
# The compile rule
# ---------------------------------------------------------------------- #
SIZE = 30


def _network(provider):
    """A fixed-point network of ``SIZE`` regular-spiking neurons driven by ``provider``."""
    population = FixedPointPopulation.from_float_parameters(
        np.full(SIZE, 0.02), np.full(SIZE, 0.2), np.full(SIZE, -65.0), np.full(SIZE, 8.0)
    )
    return SNNNetwork(population=population, external_input=provider)


def _scaled(seed, width=SIZE):
    """A thalamic-style closure declaring its :class:`ScaledNoiseSpec`."""
    spec = ScaledNoiseSpec(scale=np.full(width, 9.0), rng=np.random.default_rng(seed))

    def external(step):
        return spec.scale * spec.rng.standard_normal(width)

    external.drive_spec = spec
    return external


def _annealed(seed):
    """An annealed-noise closure declaring its :class:`AnnealedNoiseSpec`."""
    spec = AnnealedNoiseSpec(
        drive=np.full(SIZE, 4.0),
        free_mask=np.arange(SIZE) % 3 > 0,
        rng=np.random.default_rng(seed),
        noise_sigma=8.0,
        anneal_period=20,
        anneal_floor=0.25,
    )

    def external(step):
        phase = (step % spec.anneal_period) / max(spec.anneal_period, 1)
        amplitude = spec.noise_sigma * (1.0 - (1.0 - spec.anneal_floor) * phase)
        return spec.drive + amplitude * spec.rng.standard_normal(SIZE) * spec.free_mask

    external.drive_spec = spec
    return external


def _opaque(seed):
    """The scaled closure behind a wrapper that declares no spec."""
    closure = _scaled(seed)
    return lambda step: closure(step)


def _shared_generator():
    definition = build_eighty_twenty(
        EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=5)
    )
    return [definition.fixed_network(), definition.fixed_network()]


#: name -> a factory of fresh networks whose rows do not compile.
UNCOMPILED = {
    "opaque": lambda: [_network(_scaled(1)), _network(_opaque(2))],
    "absent": lambda: [_network(_scaled(1)), _network(None)],
    "mixed-families": lambda: [_network(_scaled(1)), _network(_annealed(2))],
    "differing-widths": lambda: [_network(_scaled(1)), _network(_scaled(2, width=1))],
    "shared-generator": _shared_generator,
}


class TestCompileRule:
    def test_annealed_rows_compile_to_the_portfolio_drive(self):
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
        solver = SpikingCSPSolver(graph, seed=1)
        for replicas in (
            [_network(_annealed(1)), _network(_annealed(2))],
            [solver.row(clamps, seed=1), solver.build_network(clamps, seed=2)],
        ):
            assert type(BatchedNetwork.from_networks(replicas)._drive) is PortfolioAnnealedDrive

    def test_scaled_rows_compile_to_the_scaled_drive(self):
        for networks in (
            [_network(_scaled(1)), _network(_scaled(2))],
            [d.fixed_network() for d in _definitions([1, 2])],
        ):
            assert type(BatchedNetwork.from_networks(networks)._drive) is CompiledScaledDrive

    @pytest.mark.parametrize("case", sorted(UNCOMPILED))
    def test_rows_that_do_not_compile_step_their_own_closures(self, case):
        batch = BatchedNetwork.from_networks(UNCOMPILED[case]())
        assert batch._drive is None
        expected = _lockstep(UNCOMPILED[case](), 60)
        assert expected.any()
        np.testing.assert_array_equal(_batched(batch, 60), expected)

    def test_compiled_rows_equal_their_networks(self):
        for factory in (
            lambda: [_network(_scaled(1)), _network(_scaled(2))],
            lambda: [_network(_annealed(1)), _network(_annealed(2))],
        ):
            batch = BatchedNetwork.from_networks(factory())
            assert batch._drive is not None
            np.testing.assert_array_equal(_batched(batch, 60), _lockstep(factory(), 60))


class TestSpecConstruction:
    def test_annealed_spec_attached_by_solver(self):
        net = _csp_networks([9])[0]
        spec = net.external_input.drive_spec
        assert isinstance(spec, AnnealedNoiseSpec)
        assert spec.drive.shape == (net.size,)
        assert spec.free_mask.dtype == bool

    def test_scaled_spec_recognised_from_bound_method(self):
        definition = _definitions([2])[0]
        spec = batch_row(definition.fixed_network()).drive_spec
        assert isinstance(spec, ScaledNoiseSpec)
        assert spec.rng is not definition.rng

    def test_direct_spec_compilation(self):
        specs = [
            ScaledNoiseSpec(scale=np.full(16, 2.0), rng=np.random.default_rng(s))
            for s in (1, 2)
        ]
        compiled = CompiledScaledDrive(specs)
        out = compiled(0)
        assert out.shape == (2, 16)


def test_a_nan_in_a_compiled_drive_raises_like_the_sequential_step(step_path):
    spec = ScaledNoiseSpec(scale=np.full(SIZE, np.nan), rng=np.random.default_rng(0))
    network = _network(lambda step: spec.scale * spec.rng.standard_normal(SIZE))
    network.external_input.drive_spec = spec
    batch = BatchedNetwork.from_networks([network])
    assert batch._drive is not None
    with pytest.raises(FloatingPointError):
        batch.step(0)
    with pytest.raises(FloatingPointError):
        network.step(0)


class TestSpecValidation:
    """Specs refuse at construction what a drive could not step the same way on every path."""

    def _annealed(self, **fields):
        spec = dict(drive=np.zeros(4), free_mask=np.ones(4, dtype=bool),
                    rng=np.random.default_rng(0), noise_sigma=1.0, anneal_period=10,
                    anneal_floor=0.2)
        spec.update(fields)
        return AnnealedNoiseSpec(**spec)

    @pytest.mark.parametrize("period", [0, -3, 1.5, "10", None])
    def test_an_anneal_period_below_one_or_not_an_integer_raises(self, period):
        with pytest.raises(ValueError, match="anneal_period"):
            self._annealed(anneal_period=period)

    def test_an_integer_period_is_kept_as_an_int(self):
        assert self._annealed(anneal_period=np.int64(7)).anneal_period == 7
        assert type(self._annealed(anneal_period=np.int64(7)).anneal_period) is int

    @pytest.mark.parametrize("rng", [None, 7, np.random.RandomState(0), np.random.PCG64(0)],
                             ids=["none", "int", "random-state", "bit-generator"])
    def test_an_rng_that_is_not_a_generator_raises(self, rng):
        with pytest.raises(TypeError, match="numpy.random.Generator"):
            self._annealed(rng=rng)
        with pytest.raises(TypeError, match="numpy.random.Generator"):
            ScaledNoiseSpec(scale=np.ones(4), rng=rng)

"""BatchedNetwork.extend and the portfolio drive: stack-in correctness.

``extend`` is retain's inverse: appending replicas to a live batch must
leave existing rows' trajectories untouched and give each new row the
exact trajectory it would have standalone.  The portfolio drive supplies
the per-row step offsets that make a mid-run stack-in bit-identical to a
fresh standalone solve.
"""

import functools

import numpy as np
import pytest

from repro.csp import SpikingCSPSolver, make_instance
from repro.runtime import BatchedNetwork, BatchIncompatibleError
from repro.runtime.drives import PortfolioAnnealedDrive
from repro.snn.eighty_twenty import EightyTwentyConfig, build_eighty_twenty


def _networks(seeds, *, instance_seed=3, num_vertices=8):
    graph, clamps = make_instance(
        "coloring", seed=instance_seed, num_vertices=num_vertices, num_colors=3
    )
    return [SpikingCSPSolver(graph, seed=int(s)).build_network(clamps) for s in seeds]


def _spikes(batch, num_steps, start=1):
    out = []
    for t in range(num_steps):
        out.append(batch.step(start + t).copy())
    return np.stack(out)


class TestPortfolioDriveEquivalence:
    def test_offset_rows_replay_the_standalone_phase(self):
        # A spec with offset g called at global step g + t must equal the
        # zero-offset spec of an identically seeded network at local t.
        [fresh] = _networks([21])
        [shifted] = _networks([21])
        shifted.external_input.drive_spec.step_offset = 37
        reference = PortfolioAnnealedDrive([fresh.external_input.drive_spec])
        offset = PortfolioAnnealedDrive([shifted.external_input.drive_spec])
        for local in range(1, 50):
            np.testing.assert_array_equal(
                reference(local), offset(37 + local).copy()
            )

    def test_extend_joins_streams_mid_chunk(self):
        nets = _networks([1, 2])
        drive = PortfolioAnnealedDrive([n.external_input.drive_spec for n in nets])
        for step in range(1, 12):  # mid-chunk (chunk = 32)
            drive(step)
        [extra] = _networks([3])
        extra.external_input.drive_spec.step_offset = 11
        drive.extend([extra.external_input.drive_spec])
        assert drive.batch_shape[0] == 3
        [solo] = _networks([3])
        reference = PortfolioAnnealedDrive([solo.external_input.drive_spec])
        for local in range(1, 60):
            got = drive(11 + local)
            np.testing.assert_array_equal(reference(local)[0], got[2])

    def test_retain_then_extend(self):
        nets = _networks([1, 2, 3])
        drive = PortfolioAnnealedDrive([n.external_input.drive_spec for n in nets])
        drive(1)
        drive.retain([0, 2])
        [extra] = _networks([4])
        drive.extend([extra.external_input.drive_spec])
        assert drive.batch_shape[0] == 3

    def test_extend_rejects_foreign_specs(self):
        nets = _networks([1])
        drive = PortfolioAnnealedDrive([n.external_input.drive_spec for n in nets])
        [other] = _networks([2], instance_seed=9, num_vertices=12)
        with pytest.raises(ValueError):
            drive.extend([other.external_input.drive_spec])


class TestBatchedNetworkExtend:
    def test_extend_at_start_matches_joint_construction(self):
        joint = BatchedNetwork.from_networks(_networks([5, 6, 7]))
        grown = BatchedNetwork.from_networks(_networks([5, 6]))
        grown.extend(_networks([7]))
        assert grown.batch_size == 3
        np.testing.assert_array_equal(_spikes(joint, 40), _spikes(grown, 40))

    def test_existing_rows_unchanged_by_mid_run_extend(self):
        reference = BatchedNetwork.from_networks(_networks([5, 6]))
        ref_spikes = _spikes(reference, 60)
        grown = BatchedNetwork.from_networks(_networks([5, 6]))
        first = _spikes(grown, 25)
        grown.extend(_networks([8]))
        rest = _spikes(grown, 35, start=26)
        np.testing.assert_array_equal(ref_spikes[:25], first)
        np.testing.assert_array_equal(ref_spikes[25:], rest[:, :2])

    def test_new_row_matches_standalone_run(self):
        # The stacked-in replica's raster (per-replica external providers,
        # which are step-indexed closures) equals the standalone network's.
        grown = BatchedNetwork.from_networks(_networks([5, 6]))
        _spikes(grown, 25)
        [incoming] = _networks([9])
        [standalone] = _networks([9])
        grown.extend([incoming])
        got = _spikes(grown, 40, start=26)[:, 2]
        expected = np.stack([standalone.step(26 + t).copy() for t in range(40)])
        np.testing.assert_array_equal(expected, got)

    def test_integer_kernel_survives_extend(self):
        batch = BatchedNetwork.from_networks(_networks([5, 6]))
        assert batch.integer_propagation
        batch.extend(_networks([7]))
        assert batch.integer_propagation

    def test_extend_rejects_size_mismatch(self):
        batch = BatchedNetwork.from_networks(_networks([5, 6]))
        with pytest.raises(BatchIncompatibleError):
            batch.extend(_networks([1], instance_seed=9, num_vertices=12))

    def test_extend_rejects_mixed_population_kinds(self):
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
        batch = BatchedNetwork.from_networks(_networks([5, 6]))
        floaty = SpikingCSPSolver(graph, backend="float64", seed=1).build_network(clamps)
        with pytest.raises(BatchIncompatibleError):
            batch.extend([floaty])

    def test_extend_without_provider_support_refuses(self):
        nets = _networks([5, 6])

        def provider(step):  # a plain callable: no extend()
            return np.zeros((2, nets[0].size))

        batch = BatchedNetwork.from_networks(nets, batched_external=provider)
        with pytest.raises(BatchIncompatibleError):
            batch.extend(_networks([7]))
        # The refusal left the batch fully usable.
        batch.step(1)

    def test_extend_with_portfolio_drive_validates_shape(self):
        nets = _networks([5, 6])
        batch = BatchedNetwork.from_networks(
            nets,
            batched_external=PortfolioAnnealedDrive(
                [n.external_input.drive_spec for n in nets]
            ),
        )
        batch.extend(_networks([7]))
        assert batch._batched_external.batch_shape == (3, batch.size)
        batch.step(1)

    def test_empty_extend_is_noop(self):
        batch = BatchedNetwork.from_networks(_networks([5, 6]))
        batch.extend([])
        assert batch.batch_size == 2

    def test_float64_extend(self):
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)

        def build(seeds):
            return [
                SpikingCSPSolver(graph, backend="float64", seed=int(s)).build_network(clamps)
                for s in seeds
            ]

        joint = BatchedNetwork.from_networks(build([1, 2, 3]))
        grown = BatchedNetwork.from_networks(build([1, 2]))
        grown.extend(build([3]))
        np.testing.assert_array_equal(_spikes(joint, 30), _spikes(grown, 30))


@functools.lru_cache(maxsize=None)
def _shared_build():
    graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
    return graph, clamps, SpikingCSPSolver(graph, seed=0).synapses


def _shared_csp(seeds):
    # Replicas of one graph sharing one synapse build (one matrix object)
    # across calls, as the solve service's synapse cache does.
    graph, clamps, synapses = _shared_build()
    return [
        SpikingCSPSolver(graph, seed=int(seed), synapses=synapses).build_network(clamps)
        for seed in seeds
    ]


def _flat_csp(seeds):
    # One graph per replica: independent connectivity of equal size.
    nets = []
    for seed in seeds:
        graph, clamps = make_instance("coloring", seed=int(seed), num_vertices=8, num_colors=3)
        nets.append(SpikingCSPSolver(graph, seed=int(seed)).build_network(clamps))
    return nets


def _eighty_twenty(seeds, *, backend="fixed"):
    nets = []
    for seed in seeds:
        definition = build_eighty_twenty(
            EightyTwentyConfig(num_excitatory=24, num_inhibitory=6, seed=int(seed))
        )
        if backend == "fixed":
            nets.append(definition.fixed_network(current_mode="decay"))
        else:
            nets.append(definition.float_network())
    return nets


#: name -> (network factory, batch options, the synapse engine it must reach)
ENGINES = {
    "integer-shared": (_shared_csp, {}, "shared"),
    "integer-flat": (_flat_csp, {}, "flat"),
    "per-replica-float": (_eighty_twenty, {}, "per-replica"),
    "float64": (lambda seeds: _eighty_twenty(seeds, backend="float64"), {}, "per-replica"),
    "fused-dense": (_eighty_twenty, {"synapse_mode": "fused"}, "fused"),
}


def _engine(batch):
    synapses = batch._synapses
    if synapses.integer:
        return synapses._int_kind
    return "per-replica" if synapses._weight_rows is None else "fused"


class TestExtendEqualsJointConstruction:
    @pytest.mark.parametrize("warm_steps", [0, 5], ids=["cold", "warm"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_extend_matches_joint_construction(self, engine, warm_steps):
        factory, options, kind = ENGINES[engine]
        head, tail = [11, 12], [13, 14]

        def networks(seeds):
            nets = factory(seeds)
            for net in nets:
                for step in range(1, warm_steps + 1):
                    net.step(step)
            return nets

        joint = BatchedNetwork.from_networks(networks(head + tail), **options)
        grown = BatchedNetwork.from_networks(networks(head), **options)
        grown.extend(networks(tail))
        assert _engine(joint) == _engine(grown) == kind
        assert grown.batch_size == joint.batch_size == 4

        joint_state, grown_state = joint.export_state(), grown.export_state()
        assert list(joint_state) == list(grown_state)
        assert joint_state["descriptor"] == grown_state["descriptor"]
        for key in list(joint_state)[1:]:
            np.testing.assert_array_equal(joint_state[key], grown_state[key], err_msg=key)
        start = warm_steps + 1
        np.testing.assert_array_equal(_spikes(joint, 20, start), _spikes(grown, 20, start))

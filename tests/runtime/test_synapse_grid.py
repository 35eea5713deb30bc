"""The integer synapse grid and the one recomposition call.

A batch whose sparse weights all quantise losslessly propagates through
one integer grid: the CSC columns of the distinct structures (matrices,
by identity) of the rows live at its last build, each row addressing its
structure through its column base.  The grid is built once at
construction and rebuilt only when an admission brings a structure it
lacks; a retirement leaves it as it is.  ``BatchedNetwork.retain(keep,
networks)`` is the one recomposition: it checks every admission once,
before anything changes, and ``SlotEngine.recompose`` stamps admissions
on copies of their specs.  This suite counts grid builds and admission
checks by wrapping them, and holds a batch of rows over shared and
distinct structures to its sequential networks through retirements,
admissions and rebuilds, on both step paths.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.csp import CSPConfig, SpikingCSPSolver, make_instance
from repro.csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
from repro.csp.solver import CSP_SLOT_DECODER, solve_instances
from repro.runtime import BatchedNetwork, BatchIncompatibleError, native
from repro.runtime.batch import _SynapseBatch
from repro.runtime.slots import SlotEngine, SlotRow
from repro.sudoku.puzzles import PuzzleGenerator


@pytest.fixture
def calls(monkeypatch):
    """``count(cls, name)``: wraps ``cls.name``; returns the list of its calls' receivers."""

    def count(cls, name):
        tally = []
        original = getattr(cls, name)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            tally.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)
        return tally

    return count


@functools.lru_cache(maxsize=None)
def _instance(structure):
    """Coloring instance ``structure``: rows of one instance share one synapse object."""
    return make_instance("coloring", seed=structure, num_vertices=8, num_colors=3)


def _networks(structures, seeds):
    """One fixed-point solver network per ``(structure, seed)``."""
    out = []
    for structure, seed in zip(structures, seeds):
        graph, clamps = _instance(structure)
        out.append(SpikingCSPSolver(graph, seed=int(seed)).build_network(clamps))
    return out


def _structures(batch):
    """How many structures the grid holds."""
    return (batch._synapses.grid[0].size - 1) // batch.size


def _grid_pointers(batch):
    block = batch._native._block
    return block.indptr, block.indices, block.weights


class TestGridBuilds:
    @pytest.fixture(scope="class")
    def sudoku(self):
        graph = shared_sudoku_graph()
        puzzles = [PuzzleGenerator().generate(seed=s, target_clues=40).puzzle for s in range(4)]
        return [(graph, clamps_from_cells(puzzles[j % 4].cells)) for j in range(32)]

    def test_a_sudoku_solve_builds_once_per_batch(self, step_path, sudoku, calls):
        builds = calls(_SynapseBatch, "build")
        batches = calls(BatchedNetwork, "__init__")
        retains = calls(BatchedNetwork, "retain")
        results = solve_instances(sudoku, seeds=list(range(32)), max_steps=300, check_interval=10)
        assert any(result.solved for result in results)
        assert len(retains) > 0  # rows retired into the live batch
        assert len(builds) == len(batches) == 1

    def _engine(self, structures, seeds):
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=20, check_interval=10)
        engine.admit(self._admissions(structures, seeds))
        return engine

    @staticmethod
    def _admissions(structures, seeds):
        admissions = []
        for structure, seed in zip(structures, seeds):
            graph, clamps = _instance(structure)
            row = SpikingCSPSolver(graph, CSPConfig(), seed=int(seed)).row(clamps)
            admissions.append((SlotRow(graph=graph, clamps=clamps, budget=10_000), row))
        return admissions

    def test_a_retirement_builds_nothing(self, step_path, calls):
        engine = self._engine([1, 2, 1, 3], [11, 12, 13, 14])
        for _ in range(5):
            engine.step()
        batch = engine._batch
        grid = batch._synapses.grid
        pointers = _grid_pointers(batch) if batch.native_step else None
        builds = calls(_SynapseBatch, "build")
        engine.recompose([0, 1], [])  # structure 3's last row retires
        assert builds == [] and batch._synapses.grid is grid
        assert _structures(batch) == 3  # the stale structure stays until a rebuild
        if pointers is not None:
            assert _grid_pointers(batch) == pointers

    def test_an_admission_builds_only_for_a_new_structure(self, step_path, calls,
                                                          assert_same_grid):
        engine = self._engine([1, 2, 1, 3], [11, 12, 13, 14])
        engine.step()
        engine.recompose([0, 1, 2], [])
        builds = calls(_SynapseBatch, "build")
        engine.recompose([0, 1, 2], self._admissions([3, 2], [15, 16]))
        assert builds == []  # structure 3 is stale in the grid, but still there
        engine.step()
        engine.recompose([1, 3, 4], self._admissions([4], [17]))
        assert len(builds) == 1
        # Rebuilt from the live rows: structure 1's rows retired there, so
        # the grid holds 2, 3 and 4.
        assert _structures(engine._batch) == 3
        assert_same_grid(engine._batch)


class TestMixedStructures:
    #: Six rows over three structures; structures 1 and 2 have a pair of rows each.
    STRUCTURES = (1, 2, 1, 3, 2, 3)

    def test_a_mixed_batch_steps_like_its_networks(self, step_path, calls, assert_same_grid):
        builds = calls(_SynapseBatch, "build")
        # A batch copies what it stacks, so the networks step on as the reference.
        reference = _networks(self.STRUCTURES, range(100, 106))
        batch = BatchedNetwork.from_networks(reference)

        def built():  # assert_same_grid builds grids of its own
            return sum(receiver is batch._synapses for receiver in builds)

        assert batch.native_step == (step_path == "native")
        assert built() == 1 and _structures(batch) == 3
        assert_same_grid(batch)
        step = 0

        def run(count):
            nonlocal step
            for _ in range(count):
                step += 1
                got = batch.step(step)
                for row, network in enumerate(reference):
                    np.testing.assert_array_equal(
                        got[row], network.step(step), err_msg=f"row {row} step {step}"
                    )

        run(15)
        # Structure 3's last rows retire: no rebuild.
        batch.retain([0, 1, 2, 4])
        reference = [reference[i] for i in (0, 1, 2, 4)]
        assert built() == 1 and _structures(batch) == 3
        assert_same_grid(batch)
        run(15)
        # An admission of a live structure: no rebuild.
        incoming = _networks([2], [106])
        batch.extend(incoming)
        reference += incoming
        assert built() == 1
        assert_same_grid(batch)
        run(15)
        # An admission of a new structure: one rebuild, over the live rows.
        incoming = _networks([4], [107])
        batch.retain([0, 2, 3, 4], incoming)
        reference = [reference[i] for i in (0, 2, 3, 4)] + incoming
        assert built() == 2 and _structures(batch) == 3
        assert_same_grid(batch)
        run(15)


class TestOneCheckedCall:
    def _engine(self):
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=20, check_interval=10)
        engine.admit(TestGridBuilds._admissions([1, 2, 1], [21, 22, 23]))
        for _ in range(7):
            engine.step()
        return engine

    def test_one_admission_check_per_recomposition(self, calls):
        engine = self._engine()
        checks = calls(BatchedNetwork, "_check_admissions")
        engine.recompose([0, 2], TestGridBuilds._admissions([2], [24]))
        assert len(checks) == 1
        engine.recompose([1, 2], [])
        assert len(checks) == 1  # a retirement checks nothing
        engine.admit(TestGridBuilds._admissions([3, 1], [25, 26]))
        assert len(checks) == 2

    @pytest.mark.parametrize("accepted", [True, False], ids=["accepted", "refused"])
    def test_an_admission_leaves_the_callers_specs_as_they_were(self, accepted):
        engine = self._engine()
        graph, clamps = _instance(2)
        backend = "fixed" if accepted else "float64"  # a float64 row is refused
        spec = SpikingCSPSolver(graph, CSPConfig(), backend=backend, seed=27).row(clamps)
        row = SlotRow(graph=graph, clamps=clamps, budget=10_000)
        before = dict(vars(spec)), dataclasses.asdict(spec.drive_spec)
        if accepted:
            engine.recompose([0, 1, 2], [(row, spec)])
            stacked = engine._batch.rows[-1]
            assert stacked is not spec and stacked.drive_spec.step_offset == engine.global_step
            assert stacked.drive_spec.rng is spec.drive_spec.rng  # the batch draws from it
            assert row.offset == engine.global_step
        else:
            with pytest.raises(BatchIncompatibleError):
                engine.recompose([0, 1, 2], [(row, spec)])
            assert row.offset == 0
        assert all(vars(spec)[key] is value for key, value in before[0].items())
        assert spec.drive_spec.step_offset == 0
        after = dataclasses.asdict(spec.drive_spec)
        assert after.keys() == before[1].keys()
        for key, value in before[1].items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(after[key], value)
            elif key != "rng":
                assert after[key] == value, key


def test_native_grid_pointers_follow_a_rebuild_only():
    if native.load() is None:
        pytest.skip("no native step kernel on this host")
    batch = BatchedNetwork.from_networks(_networks([1, 2, 1], [31, 32, 33]))
    batch.step(1)
    pointers = _grid_pointers(batch)
    batch.retain([0, 1])
    assert _grid_pointers(batch) == pointers
    batch.extend(_networks([4], [34]))  # a new structure, within capacity
    assert _grid_pointers(batch) != pointers
    indptr, indices, _, weights, _ = batch._synapses.grid
    assert _grid_pointers(batch) == (indptr.ctypes.data, indices.ctypes.data, weights.ctypes.data)

"""The row stack: per-row arrays that recompose in place, and native blocks bound once per capacity."""

import asyncio
import ctypes
import gc
import math
import weakref

import numpy as np
import pytest

from repro.csp import SpikingCSPSolver, make_instance
from repro.csp.solver import CSP_SLOT_DECODER, solve_instances
from repro.runtime import native
from repro.runtime.rows import Field, RowStack
from repro.runtime.slots import SlotDecision, SlotEngine, SlotRow
from repro.serve import SolveService

FIELDS = {
    "a": Field(np.int64, (None, 3), "a"),
    "ring": Field(np.bool_, (2, None, 3), "ring"),
    "per_row": Field(np.float64, key="per_row"),
    "tmp": Field(np.int64, (None, 3), scratch=True),
}


class _Owner:
    pass


def _stack(rows=4):
    owner = _Owner()
    stack = RowStack(owner, FIELDS)
    assert stack.extend(rows, {
        "a": np.arange(3 * rows).reshape(rows, 3),
        "ring": np.arange(6 * rows).reshape(2, rows, 3) % 2 == 0,
        "per_row": np.arange(rows, dtype=float),
    })
    return owner, stack


class TestRowStack:
    def test_retain_moves_the_kept_rows_down_in_order(self):
        owner, stack = _stack()
        ring = owner.ring.copy()
        stack.retain([1, 3])
        assert stack.rows == 2 and stack.capacity == 4
        np.testing.assert_array_equal(owner.a, [[3, 4, 5], [9, 10, 11]])
        np.testing.assert_array_equal(owner.ring, ring[:, [1, 3]])
        np.testing.assert_array_equal(owner.per_row, [1.0, 3.0])
        assert owner.tmp.shape == (2, 3)

    def test_extend_writes_after_the_live_rows_and_grows_only_when_full(self):
        owner, stack = _stack()
        stack.retain([0, 2])
        buffers = {name: getattr(owner, name).base for name in FIELDS}
        assert not stack.extend(2, {"a": 7, "per_row": [5.0, 6.0]})
        assert all(getattr(owner, name).base is buffers[name] for name in FIELDS)
        np.testing.assert_array_equal(owner.a, [[0, 1, 2], [6, 7, 8], [7, 7, 7], [7, 7, 7]])
        np.testing.assert_array_equal(owner.per_row, [0.0, 2.0, 5.0, 6.0])
        assert not owner.ring[:, 2:].any()  # a field left out gets zeros
        a, ring, per_row = owner.a.copy(), owner.ring.copy(), owner.per_row.copy()
        assert stack.extend(1, {})
        assert (stack.rows, stack.capacity) == (5, 8)
        np.testing.assert_array_equal(owner.a[:4], a)
        np.testing.assert_array_equal(owner.ring[:, :4], ring)
        np.testing.assert_array_equal(owner.per_row[:4], per_row)

    def test_an_owner_may_swap_same_shaped_fields(self):
        owner, stack = _stack()
        owner.a, owner.tmp = owner.tmp, owner.a  # "a" now lives in the scratch buffer
        kept = owner.a.copy()
        stack.retain([0, 3])
        np.testing.assert_array_equal(owner.a, kept[[0, 3]])

    def test_check_writes_nothing_and_restore_copies_in_place(self):
        owner, stack = _stack(3)
        state = stack.export()
        assert list(state) == ["a", "ring", "per_row"]
        addresses = {name: getattr(owner, name).ctypes.data for name in FIELDS}
        bad = dict(state, ring=state["ring"][:, :2])
        with pytest.raises(ValueError, match="'ring' has shape"):
            stack.check(bad, 3)
        owner.a[...] = -1
        stack.restore(stack.check(state, 3))
        np.testing.assert_array_equal(owner.a, state["a"])
        assert addresses == {name: getattr(owner, name).ctypes.data for name in FIELDS}

    def test_bind_checks_every_buffer_before_writing_a_pointer(self):
        class Block(ctypes.Structure):
            _fields_ = [("a", ctypes.c_void_p), ("ring", ctypes.c_void_p)]

        owner, stack = _stack()
        block = Block()
        stack.bind(block, [("a", "a", np.int64), ("ring", "ring", np.bool_)])
        assert (block.a, block.ring) == (owner.a.ctypes.data, owner.ring.base.ctypes.data)
        fresh = Block()
        with pytest.raises(RuntimeError, match="per_row"):
            stack.bind(fresh, [("a", "a", np.int64), ("ring", "per_row", np.int64)])
        assert fresh.a is None


def test_a_dropped_engine_frees_its_buffers_without_the_cycle_collector():
    """Owners hold their stacks, never the reverse, so reference counting
    alone frees a finished solve's buffers."""
    engine = _engine()
    engine.admit([_admission(seed) for seed in range(3)])
    engine.step()
    batch, drive = weakref.ref(engine._batch), weakref.ref(engine._batch._drive)
    gc.disable()
    try:
        del engine
        assert batch() is None and drive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------- #
# Native blocks, bound once per capacity
# ---------------------------------------------------------------------- #
@pytest.fixture
def blocks(monkeypatch):
    """Counts of ``StepBlock`` and ``BooksBlock`` constructions, by class name."""
    if native.load() is None:
        pytest.skip("no native step kernel on this host")
    counts = {"StepBlock": 0, "BooksBlock": 0}
    for name in counts:
        base = getattr(native, name)

        def init(self, *args, _base=base, _name=name, **kwargs):
            counts[_name] += 1
            _base.__init__(self, *args, **kwargs)

        monkeypatch.setattr(native, name, type(name, (base,), {"__init__": init}))
    return counts


def _admission(seed, budget=10_000):
    graph, clamps = make_instance("coloring", seed=seed, num_vertices=8, num_colors=3)
    row = SlotRow(graph=graph, clamps=clamps, budget=budget, payload=seed)
    return row, SpikingCSPSolver(graph, seed=seed).row(clamps)


def _engine():
    return SlotEngine(decoder=CSP_SLOT_DECODER, window=5, check_interval=10)


def _addresses(engine):
    """Where every live per-row array of the engine, its batch and drive starts."""
    batch = engine._batch
    owners = {"engine": engine, "batch": batch, "drive": batch._drive}
    return {
        (owner, name): getattr(holder, name).ctypes.data
        for owner, holder in owners.items()
        for name in holder._stack._fields
        if name not in ("_fired", "_last_fired")  # swapped by every step
    } | {"masks": {batch._fired.ctypes.data, batch._last_fired.ctypes.data}}


class TestBindOncePerCapacity:
    def test_a_recomposition_within_capacity_binds_nothing_and_moves_nothing(self, blocks):
        engine = _engine()
        engine.admit([_admission(seed) for seed in range(4)])
        assert blocks == {"StepBlock": 1, "BooksBlock": 1}
        for _ in range(3):
            engine.step()
        addresses = _addresses(engine)
        engine.recompose([0, 2], [_admission(7), _admission(8)])
        engine.recompose([1, 3], [])
        engine.admit([_admission(9)])
        assert blocks == {"StepBlock": 1, "BooksBlock": 1}
        assert _addresses(engine) == addresses
        engine.step()
        engine.admit([_admission(10), _admission(11)])  # 5 rows: the stacks double
        assert blocks == {"StepBlock": 2, "BooksBlock": 2}

    def test_one_solve_instances_call_binds_one_of_each(self, blocks):
        instances = []
        for seed in range(32):
            graph, clamps = make_instance("coloring", seed=seed, num_vertices=8, num_colors=3)
            instances.append((graph, graph.resolve_clamps(clamps)))
        solve_instances(instances, seeds=list(range(32)), max_steps=60, check_interval=10)
        assert blocks == {"StepBlock": 1, "BooksBlock": 1}

    def test_a_serve_style_run_growing_to_32_rows_binds_log2_32_plus_1_of_each(self, blocks):
        engine, admitted = _engine(), iter(range(32))

        class Arrivals:
            """One arrival per checkpoint, none retired: one batch the whole run."""

            def initial_admissions(self, engine):
                return [_admission(next(admitted))]

            def on_checkpoint(self, checkpoint):
                arrival = next(admitted, None)
                return SlotDecision(
                    keep=list(range(engine.num_rows)),
                    admissions=[] if arrival is None else [_admission(arrival)],
                )

        engine.run(Arrivals(), max_steps=330)
        assert engine.num_rows == 32
        binds = math.ceil(math.log2(32)) + 1
        assert blocks == {"StepBlock": binds, "BooksBlock": binds}

    def test_a_serve_run_binds_at_most_log2_32_plus_1_of_each(self, blocks):
        instances = [make_instance("coloring", seed=seed, num_vertices=8, num_colors=3)
                     for seed in range(40)]

        async def main():
            async with SolveService(capacity=32, clock="steps") as service:
                return await service.submit_many(instances, seeds=range(40), max_steps=200)

        assert len(asyncio.run(main())) == 40
        binds = math.ceil(math.log2(32)) + 1
        assert 1 <= blocks["StepBlock"] <= binds and 1 <= blocks["BooksBlock"] <= binds

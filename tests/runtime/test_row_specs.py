"""Row specs and the batched decode against their sequential references.

The slot engine admits rows as :class:`~repro.runtime.batch.BatchRow`
specs built from a per-config template, and decodes every at-check row
of a checkpoint in one vectorised pass.  Both fast paths keep their
references — ``SpikingCSPSolver.build_network`` read through
``batch_row``, and ``decode_assignment`` + ``ConstraintGraph.is_solution``
row by row — and this suite holds them to those references.
"""

import numpy as np
import pytest

from repro.csp import ConstraintGraph, CSPConfig, SpikingCSPSolver, Variable, make_instance
from repro.csp.portfolio import PortfolioConfig
from repro.csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
from repro.csp.solver import CSP_SLOT_DECODER, _row_template, decode_assignment
from repro.runtime import drives
from repro.runtime.batch import BatchedNetwork, batch_row
from repro.runtime.drives import PortfolioAnnealedDrive
from repro.runtime.slots import SlotEngine, SlotRow
from repro.snn.fixed_izhikevich import FixedPointPopulation
from repro.snn.izhikevich import IzhikevichPopulation
from repro.sudoku.puzzles import PuzzleGenerator

CHECK_INTERVAL = 10


# ---------------------------------------------------------------------- #
# Instances with a known solution, all of N = 729 neurons
# ---------------------------------------------------------------------- #
def _coloring(seed, *, num_vertices=243, num_colors=3, edge_probability=0.02):
    """A planted coloring instance plus its planted solution."""
    graph, clamps = make_instance(
        "coloring",
        seed=seed,
        num_vertices=num_vertices,
        num_colors=num_colors,
        edge_probability=edge_probability,
    )
    # The generator's planted partition (repro.csp.scenarios.coloring).
    order = np.random.default_rng(seed).permutation(num_vertices)
    group = np.empty(num_vertices, dtype=np.int64)
    group[order] = np.arange(num_vertices) % num_colors
    return graph, graph.resolve_clamps(clamps), group + 1


def _sudoku(seed):
    generated = PuzzleGenerator().generate(seed=seed, target_clues=40)
    graph = shared_sudoku_graph()
    clamps = graph.resolve_clamps(clamps_from_cells(generated.puzzle.cells))
    return graph, clamps, generated.solution.cells.reshape(-1).astype(np.int64)


def _hand_built(domains, seed):
    """A 729-neuron graph over the given per-variable domains, with not-equal edges."""
    rng = np.random.default_rng(seed)
    variables = [Variable(f"x{i}", domains[i % len(domains)]) for i in range(243)]
    graph = ConstraintGraph(variables, name=f"hand-{seed}")
    for _ in range(150):
        a, b = rng.choice(243, size=2, replace=False)
        graph.add_not_equal(int(a), int(b))
    clamps = graph.resolve_clamps({0: domains[0][1], 5: domains[5 % len(domains)][0]})
    solution = np.asarray([v.domain[0] for v in variables], dtype=np.int64)
    solution[0], solution[5] = domains[0][1], domains[5 % len(domains)][0]
    return graph, clamps, solution


def _window(graph, solution, rng, kind):
    """Seeded ``(counts, last_spike)`` for one row, of a given flavour."""
    n = graph.num_neurons
    counts = rng.integers(0, 3, n)
    last = np.where(counts > 0, rng.integers(1, 80, n), rng.choice([-1, 4], n))
    if kind in ("solution", "near-solution"):
        values = solution.copy()
        if kind == "near-solution":
            flip = int(rng.integers(graph.num_variables))
            domain = graph.variables[flip].domain
            values[flip] = domain[(domain.index(int(values[flip])) + 1) % len(domain)]
        picks = [graph.neuron_index(vi, int(value)) for vi, value in enumerate(values)]
        counts[picks] += 3
        last[picks] = 90
    elif kind == "ties":
        counts[:] = 1
        last[:] = rng.integers(1, 4, n)
    elif kind == "silent":
        counts[:] = 0
        last[:] = -1
    elif kind == "no-recency":  # all -1: the tie-break term must vanish
        last[:] = -1
    elif kind == "zero-recency":
        last[:] = 0
    return counts.astype(np.int64), last.astype(np.int64)


def _assert_matches_reference(rows, counts, last):
    decodes = CSP_SLOT_DECODER.decode_rows(rows, counts, last)
    assert len(decodes) == len(rows)
    solved = 0
    for i, (row, decode) in enumerate(zip(rows, decodes)):
        values, decided = decode_assignment(row.graph, counts[i], last[i], row.clamps)
        np.testing.assert_array_equal(decode.values, values, err_msg=f"row {i}")
        assert decode.values.dtype == values.dtype
        np.testing.assert_array_equal(decode.decided, decided, err_msg=f"row {i}")
        assert decode.solved is row.graph.is_solution(values, decided), f"row {i}"
        solved += decode.solved
    return solved


KINDS = ("random", "solution", "near-solution", "ties", "silent", "no-recency", "zero-recency")


class TestBatchedDecode:
    def test_mixed_pass_matches_reference(self):
        rng = np.random.default_rng(11)
        sudoku_graph, sudoku_clamps, sudoku_solution = _sudoku(3)
        instances = [_coloring(seed) for seed in range(4)]  # one graph each, width 3
        instances += [(sudoku_graph, sudoku_clamps, sudoku_solution)] * 4  # one shared graph
        instances += [_hand_built([(1, 2, 3), (4, 5, 6)], seed=1)]  # heterogeneous domains
        instances += [_hand_built([(-2, -1, 0)], seed=2)]  # homogeneous, negative values
        for trial in range(3):
            rows, counts, last = [], [], []
            for i, (graph, clamps, solution) in enumerate(instances):
                kind = KINDS[(i + trial) % len(KINDS)]
                rows.append(SlotRow(graph=graph, clamps=clamps, budget=100))
                c, t = _window(graph, solution, rng, kind)
                counts.append(c)
                last.append(t)
            _assert_matches_reference(rows, np.stack(counts), np.stack(last))
        assert rows[0].plan is not None and rows[-2].plan.domain is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_row_is_a_batch_of_one(self, kind):
        graph, clamps, solution = _coloring(5, num_vertices=12, edge_probability=0.3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            counts, last = _window(graph, solution, rng, kind)
            row = SlotRow(graph=graph, clamps=clamps, budget=100)
            _assert_matches_reference([row], counts[None], last[None])

    def test_solutions_are_found(self):
        # The flavours above must reach the conflict check both ways.
        rng = np.random.default_rng(2)
        instances = [_coloring(seed, num_vertices=12, edge_probability=0.3) for seed in range(6)]
        rows = [SlotRow(graph=g, clamps=c, budget=100) for g, c, _ in instances]
        windows = [_window(g, s, rng, "solution") for g, _, s in instances]
        counts, last = (np.stack(part) for part in zip(*windows))
        assert _assert_matches_reference(rows, counts, last) == len(rows)

    def test_engine_decodes_at_and_outside_a_checkpoint(self):
        config = CSPConfig()
        passes = []

        class CountingDecoder:
            def decode_rows(self, rows, window_counts, last_spike):
                passes.append(len(rows))
                return CSP_SLOT_DECODER.decode_rows(rows, window_counts, last_spike)

        engine = SlotEngine(decoder=CountingDecoder(), window=20, check_interval=CHECK_INTERVAL)
        admissions = []
        for seed in range(5):
            graph, clamps, _ = _coloring(seed, num_vertices=10, edge_probability=0.3)
            solver = SpikingCSPSolver(graph, config, seed=seed)
            row = SlotRow(graph=graph, clamps=clamps, budget=500)
            admissions.append((row, solver.row(clamps)))
        engine.admit(admissions)

        def reference(i):
            row = engine.rows[i]
            counts, last = engine._window_counts[i], engine._last_spike[i]
            values, decided = decode_assignment(row.graph, counts, last, row.clamps)
            return values, decided, row.graph.is_solution(values, decided)

        for step in range(1, 36):
            checkpoint = engine.step()
            assert (checkpoint is not None) == (step % CHECK_INTERVAL == 0)
            # Decodes outside a checkpoint (step 3, 17, ...) and at one.
            if checkpoint is not None or step % 7 == 3:
                del passes[:]
                for i in reversed(range(engine.num_rows)):
                    decode = engine.decode_row(i)
                    values, decided, solved = reference(i)
                    np.testing.assert_array_equal(decode.values, values)
                    np.testing.assert_array_equal(decode.decided, decided)
                    assert decode.solved is solved
                # One pass over every at-check row; elsewhere one row a pass.
                assert passes == ([5] if checkpoint is not None else [1] * 5)


# ---------------------------------------------------------------------- #
# Row admission against network admission
# ---------------------------------------------------------------------- #
def _job(seed, backend):
    graph, clamps, _ = _coloring(seed, num_vertices=10, edge_probability=0.3)
    solver = SpikingCSPSolver(graph, CSPConfig(), backend=backend, seed=seed)
    return graph, clamps, solver


def _admissions(seeds, backend, as_rows):
    out = []
    for seed in seeds:
        graph, clamps, solver = _job(seed, backend)
        replica = solver.row(clamps) if as_rows else solver.build_network(clamps)
        out.append((SlotRow(graph=graph, clamps=clamps, budget=10_000), replica))
    return out


def _assert_same_state(a, b):
    for key, value in a._batch.export_state().items():
        if key == "descriptor":
            assert value == b._batch.export_state()[key]
        else:
            np.testing.assert_array_equal(value, b._batch.export_state()[key], err_msg=key)
    drive_a, drive_b = a._drive().export_state(), b._drive().export_state()
    normals_a, normals_b = drive_a.pop("normals"), drive_b.pop("normals")
    for key in drive_a:
        np.testing.assert_array_equal(drive_a[key], drive_b[key], err_msg=key)
    # Only the chunk's unread slots hold draws; the rest is scratch.
    cursor = normals_a["row"]
    assert cursor == normals_b["row"]
    np.testing.assert_array_equal(normals_a["buffer"][:, cursor:], normals_b["buffer"][:, cursor:])
    for rng_a, rng_b in zip(normals_a["rngs"], normals_b["rngs"]):
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestRowAdmission:
    @pytest.mark.parametrize("backend", ["fixed", "float64"])
    def test_row_spec_reads_like_its_network(self, backend):
        graph, clamps, solver = _job(4, backend)
        spec = solver.row(clamps, seed=21)
        lifted = batch_row(solver.build_network(clamps, seed=21))
        assert spec.layout == lifted.layout and spec.synapses is lifted.synapses
        assert sorted(spec.arrays) == sorted(lifted.arrays)
        for name, array in spec.arrays.items():
            np.testing.assert_array_equal(array, lifted.arrays[name], err_msg=name)
            assert array.dtype == lifted.arrays[name].dtype, name
        for field in ("drive", "free_mask"):
            np.testing.assert_array_equal(
                getattr(spec.drive_spec, field), getattr(lifted.drive_spec, field)
            )
        assert spec.drive_spec.rng.bit_generator.state == lifted.drive_spec.rng.bit_generator.state

    @pytest.mark.parametrize("backend", ["fixed", "float64"])
    def test_rows_and_networks_run_identically(self, backend):
        def engine(as_rows):
            slot_engine = SlotEngine(
                decoder=CSP_SLOT_DECODER, window=20, check_interval=CHECK_INTERVAL
            )
            slot_engine.admit(_admissions([1, 2, 3], backend, as_rows))
            return slot_engine

        by_rows, by_networks = engine(True), engine(False)
        _assert_same_state(by_rows, by_networks)
        for _ in range(25):
            by_rows.step()
            by_networks.step()
        # Rows admitted mid-run, at offset 25.
        by_rows.admit(_admissions([4, 5], backend, True))
        by_networks.admit(_admissions([4, 5], backend, False))
        assert [row.offset for row in by_rows.rows] == [0, 0, 0, 25, 25]
        _assert_same_state(by_rows, by_networks)
        for _ in range(40):
            by_rows.step()
            by_networks.step()
            np.testing.assert_array_equal(
                by_rows._batch._last_fired, by_networks._batch._last_fired
            )
        _assert_same_state(by_rows, by_networks)

    def test_spec_only_rows_need_a_batched_drive(self):
        from repro.runtime import BatchIncompatibleError

        _, clamps, solver = _job(1, "fixed")
        with pytest.raises(BatchIncompatibleError):
            BatchedNetwork.from_networks([solver.row(clamps)])


# ---------------------------------------------------------------------- #
# The per-config template against the population constructors
# ---------------------------------------------------------------------- #
#: Exact Q4.11 / Q7.8 rounding ties (scaled values end in .5) and
#: negative values.
TIES = CSPConfig(a=0.5 / 2048, b=-1.5 / 2048, c=-65.0 - 0.5 / 256, d=2.0 + 2.5 / 2048)
VARIANTS = PortfolioConfig(
    anneal_variants=({"noise_sigma": 3.0}, {"anneal_period": 50, "anneal_floor": 0.5})
)
CONFIGS = {
    "default": CSPConfig(),
    "ties-and-negatives": TIES,
    "pinless-h3": CSPConfig(h_shift=3, pin_voltage=False, tau_select=4),
    **{
        f"portfolio-attempt-{k}": VARIANTS.attempt_config(CSPConfig(), k)
        for k in range(1, 4)
    },
}


@pytest.mark.parametrize("backend", ["fixed", "float64"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_template_matches_the_population_constructors(name, backend):
    config, size = CONFIGS[name], 13
    arrays = _row_template(config, backend, size).arrays
    full = {p: np.full(size, getattr(config, p)) for p in "abcd"}
    if backend == "fixed":
        population = FixedPointPopulation.from_float_parameters(
            *(full[p] for p in "abcd"), h_shift=config.h_shift, pin_voltage=config.pin_voltage
        )
        names = ("v_raw", "u_raw", "a_raw", "b_raw", "c_raw", "d_raw")
    else:
        population = IzhikevichPopulation.from_parameters(*(full[p] for p in "abcd"))
        names = ("v", "u", "a", "b", "c", "d")
    for array_name in names:
        expected = getattr(population, array_name)
        np.testing.assert_array_equal(arrays[array_name], expected, err_msg=array_name)
        assert arrays[array_name].dtype == np.asarray(expected).dtype
        assert not arrays[array_name].flags.writeable
    if name == "ties-and-negatives" and backend == "fixed":
        assert population.a_raw[0] == 1 and population.b_raw[0] == -2
        assert population.c_raw[0] == -16641
    graph, clamps = make_instance("coloring", seed=1, num_vertices=6, num_colors=3)
    network = SpikingCSPSolver(graph, config, backend=backend).build_network(clamps)
    assert _row_template(config, backend, graph.num_neurons).layout == batch_row(network).layout


# ---------------------------------------------------------------------- #
# Generator ownership
# ---------------------------------------------------------------------- #
class TestGeneratorOwnership:
    def test_stacking_a_network_leaves_its_closure_generator_untouched(self):
        graph, clamps, solver = _job(6, "fixed")
        network = solver.build_network(clamps, seed=77)
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=20, check_interval=CHECK_INTERVAL)
        engine.admit([(SlotRow(graph=graph, clamps=clamps, budget=100), network)])
        for _ in range(40):  # past one noise chunk
            engine.step()
        assert network.external_input.drive_spec.step_offset == 0
        np.testing.assert_array_equal(
            network.external_input.drive_spec.rng.standard_normal(50),
            np.random.default_rng(77).standard_normal(50),
        )

    def test_admitting_row_specs_copies_no_generator(self, monkeypatch):
        def refuse(rng):  # pragma: no cover - the failure path
            raise AssertionError("a row admission copied a generator")

        monkeypatch.setattr(drives, "_clone_rng", refuse)
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=20, check_interval=CHECK_INTERVAL)
        first = _admissions([1, 2], "fixed", True)
        engine.admit(first)
        for _ in range(13):
            engine.step()
        later = _admissions([3], "fixed", True)
        engine.admit(later)  # joins the noise chunk mid-flight
        for _ in range(40):
            engine.step()
        owned = [spec.drive_spec.rng for _, spec in first + later]
        assert all(a is b for a, b in zip(engine._drive()._normals._rngs, owned))

    def test_direct_drive_consumes_the_generators_it_is_given(self):
        _, clamps, solver = _job(2, "fixed")
        specs = [solver.row(clamps, seed=s).drive_spec for s in (5, 6)]
        drive = PortfolioAnnealedDrive(specs)
        drive(1)
        assert [spec.rng for spec in specs] == drive._normals._rngs
        state = specs[0].rng.bit_generator.state
        assert state != np.random.default_rng(5).bit_generator.state


# ---------------------------------------------------------------------- #
# Restacking the integer synapse grid
# ---------------------------------------------------------------------- #
def test_retain_and_extend_restack_like_a_fresh_build():
    from repro.runtime.batch import _SynapseBatch

    shared = _job(0, "fixed")[2].synapses
    pool = [shared] * 3 + [_job(seed, "fixed")[2].synapses for seed in range(1, 8)]
    rng = np.random.default_rng(3)
    live = [pool[0], pool[4], pool[5]]
    stack = _SynapseBatch(live, live[0].matrix.shape[0], "exact")
    kinds = set()
    for _ in range(60):
        if rng.random() < 0.5 and len(live) > 1:
            keep = np.flatnonzero(rng.random(len(live)) < 0.6)
            if keep.size == 0:
                continue
            stack.retain(keep)
            live = [live[i] for i in keep]
        else:
            new = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 4)))]
            stack.extend(new)
            live += new
        fresh = _SynapseBatch(live, stack.size, "exact")
        kinds.add(fresh._int_kind)
        assert stack._int_kind == fresh._int_kind and stack.integer
        for got, want in zip(stack._gather, fresh._gather):
            np.testing.assert_array_equal(got, want)
        assert stack._raw_out.shape == (len(live), stack.size)
    assert kinds == {"shared", "flat"}

"""The decode at the check inside the native books against the Python decode.

At each check the native books (``izh_books``) decode every row whose
decoder declared a :class:`~repro.runtime.slots.DecodePlan` and that is
not at its budget, and only the rows that solved, spent their budget or
have no plan reach :meth:`SlotDecoder.decode`, one row per call.  The C
verdict must be the Python decode's (``decode_assignment`` +
``ConstraintGraph.is_solution``, row by row) on every window: this
suite plants windows with ties in counts and in recency, rows that
never spiked, clamps on decided and undecided groups, picks with and
without a conflict, and plan-less rows beside planned ones, at widths
1 to 9 with 1 to 81 groups.  Whole solves, portfolio
runs and a solve service must then give the same results on both books
paths, with the same rows finished at every checkpoint.
"""

import asyncio
import contextlib
import functools

import numpy as np
import pytest

from repro.csp import ConstraintGraph, CSPConfig, SpikingCSPSolver, Variable, make_instance
from repro.csp.portfolio import PortfolioConfig, solve_instances_portfolio
from repro.csp.solver import CSP_SLOT_DECODER, decode_assignment, solve_instances
from repro.runtime import native
from repro.runtime.batch import BatchedNetwork
from repro.runtime.slots import DecodePlan, SlotCheckpoint, SlotEngine, SlotRow
from repro.serve import SolveService

STEP_PATHS = ("native", "numpy")


@pytest.fixture
def native_books():
    if native.books() is None:
        pytest.skip("no native step kernel on this host")


@contextlib.contextmanager
def _on_path(path):
    """Slot engines composed inside keep their books on ``path``."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setattr(native, "load", lambda: None)
            patch.setattr(native, "books", lambda: None)
        yield


# ---------------------------------------------------------------------- #
# Planted graphs and windows
# ---------------------------------------------------------------------- #
def _planted(rng, width, groups):
    """A graph of ``groups`` variables over one domain of ``width`` values,
    random conflicts that spare a planted assignment, and that assignment
    (in-group positions)."""
    domain = tuple(range(-1, width - 1))  # a negative value too
    graph = ConstraintGraph([Variable(f"x{i}", domain) for i in range(groups)])
    solution = rng.integers(width, size=groups)
    if groups > 1:
        for _ in range(3 * groups * width):
            a, b = (int(g) for g in rng.choice(groups, size=2, replace=False))
            pa, pb = (int(p) for p in rng.integers(width, size=2))
            if (pa, pb) != (solution[a], solution[b]):
                graph.add_conflict(a, domain[pa], b, domain[pb])
    return graph, solution


def _mixed(rng, width, groups):
    """A graph of the same neuron count whose domains differ: it has no plan."""
    sizes = [width + 1, width - 1] * (groups // 2) + [width] * (groups % 2)
    graph = ConstraintGraph([Variable(f"y{i}", tuple(range(n))) for i, n in enumerate(sizes)])
    for _ in range(groups):
        a, b = (int(g) for g in rng.choice(groups, size=2, replace=False))
        graph.add_not_equal(a, b)
    return graph


def _rival(graph, solution, width, group):
    """A position of ``group`` that conflicts with another group's planted pick, or ``None``."""
    picks = {int(g) * width + int(p) for g, p in enumerate(solution)}
    for position in range(width):
        neuron = group * width + position
        if position != solution[group] and graph._explicit[neuron] & picks:
            return position
    return None


KINDS = ("random", "solution", "solution-ties", "recency-trap", "silent-group",
         "clamp-override", "near-solution", "never-spiked", "ties", "silent")


def _window(rng, kind, graph, solution, width, clamped):
    """``(counts, last_spike)`` of one row, of a given flavour."""
    groups = solution.size
    n = groups * width
    counts = rng.integers(0, 3, n)
    last = np.where(counts > 0, rng.integers(1, 80, n), rng.choice([-1, 0, 5], n))
    picks = np.arange(groups) * width + solution
    free = [g for g in range(groups) if g not in clamped]
    if kind in ("solution", "solution-ties", "recency-trap", "silent-group", "clamp-override",
                "near-solution"):
        counts[picks] = 5
        last[picks] = rng.integers(60, 80, groups)
    if kind == "solution-ties":
        # A later candidate equal to the pick in count and recency: the
        # first index must win.
        for g in range(groups):
            if solution[g] < width - 1:
                later = g * width + int(rng.integers(solution[g] + 1, width))
                counts[later], last[later] = counts[picks[g]], last[picks[g]]
    elif kind == "recency-trap":
        # An earlier candidate one count behind but holding the row's last
        # spike: it loses by its recency term, below 1 only with the + 1.0.
        last[:] = np.minimum(last, 80)
        for g in range(groups):
            if solution[g] > 0:
                earlier = g * width + int(rng.integers(solution[g]))
                counts[earlier], last[earlier] = 4, 90
                last[picks[g]] = 0
    elif kind == "silent-group" and free:
        g = free[int(rng.integers(len(free)))]
        counts[g * width:(g + 1) * width] = 0
        last[picks[g]] = 95  # the latest spike of the row, yet undecided
    elif kind == "clamp-override":
        # The clamps alone decide their groups: silent, or won by another
        # candidate.
        for g in clamped:
            counts[g * width:(g + 1) * width] = 0
            if g % 2 and width > 1:
                counts[g * width + (solution[g] + 1) % width] = 7
    elif kind == "near-solution":
        flips = [g for g in free if _rival(graph, solution, width, g) is not None]
        if flips:
            g = flips[int(rng.integers(len(flips)))]
            counts[g * width + _rival(graph, solution, width, g)] = 9
    elif kind == "never-spiked":
        last[:] = -1
    elif kind == "ties":
        counts[:] = 1
        last[:] = rng.integers(1, 4, n)
    elif kind == "silent":
        counts[:] = 0
        last[:] = -1
    return counts.astype(np.int64), last.astype(np.int64)


def _silent_step(batch, step):
    """Stands in for ``BatchedNetwork.step``: nothing fires, so the books keep the windows."""
    fired = batch._fired
    fired[...] = False
    return fired


def _reference_solved(row, counts, last):
    """The verdict of ``decode_assignment`` + ``is_solution`` on one row's window."""
    values, decided = decode_assignment(row.graph, counts, last, row.clamps)
    return row.graph.is_solution(values, decided)


# ---------------------------------------------------------------------- #
# (a) The C verdict against the Python decode, row by row
# ---------------------------------------------------------------------- #
CONFIGS = [(1, 1), (1, 7), (2, 1), (2, 9), (3, 12), (3, 81), (4, 5), (5, 20),
           (6, 2), (7, 13), (8, 30), (9, 1), (9, 9), (9, 81)]


@pytest.mark.usefixtures("native_books")
class TestVerdictDifferential:
    @pytest.mark.parametrize("width,groups", CONFIGS, ids=lambda v: str(v))
    def test_the_c_verdict_is_the_python_decode_s(self, monkeypatch, width, groups):
        monkeypatch.setattr(BatchedNetwork, "step", _silent_step)
        rng = np.random.default_rng([width, groups])
        config = CSPConfig()
        rows, windows = [], []
        for r in range(4):
            graph, solution = _planted(rng, width, groups)
            if r == 3 and width > 1 and groups > 1:
                graph, solution = _mixed(rng, width, groups), solution  # plan-less
            clamped = sorted(int(g) for g in rng.choice(groups, size=groups // 3, replace=False))
            values = [graph.variables[g].domain[min(int(solution[g]),
                                                    len(graph.variables[g].domain) - 1)]
                      for g in clamped]
            clamps = graph.resolve_clamps(dict(zip(clamped, values)))
            row = SlotRow(graph=graph, clamps=clamps, budget=10_000)
            rows.append((row, SpikingCSPSolver(graph, config, seed=r).row(clamps)))
            windows.append((graph, solution, set(clamped)))
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=5, check_interval=1)
        engine.admit(rows)
        assert engine._native_books is not None
        planned = [row.plan is not None for row, _ in rows]
        assert planned[:3] == [True] * 3
        settled = solved = 0
        for trial in range(12 * len(KINDS)):
            kinds = [KINDS[(trial + r) % len(KINDS)] for r in range(len(rows))]
            for r, (kind, (graph, solution, clamped)) in enumerate(zip(kinds, windows)):
                counts, last = _window(rng, kind, graph, solution, width, clamped)
                engine._window_counts[r], engine._last_spike[r] = counts, last
            checkpoint = engine.step()
            verdict = engine._verdict
            for r, (row, _) in enumerate(rows):
                where = f"row {r}, {kinds[r]}"
                if row.plan is None:
                    assert verdict[r] == -1, where
                    assert checkpoint.to_decode[r], where
                    continue
                expected = _reference_solved(row, engine._window_counts[r],
                                             engine._last_spike[r])
                assert verdict[r] == int(expected), where
                assert checkpoint.to_decode[r] == expected, where
                settled += not expected
                solved += expected
            # Every row decodes in Python too, which raises on a verdict
            # it contradicts.
            for r in range(len(rows)):
                engine.decode_row(r)
        assert settled and solved


@pytest.mark.usefixtures("native_books")
class TestDecoderContract:
    def _engine(self, monkeypatch, decoder):
        monkeypatch.setattr(BatchedNetwork, "step", _silent_step)
        graph, solution = _planted(np.random.default_rng(3), 3, 6)
        row = SlotRow(graph=graph, clamps=graph.resolve_clamps({}), budget=100)
        engine = SlotEngine(decoder=decoder, window=5, check_interval=1)
        engine.admit([(row, SpikingCSPSolver(graph, CSPConfig(), seed=1).row([]))])
        counts = np.zeros(graph.num_neurons, dtype=np.int64)
        counts[np.arange(6) * 3 + solution] = 2
        engine._window_counts[0] = counts
        return engine

    def test_a_decode_that_contradicts_the_books_raises(self, monkeypatch):
        class Dissenting:
            plan = staticmethod(CSP_SLOT_DECODER.plan)

            def decode(self, row, window_counts, last_spike):
                d = CSP_SLOT_DECODER.decode(row, window_counts, last_spike)
                return type(d)(d.values, d.decided, not d.solved)

        engine = self._engine(monkeypatch, Dissenting())
        checkpoint = engine.step()
        assert engine._verdict[0] == 1 and checkpoint.to_decode[0]
        with pytest.raises(RuntimeError, match="solved"):
            checkpoint.finished

    def test_a_decoder_without_plans_decodes_every_at_check_row(self, monkeypatch):
        class Planless:
            def plan(self, row):
                return None

            decode = staticmethod(CSP_SLOT_DECODER.decode)

        engine = self._engine(monkeypatch, Planless())
        checkpoint = engine.step()
        assert engine._verdict[0] == -1 and checkpoint.to_decode[0]
        assert checkpoint.finished[0].decode.solved


class TestPlanChecks:
    def _plan(self, **changes):
        targets = np.array([1, 0], dtype=np.int64)
        indptr = np.array([0, 1, 2, 2, 2], dtype=np.int64)
        fields = dict(width=2, clamps=np.array([[1], [0]]), targets=targets, indptr=indptr)
        fields.update(changes)
        return DecodePlan(**fields)

    def test_a_well_formed_plan_is_kept_as_int64(self):
        plan = self._plan(clamps=[[1], [1]])
        assert plan.size == 4 and plan.clamps.dtype == np.int64
        assert plan.clamps.flags.c_contiguous

    @pytest.mark.parametrize("changes", [
        dict(width=0), dict(width=3),
        dict(targets=np.array([1, 4])), dict(targets=np.array([1, -1])),
        dict(indptr=np.array([0, 1, 3, 2, 2])), dict(indptr=np.array([1, 1, 2, 2, 2])),
        dict(clamps=np.array([[2], [0]])), dict(clamps=np.array([[0], [2]])),
        dict(clamps=np.array([[-1], [0]])), dict(clamps=np.array([1, 0])),
    ], ids=lambda c: ",".join(f"{k}={np.asarray(v).tolist()}" for k, v in c.items()))
    def test_a_malformed_plan_is_refused(self, changes):
        with pytest.raises(ValueError):
            self._plan(**changes)

    def test_a_plan_of_another_size_refuses_the_admission(self, step_path):
        graph, clamps = make_instance("coloring", seed=1, num_vertices=8, num_colors=3)
        other, _ = make_instance("coloring", seed=1, num_vertices=12, num_colors=3)

        class Misplanned:
            def plan(self, row):
                return CSP_SLOT_DECODER.plan(SlotRow(other, [], budget=1))

            decode = staticmethod(CSP_SLOT_DECODER.decode)

        engine = SlotEngine(decoder=Misplanned(), window=5, check_interval=10)
        row = SlotRow(graph=graph, clamps=graph.resolve_clamps(clamps), budget=100)
        with pytest.raises(ValueError, match="plan"):
            engine.admit([(row, SpikingCSPSolver(graph, seed=1).row(clamps))])
        assert engine.num_rows == 0 and engine._batch is None and row.plan is None


# ---------------------------------------------------------------------- #
# (b) Whole runs on both books paths
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def _recording_finished(log):
    """Records ``(step, finished rows, their verdicts)`` at every checkpoint."""
    original = SlotCheckpoint.__dict__["finished"].func

    def finished(self):
        out = original(self)
        log.append((self.step, sorted(out), [out[i].decode.solved for i in sorted(out)]))
        return out

    recording = functools.cached_property(finished)
    recording.__set_name__(SlotCheckpoint, "finished")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SlotCheckpoint, "finished", recording)
        yield


def _on_both_paths(run):
    """``run()``'s result and its checkpoints' finished rows on each books path."""
    out = {}
    for path in STEP_PATHS:
        log = []
        with _on_path(path), _recording_finished(log):
            out[path] = (run(), log)
    return out


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert (x.solved, x.steps, x.total_spikes, x.neuron_updates, x.attempts,
                x.attempt_steps) == (y.solved, y.steps, y.total_spikes, y.neuron_updates,
                                     y.attempts, y.attempt_steps), f"instance {i}"
        np.testing.assert_array_equal(x.values, y.values, err_msg=f"instance {i}")
        np.testing.assert_array_equal(x.decided, y.decided, err_msg=f"instance {i}")


def _coloring(count, num_vertices=12):
    return [make_instance("coloring", seed=s, num_vertices=num_vertices, num_colors=3)
            for s in range(count)]


@pytest.mark.usefixtures("native_books")
class TestBothBooksPaths:
    def _same(self, run):
        runs = _on_both_paths(run)
        (mine, my_log), (reference, reference_log) = runs["native"], runs["numpy"]
        _assert_same_results(mine, reference)
        assert my_log == reference_log
        assert any(rows for _, rows, _ in reference_log)
        return mine

    def test_coloring_solves(self):
        instances = _coloring(10)
        results = self._same(lambda: solve_instances(instances, seed=3, max_steps=300))
        assert 0 < sum(r.solved for r in results) < len(results)

    def test_sudoku_solves(self):
        instances = [make_instance("sudoku", seed=s, target_clues=45) for s in range(3)]
        self._same(lambda: solve_instances(instances, seed=1, max_steps=250))

    def test_portfolio_runs(self):
        instances = _coloring(6)
        portfolio = PortfolioConfig(base_budget=60, max_parallel=2)
        self._same(lambda: solve_instances_portfolio(
            instances, portfolio=portfolio, seeds=list(range(6)), max_steps=400, slots=4))

    def test_service_runs(self):
        instances = _coloring(8)

        def serve():
            async def main():
                async with SolveService(capacity=3, clock="steps") as service:
                    # Bounded: a scheduler that raises leaves its waiters pending.
                    served = await asyncio.wait_for(
                        service.submit_many(instances, seeds=list(range(8)), max_steps=300), 30.0)
                return [s.result for s in served]

            return asyncio.run(main())

        self._same(serve)

    def test_rows_of_differing_domains_decode_in_python(self, monkeypatch):
        rng = np.random.default_rng(4)
        graph = _mixed(rng, 3, 12)
        engine = SlotEngine(decoder=CSP_SLOT_DECODER, window=20, check_interval=10)
        engine.admit([(SlotRow(graph=graph, clamps=graph.resolve_clamps({}), budget=100),
                       SpikingCSPSolver(graph, seed=s).row([])) for s in range(3)])
        assert [row.plan for row in engine.rows] == [None] * 3
        for _ in range(30):
            checkpoint = engine.step()
            if checkpoint is not None:
                np.testing.assert_array_equal(checkpoint.to_decode, checkpoint.at_check)
                assert (engine._verdict == -1).all()
                checkpoint.finished


# ---------------------------------------------------------------------- #
# (c) One Python decode per instance
# ---------------------------------------------------------------------- #
@pytest.mark.usefixtures("native_books")
def test_a_sudoku_batch_decodes_one_row_per_instance_in_python(monkeypatch):
    decoded = []
    original = type(CSP_SLOT_DECODER).decode

    def counting(self, row, window_counts, last_spike):
        decoded.append(id(row))
        return original(self, row, window_counts, last_spike)

    monkeypatch.setattr(type(CSP_SLOT_DECODER), "decode", counting)
    instances = [make_instance("sudoku", seed=s, target_clues=40) for s in range(32)]
    results = solve_instances(instances, seed=2, max_steps=200)
    assert len(decoded) == len(set(decoded)) == 32
    assert 0 < sum(r.solved for r in results) < 32  # both kinds of finish

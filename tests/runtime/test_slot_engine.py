"""Cross-policy differential suite for the shared slot engine.

The :class:`~repro.runtime.slots.SlotEngine` contract: *no interleaving
of retire/admit decisions can perturb a surviving row*.  Whatever policy
drives the checkpoints — the one-shot solver batches, the restart
portfolio, the serve scheduler, or the adversarial chaos policy below —
every row that runs to solution or budget must be bit-identical to a
standalone ``SpikingCSPSolver(graph, cfg, seed).solve(clamps,
max_steps=budget, check_interval=...)`` run: same solved flag, step
count, decoded board and spike totals.

The chaos policy randomises everything a policy controls (retirement of
healthy rows mid-flight, admission timing, per-row budgets) from a seeded
RNG, so the suite sweeps arbitrary recomposition interleavings while
staying reproducible.  The durable suite holds a resumed engine to the
same contract: a run killed mid-way and resumed from its checkpoint
store finishes every row exactly as the uninterrupted run does.
"""

import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.csp import SpikingCSPSolver, make_instance
from repro.csp.config import CSPConfig
from repro.csp.solver import CSP_SLOT_DECODER, decode_assignment, solve_instances
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime import native
from repro.runtime.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointStore,
    CheckpointVersionError,
)
from repro.runtime.slots import (
    OneShotPolicy,
    SlotDecision,
    SlotEngine,
    SlotRow,
)

CHECK_INTERVAL = 10


@dataclass(frozen=True)
class _Job:
    """One admission's identity: an instance run under a seed and budget."""

    name: str
    seed: int
    budget: int

    def make(self):
        graph, clamps = make_instance(
            "coloring", seed=self.seed, num_vertices=8, num_colors=3
        )
        return graph, graph.resolve_clamps(clamps)


@dataclass
class _Finished:
    local_steps: int
    spikes: int
    solved: bool
    values: np.ndarray
    decided: np.ndarray


def _standalone(job: _Job, config: CSPConfig):
    graph, clamps = job.make()
    solver = SpikingCSPSolver(graph, config, backend="fixed", seed=job.seed)
    return solver.solve(clamps, max_steps=job.budget, check_interval=CHECK_INTERVAL)


class _ChaosPolicy:
    """Adversarial scheduling: random victimisation and refill timing.

    Rows that reach a verdict (solved, or local budget exhausted) are
    recorded in :attr:`finished`; healthy rows are randomly dropped
    mid-flight (the victims — nothing is recorded, the point is the harm
    they *don't* do to their neighbours); freed capacity is refilled
    from the job queue at RNG-chosen checkpoints.
    """

    def __init__(self, jobs: List[_Job], *, config: CSPConfig, slots: int, rng: random.Random):
        self._queue = deque(jobs)
        self._config = config
        self._slots = slots
        self._rng = rng
        self.finished = {}
        self.victims: List[_Job] = []

    def _admit_one(self):
        job = self._queue.popleft()
        graph, clamps = job.make()
        solver = SpikingCSPSolver(graph, self._config, backend="fixed", seed=job.seed)
        row = SlotRow(graph=graph, clamps=clamps, budget=job.budget, payload=job)
        return row, solver.build_network(clamps)

    def initial_admissions(self, engine):
        return [self._admit_one() for _ in range(min(self._slots, len(self._queue)))]

    def on_checkpoint(self, checkpoint):
        engine = checkpoint.engine
        keep = []
        for i, row in enumerate(engine.rows):
            if checkpoint.at_check[i]:
                decode = engine.decode_row(i)
                if decode.solved or checkpoint.at_budget[i]:
                    self.finished[row.payload] = _Finished(
                        local_steps=int(checkpoint.local[i]),
                        spikes=int(engine.row_spikes[i]),
                        solved=decode.solved,
                        values=decode.values,
                        decided=decode.decided,
                    )
                    continue
            if self._rng.random() < 0.15:
                self.victims.append(row.payload)
                continue
            keep.append(i)
        free = self._slots - len(keep)
        admissions = []
        while free > 0 and self._queue and self._rng.random() < 0.7:
            admissions.append(self._admit_one())
            free -= 1
        return SlotDecision(keep=keep, admissions=admissions)


class _RefillPolicy:
    """Deterministic refilling: rows retire at their verdict, the queue refills.

    A durable policy: a row's token is its job and the state is the
    queue position plus the finished rows.
    """

    def __init__(self, jobs: List[_Job], *, config: CSPConfig, slots: int):
        self._jobs = list(jobs)
        self._config = config
        self._slots = slots
        self._next = 0
        self.finished = {}
        self.restored = False

    def _build(self, job):
        graph, clamps = job.make()
        solver = SpikingCSPSolver(graph, self._config, backend="fixed", seed=job.seed)
        row = SlotRow(graph=graph, clamps=clamps, budget=job.budget, payload=job)
        return row, solver.build_network(clamps)

    def _admit(self, count):
        admissions = []
        while len(admissions) < count and self._next < len(self._jobs):
            admissions.append(self._build(self._jobs[self._next]))
            self._next += 1
        return admissions

    def initial_admissions(self, engine):
        return self._admit(self._slots)

    def on_checkpoint(self, checkpoint):
        engine = checkpoint.engine
        keep = []
        for i, row in enumerate(engine.rows):
            if checkpoint.at_check[i]:
                decode = engine.decode_row(i)
                if decode.solved or checkpoint.at_budget[i]:
                    self.finished[row.payload] = _Finished(
                        local_steps=int(checkpoint.local[i]),
                        spikes=int(engine.row_spikes[i]),
                        solved=decode.solved,
                        values=decode.values,
                        decided=decode.decided,
                    )
                    continue
            keep.append(i)
        return SlotDecision(keep=keep, admissions=self._admit(self._slots - len(keep)))

    def describe(self, row):
        return row.payload

    def rebuild(self, job):
        _, network = self._build(job)
        return job, network

    def export_state(self):
        return {"next": self._next, "finished": dict(self.finished)}

    def restore_state(self, state):
        self._next = state["next"]
        self.finished = dict(state["finished"])
        self.restored = True


class TestChaosDifferential:
    @pytest.mark.parametrize("chaos_seed", [11, 23, 47])
    def test_survivors_bit_identical_to_standalone(self, chaos_seed):
        rng = random.Random(chaos_seed)
        config = CSPConfig()
        jobs = [
            _Job(name=f"job{i}", seed=100 + i, budget=rng.choice([60, 90, 140, 200]))
            for i in range(10)
        ]
        policy = _ChaosPolicy(jobs, config=config, slots=4, rng=rng)
        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, config.decode_window),
            check_interval=CHECK_INTERVAL,
        )
        engine.run(policy, max_steps=4000)

        # The run must have exercised the interesting interleavings:
        # mid-flight victims, late admissions, and natural completions.
        assert policy.finished, "no row ran to a verdict"
        assert policy.victims, "chaos never victimised a row"
        late = [job for job in policy.finished if policy.finished[job].local_steps > 0]
        assert late

        for job, outcome in policy.finished.items():
            reference = _standalone(job, config)
            assert outcome.solved == reference.solved, job
            assert outcome.local_steps == reference.steps, job
            assert outcome.spikes == reference.total_spikes, job
            np.testing.assert_array_equal(outcome.values, reference.values)
            np.testing.assert_array_equal(outcome.decided, reference.decided)

    def test_staggered_admissions_have_nonzero_offsets(self):
        rng = random.Random(3)
        config = CSPConfig()
        jobs = [
            _Job(name=f"job{i}", seed=500 + i, budget=rng.choice([60, 120]))
            for i in range(8)
        ]
        policy = _ChaosPolicy(jobs, config=config, slots=2, rng=rng)
        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, config.decode_window),
            check_interval=CHECK_INTERVAL,
        )
        offsets = []
        original = policy._admit_one

        def tracking_admit():
            row, network = original()
            offsets.append(row)
            return row, network

        policy._admit_one = tracking_admit
        engine.run(policy, max_steps=4000)
        # Rows admitted at a later checkpoint carry that global step as
        # their offset (stamped by the engine, not the policy).
        assert any(row.offset > 0 for row in offsets)


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestChaosDifferentialOnNumPyStep(TestChaosDifferential):
    """The same cases on the NumPy step."""


class TestRetirementRule:
    @pytest.mark.parametrize("chaos_seed", [11, 23, 47])
    def test_finished_holds_exactly_the_rows_a_policy_retires(self, chaos_seed):
        """``SlotCheckpoint.finished`` against the chaos policy's own rule."""
        rng = random.Random(chaos_seed)
        config = CSPConfig()
        jobs = [
            _Job(name=f"job{i}", seed=100 + i, budget=rng.choice([60, 90, 140, 200]))
            for i in range(10)
        ]
        policy = _ChaosPolicy(jobs, config=config, slots=4, rng=rng)
        decide = policy.on_checkpoint
        retirements = []

        def checked(checkpoint):
            by_job = {checkpoint.rows[i].payload: o for i, o in checkpoint.finished.items()}
            before = set(policy.finished)
            decision = decide(checkpoint)
            retired = {job: policy.finished[job] for job in set(policy.finished) - before}
            assert set(by_job) == set(retired), checkpoint.step
            for job, outcome in by_job.items():
                expected = retired[job]
                assert outcome.row.payload == job
                assert outcome.local_steps == expected.local_steps
                assert outcome.spikes == expected.spikes
                assert outcome.decode.solved == expected.solved
                np.testing.assert_array_equal(outcome.decode.values, expected.values)
                np.testing.assert_array_equal(outcome.decode.decided, expected.decided)
            retirements.append(len(retired))
            return decision

        policy.on_checkpoint = checked
        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, config.decode_window),
            check_interval=CHECK_INTERVAL,
        )
        engine.run(policy, max_steps=4000)
        assert sum(retirements) == len(policy.finished) > 0
        assert 0 in retirements  # some checkpoints retire nothing


class TestDurableResume:
    def test_resumed_refilling_run_matches_uninterrupted_and_standalone(self, tmp_path):
        config = CSPConfig()
        rng = random.Random(5)
        jobs = [
            _Job(name=f"job{i}", seed=300 + i, budget=rng.choice([60, 90, 140]))
            for i in range(8)
        ]

        def make_engine(store=None):
            return SlotEngine(
                decoder=CSP_SLOT_DECODER,
                window=max(1, config.decode_window),
                check_interval=CHECK_INTERVAL,
                store=store,
                checkpoint_every=30,
            )

        uninterrupted = _RefillPolicy(jobs, config=config, slots=3)
        make_engine().run(uninterrupted, max_steps=4000)

        # Run part way, snapshotting every 30 steps, then drop everything.
        engine = make_engine(CheckpointStore(tmp_path, kind="slots"))
        policy = _RefillPolicy(jobs, config=config, slots=3)
        engine.admit(policy.initial_admissions(engine))
        for _ in range(100):
            engine.advance(policy)
        del engine, policy

        store = CheckpointStore(tmp_path, kind="slots")
        step, snapshot = store.load_latest()
        assert step == 90
        # The snapshot holds rows admitted mid-run (non-zero offsets).
        assert any(row["offset"] > 0 for row in snapshot["engine"]["rows"])

        resumed = _RefillPolicy(jobs, config=config, slots=3)
        make_engine(store).run(resumed, max_steps=4000)
        assert resumed.restored
        assert set(resumed.finished) == set(uninterrupted.finished) == set(jobs)
        for job in jobs:
            got, ref = resumed.finished[job], uninterrupted.finished[job]
            standalone = _standalone(job, config)
            verdict = (got.solved, got.local_steps, got.spikes)
            assert verdict == (ref.solved, ref.local_steps, ref.spikes), job
            assert verdict == (standalone.solved, standalone.steps, standalone.total_spikes), job
            for expected in (ref, standalone):
                np.testing.assert_array_equal(got.values, expected.values)
                np.testing.assert_array_equal(got.decided, expected.decided)

    def test_snapshot_of_an_older_format_is_skipped_and_the_solve_starts_fresh(
        self, tmp_path, monkeypatch
    ):
        instances = [
            make_instance("coloring", seed=i, num_vertices=9, num_colors=3) for i in range(3)
        ]
        kwargs = dict(seed=5, max_steps=300, check_interval=CHECK_INTERVAL, checkpoint_every=50)
        solve_instances(instances, **kwargs, checkpoint_dir=tmp_path)
        *older, newest = sorted(tmp_path.glob("*.ckpt"))
        for path in older:
            path.unlink()
        blob = bytearray(newest.read_bytes())
        # The previous format version.
        struct.pack_into("<I", blob, len(CHECKPOINT_MAGIC), CHECKPOINT_VERSION - 1)
        newest.write_bytes(bytes(blob))

        stores = []

        class RecordingStore(CheckpointStore):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                stores.append(self)

        monkeypatch.setattr(checkpoint_module, "CheckpointStore", RecordingStore)
        results = solve_instances(instances, **kwargs, checkpoint_dir=tmp_path)
        [store] = stores
        assert [type(error) for _, error in store.failures] == [CheckpointVersionError]

        baseline = solve_instances(instances, **kwargs)
        for got, ref in zip(results, baseline):
            assert (got.solved, got.steps, got.total_spikes, got.neuron_updates) == (
                ref.solved,
                ref.steps,
                ref.total_spikes,
                ref.neuron_updates,
            )
            np.testing.assert_array_equal(got.values, ref.values)
            np.testing.assert_array_equal(got.decided, ref.decided)

    @pytest.mark.parametrize(
        "key, axis",
        [("history", 1), ("window_counts", 0), ("last_spike", 0), ("row_spikes", 0)],
    )
    def test_books_that_disagree_with_the_rows_refuse_to_restore(self, key, axis):
        config = CSPConfig()

        def make_engine():
            return SlotEngine(
                decoder=CSP_SLOT_DECODER,
                window=max(1, config.decode_window),
                check_interval=CHECK_INTERVAL,
            )

        jobs = [_Job(name=f"job{i}", seed=300 + i, budget=60) for i in range(3)]
        policy = _RefillPolicy(jobs, config=config, slots=3)
        engine = make_engine()
        engine.admit(policy.initial_admissions(engine))
        for _ in range(5):
            engine.advance(policy)
        tokens = [policy.describe(row) for row in engine.rows]
        state = engine.export_state(tokens)
        state[key] = np.delete(state[key], 0, axis=axis)  # one row short

        restored = make_engine()
        with pytest.raises(ValueError, match="disagree with the row set"):
            restored.restore_state(state, [policy.rebuild(token) for token in tokens])
        assert restored.num_rows == 0


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestDurableResumeOnNumPyStep(TestDurableResume):
    """The same cases on the NumPy step."""


class TestOneShotPolicy:
    def test_matches_sequential_solves(self):
        config = CSPConfig()
        jobs = [_Job(name=f"job{i}", seed=40 + i, budget=900) for i in range(5)]
        admissions = []
        for job in jobs:
            graph, clamps = job.make()
            solver = SpikingCSPSolver(graph, config, backend="fixed", seed=job.seed)
            row = SlotRow(graph=graph, clamps=clamps, budget=job.budget, payload=job)
            admissions.append((row, solver.build_network(clamps)))
        policy = OneShotPolicy(admissions)
        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, config.decode_window),
            check_interval=CHECK_INTERVAL,
        )
        engine.run(policy, max_steps=900)
        assert len(policy.outcomes) == len(jobs)
        by_job = {outcome.row.payload: outcome for outcome in policy.outcomes}
        for job in jobs:
            outcome = by_job[job]
            reference = _standalone(job, config)
            assert outcome.decode.solved == reference.solved
            assert outcome.local_steps == reference.steps
            assert outcome.spikes == reference.total_spikes
            np.testing.assert_array_equal(outcome.decode.values, reference.values)


@pytest.mark.usefixtures("step_path")
@pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
class TestOneShotPolicyOnNumPyStep(TestOneShotPolicy):
    """The same cases on the NumPy step."""


class TestSnapshotAcrossStepPaths:
    """A snapshot saved on one step path resumes bit-identically on the other.

    Both paths carry the same state arrays and the same books, and a
    supervised serve child may restart on a host without a C compiler.
    """

    @pytest.mark.parametrize("saved_on", ["native", "numpy"])
    def test_resume_on_the_other_path_matches_uninterrupted(self, tmp_path, monkeypatch, saved_on):
        kernel, books = native.load(), native.books()
        if kernel is None:
            pytest.skip("no native step kernel on this host")
        native_steps = []

        def counted(*args):
            native_steps.append(1)
            return kernel(*args)

        def use(path):
            monkeypatch.setattr(native, "load", lambda: counted if path == "native" else None)
            monkeypatch.setattr(native, "books", lambda: books if path == "native" else None)

        config = CSPConfig()
        jobs = [_Job(name=f"job{i}", seed=500 + i, budget=(60, 90, 140)[i % 3]) for i in range(6)]

        def make_engine(store=None):
            return SlotEngine(
                decoder=CSP_SLOT_DECODER,
                window=config.decode_window,
                check_interval=CHECK_INTERVAL,
                store=store,
                checkpoint_every=30,
            )

        uninterrupted = _RefillPolicy(jobs, config=config, slots=3)
        make_engine().run(uninterrupted, max_steps=4000)

        use(saved_on)
        engine = make_engine(CheckpointStore(tmp_path, kind="slots"))
        policy = _RefillPolicy(jobs, config=config, slots=3)
        engine.admit(policy.initial_admissions(engine))
        assert (engine._native_books is not None) == (saved_on == "native")
        for _ in range(100):
            engine.advance(policy)
        assert bool(native_steps) == (saved_on == "native")
        del engine, policy, native_steps[:]

        resumed_on = "numpy" if saved_on == "native" else "native"
        use(resumed_on)
        resumed = _RefillPolicy(jobs, config=config, slots=3)
        engine = make_engine(CheckpointStore(tmp_path, kind="slots"))
        engine.run(resumed, max_steps=4000)
        assert resumed.restored
        assert bool(native_steps) == (resumed_on == "native")
        assert set(resumed.finished) == set(uninterrupted.finished) == set(jobs)
        for job in jobs:
            got, ref = resumed.finished[job], uninterrupted.finished[job]
            assert (got.solved, got.local_steps, got.spikes) == (
                ref.solved, ref.local_steps, ref.spikes
            ), job
            np.testing.assert_array_equal(got.values, ref.values)


class TestZeroStepGuards:
    def test_zero_budget_never_builds_a_batch(self, monkeypatch):
        """max_steps <= 0 must not admit rows or allocate a batch."""

        def boom(*args, **kwargs):  # pragma: no cover - guard breach
            raise AssertionError("BatchedNetwork built for a zero-step run")

        import repro.runtime.slots as slots_module

        monkeypatch.setattr(slots_module.BatchedNetwork, "from_networks", boom)

        calls = []

        class CountingPolicy:
            def initial_admissions(self, engine):  # pragma: no cover - guard breach
                calls.append("admit")
                return []

            def on_checkpoint(self, checkpoint):  # pragma: no cover - guard breach
                calls.append("checkpoint")
                return SlotDecision(keep=[])

        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER, window=4, check_interval=CHECK_INTERVAL
        )
        engine.run(CountingPolicy(), max_steps=0)
        engine.run(CountingPolicy(), max_steps=-3)
        assert calls == []
        assert engine.num_rows == 0
        assert engine.global_step == 0

    def test_empty_window_decodes_clamps_only(self):
        graph, clamps = make_instance("coloring", seed=9, num_vertices=6, num_colors=3)
        resolved = graph.resolve_clamps(clamps)
        window_counts, last_spike = SlotEngine.empty_window(graph.num_neurons)
        values, decided = decode_assignment(graph, window_counts, last_spike, resolved)
        clamped = {variable for variable, _, _ in resolved}
        for variable in range(graph.num_variables):
            assert decided[variable] == (variable in clamped)


class TestRecomposeEdges:
    def _engine_with_rows(self, count=3):
        config = CSPConfig()
        engine = SlotEngine(
            decoder=CSP_SLOT_DECODER,
            window=max(1, config.decode_window),
            check_interval=CHECK_INTERVAL,
        )
        admissions = []
        for i in range(count):
            job = _Job(name=f"row{i}", seed=70 + i, budget=300)
            graph, clamps = job.make()
            solver = SpikingCSPSolver(graph, config, backend="fixed", seed=job.seed)
            row = SlotRow(graph=graph, clamps=clamps, budget=job.budget, payload=job)
            admissions.append((row, solver.build_network(clamps)))
        engine.admit(admissions)
        return engine

    def test_keep_all_without_admissions_is_a_no_op(self):
        engine = self._engine_with_rows()
        batch_before = engine._batch
        rows_before = list(engine.rows)
        engine.recompose([0, 1, 2], [])
        assert engine._batch is batch_before
        assert engine.rows == rows_before

    def test_empty_recompose_tears_down(self):
        engine = self._engine_with_rows()
        engine.recompose([], [])
        assert engine.num_rows == 0
        assert engine._batch is None

    def test_fast_forward_refuses_live_rows(self):
        engine = self._engine_with_rows()
        with pytest.raises(RuntimeError):
            engine.fast_forward(50)
        engine.recompose([], [])
        engine.fast_forward(50)
        assert engine.global_step == 50
        engine.fast_forward(20)  # never rewinds
        assert engine.global_step == 50

    @pytest.mark.parametrize(
        "keep, admit, error",
        [
            ([2, 1, 0], True, ValueError),
            ([2, 1, 0], False, ValueError),
            ([0, 0, 1], False, ValueError),
            ([0, 0, 1], True, ValueError),
            ([0, 5, 1], False, IndexError),
            ([-1, 1], True, IndexError),
        ],
    )
    def test_malformed_keep_raises_before_mutating(self, keep, admit, error, assert_same_snapshot):
        engine, twin = self._engine_with_rows(), self._engine_with_rows()
        for _ in range(7):
            engine.step()
            twin.step()
        rows, payloads = list(engine.rows), [row.payload for row in engine.rows]
        batch, state = engine._batch, engine._batch.export_state()
        admissions = []
        if admit:
            job = _Job(name="late", seed=99, budget=300)
            graph, clamps = job.make()
            solver = SpikingCSPSolver(graph, CSPConfig(), seed=job.seed)
            row = SlotRow(graph=graph, clamps=clamps, budget=job.budget, payload=job)
            admissions.append((row, solver.row(clamps)))
        with pytest.raises(error):
            engine.recompose(keep, admissions)
        assert engine.rows == rows and [row.payload for row in engine.rows] == payloads
        assert engine._batch is batch and batch.batch_size == 3
        assert_same_snapshot(batch.export_state(), state)
        # The engine still steps, exactly as if the call never happened.
        for _ in range(30):
            engine.step()
            twin.step()
        np.testing.assert_array_equal(engine._window_counts, twin._window_counts)
        np.testing.assert_array_equal(engine._last_spike, twin._last_spike)
        np.testing.assert_array_equal(engine.row_spikes, twin.row_spikes)

"""Determinism and ordering guarantees of the SweepExecutor."""

import warnings as warnings_mod

import numpy as np
import pytest

from repro.runtime import SweepExecutor, SweepSpec, SweepTask, derive_task_seed


def _echo_task(task: SweepTask):
    """Module-level (picklable) task: derived seed drives an RNG draw."""
    rng = np.random.default_rng(task.seed)
    return {
        "index": task.index,
        "seed": task.seed,
        "value": float(rng.uniform()),
        "params": dict(task.params),
    }


def _functional_window_task(task: SweepTask):
    """ISA-level task: run a tiny generated workload on the functional ISS."""
    from repro.codegen import build_eighty_twenty_workload

    workload = build_eighty_twenty_workload(
        num_neurons=int(task.params["num_neurons"]),
        num_steps=int(task.params["num_steps"]),
        kind="extension",
        seed=task.seed % (2**31),
    )
    fsim = workload.make_simulator()
    fsim.run()
    return {"instret": fsim.instret, "spikes": workload.total_spikes(fsim)}


class TestSeedDerivation:
    def test_derived_seeds_are_deterministic(self):
        assert derive_task_seed(42, 0) == derive_task_seed(42, 0)
        assert derive_task_seed(42, 0) != derive_task_seed(42, 1)
        assert derive_task_seed(42, 0) != derive_task_seed(43, 0)

    def test_tasks_carry_derived_seeds(self):
        tasks = SweepExecutor.make_tasks([{"x": 1}, {"x": 2}], base_seed=9)
        assert [t.index for t in tasks] == [0, 1]
        assert tasks[0].seed == derive_task_seed(9, 0)
        assert tasks[1].seed == derive_task_seed(9, 1)
        assert tasks[1].params == {"x": 2}

    def test_spec_tasks_match_make_tasks(self):
        spec = SweepSpec(fn=_echo_task, param_sets=[{"x": 1}, {"x": 2}], base_seed=9)
        assert spec.tasks() == SweepExecutor.make_tasks([{"x": 1}, {"x": 2}], base_seed=9)


class TestSweepSpecValidation:
    def test_requires_exactly_one_of_param_sets_and_seeds(self):
        with pytest.raises(ValueError):
            SweepSpec(fn=_echo_task)
        with pytest.raises(ValueError):
            SweepSpec(fn=_echo_task, param_sets=[{}], seeds=[1])

    def test_rejects_non_callable_fn(self):
        with pytest.raises(TypeError):
            SweepSpec(fn="not-a-function", param_sets=[{}])

    def test_rejects_bad_chunking(self):
        with pytest.raises(ValueError):
            SweepSpec(fn=_echo_task, param_sets=[{}], chunk_size=0)
        with pytest.raises(ValueError):
            SweepSpec(fn=_echo_task, param_sets=[{}], lease_timeout=0.0)

    def test_seed_form_puts_seed_only_in_task_seed(self):
        spec = SweepSpec(fn=_echo_task, seeds=[100, 200], extra={"tag": "s"})
        tasks = spec.tasks()
        assert [t.seed for t in tasks] == [100, 200]
        assert all(t.params == {"tag": "s"} for t in tasks)
        assert all("seed" not in t.params for t in tasks)


class TestExecutionModes:
    PARAMS = [{"name": f"task-{i}"} for i in range(5)]

    def _spec(self, **kwargs):
        kwargs.setdefault("fn", _echo_task)
        kwargs.setdefault("param_sets", self.PARAMS)
        kwargs.setdefault("base_seed", 3)
        return SweepSpec(**kwargs)

    def test_serial_results_in_task_order(self):
        report = SweepExecutor().execute(self._spec())
        assert report.mode == "serial"
        assert [r["index"] for r in report.results] == list(range(5))
        assert [r["params"]["name"] for r in report.results] == [
            p["name"] for p in self.PARAMS
        ]

    def test_serial_is_repeatable(self):
        first = SweepExecutor().execute(self._spec())
        second = SweepExecutor().execute(self._spec())
        assert first.results == second.results

    def test_process_pool_matches_serial(self):
        serial = SweepExecutor().execute(self._spec())
        pooled = SweepExecutor(mode="process", max_workers=2).execute(self._spec())
        assert pooled.results == serial.results
        assert pooled.mode == "process"

    def test_functional_sweep_deterministic_across_modes(self):
        params = [{"num_neurons": 8, "num_steps": 1}, {"num_neurons": 12, "num_steps": 1}]
        spec = SweepSpec(fn=_functional_window_task, param_sets=params, base_seed=17)
        serial = SweepExecutor().execute(spec)
        pooled = SweepExecutor(mode="process", max_workers=2).execute(spec)
        assert pooled.results == serial.results
        assert all(r["instret"] > 0 for r in serial.results)

    def test_empty_sweep(self):
        report = SweepExecutor().execute(self._spec(param_sets=[]))
        assert report.results == []
        assert report.records == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(mode="threads")

    def test_seeds_spec_uses_given_seeds(self):
        report = SweepExecutor().execute(
            SweepSpec(fn=_echo_task, seeds=[100, 200], extra={"tag": "s"})
        )
        assert [r["seed"] for r in report.results] == [100, 200]
        assert all(r["params"]["tag"] == "s" for r in report.results)

    def test_report_records_cover_every_task(self):
        report = SweepExecutor().execute(self._spec())
        assert [rec.index for rec in report.records] == list(range(5))
        assert all(rec.attempts == 1 for rec in report.records)
        assert report.lease_retries == 0


class TestPicklingFallback:
    """Process mode degrades to a warned serial run for unpicklable tasks."""

    def test_lambda_falls_back_to_serial(self):
        executor = SweepExecutor(mode="process", max_workers=2)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            report = executor.execute(
                SweepSpec(
                    fn=lambda task: {"index": task.index, "seed": task.seed},
                    param_sets=[{"x": 1}, {"x": 2}, {"x": 3}],
                    base_seed=5,
                )
            )
        assert [r["index"] for r in report.results] == [0, 1, 2]
        assert report.results[0]["seed"] == derive_task_seed(5, 0)
        assert report.pickle_fallback

    def test_fallback_matches_serial_mode(self):
        fn = lambda task: task.seed * 2  # noqa: E731 - intentionally unpicklable
        params = [{"i": i} for i in range(4)]
        spec = SweepSpec(fn=fn, param_sets=params, base_seed=1)
        with pytest.warns(RuntimeWarning):
            pooled = SweepExecutor(mode="process", max_workers=2).execute(spec)
        serial = SweepExecutor().execute(spec)
        assert pooled.results == serial.results

    def test_closure_falls_back_too(self):
        scale = 3

        def closure_task(task):
            return task.index * scale

        with pytest.warns(RuntimeWarning):
            report = SweepExecutor(mode="process", max_workers=2).execute(
                SweepSpec(fn=closure_task, param_sets=[{}, {}, {}])
            )
        assert report.results == [0, 3, 6]

    def test_warns_only_once_per_executor(self):
        executor = SweepExecutor(mode="process", max_workers=2)
        fn = lambda task: task.index  # noqa: E731
        spec = SweepSpec(fn=fn, param_sets=[{}, {}])
        with pytest.warns(RuntimeWarning):
            executor.execute(spec)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert executor.execute(spec).results == [0, 1]  # silent second time

    def test_picklable_functions_still_use_the_pool(self):
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            report = SweepExecutor(mode="process", max_workers=2).execute(
                SweepSpec(fn=_echo_task, param_sets=[{"a": 1}, {"a": 2}], base_seed=3)
            )
        assert len(report.results) == 2
        assert not report.pickle_fallback

    def test_unpicklable_param_in_later_task_falls_back(self):
        # Task 0 pickles fine; task 1 carries an unpicklable lock.  The
        # pre-flight only covers fn and the first task, so this one is
        # caught at chunk-dispatch time and must still degrade cleanly.
        import threading

        params = [{"x": 1}, {"x": threading.Lock()}]
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            report = SweepExecutor(mode="process", max_workers=2).execute(
                SweepSpec(fn=_echo_task, param_sets=params)
            )
        assert [r["index"] for r in report.results] == [0, 1]

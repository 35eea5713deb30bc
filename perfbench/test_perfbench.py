"""Tests of the benchmark itself (tiny sizes; run with ``pytest perfbench``).

Each workload's tiny pass must emit every metric ``BENCHMARK.json``
names, and each output check must fail the run when a result is
deliberately corrupted.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())


def tiny_run(name: str, trace: bool = False):
    result, _ = bench.run(name, seed=3, seconds=0, trace=trace, scale=workloads.TINY[name])
    return result


# ---------------------------------------------------------------------- #
# Metric names
# ---------------------------------------------------------------------- #
def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(MANIFEST["workloads"]) == set(workloads.WORKLOADS)
    assert set(MANIFEST["per_layer"]) == set(bench.PER_LAYER_UNITS)
    for entry in MANIFEST["per_layer"].values():
        assert set(entry["moves"]) <= set(bench.END_TO_END)
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(name):
    result = tiny_run(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == bench.END_TO_END[metric]
        assert entry["value"] > 0, metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_pass_emits_every_per_layer_metric(name):
    result = tiny_run(name, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
    values = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    assert values["batch.steps"] > 0 and values["serve.self_s"] >= 0


def test_serve_results_do_not_depend_on_the_source_fingerprint(monkeypatch, tmp_path):
    """Request keys fold in a fingerprint of ``src/repro``; the seeds must not."""
    from repro.runtime import cache

    def one_pass():
        workload = workloads.Workload("serve_coloring_durable", 3, work_dir=str(tmp_path),
                                      scale=workloads.TINY["serve_coloring_durable"])
        workload.setup()
        return workload.run_pass()

    before = one_pass()
    monkeypatch.setattr(cache, "code_fingerprint", lambda: "another source tree")
    after = one_pass()
    assert after.digest == before.digest
    assert after.latencies_steps == before.latencies_steps


def test_tracing_restores_the_program():
    from repro.runtime.batch import BatchedNetwork
    from repro.serve import service

    before = (BatchedNetwork.__dict__["step"], service.derive_cache_key)
    with bench_tracer() as tracer:
        assert BatchedNetwork.__dict__["step"] is not before[0]
        assert service.derive_cache_key is not before[1]
        assert tracer.spans == []
    assert (BatchedNetwork.__dict__["step"], service.derive_cache_key) == before


def bench_tracer():
    from tracing import Tracer, install_layer_probes

    tracer = Tracer()
    install_layer_probes(tracer)
    return tracer


# ---------------------------------------------------------------------- #
# Output checks fail on corrupted results
# ---------------------------------------------------------------------- #
def _solved_sudoku():
    from repro.csp.solver import solve_instances

    inst = workloads.sudoku_corpus(1)[0]
    result = solve_instances([(inst.graph, inst.clamps)], seeds=[inst.noise_seed],
                             max_steps=3000)[0]
    assert result.solved
    return inst, result


def test_result_check_catches_each_corruption():
    inst, result = _solved_sudoku()
    assert checks.result_problems(inst.graph, inst.clamps, result, inst.expected) == []

    flipped = dataclasses.replace(result, solved=False)
    assert checks.result_problems(inst.graph, inst.clamps, flipped, inst.expected)

    values = result.values.copy()
    a, b = values[0], values[1]
    values[:9] = [b if v == a else a if v == b else v for v in values[:9]]  # still a valid row
    swapped = dataclasses.replace(result, values=values)
    assert checks.result_problems(inst.graph, inst.clamps, swapped, inst.expected)

    wrong_expected = inst.expected.copy()
    wrong_expected[-1] = wrong_expected[-1] % 9 + 1
    assert checks.result_problems(inst.graph, inst.clamps, result, wrong_expected)


def test_ledger_and_digest_checks_catch_corruption():
    snap = {"submitted": 4, "served": 4, "shed": 0, "cancelled": 0, "in_flight": 0}
    assert checks.ledger_problems(snap, 4) == []
    assert checks.ledger_problems({**snap, "served": 3}, 4)
    assert checks.ledger_problems({**snap, "served": 3, "in_flight": 1}, 4)
    assert checks.ledger_problems(snap, 5)

    row = (0, 7, 12, 345, workloads.np.arange(3))
    same = checks.digest([row])
    assert checks.digest_problems([same, checks.digest([row])]) == []
    changed = checks.digest([(0, 7, 12, 346, workloads.np.arange(3))])
    assert checks.digest_problems([same, changed])


def test_run_fails_on_a_corrupted_offline_result(monkeypatch):
    from repro.csp import solver

    original = solver.solve_instances

    def corrupt(*args, **kwargs):
        results = original(*args, **kwargs)
        return [dataclasses.replace(results[0], solved=not results[0].solved)] + results[1:]

    monkeypatch.setattr(solver, "solve_instances", corrupt)
    assert not tiny_run("solve_sudoku")["correct"]


def test_run_fails_when_passes_disagree(monkeypatch):
    from repro.csp import solver

    original, calls = solver.solve_instances, []

    def drifting(*args, **kwargs):
        calls.append(1)
        results = original(*args, **kwargs)
        return [dataclasses.replace(r, total_spikes=r.total_spikes + len(calls)) for r in results]

    monkeypatch.setattr(solver, "solve_instances", drifting)
    result, lines = bench.run("solve_sudoku", 3, 0, False, scale=workloads.TINY["solve_sudoku"])
    assert not result["correct"]
    assert any("passes disagree" in line for line in lines)


@pytest.mark.parametrize("name", ["serve_coloring", "serve_coloring_durable"])
def test_run_fails_on_a_corrupted_served_result(monkeypatch, name):
    from repro.serve import SolveService

    original = SolveService.submit

    async def corrupt(self, *args, **kwargs):
        served = await original(self, *args, **kwargs)
        flipped = dataclasses.replace(served.result, solved=not served.result.solved)
        return dataclasses.replace(served, result=flipped)

    monkeypatch.setattr(SolveService, "submit", corrupt)
    assert not tiny_run(name)["correct"]


def test_run_fails_on_a_broken_ledger(monkeypatch):
    from repro.serve import SolveService

    original = SolveService.metrics

    def leaky(self):
        snap = original(self)
        return dataclasses.replace(snap, served=snap.served - 1)

    monkeypatch.setattr(SolveService, "metrics", leaky)
    result, lines = bench.run("serve_coloring", 3, 0, False, scale=workloads.TINY["serve_coloring"])
    assert not result["correct"]
    assert any("ledger not conserved" in line for line in lines)

"""E-R1 — batched multi-network runtime: B=32 workloads vs. the legacy loops.

Two gates:

* **80-20 seed sweep** — the fused high-throughput mode (vectorised
  float gather + the compiled per-replica thalamic drive) against ``B``
  separate ``SNNNetwork.run`` calls; contractual >= 10x at B=32.
* **CSP/Sudoku batch solve** — the bit-exact solve path (integer CSR
  synapse kernel + compiled batched drives + active-set shrinking)
  against the pre-PR exact mode (per-replica float propagation,
  per-replica input closures, solved replicas merely masked out);
  contractual >= 3x batch-solve throughput at B=32.  Both engines must
  produce identical results, which this benchmark asserts outright.

The solve gate writes ``BENCH_batched.json`` (override with
``BENCH_BATCHED_JSON``) so the batched-runtime performance trajectory
accumulates across CI runs; ``tools/check_bench_regression.py`` compares
the emitted file against the committed baseline in
``benchmarks/baselines/``.

Bit-exact equivalence of the engine's default mode with the sequential
loop is locked down separately in ``tests/runtime``.
"""

import functools
import json
import os
import time
from collections import namedtuple

import numpy as np

from repro.csp import SpikingCSPSolver, make_instance
from repro.csp.config import CSPConfig
from repro.csp.solver import decode_assignment, solve_instances
from repro.csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
from repro.harness import format_table
from repro.runtime import eighty_twenty_seed_sweep
from repro.runtime.batch import BatchedNetwork
from repro.snn.synapse import SparseSynapses, quantize_weights_q15_16
from repro.sudoku.puzzles import generate_puzzle_set

#: Sweep configuration: B=32 replicas of a scaled 80-20 network.
BATCH = 32
NUM_NEURONS = 100
NUM_STEPS = 200
SEEDS = list(range(2003, 2003 + BATCH))

#: Acceptance floor for the batched-vs-sequential speedup.  Defaults to
#: the runtime's contractual 10x; shared CI runners with noisy-neighbour
#: scheduling may override it downwards (the CI workflow sets 4) so the
#: gate catches real regressions without flaking on scheduler jitter.
MIN_SPEEDUP = float(os.environ.get("BATCHED_RUNTIME_MIN_SPEEDUP", "10.0"))

#: Acceptance floor for the exact-mode (integer CSR) solve speedup over
#: the pre-PR exact mode.  Contractual 3x locally; CI lowers it to absorb
#: scheduler jitter on shared runners.
MIN_EXACT_SPEEDUP = float(os.environ.get("BATCHED_EXACT_MIN_SPEEDUP", "3.0"))

#: Batch width and step budget of the solve-throughput gate.
SOLVE_BATCH = int(os.environ.get("BATCHED_BENCH_B", "32"))
SOLVE_MAX_STEPS = int(os.environ.get("BATCHED_BENCH_MAX_STEPS", "2000"))
SOLVE_CHECK_INTERVAL = 10

JSON_PATH = os.environ.get(
    "BENCH_BATCHED_JSON", os.path.join(os.path.dirname(__file__), "BENCH_batched.json")
)


def _sequential():
    return eighty_twenty_seed_sweep(
        SEEDS, num_steps=NUM_STEPS, num_neurons=NUM_NEURONS, batched=False
    )


def _batched():
    return eighty_twenty_seed_sweep(
        SEEDS, num_steps=NUM_STEPS, num_neurons=NUM_NEURONS, batched=True, fused=True
    )


def test_batched_runtime_speedup(benchmark):
    # Warm-up both paths (imports, allocator, BLAS threads).
    eighty_twenty_seed_sweep(SEEDS[:2], num_steps=10, num_neurons=NUM_NEURONS, batched=False)
    eighty_twenty_seed_sweep(
        SEEDS[:2], num_steps=10, num_neurons=NUM_NEURONS, batched=True, fused=True
    )

    start = time.perf_counter()
    sequential = _sequential()
    t_sequential = time.perf_counter() - start

    # Best-of-3 for the batched side; the sequential baseline is long
    # enough to be stable with a single measurement.
    t_batched = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched = _batched()
        t_batched = min(t_batched, time.perf_counter() - start)

    speedup = t_sequential / t_batched
    rows = [
        ["sequential loop", f"{t_sequential * 1e3:.1f}", f"{sequential.mean_rate_hz:.2f}"],
        ["batched (fused)", f"{t_batched * 1e3:.1f}", f"{batched.mean_rate_hz:.2f}"],
    ]
    print()
    print(
        format_table(
            ["Engine", "Wall clock [ms]", "Mean rate [Hz]"],
            rows,
            title=f"B={BATCH} x {NUM_NEURONS} neurons x {NUM_STEPS} ms 80-20 seed sweep",
        )
    )
    print(f"Speedup: {speedup:.1f}x (required: >= {MIN_SPEEDUP:g}x)")

    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["t_sequential_ms"] = t_sequential * 1e3
    benchmark.extra_info["t_batched_ms"] = t_batched * 1e3
    benchmark.pedantic(_batched, rounds=1, iterations=1)

    # Both engines must simulate plausible, comparable network activity.
    assert 1.0 < sequential.mean_rate_hz < 50.0
    assert abs(batched.mean_rate_hz - sequential.mean_rate_hz) / sequential.mean_rate_hz < 0.25
    # The contractual speedup of the batched runtime at B=32 (typical
    # measurements are 15-20x; CI lowers the floor via the env override).
    assert speedup >= MIN_SPEEDUP


def test_batched_runtime_scaling(benchmark):
    """Throughput as the batch width grows (fixed per-replica work)."""
    rows = []
    results = {}
    for width in (1, 8, 32):
        seeds = SEEDS[:width]
        start = time.perf_counter()
        result = eighty_twenty_seed_sweep(
            seeds, num_steps=100, num_neurons=NUM_NEURONS, batched=True, fused=True
        )
        elapsed = time.perf_counter() - start
        per_replica = elapsed / width
        results[width] = per_replica
        rows.append([width, f"{elapsed * 1e3:.1f}", f"{per_replica * 1e3:.2f}", f"{result.mean_rate_hz:.2f}"])
    print()
    print(
        format_table(
            ["B", "Wall clock [ms]", "Per replica [ms]", "Mean rate [Hz]"],
            rows,
            title="Batched runtime scaling (100 ms windows)",
        )
    )
    benchmark.extra_info["per_replica_ms"] = {str(k): v * 1e3 for k, v in results.items()}
    benchmark.pedantic(
        lambda: eighty_twenty_seed_sweep(
            SEEDS, num_steps=100, num_neurons=NUM_NEURONS, batched=True, fused=True
        ),
        rounds=1,
        iterations=1,
    )
    # Batching must amortise per-step overhead: a B=32 replica-step must be
    # much cheaper than a B=1 replica-step.
    assert results[32] < results[1] / 4.0


# ---------------------------------------------------------------------- #
# Exact-mode batch-solve throughput (integer CSR + compiled drives +
# active-set shrinking) vs. the pre-PR exact mode.
# ---------------------------------------------------------------------- #
#: One legacy-loop replica: its graph, resolved clamps and network.
_Entry = namedtuple("_Entry", "graph clamps row")


def _call(closure, step):
    return closure(step)


class _FloatSynapses(SparseSynapses):
    """Sparse weights that report a lossy quantisation, so a batch propagates them in float."""

    def quantized_q15_16(self):
        return quantize_weights_q15_16(self.matrix.data)[0], False


def _legacy_run_batch(entries, config, *, max_steps, check_interval):
    """The pre-PR CSP batch loop, kept verbatim as the benchmark baseline.

    Per-replica float synapse propagation (each distinct synapse set is
    wrapped in :class:`_FloatSynapses`), per-replica external-input
    closures (no drive compilation: each is wrapped so it declares no
    drive spec) and freeze-only bookkeeping: solved replicas stay in the
    batch and keep being stepped, only their statistics are masked.
    """
    num = len(entries)
    num_neurons = entries[0].graph.num_neurons
    wrapped = {}
    for e in entries:
        e.row.external_input = functools.partial(_call, e.row.external_input)
        synapses = e.row.synapses
        e.row.synapses = wrapped.setdefault(id(synapses), _FloatSynapses(synapses.matrix))
    batch = BatchedNetwork.from_networks([e.row for e in entries], synapse_mode="exact")
    assert not batch.integer_propagation
    window = max(1, config.decode_window)
    history = np.zeros((window, num, num_neurons), dtype=bool)
    window_counts = np.zeros((num, num_neurons), dtype=np.int64)
    last_spike_step = np.full((num, num_neurons), -1, dtype=np.int64)
    total_spikes = np.zeros(num, dtype=np.int64)
    solved = np.zeros(num, dtype=bool)
    final_steps = np.zeros(num, dtype=np.int64)
    values = [np.zeros(e.graph.num_variables, dtype=np.int64) for e in entries]
    active = np.ones(num, dtype=bool)
    step = 0
    for step in range(1, max_steps + 1):
        fired = batch.step(step)
        slot = step % window
        window_counts -= history[slot]
        history[slot] = fired
        window_counts += fired
        active_fired = fired & active[:, None]
        if active_fired.any():
            last_spike_step[active_fired] = step
            total_spikes += active_fired.sum(axis=1)
        if step % check_interval == 0:
            for b in np.flatnonzero(active):
                e = entries[b]
                vals, dec = decode_assignment(
                    e.graph, window_counts[b], last_spike_step[b], e.clamps
                )
                if e.graph.is_solution(vals, dec):
                    solved[b] = True
                    final_steps[b] = step
                    values[b] = vals
                    active[b] = False
            if not active.any():
                break
    for b in np.flatnonzero(active):
        e = entries[b]
        vals, dec = decode_assignment(e.graph, window_counts[b], last_spike_step[b], e.clamps)
        solved[b] = e.graph.is_solution(vals, dec)
        final_steps[b] = step
        values[b] = vals
    return solved, final_steps, total_spikes


def _sudoku_workload():
    """B solvable puzzles on the shared 729-neuron WTA graph."""
    graph = shared_sudoku_graph()
    puzzles = [
        p.puzzle for p in generate_puzzle_set(SOLVE_BATCH, base_seed=1000, target_clues=45)
    ]
    clamp_sets = [clamps_from_cells(p.cells) for p in puzzles]

    def legacy():
        entries = []
        for clamps in clamp_sets:
            solver = SpikingCSPSolver(graph, seed=7)
            resolved = graph.resolve_clamps(clamps)
            entries.append(_Entry(graph, resolved, solver.build_network(resolved)))
        return _legacy_run_batch(
            entries, CSPConfig(), max_steps=SOLVE_MAX_STEPS, check_interval=SOLVE_CHECK_INTERVAL
        )

    def optimised():
        results = SpikingCSPSolver(graph, seed=7).solve_batch(
            clamp_sets, max_steps=SOLVE_MAX_STEPS, check_interval=SOLVE_CHECK_INTERVAL
        )
        return (
            [r.solved for r in results],
            [r.steps for r in results],
            [r.total_spikes for r in results],
        )

    return graph.num_neurons, legacy, optimised


def _coloring_workload():
    """B independently seeded solver runs of one planted coloring instance."""
    graph, clamps = make_instance("coloring", seed=0, num_vertices=12, num_colors=3)
    resolved = graph.resolve_clamps(clamps)
    seeds = list(range(7, 7 + SOLVE_BATCH))

    def legacy():
        entries = [
            _Entry(graph, resolved, SpikingCSPSolver(graph, seed=s).build_network(resolved))
            for s in seeds
        ]
        return _legacy_run_batch(
            entries, CSPConfig(), max_steps=SOLVE_MAX_STEPS, check_interval=SOLVE_CHECK_INTERVAL
        )

    def optimised():
        results = solve_instances(
            [(graph, clamps)] * SOLVE_BATCH,
            seeds=seeds,
            max_steps=SOLVE_MAX_STEPS,
            check_interval=SOLVE_CHECK_INTERVAL,
        )
        return (
            [r.solved for r in results],
            [r.steps for r in results],
            [r.total_spikes for r in results],
        )

    return graph.num_neurons, legacy, optimised


def _best_of(fn, rounds):
    """Best-of-N wall clock of a deterministic callable (result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_exact_solve_throughput(benchmark):
    """>= 3x CSP/Sudoku batch-solve throughput over the pre-PR exact mode."""
    payload = {}
    rows = []
    # Solves are deterministic, so repeats only tighten the wall-clock
    # measurement; the small coloring workload is dispatch-bound and
    # noisier, hence more rounds.
    workloads = [
        ("csp_exact", "coloring", _coloring_workload, 3),
        ("sudoku_exact", "sudoku-45", _sudoku_workload, 1),
    ]
    # Warm-up (imports, allocator, BLAS threads) before any timing.
    _, _, warm = _coloring_workload()
    warm()
    for key, label, build, rounds in workloads:
        num_neurons, legacy, optimised = build()
        legacy_result, t_legacy = _best_of(legacy, rounds)
        new_result, t_new = _best_of(optimised, rounds)
        # The two engines are bit-identical by contract; a mismatch means
        # the speedup below would be comparing different computations.
        assert list(legacy_result[0]) == list(new_result[0])
        assert list(legacy_result[1]) == list(new_result[1])
        assert list(legacy_result[2]) == list(new_result[2])
        solved = int(sum(new_result[0]))
        speedup = t_legacy / t_new
        payload[key] = {
            "batch": SOLVE_BATCH,
            "num_neurons": num_neurons,
            "max_steps": SOLVE_MAX_STEPS,
            "check_interval": SOLVE_CHECK_INTERVAL,
            "solved": solved,
            "solve_rate": solved / SOLVE_BATCH,
            "t_legacy_s": t_legacy,
            "t_optimised_s": t_new,
            "speedup": speedup,
            "solves_per_second": solved / t_new if t_new > 0 else 0.0,
        }
        rows.append(
            [
                label,
                num_neurons,
                f"{solved}/{SOLVE_BATCH}",
                f"{t_legacy:.2f}",
                f"{t_new:.2f}",
                f"{speedup:.2f}x",
            ]
        )
    print()
    print(
        format_table(
            ["Workload", "Neurons", "Solved", "Legacy [s]", "Optimised [s]", "Speedup"],
            rows,
            title=f"Exact-mode batch solve at B={SOLVE_BATCH} (<= {SOLVE_MAX_STEPS} steps)",
        )
    )

    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"Wrote {JSON_PATH}")

    benchmark.extra_info.update({k: v["speedup"] for k, v in payload.items()})
    _, _, optimised = _coloring_workload()
    benchmark.pedantic(optimised, rounds=1, iterations=1)

    for key, summary in payload.items():
        assert summary["speedup"] >= MIN_EXACT_SPEEDUP, (
            f"{key}: solve speedup {summary['speedup']:.2f}x below floor "
            f"{MIN_EXACT_SPEEDUP:.2f}x"
        )

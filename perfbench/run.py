"""The repository's end-to-end benchmark: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload solve_sudoku --seed 1 --seconds 20 --trace 0

The run sets the workload up from ``--seed`` three times (inputs,
service construction, a short warm-up; ``setup_s`` is the median), then
repeats timed passes over the same inputs: ``--seconds`` divided by the
workload's nominal pass time (at least two), so two commits take the
same number of passes.  Every pass is checked: each solved assignment
must pass ``ConstraintGraph.is_solution``, honour its clamps and match
the known unique Sudoku solution, the serve ledger must be conserved, and all
passes must produce the same per-request result digest.  Any failed
check makes the exit code 1.

Wall times are taken per segment of a pass (see :func:`fastest`):
throughput divides a pass's work by the sum of its segments' fastest
repetitions, and each request's wall latency is its fastest repetition.

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones; their names and units are read from ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes; it reports the
self time of each ``repro`` layer, measured by wrapping its public entry
points from benchmark code (``tracing.py``), the deterministic work
counters, and the tracing overhead.  Spans of the
last traced pass are written to ``perfbench/.traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in a process of its own (so ``peak_rss_mb`` is that
workload's) and merges their results into one such line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
MIN_PASSES = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name -> unit, for ``--trace 0`` and ``--trace 1``.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Span name -> per-layer metric holding its summed self time.
SELF_TIMES = {
    "batch.step": "batch.step_self_s",
    "drives.drive": "drives.drive_s",
    "batch.compose": "batch.compose_s",
    "slots.step": "slots.step_self_s",
    "slots.decode": "slots.decode_s",
    "slots.recompose": "slots.recompose_self_s",
    "slots.export": "slots.export_s",
    "csp.build": "csp.build_s",
    "csp.solve": "csp.solve_self_s",
    "cache.key": "cache.key_s",
    "journal.append": "journal.append_s",
    "checkpoint.save": "checkpoint.save_s",
}

#: Which ``repro`` module each self-time metric belongs to.
LAYER_OF = {
    "batch.step_self_s": "runtime.batch",
    "batch.compose_s": "runtime.batch",
    "drives.drive_s": "runtime.drives",
    "slots.step_self_s": "runtime.slots",
    "slots.decode_s": "runtime.slots",
    "slots.recompose_self_s": "runtime.slots",
    "slots.export_s": "runtime.slots",
    "csp.build_s": "csp.solver",
    "csp.solve_self_s": "csp.solver",
    "cache.key_s": "runtime.cache",
    "journal.append_s": "serve.journal",
    "checkpoint.save_s": "runtime.checkpoint",
    "serve.self_s": "serve.service",
}

#: Deterministic work counters: must repeat exactly between passes and runs.
WORK_COUNTERS = (
    "batch.steps", "batch.neuron_updates", "slots.decodes", "slots.recompositions",
    "cache.keys", "journal.appends", "checkpoint.saves", "checkpoint.bytes",
    "csp.networks_built",
)


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def fastest(passes) -> List[float]:
    """Each timed segment's fastest repetition over ``passes``.

    Segments do identical work on every pass, and the host alternates
    between a fast and a markedly slower state for stretches of a
    fraction of a second to seconds, so a segment's minimum measures the
    program rather than its neighbours; a median or mean over a run
    keeps the share of slow stretches that happened to fall into it.
    """
    return [min(times) for times in zip(*(o.units_s for o in passes))]


def layer_metrics(tracer, outcome) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    self_times = tracer.self_times()
    out = {metric: self_times.get(span, 0.0) for span, metric in SELF_TIMES.items()}
    out["serve.self_s"] = outcome.wall_s - sum(out.values())
    counters = tracer.counters
    for name in WORK_COUNTERS:
        out[name] = int(counters.get(name, 0))
    steps = counters.get("batch.steps", 0)
    out["batch.rows_per_step"] = counters.get("batch.rows", 0) / steps if steps else 0.0
    decodes = counters.get("slots.decodes", 0)
    out["slots.decode_solved_ratio"] = (
        counters.get("slots.decodes_solved", 0) / decodes if decodes else 0.0
    )
    keys = counters.get("cache.keys", 0)
    out["cache.key_ms_mean"] = tracer.total_time("cache.key") * 1e3 / keys if keys else 0.0
    out["serve.queue_wait_steps_p90"] = percentile(outcome.queue_wait_steps, 90)
    out["serve.occupancy"] = outcome.occupancy
    out["serve.dedup_ratio"] = outcome.dedup_ratio
    out["loadgen.late_steps_max"] = max(outcome.late_steps, default=0)
    out["trace.pass_wall_s"] = outcome.wall_s
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale=None) -> Tuple[dict, List[str]]:
    """Run one workload; returns the result object and printable report lines."""
    import checks
    import workloads
    from tracing import Tracer, install_layer_probes

    work_dir = str(HERE / ".work")
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload = workloads.Workload(workload_name, seed, scale=scale, work_dir=work_dir)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    plain, traced, layer_runs = [], [], []
    last_tracer: Optional[Tracer] = None
    count = max(MIN_PASSES * (2 if trace else 1), round(seconds / workload.scale.pass_seconds))
    for i in range(count):
        if trace and i % 2:
            with Tracer() as tracer:
                install_layer_probes(tracer)
                outcome = workload.run_pass()
            traced.append(outcome)
            layer_runs.append(layer_metrics(tracer, outcome))
            last_tracer = tracer
        else:
            plain.append(workload.run_pass())

    passes = plain + traced
    problems = [p for o in passes for p in o.problems]
    problems += checks.digest_problems([o.digest for o in passes])
    if len({len(o.units_s) for o in passes}) > 1:
        problems.append("passes were cut into different numbers of timed segments")
    for name in WORK_COUNTERS:
        seen = {run[name] for run in layer_runs}
        if len(seen) > 1:
            problems.append(f"work counter {name} differs between passes: {sorted(seen)}")
    if layer_runs and layer_runs[0]["batch.neuron_updates"] != passes[0].neuron_updates:
        problems.append(
            f"traced neuron updates {layer_runs[0]['batch.neuron_updates']} != "
            f"updates reported by the results {passes[0].neuron_updates}"
        )

    first = plain[0]
    if trace:
        metrics = {name: statistics.median(r[name] for r in layer_runs)
                   for name in layer_runs[0]}
        metrics["trace.overhead_ratio"] = sum(fastest(traced)) / sum(fastest(plain))
        units = PER_LAYER_UNITS
        os.makedirs(HERE / ".traces", exist_ok=True)
        last_tracer.dump(str(HERE / ".traces" / f"{workload_name}-seed{seed}.jsonl"))
    else:
        wall = sum(fastest(plain))
        latencies = [min(ms) for ms in zip(*(o.latencies_ms for o in plain)) if None not in ms]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solves_per_s": first.solved / wall,
            "neuron_updates_per_s": first.neuron_updates / wall,
            "latency_ms_p50": percentile(latencies, 50),
            "latency_ms_p90": percentile(latencies, 90),
            "latency_steps_p50": percentile(first.latencies_steps, 50),
            "latency_steps_p90": percentile(first.latencies_steps, 90),
            "solved_share": first.solved / first.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    lines = [
        f"workload {workload_name}  seed {seed}  passes {len(plain)} untraced"
        f" + {len(traced)} traced  requests/pass {first.attempted}",
        f"digest {first.digest}",
        f"attempted {sum(o.attempted for o in passes)}  failed {sum(o.failed for o in passes)}"
        f"  failed_share {sum(o.failed for o in passes) / sum(o.attempted for o in passes):.4f}",
    ]
    lines += [f"{name:32s} {value:>16.6g} {units[name]}" for name, value in metrics.items()]
    if trace:
        lines += layer_share_lines(metrics)
    lines += [f"CHECK FAILED: {p}" for p in problems[:20]]

    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in passes),
        "failed": sum(o.failed for o in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def layer_share_lines(metrics: Dict[str, float]) -> List[str]:
    """Share of the pass wall time per ``repro`` layer, largest first."""
    wall = metrics["trace.pass_wall_s"]
    shares: Dict[str, float] = {}
    for metric, layer in LAYER_OF.items():
        shares[layer] = shares.get(layer, 0.0) + metrics[metric]
    lines = [f"layer shares of the pass wall ({wall:.4f} s):"]
    lines += [f"  {layer:20s} {value / wall:7.1%}"
              for layer, value in sorted(shares.items(), key=lambda kv: -kv[1])]
    return lines


def run_each(names, args) -> int:
    """Run each workload in a child process and print one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: workload {name} exited with code {child.returncode} "
                  f"and no result", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{metric}": entry
                                  for metric, entry in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="solve_sudoku, serve_coloring, serve_coloring_durable or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload == "all":
        return run_each(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

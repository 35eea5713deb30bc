"""E-C1 — generic spiking constraint solver across scenario families.

Solves deterministic instance sets of the three non-Sudoku scenario
families (graph coloring, N-queens, Latin-square completion) on the
exact-mode batched runtime, asserts per-scenario solve-rate floors, and
measures solver throughput (neuron updates per second).

A second gate compares the restart-portfolio engine
(:func:`repro.csp.portfolio.solve_instances_portfolio`) against
fixed-seed :func:`~repro.csp.solver.solve_instances` on a deterministic
pool of hard instances (near-threshold graph coloring plus hard low-clue
Sudoku): at the same global step budget the portfolio must reach at
least the fixed-seed solve rate while spending measurably fewer total
neuron updates.

It also writes ``BENCH_csp.json`` (override with ``BENCH_CSP_JSON``) so
the constraint-solver performance trajectory accumulates across CI runs;
``tools/check_bench_regression.py`` compares the emitted file against the
committed baseline in ``benchmarks/baselines/``.

Environment knobs (CI smoke lowers the workload; nightly runs it full):

===============================  ===========================================
``CSP_BENCH_COUNT``              instances per scenario (default 4)
``CSP_BENCH_MAX_STEPS``          step budget per instance (default 4000)
``CSP_MIN_SOLVE_RATE``           asserted per-scenario floor (default 0.75)
``CSP_PORTFOLIO_COLORING``       hard coloring instances (default 28)
``CSP_PORTFOLIO_SUDOKU``         hard Sudoku instances (default 4)
``CSP_PORTFOLIO_MIN_RATIO``      asserted fixed/portfolio update ratio
                                 floor (default 1.05)
===============================  ===========================================
"""

import json
import os
import time

from repro.csp import PortfolioConfig, SpikingCSPSolver, make_instance
from repro.csp.solver import solve_instances
from repro.harness import csp_portfolio_solve_rate, format_table
from repro.runtime.batch import BatchedNetwork
from repro.runtime.drives import compile_batched_external

COUNT = int(os.environ.get("CSP_BENCH_COUNT", "4"))
MAX_STEPS = int(os.environ.get("CSP_BENCH_MAX_STEPS", "4000"))
MIN_SOLVE_RATE = float(os.environ.get("CSP_MIN_SOLVE_RATE", "0.75"))
#: Timing rounds per scenario (best-of-N; the solves are deterministic,
#: so repeats only tighten the wall-clock measurement).
ROUNDS = int(os.environ.get("CSP_BENCH_ROUNDS", "3"))
#: Fixed step count of the throughput measurement.  Solves early-stop
#: after a few tens of steps, which is too short a wall-clock window for
#: a stable updates/s figure, so throughput is measured separately on a
#: fixed-length batched run over the same stacked networks.
THROUGHPUT_STEPS = int(os.environ.get("CSP_BENCH_THROUGHPUT_STEPS", "500"))

JSON_PATH = os.environ.get(
    "BENCH_CSP_JSON", os.path.join(os.path.dirname(__file__), "BENCH_csp.json")
)

#: Scenario families benchmarked: (name, generator params, solver seeds).
SCENARIOS = [
    ("coloring", {"num_vertices": 12, "num_colors": 3}, 1),
    ("queens", {"n": 6}, 1),
    ("latin", {"n": 4, "clamp_fraction": 0.5}, 7),
]

#: Hard-pool composition of the restart-portfolio gate.  The coloring
#: sub-pool sits near the satisfiability threshold of the planted
#: 4-partition family (absorbing stalls under a bad noise stream — the
#: regime restarts fix); the Sudoku sub-pool uses hard low-clue puzzles
#: at the stochastic WTA search's difficulty frontier (~29 clues; the
#: classic 17-clue instances are beyond its reach at any practical step
#: budget, see docs/CSP.md).
PORTFOLIO_COLORING = int(os.environ.get("CSP_PORTFOLIO_COLORING", "28"))
PORTFOLIO_SUDOKU = int(os.environ.get("CSP_PORTFOLIO_SUDOKU", "4"))
PORTFOLIO_MIN_RATIO = float(os.environ.get("CSP_PORTFOLIO_MIN_RATIO", "1.05"))
PORTFOLIO_POOLS = [
    {
        "scenario": "coloring",
        "count": PORTFOLIO_COLORING,
        "seed": 200,
        "max_steps": 3000,
        "scenario_params": {"num_vertices": 40, "num_colors": 4, "edge_probability": 0.45},
        "portfolio": PortfolioConfig(base_budget=300, seed=0, max_parallel=2),
    },
    {
        "scenario": "sudoku",
        "count": PORTFOLIO_SUDOKU,
        "seed": 50,
        "max_steps": 6000,
        "scenario_params": {"target_clues": 29},
        "portfolio": PortfolioConfig(base_budget=3000, seed=0, max_parallel=1),
    },
]


def _merge_into_json(updates):
    """Merge ``updates`` into ``BENCH_csp.json``, preserving other sections.

    The scenario and portfolio gates run as separate tests but share one
    emitted file, so each writes only its own keys.
    """
    payload = {}
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
    payload.update(updates)
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"Wrote {JSON_PATH}")


def _measure_throughput(instances, solver_seed):
    """Best-of-N updates/s of a fixed-length batched run (no early stop).

    Runs the solve path's full fast configuration: exact mode (the
    integer CSR kernel engages automatically on the WTA weights) with the
    per-replica noise closures compiled into one batched provider.
    """
    best = float("inf")
    batch = None
    for _ in range(max(1, ROUNDS)):
        solvers = [
            SpikingCSPSolver(graph, seed=solver_seed) for graph, _ in instances
        ]
        networks = [
            solver.build_network(clamps)
            for solver, (_, clamps) in zip(solvers, instances)
        ]
        batch = BatchedNetwork.from_networks(
            networks,
            synapse_mode="exact",
            batched_external=compile_batched_external(networks),
        )
        start = time.perf_counter()
        batch.run(THROUGHPUT_STEPS, record=False, start_step=1)
        best = min(best, time.perf_counter() - start)
    substeps = batch.rows[0].substeps
    updates = THROUGHPUT_STEPS * batch.batch_size * batch.size * substeps
    return updates / best if best > 0 else 0.0


def _run_scenario(name, params, solver_seed):
    instances = [make_instance(name, seed=i, **params) for i in range(COUNT)]
    # One noise stream per replica: for structurally identical instances
    # (queens) the instance seed only names the graph, so seed diversity
    # must come from the solver side or the batch solves N copies of one
    # run and the solve rate measures nothing.
    # reprolint: disable-next-line=RL002 -- frozen benchmark solver seeds; baselines pin them
    seeds = [solver_seed + i for i in range(COUNT)]
    results = solve_instances(instances, seeds=seeds, max_steps=MAX_STEPS, check_interval=10)
    solved = sum(r.solved for r in results)
    return {
        "num_instances": COUNT,
        "num_neurons": instances[0][0].num_neurons,
        "max_steps": MAX_STEPS,
        "throughput_steps": THROUGHPUT_STEPS,
        "solved": solved,
        "solve_rate": solved / COUNT,
        "mean_steps": sum(r.steps for r in results) / COUNT,
        "updates_per_second": _measure_throughput(instances, solver_seed),
    }


def test_csp_scenarios_solve_on_batched_runtime(benchmark):
    payload = {}
    rows = []
    for name, params, solver_seed in SCENARIOS:
        summary = _run_scenario(name, params, solver_seed)
        payload[name] = summary
        rows.append(
            [
                name,
                summary["num_neurons"],
                f"{summary['solved']}/{summary['num_instances']}",
                f"{summary['mean_steps']:.0f}",
                f"{summary['updates_per_second'] / 1e6:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["Scenario", "Neurons", "Solved", "Mean steps", "M updates/s"],
            rows,
            title=f"Spiking CSP solver: {COUNT} instances/scenario, <= {MAX_STEPS} steps",
        )
    )

    _merge_into_json(payload)

    benchmark.extra_info.update({name: summary["solve_rate"] for name, summary in payload.items()})
    # One representative re-run feeds pytest-benchmark's timing column.
    name, params, solver_seed = SCENARIOS[0]
    benchmark.pedantic(lambda: _run_scenario(name, params, solver_seed), rounds=1, iterations=1)

    # Every scenario family converges on the evaluated instance sets.
    for name, summary in payload.items():
        assert summary["solve_rate"] >= MIN_SOLVE_RATE, (
            f"{name}: solve rate {summary['solve_rate']:.2f} "
            f"below floor {MIN_SOLVE_RATE:.2f}"
        )


def test_csp_portfolio_beats_fixed_seed_on_hard_pool(benchmark):
    """Restart-portfolio gate on the deterministic hard-instance pool.

    At equal global step budget per pool, the portfolio must reach at
    least the fixed-seed solve rate while spending measurably fewer total
    neuron updates — the freed-slot refills truncate the heavy tail that
    fixed-seed runs pay in full.  Everything (instances, first-attempt
    seeds, restart seeds, schedules) is seeded, so the comparison is
    deterministic.
    """
    pools = {}
    rows = []
    start = time.perf_counter()
    for spec in PORTFOLIO_POOLS:
        summary = csp_portfolio_solve_rate(
            scenario=spec["scenario"],
            count=spec["count"],
            max_steps=spec["max_steps"],
            seed=spec["seed"],
            portfolio=spec["portfolio"],
            scenario_params=spec["scenario_params"],
            compare_fixed=True,
        )
        pcfg = spec["portfolio"]
        pools[spec["scenario"]] = {
            "num_instances": spec["count"],
            "num_neurons": summary["num_neurons"],
            "max_steps": spec["max_steps"],
            "base_budget": pcfg.base_budget,
            "max_parallel": pcfg.max_parallel,
            "schedule": pcfg.schedule,
            "solve_rate_fixed": summary["fixed_solve_rate"],
            "solve_rate_portfolio": summary["solve_rate"],
            "updates_fixed": summary["fixed_neuron_updates"],
            "updates_portfolio": summary["neuron_updates"],
            "total_attempts": summary["total_attempts"],
        }
        rows.append(
            [
                spec["scenario"],
                spec["count"],
                f"{summary['fixed_solve_rate']:.2f}",
                f"{summary['solve_rate']:.2f}",
                f"{summary['fixed_neuron_updates'] / 1e6:.1f}",
                f"{summary['neuron_updates'] / 1e6:.1f}",
            ]
        )
    elapsed = time.perf_counter() - start

    updates_fixed = sum(p["updates_fixed"] for p in pools.values())
    updates_portfolio = sum(p["updates_portfolio"] for p in pools.values())
    solved_fixed = sum(round(p["solve_rate_fixed"] * p["num_instances"]) for p in pools.values())
    solved_portfolio = sum(
        round(p["solve_rate_portfolio"] * p["num_instances"]) for p in pools.values()
    )
    num_instances = sum(p["num_instances"] for p in pools.values())
    ratio = updates_fixed / updates_portfolio if updates_portfolio else 0.0

    print()
    print(
        format_table(
            ["Pool", "N", "Fixed rate", "Portfolio rate", "Fixed MU", "Portfolio MU"],
            rows,
            title=(
                f"Restart portfolio vs fixed seeds: {num_instances} hard instances, "
                f"update ratio {ratio:.2f} ({elapsed:.1f}s)"
            ),
        )
    )

    portfolio_summary = {
        "num_instances": num_instances,
        "solved_fixed": int(solved_fixed),
        "solved_portfolio": int(solved_portfolio),
        "solve_rate_fixed": solved_fixed / num_instances if num_instances else 0.0,
        "solve_rate_portfolio": solved_portfolio / num_instances if num_instances else 0.0,
        "updates_fixed": int(updates_fixed),
        "updates_portfolio": int(updates_portfolio),
        "update_ratio": ratio,
        "pools": pools,
    }
    _merge_into_json({"portfolio": portfolio_summary})

    benchmark.extra_info.update(
        {"update_ratio": ratio, "solve_rate_portfolio": portfolio_summary["solve_rate_portfolio"]}
    )
    # One representative re-run (the cheap coloring pool) feeds the
    # pytest-benchmark timing column.
    spec = PORTFOLIO_POOLS[0]
    benchmark.pedantic(
        lambda: csp_portfolio_solve_rate(
            scenario=spec["scenario"],
            count=spec["count"],
            max_steps=spec["max_steps"],
            seed=spec["seed"],
            portfolio=spec["portfolio"],
            scenario_params=spec["scenario_params"],
            compare_fixed=False,
        ),
        rounds=1,
        iterations=1,
    )

    assert solved_portfolio >= solved_fixed, (
        f"portfolio solved {solved_portfolio}/{num_instances}, below the "
        f"fixed-seed engine's {solved_fixed}"
    )
    assert ratio >= PORTFOLIO_MIN_RATIO, (
        f"portfolio spent {updates_portfolio} neuron updates vs fixed-seed "
        f"{updates_fixed} (ratio {ratio:.2f}, floor {PORTFOLIO_MIN_RATIO:.2f})"
    )

"""Experiment drivers: one function per paper table / figure.

Each driver returns plain data (dicts / dataclasses) so it can be consumed
both by the benchmark harness (which prints measured-vs-paper tables and
feeds pytest-benchmark) and by the examples.  The cycle-level experiments
accept scale parameters because full-size cycle simulation of the paper's
workloads is impractical in pure Python — the defaults are steady-state
windows whose per-timestep metrics are directly comparable to the paper's
(see DESIGN.md §2).

Multi-run drivers execute through :mod:`repro.runtime`: homogeneous
network-level runs (the Sudoku solve-rate evaluation, seed sweeps of the
80-20 network) are stacked on the vectorised batch engine, while
heterogeneous or ISA/cycle-level runs (the Fig. 3 backend comparison,
whose variants mix backends and current modes, and the Table V/VI system
windows) fan out through a
:class:`~repro.runtime.sweep.SweepExecutor` — serial by default,
process-parallel when an executor with ``mode="process"`` is passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen import (
    build_eighty_twenty_workload,
    build_sudoku_workload,
    estimate_softfloat_speedup,
    SoftFloatCostModel,
)
from ..hw import agilex_scaling_reports, max10_dual_core_report, standard_cell_reports
from ..hw.asic import AsicModel, ASAP7, FREEPDK45
from ..hw.floorplan import floorplan_summary, render_floorplan
from ..hw.fpga import AGILEX7_CORE, AGILEX7_DEVICE, FPGAResourceModel
from ..sim import CoreConfig, CycleAccurateCore, MultiCoreSystem, SystemResult
from ..sim.dcu import approximation_error_table
from ..snn import (
    histogram_similarity,
    isi_histogram,
    render_ascii_raster,
    run_eighty_twenty,
)
from ..runtime import (
    SweepExecutor,
    SweepSpec,
    SweepTask,
    eighty_twenty_seed_sweep,
)
from ..sudoku import SNNSudokuSolver, generate_puzzle_set
from ..sudoku.wta import connectivity_statistics
from . import paper_data

__all__ = [
    "table1_isa_roundtrip",
    "table2_dcu",
    "table3_max10",
    "table4_agilex",
    "CycleExperimentResult",
    "table5_eighty_twenty",
    "table6_sudoku",
    "table7_asic",
    "fig2_raster",
    "fig3_isi",
    "fig4_wta",
    "fig5_floorplan",
    "softfloat_speedup",
    "sudoku_solve_rate",
    "csp_solve_rate",
    "csp_portfolio_solve_rate",
    "eighty_twenty_seed_sweep",
]


# ---------------------------------------------------------------------- #
# Table I — ISA encoding round trip
# ---------------------------------------------------------------------- #
def table1_isa_roundtrip() -> Dict[str, Dict[str, object]]:
    """Encode/decode every custom instruction and report its fields."""
    from ..isa import decode, encode, NM_MNEMONICS
    from ..isa.encoding import OPCODE_CUSTOM0

    rows: Dict[str, Dict[str, object]] = {}
    for name in NM_MNEMONICS:
        word = encode(name, rd=10, rs1=11, rs2=12)
        instr = decode(word)
        rows[name] = {
            "opcode": f"{word & 0x7F:07b}",
            "funct3": (word >> 12) & 0x7,
            "format": instr.fmt.value,
            "word": f"{word:#010x}",
            "roundtrip_ok": instr.name == name,
            "custom0": (word & 0x7F) == OPCODE_CUSTOM0,
        }
    return rows


# ---------------------------------------------------------------------- #
# Table II — DCU approximation errors
# ---------------------------------------------------------------------- #
def table2_dcu() -> Dict[int, Dict[str, object]]:
    """Recompute the shift-add approximation errors and compare to Table II."""
    table = approximation_error_table(range(2, 9))
    for divider, row in table.items():
        row["paper_ae_percent"] = paper_data.PAPER_TABLE2_AE_PERCENT[divider]
        row["matches_paper"] = abs(row["approx_error_percent"] - row["paper_ae_percent"]) < 0.01
    return table


# ---------------------------------------------------------------------- #
# Tables III / IV — FPGA resources
# ---------------------------------------------------------------------- #
def table3_max10() -> Dict[str, object]:
    """Regenerate Table III and attach the published values."""
    report = max10_dual_core_report()
    return {
        "model": report,
        "model_rows": report.as_rows(),
        "paper": paper_data.PAPER_TABLE3_MAX10,
    }


def table4_agilex(core_counts: Sequence[int] = (16, 32, 64)) -> Dict[str, object]:
    """Regenerate Table IV plus the maximum-core extrapolation."""
    reports = agilex_scaling_reports(list(core_counts))
    model = FPGAResourceModel(AGILEX7_DEVICE, AGILEX7_CORE)
    return {
        "reports": {r.num_cores: r for r in reports},
        "paper": paper_data.PAPER_TABLE4_AGILEX,
        "max_cores": model.max_cores(),
        "paper_max_cores": paper_data.PAPER_MAX_AGILEX_CORES,
    }


# ---------------------------------------------------------------------- #
# Tables V / VI — cycle-level performance metrics
# ---------------------------------------------------------------------- #
@dataclass
class CycleExperimentResult:
    """Single- and dual-core metrics for one workload window."""

    workload: str
    num_neurons: int
    num_steps: int
    single: Dict[str, float]
    dual_per_core: List[Dict[str, float]]
    dual_system: Dict[str, float]
    speedup: float
    clock_hz: float

    def comparison_rows(self) -> Dict[str, Dict[str, float]]:
        """Metric rows in the layout of paper Tables V / VI."""
        rows: Dict[str, Dict[str, float]] = {}
        keys = [
            ("ipc", "IPC"),
            ("ipc_eff", "IPC_eff"),
            ("hazard_stall_percent", "Hazard stalls [%]"),
            ("icache_hit_rate", "I-cache hit rate [%]"),
            ("dcache_hit_rate", "D-cache hit rate [%]"),
            ("memory_intensity", "Mem intensity"),
            ("total_cache_misses", "All cache misses"),
        ]
        for key, label in keys:
            rows[label] = {
                "Single-core": self.single[key],
                "Dual core #1": self.dual_per_core[0][key],
                "Dual core #2": self.dual_per_core[1][key],
            }
        rows["Speedup"] = {"Single-core": 1.0, "Dual core #1": self.speedup, "Dual core #2": self.speedup}
        return rows


def _table5_system_task(task: SweepTask) -> SystemResult:
    """Run one statically-partitioned 80-20 window (picklable sweep task)."""
    p = task.params
    num_cores = int(p["num_cores"])

    def make(core_id: int, total: int):
        share = p["num_neurons"] // total
        count = share if core_id < total - 1 else p["num_neurons"] - share * (total - 1)
        workload = build_eighty_twenty_workload(
            num_neurons=count, num_steps=p["num_steps"], kind=p["kind"], seed=p["seed"] + core_id
        )
        return workload.make_simulator()

    config = p.get("core_config") or CoreConfig()
    system = MultiCoreSystem.from_builder(num_cores, make, core_config=config)
    return system.run()


def table5_eighty_twenty(
    *,
    num_neurons: int = 120,
    num_steps: int = 4,
    core_config: Optional[CoreConfig] = None,
    kind: str = "extension",
    seed: int = 2003,
    executor: Optional[SweepExecutor] = None,
) -> CycleExperimentResult:
    """Regenerate the Table V metrics on a scaled 80-20 window.

    The population is statically split across cores exactly as the paper's
    dual-core system splits the 1000 neurons.  The single- and dual-core
    system simulations are independent, so they are dispatched as two
    tasks through the runtime's :class:`SweepExecutor` (serial inline
    execution by default; pass ``SweepExecutor(mode="process")`` to run
    them on separate cores).
    """
    executor = executor if executor is not None else SweepExecutor()
    params = {
        "num_neurons": num_neurons,
        "num_steps": num_steps,
        "kind": kind,
        "seed": seed,
        "core_config": core_config,
    }
    single, dual = executor.execute(
        SweepSpec(
            fn=_table5_system_task,
            param_sets=[{**params, "num_cores": 1}, {**params, "num_cores": 2}],
            base_seed=seed,
        )
    ).results
    clock = (core_config or CoreConfig()).clock_hz
    return CycleExperimentResult(
        workload="eighty-twenty",
        num_neurons=num_neurons,
        num_steps=num_steps,
        single=single.per_core[0].as_dict(clock_hz=clock),
        dual_per_core=[c.as_dict(clock_hz=clock) for c in dual.per_core],
        dual_system=dual.summary(),
        speedup=dual.speedup_over(single),
        clock_hz=clock,
    )


def _table6_system_task(task: SweepTask) -> SystemResult:
    """Run one Sudoku WTA window (single or halved dual; picklable task)."""
    from ..sudoku import SudokuBoard

    p = task.params
    puzzle = SudokuBoard(np.asarray(p["puzzle_cells"], dtype=np.int64))
    num_cores = int(p["num_cores"])

    def make(core_id: int, total: int):
        # Each core runs the same per-step kernel over its neuron share; the
        # share is modelled by scaling the step count of a full network
        # (instruction mix per neuron is identical, so metrics match).
        workload = build_sudoku_workload(
            puzzle, num_steps=p["num_steps"], kind=p["kind"], seed=p["seed"] + core_id
        )
        if num_cores == 1:
            return workload.make_simulator()
        # Dual core: each core handles half the neurons -> half the work.
        return _HalvedSimulator.build(workload)

    config = p.get("core_config") or CoreConfig()
    return MultiCoreSystem.from_builder(num_cores, make, core_config=config).run()


def table6_sudoku(
    *,
    num_steps: int = 2,
    core_config: Optional[CoreConfig] = None,
    kind: str = "extension",
    clue_fraction: float = 0.35,
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> CycleExperimentResult:
    """Regenerate the Table VI metrics on a Sudoku WTA window.

    For the dual-core configuration the 729 neurons are split between the
    cores; each core's program updates its share and propagates its share
    of the spikes (shared-memory effects on the currents do not change the
    instruction mix, which is what the metrics measure).  As with Table V,
    the two system simulations run as independent
    :class:`SweepExecutor` tasks.
    """
    from ..sudoku import PuzzleGenerator

    puzzle = PuzzleGenerator().generate(seed=seed, target_clues=max(17, int(81 * clue_fraction))).puzzle
    executor = executor if executor is not None else SweepExecutor()
    params = {
        "puzzle_cells": np.asarray(puzzle.cells, dtype=np.int64),
        "num_steps": max(1, num_steps),
        "kind": kind,
        "seed": seed,
        "core_config": core_config,
    }
    single, dual = executor.execute(
        SweepSpec(
            fn=_table6_system_task,
            param_sets=[
                {**params, "num_cores": 1, "num_steps": num_steps},
                {**params, "num_cores": 2},
            ],
            base_seed=seed,
        )
    ).results
    clock = (core_config or CoreConfig()).clock_hz
    speedup = single.system_cycles / dual.system_cycles if dual.system_cycles else 0.0
    return CycleExperimentResult(
        workload="sudoku-wta",
        num_neurons=729,
        num_steps=num_steps,
        single=single.per_core[0].as_dict(clock_hz=clock),
        dual_per_core=[c.as_dict(clock_hz=clock) for c in dual.per_core],
        dual_system=dual.summary(),
        speedup=speedup,
        clock_hz=clock,
    )


class _HalvedSimulator:
    """Helper producing a simulator for half of the Sudoku population.

    The dual-core Sudoku system assigns ~364 neurons to each core.  Rather
    than re-deriving a half-size WTA graph (which would change the synapse
    statistics), the half share is modelled by running the full kernel on a
    population whose second half is masked out of the update loop via the
    neuron-count register — the per-neuron instruction mix is unchanged.
    """

    @staticmethod
    def build(workload):
        fsim = workload.make_simulator()
        # Patch the NUM_NEURONS immediate: the kernel loads it with
        # `li s0, NUM_NEURONS`; halving the loop count halves the work.
        half = workload.layout.num_neurons // 2
        source = workload.source.replace(
            f".equ NUM_NEURONS, {workload.layout.num_neurons}",
            f".equ NUM_NEURONS, {half}",
        )
        from ..isa.assembler import assemble

        program = assemble(source, origin=workload.program.origin)
        fsim.load_program(program)
        return fsim


# ---------------------------------------------------------------------- #
# Table VII / Fig. 5 — standard-cell mapping
# ---------------------------------------------------------------------- #
def table7_asic(*, cycles_per_update: float = 3.0) -> Dict[str, object]:
    """Regenerate both Table VII columns plus the paper's values."""
    reports = standard_cell_reports(cycles_per_update=cycles_per_update)
    return {"reports": reports, "paper": paper_data.PAPER_TABLE7_ASIC}


def fig5_floorplan() -> Dict[str, object]:
    """Regenerate the Fig. 5 block breakdown for both technologies."""
    model = AsicModel()
    out: Dict[str, object] = {}
    for tech in (FREEPDK45, ASAP7):
        report = model.report(tech)
        out[tech.name] = {
            "summary": floorplan_summary(report),
            "ascii": render_floorplan(report),
        }
    out["npu_fraction"] = model.npu_area_fraction()
    out["dcu_fraction"] = model.dcu_area_fraction()
    return out


# ---------------------------------------------------------------------- #
# Figures 2 / 3 — 80-20 network behaviour
# ---------------------------------------------------------------------- #
def fig2_raster(*, num_steps: int = 1000, backend: str = "fixed") -> Dict[str, object]:
    """Run the full 80-20 network and return the raster + rhythm summary."""
    raster, summary = run_eighty_twenty(num_steps=num_steps, backend=backend)
    return {
        "raster": raster,
        "summary": summary,
        "ascii": render_ascii_raster(raster, max_rows=30, max_cols=100),
    }


def _fig3_variant_task(task: SweepTask) -> Tuple[str, object, Dict[str, object]]:
    """Run one Fig. 3 arithmetic variant (picklable sweep task)."""
    params = dict(task.params)
    name = params.pop("name")
    raster, summary = run_eighty_twenty(**params)
    edges, counts = isi_histogram(raster)
    return name, raster, {"edges": edges, "counts": counts, "summary": summary}


def fig3_isi(
    *, num_steps: int = 1000, executor: Optional[SweepExecutor] = None
) -> Dict[str, object]:
    """Compare ISI histograms across the three arithmetic backends.

    The three variants are independent simulations and run as
    :class:`SweepExecutor` tasks (inline by default; pass a
    process-mode executor to spread them over cores).
    """
    executor = executor if executor is not None else SweepExecutor()
    param_sets = [
        {"name": "double precision", "backend": "float64", "num_steps": num_steps},
        {"name": "fixed point", "backend": "fixed", "num_steps": num_steps},
        {
            "name": "IzhiRISC-V (fixed + DCU decay)",
            "backend": "fixed",
            "current_mode": "decay",
            "num_steps": num_steps,
        },
    ]
    variants: Dict[str, object] = {}
    rasters = {}
    report = executor.execute(SweepSpec(fn=_fig3_variant_task, param_sets=param_sets))
    for name, raster, data in report.results:
        rasters[name] = raster
        variants[name] = data
    reference_counts = variants["double precision"]["counts"]
    similarities = {
        name: histogram_similarity(reference_counts, data["counts"])
        for name, data in variants.items()
    }
    return {"variants": variants, "similarities": similarities, "rasters": rasters}


# ---------------------------------------------------------------------- #
# Figure 4 — WTA connectivity
# ---------------------------------------------------------------------- #
def fig4_wta() -> Dict[str, object]:
    """Structural statistics of the Sudoku WTA inhibition graph."""
    stats = connectivity_statistics()
    return {
        "stats": stats,
        "expected_out_degree": 8 + 8 + 4 + 8,
        "num_neurons": stats.num_neurons,
    }


# ---------------------------------------------------------------------- #
# §VI-C headline numbers
# ---------------------------------------------------------------------- #
def softfloat_speedup(
    *, num_neurons: int = 96, num_steps: int = 3, core_config: Optional[CoreConfig] = None
) -> Dict[str, float]:
    """Estimate the per-timestep speedup over the soft-float baseline."""
    workload = build_eighty_twenty_workload(num_neurons=num_neurons, num_steps=num_steps, kind="extension")
    core = CycleAccurateCore(workload.make_simulator(), core_config)
    counters = core.run()
    cycles_per_update = counters.cycles / max(counters.neuron_updates, 1)
    model = SoftFloatCostModel()
    speedup = estimate_softfloat_speedup(cycles_per_update, model=model)
    return {
        "extension_cycles_per_update": cycles_per_update,
        "softfloat_cycles_per_update": model.cycles_per_update(),
        "speedup": speedup,
        "paper_speedup": paper_data.PAPER_SOFTFLOAT_SPEEDUP,
    }


def sudoku_solve_rate(
    *,
    count: int = 3,
    max_steps: int = 6000,
    target_clues: int = 30,
    seed: int = 1000,
    batched: bool = True,
) -> Dict[str, object]:
    """Solve a set of generated puzzles with the SNN solver (E-S3).

    With ``batched=True`` (default) all puzzles advance together on the
    vectorised batch engine (:meth:`SNNSudokuSolver.solve_batch`), which
    is bit-identical to — and much faster than — the sequential
    ``batched=False`` loop kept as the reference baseline.
    """
    puzzles = generate_puzzle_set(count, base_seed=seed, target_clues=target_clues)
    solver = SNNSudokuSolver()
    if batched:
        results = solver.solve_batch(
            [p.puzzle for p in puzzles], max_steps=max_steps, check_interval=5
        )
    else:
        results = [solver.solve(p.puzzle, max_steps=max_steps, check_interval=5) for p in puzzles]
    solved = sum(1 for r in results if r.solved)
    return {
        "num_puzzles": count,
        "solved": solved,
        "solve_rate": solved / count if count else 0.0,
        "mean_steps": float(np.mean([r.steps for r in results])) if results else 0.0,
        "results": results,
        "clue_counts": [p.num_clues for p in puzzles],
    }


def csp_solve_rate(
    *,
    scenario: str = "coloring",
    count: int = 3,
    max_steps: int = 3000,
    check_interval: int = 10,
    seed: int = 0,
    solver_seed: int = 7,
    backend: str = "fixed",
    batched: bool = True,
    scenario_params: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Solve a set of generated CSP instances with the spiking solver.

    The generic-constraint-solver counterpart of :func:`sudoku_solve_rate`:
    ``count`` deterministic instances of one scenario family (graph
    coloring, N-queens, Latin squares, ... — see
    :mod:`repro.csp.scenarios`) are generated from ``seed + index`` and
    solved on the WTA network.  With ``batched=True`` (default) all
    instances advance together on the exact-mode batch engine
    (:func:`repro.csp.solver.solve_instances`), bit-identical to — and
    much faster than — the sequential ``batched=False`` reference loop.
    """
    from ..csp import SpikingCSPSolver, make_instance
    from ..csp.solver import solve_instances

    params = dict(scenario_params or {})
    # reprolint: disable-next-line=RL002 -- instance-identity seeds (frozen corpus)
    instances = [make_instance(scenario, seed=seed + i, **params) for i in range(count)]
    if batched:
        results = solve_instances(
            instances,
            backend=backend,
            seeds=[solver_seed] * count,
            max_steps=max_steps,
            check_interval=check_interval,
        )
    else:
        results = [
            SpikingCSPSolver(graph, backend=backend, seed=solver_seed).solve(
                clamps, max_steps=max_steps, check_interval=check_interval
            )
            for graph, clamps in instances
        ]
    solved = sum(1 for r in results if r.solved)
    return {
        "scenario": scenario,
        "num_instances": count,
        "num_neurons": instances[0][0].num_neurons if instances else 0,
        "solved": solved,
        "solve_rate": solved / count if count else 0.0,
        "mean_steps": float(np.mean([r.steps for r in results])) if results else 0.0,
        "results": results,
    }


def csp_portfolio_solve_rate(
    *,
    scenario: str = "coloring",
    count: int = 8,
    max_steps: int = 2000,
    check_interval: int = 10,
    seed: int = 0,
    backend: str = "fixed",
    portfolio=None,
    config=None,
    scenario_params: Optional[Dict[str, object]] = None,
    compare_fixed: bool = True,
) -> Dict[str, object]:
    """Restart-portfolio solve-rate experiment on one hard instance pool.

    Runs :func:`repro.csp.portfolio.solve_instances_portfolio` over
    ``count`` deterministic instances (generated from ``seed + index``)
    and, with ``compare_fixed`` (default), the fixed-seed
    :func:`repro.csp.solver.solve_instances` baseline over the *same*
    pool at the *same* global step budget — the restart portfolio's
    contractual claim is a solve rate at least as high for measurably
    fewer total neuron updates, which
    ``benchmarks/bench_csp_solver.py`` gates.

    Both engines draw their per-instance first-attempt seeds from the
    same ``SeedSequence`` scheme, so the baseline is the exact engine the
    portfolio layers restarts onto.
    """
    from ..csp import PortfolioConfig, make_instance
    from ..csp.portfolio import solve_instances_portfolio
    from ..csp.solver import solve_instances
    from ..runtime.sweep import derive_task_seed

    params = dict(scenario_params or {})
    pcfg = portfolio if portfolio is not None else PortfolioConfig()
    # reprolint: disable-next-line=RL002 -- instance-identity seeds (frozen corpus)
    instances = [make_instance(scenario, seed=seed + i, **params) for i in range(count)]
    seeds = [derive_task_seed(pcfg.seed, i) for i in range(count)]
    portfolio_results = solve_instances_portfolio(
        instances,
        config=config,
        portfolio=pcfg,
        backend=backend,
        seeds=seeds,
        max_steps=max_steps,
        check_interval=check_interval,
    )
    summary: Dict[str, object] = {
        "scenario": scenario,
        "num_instances": count,
        "num_neurons": instances[0][0].num_neurons if instances else 0,
        "max_steps": max_steps,
        "solve_rate": (
            sum(r.solved for r in portfolio_results) / count if count else 0.0
        ),
        "total_attempts": int(sum(r.attempts for r in portfolio_results)),
        "neuron_updates": int(sum(r.neuron_updates for r in portfolio_results)),
        "results": portfolio_results,
    }
    if compare_fixed:
        fixed_results = solve_instances(
            instances,
            config=config,
            backend=backend,
            seeds=seeds,
            max_steps=max_steps,
            check_interval=check_interval,
        )
        summary["fixed_solve_rate"] = (
            sum(r.solved for r in fixed_results) / count if count else 0.0
        )
        summary["fixed_neuron_updates"] = int(sum(r.neuron_updates for r in fixed_results))
        summary["fixed_results"] = fixed_results
    return summary

"""Configuration model for reprolint.

The dataclass defaults below encode the repo's real contracts and are
the one source of the lint's configuration: change a contract here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple


@dataclass(frozen=True)
class LayeringConfig:
    """RL001 — declarative import-layer map plus the recomposition seam."""

    #: Repo-relative root of the layered package tree.
    package_root: str = "src/repro"
    #: package name -> layer level; imports may only point level-downward
    #: (or sideways) at module scope.
    layers: Mapping[str, int] = field(
        default_factory=lambda: {
            "isa": 0,
            "sim": 0,
            "fixedpoint": 0,
            "snn": 0,
            "runtime": 1,
            "csp": 2,
            "serve": 3,
        }
    )
    #: Adapter packages sit outside the layer stack: they may import any
    #: layer, and layered code may import them only lazily (function
    #: scope), never at module scope.
    adapters: Tuple[str, ...] = ("harness", "sudoku", "codegen", "hw", "quickstart")
    #: The only subtree allowed to call the batch recomposition mutators
    #: directly.
    seam_owner: str = "src/repro/runtime"
    #: Mutator names owned by ``SlotEngine.recompose``.
    seam_methods: Tuple[str, ...] = ("retain", "extend")


@dataclass(frozen=True)
class DeterminismConfig:
    """RL002 — seeding discipline and wall-clock hygiene."""

    #: Subtrees where RNG construction/seeding is checked.
    rng_scope: Tuple[str, ...] = ("src/repro", "benchmarks", "tools")
    #: Subtrees that must be step-deterministic (no wall-clock reads).
    clock_scope: Tuple[str, ...] = ("src/repro",)
    #: Timing/metrics modules exempt from the wall-clock check (sweep
    #: fabric lease clocks, report timing, CLI stopwatch).
    clock_allow: Tuple[str, ...] = (
        "src/repro/runtime/sweep.py",
        "src/repro/quickstart.py",
    )
    #: ``time.<attr>`` reads treated as wall-clock sources.
    clock_attrs: Tuple[str, ...] = (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    )


@dataclass(frozen=True)
class ExactIntConfig:
    """RL003 — float contamination inside ``# reprolint: exact-int`` regions."""

    #: Subtrees where the region markers are honoured.
    scope: Tuple[str, ...] = ("src/repro",)


@dataclass(frozen=True)
class CrashSafetyConfig:
    """RL004 — durable writes go through the atomic helper; os._exit is gated."""

    #: Modules whose file writes must be temp+fsync+rename atomic.
    durable_modules: Tuple[str, ...] = (
        "src/repro/runtime/checkpoint.py",
        "src/repro/runtime/cache.py",
        "src/repro/serve/journal.py",
    )
    #: Subtrees where ``os._exit`` is only legal as the FaultPlan crash seam.
    exit_scope: Tuple[str, ...] = ("src/repro",)
    #: The attribute name marking a sanctioned fault-injection exit.
    fault_exit_attr: str = "CRASH_EXIT_CODE"


@dataclass(frozen=True)
class WorkerHygieneConfig:
    """RL005 — sweep task functions must be picklable and side-effect free."""

    #: Constructors whose ``fn`` argument is a sweep task function.
    spec_names: Tuple[str, ...] = ("SweepSpec",)


@dataclass(frozen=True)
class ReprolintConfig:
    """Top-level reprolint configuration."""

    roots: Tuple[str, ...] = ("src", "tools", "benchmarks")
    exclude: Tuple[str, ...] = ("__pycache__", ".git", "build", "dist", ".venv")
    #: Rule ids disabled wholesale (e.g. ``["RL005"]``).
    disable: Tuple[str, ...] = ()
    #: Flag ``# reprolint: disable=...`` comments that suppressed nothing.
    check_unused_suppressions: bool = True
    rl001: LayeringConfig = field(default_factory=LayeringConfig)
    rl002: DeterminismConfig = field(default_factory=DeterminismConfig)
    rl003: ExactIntConfig = field(default_factory=ExactIntConfig)
    rl004: CrashSafetyConfig = field(default_factory=CrashSafetyConfig)
    rl005: WorkerHygieneConfig = field(default_factory=WorkerHygieneConfig)


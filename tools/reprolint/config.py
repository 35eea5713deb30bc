"""Configuration model for reprolint.

Defaults below encode the repo's real contracts; ``[tool.reprolint]`` in
``pyproject.toml`` can override any of them (keys may be spelled in
kebab-case, TOML style, or snake_case).  On interpreters without
``tomllib``/``tomli`` the built-in defaults — kept identical to the
committed ``pyproject.toml`` — are used, so the lint behaves the same
everywhere it can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple


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


def _load_toml(path: Path) -> Optional[Dict[str, Any]]:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def _normalise(table: Mapping[str, Any]) -> Dict[str, Any]:
    """kebab-case TOML keys -> snake_case dataclass fields."""
    return {str(key).replace("-", "_"): value for key, value in table.items()}


def _coerce(value: Any, template: Any) -> Any:
    """Coerce a TOML value onto the default's shape (tuples stay tuples)."""
    if isinstance(template, tuple) and isinstance(value, list):
        return tuple(value)
    if isinstance(template, Mapping) and isinstance(value, Mapping):
        return {str(key): int(level) for key, level in value.items()}
    return value


def _apply(instance: Any, table: Mapping[str, Any]) -> Any:
    updates: Dict[str, Any] = {}
    known = {f.name: getattr(instance, f.name) for f in fields(instance)}
    for key, value in _normalise(table).items():
        if key in known and not isinstance(known[key], (LayeringConfig, DeterminismConfig, ExactIntConfig, CrashSafetyConfig, WorkerHygieneConfig)):
            updates[key] = _coerce(value, known[key])
    return replace(instance, **updates) if updates else instance


def load_config(repo_root: Path, *, pyproject: Optional[Path] = None) -> ReprolintConfig:
    """Build the effective config from ``pyproject.toml`` under ``repo_root``."""
    config = ReprolintConfig()
    path = pyproject if pyproject is not None else repo_root / "pyproject.toml"
    data = _load_toml(path)
    if not data:
        return config
    table = data.get("tool", {}).get("reprolint")
    if not isinstance(table, Mapping):
        return config
    config = _apply(config, table)
    for name in ("rl001", "rl002", "rl003", "rl004", "rl005"):
        sub = table.get(name)
        if isinstance(sub, Mapping):
            config = replace(config, **{name: _apply(getattr(config, name), sub)})
    return config

"""RL002 — seeding discipline and wall-clock hygiene.

Three determinism contracts, each one a bug class this repo has already
paid for:

* **No unseeded or global RNG.**  ``np.random.default_rng()`` with no
  argument, the legacy ``np.random.*`` module-level generators, and the
  stdlib ``random`` module all produce process-dependent streams that
  break bit-identical replay.
* **No raw seed arithmetic.**  ``seed + i`` yields correlated streams
  for neighbouring indices (the ``[seed]*N`` replica bias fixed in
  PR 5).  Seeds must route through ``numpy.random.SeedSequence`` or the
  ``derive_*`` helpers; arithmetic is fine *inside* those calls (salting
  the entropy pool is exactly what they are for).  The deliberate
  frozen-corpus enumerations (instance-identity seeds) carry inline
  waivers.
* **No wall-clock reads in step-deterministic layers.**  ``time.time``
  / ``monotonic`` / ``perf_counter`` values leaking into solve state
  make runs unreplayable.  Timing/metrics modules are allowlisted in
  ``DeterminismConfig.clock_allow``; the serve tier's injectable
  clock seam carries an inline waiver.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..config import ReprolintConfig
from ..engine import SourceFile, Violation, dotted_name, in_scope, terminal_name
from . import register

#: Legacy module-level generators on ``numpy.random``.
_NP_GLOBAL_RNG = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "bytes",
    "shuffle",
    "permutation",
    "normal",
    "standard_normal",
    "uniform",
    "exponential",
    "poisson",
    "binomial",
    "beta",
    "gamma",
    "laplace",
    "lognormal",
    "multinomial",
    "geometric",
}

#: Mixing entry points inside which seed arithmetic is sanctioned.
_MIXER_PREFIX = "derive_"
_MIXER_NAMES = {"SeedSequence"}

_SEED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.BitXor)


def _is_seedish(node: ast.AST) -> Optional[str]:
    name = terminal_name(node)
    if name is None:
        return None
    lowered = name.lower()
    if "seed" in lowered and not lowered.endswith("seeds"):
        return name
    return None


@register
class DeterminismRule:
    rule_id = "RL002"
    name = "determinism"
    description = (
        "seeds route through SeedSequence/derive_*; no unseeded/global RNG; "
        "no wall-clock reads in step-deterministic layers"
    )

    def check(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        if source.tree is None:
            return []
        cfg = config.rl002
        violations: List[Violation] = []
        if in_scope(source.rel, cfg.rng_scope):
            violations.extend(self._check_rng(source))
            violations.extend(self._check_seed_arithmetic(source))
        if in_scope(source.rel, cfg.clock_scope) and source.rel not in cfg.clock_allow:
            violations.extend(self._check_clocks(source, cfg.clock_attrs))
        return violations

    # ------------------------------------------------------------------ #
    def _check_rng(self, source: SourceFile) -> List[Violation]:
        violations: List[Violation] = []
        stdlib_random_names: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_random_names.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random" and node.level == 0:
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        node.lineno,
                        node.col_offset,
                        "stdlib 'random' has process-global state — use a seeded "
                        "numpy Generator (np.random.default_rng(seed))",
                    )
                )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            tail = dotted.split(".")
            if tail[-1] == "default_rng" and not node.args and not node.keywords:
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        node.lineno,
                        node.col_offset,
                        "unseeded default_rng() — every stream must derive from an "
                        "explicit seed (SeedSequence / derive_task_seed)",
                    )
                )
            elif (
                len(tail) >= 2
                and tail[-2] == "random"
                and tail[0] in ("np", "numpy")
                and tail[-1] in _NP_GLOBAL_RNG
            ):
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        node.lineno,
                        node.col_offset,
                        f"module-level numpy RNG 'np.random.{tail[-1]}' shares "
                        "process-global state — use a seeded Generator instance",
                    )
                )
            elif (
                len(tail) == 2
                and tail[0] in stdlib_random_names
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        node.lineno,
                        node.col_offset,
                        f"stdlib '{dotted}' has process-global state — use a seeded "
                        "numpy Generator instead",
                    )
                )
        return violations

    # ------------------------------------------------------------------ #
    def _check_seed_arithmetic(self, source: SourceFile) -> List[Violation]:
        sanctioned: Set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name and (name in _MIXER_NAMES or name.startswith(_MIXER_PREFIX)):
                    for child in ast.walk(node):
                        sanctioned.add(id(child))
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, _SEED_BINOPS):
                continue
            if id(node) in sanctioned:
                continue
            name = _is_seedish(node.left) or _is_seedish(node.right)
            if name is None:
                continue
            violations.append(
                Violation(
                    self.rule_id,
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    f"raw seed arithmetic on '{name}' — neighbouring values produce "
                    "correlated streams; route through SeedSequence / derive_task_seed "
                    "(arithmetic inside those calls is fine)",
                )
            )
        return violations

    # ------------------------------------------------------------------ #
    def _check_clocks(self, source: SourceFile, clock_attrs) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not (isinstance(node.value, ast.Name) and node.value.id == "time"):
                continue
            if node.attr not in clock_attrs:
                continue
            violations.append(
                Violation(
                    self.rule_id,
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read 'time.{node.attr}' in a step-deterministic "
                    "layer — inject a clock (see SolveService(clock=...)) or add "
                    "the module to DeterminismConfig.clock_allow (tools/reprolint/config.py)",
                )
            )
        return violations

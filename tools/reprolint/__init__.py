"""reprolint — AST-based invariant lints for the reproduction repo.

The repo's correctness story rests on a handful of contracts that are
easy to regress through ordinary refactors: strict import layering with
the batch-recomposition seam (RL001), SeedSequence-routed seeding and
injectable clocks (RL002), bit-exact integer kernels (RL003), atomic
temp+fsync+rename persistence (RL004) and picklable, side-effect-free
sweep task functions (RL005).  ``reprolint`` machine-checks all five::

    python -m tools.reprolint src tools benchmarks

Each rule is a plugin registered in :mod:`tools.reprolint.rules`;
per-rule configuration is the :class:`ReprolintConfig` dataclass in
:mod:`tools.reprolint.config`, and individual findings can be waived
inline with ``# reprolint: disable=RLxxx -- reason`` comments (unused
waivers are themselves flagged).  See ``docs/LINTING.md`` for the full
contract catalogue.
"""

from .config import ReprolintConfig
from .engine import LintResult, SourceFile, Violation, run_reprolint

__all__ = [
    "LintResult",
    "ReprolintConfig",
    "SourceFile",
    "Violation",
    "run_reprolint",
]

__version__ = "1.0"

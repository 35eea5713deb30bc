"""RL001 — import layering and the batch-recomposition seam.

The layered package stack (``isa``/``sim``/``fixedpoint``/``snn`` <
``runtime`` < ``csp`` < ``serve``) keeps the bit-exactness contracts
auditable: a lower layer never executes higher-layer code at import
time.  Two kinds of edge are special:

* **Adapters** (``harness``, ``sudoku``, ``codegen``, ``hw``,
  ``quickstart``) sit outside the stack.  They may import any layer;
  layered code may reach *into* an adapter only through a deferred
  (function-scope) import — the workload-registration seams in
  ``runtime/backends.py``/``workloads.py`` are the sanctioned examples.
* **Upward edges** inside the stack are legal only when deferred, for
  the same reason: importing the lower layer must never pull the higher
  one in.  Promoting one of these lazy imports to module scope is the
  classic "cleanup" regression this rule exists to catch.

The rule also guards the recomposition seam: direct
``BatchedNetwork.retain``/``.extend`` calls outside ``repro.runtime``
would let batch composition order drift between layers —
``SlotEngine.recompose`` is the single owner of that seam.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from ..config import ReprolintConfig
from ..engine import SourceFile, Violation, dotted_name
from . import register

_BATCH_RECEIVER_RE = re.compile(r"batch", re.IGNORECASE)


@register
class LayeringRule:
    rule_id = "RL001"
    name = "layering"
    description = (
        "module-scope imports must point down the layer stack; batch "
        "recomposition stays inside repro.runtime"
    )

    # ------------------------------------------------------------------ #
    def check(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        cfg = config.rl001
        prefix = cfg.package_root.rstrip("/") + "/"
        if source.tree is None or not source.rel.startswith(prefix):
            return []
        rel_in_pkg = source.rel[len(prefix) :]
        parts = rel_in_pkg.split("/")
        source_pkg = parts[0][:-3] if len(parts) == 1 else parts[0]
        if source_pkg == "__init__":
            # The top-level package facade re-exports freely.
            return []
        violations: List[Violation] = []
        if source_pkg not in cfg.adapters:
            violations.extend(self._check_imports(source, config, source_pkg, parts))
        if not source.rel.startswith(cfg.seam_owner.rstrip("/") + "/"):
            violations.extend(self._check_seam(source, config))
        return violations

    # ------------------------------------------------------------------ #
    def _check_imports(
        self,
        source: SourceFile,
        config: ReprolintConfig,
        source_pkg: str,
        parts: List[str],
    ) -> List[Violation]:
        cfg = config.rl001
        source_level = cfg.layers.get(source_pkg)
        if source_level is None:
            return []
        # Module path (for resolving relative imports): repro.<pkg>....
        module_parts = ["repro"] + parts
        module_parts[-1] = module_parts[-1][:-3]
        if module_parts[-1] == "__init__":
            module_parts.pop()
            package_parts = module_parts
        else:
            package_parts = module_parts[:-1]

        violations: List[Violation] = []
        for node, deferred in _walk_imports(source.tree):
            for target in _import_targets(node, package_parts):
                if target == source_pkg:
                    continue
                if target in cfg.adapters:
                    if not deferred:
                        violations.append(
                            Violation(
                                self.rule_id,
                                source.rel,
                                node.lineno,
                                node.col_offset,
                                f"module-scope import of adapter package "
                                f"'repro.{target}' from layered package "
                                f"'repro.{source_pkg}' — adapters may only be "
                                "imported lazily (function scope)",
                            )
                        )
                    continue
                target_level = cfg.layers.get(target)
                if target_level is None or target_level <= source_level:
                    continue
                if not deferred:
                    violations.append(
                        Violation(
                            self.rule_id,
                            source.rel,
                            node.lineno,
                            node.col_offset,
                            f"upward import: 'repro.{source_pkg}' (layer "
                            f"{source_level}) imports 'repro.{target}' (layer "
                            f"{target_level}) at module scope — defer it to "
                            "function scope or invert the dependency",
                        )
                    )
        return violations

    # ------------------------------------------------------------------ #
    def _check_seam(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        cfg = config.rl001
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in cfg.seam_methods:
                continue
            receiver = dotted_name(node.func.value)
            if method == "extend" and not _BATCH_RECEIVER_RE.search(receiver):
                continue
            violations.append(
                Violation(
                    self.rule_id,
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    f"{receiver or '<expr>'}.{method}(...) — batch recomposition "
                    "is owned by repro.runtime.slots.SlotEngine.recompose",
                )
            )
        return violations


# ---------------------------------------------------------------------- #
def _walk_imports(tree: ast.AST) -> List[Tuple[ast.stmt, bool]]:
    """Every import statement with a flag: is it deferred (function scope
    or under ``if TYPE_CHECKING:``)?"""
    found: List[Tuple[ast.stmt, bool]] = []

    def visit(node: ast.AST, deferred: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, deferred))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, True)
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                visit(child, True)
            else:
                visit(child, deferred)

    visit(tree, False)
    return found


def _is_type_checking(test: ast.AST) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def _import_targets(node: ast.stmt, package_parts: List[str]) -> List[str]:
    """Top-level ``repro`` subpackages an import statement reaches."""
    targets: List[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            pieces = alias.name.split(".")
            if pieces[0] == "repro" and len(pieces) > 1:
                targets.append(pieces[1])
    elif isinstance(node, ast.ImportFrom):
        base: Optional[List[str]]
        if node.level == 0:
            base = []
        elif node.level == 1:
            base = list(package_parts)
        else:
            hops = node.level - 1
            base = list(package_parts[:-hops]) if hops <= len(package_parts) else None
        if base is None:
            return targets
        full = base + (node.module.split(".") if node.module else [])
        if full and full[0] == "repro":
            if len(full) > 1:
                targets.append(full[1])
            else:
                # ``from repro import x`` / ``from .. import x`` at the top:
                # each imported name is itself a subpackage.
                targets.extend(alias.name for alias in node.names)
    return targets

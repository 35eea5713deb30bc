#!/usr/bin/env python3
"""Docs lint: fail if README/docs reference paths or names that don't exist.

Scans Markdown files for path-like tokens inside inline code spans and
fenced code blocks (anything that looks like ``dir/file`` rooted at a
known top-level directory, plus top-level files like ``pyproject.toml``)
and verifies each one exists relative to the repository root.  Keeps the
figure/table index in the README and the module references in the docs
from rotting as the tree evolves.

Dotted names in the same spans and blocks — ``repro.<module>``,
``repro.<module>.<name>`` and ``repro.<module>.<name>.<member>`` — must
resolve too: the longest prefix to a module file under ``src/``, the
next part to a top-level binding of that module (def, class, assignment
or import), the last to a member of that class (a def, class or
assignment in its body, or a ``self.<member>`` assignment in one of its
methods).  Resolution parses the sources with ``ast`` and imports
nothing, so the lint needs no NumPy or SciPy.

GitHub Actions workflow files (``.github/workflows/*.yml``) are checked
too — every line is treated as code — so CI steps that invoke scripts or
benchmark files (``tools/check_bench_regression.py``,
``benchmarks/bench_csp_solver.py``, ...) break the docs lint instead of
the live pipeline when a referenced file is moved.

Usage:  python tools/check_readme_paths.py [files...]
        (defaults to README.md, docs/*.md and .github/workflows/*.yml)

Exit status: 0 when every referenced path and name exists, 1 otherwise.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: Top-level directories whose mention must resolve to a real path.
KNOWN_ROOTS = ("src", "tests", "benchmarks", "examples", "docs", "tools", ".github")

#: Path prefixes of generated (gitignored) outputs: referenced from docs
#: and CI but absent in a fresh checkout, so existence is not required.
#: The committed reference copies under ``benchmarks/baselines/`` do not
#: match these prefixes and stay fully checked.
GENERATED_PREFIXES = ("benchmarks/BENCH_",)

#: Top-level files whose mention must resolve.
KNOWN_FILES = (
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "pyproject.toml",
    "setup.py",
    "conftest.py",
)

_PATH_RE = re.compile(
    r"(?<![\w./-])((?:" + "|".join(re.escape(r) for r in KNOWN_ROOTS) + r")/[\w./-]+)"
)
_DOTTED_RE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_FENCE_RE = re.compile(r"^(```|~~~)")


def _code_segments(text: str, *, all_code: bool = False):
    """Inline code spans and fenced-block lines of a Markdown text.

    With ``all_code=True`` (workflow / script files) every line is a
    segment, not just Markdown code.
    """
    in_fence = False
    for line in text.splitlines():
        if not all_code and _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if all_code or in_fence:
            yield line
        else:
            yield from (m.group(1) for m in _CODE_SPAN_RE.finditer(line))


def _candidate_paths(text: str, *, all_code: bool = False) -> set:
    """Path-like tokens from code spans and fenced code blocks."""
    candidates = set()
    for segment in _code_segments(text, all_code=all_code):
        for match in _PATH_RE.finditer(segment):
            candidates.add(match.group(1))
        for name in KNOWN_FILES:
            if re.search(rf"(?<![\w./-]){re.escape(name)}(?![\w-])", segment):
                candidates.add(name)
    return candidates


def _dotted_names(text: str) -> set:
    """``repro.…`` dotted names from code spans and fenced code blocks."""
    return {m.group(0) for segment in _code_segments(text) for m in _DOTTED_RE.finditer(segment)}


def _module_file(parts) -> "Path | None":
    """The source file of module ``parts`` under ``src/``, if there is one."""
    base = SRC_ROOT.joinpath(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _bound_names(body) -> dict:
    """Name -> defining node of a statement list's bindings.

    Descends into ``if`` / ``try`` / ``with`` blocks (conditional
    definitions still bind) but not into function or class bodies.
    """
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                nested = getattr(node, field, None)
                if isinstance(nested, list):
                    names.update(_bound_names(nested))
    return names


def _class_members(node: ast.ClassDef) -> set:
    """Names a class body binds, plus ``self.<name>`` assignments in its methods."""
    members = set(_bound_names(node.body))
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for leaf in ast.walk(method):
            if (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.ctx, ast.Store)
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id == "self"
            ):
                members.add(leaf.attr)
    return members


@functools.lru_cache(maxsize=None)
def _module_bindings(path: Path) -> dict:
    return _bound_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body)


def resolves(dotted: str) -> bool:
    """Whether ``repro.<module>[.<name>[.<member>]]`` names real source."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        path = _module_file(parts[:split])
        if path is not None:
            break
    else:
        return False
    rest = parts[split:]
    if not rest:
        return True
    if len(rest) > 2:
        return False
    node = _module_bindings(path).get(rest[0])
    if node is None:
        return False
    if len(rest) == 1:
        return True
    return isinstance(node, ast.ClassDef) and rest[1] in _class_members(node)


def _normalise(token: str) -> str:
    """Strip trailing punctuation; reduce glob/placeholder refs to their dir."""
    token = token.rstrip(".,:;")
    # A token ending in "_" or "-" is the prefix of a glob like
    # "benchmarks/bench_*.py" (the path regex stops at "*"): validate the
    # directory part instead of the truncated filename.
    if token.endswith(("_", "-")):
        token = token.rsplit("/", 1)[0] if "/" in token else ""
    return token


def check_file(markdown: Path) -> list:
    text = markdown.read_text(encoding="utf-8")
    all_code = markdown.suffix in (".yml", ".yaml")
    missing = []
    if not all_code:
        source = _relative(markdown)
        missing.extend((source, name) for name in sorted(_dotted_names(text)) if not resolves(name))
    for token in sorted(_candidate_paths(text, all_code=all_code)):
        cleaned = _normalise(token)
        if not cleaned or cleaned.endswith("/"):
            cleaned = cleaned.rstrip("/")
        if not cleaned:
            continue
        if cleaned.startswith(GENERATED_PREFIXES):
            continue
        target = REPO_ROOT / cleaned
        if not target.exists():
            missing.append((_relative(markdown), token))
    return missing


def _relative(path: Path) -> Path:
    """``path`` relative to the repository root when it lies inside it."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def main(argv: list) -> int:
    if argv:
        files = [Path(a).resolve() for a in argv]
    else:
        workflows = REPO_ROOT / ".github" / "workflows"
        files = (
            [REPO_ROOT / "README.md"]
            + sorted((REPO_ROOT / "docs").glob("*.md"))
            + sorted(workflows.glob("*.yml"))
            + sorted(workflows.glob("*.yaml"))
        )
    files = [f for f in files if f.exists()]
    if not files:
        print("check_readme_paths: no markdown files found", file=sys.stderr)
        return 1
    failures = []
    for markdown in files:
        failures.extend(check_file(markdown))
    if failures:
        print("check_readme_paths: references to nonexistent paths or names:", file=sys.stderr)
        for source, token in failures:
            print(f"  {source}: {token}", file=sys.stderr)
        return 1
    print(f"check_readme_paths: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

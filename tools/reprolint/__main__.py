"""CLI: ``python -m tools.reprolint [roots...]``.

Exit codes: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .config import ReprolintConfig
from .engine import run_reprolint
from .rules import get_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="AST-based invariant lints for the reproduction repo "
        "(layering, determinism, exact-int, crash safety, worker hygiene).",
    )
    parser.add_argument(
        "roots",
        nargs="*",
        help="repo-relative files/directories to lint (default: the configured roots)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="stdout format (default: human)",
    )
    parser.add_argument(
        "--json-report",
        metavar="PATH",
        help="additionally write a machine-readable JSON report to PATH",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--version", action="version", version=f"reprolint {__version__}"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0

    config = ReprolintConfig()
    roots = tuple(args.roots) if args.roots else config.roots
    try:
        result = run_reprolint(REPO_ROOT, roots, config)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    if args.json_report:
        result.write_json_report(Path(args.json_report))
    if args.format == "json":
        print(json.dumps(result.as_json(), indent=2, sort_keys=True))
    else:
        print(result.render_text())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks of the benchmark: solutions, the serve ledger, digests."""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def result_problems(graph: Any, clamps: Any, result: Any,
                    expected: Optional[np.ndarray] = None) -> List[str]:
    """Everything wrong with one ``CSPSolveResult`` (empty when it is right).

    A result flagged solved must pass ``ConstraintGraph.is_solution``,
    honour every clamp and, where the instance has a known unique
    solution, equal it; a result flagged unsolved must not be a solution.
    """
    values = np.asarray(result.values)
    decided = np.asarray(result.decided)
    is_solution = graph.is_solution(values, decided)
    if bool(result.solved) != bool(is_solution):
        return [f"solved={result.solved} but is_solution={is_solution}"]
    if not result.solved:
        return []
    problems = []
    for var, value, _ in graph.resolve_clamps(clamps):
        if int(values[var]) != int(value):
            problems.append(f"clamp on variable {var} broken: {int(values[var])} != {value}")
    if expected is not None and not np.array_equal(values, expected):
        problems.append("assignment differs from the instance's unique solution")
    return problems


def ledger_problems(snapshot: Mapping[str, float], submitted: int) -> List[str]:
    """Conservation of the serve ledger after a drained pass."""
    s = snapshot
    problems = []
    if s["served"] + s["shed"] + s["cancelled"] + s["in_flight"] != s["submitted"]:
        problems.append(
            f"ledger not conserved: served {s['served']} + shed {s['shed']} + cancelled "
            f"{s['cancelled']} + in_flight {s['in_flight']} != submitted {s['submitted']}"
        )
    if s["submitted"] != submitted:
        problems.append(f"service saw {s['submitted']} submissions, the load sent {submitted}")
    if s["in_flight"] != 0:
        problems.append(f"{s['in_flight']} requests still in flight after the drain")
    return problems


def digest(rows: Iterable[Tuple[Any, ...]]) -> str:
    """SHA-256 over per-request ``(id, seed, steps, spikes, values, ...)`` rows.

    Arrays contribute their bytes, everything else its ``repr``.
    """
    h = hashlib.sha256()
    for row in rows:
        for item in row:
            if isinstance(item, np.ndarray):
                h.update(np.ascontiguousarray(item).tobytes())
            else:
                h.update(repr(item).encode())
            h.update(b"\x1f")
        h.update(b"\x1e")
    return h.hexdigest()


def digest_problems(digests: Sequence[str]) -> List[str]:
    """Every pass of one run must produce the same per-request results."""
    if len(set(digests)) > 1:
        return [f"passes disagree: result digests {sorted(set(digests))}"]
    return []

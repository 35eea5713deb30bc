"""The three benchmark workloads: inputs from a seed, one timed pass each.

``solve_sudoku``
    One closed-loop caller makes 4 offline ``solve_instances`` calls per
    pass, each on B=32 distinct Sudoku puzzles (N=729, shared graph).
``serve_coloring``
    A plain ``SolveService`` (capacity 32) driven by a seeded Poisson open
    loop from 4 clients over planted 3-coloring instances (12 vertices,
    N=36) drawn with repeats from a pool.
``serve_coloring_durable``
    The same open loop with the admission journal and periodic engine
    checkpoints on.

Instances come from fixed corpora (the committed ``data/sudoku-50.txt``,
coloring generator seeds ``0..n-1``) with fixed solver noise (each
instance's ``noise_seed``, on serve too), so every instance costs the
same work on every seed and every commit.  The seed draws the traffic:
which puzzles share a ``solve_instances`` call, and the serve arrival
times and pool picks.  Seed-to-seed spread then measures the program and
the host, not the luck of the draw of a stochastic solver whose solve
times are heavy-tailed.

Arrivals run on the service's step clock (``clock="steps"``), so the
requests that share a batch, and therefore every served result and every
step latency, are the same on every pass and every commit.  Wall latency
is timed per request from the release of its ``wait_for_step(arrival)``
to its result.

A :class:`Workload` is built from a seed and a :class:`Scale`;
:meth:`Workload.setup` makes the inputs and warms the program up, and
:meth:`Workload.run_pass` runs the whole input set once and returns a
:class:`PassOutcome`.  Nothing here changes the program under test.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
from tracing import REQUEST_ID

WORKLOADS = ("solve_sudoku", "serve_coloring", "serve_coloring_durable")
CORPUS = Path(__file__).resolve().parent / "data" / "sudoku-50.txt"
#: Root of the corpus instances' solver noise and the service seed.
CORPUS_NOISE_ROOT = 2025
#: Scheduler steps per wall-clock segment of a serve pass.
TICK_STEPS = 50
#: Decode cadence, also the serve scheduler's yield window, in steps.
CHECK_INTERVAL = 10
#: Serve batch rows kept hot; coloring instances' vertices (N = 3 * 12)
#: and edge density (easy enough that nearly all solve within budget).
CAPACITY = 32
VERTICES = 12
EDGE_PROBABILITY = 0.3


@dataclass(frozen=True)
class Scale:
    """Size of a workload's input set (see :data:`SCALES`)."""

    #: solve_sudoku: ``solve_instances`` calls per pass, B instances each.
    calls: int = 1
    batch: int = 32
    #: Serve: clients, requests per client, distinct instances in the
    #: pool and mean arrival gap per client (in scheduler steps).
    clients: int = 4
    requests_per_client: int = 26
    unique: int = 40
    mean_interarrival_steps: float = 40.0
    #: Per-request (per-instance) step budget.
    max_steps: int = 3000
    #: Nominal wall time of one pass on the 2-core reference host.  A run
    #: makes ``--seconds / pass_seconds`` passes, a count that does not
    #: depend on how fast the program under test is.
    pass_seconds: float = 1.0


SCALES: Dict[str, Scale] = {
    "solve_sudoku": Scale(calls=4, batch=32, max_steps=500, pass_seconds=1.6),
    "serve_coloring": Scale(requests_per_client=100, unique=320, mean_interarrival_steps=16.0,
                            max_steps=1500, pass_seconds=1.2),
    "serve_coloring_durable": Scale(requests_per_client=100, unique=320,
                                    mean_interarrival_steps=16.0, max_steps=1500,
                                    pass_seconds=1.7),
}

#: Sizes small enough for the benchmark's own tests (well under a second a pass).
TINY: Dict[str, Scale] = {
    "solve_sudoku": Scale(calls=1, batch=3, max_steps=200),
    "serve_coloring": Scale(clients=2, requests_per_client=4, unique=3,
                            mean_interarrival_steps=5.0, max_steps=300),
    "serve_coloring_durable": Scale(clients=2, requests_per_client=4, unique=3,
                                    mean_interarrival_steps=5.0, max_steps=300),
}


@dataclass
class Instance:
    graph: Any
    clamps: Dict[str, int]
    #: The unique solution's values, where the generator knows it.
    expected: Optional[np.ndarray] = None
    #: Solver noise seed, given to ``solve_instances`` offline and to
    #: ``SolveService.submit`` on serve.  Left to the service, a request's
    #: seed would come from its content key, which folds in a fingerprint
    #: of the ``repro`` source, so any source edit would reseed it.
    noise_seed: int = 0


@dataclass
class PassOutcome:
    """What one pass did, as measured and as checked.

    The pass's wall time comes as consecutive segments that do the same
    work on every pass (one ``solve_instances`` call, or the scheduler
    steps between two clock ticks), so a run can take each segment's
    fastest repetition.
    """

    units_s: List[float]
    attempted: int
    failed: int
    solved: int
    #: Simulated neuron updates (neurons x sub-steps x row-steps).
    neuron_updates: int
    #: Wall latency per request id (per call offline); None if it failed.
    latencies_ms: List[Optional[float]]
    latencies_steps: List[int]
    digest: str
    problems: List[str]
    #: Serve only: deterministic scheduling figures of the pass.
    queue_wait_steps: List[int] = field(default_factory=list)
    late_steps: List[int] = field(default_factory=list)
    occupancy: float = 0.0
    dedup_ratio: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.units_s)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *salt])


def _noise_seed(corpus_index: int) -> int:
    """The fixed solver noise seed of one corpus instance."""
    return int(_rng(CORPUS_NOISE_ROOT, corpus_index).integers(2**63))


def sudoku_corpus(count: int) -> List[Instance]:
    """The first ``count`` committed Sudoku puzzles (see ``make_corpus.py``)."""
    from repro.csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
    from repro.sudoku.board import SudokuBoard

    graph = shared_sudoku_graph()
    lines = [line.split() for line in CORPUS.read_text().splitlines() if line.strip()]
    if count > len(lines):
        raise ValueError(f"the corpus holds {len(lines)} puzzles, {count} asked for")
    return [
        Instance(graph, clamps_from_cells(SudokuBoard.from_string(puzzle).cells),
                 SudokuBoard.from_string(solution).cells.reshape(-1), _noise_seed(j))
        for j, (puzzle, solution) in enumerate(lines[:count])
    ]


def coloring_corpus(count: int) -> List[Instance]:
    """``count`` planted 3-coloring instances (generator seeds ``0..count-1``)."""
    from repro.csp.scenarios import make_instance

    return [
        Instance(*make_instance("coloring", seed=j, num_vertices=VERTICES, num_colors=3,
                                edge_probability=EDGE_PROBABILITY), noise_seed=_noise_seed(j))
        for j in range(count)
    ]


def arrival_schedule(seed: int, scale: Scale) -> List[Tuple[int, int, int]]:
    """``(arrival_step, client, pool_index)`` per request, in request-id order.

    Each client is a Poisson process over scheduler steps conditioned on
    its request count: its arrivals are sorted uniform draws over a fixed
    span of ``requests_per_client * mean_interarrival_steps`` steps, so
    every seed offers the same load over the same span.  The pool picks
    cover every pool instance once before drawing repeats uniformly, in a
    seeded order.
    """
    total = scale.clients * scale.requests_per_client
    rng = _rng(seed, 1)
    picks = np.concatenate([rng.permutation(scale.unique),
                            rng.integers(0, scale.unique, size=max(0, total - scale.unique))])
    picks = rng.permutation(picks[:total])
    span = scale.requests_per_client * scale.mean_interarrival_steps
    schedule = []
    for client in range(scale.clients):
        draws = _rng(seed, 2, client).uniform(0.0, span, size=scale.requests_per_client)
        arrivals = np.maximum(1, np.ceil(np.sort(draws))).astype(np.int64)
        mine = picks[client * scale.requests_per_client:(client + 1) * scale.requests_per_client]
        schedule.extend((int(a), client, int(p)) for a, p in zip(arrivals, mine))
    return schedule


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One workload at one seed; see the module docstring."""

    def __init__(self, name: str, seed: int, *, scale: Optional[Scale] = None,
                 work_dir: str = ".") -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = int(seed)
        self.scale = scale if scale is not None else SCALES[name]
        self.work_dir = work_dir
        self.instances: List[Instance] = []
        self.schedule: List[Tuple[int, int, int]] = []
        self._passes = 0

    @property
    def durable(self) -> bool:
        return self.name.endswith("_durable")

    def setup(self) -> None:
        """Make the inputs from the seed and run a small warm-up."""
        s = self.scale
        if self.name == "solve_sudoku":
            corpus = sudoku_corpus(s.calls * s.batch)
            self.instances = [corpus[j] for j in _rng(self.seed, 3).permutation(len(corpus))]
        else:
            self.instances = coloring_corpus(s.unique)
        self.schedule = [] if self.name == "solve_sudoku" else arrival_schedule(self.seed, s)
        self._warm_up()

    def _warm_up(self) -> None:
        """Touch every code path once on a few short solves (results unused)."""
        warm = replace(self.scale, calls=1, batch=2, clients=1, requests_per_client=2,
                       max_steps=2 * CHECK_INTERVAL)
        if self.name == "solve_sudoku":
            self._solve_pass(warm, self.instances[:2])
        else:
            schedule = [(1, 0, 0), (1, 0, min(1, len(self.instances) - 1))]
            asyncio.run(self._serve_pass(warm, schedule, tag="warmup"))

    def run_pass(self) -> PassOutcome:
        self._passes += 1
        if self.name == "solve_sudoku":
            return self._solve_pass(self.scale, self.instances)
        return asyncio.run(self._serve_pass(self.scale, self.schedule, tag=f"pass{self._passes}"))

    # ------------------------------------------------------------------ #
    def _solve_pass(self, scale: Scale, instances: List[Instance]) -> PassOutcome:
        from repro.csp import solver as csp_solver

        seeds = [inst.noise_seed for inst in instances]
        results, walls = [], []
        for lo in range(0, len(instances), scale.batch):
            chunk = instances[lo:lo + scale.batch]
            t0 = time.perf_counter()
            # Looked up on the module at call time, so a traced pass
            # goes through the traced entry point.
            results.extend(csp_solver.solve_instances(
                [(inst.graph, inst.clamps) for inst in chunk],
                seeds=seeds[lo:lo + scale.batch],
                max_steps=scale.max_steps,
                check_interval=CHECK_INTERVAL,
            ))
            walls.append(time.perf_counter() - t0)

        problems, failed, rows = [], 0, []
        for i, (inst, result) in enumerate(zip(instances, results)):
            found = checks.result_problems(inst.graph, inst.clamps, result, inst.expected)
            failed += bool(found)
            problems.extend(f"instance {i}: {p}" for p in found)
            rows.append((i, seeds[i], result.solved, result.steps, result.total_spikes,
                         result.values, result.decided))
        return PassOutcome(
            units_s=walls,
            attempted=len(instances),
            failed=failed,
            solved=sum(bool(r.solved) for r in results),
            neuron_updates=sum(int(r.neuron_updates) for r in results),
            latencies_ms=[wall * 1e3 for wall in walls],
            latencies_steps=[int(r.steps) for r in results],
            digest=checks.digest(rows),
            problems=problems,
        )

    async def _serve_pass(self, scale: Scale, schedule: List[Tuple[int, int, int]],
                          *, tag: str) -> PassOutcome:
        from repro.serve import ServeStatus, SolveService

        kwargs: Dict[str, Any] = dict(
            capacity=CAPACITY, check_interval=CHECK_INTERVAL,
            default_max_steps=scale.max_steps, seed=CORPUS_NOISE_ROOT, clock="steps",
        )
        state_dir = os.path.join(self.work_dir, f"{self.name}-{self.seed}-{tag}")
        if self.durable:
            shutil.rmtree(state_dir, ignore_errors=True)
            kwargs.update(journal_path=os.path.join(state_dir, "admissions.wal"),
                          checkpoint_dir=os.path.join(state_dir, "checkpoints"))
        service = SolveService(**kwargs)
        records: List[Any] = [None] * len(schedule)
        last_arrival = max(arrival for arrival, _, _ in schedule)
        marks: List[float] = []
        pending = [0]

        async def one_request(rid: int) -> None:
            arrival, client, pick = schedule[rid]
            await service.wait_for_step(arrival)
            released_at = time.perf_counter()
            inst = self.instances[pick]
            REQUEST_ID.set(rid)
            try:
                served = await service.submit(inst.graph, inst.clamps, client=f"client-{client}",
                                              seed=inst.noise_seed, max_steps=scale.max_steps)
                records[rid] = (served, None, (time.perf_counter() - released_at) * 1e3)
            except Exception as exc:  # any failed request is counted, not raised
                records[rid] = (None, exc, None)
            finally:
                pending[0] -= 1

        async def ticker() -> None:
            # Wall-clock marks every TICK_STEPS scheduler steps cut the pass
            # into the same deterministic segments on every pass.
            target = TICK_STEPS
            while target <= last_arrival or pending[0]:
                await service.wait_for_step(target)
                marks.append(time.perf_counter())
                target += TICK_STEPS

        async def open_loop() -> None:
            # Requests are created at most one scheduler yield window ahead
            # of the service clock: an idle service fast-forwards through
            # every pending wait_for_step before it yields, so creating them
            # all up front would release the whole schedule as one burst.
            window = CHECK_INTERVAL
            order = sorted(range(len(schedule)), key=lambda rid: (schedule[rid][0], rid))
            tasks, i = [], 0
            while i < len(order):
                horizon = service.step + window
                while i < len(order) and schedule[order[i]][0] <= horizon:
                    tasks.append(asyncio.ensure_future(one_request(order[i])))
                    pending[0] += 1
                    i += 1
                if i < len(order):
                    await service.wait_for_step(schedule[order[i]][0] - window)
            await asyncio.gather(*tasks)

        try:
            # Entering starts the scheduler task before any request id is set.
            async with service:
                start = time.perf_counter()
                ticks = asyncio.ensure_future(ticker())
                await open_loop()
                await ticks
                await service.stop(drain=True)
                end = time.perf_counter()
            snapshot = service.metrics().as_dict()
        finally:
            if self.durable:
                shutil.rmtree(state_dir, ignore_errors=True)

        problems = checks.ledger_problems(snapshot, len(schedule))
        failed = solved = updates = 0
        lat_ms, lat_steps, queue_wait, late, rows = [], [], [], [], []
        for rid, (served, exc, ms) in enumerate(records):
            arrival = schedule[rid][0]
            lat_ms.append(ms)
            if served is None:
                failed += 1
                problems.append(f"request {rid}: {type(exc).__name__}: {exc}")
                continue
            result = served.result
            if served.status not in (ServeStatus.SOLVED, ServeStatus.UNSOLVED) or result is None:
                failed += 1
                problems.append(f"request {rid}: status {served.status.value}")
                continue
            inst = self.instances[schedule[rid][2]]
            found = checks.result_problems(inst.graph, inst.clamps, result, inst.expected)
            if (served.status is ServeStatus.SOLVED) != bool(result.solved):
                found.append(f"status {served.status.value} but solved={result.solved}")
            failed += bool(found)
            problems.extend(f"request {rid}: {p}" for p in found)
            solved += bool(result.solved)
            lat_steps.append(served.finished_step - arrival)
            late.append(served.submitted_step - arrival)
            if not (served.from_cache or served.coalesced):
                updates += int(result.neuron_updates)
                queue_wait.append(served.finished_step - served.submitted_step - result.steps)
            rows.append((rid, served.status.value, served.seed, result.steps,
                         result.total_spikes, result.values, result.decided,
                         served.from_cache, served.coalesced, served.finished_step))
        dedup = snapshot["cache_hits"] + snapshot["coalesced"]
        edges = [start, *marks, end]
        return PassOutcome(
            units_s=[b - a for a, b in zip(edges, edges[1:])],
            attempted=len(schedule),
            failed=failed,
            solved=solved,
            neuron_updates=updates,
            latencies_ms=lat_ms,
            latencies_steps=lat_steps,
            digest=checks.digest(rows),
            problems=problems,
            queue_wait_steps=queue_wait,
            late_steps=late,
            occupancy=float(snapshot["occupancy"]),
            dedup_ratio=dedup / max(1, snapshot["submitted"]),
        )

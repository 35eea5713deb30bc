"""Spiking constraint solver: annealed WTA search on the NPU datapath.

:class:`SpikingCSPSolver` generalises the paper's SNN Sudoku solver
(§VI-C) to any :class:`~repro.csp.graph.ConstraintGraph`: each candidate
``(variable, value)`` neuron receives a weak noisy drive, clamped values a
strong constant drive, and conflicting candidates suppress each other
through inhibitory synapses until a consistent assignment — a solution —
remains stable.  The board state is decoded from a sliding window of
spike counts with recency tie-breaking.

The numerical machinery is *identical* to the Sudoku solver's: the same
fixed-point population configuration (membrane pin, ``h_shift``), the
same annealed-noise expression, the same decode and the same batch loop —
``repro.sudoku.solver.SNNSudokuSolver`` is a thin adapter over this
module and remains bit-identical to its pre-refactor behaviour.

Batched solving comes in two shapes:

* :meth:`SpikingCSPSolver.solve_batch` — many clamp sets on **one** graph
  (the Sudoku many-puzzles case);
* :func:`solve_instances` — many independent instances whose graphs may
  differ (e.g. a sweep of random coloring instances), as long as their
  neuron counts match.

Both stack the replicas into one exact-mode
:class:`~repro.runtime.batch.BatchedNetwork` riding the integer CSR
synapse kernel and a compiled batched drive provider, and *shrink* the
batch as replicas solve (dropping converged instances from the live
state) — every result stays bit-identical to a sequential :meth:`solve`.
Replicas enter the batch as row specs (:meth:`SpikingCSPSolver.row`),
built from a per-config template; :meth:`SpikingCSPSolver.build_network`
stays the sequential reference.  Decoding is one vectorised pass per
checkpoint (:data:`CSP_SLOT_DECODER`), with :func:`decode_assignment` and
:meth:`ConstraintGraph.is_solution` as its reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.batch import BatchRow, Replica, batch_row
from ..runtime.drives import AnnealedNoiseSpec
from ..runtime.slots import OneShotPolicy, SlotDecode, SlotEngine, SlotOutcome, SlotRow
from ..snn.fixed_izhikevich import FixedPointPopulation
from ..snn.izhikevich import IzhikevichPopulation
from ..snn.network import Population, SNNNetwork
from .config import CSPConfig
from .graph import ClampsLike, ConstraintGraph

__all__ = ["CSPSolveResult", "SpikingCSPSolver", "decode_assignment", "solve_instances"]


@dataclass
class CSPSolveResult:
    """Outcome of one spiking constraint-solver run.

    A plain ``solve`` is a single attempt; the restart-portfolio engine
    (:mod:`repro.csp.portfolio`) may launch several attempts per instance
    under fresh noise seeds, in which case ``steps`` / ``values`` /
    ``decided`` describe the *winning* (or, unsolved, the last) attempt
    while ``total_spikes`` / ``neuron_updates`` / ``attempt_steps``
    account for the work of every attempt.
    """

    solved: bool
    steps: int
    #: Per-variable assigned value (0 where undecided — see ``decided``).
    values: np.ndarray
    #: Per-variable flag: ``True`` where ``values`` holds a real assignment.
    decided: np.ndarray
    #: Total number of spikes emitted during the run (all attempts).
    total_spikes: int
    #: Number of neuron updates performed (neurons x sub-steps x steps,
    #: summed over all attempts).
    neuron_updates: int
    #: Number of solve attempts launched for this instance.
    attempts: int = 1
    #: Steps consumed by each attempt, launch order (winning or truncated
    #: attempts included); ``sum(attempt_steps) == steps`` for a
    #: single-attempt run.
    attempt_steps: Tuple[int, ...] = ()

    def assignment(self, graph: ConstraintGraph) -> Dict[str, int]:
        """Decided ``{variable name: value}`` entries."""
        return graph.assignment_dict(self.values, self.decided)


def decode_assignment(
    graph: ConstraintGraph,
    window_counts: np.ndarray,
    last_spike_step: np.ndarray,
    clamps: ClampsLike = (),
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode an assignment from recent spike activity.

    Within each variable the value with the most spikes in the sliding
    window wins; ties are broken by the most recent spike (scaled below 1
    by the global recency maximum, exactly as the Sudoku decode does).
    Variables whose candidates have not spiked recently stay undecided;
    clamped variables are always forced to their clamp value.

    Returns ``(values, decided)``; undecided slots of ``values`` hold 0.
    """
    counts = np.asarray(window_counts, dtype=np.float64)
    recency = np.asarray(last_spike_step, dtype=np.float64)
    score = counts + recency / (recency.max() + 1.0) if recency.max() > 0 else counts

    num_vars = graph.num_variables
    values = np.zeros(num_vars, dtype=np.int64)
    shared = graph.homogeneous_domain
    if shared is not None:
        width = len(shared)
        counts2 = counts.reshape(num_vars, width)
        score2 = score.reshape(num_vars, width)
        decided = counts2.max(axis=1) > 0
        winners = np.asarray(shared, dtype=np.int64)[score2.argmax(axis=1)]
        values[decided] = winners[decided]
    else:
        decided = np.zeros(num_vars, dtype=bool)
        for vi in range(num_vars):
            start, end = int(graph.offsets[vi]), int(graph.offsets[vi + 1])
            if counts[start:end].max() > 0:
                decided[vi] = True
                pos = int(score[start:end].argmax())
                values[vi] = graph.variables[vi].domain[pos]
    for vi, value, _ in graph.resolve_clamps(clamps):
        values[vi] = value
        decided[vi] = True
    return values, decided


class SpikingCSPSolver:
    """Solve finite-domain CSPs with an annealed WTA spiking network.

    Parameters
    ----------
    graph:
        The constraint structure (variables, domains, conflict edges).
        Clamps are per-instance and passed to :meth:`solve`.
    config:
        Weights and drive levels (:class:`CSPConfig`).
    backend:
        ``"fixed"`` (default) runs on the NPU fixed-point datapath with
        the membrane pin enabled — the configuration the paper converged
        with; ``"float64"`` runs the double-precision reference dynamics.
    seed:
        Seed of the exploration-noise stream.
    synapses:
        Optional pre-built WTA connectivity to reuse (must come from an
        identical graph and weight configuration).  Solvers sharing one
        synapse object let the batch engine take its shared-matrix fast
        path; by default each solver builds its own.
    """

    def __init__(
        self,
        graph: ConstraintGraph,
        config: Optional[CSPConfig] = None,
        *,
        backend: str = "fixed",
        seed: int = 7,
        synapses=None,
    ) -> None:
        if backend not in ("fixed", "float64"):
            raise ValueError(f"unknown backend {backend!r}")
        self.graph = graph
        self.config = config if config is not None else CSPConfig()
        self.backend = backend
        self.seed = seed
        self.synapses = (
            synapses
            if synapses is not None
            else graph.build_synapses(
                inhibition_weight=self.config.inhibition_weight,
                self_excitation=self.config.self_excitation,
            )
        )

    # ------------------------------------------------------------------ #
    # Network assembly
    # ------------------------------------------------------------------ #
    def build_network(self, clamps: ClampsLike = (), *, seed: Optional[int] = None) -> SNNNetwork:
        """A fresh solver network for one instance (graph + clamps).

        The sequential reference of :meth:`row`: a population quantised
        through :meth:`FixedPointPopulation.from_float_parameters` and an
        annealed-noise closure.
        """
        cfg = self.config
        num_neurons = self.graph.num_neurons
        population = _population(cfg, self.backend, num_neurons)
        spec = self._drive_spec(clamps, seed)
        drive, free_mask, rng = spec.drive, spec.free_mask, spec.rng

        def external(step: int) -> np.ndarray:
            # Annealed exploration noise: each cycle ramps the amplitude
            # from noise_sigma down to anneal_floor * noise_sigma so the
            # network alternates between exploring and settling.
            phase = (step % cfg.anneal_period) / max(cfg.anneal_period, 1)
            amplitude = cfg.noise_sigma * (1.0 - (1.0 - cfg.anneal_floor) * phase)
            noise = amplitude * rng.standard_normal(num_neurons)
            # Clamped values and their silenced siblings get no noise.
            return drive + noise * free_mask

        # Declare the closure's structure so the batch engine can compile
        # a bit-identical vectorised (B, N) provider out of many of them
        # (repro.runtime.drives).  The spec shares this closure's RNG; a
        # batch lifts it with a clone, so the closure stays untouched.
        external.drive_spec = spec

        return SNNNetwork(
            population=population,
            synapses=self.synapses,
            external_input=external,
            current_mode="decay",
            tau_select=cfg.tau_select,
        )

    def row(self, clamps: ClampsLike = (), *, seed: Optional[int] = None) -> BatchRow:
        """A fresh solver row for one instance: :meth:`build_network` as a row spec.

        Bit-identical to what a batch reads of the network
        :meth:`build_network` makes for the same clamps and seed — state,
        parameters, connectivity and noise stream — but built from the
        config's cached template, with no population or closure.  Its
        drive is a spec only, whose fresh generator the batch's compiled
        drive consumes: stack it with a batched drive, as the slot engine
        does.
        """
        template = _row_template(self.config, self.backend, self.graph.num_neurons)
        return replace(template, synapses=self.synapses, drive_spec=self._drive_spec(clamps, seed))

    def _drive_spec(self, clamps: ClampsLike, seed: Optional[int]) -> AnnealedNoiseSpec:
        """The annealed-noise drive of one instance, owning a fresh generator."""
        cfg = self.config
        drive = self.graph.drive_vector(
            clamps, clamp_drive=cfg.clamp_drive, free_bias=cfg.free_bias
        )
        return AnnealedNoiseSpec(
            drive=drive,
            free_mask=(drive > 0.0) & (drive != cfg.clamp_drive),
            rng=np.random.default_rng(self.seed if seed is None else seed),
            noise_sigma=cfg.noise_sigma,
            anneal_period=cfg.anneal_period,
            anneal_floor=cfg.anneal_floor,
        )

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        clamps: ClampsLike = (),
        *,
        max_steps: int = 3000,
        check_interval: int = 10,
    ) -> CSPSolveResult:
        """Run the network until the decoded assignment is a solution.

        Parameters
        ----------
        clamps:
            Per-instance unary clamps (``{variable: value}``).
        max_steps:
            Upper bound on 1 ms network steps.
        check_interval:
            How often (in steps) the decoded assignment is tested.
        """
        resolved = self.graph.resolve_clamps(clamps)
        if not self.graph.clamps_consistent(resolved):
            raise ValueError("clamps violate a constraint edge")
        entry = _BatchEntry(self.graph, resolved, self.row(resolved))
        return _run_batch(
            [entry], self.config, max_steps=max_steps, check_interval=check_interval
        )[0]

    def solve_batch(
        self,
        clamps_list: Sequence[ClampsLike],
        *,
        max_steps: int = 3000,
        check_interval: int = 10,
    ) -> List[CSPSolveResult]:
        """Solve ``B`` instances of this graph at once on the batch engine.

        All instance networks are stacked into one exact-mode
        :class:`~repro.runtime.batch.BatchedNetwork` (they share the WTA
        connectivity and differ only in drive and noise), so every 1 ms
        step advances the whole batch in fused ``(B, N)`` updates while
        each result stays bit-identical to a sequential :meth:`solve` —
        replicas that solve early are dropped from the live batch while
        the rest keep running.
        """
        entries = []
        for clamps in clamps_list:
            resolved = self.graph.resolve_clamps(clamps)
            if not self.graph.clamps_consistent(resolved):
                raise ValueError("clamps violate a constraint edge")
            entries.append(_BatchEntry(self.graph, resolved, self.row(resolved)))
        return _run_batch(entries, self.config, max_steps=max_steps, check_interval=check_interval)


def solve_instances(
    instances: Sequence[Tuple[ConstraintGraph, ClampsLike]],
    *,
    config: Optional[CSPConfig] = None,
    backend: str = "fixed",
    seeds: Optional[Sequence[int]] = None,
    seed: int = 7,
    max_steps: int = 3000,
    check_interval: int = 10,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    fault=None,
) -> List[CSPSolveResult]:
    """Solve many ``(graph, clamps)`` instances as one exact-mode batch.

    Unlike :meth:`SpikingCSPSolver.solve_batch`, the graphs may differ
    between instances (e.g. independently generated coloring instances)
    as long as every graph has the same neuron count.  ``seeds`` gives a
    per-instance noise seed.  By default each instance receives an
    *independent* seed spawned from ``seed`` through
    ``numpy.random.SeedSequence`` (the :func:`repro.runtime.sweep.derive_task_seed`
    scheme): historically the default was ``[seed] * len(instances)``,
    which gave every replica the *same* noise stream, so identical
    instances produced identical trajectories and solve-rate sweeps
    measured one sample instead of ``B``.  Pass ``seeds=`` explicitly to
    reproduce old runs (explicit seeds are honoured bit-for-bit,
    including a shared value for every replica).

    With ``checkpoint_dir`` set, the slot engine writes a crash-safe
    snapshot (:mod:`repro.runtime.checkpoint`) every ``checkpoint_every``
    global steps (default ``10 * check_interval``) plus one at
    completion.  Re-calling with the same arguments and directory
    resumes from the newest readable snapshot — killing the process at
    any point and re-running returns results bit-identical to the
    uninterrupted call.  Snapshots are bound to the exact solve
    (instances, seeds, config, backend, budgets) by a content
    fingerprint; a directory holding a different solve's snapshots
    raises :class:`~repro.runtime.checkpoint.CheckpointError`.  ``fault``
    takes a :class:`~repro.runtime.checkpoint.FaultPlan` for the chaos
    suites (deterministic crash/torn-write/corruption injection).
    """
    if not instances:
        return []
    cfg = config if config is not None else CSPConfig()
    if seeds is None:
        from ..runtime.sweep import derive_task_seed

        seeds = [derive_task_seed(seed, i) for i in range(len(instances))]
    if len(seeds) != len(instances):
        raise ValueError("seeds must match the number of instances")
    sizes = {graph.num_neurons for graph, _ in instances}
    if len(sizes) != 1:
        raise ValueError(f"instances have differing neuron counts: {sorted(sizes)}")

    # Instances of the *same* graph object share one solver and so one
    # synapse build: the batch engine sees one shared connectivity matrix
    # and takes its shared-sparse fast path instead of stacking B copies.
    solvers: Dict[int, SpikingCSPSolver] = {}
    entries = []
    for (graph, clamps), instance_seed in zip(instances, seeds):
        solver = solvers.get(id(graph))
        if solver is None:
            solver = solvers[id(graph)] = SpikingCSPSolver(graph, cfg, backend=backend)
        resolved = graph.resolve_clamps(clamps)
        if not graph.clamps_consistent(resolved):
            raise ValueError("clamps violate a constraint edge")
        entries.append(_BatchEntry(graph, resolved, solver.row(resolved, seed=int(instance_seed))))
    store = identity = None
    if checkpoint_dir is not None:
        from ..runtime.checkpoint import CheckpointStore

        store = CheckpointStore(checkpoint_dir, kind="csp-solve", fault=fault)
        identity = _solve_fingerprint(instances, seeds, cfg, backend, max_steps, check_interval)
    return _run_batch(
        entries,
        cfg,
        max_steps=max_steps,
        check_interval=check_interval,
        store=store,
        checkpoint_every=checkpoint_every,
        fault=fault,
        identity=identity,
    )


# ---------------------------------------------------------------------- #
# Row template and batched decode
# ---------------------------------------------------------------------- #
def _population(config: CSPConfig, backend: str, num_neurons: int) -> Population:
    """A fresh solver population at rest: one quantisation of the config."""
    a, b, c, d = (np.full(num_neurons, value) for value in (config.a, config.b, config.c, config.d))
    if backend == "fixed":
        return FixedPointPopulation.from_float_parameters(
            a, b, c, d, h_shift=config.h_shift, pin_voltage=config.pin_voltage
        )
    return IzhikevichPopulation.from_parameters(a, b, c, d)


@functools.lru_cache(maxsize=64)
def _row_template(config: CSPConfig, backend: str, num_neurons: int) -> BatchRow:
    """The resting row every fresh row of one config shares, built once.

    A batch's reading (:func:`~repro.runtime.batch.batch_row`) of an
    input-free reference network, so the population constants and the
    resting ``v``/``u`` are quantised once per key.  The arrays are made
    read-only: rows share them and a batch copies them when it stacks.
    """
    network = SNNNetwork(
        population=_population(config, backend, num_neurons),
        current_mode="decay",
        tau_select=config.tau_select,
    )
    template = batch_row(network)
    for array in template.arrays.values():
        array.flags.writeable = False
    return template


@dataclass
class _BatchEntry:
    graph: ConstraintGraph
    clamps: List[Tuple[int, int, int]]
    #: The instance's row spec (a network also stacks, through the adapter).
    row: Replica


@dataclass(frozen=True)
class _RowPlan:
    """One row's decode constants, built at its first decode (``SlotRow.plan``)."""

    #: The graph's shared domain, or ``None`` when domains differ.
    domain: Optional[np.ndarray]
    #: One column per clamp: variable, value and in-domain position.
    clamps: np.ndarray


class _CSPSlotDecoder:
    """Constraint-graph decode adapter for the runtime slot engine.

    Rows carry their :class:`ConstraintGraph` and resolved clamps; the
    engine hands over every at-check row of a checkpoint with its
    sliding-window state, and this adapter decodes them in one pass,
    bit-identical to :func:`decode_assignment` + ``is_solution`` row by
    row.  Rows whose graph has one shared domain are decoded together:
    one window argmax over ``(R, V, W)``, clamps applied from the rows'
    index arrays, and one conflict count over the picks' conflict CSR.
    Rows with differing domains take the reference loop.  One instance
    serves every CSP-layer engine (per-row constants live on the rows).
    """

    def decode_rows(
        self, rows: Sequence[SlotRow], window_counts: np.ndarray, last_spike: np.ndarray
    ) -> List[SlotDecode]:
        plans = [row.plan if row.plan is not None else _plan(row) for row in rows]
        decodes: List[Optional[SlotDecode]] = [None] * len(rows)
        by_width: Dict[int, List[int]] = {}
        for i, (row, plan) in enumerate(zip(rows, plans)):
            if plan.domain is None:
                values, decided = decode_assignment(
                    row.graph, window_counts[i], last_spike[i], row.clamps
                )
                solved = row.graph.is_solution(values, decided)
                decodes[i] = SlotDecode(values=values, decided=decided, solved=solved)
            else:
                by_width.setdefault(plan.domain.size, []).append(i)
        for members in by_width.values():
            decoded = _decode_shared_domain(
                [rows[i].graph for i in members],
                [plans[i] for i in members],
                window_counts[members],
                last_spike[members],
            )
            for i, decode in zip(members, decoded):
                decodes[i] = decode
        return decodes  # every entry is filled above


def _plan(row: SlotRow) -> _RowPlan:
    """Build and keep a row's decode constants."""
    graph = row.graph
    shared = graph.homogeneous_domain
    triples = np.asarray(graph.resolve_clamps(row.clamps), dtype=np.int64).reshape(-1, 3).T
    triples[2] -= graph.offsets[triples[0]]  # neuron index -> in-domain position
    row.plan = _RowPlan(
        domain=None if shared is None else np.asarray(shared, dtype=np.int64),
        clamps=triples,
    )
    return row.plan


def _decode_shared_domain(
    graphs: Sequence[ConstraintGraph],
    plans: Sequence[_RowPlan],
    window_counts: np.ndarray,
    last_spike: np.ndarray,
) -> List[SlotDecode]:
    """:func:`decode_assignment` + ``is_solution`` of ``R`` rows at once.

    Every row's graph has one shared domain of the same width ``W``
    (values may differ between rows).  The expressions are the
    reference's, evaluated per row; the recency tie-break is scaled by
    each row's own recency maximum.  A row that never spiked divides by
    infinity instead of skipping the term: adding ``-0.0`` leaves its
    counts exact, and no row divides by zero.
    """
    num_rows, num_neurons = window_counts.shape
    width = plans[0].domain.size
    num_vars = num_neurons // width
    top = last_spike.max(axis=1)
    scale = np.where(top > 0, top + 1.0, np.inf)
    score = window_counts + last_spike / scale[:, None]  # int64 -> float64 is exact here
    positions = score.reshape(num_rows, num_vars, width).argmax(axis=2)
    decided = window_counts.reshape(num_rows, num_vars, width).any(axis=2)  # counts >= 0
    domains = np.array([plan.domain for plan in plans])
    row_index = np.arange(num_rows)
    values = np.where(decided, domains[row_index[:, None], positions], 0)

    owners = np.repeat(row_index, [plan.clamps.shape[1] for plan in plans])
    clamped, clamp_values, clamp_positions = np.concatenate([p.clamps for p in plans], axis=1)
    values[owners, clamped] = clamp_values
    decided[owners, clamped] = True
    positions[owners, clamped] = clamp_positions

    solved = decided.all(axis=1)
    full = np.flatnonzero(solved)
    if full.size:
        solved[full] = ~_conflicted([graphs[r] for r in full], positions[full], width)
    return [
        SlotDecode(values=v, decided=d, solved=s)
        for v, d, s in zip(values, decided, solved.tolist())
    ]


def _conflicted(graphs: Sequence[ConstraintGraph], positions: np.ndarray, width: int) -> np.ndarray:
    """Per row: does any picked neuron's conflict list hold another pick?

    ``positions`` are the picked in-domain positions, ``(R, V)``.  Rows
    of one graph share its conflict CSR; the distinct graphs' CSRs are
    laid end to end so one gather serves every row.
    """
    num_rows, num_vars = positions.shape
    num_neurons = num_vars * width
    slot_of: Dict[int, int] = {}
    slots = [slot_of.setdefault(id(graph), len(slot_of)) for graph in graphs]
    firsts = {slot: graph for graph, slot in zip(graphs, slots)}
    csrs = [firsts[slot]._conflicts_csr() for slot in range(len(firsts))]
    targets = np.concatenate([t for t, _ in csrs])
    bases = np.cumsum([0] + [t.size for t, _ in csrs[:-1]])
    indptr = np.concatenate([ptr for _, ptr in csrs]) + np.repeat(bases, num_neurons + 1)
    # Row r's pick p reads its conflicts from indptr[slot_r * (N + 1) + p].
    picks = positions + np.arange(num_vars) * width  # neuron index of each pick
    first = (picks + (np.asarray(slots) * (num_neurons + 1))[:, None]).ravel()
    starts = indptr[first]
    counts = indptr[first + 1] - starts
    owner = np.repeat(np.arange(num_rows), counts.reshape(num_rows, num_vars).sum(axis=1))
    hits = targets[np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(owner.size)]
    selected = np.zeros((num_rows, num_neurons), dtype=bool)
    selected[np.arange(num_rows)[:, None], picks] = True
    conflicted = np.zeros(num_rows, dtype=bool)
    conflicted[owner[selected[owner, hits]]] = True
    return conflicted


CSP_SLOT_DECODER = _CSPSlotDecoder()


def _run_batch(
    entries: Sequence[_BatchEntry],
    config: CSPConfig,
    *,
    max_steps: int,
    check_interval: int,
    store=None,
    checkpoint_every: Optional[int] = None,
    fault=None,
    identity: Optional[str] = None,
) -> List[CSPSolveResult]:
    """Advance all entries together, shrinking the batch as replicas solve.

    This is the Sudoku solver's batch loop, generalised, now expressed
    as the one-shot policy of the shared continuous-batching engine
    (:class:`repro.runtime.slots.SlotEngine`): the per-replica sliding
    windows, recency bookkeeping, decode points and stop conditions are
    the engine's, so a batch of one reproduces the sequential solver
    exactly and a batch of ``B`` reproduces ``B`` sequential runs.

    Three layers of the batched runtime keep the loop fast without
    touching the results (replicas are independent, so none of them can
    observe the others):

    * the annealed-noise closures are compiled into one bit-identical
      vectorised ``(B, N)`` provider (:mod:`repro.runtime.drives`);
    * the WTA weights are small exact Q15.16 values, so propagation runs
      on the integer CSR kernel (:mod:`repro.runtime.batch`);
    * replicas whose decoded assignment is already a solution are
      *dropped from the live batch* (the engine's recomposition over
      :meth:`BatchedNetwork.retain`), so late steps only advance the
      still-unsolved instances instead of merely masking the solved
      ones out of the statistics.

    Durability is the engine's too: with a checkpoint ``store`` the
    run resumes from the newest readable snapshot whose ``identity``
    matches, saves every ``checkpoint_every`` steps and at completion,
    and ``fault`` injects the chaos suites' crash.

    Degenerate shapes never allocate a batch: an empty entry list has
    nothing to stack, and a non-positive step budget short-circuits in
    :meth:`SlotEngine.run`, leaving every entry to the canonical
    zero-step decode below.
    """
    if not entries:
        return []
    engine = SlotEngine(
        decoder=CSP_SLOT_DECODER,
        window=max(1, config.decode_window),
        check_interval=check_interval,
        store=store,
        checkpoint_every=checkpoint_every,
        fault=fault,
    )
    policy = OneShotPolicy(
        [
            (
                SlotRow(
                    graph=entry.graph, clamps=entry.clamps, budget=max_steps, payload=index
                ),
                entry.row,
            )
            for index, entry in enumerate(entries)
        ],
        identity=identity,
    )
    engine.run(policy, max_steps=max_steps)

    results: List[Optional[CSPSolveResult]] = [None] * len(entries)
    updates_per_step = engine.updates_per_step or 0
    for outcome in policy.outcomes:
        results[outcome.row.payload] = _solve_result(outcome, updates_per_step)
    # Entries with no outcome never stepped (max_steps <= 0): the
    # zero-step decode, centralised in the engine's empty window.
    return [
        result if result is not None else _empty_result(entry.graph, entry.clamps)
        for entry, result in zip(entries, results)
    ]


def _solve_fingerprint(
    instances: Sequence[Tuple[ConstraintGraph, ClampsLike]],
    seeds: Sequence[int],
    config: CSPConfig,
    backend: str,
    max_steps: int,
    check_interval: int,
) -> str:
    """Content identity binding a checkpoint to one exact solve call."""
    from ..runtime.cache import derive_cache_key

    payload = {
        "instances": [
            (graph, sorted((int(v), int(val), int(n)) for v, val, n in graph.resolve_clamps(c)))
            for graph, c in instances
        ],
        "seeds": [int(s) for s in seeds],
        "config": config,
        "backend": backend,
        "max_steps": int(max_steps),
        "check_interval": int(check_interval),
    }
    key = derive_cache_key("csp-checkpoint", payload)
    assert key is not None  # graphs, clamps, seeds and config all tokenise
    return key


def _solve_result(outcome: SlotOutcome, updates_per_step: int) -> CSPSolveResult:
    """The single-attempt result of a retired row."""
    return CSPSolveResult(
        solved=outcome.decode.solved,
        steps=outcome.local_steps,
        values=outcome.decode.values,
        decided=outcome.decode.decided,
        total_spikes=outcome.spikes,
        neuron_updates=outcome.local_steps * updates_per_step,
        attempts=1,
        attempt_steps=(outcome.local_steps,),
    )


def _empty_result(graph: ConstraintGraph, clamps: ClampsLike) -> CSPSolveResult:
    """The zero-step result: decode of an empty window (clamps only).

    Bit-identical to what the batch loop produces when the step budget is
    exhausted before the first step — all-zero spike counts, so only
    clamped variables decode (and a fully clamped consistent instance
    counts as solved).  The window itself comes from
    :meth:`repro.runtime.slots.SlotEngine.empty_window`, the single
    owner of the zero-step semantics shared with the portfolio and
    serve layers.
    """
    window_counts, last_spike = SlotEngine.empty_window(graph.num_neurons)
    values, decided = decode_assignment(graph, window_counts, last_spike, clamps)
    decode = SlotDecode(values, decided, graph.is_solution(values, decided))
    return _solve_result(SlotOutcome(SlotRow(graph, clamps, budget=0), 0, 0, decode), 0)

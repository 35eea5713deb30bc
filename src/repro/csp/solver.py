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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..snn.fixed_izhikevich import FixedPointPopulation
from ..snn.izhikevich import IzhikevichPopulation
from ..snn.network import SNNNetwork
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
        """A fresh solver network for one instance (graph + clamps)."""
        cfg = self.config
        num_neurons = self.graph.num_neurons
        a = np.full(num_neurons, cfg.a)
        b = np.full(num_neurons, cfg.b)
        c = np.full(num_neurons, cfg.c)
        d = np.full(num_neurons, cfg.d)
        if self.backend == "fixed":
            population = FixedPointPopulation.from_float_parameters(
                a, b, c, d, h_shift=cfg.h_shift, pin_voltage=cfg.pin_voltage
            )
        else:
            population = IzhikevichPopulation.from_parameters(a, b, c, d)
        rng = np.random.default_rng(self.seed if seed is None else seed)
        drive = self.graph.drive_vector(
            clamps, clamp_drive=cfg.clamp_drive, free_bias=cfg.free_bias
        )
        free_mask = (drive > 0.0) & (drive != cfg.clamp_drive)

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
        # (repro.runtime.drives).  The spec shares this closure's RNG; the
        # compiler clones its state, so whichever of the two ends up being
        # consumed sees the identical stream.
        from ..runtime.drives import AnnealedNoiseSpec

        external.drive_spec = AnnealedNoiseSpec(
            drive=drive,
            free_mask=free_mask,
            rng=rng,
            noise_sigma=cfg.noise_sigma,
            anneal_period=cfg.anneal_period,
            anneal_floor=cfg.anneal_floor,
        )

        return SNNNetwork(
            population=population,
            synapses=self.synapses,
            external_input=external,
            current_mode="decay",
            tau_select=cfg.tau_select,
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
        entry = _BatchEntry(self.graph, resolved, self.build_network(resolved))
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
            entries.append(_BatchEntry(self.graph, resolved, self.build_network(resolved)))
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

    With ``checkpoint_dir`` set, the batch loop writes a crash-safe
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

    # Instances of the *same* graph object share one synapse build, so
    # the batch engine sees one shared connectivity matrix and takes its
    # shared-sparse fast path instead of stacking B identical copies.
    shared_synapses: Dict[int, object] = {}

    def build_entry(index: int) -> _BatchEntry:
        graph, clamps = instances[index]
        solver = SpikingCSPSolver(
            graph,
            cfg,
            backend=backend,
            seed=int(seeds[index]),
            synapses=shared_synapses.get(id(graph)),
        )
        shared_synapses[id(graph)] = solver.synapses
        resolved = graph.resolve_clamps(clamps)
        if not graph.clamps_consistent(resolved):
            raise ValueError("clamps violate a constraint edge")
        return _BatchEntry(graph, resolved, solver.build_network(resolved))

    if checkpoint_dir is None:
        entries = [build_entry(i) for i in range(len(instances))]
        return _run_batch(entries, cfg, max_steps=max_steps, check_interval=check_interval)
    return _run_batch_checkpointed(
        instances,
        cfg,
        backend=backend,
        seeds=[int(s) for s in seeds],
        build_entry=build_entry,
        max_steps=max_steps,
        check_interval=check_interval,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        fault=fault,
    )


# ---------------------------------------------------------------------- #
# Shared batch loop (bit-identical to the pre-refactor Sudoku loops)
# ---------------------------------------------------------------------- #
@dataclass
class _BatchEntry:
    graph: ConstraintGraph
    clamps: List[Tuple[int, int, int]]
    network: SNNNetwork


class _CSPSlotDecoder:
    """Constraint-graph decode adapter for the runtime slot engine.

    Rows carry their :class:`ConstraintGraph` and resolved clamps; the
    engine hands back the row plus its sliding-window state, and this
    adapter runs the canonical :func:`decode_assignment` + solution
    test.  One instance serves every CSP-layer engine (the decoder is
    stateless).
    """

    def decode(self, row, window_counts, last_spike):
        from ..runtime.slots import SlotDecode

        values, decided = decode_assignment(row.graph, window_counts, last_spike, row.clamps)
        return SlotDecode(
            values=values, decided=decided, solved=row.graph.is_solution(values, decided)
        )


CSP_SLOT_DECODER = _CSPSlotDecoder()


def _run_batch(
    entries: Sequence[_BatchEntry],
    config: CSPConfig,
    *,
    max_steps: int,
    check_interval: int,
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

    Degenerate shapes never allocate a batch: an empty entry list has
    nothing to stack, and a non-positive step budget short-circuits in
    :meth:`SlotEngine.run`, leaving every entry to the canonical
    zero-step decode below.
    """
    from ..runtime.slots import OneShotPolicy, SlotEngine, SlotRow

    if not entries:
        return []
    engine = SlotEngine(
        decoder=CSP_SLOT_DECODER,
        window=max(1, config.decode_window),
        check_interval=check_interval,
        extendable=False,
    )
    policy = OneShotPolicy(
        [
            (
                SlotRow(
                    graph=entry.graph, clamps=entry.clamps, budget=max_steps, payload=index
                ),
                entry.network,
            )
            for index, entry in enumerate(entries)
        ]
    )
    engine.run(policy, max_steps=max_steps)

    results: List[Optional[CSPSolveResult]] = [None] * len(entries)
    updates_per_step = engine.updates_per_step or 0
    for outcome in policy.outcomes:
        results[outcome.row.payload] = CSPSolveResult(
            solved=outcome.decode.solved,
            steps=outcome.local_steps,
            values=outcome.decode.values,
            decided=outcome.decode.decided,
            total_spikes=outcome.spikes,
            neuron_updates=outcome.local_steps * updates_per_step,
            attempts=1,
            attempt_steps=(outcome.local_steps,),
        )
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


def _run_batch_checkpointed(
    instances: Sequence[Tuple[ConstraintGraph, ClampsLike]],
    config: CSPConfig,
    *,
    backend: str,
    seeds: Sequence[int],
    build_entry,
    max_steps: int,
    check_interval: int,
    checkpoint_dir,
    checkpoint_every: Optional[int],
    fault,
) -> List[CSPSolveResult]:
    """The batch loop of :func:`_run_batch` with crash-safe snapshots.

    Runs the same one-shot policy over the same engine, but every
    ``checkpoint_every`` global steps (and once at completion) the full
    engine state plus the already-retired results land in a
    :class:`~repro.runtime.checkpoint.CheckpointStore`.  On entry the
    newest readable snapshot is restored — networks for still-live rows
    are rebuilt from their (graph, clamps, seed) descriptors and
    overwritten with the snapshot state, so the continued trajectory is
    bit-identical to the uninterrupted run's.
    """
    import os

    from ..runtime.checkpoint import CheckpointError, CheckpointStore, FaultPlan
    from ..runtime.slots import OneShotPolicy, SlotEngine, SlotRow

    if max_steps <= 0:
        return [_empty_result(graph, clamps) for graph, clamps in instances]

    every = int(checkpoint_every) if checkpoint_every is not None else 10 * int(check_interval)
    if every <= 0:
        raise ValueError("checkpoint_every must be positive")
    fingerprint = _solve_fingerprint(instances, seeds, config, backend, max_steps, check_interval)
    store = CheckpointStore(checkpoint_dir, kind="csp-solve", fault=fault)

    engine = SlotEngine(
        decoder=CSP_SLOT_DECODER,
        window=max(1, config.decode_window),
        check_interval=check_interval,
        extendable=False,
    )
    policy = OneShotPolicy([])
    completed: Dict[int, CSPSolveResult] = {}

    latest = store.load_latest()
    if latest is not None:
        _, payload = latest
        if payload.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint in {os.fspath(checkpoint_dir)} belongs to a different solve "
                "(instances, seeds, config, backend or budgets changed)"
            )
        completed = dict(payload["completed"])
        row_states = payload["engine"]["rows"]
        networks = [build_entry(int(rs["payload"])).network for rs in row_states]
        engine.restore_state(payload["engine"], networks)
    else:
        admissions = []
        for index in range(len(instances)):
            entry = build_entry(index)
            admissions.append(
                (
                    SlotRow(
                        graph=entry.graph, clamps=entry.clamps, budget=max_steps, payload=index
                    ),
                    entry.network,
                )
            )
        engine.recompose([], admissions)

    def drain_outcomes() -> None:
        updates_per_step = engine.updates_per_step or 0
        while policy.outcomes:
            outcome = policy.outcomes.pop()
            completed[int(outcome.row.payload)] = CSPSolveResult(
                solved=outcome.decode.solved,
                steps=outcome.local_steps,
                values=outcome.decode.values,
                decided=outcome.decode.decided,
                total_spikes=outcome.spikes,
                neuron_updates=outcome.local_steps * updates_per_step,
                attempts=1,
                attempt_steps=(outcome.local_steps,),
            )

    def save() -> None:
        store.save(
            engine.global_step,
            {
                "fingerprint": fingerprint,
                "engine": engine.export_state(),
                "completed": dict(completed),
            },
        )

    while engine.rows and engine.global_step < max_steps:
        checkpoint = engine.step()
        if checkpoint is not None:
            decision = policy.on_checkpoint(checkpoint)
            engine.recompose(decision.keep, decision.admissions)
            drain_outcomes()
        if engine.global_step % every == 0:
            save()
        if fault is not None and fault.should_crash(engine.global_step):
            os._exit(FaultPlan.CRASH_EXIT_CODE)
    drain_outcomes()
    save()

    return [
        completed[i] if i in completed else _empty_result(graph, clamps)
        for i, (graph, clamps) in enumerate(instances)
    ]


def _empty_decode(graph: ConstraintGraph, clamps: ClampsLike) -> Tuple[np.ndarray, np.ndarray]:
    """Decode of the canonical zero-step window (clamps only)."""
    from ..runtime.slots import SlotEngine

    window_counts, last_spike = SlotEngine.empty_window(graph.num_neurons)
    return decode_assignment(graph, window_counts, last_spike, clamps)


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
    values, decided = _empty_decode(graph, clamps)
    return CSPSolveResult(
        solved=graph.is_solution(values, decided),
        steps=0,
        values=values,
        decided=decided,
        total_spikes=0,
        neuron_updates=0,
        attempts=1,
        attempt_steps=(0,),
    )

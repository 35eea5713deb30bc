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

Every route into the slot engine — :func:`solve_instances` (and the
:meth:`SpikingCSPSolver.solve` / :meth:`~SpikingCSPSolver.solve_batch`
wrappers over it), the restart portfolio and the solve service — turns
an instance into a batch row the same way: :func:`resolve_instance`
checks its clamps, and ``SpikingCSPSolver(graph, config, seed=...).row``
builds the row from the config's cached template and the graph's shared
connectivity (:func:`_connectivity`, one object per structure and
weights).  :func:`solve_instances` runs a one-shot batch: every
instance once, until it solves or exhausts its budget, dropping solved
replicas from the live batch — every result stays bit-identical to a
sequential run.  :meth:`SpikingCSPSolver.build_network` stays the
sequential reference.  :data:`CSP_SLOT_DECODER` declares each row of
one shared domain a :class:`~repro.runtime.slots.DecodePlan` at
admission, so the native slot books settle it at its checks; the rows
they find solved, the rows at their budget and the rows of differing
domains are decoded here one at a time, by :func:`decode_assignment`
and :meth:`ConstraintGraph.is_solution`: the one Python decode, whose
verdict the native books' equals.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.batch import BatchRow, batch_row
from ..runtime.drives import AnnealedNoiseSpec
from ..runtime.slots import (
    DecodePlan,
    OneShotPolicy,
    SlotDecode,
    SlotEngine,
    SlotOutcome,
    SlotRow,
)
from ..snn.fixed_izhikevich import FixedPointPopulation
from ..snn.izhikevich import IzhikevichPopulation
from ..snn.network import Population, SNNNetwork
from ..snn.synapse import SparseSynapses
from .config import CSPConfig
from .graph import ClampsLike, ConstraintGraph

__all__ = [
    "CSPSolveResult",
    "SpikingCSPSolver",
    "decode_assignment",
    "resolve_instance",
    "solve_instances",
]

#: LRU bound of the shared WTA connectivity (entries).
_CONNECTIVITY_SIZE = 64
_CONNECTIVITY: "OrderedDict[Tuple[str, float, float], SparseSynapses]" = OrderedDict()


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

    Solvers of structurally equal graphs under equal weights share one
    synapse object (:func:`_connectivity`).
    """

    def __init__(
        self,
        graph: ConstraintGraph,
        config: Optional[CSPConfig] = None,
        *,
        backend: str = "fixed",
        seed: int = 7,
    ) -> None:
        if backend not in ("fixed", "float64"):
            raise ValueError(f"unknown backend {backend!r}")
        self.graph = graph
        self.config = config if config is not None else CSPConfig()
        self.backend = backend
        self.seed = seed
        self.synapses = _connectivity(graph, self.config)

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
        # a bit-identical vectorised (B, N) drive out of many of them
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
        drive consumes: stack it with rows whose specs compile with it,
        as the slot engine does.
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
        return self.solve_batch([clamps], max_steps=max_steps, check_interval=check_interval)[0]

    def solve_batch(
        self,
        clamps_list: Sequence[ClampsLike],
        *,
        max_steps: int = 3000,
        check_interval: int = 10,
    ) -> List[CSPSolveResult]:
        """Solve ``B`` instances of this graph at once on the batch engine.

        :func:`solve_instances` over ``(self.graph, clamps)`` pairs, every
        replica under this solver's seed: they share the WTA connectivity
        and differ only in drive, so every 1 ms step advances the whole
        batch in fused ``(B, N)`` updates while each result stays
        bit-identical to a sequential :meth:`solve`.
        """
        instances = [(self.graph, clamps) for clamps in clamps_list]
        return solve_instances(
            instances,
            config=self.config,
            backend=self.backend,
            seeds=[self.seed] * len(instances),
            max_steps=max_steps,
            check_interval=check_interval,
        )


def resolve_instance(graph: ConstraintGraph, clamps: ClampsLike) -> List[Tuple[int, int, int]]:
    """:meth:`ConstraintGraph.resolve_clamps`, plus ``ValueError`` when two
    clamps sit on a conflict edge: the one clamp check of every solve path."""
    resolved = graph.resolve_clamps(clamps)
    if not graph.clamps_consistent(resolved):
        raise ValueError("clamps violate a constraint edge")
    return resolved


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

    The one-shot solve: every instance runs once, until it solves or
    exhausts ``max_steps``, as the :class:`~repro.runtime.slots.OneShotPolicy`
    of the shared slot engine, whose windows, recency bookkeeping and
    decode points make a batch of ``B`` reproduce ``B`` sequential runs.
    The graphs may differ between instances (e.g. independently
    generated coloring instances) as long as every graph has the same
    neuron count; rows of structurally equal graphs share one
    connectivity object.  ``seeds`` gives a per-instance noise seed.  By
    default each instance receives an *independent* seed spawned from
    ``seed`` through ``numpy.random.SeedSequence`` (the
    :func:`repro.runtime.sweep.derive_task_seed` scheme), so identical
    instances still sample ``B`` trajectories; explicit ``seeds`` are
    honoured bit-for-bit, including one shared value for every replica.

    Replicas whose decoded assignment is already a solution are *dropped
    from the live batch* (the engine's recomposition over
    :meth:`BatchedNetwork.retain`), so late steps only advance the
    still-unsolved instances; replicas are independent, so this never
    changes a result.

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

    Degenerate shapes never allocate a batch: an empty instance list
    returns ``[]``, and a non-positive step budget short-circuits in
    :meth:`SlotEngine.run`, leaving every instance to the canonical
    zero-step decode (:func:`_empty_result`).
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

    admissions = []
    for index, ((graph, clamps), instance_seed) in enumerate(zip(instances, seeds)):
        resolved = resolve_instance(graph, clamps)
        solver = SpikingCSPSolver(graph, cfg, backend=backend, seed=int(instance_seed))
        row = SlotRow(graph=graph, clamps=resolved, budget=max_steps, payload=index)
        admissions.append((row, solver.row(resolved)))
    store = identity = None
    if checkpoint_dir is not None:
        from ..runtime.checkpoint import CheckpointStore

        store = CheckpointStore(checkpoint_dir, kind="csp-solve", fault=fault)
        identity = _solve_fingerprint(instances, seeds, cfg, backend, max_steps, check_interval)
    engine = SlotEngine(
        decoder=CSP_SLOT_DECODER,
        window=cfg.decode_window,
        check_interval=check_interval,
        store=store,
        checkpoint_every=checkpoint_every,
        fault=fault,
    )
    policy = OneShotPolicy(admissions, identity=identity)
    engine.run(policy, max_steps=max_steps)

    results: List[Optional[CSPSolveResult]] = [None] * len(admissions)
    updates_per_step = engine.updates_per_step or 0
    for outcome in policy.outcomes:
        results[outcome.row.payload] = _solve_result(outcome, updates_per_step)
    # Rows with no outcome never stepped (max_steps <= 0).
    return [
        result if result is not None else _empty_result(row.graph, row.clamps)
        for (row, _), result in zip(admissions, results)
    ]


def _connectivity(graph: ConstraintGraph, config: CSPConfig) -> SparseSynapses:
    """The WTA connectivity of ``graph`` under ``config``'s weights, built once.

    Keyed (LRU-bounded) by the structural digest, which hashes everything
    :meth:`~ConstraintGraph.build_synapses` reads and which
    ``add_conflict`` resets, plus the two weights: equal structures share
    one synapse object, and so the batch engine's shared-matrix kernel,
    while a mutated graph gets a fresh build.  Sharing never changes a result.
    """
    key = (graph.cache_token(), config.inhibition_weight, config.self_excitation)
    synapses = _CONNECTIVITY.pop(key, None)
    if synapses is None:
        synapses = graph.build_synapses(
            inhibition_weight=config.inhibition_weight, self_excitation=config.self_excitation
        )
    _CONNECTIVITY[key] = synapses
    if len(_CONNECTIVITY) > _CONNECTIVITY_SIZE:
        _CONNECTIVITY.popitem(last=False)
    return synapses


# ---------------------------------------------------------------------- #
# Row template and slot decode
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


class _CSPSlotDecoder:
    """Constraint-graph decode adapter for the runtime slot engine.

    Rows carry their :class:`ConstraintGraph` and resolved clamps.  At
    admission, a row whose graph has one shared domain gets a
    :class:`~repro.runtime.slots.DecodePlan` — the domain's width, its
    clamps as (variable, position) columns and the graph's conflict CSR
    — which lets the native books settle it at its checks.  The engine
    hands over each at-check row left to decode with its sliding-window
    state, and :meth:`decode` is :func:`decode_assignment` +
    ``is_solution``.  One instance serves every CSP-layer engine
    (per-row constants live on the rows' plans).
    """

    def plan(self, row: SlotRow) -> Optional[DecodePlan]:
        """The row's plan, or ``None`` when its graph's domains differ.

        Reads the row's resolved clamps as they are and the graph's
        cached conflict CSR, so it adds no work a row's admission does
        not already do.
        """
        graph = row.graph
        shared = graph.homogeneous_domain
        if shared is None:
            return None
        width, resolved = len(shared), graph.resolve_clamps(row.clamps)
        triples = np.fromiter(
            itertools.chain.from_iterable(resolved), dtype=np.int64, count=3 * len(resolved)
        ).reshape(-1, 3)
        groups = triples[:, 0]
        targets, indptr = graph._conflicts_csr()
        return DecodePlan(
            width=width,
            clamps=np.array((groups, triples[:, 2] - groups * width)),
            targets=targets,
            indptr=indptr,
        )

    def decode(self, row: SlotRow, window_counts: np.ndarray, last_spike: np.ndarray) -> SlotDecode:
        """:func:`decode_assignment` of the row's window, solved by ``is_solution``."""
        values, decided = decode_assignment(row.graph, window_counts, last_spike, row.clamps)
        return SlotDecode(values, decided, row.graph.is_solution(values, decided))


CSP_SLOT_DECODER = _CSPSlotDecoder()


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
    row = SlotRow(graph, clamps, budget=0)
    decode = CSP_SLOT_DECODER.decode(row, *SlotEngine.empty_window(graph.num_neurons))
    return _solve_result(SlotOutcome(row, 0, 0, decode), 0)

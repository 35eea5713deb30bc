"""Adaptive restart portfolios for the spiking constraint solver.

The annealed WTA search (paper §VI-C) is a Las-Vegas algorithm: whether
an instance solves within a step budget depends heavily on the noise
stream, and the runtime distribution is heavy-tailed — a hard instance
can stall for the whole budget under one seed yet fall in a few hundred
steps under another.  Fixed-seed :func:`~repro.csp.solver.solve_instances`
pays that tail twice: the stalled replica burns its entire budget, and
the batch capacity freed by early solvers (:meth:`BatchedNetwork.retain`)
sits idle.

:func:`solve_instances_portfolio` keeps the fused batch saturated
instead.  All instances start as one exact-mode batch, and whenever
replicas finish — solved, or out of their per-attempt step budget — the
freed slots are refilled with *restart attempts* of still-unsolved
instances: fresh ``SeedSequence``-derived noise seeds, step budgets from
a Luby (or geometric) schedule, and optionally diversified anneal
configurations.  Several attempts of one instance may race; the first
solution wins and the rest are dropped at the next check point.

Determinism and exactness:

* every attempt is **bit-identical** to a standalone
  ``SpikingCSPSolver(graph, cfg, seed=attempt_seed).solve(clamps,
  max_steps=budget)`` run — attempts keep their own *local* step counter
  (driving the anneal phase, sliding-window decode and recency
  bookkeeping), so stacking an attempt into a half-finished batch cannot
  change its trajectory;
* attempt seeds derive from ``(portfolio seed, instance index, attempt
  index)`` through ``SeedSequence`` spawn keys, so the schedule is
  reproducible regardless of which slot an attempt lands in;
* ``PortfolioConfig(schedule="fixed", base_budget=max_steps,
  max_attempts=1)`` runs exactly one full-budget attempt per instance
  and is bit-identical to ``solve_instances``, the one-shot solve;
* attempts are rows as the solver builds them: clamps checked once per
  instance (:func:`~repro.csp.solver.resolve_instance`), connectivity
  shared per graph structure across every attempt and refill.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..runtime.slots import SlotAdmission, SlotDecision, SlotDecode, SlotEngine, SlotRow
from .config import CSPConfig
from .graph import ClampsLike, ConstraintGraph
from .solver import (
    CSP_SLOT_DECODER,
    CSPSolveResult,
    SpikingCSPSolver,
    _empty_result,
    resolve_instance,
)

__all__ = [
    "PortfolioConfig",
    "RestartPortfolioPolicy",
    "derive_attempt_seed",
    "luby",
    "solve_instances_portfolio",
]

#: Config fields an anneal variant may override: drive-level parameters
#: only, so every attempt shares the batch's connectivity, population
#: configuration and decode window.
_VARIANT_FIELDS = frozenset({"noise_sigma", "anneal_period", "anneal_floor"})


def luby(index: int) -> int:
    """The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ... (1-based index).

    The universal strategy of Luby, Sinclair and Zuckerman: restarts
    scheduled by this sequence are within a logarithmic factor of the
    optimal (unknown) fixed cutoff for any Las-Vegas runtime
    distribution.
    """
    if index < 1:
        raise ValueError("luby index is 1-based")
    k = index.bit_length()
    while True:
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        if index < (1 << k) - 1:
            k -= 1
            index -= (1 << k) - 1
            k = index.bit_length()
        else:  # pragma: no cover - unreachable (k = bit_length bound)
            k += 1


def derive_attempt_seed(portfolio_seed: int, instance: int, attempt: int) -> int:
    """Deterministic, well-mixed noise seed for one portfolio attempt.

    Spawns ``SeedSequence(portfolio_seed, spawn_key=(instance, attempt))``
    — the same scheme as :func:`repro.runtime.sweep.derive_task_seed`,
    keyed by both coordinates so neighbouring attempts and instances get
    statistically independent streams.
    """
    sequence = np.random.SeedSequence(int(portfolio_seed), spawn_key=(int(instance), int(attempt)))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class PortfolioConfig:
    """Restart schedule and diversification policy of a solve portfolio."""

    #: ``"luby"`` (default), ``"geometric"`` or ``"fixed"`` per-attempt
    #: step budgets: ``base_budget * luby(k)``, ``base_budget *
    #: growth**(k-1)`` or ``base_budget`` for attempt ``k``.
    schedule: str = "luby"
    #: Steps allotted to a first attempt (the schedule's unit).
    base_budget: int = 400
    #: Growth factor of the geometric schedule.
    growth: float = 2.0
    #: Maximum attempts per instance (0 = unbounded within the run's
    #: global step budget; 1 = one attempt each, the one-shot solve).
    max_attempts: int = 0
    #: Maximum *concurrent* attempts per instance (0 = unbounded — freed
    #: slots always refill while any instance is unsolved).
    max_parallel: int = 2
    #: Root seed of the attempt-seed derivation (see
    #: :func:`derive_attempt_seed`).
    seed: int = 0
    #: Optional drive-parameter overrides cycled over restart attempts:
    #: attempt 1 always runs the base config; attempt ``k >= 2`` applies
    #: ``anneal_variants[(k - 2) % len]`` (each a mapping over
    #: ``noise_sigma`` / ``anneal_period`` / ``anneal_floor``).
    anneal_variants: Tuple[Mapping[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.schedule not in ("luby", "geometric", "fixed"):
            raise ValueError(f"unknown restart schedule {self.schedule!r}")
        try:
            base_budget = operator.index(self.base_budget)
        except TypeError:
            raise ValueError(f"base_budget must be an integer, got {self.base_budget!r}") from None
        if base_budget < 1:
            raise ValueError("base_budget must be positive")
        if self.schedule == "geometric" and not self.growth >= 1.0:
            raise ValueError("geometric growth must be >= 1")
        if self.max_attempts < 0 or self.max_parallel < 0:
            raise ValueError("max_attempts and max_parallel must be >= 0 (0 = unbounded)")
        for variant in self.anneal_variants:
            unknown = set(variant) - _VARIANT_FIELDS
            if unknown:
                raise ValueError(
                    f"anneal variants may only override {sorted(_VARIANT_FIELDS)}; "
                    f"got {sorted(unknown)}"
                )

    def attempt_budget(self, attempt: int) -> int:
        """Step budget of the ``attempt``-th (1-based) attempt."""
        if self.schedule == "luby":
            return self.base_budget * luby(attempt)
        if self.schedule == "geometric":
            return int(round(self.base_budget * self.growth ** (attempt - 1)))
        return self.base_budget

    def attempt_config(self, base: CSPConfig, attempt: int) -> CSPConfig:
        """The (possibly diversified) solver config of one attempt."""
        if attempt < 2 or not self.anneal_variants:
            return base
        variant = self.anneal_variants[(attempt - 2) % len(self.anneal_variants)]
        return base.with_updates(**dict(variant))


@dataclass
class _Attempt:
    """Policy payload of one live batch row: an attempt of one instance.

    The row's step budget and admission offset live on the engine's
    :class:`~repro.runtime.slots.SlotRow`; the payload only keys the
    attempt back to its instance accounting.
    """

    instance: int
    attempt: int  # 1-based per-instance attempt index


@dataclass
class _InstanceState:
    """Per-instance scheduling and accounting state."""

    graph: ConstraintGraph
    clamps: list
    solved: bool = False
    launched: int = 0
    live: int = 0
    attempt_steps: List[int] = field(default_factory=list)
    total_spikes: int = 0
    #: Winning (or, unsolved, most recent) decode snapshot.
    steps: int = 0
    values: Optional[np.ndarray] = None
    decided: Optional[np.ndarray] = None


def solve_instances_portfolio(
    instances: Sequence[Tuple[ConstraintGraph, ClampsLike]],
    *,
    config: Optional[CSPConfig] = None,
    portfolio: Optional[PortfolioConfig] = None,
    backend: str = "fixed",
    seeds: Optional[Sequence[int]] = None,
    max_steps: int = 3000,
    check_interval: int = 10,
    slots: Optional[int] = None,
) -> List[CSPSolveResult]:
    """Solve instances with an adaptive restart portfolio on one batch.

    The drop-in counterpart of :func:`repro.csp.solver.solve_instances`
    with restart refilling: the global step budget ``max_steps`` bounds
    the run's wall clock (every live replica advances once per global
    step), while each attempt is additionally bounded by its schedule
    budget.  See the module docstring for the scheduling policy.

    Parameters
    ----------
    instances:
        ``(graph, clamps)`` pairs; all graphs must share one neuron count.
    config / portfolio:
        Solver weights (:class:`CSPConfig`) and restart policy
        (:class:`PortfolioConfig`).
    seeds:
        Optional explicit noise seeds of each instance's *first* attempt
        (restart attempts always derive theirs from the portfolio seed).
        Under ``PortfolioConfig(schedule="fixed", base_budget=max_steps,
        max_attempts=1)`` this makes the run bit-identical to
        ``solve_instances(instances, seeds=seeds, ...)``.
    max_steps:
        Global step budget shared by the whole batch.
    slots:
        Number of parallel batch rows to keep saturated (default: one per
        instance; ``ValueError`` below 1).

    Returns
    -------
    One :class:`CSPSolveResult` per instance, in order, with
    ``attempts`` / ``attempt_steps`` / ``neuron_updates`` accounting for
    every attempt launched for that instance.
    """
    if slots is not None and slots < 1:
        raise ValueError("slots must be positive")
    if not instances:
        return []
    cfg = config if config is not None else CSPConfig()
    pcfg = portfolio if portfolio is not None else PortfolioConfig()
    if seeds is not None and len(seeds) != len(instances):
        raise ValueError("seeds must match the number of instances")
    sizes = {graph.num_neurons for graph, _ in instances}
    if len(sizes) != 1:
        raise ValueError(f"instances have differing neuron counts: {sorted(sizes)}")
    num_slots = len(instances) if slots is None else int(slots)

    states = [
        _InstanceState(graph=graph, clamps=resolve_instance(graph, clamps))
        for graph, clamps in instances
    ]
    if max_steps <= 0:
        return [_empty_result(state.graph, state.clamps) for state in states]

    engine = SlotEngine(
        decoder=CSP_SLOT_DECODER,
        window=cfg.decode_window,
        check_interval=check_interval,
    )
    policy = RestartPortfolioPolicy(
        states,
        config=cfg,
        portfolio=pcfg,
        backend=backend,
        seeds=seeds,
        num_slots=num_slots,
        max_steps=max_steps,
    )
    engine.run(policy, max_steps=max_steps)
    policy.finalize(engine)

    updates_per_step = engine.updates_per_step or 0
    results = []
    for state in states:
        if state.values is None:
            # Never launched (the global budget ran out first): the
            # canonical zero-step decode (clamps only).
            empty = _empty_result(state.graph, state.clamps)
            state.solved, state.values, state.decided = empty.solved, empty.values, empty.decided
        results.append(
            CSPSolveResult(
                solved=state.solved,
                steps=state.steps,
                values=state.values,
                decided=state.decided,
                total_spikes=state.total_spikes,
                neuron_updates=sum(state.attempt_steps) * updates_per_step,
                attempts=state.launched,
                attempt_steps=tuple(state.attempt_steps),
            )
        )
    return results


class RestartPortfolioPolicy:
    """Slot policy implementing the adaptive restart portfolio.

    The continuous-batching mechanics — stepping, local counters,
    sliding windows, retain-before-extend recomposition — belong to
    :class:`~repro.runtime.slots.SlotEngine`; this policy holds only
    the *scheduling* intelligence: ``SeedSequence``-derived attempt
    seeds (:func:`derive_attempt_seed`), Luby/geometric/fixed step
    budgets, drive diversification, round-robin refilling of freed
    slots, and racing with first-win cancellation (rows whose instance
    another attempt already solved retire at the next checkpoint).
    """

    def __init__(
        self,
        states: Sequence[_InstanceState],
        *,
        config: CSPConfig,
        portfolio: PortfolioConfig,
        backend: str,
        seeds: Optional[Sequence[int]],
        num_slots: int,
        max_steps: int,
    ) -> None:
        self._states = list(states)
        self._cfg = config
        self._pcfg = portfolio
        self._backend = backend
        self._seeds = seeds
        self._num_slots = num_slots
        self._max_steps = max_steps
        #: Instances not yet solved; the run stops early when it hits 0.
        self.unsolved = len(self._states)

    # -- attempt construction ------------------------------------------ #
    def _build_attempt(self, instance: int) -> SlotAdmission:
        """A fresh attempt row for ``instance`` (offset stamped at admit)."""
        state = self._states[instance]
        pcfg = self._pcfg
        state.launched += 1
        attempt_index = state.launched
        if attempt_index == 1 and self._seeds is not None:
            attempt_seed = int(self._seeds[instance])
        else:
            attempt_seed = derive_attempt_seed(pcfg.seed, instance, attempt_index)
        solver = SpikingCSPSolver(
            state.graph,
            pcfg.attempt_config(self._cfg, attempt_index),
            backend=self._backend,
            seed=attempt_seed,
        )
        state.live += 1
        row = SlotRow(
            graph=state.graph,
            clamps=state.clamps,
            budget=min(pcfg.attempt_budget(attempt_index), self._max_steps),
            payload=_Attempt(instance=instance, attempt=attempt_index),
        )
        return row, solver.row(state.clamps)

    def _eligible(self, instance: int) -> bool:
        state = self._states[instance]
        pcfg = self._pcfg
        if state.solved:
            return False
        if pcfg.max_attempts and state.launched >= pcfg.max_attempts:
            return False
        if pcfg.max_parallel and state.live >= pcfg.max_parallel:
            return False
        return True

    def _pick_refills(self, count: int, global_step: int) -> List[SlotAdmission]:
        """Launch up to ``count`` attempts for unsolved instances.

        Round-robin by launched-attempt count (fewest first, ties by
        instance index) — deterministic, and it spreads the freed
        capacity over the whole unsolved pool before racing extra
        attempts on any one instance.  Under ``max_attempts=1`` only
        *first* attempts are dispatched (instances beyond the initial
        wave still get their one attempt when a slot frees up; a late
        wave sees whatever global steps remain).
        """
        if global_step >= self._max_steps:
            return []
        launched: List[SlotAdmission] = []
        while len(launched) < count:
            candidates = [i for i in range(len(self._states)) if self._eligible(i)]
            if not candidates:
                break
            chosen = min(candidates, key=lambda i: (self._states[i].launched, i))
            launched.append(self._build_attempt(chosen))
        return launched

    # -- accounting ----------------------------------------------------- #
    def _retire(
        self, attempt: _Attempt, local_steps: int, spikes: int, decode: Optional[SlotDecode]
    ) -> None:
        """Book a retired attempt into its instance; a decode (not when raced) is its snapshot."""
        state = self._states[attempt.instance]
        state.live -= 1
        state.attempt_steps.append(int(local_steps))
        state.total_spikes += int(spikes)
        if decode is not None:
            state.steps = int(local_steps)
            state.values, state.decided = decode.values, decode.decided
            if decode.solved:
                state.solved = True
                self.unsolved -= 1

    # -- SlotPolicy ----------------------------------------------------- #
    def initial_admissions(self, engine: SlotEngine) -> List[SlotAdmission]:
        """Attempt 1 of the first ``num_slots`` instances, then restart
        refills if slots remain."""
        admissions = [
            self._build_attempt(instance)
            for instance in range(min(self._num_slots, len(self._states)))
        ]
        admissions.extend(self._pick_refills(self._num_slots - len(admissions), 0))
        return admissions

    def on_checkpoint(self, checkpoint) -> SlotDecision:
        finished = checkpoint.finished
        spikes = checkpoint.engine.row_spikes
        keep: List[int] = []
        for row_index, row in enumerate(checkpoint.rows):
            # A raced attempt (another row solved its instance) retires
            # without a decode.
            raced = self._states[row.payload.instance].solved
            if raced or row_index in finished:
                decode = None if raced else finished[row_index].decode
                self._retire(row.payload, checkpoint.local[row_index], spikes[row_index], decode)
            else:
                keep.append(row_index)
        refills = (
            self._pick_refills(self._num_slots - len(keep), checkpoint.step)
            if self.unsolved
            else []
        )
        return SlotDecision(keep=keep, admissions=refills, stop=not self.unsolved)

    def finalize(self, engine: SlotEngine) -> None:
        """Trailing decode for attempts still live at the global budget,
        mirroring the one-shot loop's final decode."""
        local = engine.local_steps()
        for row_index, row in enumerate(engine.rows):
            raced = self._states[row.payload.instance].solved
            decode = None if raced else engine.decode_row(row_index)
            self._retire(row.payload, local[row_index], engine.row_spikes[row_index], decode)

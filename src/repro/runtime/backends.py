"""`SimBackend` protocol and registry unifying the four execution paths.

The reproduction simulates the same neuromorphic workloads at four levels
of fidelity, historically through four unrelated entry points:

=============  ====================================================  =============
Backend name   Implementation                                        Fidelity
=============  ====================================================  =============
``float64``    :mod:`repro.snn.izhikevich` via ``SNNNetwork``        Izhikevich's
               (double-precision Euler reference)                    MATLAB script
``fixed``      :mod:`repro.snn.fixed_izhikevich` via ``SNNNetwork``  bit-exact with
               (vectorised NPU integer datapath)                     the hardware
``functional`` :mod:`repro.sim.functional` running generated         instruction-
               RISC-V programs (:mod:`repro.codegen`)                accurate
``cycle``      :mod:`repro.sim.pipeline` 3-stage pipeline with       cycle-
               caches on top of the functional simulator             accurate
=============  ====================================================  =============

Every backend accepts the same :class:`RunRequest` (workload + size +
steps + seed) and produces a :class:`RunResult`, so harness drivers,
benchmarks and sweeps can switch fidelity by name.  Network-level
backends additionally expose :meth:`SimBackend.build_network`, which the
batch engine uses to stack replicas (``supports_batching``); ISA-level
backends return ``None`` there and are fanned out through
:class:`repro.runtime.sweep.SweepExecutor` instead.

Registering a new backend::

    from repro.runtime import SimBackend, register_backend

    class MyBackend:
        name = "my-backend"
        description = "..."
        level = "network"          # or "isa" / "cycle"
        supports_batching = False

        def run(self, request): ...
        def build_network(self, request): ...   # or return None

    register_backend(MyBackend())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Protocol, Union, runtime_checkable

import numpy as np

from ..snn.analysis import SpikeRaster
from ..snn.eighty_twenty import EightyTwentyConfig, build_eighty_twenty
from ..snn.network import SNNNetwork
from .cache import RunResultCache, resolve_cache

__all__ = [
    "RunRequest",
    "RunResult",
    "SimBackend",
    "eighty_twenty_config",
    "register_backend",
    "get_backend",
    "available_backends",
    "run_on_backend",
]

#: Workload identifiers understood by the built-in backends.
WORKLOAD_EIGHTY_TWENTY = "eighty-twenty"
WORKLOAD_SUDOKU = "sudoku"
WORKLOAD_CSP = "csp"


@dataclass(frozen=True)
class RunRequest:
    """Backend-independent description of one simulation run.

    Parameters
    ----------
    workload:
        ``"eighty-twenty"``, ``"sudoku"`` or ``"csp"``.
    num_steps:
        Simulation length in 1 ms network steps.
    num_neurons:
        Population size; ``None`` selects the workload's paper-scale
        default (1000 for the 80-20 network, 729 for Sudoku).
    seed:
        Seed for network construction and input noise.
    options:
        Backend- or workload-specific extras (e.g. ``current_mode`` for
        the network backends, ``kind`` for the code generators,
        ``puzzle`` for Sudoku runs, or ``scenario`` / ``params`` /
        ``solver_seed`` for the constraint-solver workload).
    """

    workload: str = WORKLOAD_EIGHTY_TWENTY
    num_steps: int = 100
    num_neurons: Optional[int] = None
    seed: int = 2003
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class RunResult:
    """Uniform result envelope produced by every backend."""

    backend: str
    workload: str
    num_steps: int
    #: Total number of spikes emitted during the run.
    total_spikes: int
    #: Spike raster, for backends that record one (network level).
    raster: Optional[SpikeRaster] = None
    #: Backend-specific scalar metrics (IPC, instret, rates, ...).
    metrics: Dict[str, float] = field(default_factory=dict)


@runtime_checkable
class SimBackend(Protocol):
    """Uniform interface over the four execution paths.

    Attributes
    ----------
    name:
        Registry key.
    description:
        One-line human-readable summary.
    level:
        ``"network"`` (vectorised SNN engines), ``"isa"`` (functional
        simulator) or ``"cycle"`` (cycle-accurate pipeline).
    supports_batching:
        ``True`` when :meth:`build_network` yields stackable
        :class:`~repro.snn.network.SNNNetwork` instances.
    """

    name: str
    description: str
    level: str
    supports_batching: bool

    def run(self, request: RunRequest) -> RunResult:
        """Execute one run described by ``request``."""
        ...

    def build_network(self, request: RunRequest) -> Optional[SNNNetwork]:
        """Network-level backends return a fresh network; others ``None``."""
        ...


# ---------------------------------------------------------------------- #
# Network-level backends (float64 reference and fixed-point NPU datapath)
# ---------------------------------------------------------------------- #
def eighty_twenty_config(num_neurons: Optional[int], seed: int) -> EightyTwentyConfig:
    """The canonical 80/20 excitatory/inhibitory split for a scaled network.

    The one definition the network backends build every 80-20 network
    (and so every sweep replica) from.
    """
    if num_neurons is None:
        return EightyTwentyConfig(seed=seed)
    num_exc = int(round(0.8 * num_neurons))
    return EightyTwentyConfig(
        num_excitatory=num_exc,
        num_inhibitory=num_neurons - num_exc,
        seed=seed,
    )


class _NetworkBackend:
    """Shared implementation of the two SNN-level backends."""

    level = "network"
    supports_batching = True

    def __init__(self, name: str, description: str, snn_backend: str) -> None:
        self.name = name
        self.description = description
        self._snn_backend = snn_backend  # "float64" | "fixed"

    def build_network(self, request: RunRequest) -> SNNNetwork:
        options = dict(request.options)
        if request.workload == WORKLOAD_EIGHTY_TWENTY:
            net_def = build_eighty_twenty(eighty_twenty_config(request.num_neurons, request.seed))
            if self._snn_backend == "float64":
                return net_def.float_network()
            return net_def.fixed_network(
                h_shift=int(options.get("h_shift", 1)),
                current_mode=str(options.get("current_mode", "recompute")),
            )
        if request.workload == WORKLOAD_SUDOKU:
            from ..sudoku.board import SudokuBoard
            from ..sudoku.puzzles import PuzzleGenerator
            from ..sudoku.solver import SNNSudokuSolver

            puzzle = options.get("puzzle")
            if puzzle is None:
                puzzle = PuzzleGenerator().generate(
                    seed=request.seed,
                    target_clues=int(options.get("target_clues", 30)),
                ).puzzle
            elif not isinstance(puzzle, SudokuBoard):
                puzzle = SudokuBoard(np.asarray(puzzle))
            solver = SNNSudokuSolver(backend=self._snn_backend, seed=request.seed)
            return solver._build_network(puzzle)
        if request.workload == WORKLOAD_CSP:
            from ..csp import SpikingCSPSolver
            from ..csp.scenarios import make_instance

            scenario = str(options.get("scenario", "coloring"))
            params = dict(options.get("params", {}))
            graph, clamps = make_instance(scenario, seed=request.seed, **params)
            solver = SpikingCSPSolver(
                graph,
                backend=self._snn_backend,
                seed=int(options.get("solver_seed", request.seed)),
            )
            return solver.build_network(clamps)
        raise ValueError(f"backend {self.name!r} cannot run workload {request.workload!r}")

    def run(self, request: RunRequest) -> RunResult:
        network = self.build_network(request)
        raster = network.run(request.num_steps)
        return RunResult(
            backend=self.name,
            workload=request.workload,
            num_steps=request.num_steps,
            total_spikes=raster.num_spikes,
            raster=raster,
            metrics={"mean_rate_hz": raster.mean_rate_hz()},
        )


# ---------------------------------------------------------------------- #
# ISA-level backends (functional and cycle-accurate)
# ---------------------------------------------------------------------- #
def _build_workload(request: RunRequest) -> Any:
    from ..codegen import build_eighty_twenty_workload, build_sudoku_workload

    options = dict(request.options)
    kind = str(options.get("kind", "extension"))
    if request.workload == WORKLOAD_EIGHTY_TWENTY:
        return build_eighty_twenty_workload(
            num_neurons=request.num_neurons if request.num_neurons is not None else 64,
            num_steps=request.num_steps,
            kind=kind,
            seed=request.seed,
        )
    if request.workload == WORKLOAD_SUDOKU:
        return build_sudoku_workload(
            options.get("puzzle"),
            num_steps=request.num_steps,
            kind=kind,
            seed=request.seed,
        )
    raise ValueError(f"unknown workload {request.workload!r}")


class _FunctionalBackend:
    name = "functional"
    description = "instruction-accurate ISS executing generated RISC-V kernels"
    level = "isa"
    supports_batching = False

    def build_network(self, request: RunRequest) -> None:
        return None

    def run(self, request: RunRequest) -> RunResult:
        workload = _build_workload(request)
        fsim = workload.make_simulator()
        fsim.run()
        return RunResult(
            backend=self.name,
            workload=request.workload,
            num_steps=request.num_steps,
            total_spikes=workload.total_spikes(fsim),
            metrics={
                "instret": float(fsim.instret),
                "exit_code": float(fsim.exit_code),
            },
        )


class _CycleBackend:
    name = "cycle"
    description = "cycle-accurate 3-stage pipeline with caches on the ISS"
    level = "cycle"
    supports_batching = False

    def build_network(self, request: RunRequest) -> None:
        return None

    def run(self, request: RunRequest) -> RunResult:
        from ..sim import CoreConfig, CycleAccurateCore

        workload = _build_workload(request)
        config = request.options.get("core_config") or CoreConfig()
        core = CycleAccurateCore(workload.make_simulator(), config)
        counters = core.run()
        return RunResult(
            backend=self.name,
            workload=request.workload,
            num_steps=request.num_steps,
            total_spikes=int(counters.spikes),
            metrics={
                "cycles": float(counters.cycles),
                "instructions": float(counters.instructions),
                "ipc": float(counters.ipc),
                "ipc_eff": float(counters.ipc_eff),
                "hazard_stall_percent": float(counters.hazard_stall_percent),
                "icache_hit_rate": float(counters.icache.hit_rate),
                "dcache_hit_rate": float(counters.dcache.hit_rate),
            },
        )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, SimBackend] = {}


def register_backend(backend: SimBackend, *, replace: bool = False) -> SimBackend:
    """Add a backend to the registry under ``backend.name``."""
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> SimBackend:
    """Look a backend up by name (raises ``KeyError`` with the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown backend {name!r}; registered backends: {known}") from None


def available_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def run_on_backend(
    name: str,
    request: RunRequest,
    *,
    cache: Union[None, bool, str, Path, RunResultCache] = None,
) -> RunResult:
    """Run ``request`` on the named backend, optionally through a cache.

    Parameters
    ----------
    cache:
        ``None`` (default) honours the ``REPRO_RUN_CACHE`` environment
        switch; ``True``/``False`` force the default on-disk
        :class:`~repro.runtime.cache.RunResultCache` on/off; a string or
        path selects an explicit store directory (the picklable form the
        sweep fabric hands its pool workers); an explicit instance is
        used as-is.  A cached run is served without invoking the backend
        at all (the cache key covers backend name, the full request, and
        a fingerprint of the ``repro`` sources).
    """
    backend = get_backend(name)
    resolved = resolve_cache(cache)
    if resolved is None:
        return backend.run(request)
    return resolved.load_or_run(backend, request)


register_backend(
    _NetworkBackend("float64", "double-precision Izhikevich reference (MATLAB column)", "float64")
)
register_backend(
    _NetworkBackend("fixed", "vectorised fixed-point engine, bit-exact with the NPU", "fixed")
)
register_backend(_FunctionalBackend())
register_backend(_CycleBackend())

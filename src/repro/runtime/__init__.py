"""Batched multi-network runtime for the IzhiRISC-V reproduction.

This package makes *batches* of independent simulations the unit of work
(see ``docs/RUNTIME.md`` for worked examples):

:mod:`repro.runtime.backends`
    :class:`SimBackend` protocol plus a registry unifying the four
    execution paths — float64 reference, fixed-point NPU datapath,
    functional ISA simulator and cycle-accurate core — behind one
    ``RunRequest -> RunResult`` interface.
:mod:`repro.runtime.batch`
    :class:`BatchedNetwork`, the vectorised batch engine stacking ``B``
    networks into ``(B, N)`` state arrays advanced by fused updates;
    bit-exact with the sequential engine in its default mode.
:mod:`repro.runtime.cache`
    :class:`RunResultCache`, a content-addressed on-disk cache serving
    repeated backend runs without recomputation (keyed by backend name,
    request and a fingerprint of the ``repro`` sources).
:mod:`repro.runtime.checkpoint`
    Crash-safe snapshots: versioned, checksummed, atomically written
    checkpoint files plus a pruning :class:`CheckpointStore` and the
    deterministic :class:`FaultPlan` used by the chaos suites; paired
    with the ``export_state``/``restore_state`` hooks on
    :class:`BatchedNetwork`, the annealed drive and :class:`SlotEngine`
    so a restored solve continues bit-identically.
:mod:`repro.runtime.drives`
    Drive compilation: per-replica external-input closures compiled into
    one vectorised ``(B, N)`` provider with bit-identical per-replica
    noise streams (pregenerated in chunks), feeding the batch engine.
:mod:`repro.runtime.slots`
    :class:`SlotEngine`, the continuous-batching core shared by the
    one-shot solver batches, the restart portfolio and the solve
    service: the global step loop, per-row local step counters,
    sliding-window decode bookkeeping, retain-before-extend batch
    recomposition and periodic snapshots with resume, with refill
    behaviour delegated to a pluggable :class:`SlotPolicy`.
:mod:`repro.runtime.sweep`
    :class:`SweepExecutor`, the work-stealing sweep fabric: workers pull
    chunked task leases from a shared queue (leases expire and are
    reassigned when a worker dies or stalls), completed tasks land in
    the :class:`RunResultCache` for crash-tolerant resume, and every
    sweep is described by a typed :class:`SweepSpec` and answered with a
    :class:`SweepReport` (with a warned serial fallback when the task
    function cannot be pickled).
:mod:`repro.runtime.workloads`
    Sweep drivers for the paper's workloads: batched 80-20 seed sweeps
    plus pooled Sudoku and constraint-solver (``repro.csp``) solve-rate
    sweeps.
:mod:`repro.runtime.registry`
    The typed workload registry: ``run_sweep_workload(name, config)``
    resolves the four pooled/batched sweep drivers behind one
    ``name -> typed config -> SweepReport`` entry point.
"""

from .backends import (
    RunRequest,
    RunResult,
    SimBackend,
    available_backends,
    eighty_twenty_config,
    get_backend,
    register_backend,
    run_on_backend,
)
from .batch import BatchedNetwork, BatchIncompatibleError
from .cache import RunResultCache, code_fingerprint, default_cache
from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    FaultPlan,
    read_checkpoint,
    write_checkpoint,
)
from .drives import (
    AnnealedNoiseSpec,
    CompiledDrive,
    CompiledScaledDrive,
    PortfolioAnnealedDrive,
    ScaledNoiseSpec,
    compile_batched_external,
)
from .slots import (
    DurablePolicy,
    OneShotPolicy,
    SlotCheckpoint,
    SlotDecision,
    SlotDecode,
    SlotDecoder,
    SlotEngine,
    SlotOutcome,
    SlotPolicy,
    SlotRow,
)
from .sweep import (
    SweepExecutor,
    SweepReport,
    SweepSpec,
    SweepTask,
    SweepTaskRecord,
    derive_task_seed,
    sweep_task_key,
)
from .workloads import (
    SeedSweepResult,
    batched_thalamic_provider,
    build_eighty_twenty_replicas,
    csp_portfolio_sweep,
    eighty_twenty_seed_sweep,
    pooled_csp_sweep,
    pooled_sudoku_sweep,
    run_many_on_backend,
    serve_load_sweep,
)
from .registry import (
    CSPPortfolioSweepConfig,
    PooledCSPSweepConfig,
    PooledSudokuSweepConfig,
    ServeLoadSweepConfig,
    WorkloadEntry,
    register_sweep_workload,
    run_sweep_workload,
    sweep_workload_config,
    sweep_workloads,
)

__all__ = [
    "RunRequest",
    "RunResult",
    "SimBackend",
    "available_backends",
    "eighty_twenty_config",
    "get_backend",
    "register_backend",
    "run_on_backend",
    "BatchedNetwork",
    "BatchIncompatibleError",
    "RunResultCache",
    "code_fingerprint",
    "default_cache",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "FaultPlan",
    "read_checkpoint",
    "write_checkpoint",
    "AnnealedNoiseSpec",
    "CompiledDrive",
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "ScaledNoiseSpec",
    "compile_batched_external",
    "DurablePolicy",
    "OneShotPolicy",
    "SlotCheckpoint",
    "SlotDecision",
    "SlotDecode",
    "SlotDecoder",
    "SlotEngine",
    "SlotOutcome",
    "SlotPolicy",
    "SlotRow",
    "SweepExecutor",
    "SweepReport",
    "SweepSpec",
    "SweepTask",
    "SweepTaskRecord",
    "derive_task_seed",
    "sweep_task_key",
    "SeedSweepResult",
    "batched_thalamic_provider",
    "build_eighty_twenty_replicas",
    "csp_portfolio_sweep",
    "eighty_twenty_seed_sweep",
    "pooled_csp_sweep",
    "pooled_sudoku_sweep",
    "run_many_on_backend",
    "serve_load_sweep",
    "CSPPortfolioSweepConfig",
    "PooledCSPSweepConfig",
    "PooledSudokuSweepConfig",
    "ServeLoadSweepConfig",
    "WorkloadEntry",
    "register_sweep_workload",
    "run_sweep_workload",
    "sweep_workload_config",
    "sweep_workloads",
]

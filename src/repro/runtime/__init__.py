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
    :class:`BatchedNetwork` (its drive's state included) and
    :class:`SlotEngine` so a restored solve continues bit-identically.
:mod:`repro.runtime.drives`
    Drive compilation: the drive specs of a batch's per-replica input
    closures compiled into one vectorised ``(B, N)`` drive with
    bit-identical per-replica noise streams (each row's own generator,
    one draw per step), owned by the batch that compiled it.
:mod:`repro.runtime.native`
    Loader of the native fused step of fixed-point batches (C, built
    on first use, annealed noise included); without it the NumPy step
    runs, bit-identical.
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
    plus the four solve-rate workloads (pooled Sudoku and
    constraint-solver sweeps over the fabric, the restart portfolio and
    the serve load), each a frozen config dataclass plus one driver
    taking it.
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
    CompiledScaledDrive,
    PortfolioAnnealedDrive,
    ScaledNoiseSpec,
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
    CSPPortfolioSweepConfig,
    PooledCSPSweepConfig,
    PooledSudokuSweepConfig,
    SeedSweepResult,
    ServeLoadSweepConfig,
    build_eighty_twenty_replicas,
    csp_portfolio_sweep,
    eighty_twenty_seed_sweep,
    pooled_csp_sweep,
    pooled_sudoku_sweep,
    run_many_on_backend,
    serve_load_sweep,
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
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "ScaledNoiseSpec",
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
]

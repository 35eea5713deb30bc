"""Continuous-batching solve service over the batched exact runtime.

``repro.serve`` turns the offline batched CSP engines into an online
service: :class:`SolveService` keeps one always-hot fused batch and
streams requests from many concurrent asyncio clients through it,
refilling freed rows mid-run exactly the way the restart portfolio
does — so every served result is bit-identical to the standalone
solver run with the same seed and budget.  See ``docs/SERVING.md``.
"""

from .journal import AdmissionJournal, JournalCorruptError, JournalError
from .loadgen import OpenLoopLoad, build_instance_pool, run_open_loop, run_open_loop_sync
from .metrics import MetricsRecorder, MetricsSnapshot, nearest_rank_percentile
from .service import (
    IncompatibleInstanceError,
    InvalidRequestError,
    LoadShedError,
    ServeResult,
    ServeStatus,
    ServiceClosedError,
    SolveService,
    derive_request_seed,
)
from .supervisor import ServeSupervisor, SupervisorError

__all__ = [
    "AdmissionJournal",
    "IncompatibleInstanceError",
    "InvalidRequestError",
    "JournalCorruptError",
    "JournalError",
    "LoadShedError",
    "MetricsRecorder",
    "MetricsSnapshot",
    "OpenLoopLoad",
    "ServeResult",
    "ServeStatus",
    "ServeSupervisor",
    "ServiceClosedError",
    "SolveService",
    "SupervisorError",
    "build_instance_pool",
    "derive_request_seed",
    "nearest_rank_percentile",
    "run_open_loop",
    "run_open_loop_sync",
]

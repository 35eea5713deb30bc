"""Work-stealing sweep fabric with crash-tolerant, cache-backed resume.

Network-level workloads batch well (see :mod:`repro.runtime.batch`), but
ISA-level runs — functional simulation, cycle-accurate timing — and
whole solver runs execute one instruction (or one network) at a time and
cannot be stacked into NumPy arrays.  :class:`SweepExecutor` fans those
runs out over a multi-process **work-stealing scheduler** instead, while
keeping results **deterministic and order-stable**:

* every task receives a seed derived from ``(base_seed, task index)``
  through :func:`numpy.random.SeedSequence` spawning (or an explicit
  per-task seed from :attr:`SweepSpec.seeds`), so the assignment of
  seeds to tasks never depends on scheduling, worker count, lease
  reassignment or execution mode;
* results are returned in task order regardless of completion order;
* ``mode="serial"`` runs the same tasks inline (no pool), byte-for-byte
  reproducing the process-pool results — the default for test suites and
  the fallback when a task function cannot be pickled.

Scheduling model (``mode="process"``)
-------------------------------------

Tasks are grouped into **chunked leases**.  Workers *pull* chunks from a
shared queue instead of receiving one up-front static partition, so an
idle worker naturally steals work a slower sibling would otherwise sit
on.  Each pulled chunk becomes a lease with a deadline
(:attr:`SweepSpec.lease_timeout`, refreshed on every completed task);
when a worker **dies** (``kill -9``, OOM, segfault) or **stalls** past
the deadline, the lease's unfinished tasks are re-enqueued as a fresh
chunk and a replacement worker is spawned.  Because a task's result is a
pure function of ``(fn, params, seed)``, reassignment never changes the
sweep's results — late duplicates from a stalled-but-alive worker are
accepted first-wins and counted, never double-applied.

Crash-tolerant resume
---------------------

With a cache configured (:attr:`SweepSpec.cache`), every completed task
lands in a :class:`~repro.runtime.cache.RunResultCache` keyed by
:func:`~repro.runtime.cache.derive_cache_key` over
``("sweep", fn identity, task params, task seed)``.  Re-running the same
spec after a crash of the *whole sweep* (or an overlapping sweep sharing
task points) serves the finished tasks from the store and recomputes
only the remainder — bit-identical to the uninterrupted run, because the
key covers the code fingerprint and the full task identity.

Task functions must be module-level callables (picklable) accepting a
single :class:`SweepTask` argument.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .cache import RunResultCache, derive_cache_key, resolve_cache

logger = logging.getLogger(__name__)

__all__ = [
    "SweepSpec",
    "SweepTask",
    "SweepReport",
    "SweepTaskRecord",
    "SweepExecutor",
    "derive_task_seed",
    "sweep_task_key",
]


def derive_task_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed seed for task ``index`` of a sweep.

    Uses :class:`numpy.random.SeedSequence` spawn keys, so neighbouring
    indices yield statistically independent streams (unlike
    ``base_seed + index``, which produces correlated generators for some
    RNGs) while remaining stable across platforms and processes.
    """
    sequence = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SweepTask:
    """One unit of work in a sweep.

    Attributes
    ----------
    index:
        Position of the task in the sweep (also the result position).
    seed:
        Per-task seed: derived from ``(base_seed, index)`` for parameter
        sweeps, or the explicit value for seed sweeps.
    params:
        Task parameters from the :class:`SweepSpec`.
    """

    index: int
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """Complete, typed description of one sweep.

    Exactly one of ``param_sets`` / ``seeds`` must be given: a parameter
    sweep derives per-task seeds from ``(base_seed, index)``, a seed
    sweep uses the given seeds verbatim (in ``task.seed`` only — the
    historical duplication into ``task.params["seed"]`` is gone).

    Parameters
    ----------
    fn:
        Module-level task callable (``SweepTask -> result``).
    param_sets:
        One mapping per task, merged over ``extra``.
    seeds:
        Explicit per-task seeds (one task per seed).
    extra:
        Parameters merged into every task.
    base_seed:
        Root of the per-task seed derivation for parameter sweeps.
    chunk_size:
        Tasks per lease; ``None`` picks ``max(1, n // (4 * workers))``
        so the tail of the sweep still load-balances.
    lease_timeout:
        Seconds a lease may go without progress before its unfinished
        tasks are re-enqueued (and its worker presumed stalled).
    cache:
        Resume/dedup store: ``None`` honours ``REPRO_RUN_CACHE``,
        ``True``/``False`` force the default on-disk cache on/off, a
        :class:`RunResultCache` or a directory path selects an explicit
        store.  Completed tasks are keyed with
        :func:`sweep_task_key`; re-runs and overlapping sweeps skip
        them.
    """

    fn: Callable[[SweepTask], Any] = None  # type: ignore[assignment]
    param_sets: Optional[Sequence[Mapping[str, Any]]] = None
    seeds: Optional[Sequence[int]] = None
    extra: Mapping[str, Any] = field(default_factory=dict)
    base_seed: int = 0
    chunk_size: Optional[int] = None
    lease_timeout: float = 60.0
    cache: Union[None, bool, str, Path, RunResultCache] = False

    def __post_init__(self) -> None:
        if self.fn is None or not callable(self.fn):
            raise TypeError("SweepSpec.fn must be a callable taking a SweepTask")
        if (self.param_sets is None) == (self.seeds is None):
            raise ValueError("exactly one of SweepSpec.param_sets / SweepSpec.seeds is required")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("SweepSpec.chunk_size must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("SweepSpec.lease_timeout must be positive")

    def tasks(self) -> List[SweepTask]:
        """Materialise the task list with deterministic per-task seeds."""
        base = dict(self.extra)
        if self.param_sets is not None:
            return [
                SweepTask(
                    index=i,
                    seed=derive_task_seed(self.base_seed, i),
                    params={**base, **dict(params)},
                )
                for i, params in enumerate(self.param_sets)
            ]
        return [
            SweepTask(index=i, seed=int(seed), params=dict(base))
            for i, seed in enumerate(self.seeds or ())
        ]


@dataclass(frozen=True)
class SweepTaskRecord:
    """Per-task accounting row of a :class:`SweepReport`.

    ``worker`` is ``-1`` for tasks executed inline (serial mode, the
    pickle fallback, or the parent's last-resort drain).  ``attempts``
    counts dispatches including lease reassignments; ``cached`` marks
    results served from the resume store without recomputation.
    """

    index: int
    seed: int
    worker: int
    duration: float
    cached: bool
    attempts: int


@dataclass
class SweepReport:
    """Results plus scheduling/caching accounting of one executed sweep.

    ``results`` is in task order — the exact list the deprecated
    :meth:`SweepExecutor.run` used to return.  The counters expose the
    fabric's behaviour: ``steals`` (chunks pulled by a worker other than
    its round-robin owner), ``lease_expiries`` / ``worker_deaths`` (both
    re-enqueue unfinished leases; their sum is the lease-retry count),
    ``duplicates`` (late results from stalled-but-reassigned leases,
    dropped first-wins) and the ``cache_*`` resume counters.
    """

    results: List[Any]
    records: List[SweepTaskRecord]
    mode: str
    num_workers: int
    elapsed: float
    chunk_size: int = 1
    cache_hits: int = 0
    cache_stores: int = 0
    cache_uncacheable: int = 0
    steals: int = 0
    lease_expiries: int = 0
    worker_deaths: int = 0
    duplicates: int = 0
    pickle_fallback: bool = False
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: Workload-level summary attached by the pooled solve-rate drivers
    #: (:func:`repro.runtime.workloads.pooled_csp_sweep` and
    #: :func:`~repro.runtime.workloads.pooled_sudoku_sweep`).
    summary: Optional[Mapping[str, Any]] = None

    @property
    def lease_retries(self) -> int:
        """Total lease reassignments (expiries plus worker deaths)."""
        return self.lease_expiries + self.worker_deaths

    def worker_utilisation(self) -> Dict[int, float]:
        """Busy fraction of the sweep wall clock, per worker id."""
        if self.elapsed <= 0:
            return {w: 0.0 for w in self.worker_busy}
        return {w: busy / self.elapsed for w, busy in sorted(self.worker_busy.items())}

    def bench_record(self) -> Dict[str, Any]:
        """JSON-able summary row for BENCH history tracking."""
        durations = [r.duration for r in self.records]
        return {
            "tasks": len(self.records),
            "mode": self.mode,
            "workers": self.num_workers,
            "chunk_size": self.chunk_size,
            "elapsed_seconds": self.elapsed,
            "mean_task_seconds": float(np.mean(durations)) if durations else 0.0,
            "cache_hits": self.cache_hits,
            "cache_stores": self.cache_stores,
            "cache_uncacheable": self.cache_uncacheable,
            "steals": self.steals,
            "lease_expiries": self.lease_expiries,
            "worker_deaths": self.worker_deaths,
            "lease_retries": self.lease_retries,
            "duplicates": self.duplicates,
            "pickle_fallback": self.pickle_fallback,
            "worker_utilisation": {str(k): v for k, v in self.worker_utilisation().items()},
        }

    def bench_view(self, bench_dir: Union[str, Path, None] = None) -> Dict[str, Any]:
        """This report's record plus every ``BENCH_*.json`` it sits beside.

        The consolidated view the nightly job tracks over time: the
        sweep record next to the repo's other benchmark result files
        (``bench_dir`` defaults to ``benchmarks/`` at the repo root when
        it exists), so one artifact carries the whole perf trajectory.
        """
        import json

        view: Dict[str, Any] = {"sweep": self.bench_record(), "bench": {}}
        if bench_dir is None:
            candidate = Path(__file__).resolve().parents[3] / "benchmarks"
            bench_dir = candidate if candidate.is_dir() else None
        if bench_dir is None:
            return view
        for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
            try:
                with open(path) as fh:
                    view["bench"][path.name] = json.load(fh)
            except (OSError, ValueError):
                continue
        return view


# ---------------------------------------------------------------------- #
# Cache keying
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _CachedTaskResult:
    """Envelope stored in the resume cache (disambiguates ``None`` results)."""

    value: Any


def _callable_token(fn: Callable[..., Any]) -> Optional[str]:
    """Stable identity of a module-level task function, or ``None``."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        return None
    return f"{module}.{qualname}"


def sweep_task_key(fn: Callable[[SweepTask], Any], task: SweepTask) -> Optional[str]:
    """Content-addressed resume key of one ``(fn, task)`` pair.

    ``None`` when the function has no stable identity (lambdas,
    closures) or the params contain an object without a canonical form —
    such tasks always recompute and are counted as ``cache_uncacheable``.
    The task *index* is deliberately excluded so overlapping sweeps that
    share a ``(params, seed)`` point dedupe regardless of position.
    """
    token = _callable_token(fn)
    if token is None:
        return None
    return derive_cache_key(
        "sweep", {"fn": token, "seed": task.seed, "params": dict(task.params)}
    )


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _put_msg(out_queue: Any, msg: tuple) -> None:
    # The result channel is a SimpleQueue on purpose: its put() writes
    # synchronously in the calling thread, so a worker that dies inside a
    # task fn can never lose an already-sent lease/result message the way
    # a feeder-thread Queue would.
    out_queue.put(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))


def _poll_get(result_queue: Any, timeout: float) -> Any:
    """Non-blocking-ish read from a ``SimpleQueue``; ``None`` on timeout."""
    try:
        if result_queue._reader.poll(timeout):
            return result_queue.get()
    except (OSError, EOFError):
        pass
    return None


def _run_task_once(
    fn: Callable[[SweepTask], Any], task: SweepTask, cache: Optional[RunResultCache]
) -> tuple:
    """Execute (or cache-serve) one task.

    Returns ``(value, cached, stored, uncacheable, duration)``.
    """
    key = sweep_task_key(fn, task) if cache is not None else None
    uncacheable = cache is not None and key is None
    started = time.perf_counter()
    if key is not None:
        hit = cache.get(key, expect=_CachedTaskResult)
        if hit is not None:
            return hit.value, True, False, False, time.perf_counter() - started
    value = fn(task)
    stored = False
    if key is not None:
        cache.put(key, _CachedTaskResult(value))
        stored = True
    return value, False, stored, uncacheable, time.perf_counter() - started


def _fabric_worker(
    worker_id: int,
    fn_blob: bytes,
    task_queue: Any,
    result_queue: Any,
    cache_root: Optional[str],
) -> None:
    """Pull chunk leases until poisoned; one result message per task."""
    fn = pickle.loads(fn_blob)
    cache = RunResultCache(cache_root) if cache_root else None
    while True:
        blob = task_queue.get()
        if blob is None:
            break
        chunk_id, tasks = pickle.loads(blob)
        _put_msg(result_queue, ("lease", chunk_id, worker_id))
        for task in tasks:
            try:
                value, cached, stored, uncacheable, duration = _run_task_once(fn, task, cache)
            except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
                try:
                    payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    payload = None
                _put_msg(
                    result_queue,
                    ("error", chunk_id, worker_id, task.index, payload, repr(exc)),
                )
                break
            msg = ("result", chunk_id, worker_id, task.index, value, cached, stored, uncacheable, duration)
            try:
                _put_msg(result_queue, msg)
            except Exception as exc:  # result itself not picklable
                _put_msg(
                    result_queue,
                    (
                        "error",
                        chunk_id,
                        worker_id,
                        task.index,
                        None,
                        f"task result cannot be pickled back to the parent: {exc!r}",
                    ),
                )
                break
        _put_msg(result_queue, ("chunk_done", chunk_id, worker_id))


@dataclass
class _Lease:
    worker: int
    deadline: float


class SweepExecutor:
    """Execute a :class:`SweepSpec` inline or over the work-stealing fabric.

    Parameters
    ----------
    mode:
        ``"serial"`` (default) executes tasks inline in submission order;
        ``"process"`` runs the multi-process work-stealing scheduler.
    max_workers:
        Worker count for process mode; defaults to ``os.cpu_count()``
        capped at the number of tasks.
    """

    #: A task re-dispatched more than this many times aborts the sweep
    #: (e.g. a task body that reliably kills its worker).
    MAX_TASK_ATTEMPTS = 4

    def __init__(self, *, mode: str = "serial", max_workers: Optional[int] = None) -> None:
        if mode not in ("serial", "process"):
            raise ValueError(f"unknown executor mode {mode!r}")
        self.mode = mode
        self.max_workers = max_workers
        self._pickle_fallback_warned = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(self, spec: SweepSpec) -> SweepReport:
        """Execute every task of ``spec``; the report's results are in task order."""
        tasks = spec.tasks()
        cache = resolve_cache(spec.cache)
        if not tasks:
            return SweepReport(results=[], records=[], mode="serial", num_workers=0, elapsed=0.0)
        if self.mode == "serial" or len(tasks) == 1:
            return self._execute_serial(spec.fn, tasks, cache)
        # Pre-flight the pool's pickling requirement cheaply: the function
        # plus the *first* task only (pickling every task up front cost
        # O(N) serialization latency before any work started).  A later
        # task that fails to pickle surfaces at chunk dispatch and is
        # executed inline instead.
        try:
            pickle.dumps(spec.fn)
            pickle.dumps(tasks[0])
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            report = self._execute_serial(spec.fn, tasks, cache, warn_fallback=exc)
            report.pickle_fallback = True
            return report
        return self._execute_fabric(spec, tasks, cache)

    # ------------------------------------------------------------------ #
    # Serial execution (also the pickle fallback and the last-resort drain)
    # ------------------------------------------------------------------ #
    def _warn_fallback(self, fn: Callable[..., Any], exc: Exception) -> None:
        if self._pickle_fallback_warned:
            return
        self._pickle_fallback_warned = True
        warnings.warn(
            f"sweep task function {getattr(fn, '__qualname__', repr(fn))} (or its task "
            f"parameters) cannot be pickled for process execution ({exc}); "
            f"falling back to serial execution",
            RuntimeWarning,
            stacklevel=5,
        )

    def _execute_serial(
        self,
        fn: Callable[[SweepTask], Any],
        tasks: Sequence[SweepTask],
        cache: Optional[RunResultCache],
        *,
        warn_fallback: Optional[Exception] = None,
    ) -> SweepReport:
        if warn_fallback is not None:
            self._warn_fallback(fn, warn_fallback)
        started = time.perf_counter()
        results: List[Any] = []
        records: List[SweepTaskRecord] = []
        hits = stores = uncacheable_count = 0
        for task in tasks:
            value, cached, stored, uncacheable, duration = _run_task_once(fn, task, cache)
            results.append(value)
            records.append(
                SweepTaskRecord(
                    index=task.index,
                    seed=task.seed,
                    worker=-1,
                    duration=duration,
                    cached=cached,
                    attempts=1,
                )
            )
            hits += cached
            stores += stored
            uncacheable_count += uncacheable
        return SweepReport(
            results=results,
            records=records,
            mode="serial",
            num_workers=0,
            elapsed=time.perf_counter() - started,
            cache_hits=hits,
            cache_stores=stores,
            cache_uncacheable=uncacheable_count,
        )

    # ------------------------------------------------------------------ #
    # Work-stealing fabric
    # ------------------------------------------------------------------ #
    def _execute_fabric(
        self,
        spec: SweepSpec,
        tasks: Sequence[SweepTask],
        cache: Optional[RunResultCache],
    ) -> SweepReport:
        started = time.perf_counter()
        num_workers = self.max_workers or os.cpu_count() or 1
        num_workers = max(1, min(num_workers, len(tasks)))
        chunk_size = spec.chunk_size or max(1, len(tasks) // (4 * num_workers))

        ctx = multiprocessing.get_context()
        task_queue = ctx.Queue()
        result_queue = ctx.SimpleQueue()
        fn_blob = pickle.dumps(spec.fn, protocol=pickle.HIGHEST_PROTOCOL)
        cache_root = str(cache.root) if cache is not None else None

        completed: Dict[int, Any] = {}
        records: Dict[int, SweepTaskRecord] = {}
        attempts: Dict[int, int] = {task.index: 0 for task in tasks}
        task_by_index = {task.index: task for task in tasks}
        chunk_tasks: Dict[int, Dict[int, SweepTask]] = {}
        chunk_owner: Dict[int, int] = {}
        leases: Dict[int, _Lease] = {}
        worker_chunk: Dict[int, int] = {}
        worker_busy: Dict[int, float] = {}
        counters = {
            "cache_hits": 0,
            "cache_stores": 0,
            "cache_uncacheable": 0,
            "steals": 0,
            "lease_expiries": 0,
            "worker_deaths": 0,
            "duplicates": 0,
        }
        next_chunk_id = 0
        error: Optional[BaseException] = None

        def record_inline(task: SweepTask) -> None:
            value, cached, stored, uncacheable, duration = _run_task_once(spec.fn, task, cache)
            completed[task.index] = value
            records[task.index] = SweepTaskRecord(
                index=task.index,
                seed=task.seed,
                worker=-1,
                duration=duration,
                cached=cached,
                attempts=attempts[task.index],
            )
            counters["cache_hits"] += cached
            counters["cache_stores"] += stored
            counters["cache_uncacheable"] += uncacheable

        def dispatch(chunk: Sequence[SweepTask]) -> None:
            """Queue one lease; unpicklable chunks degrade to inline runs."""
            nonlocal next_chunk_id
            chunk = [t for t in chunk if t.index not in completed]
            if not chunk:
                return
            for task in chunk:
                attempts[task.index] += 1
                if attempts[task.index] > self.MAX_TASK_ATTEMPTS:
                    raise RuntimeError(
                        f"sweep task {task.index} was dispatched "
                        f"{attempts[task.index]} times without completing "
                        f"(workers keep dying or stalling on it)"
                    )
            chunk_id = next_chunk_id
            next_chunk_id += 1
            try:
                blob = pickle.dumps((chunk_id, list(chunk)), protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # A later task that cannot cross the process boundary:
                # run this lease inline instead of failing the sweep.
                self._warn_fallback(spec.fn, exc)
                for task in chunk:
                    record_inline(task)
                return
            chunk_tasks[chunk_id] = {t.index: t for t in chunk}
            chunk_owner[chunk_id] = chunk_id % num_workers
            task_queue.put(blob)

        workers: Dict[int, Any] = {}
        next_worker_id = 0
        respawns = 0
        max_respawns = 2 * num_workers
        interrupted: List[int] = []

        def handle_message(msg: tuple) -> None:
            """Book one worker message (shared by the run and drain loops)."""
            nonlocal error
            kind = msg[0]
            if kind == "lease":
                _, chunk_id, worker_id = msg
                if chunk_id in chunk_tasks:
                    if worker_id not in workers:
                        # Lease announcement from a worker whose death we
                        # already processed: don't let the stale message
                        # resurrect the lease — hand the chunk straight
                        # to another worker.
                        reassign(chunk_id)
                    else:
                        leases[chunk_id] = _Lease(
                            worker=worker_id,
                            deadline=time.monotonic() + spec.lease_timeout,
                        )
                        worker_chunk[worker_id] = chunk_id
                        if chunk_owner.get(chunk_id, worker_id) != worker_id:
                            counters["steals"] += 1
            elif kind == "result":
                (_, chunk_id, worker_id, index, value, cached, stored, uncacheable, duration) = msg
                lease = leases.get(chunk_id)
                if lease is not None:
                    lease.deadline = time.monotonic() + spec.lease_timeout
                worker_busy[worker_id] = worker_busy.get(worker_id, 0.0) + duration
                if index in completed:
                    counters["duplicates"] += 1
                else:
                    completed[index] = value
                    records[index] = SweepTaskRecord(
                        index=index,
                        seed=task_by_index[index].seed,
                        worker=worker_id,
                        duration=duration,
                        cached=cached,
                        attempts=attempts[index],
                    )
                    counters["cache_hits"] += cached
                    counters["cache_stores"] += stored
                    counters["cache_uncacheable"] += uncacheable
                chunk_tasks.get(chunk_id, {}).pop(index, None)
            elif kind == "chunk_done":
                _, chunk_id, worker_id = msg
                leases.pop(chunk_id, None)
                chunk_tasks.pop(chunk_id, None)
                chunk_owner.pop(chunk_id, None)
                if worker_chunk.get(worker_id) == chunk_id:
                    del worker_chunk[worker_id]
            elif kind == "error":
                _, chunk_id, worker_id, index, payload, text = msg
                if payload is not None:
                    try:
                        error = pickle.loads(payload)
                    except Exception:
                        error = RuntimeError(text)
                else:
                    error = RuntimeError(text)

        def drain_interrupted(poll: float) -> None:
            """Graceful SIGINT/SIGTERM: lose no already-computed chunk.

            Pending (unleased) chunks are pulled back off the queue and
            workers are poisoned, so each finishes at most its *current*
            task; every result still in the channel — computed before or
            during the drain, and already persisted worker-side in the
            cache — is booked before the interrupt propagates.  A re-run
            of the same spec then resumes from the cache with zero lost
            chunks.
            """
            self._drain_inline(task_queue)
            for _ in range(len(workers) + 1):
                try:
                    task_queue.put_nowait(None)
                except (OSError, ValueError):
                    break
            deadline = time.monotonic() + max(2.0, spec.lease_timeout)
            while time.monotonic() < deadline:
                blob = _poll_get(result_queue, poll)
                if blob is not None:
                    handle_message(pickle.loads(blob))
                    continue
                if not any(proc.is_alive() for proc in workers.values()):
                    break

        def spawn_worker() -> None:
            nonlocal next_worker_id
            proc = ctx.Process(
                target=_fabric_worker,
                args=(next_worker_id, fn_blob, task_queue, result_queue, cache_root),
                daemon=True,
            )
            proc.start()
            workers[next_worker_id] = proc
            next_worker_id += 1

        def reassign(chunk_id: int) -> None:
            remaining = chunk_tasks.pop(chunk_id, {})
            chunk_owner.pop(chunk_id, None)
            leases.pop(chunk_id, None)
            if remaining:
                # Deterministic reassignment order: unfinished tasks of
                # the lease, sorted by index, become one fresh chunk.
                dispatch([remaining[i] for i in sorted(remaining)])

        # Graceful-shutdown hook: a SIGINT/SIGTERM mid-sweep drains
        # in-flight lease results (flushed to the cache worker-side)
        # instead of dropping whatever sat in the channel.  Signal
        # handlers only install on the main thread; elsewhere the sweep
        # keeps the process's existing behaviour.
        previous_handlers: Dict[int, Any] = {}

        def _on_signal(signum: int, frame: Any) -> None:
            interrupted.append(signum)

        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers[signum] = signal.signal(signum, _on_signal)
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass

        try:
            for start in range(0, len(tasks), chunk_size):
                dispatch(tasks[start : start + chunk_size])
            for _ in range(num_workers):
                spawn_worker()

            poll = max(0.02, min(0.25, spec.lease_timeout / 4.0))
            debug = logger.isEnabledFor(logging.DEBUG)
            last_progress = float("-inf")
            while len(completed) < len(tasks):
                if interrupted:
                    drain_interrupted(poll)
                    raise KeyboardInterrupt(
                        f"sweep interrupted by signal {interrupted[0]}; "
                        f"{len(completed)}/{len(tasks)} task results retained "
                        "(cached tasks resume on re-run)"
                    )
                if debug and time.monotonic() - last_progress > 1.0:
                    # At most one progress record a second.
                    last_progress = time.monotonic()
                    logger.debug(
                        "sweep progress: done=%d/%d chunks=%s leases=%s "
                        "worker_chunk=%s workers=%s counters=%s",
                        len(completed),
                        len(tasks),
                        {c: sorted(t) for c, t in chunk_tasks.items()},
                        leases,
                        worker_chunk,
                        list(workers),
                        counters,
                    )
                blob = _poll_get(result_queue, poll)
                if blob is not None:
                    handle_message(pickle.loads(blob))
                    if error is not None:
                        break

                now = time.monotonic()
                for chunk_id, lease in list(leases.items()):
                    if now > lease.deadline:
                        # Stalled lease: the worker may be alive but wedged
                        # (or just slow) — hand the unfinished tasks to the
                        # next idle worker; late duplicates are dropped.
                        worker_chunk.pop(lease.worker, None)
                        counters["lease_expiries"] += 1
                        reassign(chunk_id)
                for worker_id, proc in list(workers.items()):
                    if proc.is_alive():
                        continue
                    del workers[worker_id]
                    counters["worker_deaths"] += 1
                    held = worker_chunk.pop(worker_id, None)
                    if held is not None and chunk_tasks.get(held):
                        reassign(held)
                    else:
                        # The dead worker may have consumed a lease blob
                        # whose lease message never reached us: start the
                        # expiry clock on every outstanding chunk nobody
                        # currently holds, with a short grace so in-flight
                        # lease messages can still cancel it.
                        grace = now + min(spec.lease_timeout, max(0.1, 4.0 * poll))
                        for cid in chunk_tasks:
                            if cid not in leases:
                                leases[cid] = _Lease(worker=-1, deadline=grace)
                    if respawns < max_respawns:
                        respawns += 1
                        spawn_worker()
                if not workers and len(completed) < len(tasks):
                    # Every worker is gone and respawns are exhausted:
                    # finish the sweep inline rather than deadlocking.
                    self._drain_inline(task_queue)
                    for task in tasks:
                        if task.index not in completed:
                            attempts[task.index] += 1
                            record_inline(task)
        finally:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
            self._shutdown(workers, task_queue, result_queue)

        if error is not None:
            raise error
        return SweepReport(
            results=[completed[task.index] for task in tasks],
            records=[records[task.index] for task in tasks],
            mode="process",
            num_workers=num_workers,
            elapsed=time.perf_counter() - started,
            chunk_size=chunk_size,
            worker_busy=worker_busy,
            **counters,
        )

    @staticmethod
    def _drain_inline(task_queue: Any) -> None:
        """Empty the shared queue so joined feeder threads cannot block."""
        while True:
            try:
                task_queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break

    @staticmethod
    def _shutdown(workers: Dict[int, Any], task_queue: Any, result_queue: Any) -> None:
        for _ in range(len(workers) + 1):
            try:
                task_queue.put_nowait(None)
            except (OSError, ValueError):
                break
        deadline = time.monotonic() + 2.0
        for proc in workers.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in workers.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (task_queue, result_queue):
            try:
                if hasattr(q, "cancel_join_thread"):
                    q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass

"""Outside-in span tracing of the ``repro`` layers, from benchmark code only.

:class:`Tracer` wraps the public entry points of each layer (a method on
a class, or a module function together with every ``from x import f``
copy of it inside ``repro``), records one span per call and restores the
originals on exit, so untraced passes run the unmodified program.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)``.  The
parent is the innermost open span of the calling context and the
request id is whatever :data:`REQUEST_ID` holds there; both live in
``contextvars``, so spans opened by different asyncio tasks never nest
into each other.  Spans stay in memory until :meth:`Tracer.dump`.

Self time of a span is its duration minus the durations of its direct
children; summed per name it attributes every traced nanosecond exactly
once.  Counters (calls, rows stepped, bytes written) are taken at the
same boundaries.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Id of the serve request whose ``submit`` is running (set by the load
#: generator around each ``SolveService.submit`` call).
REQUEST_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)
_PARENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_parent_span", default=None
)

#: ``(id, name, start_ns, end_ns, parent id, request id)``.
Span = Tuple[int, str, int, int, Optional[int], Optional[int]]
Hook = Callable[[tuple, Any], None]


class Tracer:
    """Span recorder plus the patch set that feeds it (a context manager)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = iter(range(1, sys.maxsize))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable, before: Optional[Hook], after: Optional[Hook]
              ) -> Callable:
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, None)
            span_id = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _PARENT.reset(token)
                spans.append((span_id, name, start, end, parent, REQUEST_ID.get()))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(self, cls: type, attr: str, name: str, *,
               before: Optional[Hook] = None, after: Optional[Hook] = None) -> None:
        """Trace ``cls.attr`` (a plain method or a classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, before, after)))
        else:
            self._patch(cls, attr, self._wrap(name, raw, before, after))

    def function(self, fn: Callable, name: str, *, after: Optional[Hook] = None) -> None:
        """Trace a module function everywhere ``repro`` bound it by name."""
        traced = self._wrap(name, fn, None, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, traced)

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name (duration minus direct children)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start - child_ns[span_id]) * 1e-9
        return dict(totals)

    def total_time(self, name: str) -> float:
        """Seconds spent inside spans called ``name`` (children included)."""
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name) * 1e-9

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one ``[id, name, start, end, parent, request]``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every benchmarked layer.

    Span names are ``<layer>.<operation>``, the layer being the ``repro``
    module the entry point lives in.
    """
    from repro.csp import solver as csp_solver
    from repro.runtime import cache, drives
    from repro.runtime.batch import BatchedNetwork
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.slots import SlotEngine
    from repro.serve.journal import AdmissionJournal

    count = tracer.count

    # runtime.batch: the fused step and every batch (re)composition.
    def after_batch_step(args: tuple, _: Any) -> None:
        count("batch.steps")
        count("batch.rows", args[0].batch_size)

    tracer.method(BatchedNetwork, "step", "batch.step", after=after_batch_step)
    for attr in ("from_networks", "retain", "extend"):
        tracer.method(BatchedNetwork, attr, "batch.compose")

    # runtime.drives: the compiled (B, N) drive providers.
    for cls in (drives.CompiledAnnealedDrive, drives.PortfolioAnnealedDrive,
                drives.CompiledScaledDrive):
        tracer.method(cls, "__call__", "drives.drive")

    # runtime.slots: the engine step, decodes, recompositions, exports.
    # Rows are counted before the step: a checkpoint may retire some.
    def before_slots_step(args: tuple, _: Any) -> None:
        engine = args[0]
        count("batch.neuron_updates", engine.num_rows * (engine.updates_per_step or 0))

    def after_decode(_: tuple, decode: Any) -> None:
        count("slots.decodes")
        count("slots.decodes_solved", int(bool(decode.solved)))

    tracer.method(SlotEngine, "step", "slots.step", before=before_slots_step)
    tracer.method(SlotEngine, "decode_row", "slots.decode", after=after_decode)
    tracer.method(SlotEngine, "recompose", "slots.recompose",
                  after=lambda *_: count("slots.recompositions"))
    tracer.method(SlotEngine, "export_state", "slots.export")

    # csp.solver: network construction and the offline batch entry point.
    tracer.method(csp_solver.SpikingCSPSolver, "__init__", "csp.build")
    tracer.method(csp_solver.SpikingCSPSolver, "build_network", "csp.build",
                  after=lambda *_: count("csp.networks_built"))
    tracer.function(csp_solver.solve_instances, "csp.solve")

    # runtime.cache: request identity.
    tracer.function(cache.derive_cache_key, "cache.key", after=lambda *_: count("cache.keys"))

    # serve.journal and runtime.checkpoint: the durable writes.
    tracer.method(AdmissionJournal, "append", "journal.append",
                  after=lambda *_: count("journal.appends"))

    def after_save(_: tuple, path: Any) -> None:
        count("checkpoint.saves")
        count("checkpoint.bytes", os.path.getsize(path))

    tracer.method(CheckpointStore, "save", "checkpoint.save", after=after_save)

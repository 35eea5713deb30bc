"""Per-row arrays sized to a capacity: the one owner of a batch's row layout.

:class:`~repro.runtime.batch.BatchedNetwork` (state, parameters, step
scratch, synapse-grid column bases), the drives of :mod:`repro.runtime.drives` (rows, per-row
bit-generator addresses) and :class:`~repro.runtime.slots.SlotEngine`
(books, offsets, budgets) each keep their per-row arrays in a
:class:`RowStack`: buffers sized to its capacity whose first
:attr:`RowStack.rows` rows are live, seen by the owner as attributes.
Retaining moves the kept rows down in place and in order; extending
writes new rows after them and reallocates, at least doubling the
capacity, only when the buffers are full.  So a C block bound to the
buffers (:meth:`RowStack.bind`) stays valid until a reallocation.

A buffer is found as the ``base`` of its owner's attribute, so an owner
may swap two same-shaped fields (a step's two fired masks) by plain
assignment.  A field's rows lie on axis 0 unless its row shape puts
``None`` elsewhere: ``(window, None, N)`` is a ring of ``window`` steps
whose row stride is the capacity.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Field", "RowStack"]


class Field(NamedTuple):
    """One per-row array of a :class:`RowStack`."""

    dtype: Any
    #: One row's shape, ``None`` on the row axis.
    shape: Tuple[Optional[int], ...] = (None,)
    #: Its snapshot key; ``None`` leaves it out of snapshots.
    key: Optional[str] = None
    #: Rewritten before every read: never moved, written or copied.
    scratch: bool = False


class RowStack:
    """The per-row arrays of ``owner``, by attribute name; no buffers until the first rows."""

    def __init__(self, owner: Any, fields: Mapping[str, Field]) -> None:
        # A proxy: the owner holds its stack, and a reference cycle would
        # keep a dropped batch's buffers alive until a full collection.
        self._owner = weakref.proxy(owner)
        self._fields = dict(fields)
        #: Per field, the index of its live rows up to the row axis.
        self._lead = {name: (slice(None),) * f.shape.index(None) for name, f in fields.items()}
        self.rows = 0
        self.capacity = 0

    def _shape(self, field: Field, rows: int) -> Tuple[int, ...]:
        return tuple(rows if n is None else n for n in field.shape)

    def _buffer(self, name: str) -> np.ndarray:
        return getattr(self._owner, name).base

    def _publish(self) -> None:
        owner, live = self._owner, slice(0, self.rows)
        for name, lead in self._lead.items():
            setattr(owner, name, getattr(owner, name).base[lead + (live,)])

    def retain(self, keep: Sequence[int]) -> None:
        """Keep the live rows ``keep`` (strictly increasing), moved down in place and in order."""
        keep = np.asarray(keep, dtype=np.intp)
        if keep.size == self.rows:
            return  # strictly increasing: every row is where it was
        gaps = np.flatnonzero(keep != np.arange(keep.size))
        if gaps.size:  # the rows before the first gap stay where they are
            moved, source = slice(int(gaps[0]), keep.size), keep[gaps[0]:]
            for name, field in self._fields.items():
                if not field.scratch:
                    buffer, lead = self._buffer(name), self._lead[name]
                    buffer[lead + (moved,)] = buffer[lead + (source,)]
        self.rows = int(keep.size)
        self._publish()

    def extend(self, count: int, values: Mapping[str, Any]) -> bool:
        """Write ``count`` rows after the live ones; ``True`` when the buffers were reallocated.

        ``values`` holds each field's new rows (or one value for all) by
        attribute; a field it leaves out gets zeros, a scratch one nothing.
        """
        start, stop = self.rows, self.rows + count
        grown = stop > self.capacity
        if grown:
            self.capacity = max(stop, 2 * self.capacity)
            for name, field in self._fields.items():
                buffer = np.zeros(self._shape(field, self.capacity), dtype=field.dtype)
                live = self._lead[name] + (slice(0, start),)
                if start and not field.scratch:
                    buffer[live] = self._buffer(name)[live]
                setattr(self._owner, name, buffer[live])
        for name, field in self._fields.items():
            if not field.scratch:
                self._buffer(name)[self._lead[name] + (slice(start, stop),)] = values.get(name, 0)
        self.rows = stop
        self._publish()
        return grown

    def export(self) -> Dict[str, np.ndarray]:
        """Copies of the saved fields' live rows, by snapshot key in field order."""
        return {f.key: getattr(self._owner, name).copy()
                for name, f in self._fields.items() if f.key is not None}

    def check(self, state: Mapping[str, Any], rows: int) -> Dict[str, np.ndarray]:
        """The saved fields' arrays of ``state`` for ``rows`` rows, converted, by attribute.

        Writes nothing; ``ValueError`` names the first array of another shape.
        """
        arrays = {}
        for name, f in self._fields.items():
            if f.key is not None:
                arrays[name] = array = np.asarray(state[f.key], dtype=f.dtype)
                if array.shape != self._shape(f, rows):
                    raise ValueError(f"array {f.key!r} has shape {array.shape}, "
                                     f"expected {self._shape(f, rows)}")
        return arrays

    def restore(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy :meth:`check`-ed arrays over the live rows, in place."""
        for name, array in arrays.items():
            np.copyto(getattr(self._owner, name), array)

    def bind(self, block: Any, fields: Iterable[Tuple[str, str, Any]]) -> None:
        """Point ``block`` at buffers, by ``(block field, attribute, C dtype)``.

        The C loop trusts the pointers until the next reallocation, so
        every buffer is checked — C-contiguous, of the C dtype, at the
        capacity — before any pointer is written.
        """
        pointers = []
        for block_field, name, dtype in fields:
            buffer, want = self._buffer(name), self._shape(self._fields[name], self.capacity)
            if (buffer is None or buffer.shape != want or buffer.dtype != dtype
                    or not buffer.flags.c_contiguous):
                raise RuntimeError(f"{name} must be a C-contiguous {want} buffer of {dtype}")
            pointers.append((block_field, buffer.ctypes.data))
        for block_field, address in pointers:
            setattr(block, block_field, address)

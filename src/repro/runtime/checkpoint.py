"""Crash-safe checkpointing for the batched solve state.

The sweep fabric survives worker loss because every *finished* task is
content-addressed in the :class:`~repro.runtime.cache.RunResultCache`;
nothing, however, protected the *in-flight* state of a long solve — the
always-hot batch of the serve tier, or a large ``solve_instances`` call
— from the process dying mid-run.  This module adds that layer:

* :func:`write_checkpoint` / :func:`read_checkpoint` — one snapshot
  file, **versioned** (magic + format version), **checksummed**
  (SHA-256 over the payload, verified on read) and **atomically
  written** (temp file in the target directory + ``fsync`` +
  ``os.replace``), so a crash mid-write can never leave a half-written
  file under the final name.  It is the repository's one durable file
  format: the run-result cache stores its entries in it too;
* :class:`CheckpointStore` — a directory of rotating step-stamped
  snapshots with :meth:`CheckpointStore.load_latest` falling back past
  corrupt or torn snapshots (counted, typed) to the newest good one;
* typed failures — :class:`CheckpointCorruptError` (bad magic,
  truncation, checksum mismatch) and :class:`CheckpointVersionError`
  (format from a different code era) are loud, never silent ``None``;
* :class:`FaultPlan` — a deterministic fault-injection schedule (crash
  at a step, tear the Nth checkpoint write, corrupt the Nth payload,
  truncate the journal after the Nth record) threaded through the
  checkpoint writer, the serve journal, the slot engine and the
  supervisor, so the chaos suites are seeded and reproducible.

What goes *into* a snapshot is defined by the state-export hooks of the
batched runtime — :meth:`BatchedNetwork.export_state` (its compiled
drive's state, RNG stream cursors included, among it) and
:meth:`SlotEngine.export_state` — plus the state of the
engine's :class:`~repro.runtime.slots.DurablePolicy`; the restore
counterparts overwrite a freshly rebuilt engine wholesale.  The
contract, pinned by ``tests/runtime/test_checkpoint.py``: a solve
restored from a snapshot continues **bit-identically** to one that was
never interrupted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "FaultPlan",
    "read_checkpoint",
    "write_checkpoint",
]

#: First bytes of every checkpoint file; anything else is not a checkpoint.
CHECKPOINT_MAGIC = b"RPROCKPT"
#: Bumped whenever the on-disk layout or the payload schema changes.
CHECKPOINT_VERSION = 4

# Fixed-size header following the magic: format version (u32), length of
# the kind string (u16).  The kind string, the 32-byte payload SHA-256
# and the payload length (u64) follow, then the pickled payload.
_HEAD = struct.Struct("<IH")
_LEN = struct.Struct("<Q")
_SHA_BYTES = 32


class CheckpointError(RuntimeError):
    """Base of the typed checkpoint failures."""


class CheckpointCorruptError(CheckpointError):
    """The file is not a complete, intact checkpoint.

    Raised for a bad magic, a truncated header or payload (torn write)
    and a payload whose SHA-256 does not match the header — the three
    shapes a crash or bit-rot can leave behind.
    """


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an incompatible format version."""


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    All ordinals are 1-based occurrence counts *within one process*:
    ``torn_write_at=2`` tears the second checkpoint write, whoever
    issues it.  The plan carries its own occurrence counters, so one
    instance must be threaded through every layer that should share the
    schedule (checkpoint store, journal, service).  ``seed`` picks the
    corrupted byte position, keeping runs reproducible.

    ``crash_at_step`` is honoured by
    :meth:`repro.runtime.slots.SlotEngine.advance`, the one step of
    every solve and serve loop: the process calls ``os._exit`` —
    indistinguishable from ``kill -9`` — the first time the global step
    clock reaches the value.  The supervisor hands the plan only to the
    *first* child incarnation, so a respawned service replays the
    journal instead of re-crashing forever.
    """

    crash_at_step: Optional[int] = None
    #: Tear the Nth checkpoint write: the file ends mid-payload.
    torn_write_at: Optional[int] = None
    #: Corrupt the Nth checkpoint write: one payload byte is flipped.
    corrupt_at: Optional[int] = None
    #: Truncate the journal mid-record after the Nth appended record.
    truncate_journal_at: Optional[int] = None
    seed: int = 0
    checkpoint_writes: int = field(default=0, init=False)
    journal_appends: int = field(default=0, init=False)

    #: Exit code of an injected crash (documents itself in waitpid logs).
    CRASH_EXIT_CODE = 86

    def next_checkpoint_fault(self) -> Optional[str]:
        """The fault to apply to the checkpoint write now being issued."""
        self.checkpoint_writes += 1
        if self.torn_write_at is not None and self.checkpoint_writes == self.torn_write_at:
            return "torn"
        if self.corrupt_at is not None and self.checkpoint_writes == self.corrupt_at:
            return "corrupt"
        return None

    def next_journal_truncation(self) -> bool:
        """Whether to truncate the journal after the record just appended."""
        self.journal_appends += 1
        return (
            self.truncate_journal_at is not None
            and self.journal_appends == self.truncate_journal_at
        )

    def should_crash(self, step: int) -> bool:
        return self.crash_at_step is not None and int(step) >= int(self.crash_at_step)

    def corrupt_offset(self, length: int) -> int:
        """Deterministic byte position to flip when corrupting a payload."""
        return (int(self.seed) + self.checkpoint_writes * 7919) % max(1, int(length))


def _fsync_dir(path: Path) -> None:
    """Flush the directory entry so the rename survives power loss too."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def write_checkpoint(
    path: Union[str, Path],
    payload: Any,
    *,
    kind: str = "state",
    fault: Optional[FaultPlan] = None,
) -> Path:
    """Atomically write one versioned, checksummed snapshot file.

    The payload is pickled, hashed, and written to a temporary file in
    the target directory, fsynced, then renamed over ``path`` — a crash
    at any point leaves either the previous file or the complete new
    one, never a torn hybrid (the torn/corrupt *fault injections*
    simulate exactly the failure modes this discipline rules out, so
    the reader's defences stay honest).
    """
    path = Path(path)
    kind_bytes = kind.encode("utf-8")
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(data).digest()
    mode = fault.next_checkpoint_fault() if fault is not None else None
    if mode == "corrupt" and data:
        flip = fault.corrupt_offset(len(data))
        data = data[:flip] + bytes([data[flip] ^ 0xFF]) + data[flip + 1 :]
    blob = (
        CHECKPOINT_MAGIC
        + _HEAD.pack(CHECKPOINT_VERSION, len(kind_bytes))
        + kind_bytes
        + digest
        + _LEN.pack(len(data))
        + data
    )
    if mode == "torn":
        blob = blob[: len(blob) - max(1, len(data) // 2)]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)
    return path


def read_checkpoint(path: Union[str, Path], *, kind: Optional[str] = None) -> Any:
    """Read and verify one snapshot file; returns the unpickled payload.

    Raises :class:`CheckpointCorruptError` on a bad magic, truncation or
    checksum mismatch, :class:`CheckpointVersionError` on a format from
    a different code era, and :class:`CheckpointError` when ``kind``
    is given and does not match the file's.  ``FileNotFoundError``
    passes through (absence is the caller's decision, not corruption).
    """
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointCorruptError(f"{path}: not a checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    if len(blob) < offset + _HEAD.size:
        raise CheckpointCorruptError(f"{path}: truncated header")
    version, kind_len = _HEAD.unpack_from(blob, offset)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this code reads {CHECKPOINT_VERSION}"
        )
    offset += _HEAD.size
    if len(blob) < offset + kind_len + _SHA_BYTES + _LEN.size:
        raise CheckpointCorruptError(f"{path}: truncated header")
    file_kind = blob[offset : offset + kind_len].decode("utf-8", errors="replace")
    offset += kind_len
    digest = blob[offset : offset + _SHA_BYTES]
    offset += _SHA_BYTES
    (length,) = _LEN.unpack_from(blob, offset)
    offset += _LEN.size
    data = blob[offset : offset + length]
    if len(data) != length:
        raise CheckpointCorruptError(
            f"{path}: truncated payload ({len(data)} of {length} bytes) — torn write"
        )
    if hashlib.sha256(data).digest() != digest:
        raise CheckpointCorruptError(f"{path}: payload checksum mismatch")
    if kind is not None and file_kind != kind:
        raise CheckpointError(f"{path}: checkpoint kind {file_kind!r}, expected {kind!r}")
    try:
        return pickle.loads(data)
    except Exception as exc:  # pragma: no cover - sha-verified payloads unpickle
        raise CheckpointCorruptError(f"{path}: payload does not unpickle: {exc}") from exc


class CheckpointStore:
    """A directory of rotating, step-stamped snapshots of one solve.

    ``save(step, payload)`` writes ``ckpt-<step>.ckpt`` and prunes all
    but the newest ``keep`` snapshots; ``load_latest()`` walks the
    snapshots newest-first, *skipping* (and recording) any that fail
    verification, so a torn or corrupted final snapshot degrades to the
    previous good one instead of killing recovery.  Skipped snapshots
    are kept in :attr:`failures` — recovery is expected to surface the
    count (the serve metrics do) rather than hide it.
    """

    SUFFIX = ".ckpt"

    def __init__(
        self,
        root: Union[str, Path],
        *,
        kind: str = "state",
        keep: int = 2,
        fault: Optional[FaultPlan] = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be positive")
        self.root = Path(root)
        self.kind = kind
        self.keep = int(keep)
        self.fault = fault
        #: ``(path, error)`` of snapshots skipped by :meth:`load_latest`.
        self.failures: List[Tuple[Path, CheckpointError]] = []
        self.saves = 0

    def _path(self, step: int) -> Path:
        return self.root / f"ckpt-{int(step):012d}{self.SUFFIX}"

    def steps(self) -> List[int]:
        """Step stamps of the snapshots on disk, ascending."""
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.glob(f"ckpt-*{self.SUFFIX}"):
            stem = path.name[len("ckpt-") : -len(self.SUFFIX)]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def save(self, step: int, payload: Any) -> Path:
        path = write_checkpoint(self._path(step), payload, kind=self.kind, fault=self.fault)
        self.saves += 1
        steps = self.steps()
        for stale in steps[: max(0, len(steps) - self.keep)]:
            try:
                self._path(stale).unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass
        return path

    def load_latest(self) -> Optional[Tuple[int, Any]]:
        """The newest verifiable snapshot as ``(step, payload)``.

        Returns ``None`` when no snapshot verifies; every skipped
        snapshot lands in :attr:`failures` with its typed error.
        """
        for step in reversed(self.steps()):
            path = self._path(step)
            try:
                return step, read_checkpoint(path, kind=self.kind)
            except FileNotFoundError:  # pragma: no cover - concurrent prune
                continue
            except CheckpointError as exc:
                self.failures.append((path, exc))
        return None

    def clear(self) -> None:
        for step in self.steps():
            try:
                self._path(step).unlink()
            except OSError:  # pragma: no cover - concurrent clear
                pass

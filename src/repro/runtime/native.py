"""Loader of the native fused step (``native_step.c``) for fixed-point batches.

:func:`load` returns the C step bound through stdlib :mod:`ctypes`, or
``None`` when no library can be had; :class:`~repro.runtime.batch.BatchedNetwork`
then runs its NumPy step, which stays the bit-exact reference.

The shared object is built lazily, on the first step of an eligible
batch, at most once per process: a failure is remembered for the rest of
the process and logged as one ``WARNING`` naming its cause (no compiler,
a build failure with the tail of its stderr, or a load failure).  It is
cached on disk under a name derived from a SHA-256 of the C source, the
compiler flags and the platform tag, in the user cache directory (falling
back to a per-user directory under ``tempfile.gettempdir()``; see
:func:`_cache_dir`), and written under a temporary name
then ``os.replace``-d into place, so concurrent builds never expose a
partial file.  A cache hit is one :class:`ctypes.CDLL` call: no
subprocess, no compiler probe.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Any, Optional

__all__ = ["FLAGS", "StepBlock", "library_name", "load"]

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("native_step.c")
#: Never ``-ffast-math`` (it breaks the quantiser's rounding) and never
#: ``-march=native`` (a cached binary must run on any host of the arch).
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")
#: Lines of compiler stderr quoted in the build-failure warning.
_STDERR_TAIL = 12


class StepBlock(ctypes.Structure):
    """The per-batch pointer block, field for field ``izh_batch`` of the C source."""

    _fields_ = [
        ("cells", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("h_shift", ctypes.c_int64),
        ("pin_voltage", ctypes.c_int64),
        ("decay", ctypes.c_int64),
        ("shift_count", ctypes.c_int64),
        ("shifts", ctypes.c_int64 * 4),
        ("synapses", ctypes.c_int64),
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
        ("syn", ctypes.c_void_p),
        ("isyn", ctypes.c_void_p),
        ("v", ctypes.c_void_p),
        ("u", ctypes.c_void_p),
        ("a", ctypes.c_void_p),
        ("b", ctypes.c_void_p),
        ("c", ctypes.c_void_p),
        ("d", ctypes.c_void_p),
    ]


_UNLOADED: Any = object()
_step: Any = _UNLOADED
_lock = threading.Lock()


def load() -> Optional[Any]:
    """The native ``izh_step(block, external, last_fired, fired)``, or ``None``.

    Memoised per process, failures included.  Arguments are addresses
    (Python ints); a non-zero return value reports a NaN input current.
    """
    global _step
    if _step is _UNLOADED:
        with _lock:
            if _step is _UNLOADED:
                _step = _load()
    return _step


def _cache_dir() -> Path:
    """A directory for built libraries that only this user can write.

    The user cache directory, else a per-user directory in the temp dir,
    else a fresh private one: a library is loaded only from a directory
    this user owns and nobody else may write, so no one can plant one.
    """
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = getattr(os, "getuid", lambda: None)()
    for path in (Path(home) / "repro-native", Path(tempfile.gettempdir()) / f"repro-native-{uid}"):
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            info = path.stat()
        except OSError:
            continue
        if uid is None or (info.st_uid == uid and not info.st_mode & 0o022):
            return path
    return Path(tempfile.mkdtemp(prefix="repro-native-"))


def library_name() -> str:
    """The cache file name: a digest of the source, the flags and the platform tag."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS + (sysconfig.get_platform(),)).encode())
    return f"native_step-{digest.hexdigest()[:24]}.so"


def _load() -> Optional[Any]:
    try:
        name = library_name()
    except OSError as exc:
        _log.warning("native step unavailable (C source missing: %s); "
                     "fixed-point batches use the NumPy step", exc)
        return None
    path = _cache_dir() / name
    if not path.exists() and not _build(path):
        return None
    try:
        step = ctypes.CDLL(str(path)).izh_step
    except (OSError, AttributeError) as exc:
        _log.warning("native step unavailable (load of %s failed: %s); "
                     "fixed-point batches use the NumPy step", path, exc)
        return None
    step.argtypes = [ctypes.c_void_p] * 4
    step.restype = ctypes.c_int
    return step


def _build(path: Path) -> bool:
    """Compile the C source into ``path``; logs the cause and returns ``False`` on failure."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        _log.warning("native step unavailable (no C compiler: neither gcc nor cc on PATH); "
                     "fixed-point batches use the NumPy step")
        return False
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # one build per process
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", str(tmp), str(SOURCE)],
            capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-_STDERR_TAIL:])
            _log.warning("native step unavailable (build with %s failed, exit %d):\n%s\n"
                         "fixed-point batches use the NumPy step",
                         compiler, done.returncode, tail)
            return False
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        _log.warning("native step unavailable (build with %s failed: %s); "
                     "fixed-point batches use the NumPy step", compiler, exc)
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True

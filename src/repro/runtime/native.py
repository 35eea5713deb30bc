"""Loader of the native fused step (``native_step.c``) for fixed-point batches.

:func:`load` returns the C step bound through stdlib :mod:`ctypes`, or
``None`` when no library can be had; :class:`~repro.runtime.batch.BatchedNetwork`
then runs its NumPy step, which stays the bit-exact reference.
:func:`books` returns the same library's slot books (``izh_books``), or
``None`` likewise; :class:`~repro.runtime.slots.SlotEngine` then keeps
its books in NumPy, the reference.  Each call passes the live row count:
a :class:`StepBlock` or :class:`BooksBlock` points at the buffers of a
:class:`~repro.runtime.rows.RowStack`, sized to its capacity, and is
bound again only when they are reallocated.  A :class:`StepBlock` also
points at the batch's integer synapse grid — one format: int64 CSC
columns over the distinct connectivity structures, which the block's
per-row column bases (a row-stack field) address — and those three
pointers are rewritten only when the grid is rebuilt.

The C step draws the annealed drive's normals itself, from each row's
NumPy bit generator, through an inline copy of the fast path of NumPy's
``random_standard_normal``; draws off that path are replayed through
NumPy's own function, linked from the ``npyrandom`` static archive NumPy
ships (``numpy/random/lib``).  NEP 19 does not promise that sampler
across NumPy releases, so the library reads the fast path's tables back
through NumPy's function (``izh_probe``) and the loader then checks
:data:`CHECK_DRAWS` draws of :func:`normals` against
``Generator.standard_normal`` before it binds anything.

The shared object is built lazily, on the first step of an eligible
batch or the first admission into a slot engine, at most once per
process: a failure is remembered for the rest of
the process and logged as one ``WARNING`` naming its cause (no compiler,
no ``npyrandom`` archive, a build failure with the tail of its stderr, a
load failure, a failed probe or a failed self-check).  It is cached on
disk under a name derived from a SHA-256 of the C source, the compiler
flags, the platform tag and the bytes of the archive, in the user cache
directory (falling back to a per-user directory under
``tempfile.gettempdir()``; see :func:`_cache_dir`), and written under a
temporary name then ``os.replace``-d into place, so concurrent builds
never expose a partial file.  A cache hit is one :class:`ctypes.CDLL`
call: no subprocess, no compiler probe.
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

import numpy as np

__all__ = ["BooksBlock", "CHECK_DRAWS", "FLAGS", "StepBlock", "books", "library_name", "load",
           "normals"]

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("native_step.c")
#: NumPy's static ``npyrandom`` archive: the sampler the C step replays.
ARCHIVE = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
#: ``-O3`` turns on the loop vectoriser, which vectorises the source's
#: per-cell loops (GCC's ``-O2`` cost model vectorises none of them);
#: the AVX-512 code comes from the source's ``target_clones``, picked by
#: CPUID at load.  Never ``-ffast-math`` (it breaks the quantiser's
#: rounding) and never ``-march=native`` (a cached binary must run on any
#: host of the arch).
FLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")
#: Lines of compiler stderr quoted in the build-failure warning.
_STDERR_TAIL = 12
#: Draws of the sampler checked against ``Generator.standard_normal`` at load.
CHECK_DRAWS = 1 << 16
_CHECK_SEED = 20250101


class StepBlock(ctypes.Structure):
    """The per-batch pointer block, field for field ``izh_batch`` of the C source."""

    _fields_ = [
        ("size", ctypes.c_int64),
        ("h_shift", ctypes.c_int64),
        ("pin_voltage", ctypes.c_int64),
        ("decay", ctypes.c_int64),
        ("shift_count", ctypes.c_int64),
        ("shifts", ctypes.c_int64 * 4),
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
        ("base", ctypes.c_void_p),
        ("syn", ctypes.c_void_p),
        ("isyn", ctypes.c_void_p),
        ("v", ctypes.c_void_p),
        ("u", ctypes.c_void_p),
        ("a", ctypes.c_void_p),
        ("b", ctypes.c_void_p),
        ("c", ctypes.c_void_p),
        ("d", ctypes.c_void_p),
        ("annealed", ctypes.c_int64),
        ("drive", ctypes.c_void_p),
        ("mask", ctypes.c_void_p),
        ("sigma", ctypes.c_void_p),
        ("period", ctypes.c_void_p),
        ("anneal_floor", ctypes.c_void_p),
        ("offset", ctypes.c_void_p),
        ("rngs", ctypes.c_void_p),
        ("noise", ctypes.c_void_p),
    ]


class BooksBlock(ctypes.Structure):
    """A slot engine's books, field for field ``izh_books_block`` of the C source."""

    _fields_ = [
        ("capacity", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("window", ctypes.c_int64),
        ("check_interval", ctypes.c_int64),
        ("offsets", ctypes.c_void_p),
        ("budgets", ctypes.c_void_p),
        ("history", ctypes.c_void_p),
        ("window_counts", ctypes.c_void_p),
        ("last_spike", ctypes.c_void_p),
        ("row_spikes", ctypes.c_void_p),
        ("local", ctypes.c_void_p),
        ("at_check", ctypes.c_void_p),
        ("at_budget", ctypes.c_void_p),
    ]


_UNLOADED: Any = object()
_lib: Any = _UNLOADED
_lock = threading.Lock()


def _library() -> Optional[ctypes.CDLL]:
    """The loaded, probed and checked library, or ``None``; memoised per process."""
    global _lib
    if _lib is _UNLOADED:
        with _lock:
            if _lib is _UNLOADED:
                _lib = _load()
    return _lib


def load() -> Optional[Any]:
    """The native ``izh_step(block, rows, step, external, last_fired, fired)``, or ``None``.

    Memoised per process, failures included.  Steps the first ``rows``
    rows of the buffers a :class:`StepBlock` points at.  Pointer
    arguments are addresses (Python ints); a non-zero return value
    reports a NaN input current.
    """
    lib = _library()
    return None if lib is None else lib.izh_step


def books() -> Optional[Any]:
    """The native ``izh_books(block, rows, step, fired)``, or ``None`` where :func:`load` finds none.

    Updates the first ``rows`` rows of the books a :class:`BooksBlock`
    points at after global step ``step`` from the ``(rows, N)`` bool
    mask at ``fired``, and returns how many rows are at a check.
    """
    lib = _library()
    return None if lib is None else lib.izh_books


def normals() -> Optional[Any]:
    """The native ``izh_normals(bitgen, n, out)``, or ``None`` where :func:`load` finds none.

    Fills ``out`` with the next ``n`` values of ``Generator.standard_normal``
    from the ``bitgen_t`` at ``bitgen`` (``rng.bit_generator.ctypes.bit_generator``)
    and returns how many of them missed the inline fast path.
    """
    lib = _library()
    return None if lib is None else lib.izh_normals


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
    """The cache file name: a digest of the source, the flags, the platform and the archive."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS + (sysconfig.get_platform(),)).encode())
    digest.update(ARCHIVE.read_bytes())
    return f"native_step-{digest.hexdigest()[:24]}.so"


def _unavailable(cause: str, *args: Any) -> None:
    _log.warning("native step unavailable (" + cause + "); fixed-point batches use the NumPy step",
                 *args)


def _load() -> Optional[ctypes.CDLL]:
    if not ARCHIVE.is_file():
        _unavailable("NumPy's npyrandom archive not found at %s", ARCHIVE)
        return None
    try:
        name = library_name()
    except OSError as exc:
        _unavailable("C source missing: %s", exc)
        return None
    path = _cache_dir() / name
    if not path.exists() and not _build(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
        step, fill, probe, tally = lib.izh_step, lib.izh_normals, lib.izh_probe, lib.izh_books
    except (OSError, AttributeError) as exc:
        _unavailable("load of %s failed: %s", path, exc)
        return None
    step.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 3
    step.restype = ctypes.c_int
    fill.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    fill.restype = ctypes.c_int64
    probe.argtypes, probe.restype = [], ctypes.c_int
    tally.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    tally.restype = ctypes.c_int64
    if probe() != 0:
        _unavailable("NumPy's normal sampler did not answer the table probe")
        return None
    mismatch = _self_check(fill)
    if mismatch is not None:
        _unavailable("the inline normal sampler disagrees with NumPy %s: %s",
                     np.__version__, mismatch)
        return None
    return lib


def _self_check(fill: Any) -> Optional[str]:
    """``None`` when :data:`CHECK_DRAWS` native draws equal NumPy's, else what differed."""
    mine, reference = (np.random.default_rng(_CHECK_SEED) for _ in range(2))
    got = np.empty(CHECK_DRAWS)
    fill(mine.bit_generator.ctypes.bit_generator, CHECK_DRAWS, got.ctypes.data)
    expected = reference.standard_normal(CHECK_DRAWS)
    differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    if differ.size:
        return f"{differ.size} of {CHECK_DRAWS} draws differ, the first at draw {differ[0]}"
    if mine.bit_generator.state != reference.bit_generator.state:
        return "the generator ended in another state"
    return None


def _build(path: Path) -> bool:
    """Compile the C source into ``path``; logs the cause and returns ``False`` on failure."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        _unavailable("no C compiler: neither gcc nor cc on PATH")
        return False
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # one build per process
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-I", np.get_include(), "-o", str(tmp), str(SOURCE),
             "-L", str(ARCHIVE.parent), "-lnpyrandom", "-lm"],
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
        _unavailable("build with %s failed: %s", compiler, exc)
        return False
    finally:
        tmp.unlink(missing_ok=True)
    return True

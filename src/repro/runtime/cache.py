"""Content-addressed on-disk cache for backend run results.

Every built-in backend is deterministic given a :class:`RunRequest`
(network construction, noise and puzzle generation are all seeded), so a
``(backend, request)`` pair fully determines the :class:`RunResult` — up
to the code that computes it.  :class:`RunResultCache` exploits that:

* the **identity** of a run (:func:`derive_identity`) is a SHA-256 over
  the backend name and a canonical token of the request (dataclasses,
  mappings, sequences, NumPy arrays and scalars are all reduced to a
  stable JSON form).  It does not depend on the code, so it can seed
  and deduplicate work across code revisions (the serve tier does);
* the **cache key** (:func:`derive_cache_key`) is that identity bound
  to a **code fingerprint** hashing every ``repro`` source file, so
  editing the simulator invalidates all prior entries instead of
  serving stale results;
* entries are pickled ``RunResult`` objects stored under
  ``<root>/<key[:2]>/<key>.pkl`` — written atomically (temp file +
  fsync + rename) with a SHA-256 payload checksum verified on every
  read, so concurrent sweep workers may share one cache directory and a
  corrupted entry is quarantined (renamed aside, counted) instead of
  being served or silently lost;
* requests that contain objects without a stable canonical form (e.g. a
  closure in ``options``) are *bypassed*, never mis-keyed.

The cache is opt-in.  ``run_on_backend(..., cache=True)`` (or an
explicit :class:`RunResultCache` instance) enables it per call, and
setting ``REPRO_RUN_CACHE=1`` in the environment enables it for every
``run_on_backend`` call that does not say otherwise —
``REPRO_RUN_CACHE_DIR`` overrides the default location
(``~/.cache/izhirisc-repro/runs``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

__all__ = [
    "RunResultCache",
    "UncacheableRequestError",
    "code_fingerprint",
    "default_cache",
    "derive_cache_key",
    "derive_identity",
    "resolve_cache",
]

#: Environment switch enabling the default cache for all ``run_on_backend``
#: calls ("1" / "true" / "on" / "yes").
ENV_ENABLE = "REPRO_RUN_CACHE"
#: Environment override for the cache directory.
ENV_DIR = "REPRO_RUN_CACHE_DIR"

#: Bumped whenever the identity derivation changes (this re-seeds every
#: served request whose seed is derived from its identity).
_IDENTITY_VERSION = 1
#: Bumped whenever the cache-key binding or the stored format changes.
_FORMAT_VERSION = 2

#: Leads every checksummed cache entry; followed by a 32-byte SHA-256 of
#: the pickled payload, then the payload itself.
_ENTRY_MAGIC = b"RPROCSH1"
_SHA_BYTES = 32


class UncacheableRequestError(TypeError):
    """A request contains an object with no stable canonical form."""


def _token(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serialisable structure.

    Two requests produce the same token iff they describe the same run;
    anything we cannot canonicalise raises
    :class:`UncacheableRequestError` so the caller bypasses the cache
    rather than risking a collision.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if isinstance(obj, np.generic):
        return _token(obj.item())
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return {"__ndarray__": [str(obj.dtype), list(obj.shape), digest]}
    # Objects may declare their own canonical form through the
    # ``cache_token`` protocol (e.g. ``ConstraintGraph``, which is not a
    # dataclass and whose identity is structural).  The protocol wins
    # over the generic dataclass reduction so classes can exclude
    # incidental fields (names, caches) from their cache identity.
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method) and not isinstance(obj, type):
        return {"__object__": type(obj).__qualname__, "token": _token(token_method())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            "fields": {f.name: _token(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, Mapping):
        # Keys are tokenised like values (str(1) == str("1") would
        # collide) and pairs are ordered by their serialised form, which
        # is total where tuple comparison of arbitrary tokens is not.
        items = [[_token(key), _token(value)] for key, value in obj.items()]
        items.sort(key=lambda pair: json.dumps(pair, sort_keys=True, separators=(",", ":")))
        return {"__mapping__": items}
    if isinstance(obj, (list, tuple)):
        return [_token(item) for item in obj]
    raise UncacheableRequestError(
        f"cannot derive a stable cache key from {type(obj).__qualname__!r}"
    )


def derive_identity(namespace: str, request: Any) -> Optional[str]:
    """Code-independent content identity of one ``(namespace, request)`` pair.

    A SHA-256 over the namespace and the canonical request token: equal
    for equal requests in any process and under any code revision.
    Returns ``None`` when the request contains an object with no stable
    canonical form.
    """
    try:
        token = _token(request)
    except UncacheableRequestError:
        return None
    payload = json.dumps(
        {"version": _IDENTITY_VERSION, "namespace": namespace, "request": token},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def derive_cache_key(backend_name: str, request: Any) -> Optional[str]:
    """Content-addressed cache key of one ``(backend, request)`` pair.

    The module-level form of :meth:`RunResultCache.key_for`: the
    request's :func:`derive_identity` bound to :func:`code_fingerprint`,
    so an entry is only ever served by the code revision that wrote it.
    Returns ``None`` when the request contains an object with no stable
    canonical form.
    """
    identity = derive_identity(backend_name, request)
    if identity is None:
        return None
    bound = f"{_FORMAT_VERSION}:{identity}:{code_fingerprint()}"
    return hashlib.sha256(bound.encode()).hexdigest()


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (computed once per process).

    Part of every cache key: a cached result is only ever served by the
    exact code revision that produced it.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


class RunResultCache:
    """On-disk store mapping ``(backend, request, code)`` to ``RunResult``.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_RUN_CACHE_DIR`` or
        ``~/.cache/izhirisc-repro/runs``.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            root = os.environ.get(ENV_DIR) or Path.home() / ".cache" / "izhirisc-repro" / "runs"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.uncacheable = 0
        self.quarantined = 0

    # ------------------------------------------------------------------ #
    # Key derivation
    # ------------------------------------------------------------------ #
    def key_for(self, backend_name: str, request: Any) -> Optional[str]:
        """Cache key for one run, or ``None`` if the request is uncacheable."""
        return derive_cache_key(backend_name, request)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def _quarantine(self, path: Path) -> None:
        """Rename a damaged entry aside (kept for post-mortems) and count it.

        Quarantined files carry a ``.quarantined`` suffix the loader
        never matches, so the slot reads as a miss and the next store
        rewrites it — but the corrupt bytes stay available for
        inspection instead of silently vanishing.
        """
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
            self.quarantined += 1
        except OSError:
            path.unlink(missing_ok=True)

    def get(self, key: str, *, expect: Optional[type] = None) -> Optional[Any]:
        """Load a cached result (``None`` on miss or corrupt entry).

        Checksummed entries (the format :meth:`put` writes) are verified
        on every read: a payload whose SHA-256 does not match — bit rot,
        torn write, tampering — is **quarantined** (renamed aside and
        counted in :attr:`stats`) and reported as a miss.  Legacy
        un-checksummed pickles are still readable; ones that fail to
        unpickle are quarantined the same way.  With ``expect`` set, an
        entry that unpickles to a different type — e.g. a foreign pickle
        dropped into the cache directory, or an entry written by an
        incompatible tool — is unlinked and reported as a miss, never
        handed to the caller.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            if data.startswith(_ENTRY_MAGIC):
                head = len(_ENTRY_MAGIC) + _SHA_BYTES
                digest = data[len(_ENTRY_MAGIC) : head]
                payload = data[head:]
                if len(digest) < _SHA_BYTES or hashlib.sha256(payload).digest() != digest:
                    raise ValueError("cache entry checksum mismatch")
                result = pickle.loads(payload)
            else:
                # Pre-checksum entry (or foreign bytes): the unpickle
                # itself is the only integrity check available.
                result = pickle.loads(data)
        except Exception:
            self._quarantine(path)
            return None
        if expect is not None and not isinstance(result, expect):
            path.unlink(missing_ok=True)
            return None
        return result

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (atomic, fsynced, checksummed).

        The entry is written to a temp file (magic + payload SHA-256 +
        pickled payload), fsynced and renamed into place, so a crash
        mid-store can never leave a half-written entry under the key —
        and a damaged one can never be mistaken for a result on read.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY_MAGIC)
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    # ------------------------------------------------------------------ #
    # High-level interface
    # ------------------------------------------------------------------ #
    def load_or_run(self, backend: Any, request: Any) -> Any:
        """Serve ``backend.run(request)`` from the cache when possible."""
        key = self.key_for(backend.name, request)
        if key is None:
            self.uncacheable += 1
            return backend.run(request)
        cached = self.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = backend.run(request)
        self.put(key, result)
        return result

    def clear(self) -> None:
        """Delete every entry (the directory itself is recreated lazily)."""
        shutil.rmtree(self.root, ignore_errors=True)

    @property
    def stats(self) -> Mapping[str, int]:
        """Hit/miss/store/uncacheable counters for this instance."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "quarantined": self.quarantined,
        }


_DEFAULT: Optional[RunResultCache] = None


def default_cache() -> RunResultCache:
    """Process-wide cache instance honouring ``REPRO_RUN_CACHE_DIR``.

    The environment is re-read on every call, so setting *or unsetting*
    the directory override takes effect immediately (tests monkeypatch
    it around individual cases).
    """
    global _DEFAULT
    env_root = os.environ.get(ENV_DIR)
    expected = Path(env_root) if env_root else Path.home() / ".cache" / "izhirisc-repro" / "runs"
    if _DEFAULT is None or _DEFAULT.root != expected:
        _DEFAULT = RunResultCache(expected)
    return _DEFAULT


def resolve_cache(
    cache: Union[None, bool, str, Path, RunResultCache],
) -> Optional[RunResultCache]:
    """Resolve the ``cache`` argument of ``run_on_backend`` and the sweeps.

    ``None`` defers to the ``REPRO_RUN_CACHE`` environment switch,
    ``True``/``False`` force the default cache on/off, a string or
    :class:`~pathlib.Path` selects an explicit store directory (the form
    sweep workers receive, since a path crosses process boundaries
    cheaply), and a :class:`RunResultCache` instance is used as-is.
    """
    if cache is None:
        if os.environ.get(ENV_ENABLE, "").strip().lower() in ("1", "true", "on", "yes"):
            return default_cache()
        return None
    if cache is False:
        return None
    if cache is True:
        return default_cache()
    if isinstance(cache, (str, Path)):
        return RunResultCache(cache)
    return cache

"""Content-addressed result cache for sweep/campaign tasks.

Every task the executors run is a *pure function* of ``(code, seed,
params)``: the simulations are deterministic by construction (that is
the paper's premise, and the certifier enforces it), and the per-task
seed from :func:`repro.sweep.task_seed` is itself content-addressed.
That makes result caching sound: if the code digest, the seed and the
canonicalized parameters match, the task would produce the same
:class:`~repro.sweep.SweepResult` — including its observability
snapshot — so returning the stored one is indistinguishable from
re-running it.

Cache key
---------
``blake2b-128`` over a canonical JSON document::

    {"v": 2, "code": <code digest>, "seed": <task seed>,
     "params": <canonical params>, "opts": {...execution options...}}

* **code digest** — the task function's qualified name plus one blake2b
  over the source of the whole ``repro`` package (every ``*.py``, by
  relative path and bytes; a function defined outside the package adds
  its own module file, and one with no file to read — ``python -c``
  code — is unkeyable): whatever a task can reach — kernels, protocol,
  simulator, analysis — is covered, so an edit anywhere invalidates
  every cached result rather than serving a stale one.  Hashed once per
  process.
* **seed** — the injected per-task seed (which already encodes the
  campaign base seed, task index and task name).
* **params** — strict-canonical JSON of the task's params: sorted keys,
  no whitespace, and *refusing* (rather than papering over) any value
  that does not round-trip — colliding stringified dict keys or objects
  that only ``repr()`` (reprs can embed memory addresses, which would
  make "identical" params hash differently).  Unkeyable tasks simply
  bypass the cache.
* **opts** — execution options that change the result's *shape*:
  ``collect_obs``, the ``timeseries`` interval, and whether the runtime
  sanitizer is armed (a sanitized run must never satisfy an unsanitized
  request, or vice versa — the invariant counters differ).

Keys are start-method invariant (pure content hashing, no ``hash()`` /
``id()``), so a cache written by a fork pool is valid for a spawn pool
and across hosts — asserted by the fork/spawn invariance test.

Storage
-------
In-memory store plus an optional on-disk layer (``<dir>/<k[:2]>/<k>.pkl``,
atomic ``os.replace`` writes) so a restarted service — or a second CI
job — keeps its hits.  Entries are pickled ``SweepResult`` objects;
``get`` unpickles a fresh copy per call, so callers can mutate results
without corrupting the cache.  Only trust cache directories you wrote:
unpickling executes code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

from ..lint.sanitize import sanitize_enabled

__all__ = [
    "CacheUnkeyable",
    "ResultCache",
    "cache_key",
    "canonical_params",
    "code_digest",
]

#: bump when the key document layout changes
KEY_SCHEMA_VERSION = 2


class CacheUnkeyable(ValueError):
    """Raised when params cannot be canonicalized unambiguously."""


# ----------------------------------------------------------------------
# Canonical params
# ----------------------------------------------------------------------
#: params entries injected by the executor, not part of the task identity
INJECTED_PARAMS = ("obs", "seed")


def canonical_params(params: dict[str, Any]) -> str:
    """Strict canonical JSON for a task's params.

    Uses the sweep executor's strict ``_jsonable`` mode: stringified
    dict-key collisions and repr-only objects raise
    :class:`CacheUnkeyable` instead of producing an ambiguous key.
    """
    from ..sweep.executor import _jsonable

    cleaned = {k: v for k, v in params.items() if k not in INJECTED_PARAMS}
    try:
        data = _jsonable(cleaned, strict=True)
    except ValueError as exc:
        raise CacheUnkeyable(str(exc)) from exc
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Code digest
# ----------------------------------------------------------------------
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _source_digest(outside: str | None) -> str:
    """blake2b over the sorted ``(relative path, bytes)`` of every ``*.py``
    under the ``repro`` package, plus the file of module ``outside`` (a
    task function's home, when that is not in the package).  Read once
    per process: a process computes keys for the code it has loaded.
    An ``outside`` module with no readable file is unkeyable."""
    files = {path.relative_to(_PACKAGE_ROOT).as_posix(): path
             for path in _PACKAGE_ROOT.rglob("*.py")}
    if outside is not None:
        own = getattr(sys.modules.get(outside), "__file__", None)
        if not own or not os.path.isfile(own):  # ``python -c``, stdin
            raise CacheUnkeyable(f"module {outside!r} has no source file")
        files[f"<{outside}>"] = Path(own)
    h = hashlib.blake2b(digest_size=16)
    for rel in sorted(files):
        data = files[rel].read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def code_digest(fn: Callable[..., Any]) -> str:
    """Digest of the code a task's result depends on: which function,
    and every source file it can reach (see :func:`_source_digest`)."""
    module = fn.__module__
    inside = module.partition(".")[0] == _PACKAGE_ROOT.name
    return (f"{module}.{fn.__qualname__}:"
            f"{_source_digest(None if inside else module)}")


def cache_key(
    fn: Callable[..., Any],
    params: dict[str, Any],
    seed: int,
    collect_obs: bool = False,
    timeseries: float | None = None,
) -> str:
    """The content address of one task execution (raises
    :class:`CacheUnkeyable` when params cannot be canonicalized)."""
    doc = {
        "v": KEY_SCHEMA_VERSION,
        "code": code_digest(fn),
        "seed": int(seed),
        "params": canonical_params(params),
        "opts": {
            "collect_obs": bool(collect_obs),
            "timeseries": timeseries,
            "sanitize": sanitize_enabled(),
        },
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class ResultCache:
    """In-memory + optional on-disk content-addressed result store."""

    def __init__(self, path: str | None = None):
        self.path = path
        self._memory: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.unkeyable = 0
        if path:
            os.makedirs(path, exist_ok=True)

    # -- keys ----------------------------------------------------------
    def key_for(
        self,
        fn: Callable[..., Any],
        params: dict[str, Any],
        seed: int,
        collect_obs: bool = False,
        timeseries: float | None = None,
    ) -> str | None:
        """:func:`cache_key`, or ``None`` (counted) when unkeyable."""
        try:
            return cache_key(fn, params, seed,
                             collect_obs=collect_obs, timeseries=timeseries)
        except CacheUnkeyable:
            self.unkeyable += 1
            return None

    # -- storage -------------------------------------------------------
    def _file_for(self, key: str) -> str | None:
        if not self.path:
            return None
        return os.path.join(self.path, key[:2], key + ".pkl")

    def get(self, key: str | None) -> Any | None:
        """A *fresh copy* of the stored result, or ``None`` on miss."""
        if key is None:
            self.misses += 1
            return None
        blob = self._memory.get(key)
        if blob is None:
            fname = self._file_for(key)
            if fname is not None:
                try:
                    with open(fname, "rb") as fh:
                        blob = fh.read()
                except OSError:
                    blob = None
                if blob is not None:
                    self._memory[key] = blob
        if blob is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(blob)
        except Exception:  # corrupt entry: treat as miss  # noqa: BLE001
            self._memory.pop(key, None)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str | None, result: Any) -> None:
        if key is None:
            return
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._memory[key] = blob
        self.stores += 1
        fname = self._file_for(key)
        if fname is None:
            return
        # a failed disk write (full disk, lost permissions) costs the entry
        # its persistence, never the campaign: the memory copy still serves
        tmp = None
        try:
            os.makedirs(os.path.dirname(fname), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(fname),
                                       suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, fname)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "unkeyable": self.unkeyable,
            "entries_memory": len(self._memory),
        }

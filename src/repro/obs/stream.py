"""Live JSONL progress stream for sweeps and chaos campaigns.

Long campaigns were silent until the final report; ``--stream out.jsonl``
(or ``--stream -`` for stderr) gives them a heartbeat: the parent process
emits one compact JSON object per line as worker results arrive over the
existing executor queue — no extra IPC, no change to worker code.  The
campaign service sends the same events over its wire: a stream built on
a callable hands each one to it instead of writing a line.

Event schema (one object per line, keys sorted)::

    {"v": 1, "seq": N, "elapsed_s": W, "kind": "...", ...}

* ``campaign_begin`` — ``campaign`` name plus its scale (``tasks`` or
  ``trials``, ``workers``, ``seed``/``kernels`` when applicable).
* ``task_done`` — per task/trial: ``index``, ``name``, ``status``
  ("ok"/"error"), ``duration_s``, running ``done``/``total``, ``error``
  (message, on failure), ``cached: true`` when the result was served
  from the content-addressed cache, and optional compact ``metrics``
  pulled from the task's obs snapshot.
* ``campaign_end`` — final tallies (``ok``, and for chaos the
  passed/failed/errors split with per-oracle failure counts; campaigns
  running against a result cache attach its hit/miss/store ``cache``
  stats).

Wall-clock note: ``elapsed_s`` and ``duration_s`` are *operator*
telemetry — wall seconds since the stream opened / per-task worker wall
time.  They never feed back into the simulation, which is why this module
lives in ``obs/`` (exempt from the RPD002 wall-clock lint rule).  The
simulation-side payloads (metrics, series) remain purely virtual-time.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Any, Callable

__all__ = [
    "ProgressStream",
    "stream_progress",
    "snapshot_counter_totals",
]

#: bump when the event schema changes shape
STREAM_SCHEMA_VERSION = 1

#: counter totals surfaced per task in ``task_done.metrics`` (only those
#: present in the snapshot are emitted)
SUMMARY_COUNTERS: tuple[str, ...] = (
    "engine.events_dispatched",
    "network.messages_delivered",
    "protocol.messages_logged",
    "checkpoint.stored",
    "recovery.failures",
)


class ProgressStream:
    """Writes one JSON object per line to a file or stderr, flushing each
    line so ``tail -f`` (or a pipeline) sees events as they happen — or,
    when ``fh`` is a callable, calls it with each event's dict."""

    def __init__(self, fh: IO[str] | Callable[[dict[str, Any]], None],
                 close: bool = False):
        self._fh: Any = fh
        self._close = close
        self._seq = 0
        self._t0 = time.monotonic()

    @classmethod
    def open(cls, spec: str) -> "ProgressStream":
        """``spec`` is a path, or ``"-"``/``"stderr"`` for stderr."""
        if spec in ("-", "stderr"):
            return cls(sys.stderr)
        return cls(open(spec, "w", encoding="utf-8"), close=True)

    def emit(self, kind: str, **fields: Any) -> None:
        self._seq += 1
        rec: dict[str, Any] = {
            "v": STREAM_SCHEMA_VERSION,
            "seq": self._seq,
            "elapsed_s": round(time.monotonic() - self._t0, 6),
            "kind": kind,
        }
        rec.update(fields)
        if callable(self._fh):
            self._fh(rec)
            return
        self._fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._close:
            self._fh.close()
            self._close = False

    def __enter__(self) -> "ProgressStream":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def snapshot_counter_totals(
    snap: dict[str, Any] | None,
    names: tuple[str, ...] = SUMMARY_COUNTERS,
) -> dict[str, float]:
    """Compact counter totals from a registry snapshot (for ``task_done``)."""
    if not snap:
        return {}
    out: dict[str, float] = {}
    instruments = snap.get("instruments", {})
    for name in names:
        data = instruments.get(name)
        if data and data.get("type") == "counter":
            out[name] = sum(v for _, v in data["values"])
    return out


def stream_progress(
    stream: ProgressStream,
    total: int,
    inner: Callable[..., None] | None = None,
) -> Callable[..., None]:
    """Build a ``run_sweep``-compatible ``on_progress`` callback that emits
    a ``task_done`` event per completed task, chaining ``inner`` (an
    existing progress callback, e.g. the chaos CLI ticker) afterwards."""
    done = 0

    def on_progress(result: Any) -> None:
        nonlocal done
        done += 1
        fields: dict[str, Any] = {
            "index": result.index,
            "name": result.name,
            "status": "ok" if result.error is None else "error",
            "duration_s": round(result.duration, 6),
            "done": done,
            "total": total,
        }
        if result.error is not None:
            fields["error"] = result.error
        if getattr(result, "cached", False):
            fields["cached"] = True
        value = result.value
        if isinstance(value, dict) and "passed" in value:
            fields["passed"] = bool(value["passed"])
        metrics = snapshot_counter_totals(getattr(result, "obs", None))
        if metrics:
            fields["metrics"] = metrics
        stream.emit("task_done", **fields)
        if inner is not None:
            inner(result)

    return on_progress

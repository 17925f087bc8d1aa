"""Tracing for the per-layer pass: phase spans and profile bucketing.

Both live entirely in the benchmark: spans are recorded around the public
calls the workloads make, and module self time comes from wrapping a unit
in ``cProfile`` and bucketing ``tottime`` by source file.  Nothing in
``src/`` knows it is being traced.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator

__all__ = ["LAYERS", "NULL_RECORDER", "SpanRecorder", "bucket_profile",
           "layer_of"]


class SpanRecorder:
    """In-memory spans: name, start, end, parent index, workload id."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = {"name": name, "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per name: duration minus the part child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out


class _NullRecorder:
    """Tracing off: the end-to-end runs use this."""

    enabled = False

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


NULL_RECORDER = _NullRecorder()


# ----------------------------------------------------------------------
# Profile bucketing
# ----------------------------------------------------------------------
#: path fragment under ``repro/`` -> layer, first match wins.  Layers are
#: named after this repo's modules; files of a package that has one layer
#: here share it (``simmpi/api.py`` is the rank-side face of process.py).
_RULES = (
    ("simmpi/engine.py", "simmpi.engine"),
    ("simmpi/network.py", "simmpi.network"),
    ("netmodel/", "simmpi.network"),
    ("simmpi/process.py", "simmpi.process"),
    ("simmpi/api.py", "simmpi.process"),
    ("simmpi/message.py", "simmpi.message"),
    ("simmpi/runtime.py", "simmpi.runtime"),
    ("simmpi/failure.py", "simmpi.runtime"),
    ("simmpi/trace.py", "simmpi.trace"),
    ("simmpi/topology.py", "simmpi.topology"),
    ("simmpi/collectives.py", "simmpi.collectives"),
    ("simmpi/subcomm.py", "simmpi.collectives"),
    ("apps/", "apps"),
    ("core/protocol.py", "core.protocol"),
    ("core/state.py", "core.state"),
    ("core/logstore.py", "core.logstore"),
    ("core/controller.py", "core.controller"),
    ("core/clustering.py", "core.controller"),
    ("core/checkpoint.py", "core.checkpoint"),
    ("core/recovery.py", "core.recovery"),
    ("analysis/rollback.py", "analysis.rollback"),
    ("analysis/", "analysis.other"),
    ("obs/", "obs"),
    ("sweep/", "sweep.executor"),
    ("service/cache.py", "service.cache"),
    ("service/scheduler.py", "service.scheduler"),
    ("service/", "service.jobs"),
    ("chaos/", "chaos"),
    ("lint/", "lint"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _RULES)) + ("other",)


def layer_of(filename: str) -> str:
    """Layer a source file's self time is charged to; files outside
    ``repro/`` (stdlib, numpy, the benchmark itself) go to ``other``."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "other"
    rel = path[marker + len("/repro/"):]
    for fragment, layer in _RULES:
        if rel.startswith(fragment):
            return layer
    return "other"


def bucket_profile(stats: dict) -> dict[str, dict[str, float]]:
    """Bucket ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    A function in a ``repro`` file charges its ``tottime`` to that file's
    layer.  Foreign code — builtins and C functions (file ``"~"``), the
    standard library, numpy — has no layer of its own: its self time is
    charged to the layers of the ``repro`` code that called it, through as
    many foreign frames as it takes (``heappush`` from the engine is engine
    time; ``copy.deepcopy`` and everything under it, called from a
    checkpoint, is checkpoint time).  Callers split a foreign function in
    proportion to the cumulative time of their edges in the callers table —
    cumulative, because a recursive function spends its self time under
    its own frames and only the outermost call knows who asked.  What no
    ``repro`` caller reaches — the benchmark's own frames, files nobody
    knows — goes to ``other``, so the layers always sum to the profile's
    total self time.
    """
    native = {func: layer_of(func[0]) for func in stats
              if func[0] != "~" and layer_of(func[0]) != "other"}
    foreign = [func for func in stats if func not in native]
    # share[f]: fraction of foreign f owed to each layer; absent until some
    # caller chain reaches repro code.  Updated in place round after round:
    # a chain of n foreign frames settles within n rounds, and recursion
    # settles at once because unknown callers carry no weight.
    share: dict[tuple, dict[str, float]] = {}
    for _ in range(32):
        moved = 0.0
        for func in foreign:
            mix: dict[str, float] = {}
            for caller, (_nc, _cc, _tt, edge_ct) in stats[func][4].items():
                if caller in native:
                    parts = {native[caller]: 1.0}
                else:
                    parts = share.get(caller, {})
                for layer, part in parts.items():
                    mix[layer] = mix.get(layer, 0.0) + edge_ct * part
            total = sum(mix.values())
            if total <= 0:
                continue
            new = {layer: weight / total for layer, weight in mix.items()}
            old = share.get(func, {})
            moved = max([moved] + [abs(part - old.get(layer, 0.0))
                                   for layer, part in new.items()])
            share[func] = new
        if moved < 1e-9:
            break
    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        parts = ({native[func]: 1.0} if func in native
                 else share.get(func, {"other": 1.0}))
        for layer, part in parts.items():
            out[layer]["self_s"] += tt * part
            out[layer]["calls"] += nc * part
    for bucket in out.values():
        bucket["calls"] = round(bucket["calls"])
    return out

"""Chrome trace-event / Perfetto export of flight records.

Renders one run's flight-record stream (:mod:`repro.obs.flight`), read
from the recorder that captured it, as a Chrome trace-event JSON object
loadable in ``ui.perfetto.dev`` or ``chrome://tracing``:

* one ``pid``/``tid`` lane per rank,
* ``X`` (complete) spans for compute and recovery intervals, derived from
  the failure/rollback -> running transitions each rank records,
* ``i`` (instant) marks for checkpoints, failures, epoch increments and
  replays,
* ``s``/``f`` flow arrows from each application send to its delivery,
  paired by the message ``uid``.

Only the four phase types ``{X, i, s, f}`` are emitted, so the output is
trivially schema-checkable (``tests/obs/test_perfetto.py``).  Timestamps
are the simulator's virtual seconds scaled to microseconds — the trace is
bit-reproducible across hosts, like everything else in the pipeline.
"""

from __future__ import annotations

import json
from typing import Any

from .flight import FlightKind

__all__ = ["perfetto_trace", "dump_perfetto", "INSTANT_KINDS"]

#: flight kinds rendered as instant marks on the rank's lane
INSTANT_KINDS = {
    FlightKind.CHECKPOINT: "checkpoint",
    FlightKind.FAILURE: "failure",
    FlightKind.EPOCH: "epoch",
    FlightKind.ROLLBACK: "rollback",
    FlightKind.REPLAY: "replay",
}

_US = 1_000_000.0  # virtual seconds -> trace microseconds


def perfetto_trace(source: Any) -> dict[str, Any]:
    """Build the ``{"traceEvents": [...]}`` object for one run.

    ``source`` is a :class:`~repro.obs.registry.MetricsRegistry` or a
    :class:`~repro.obs.flight.FlightRecorder`.
    Ranks that never recorded are *not* materialised: a fabricated
    full-length lane per silent rank turns a sparse failure trace into
    O(p) filler at 4K ranks (Perfetto numbers the lanes it does see by
    pid, so ordering stays stable).
    """
    flight = getattr(source, "flight", source)
    events: list[dict[str, Any]] = []
    per_rank = [
        (rank, recs)
        for rank in flight.ranks()
        for recs in (list(flight.records(rank=rank)),)
        if recs
    ]

    sends: dict[int, tuple] = {}
    delivers: dict[int, tuple] = {}
    end_ts = max((recs[-1][0] for _rank, recs in per_rank), default=0.0)

    for rank, recs in per_rank:
        # state spans: compute until a failure/rollback, recovery until the
        # rank reports Running again
        span_start = 0.0
        span_name = "compute"
        for rec in recs:
            time, kind, _rank, peer, uid = rec[0], rec[1], rec[2], rec[3], rec[4]
            if kind == FlightKind.SEND and uid:
                sends[uid] = rec
            elif kind == FlightKind.DELIVER and uid:
                delivers[uid] = rec
            if kind in INSTANT_KINDS:
                events.append({
                    "name": INSTANT_KINDS[kind], "ph": "i", "s": "t",
                    "ts": time * _US, "pid": rank, "tid": rank,
                    "cat": "protocol",
                    "args": {"epoch": rec[5], "phase": rec[7], "peer": peer},
                })
            if kind in (FlightKind.FAILURE, FlightKind.ROLLBACK):
                if span_name == "compute" and time > span_start:
                    events.append({
                        "name": "compute", "ph": "X", "ts": span_start * _US,
                        "dur": (time - span_start) * _US,
                        "pid": rank, "tid": rank, "cat": "state",
                    })
                    span_start, span_name = time, "recovery"
            elif kind == FlightKind.RUNNING and span_name == "recovery":
                events.append({
                    "name": "recovery", "ph": "X", "ts": span_start * _US,
                    "dur": (time - span_start) * _US,
                    "pid": rank, "tid": rank, "cat": "state",
                })
                span_start, span_name = time, "compute"
        if end_ts > span_start:
            events.append({
                "name": span_name, "ph": "X", "ts": span_start * _US,
                "dur": (end_ts - span_start) * _US,
                "pid": rank, "tid": rank, "cat": "state",
            })

    # flow arrows send -> deliver, paired by message uid
    for uid, send_rec in sends.items():
        recv_rec = delivers.get(uid)
        if recv_rec is None:
            continue
        events.append({
            "name": "msg", "ph": "s", "id": uid, "cat": "msg",
            "ts": send_rec[0] * _US, "pid": send_rec[2], "tid": send_rec[2],
        })
        events.append({
            "name": "msg", "ph": "f", "bp": "e", "id": uid, "cat": "msg",
            "ts": recv_rec[0] * _US, "pid": recv_rec[2], "tid": recv_rec[2],
        })

    events.sort(key=lambda e: (e["ts"], e["pid"], e["ph"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_perfetto(source: Any, path: str) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    trace = perfetto_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
        fh.write("\n")
    return len(trace["traceEvents"])

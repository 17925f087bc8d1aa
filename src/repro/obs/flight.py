"""Protocol flight recorder: per-rank lists of typed transitions.

The metrics registry answers "how many" — the flight recorder answers
"which and why".  Every protocol-relevant transition (application send,
delivery, sender-log decision, acknowledgement, checkpoint, epoch/phase
increment, failure, SPE collection, recovery-line fix-point step,
rollback, replayed re-emission) lands as one fixed-shape record

    ``(time, kind, rank, peer, uid, epoch_send, epoch_recv, phase,
       cause_uid, extra)``

in a per-rank list that keeps every record.  The record stream is what
the recovery explainer (:mod:`repro.obs.explain`), the Perfetto exporter
(:mod:`repro.obs.perfetto`) and the flight dumps (``repro obs
--flight-out``, a failing chaos trial's ``flight_jsonl``) consume, always
in the process that recorded it: a registry's snapshot carries metrics
and time series only, so the stream never crosses a process boundary.

Zero-cost-when-disabled contract: a registry built with
``flight=False`` has ``flight is None``; components cache
``obs.flight if obs is not None else None`` at construction, so the
disabled path is one identity comparison.  Records
are plain tuples.  Components that record for one fixed rank resolve a
:meth:`FlightRecorder.sink` handle once at construction and append
directly onto the list's bound C ``append`` (one timestamp attribute
load, one tuple build — no recorder call); the
:meth:`FlightRecorder.record` API remains for cold paths.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = [
    "FlightKind",
    "FlightRecorder",
    "RECORD_FIELDS",
    "record_to_dict",
]

#: positional layout of one flight record tuple
RECORD_FIELDS = (
    "time", "kind", "rank", "peer", "uid",
    "epoch_send", "epoch_recv", "phase", "cause_uid", "extra",
)


class FlightKind:
    """Record kinds — one per protocol-relevant transition.

    String constants (not an Enum): the hot path writes millions of these
    and an interned string compares/serialises faster than Enum members.
    """

    SEND = "send"              # application send (incl. re-executed sends)
    DELIVER = "deliver"        # fresh delivery to the application
    SUPPRESS = "suppress"      # duplicate re-emission suppressed
    ACK = "ack"                # acknowledgement emitted by the receiver
    LOG = "log"                # epoch-crossing rule copied a message to the log
    CONFIRM = "confirm"        # ack resolved without logging (SPE path)
    CHECKPOINT = "checkpoint"  # checkpoint stored
    EPOCH = "epoch"            # epoch increment (begin_epoch)
    PHASE = "phase"            # phase increment (message-driven bump)
    FAILURE = "failure"        # fail-stop kill of this rank
    SPE = "spe"                # SPE table uploaded to the recovery process
    RL_STEP = "rl_step"        # one recovery-line fix-point propagation step
    RL_FIXED = "rl_fixed"      # fix-point reached; recovery line broadcast
    ROLLBACK = "rollback"      # this rank rolled back (restore prescribed)
    RESTORE = "restore"        # checkpoint re-installed on this rank
    REPLAY = "replay"          # message re-emitted from the log/NonAck set
    RUNNING = "running"        # Blocked/RolledBack -> Running transition


class _ZeroTime:
    """Default time source before any clock is bound."""

    now = 0.0


_ZERO_TIME = _ZeroTime()


class _RankSink:
    """Hot-path append handle for one rank's record list.

    ``append`` is the list's *bound C method* and ``time`` the current
    time source (``time.now`` is the timestamp), so an instrumented
    component records with::

        sink.append((sink.time.now, kind, rank, ...))

    — no Python-level call into the recorder at all.
    """

    __slots__ = ("append", "time")

    def __init__(self, buf: list, time: Any):
        self.append = buf.append
        self.time = time


class FlightRecorder:
    """Per-rank record streams that keep every record."""

    __slots__ = ("_buffers", "_sinks", "_time_src")

    def __init__(self) -> None:
        self._buffers: dict[int, list[tuple]] = {}
        self._sinks: dict[int, _RankSink] = {}
        self._time_src: Any = _ZERO_TIME

    def bind_time_source(self, src: Any) -> None:
        """Bind an object exposing a ``.now`` attribute (the engine):
        recording timestamps with one attribute load.  The latest binding
        wins."""
        self._time_src = src
        for sink in self._sinks.values():
            sink.time = src

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def sink(self, rank: int) -> _RankSink:
        """The pre-resolved per-rank append handle (see :class:`_RankSink`).

        Components that record for one fixed rank resolve their sink once
        at construction; a handle lives as long as the recorder.
        """
        sink = self._sinks.get(rank)
        if sink is None:
            buf = self._buffers[rank] = []
            sink = self._sinks[rank] = _RankSink(buf, self._time_src)
        return sink

    def record(self, rank: int, kind: str, peer: int = -1, uid: int = 0,
               epoch_send: int = 0, epoch_recv: int = 0, phase: int = 0,
               cause_uid: int = 0, extra: Any = None) -> None:
        try:
            sink = self._sinks[rank]
        except KeyError:
            sink = self.sink(rank)
        sink.append((sink.time.now, kind, rank, peer, uid, epoch_send,
                     epoch_recv, phase, cause_uid, extra))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, rank: int | None = None,
                kind: str | None = None) -> Iterator[tuple]:
        """Records of one rank (buffer order == time order) or all ranks
        merged into global time order, optionally filtered by kind."""
        if rank is not None:
            source: Any = self._buffers.get(rank, ())
        else:
            merged: list[tuple] = []
            for r in sorted(self._buffers):
                merged.extend(self._buffers[r])
            merged.sort(key=lambda rec: rec[0])
            source = merged
        for rec in source:
            if kind is None or rec[1] == kind:
                yield rec

    def ranks(self) -> list[int]:
        return sorted(self._buffers)

    @property
    def total_records(self) -> int:
        return sum(len(b) for b in self._buffers.values())


def record_to_dict(rec: tuple) -> dict[str, Any]:
    """Expand one record tuple into a field-named mapping (export path)."""
    d = dict(zip(RECORD_FIELDS, rec))
    if d.get("extra") is None:
        del d["extra"]
    return d

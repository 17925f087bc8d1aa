"""Per-process protocol state — the local variables of the paper's Fig. 3.

Structures
----------
* ``date`` — in the paper, a per-process counter incremented on every send
  *and* receive.  We increment on sends only, making the date of a message
  its sender's send-sequence number.  Rationale: send-deterministic
  re-execution reproduces each process's *send* sequence exactly but not
  its reception interleavings, so send-only dates are reproducible across
  re-executions while send+receive dates are not — and every use of dates
  in the protocol (duplicate suppression, ``RPP``-vs-recovery-line orphan
  identification, last-orphan-of-phase detection) only compares a
  *sender's* dates with each other, for which the two definitions are
  order-isomorphic.  (The paper's own MPICH2 implementation likewise keys
  duplicate suppression on per-channel sequence numbers, Fig. 5.)
* ``epoch`` — incremented at every checkpoint; with clustering, clusters
  start at distinct epochs separated by 2 (Section V-E-3).
* ``phase`` — causality bookkeeping for recovery-time replay ordering.
* ``SPE`` (SentPerEpoch) — per own epoch: the date at the beginning of the
  epoch, and per peer the largest reception epoch among *non-logged*
  messages sent in that epoch.  Feeds the recovery-line fix-point.
* ``RPP`` (ReceivedPerPhase) — per own phase, per sender: the send date of
  the last message received in that phase.  Feeds orphan identification.
* ``non_ack`` — sent and not yet acknowledged messages (payload retained;
  doubles as an in-memory staging area for sender-based logging and covers
  in-flight-loss replay on recovery).
* ``logs`` — sender-based log of messages that crossed epochs upward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..simmpi.message import retention_copy

__all__ = [
    "LoggedMessage",
    "PendingAck",
    "EpochRecord",
    "ProtocolState",
]


@dataclass(slots=True)
class PendingAck:
    """A sent message awaiting acknowledgement (paper's ``NonAck`` entry).

    Slotted: a 4K-rank world holds one of these per in-flight message, so
    the per-record ``__dict__`` was the single largest protocol-state
    memory term (see docs/performance.md, "Scaling to thousands of ranks").
    """

    dst: int
    tag: int
    payload: Any
    size: int
    date: int          # sender's send-sequence number
    epoch_send: int
    phase_send: int
    #: envelope uid of the original emission (diagnostics only — replay
    #: creates fresh envelopes, but flight records key causality on this)
    uid: int = 0


@dataclass(slots=True)
class LoggedMessage:
    """A sender-logged message (paper's ``Logs`` entry, Fig. 3 line 37)."""

    dst: int
    tag: int
    payload: Any
    size: int
    date: int
    epoch_send: int
    phase_send: int
    epoch_recv: int
    uid: int = 0       # envelope uid of the original emission (diagnostics)


@dataclass(slots=True)
class EpochRecord:
    """One epoch's entry in ``SPE``.

    ``start_date`` is the process's date when the epoch began;
    ``recv_epoch`` maps ``peer -> max reception epoch`` over the non-logged
    messages this process sent to ``peer`` during the epoch.
    """

    start_date: int
    recv_epoch: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class ProtocolState:
    """Everything Fig. 3 keeps per application process.

    The subset saved in a checkpoint is produced by :meth:`checkpoint_copy`
    (the paper's line 42, plus ``non_ack`` — required so that messages lost
    in flight when *both* endpoints fail can still be replayed; the paper's
    multiple-failure argument relies on "all the information needed is
    included in the checkpoint").

    Hot-path layout.  The per-delivery and per-ack paths go through row
    caches and auxiliary indexes instead of nested dict walks:

    * ``record_rpp`` writes into a cached reference to the current phase's
      RPP row (revalidated only when ``phase`` moved);
    * ``record_spe`` keeps the last-touched epoch's :class:`EpochRecord`
      bound (acks overwhelmingly confirm sends of one epoch at a time);
    * ``non_ack`` and ``logs`` stay plain lists — tests, the chaos
      harness and garbage collection mutate them directly — but carry
      *derived* ``(dst, date)`` indexes used by the ack/replay paths.
      Every index read first checks that the list still has the length
      (and, for ``logs``, the identity) it had when the index was built
      and rebuilds it otherwise, so direct external mutation can never
      make an index lookup disagree with a fresh list scan.

    All cache/index fields are excluded from comparison and repr: they are
    derived state.  :meth:`checkpoint_copy` does not copy them — a copy
    starts with every cache and index unset, and the guards above rebuild
    them against the copy's own lists on first use, so a stored checkpoint
    carries no index and a copy can never alias its source through one.
    """

    date: int = 0
    epoch: int = 1
    phase: int = 1
    spe: dict[int, EpochRecord] = field(default_factory=dict)
    rpp: dict[int, dict[int, int]] = field(default_factory=dict)
    non_ack: list[PendingAck] = field(default_factory=list)
    logs: list[LoggedMessage] = field(default_factory=list)
    #: per sender: date (send-seq) of the last message delivered from them —
    #: the duplicate-suppression watermark
    last_date_from: dict[int, int] = field(default_factory=dict)
    #: messages delivered (protocol-level receive count, for stats)
    delivered_count: int = 0
    # --- derived row caches / indexes (see class docstring) -------------
    _rpp_phase: int = field(default=-1, repr=False, compare=False)
    _rpp_row: dict[int, int] | None = field(default=None, repr=False, compare=False)
    _spe_epoch: int = field(default=-1, repr=False, compare=False)
    _spe_rec: EpochRecord | None = field(default=None, repr=False, compare=False)
    #: (dst, date) -> FIFO bucket of matching non_ack entries
    _na_index: dict[tuple[int, int], list[PendingAck]] | None = field(
        default=None, repr=False, compare=False
    )
    _na_len: int = field(default=-1, repr=False, compare=False)
    #: (dst, date) -> first matching log entry (scan-equivalent: first wins)
    _lg_index: dict[tuple[int, int], LoggedMessage] | None = field(
        default=None, repr=False, compare=False
    )
    _lg_len: int = field(default=-1, repr=False, compare=False)
    _lg_list: list[LoggedMessage] | None = field(
        default=None, repr=False, compare=False
    )

    @staticmethod
    def initial(initial_epoch: int = 1) -> "ProtocolState":
        st = ProtocolState(epoch=initial_epoch)
        st.spe[initial_epoch] = EpochRecord(start_date=0)
        return st

    # ------------------------------------------------------------------
    # Bookkeeping used by the protocol engine
    # ------------------------------------------------------------------
    def next_date(self) -> int:
        self.date += 1
        return self.date

    def record_rpp(self, src: int, date: int) -> None:
        row = self._rpp_row
        if row is None or self._rpp_phase != self.phase:
            phase = self.phase
            row = self.rpp.get(phase)
            if row is None:
                row = self.rpp[phase] = {}
            self._rpp_row = row
            self._rpp_phase = phase
        row[src] = date
        prev = self.last_date_from.get(src, 0)
        if date <= prev:
            raise AssertionError(
                f"per-channel date monotonicity violated: {date} <= {prev} from {src}"
            )
        self.last_date_from[src] = date

    def record_spe(self, dst: int, epoch_send: int, epoch_recv: int) -> None:
        rec = self._spe_rec
        if rec is None or self._spe_epoch != epoch_send:
            rec = self.spe.get(epoch_send)
            if rec is None:
                # the epoch record predates GC or the restore point; recreate
                rec = self.spe[epoch_send] = EpochRecord(start_date=0)
            self._spe_rec = rec
            self._spe_epoch = epoch_send
        cells = rec.recv_epoch
        if epoch_recv > cells.get(dst, 0):
            cells[dst] = epoch_recv

    def begin_epoch(self) -> None:
        """Advance to the next epoch (at a checkpoint): Fig. 3 lines 43-45."""
        self.epoch += 1
        self.phase += 1
        self.spe[self.epoch] = EpochRecord(start_date=self.date)

    # ------------------------------------------------------------------
    # non_ack / logs auxiliary indexes
    # ------------------------------------------------------------------
    def _na_rebuild(self) -> dict[tuple[int, int], list[PendingAck]]:
        idx: dict[tuple[int, int], list[PendingAck]] = {}
        for pa in self.non_ack:
            key = (pa.dst, pa.date)
            bucket = idx.get(key)
            if bucket is None:
                idx[key] = [pa]
            else:
                bucket.append(pa)
        self._na_index = idx
        self._na_len = len(self.non_ack)
        return idx

    def na_append(self, pa: PendingAck) -> None:
        """Append to ``non_ack`` keeping the ``(dst, date)`` index in step."""
        idx = self._na_index
        if idx is None or self._na_len != len(self.non_ack):
            self.non_ack.append(pa)
            self._na_rebuild()
            return
        self.non_ack.append(pa)
        self._na_len += 1
        key = (pa.dst, pa.date)
        bucket = idx.get(key)
        if bucket is None:
            idx[key] = [pa]
        else:
            bucket.append(pa)

    def na_contains(self, dst: int, date: int) -> bool:
        idx = self._na_index
        if idx is None or self._na_len != len(self.non_ack):
            idx = self._na_rebuild()
        return (dst, date) in idx

    def na_pop(self, dst: int, date: int) -> PendingAck | None:
        """Remove and return the first ``non_ack`` entry matching
        ``(dst, date)`` — exactly what the historical front-to-back scan
        returned — or ``None``."""
        idx = self._na_index
        if idx is None or self._na_len != len(self.non_ack):
            idx = self._na_rebuild()
        key = (dst, date)
        bucket = idx.get(key)
        if bucket is None:
            return None
        pa = bucket.pop(0)
        if not bucket:
            del idx[key]
        non_ack = self.non_ack
        for i, x in enumerate(non_ack):
            if x is pa:
                non_ack.pop(i)
                break
        self._na_len = len(non_ack)
        return pa

    def _lg_rebuild(self) -> dict[tuple[int, int], LoggedMessage]:
        idx: dict[tuple[int, int], LoggedMessage] = {}
        for lm in self.logs:
            idx.setdefault((lm.dst, lm.date), lm)
        self._lg_index = idx
        self._lg_len = len(self.logs)
        self._lg_list = self.logs
        return idx

    def lg_append(self, lm: LoggedMessage) -> None:
        """Append to ``logs`` keeping the ``(dst, date)`` index in step."""
        idx = self._lg_index
        if (idx is None or self._lg_list is not self.logs
                or self._lg_len != len(self.logs)):
            self.logs.append(lm)
            self._lg_rebuild()
            return
        self.logs.append(lm)
        self._lg_len += 1
        idx.setdefault((lm.dst, lm.date), lm)

    def lg_find(self, dst: int, date: int) -> LoggedMessage | None:
        """First log entry matching ``(dst, date)``, or ``None`` — the
        index-backed equivalent of scanning ``logs`` front to back.  The
        controller's garbage collector and the chaos harness rebind or
        filter ``logs`` wholesale; the identity + length guard detects
        both and rebuilds."""
        idx = self._lg_index
        if (idx is None or self._lg_list is not self.logs
                or self._lg_len != len(self.logs)):
            idx = self._lg_rebuild()
        return idx.get((dst, date))

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_copy(self) -> "ProtocolState":
        """Independent copy of the protocol state — the one path for both
        checkpoint capture and restore.

        The shape is known statically, so this is a typed structural copy,
        not a generic object walk: fresh ``spe`` / ``rpp`` /
        ``last_date_from`` dicts (their leaves are ints) and fresh
        ``non_ack`` / ``logs`` records whose payloads follow the
        :func:`~repro.simmpi.message.retention_copy` rule — immutable
        shared, mutable copied, with one memo across the whole state so a
        payload object referenced by two records is one object in the copy
        too.  Row caches and ``(dst, date)`` indexes are left unset (see
        the class docstring)."""
        memo: dict[int, Any] = {}
        return ProtocolState(
            date=self.date,
            epoch=self.epoch,
            phase=self.phase,
            spe={
                e: EpochRecord(rec.start_date, dict(rec.recv_epoch))
                for e, rec in self.spe.items()
            },
            rpp={phase: dict(row) for phase, row in self.rpp.items()},
            non_ack=[
                PendingAck(pa.dst, pa.tag, retention_copy(pa.payload, memo),
                           pa.size, pa.date, pa.epoch_send, pa.phase_send,
                           pa.uid)
                for pa in self.non_ack
            ],
            logs=[
                LoggedMessage(lm.dst, lm.tag, retention_copy(lm.payload, memo),
                              lm.size, lm.date, lm.epoch_send, lm.phase_send,
                              lm.epoch_recv, lm.uid)
                for lm in self.logs
            ],
            last_date_from=dict(self.last_date_from),
            delivered_count=self.delivered_count,
        )

    def is_duplicate(self, src: int, date: int) -> bool:
        return date <= self.last_date_from.get(src, 0)

    # ------------------------------------------------------------------
    # Introspection helpers (analysis & tests)
    # ------------------------------------------------------------------
    def spe_export(self) -> dict[int, tuple[int, dict[int, int]]]:
        """Plain-data view of SPE: ``epoch -> (start_date, {peer: recv_epoch})``."""
        return {
            e: (rec.start_date, dict(rec.recv_epoch)) for e, rec in self.spe.items()
        }

    def logged_message_count(self) -> int:
        return len(self.logs)

    def logged_bytes(self) -> int:
        return sum(m.size for m in self.logs)

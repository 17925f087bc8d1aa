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

Both hold :class:`SentMessage` records: logging a message moves its
``non_ack`` record into ``logs`` with the reception epoch filled in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError
from ..simmpi.message import retention_copy

__all__ = [
    "SentMessage",
    "EpochRecord",
    "ProtocolState",
]

SPEExport = dict[int, tuple[int, dict[int, int]]]  # epoch -> (start_date, {peer: Er})


@dataclass(slots=True)
class SentMessage:
    """A sent message the sender keeps: a ``NonAck`` entry until its ack
    returns, then — if the ack came from a later epoch — the same record
    moves into ``Logs`` with ``epoch_recv`` set (Fig. 3 lines 34-39).

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
    #: reception epoch of a logged message (0 while only in NonAck)
    epoch_recv: int = 0


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

    ``non_ack`` and ``logs`` are insertion-ordered dicts keyed ``(dst,
    date)`` — a sender's date names one message, so a key never repeats
    and appending one twice raises :class:`~repro.errors.ProtocolError`.
    Only the methods below add or remove entries; iteration order
    (``.values()``) is append order, which replay and checkpoints rely on.

    ``record_rpp`` / ``record_spe`` go through row caches (the current
    phase's RPP row, the last-touched epoch's :class:`EpochRecord`); the
    cache fields are derived state, excluded from comparison and repr and
    left unset by :meth:`checkpoint_copy`.
    """

    date: int = 0
    epoch: int = 1
    phase: int = 1
    spe: dict[int, EpochRecord] = field(default_factory=dict)
    rpp: dict[int, dict[int, int]] = field(default_factory=dict)
    non_ack: dict[tuple[int, int], SentMessage] = field(default_factory=dict)
    logs: dict[tuple[int, int], SentMessage] = field(default_factory=dict)
    #: per sender: date (send-seq) of the last message delivered from them —
    #: the duplicate-suppression watermark
    last_date_from: dict[int, int] = field(default_factory=dict)
    # --- derived row caches (see class docstring) ------------------------
    _rpp_phase: int = field(default=-1, repr=False, compare=False)
    _rpp_row: dict[int, int] | None = field(default=None, repr=False, compare=False)
    _spe_epoch: int = field(default=-1, repr=False, compare=False)
    _spe_rec: EpochRecord | None = field(default=None, repr=False, compare=False)

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
    # non_ack / logs
    # ------------------------------------------------------------------
    def na_append(self, m: SentMessage) -> None:
        key = (m.dst, m.date)
        if key in self.non_ack:
            raise ProtocolError(f"NonAck already holds (dst, date) {key}")
        self.non_ack[key] = m

    def na_contains(self, dst: int, date: int) -> bool:
        return (dst, date) in self.non_ack

    def na_pop(self, dst: int, date: int) -> SentMessage | None:
        """Remove and return the ``non_ack`` entry for ``(dst, date)``, or
        ``None``."""
        return self.non_ack.pop((dst, date), None)

    def lg_append(self, m: SentMessage) -> None:
        key = (m.dst, m.date)
        if key in self.logs:
            raise ProtocolError(f"Logs already hold (dst, date) {key}")
        self.logs[key] = m

    def lg_find(self, dst: int, date: int) -> SentMessage | None:
        return self.logs.get((dst, date))

    def drop_logs_below(self, min_epoch: int) -> tuple[int, int]:
        """Garbage-collect log entries received before ``min_epoch``;
        returns ``(entries, payload bytes)`` removed."""
        stale = [key for key, lm in self.logs.items()
                 if lm.epoch_recv < min_epoch]
        nbytes = 0
        for key in stale:
            nbytes += self.logs.pop(key).size
        return len(stale), nbytes

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint_copy(self) -> "ProtocolState":
        """Independent copy of the protocol state — the one path for both
        checkpoint capture and restore.

        The shape is known statically, so this is a typed structural copy,
        not a generic object walk: fresh ``spe`` / ``last_date_from`` dicts
        and ``rpp`` rows (their leaves are ints) and fresh records per
        ``non_ack`` / ``logs`` entry (one record held by both becomes two)
        whose payloads follow the ``retention_copy`` rule — immutable
        shared, mutable copied, with one memo across the whole state so a
        payload object referenced by two records is one object in the copy
        too.  Row caches are left unset.  Only the RPP rows of closed
        phases (below ``phase``) are shared: :meth:`record_rpp` writes the
        current phase's row alone, ``phase`` never decreases, and a restore
        installs a copy of the image, which starts at the image's phase."""
        memo: dict[int, Any] = {}
        return ProtocolState(
            date=self.date,
            epoch=self.epoch,
            phase=self.phase,
            spe={
                e: EpochRecord(rec.start_date, dict(rec.recv_epoch))
                for e, rec in self.spe.items()
            },
            rpp={phase: row if phase < self.phase else dict(row)
                 for phase, row in self.rpp.items()},
            non_ack=_copy_records(self.non_ack, memo),
            logs=_copy_records(self.logs, memo),
            last_date_from=dict(self.last_date_from),
        )

    # ------------------------------------------------------------------
    # Introspection helpers (analysis & tests)
    # ------------------------------------------------------------------
    def spe_export(self, prev: SPEExport | None = None) -> SPEExport:
        """Plain-data view of SPE: ``epoch -> (start_date, {peer: recv_epoch})``,
        sharing every entry equal to ``prev``'s (an earlier export, which
        makes both read-only); without ``prev`` every entry is a copy."""
        prev = prev or {}
        out = {}
        for e, rec in self.spe.items():
            entry = prev.get(e)
            out[e] = (entry if entry == (rec.start_date, rec.recv_epoch)
                      else (rec.start_date, dict(rec.recv_epoch)))
        return out


def _copy_records(records: dict[tuple[int, int], SentMessage],
                  memo: dict[int, Any]) -> dict[tuple[int, int], SentMessage]:
    """Fresh records in ``records``' order, payloads copied via ``memo``."""
    return {
        key: SentMessage(m.dst, m.tag, retention_copy(m.payload, memo),
                         m.size, m.date, m.epoch_send, m.phase_send, m.uid,
                         m.epoch_recv)
        for key, m in records.items()
    }

"""The application-process protocol — the paper's Fig. 3 algorithm.

One :class:`SDProtocol` instance attaches to each simulated rank as a
:class:`~repro.simmpi.process.ProtocolHook`.  It implements, during
failure-free execution:

* date/epoch/phase bookkeeping on every send, delivery and checkpoint
  (Fig. 3 lines 13-28, 41-45);
* message acknowledgement and the epoch-crossing logging rule — a message
  sent in epoch ``Es`` and acknowledged from epoch ``Er > Es`` moves from
  ``NonAck`` into the sender-based log (lines 34-39);
* ``SPE``/``RPP`` dependency tracking used by recovery.

And during recovery:

* rollback notifications, SPE upload, recovery-line application (lines
  47-68);
* duplicate suppression by sender date, with last-orphan-of-phase
  detection and ``NoOrphanPhase`` countdown (lines 19-20, 29-32);
* ``ReadyPhase``-gated replay of logged and unacknowledged messages, both
  kinds from one per-phase queue, and the ``Blocked``/``RolledBack`` →
  ``Running`` status transitions (lines 70-74).

The process-facing gating (a non-``Running`` process must not emit
application messages, line 14) is realised by pausing the simulated
process (the controller pauses it, :meth:`SDProtocol.set_running`
releases it); replayed messages bypass the application entirely (they are
sent from the log by the protocol layer).
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Any, TYPE_CHECKING

from ..errors import ProtocolError
from ..lint.sanitize import sanitizer_for
from ..obs.flight import FlightKind
from ..simmpi.message import (CONTROL_TAG_BASE, Envelope, payload_nbytes,
                              retention_copy)
from ..simmpi.trace import envelope_digest
from ..simmpi.process import ProtocolHook
from .state import ProtocolState, SentMessage

if TYPE_CHECKING:  # pragma: no cover
    from .controller import FTController

__all__ = ["Status", "SDProtocol", "CTL"]

# Hot-path flight-record kinds pre-resolved to module constants: the
# send/deliver/ack paths record thousands of these per run and a global
# load beats the class-attribute walk.
_FK_SEND = FlightKind.SEND
_FK_SUPPRESS = FlightKind.SUPPRESS
_FK_DELIVER = FlightKind.DELIVER
_FK_PHASE = FlightKind.PHASE
_FK_ACK = FlightKind.ACK
_FK_LOG = FlightKind.LOG
_FK_CONFIRM = FlightKind.CONFIRM

#: sort key of a replay entry ``(date, message)``: a date names one
#: message, and a recovery line queues each message once
_by_date = itemgetter(0)


class CTL:
    """Control-plane tags (all below :data:`CONTROL_TAG_BASE`)."""

    ROLLBACK = CONTROL_TAG_BASE - 2
    SPE_UPLOAD = CONTROL_TAG_BASE - 3
    RECOVERY_LINE = CONTROL_TAG_BASE - 4
    ORPHAN_NOTIF = CONTROL_TAG_BASE - 5
    NO_ORPHAN = CONTROL_TAG_BASE - 6
    READY_PHASE = CONTROL_TAG_BASE - 7


#: wire size of one eager acknowledgement record.  ``payload_nbytes``
#: sizes a dict from its keys plus 8 bytes per scalar value, so every
#: record :meth:`SDProtocol._send_ack` builds sizes the same — measured
#: once here instead of re-walked per ack.
_ACK_RECORD_NBYTES = payload_nbytes(
    {"date": 0, "epoch_send": 0, "epoch_recv": 0, "dup": False}
)


class Status(enum.Enum):
    """Process status (Fig. 3 line 1)."""

    RUNNING = "Running"
    BLOCKED = "Blocked"
    ROLLED_BACK = "RolledBack"


class SDProtocol(ProtocolHook):
    """Per-rank protocol engine for send-deterministic uncoordinated
    checkpointing with partial message logging."""

    # --- recovery-round containers: these empty class-level defaults are
    # only read; a recovery line assigns each instance its own ----------
    #: last expected orphans, inverted: (src, date) -> FIFO bucket of the
    #: phases expecting that message as their last orphan from src.  The
    #: paper's OrphCount of a phase is the number of its pairs still here.
    _orph_lookup: dict[tuple[int, int], list[int]] = {}
    #: phase -> [(date, message)] to replay when the phase becomes ready:
    #: log and NonAck entries (in-flight loss cover), each message once
    replay: dict[int, list[tuple[int, SentMessage]]] = {}

    def __init__(self, rank: int, controller: "FTController"):
        self.rank = rank
        self.controller = controller
        self.state = ProtocolState.initial(controller.config.initial_epoch(rank))
        self.status = Status.RUNNING
        self.schedule = controller.config.make_schedule(rank)
        # --- recovery-round scratch state ------------------------------
        self.round = 0
        self._spe_uploaded_round = 0
        #: phase this process was registered under in the current recovery
        #: round (None outside recovery) — see :meth:`_on_ready_phase`
        self._reported_phase: int | None = None
        #: monotone reception knowledge: dst -> {send date -> max reception
        #: epoch ever acknowledged}.  Lives OUTSIDE the checkpointed state:
        #: a rollback restores pre-refresh log/SPE entries, and without
        #: this table a later recovery would trust their stale reception
        #: epochs (see DESIGN.md §7.2 — reception epochs are branch-local,
        #: send dates are branch-invariant, and lifting by the observed
        #: maximum is always safe: over-replay is absorbed by duplicate
        #: suppression, over-rollback by re-execution).
        self._ack_obs: dict[int, dict[int, int]] = {}
        # --- statistics -------------------------------------------------
        self.messages_logged = 0
        self.bytes_logged = 0
        self.messages_suppressed = 0
        self.messages_confirmed = 0
        self.messages_replayed = 0
        self.acks_sent = 0
        obs = self.obs = controller.obs
        if obs is not None:
            # per-event series read the statistics above (each duplicate
            # ack answers one suppression); cold paths bump cells
            obs.derive(self, "protocol.messages_suppressed",
                       lambda: [((), self.messages_suppressed)])
            obs.derive(self, "protocol.acks_sent", lambda: [
                ((False,), self.acks_sent - self.messages_suppressed),
                ((True,), self.messages_suppressed)], ("dup",))
            self._logged_counter = obs.counter("protocol.messages_logged", ("epoch",))
            self._log_bytes_counter = obs.counter("protocol.log_bytes", ("epoch",))
            self._log_cells: dict[int, tuple[Any, Any]] = {}
            obs.derive(self, "protocol.messages_confirmed", lambda: [((), self.messages_confirmed)])
            obs.derive(self, "protocol.messages_replayed", lambda: [((), self.messages_replayed)])
        # flight recorder cached separately: disabled path is one identity
        # comparison even when metrics are on but the recorder is not
        self.flight = obs.flight if obs is not None else None
        # pre-resolved per-rank flight sink: the send/deliver/ack hot paths
        # append record tuples in RECORD_FIELDS order straight onto the
        # rank list's bound C append — no recorder call per record (cold
        # paths keep the record() API)
        self._flight_sink = (
            self.flight.sink(self.rank) if self.flight is not None else None
        )
        # invariant sanitizer, same cached pattern: None when REPRO_SANITIZE
        # is off, so the hot path pays one identity comparison
        self.san = sanitizer_for(obs)

    # ------------------------------------------------------------------
    # Control-plane plumbing
    # ------------------------------------------------------------------
    def _ctl(self, dst: int, tag: int, payload: dict[str, Any]) -> None:
        env = Envelope(src=self.rank, dst=dst, tag=tag, payload=payload,
                       uid=self.world.next_uid())
        self.world.transmit_control(env)

    def _ctl_to_recovery(self, tag: int, payload: dict[str, Any]) -> None:
        self._ctl(self.controller.recovery_rank, tag, payload)

    # ------------------------------------------------------------------
    # Failure-free send path (Fig. 3 lines 13-17)
    # ------------------------------------------------------------------
    def on_app_send(self, env: Envelope) -> None:
        st = self.state
        date = st.next_date()
        meta = env.meta
        meta["date"] = date
        meta["epoch"] = st.epoch
        meta["phase"] = st.phase
        if self.san is not None:
            # send-determinism witness: a recovery re-execution reaches
            # this same path with the same restored date counter, so it
            # must reproduce the original (dst, tag, size, payload)
            self.san.send_witness(self.rank, date, env.dst, env.tag,
                                  env.size, envelope_digest(env))
        # copy-on-log: the NonAck entry is the staging area of the
        # sender-based log, so this is where a mutable payload gets its one
        # retention copy (immutable payloads are shared — zero-copy)
        payload = (
            retention_copy(env.payload)
            if self.controller.config.retain_payloads
            else None
        )
        st.na_append(SentMessage(env.dst, env.tag, payload, env.size, date,
                                 st.epoch, st.phase, env.uid))
        sink = self._flight_sink
        if sink is not None:
            sink.append((sink.time.now, _FK_SEND, self.rank, env.dst,
                         env.uid, st.epoch, 0, st.phase, 0, date))

    # ------------------------------------------------------------------
    # Receive path (Fig. 3 lines 19-32)
    # ------------------------------------------------------------------
    def on_message(self, env: Envelope) -> bool:
        st = self.state
        meta = env.meta
        date = meta["date"]
        # a date at or below the channel's watermark is a duplicate
        if date <= st.last_date_from.get(env.src, 0):
            # A re-emission during recovery of a message this process still
            # holds the effects of.  Check whether it is the last expected
            # orphan of one of our phases (lines 29-32).
            self.messages_suppressed += 1
            sink = self._flight_sink
            if sink is not None:
                sink.append((sink.time.now, _FK_SUPPRESS, self.rank,
                             env.src, env.uid, meta["epoch"], st.epoch, 0,
                             0, date))
            self._orphan_countdown(env.src, date)
            self._send_ack(env, duplicate=True)
            return False
        # Fresh message: phase propagation (lines 21-24).  A message coming
        # from an older epoch than ours was (or will be) logged by its
        # sender — the causality path is broken, bump past its phase.
        msg_phase = meta["phase"]
        old_phase = st.phase
        if meta["epoch"] < st.epoch:
            st.phase = max(st.phase, msg_phase + 1)
        else:
            st.phase = max(st.phase, msg_phase)
        st.record_rpp(env.src, date)
        sink = self._flight_sink
        if sink is not None:
            ts = sink.time.now
            sink.append((ts, _FK_DELIVER, self.rank, env.src, env.uid,
                         meta["epoch"], st.epoch, st.phase, 0, date))
            if st.phase > old_phase:
                # message-driven phase bump: the delivered uid is the cause
                sink.append((ts, _FK_PHASE, self.rank, env.src, 0,
                             st.epoch, 0, st.phase, env.uid, None))
        self._send_ack(env, duplicate=False)
        return True

    def _send_ack(self, env: Envelope, duplicate: bool) -> None:
        self.acks_sent += 1
        meta = env.meta
        record = {
            "date": meta["date"],
            "epoch_send": meta["epoch"],
            "epoch_recv": self.state.epoch,
            "dup": duplicate,
        }
        sink = self._flight_sink
        if sink is not None:
            sink.append((sink.time.now, _FK_ACK, self.rank, env.src,
                         env.uid, meta["epoch"], self.state.epoch, 0, 0,
                         ("dup" if duplicate else None)))
        self.world.network.transmit_ack(self.rank, env.src, record, _ACK_RECORD_NBYTES)

    def detach(self) -> None:
        super().detach()
        if self.obs is not None:
            self.obs.settle(self)

    def _orphan_countdown(self, src: int, date: int) -> None:
        # One NoOrphan notification per drained (phase, sender) pair: the
        # recovery process aggregates per-sender so it can remap stale
        # phase buckets recorded in an abandoned execution branch (see
        # RecoveryProcess._aggregate_notifications).  A bucket holds its
        # phases in RPP order, so popping its front drains pairs in the
        # order a scan over RPP would match them.
        key = (src, date)
        bucket = self._orph_lookup.get(key)
        if not bucket:
            return
        phase = bucket.pop(0)
        if not bucket:
            del self._orph_lookup[key]
        self._ctl_to_recovery(
            CTL.NO_ORPHAN,
            {"phase": phase, "sender": src, "round": self.round},
        )

    # ------------------------------------------------------------------
    # Acknowledgement handling → logging decision (Fig. 3 lines 34-39)
    # ------------------------------------------------------------------
    def on_ack(self, src: int, payload: dict[str, Any]) -> None:
        st = self.state
        date = payload["date"]
        epoch_recv = payload["epoch_recv"]
        obs = self._ack_obs.get(src)
        if obs is None:
            obs = self._ack_obs[src] = {}
        if epoch_recv > obs.get(date, 0):
            obs[date] = epoch_recv
        entry = st.na_pop(src, date)
        if entry is None:
            # No NonAck record: either the send was rolled away with a
            # restored checkpoint, or this acknowledges a log/duplicate
            # re-delivery.  A re-delivery in a *new* execution branch can
            # land in a later epoch than the abandoned branch's reception —
            # refresh the bookkeeping monotonically (a too-high reception
            # epoch only over-replays/over-rolls-back, never loses data).
            lm = st.lg_find(src, date)
            if lm is not None:
                lm.epoch_recv = max(lm.epoch_recv, epoch_recv)
                return
            epoch_send = payload["epoch_send"]
            if not (self.controller.config.log_cross_epoch
                    and epoch_send < epoch_recv):
                st.record_spe(src, epoch_send, epoch_recv)
            return
        if self.controller.config.log_cross_epoch and entry.epoch_send < epoch_recv:
            lm = st.lg_find(entry.dst, entry.date)
            if lm is not None:
                # replayed NonAck entry re-acked: refresh, don't duplicate
                lm.epoch_recv = max(lm.epoch_recv, epoch_recv)
                return
            # the NonAck record itself becomes the log entry
            entry.epoch_recv = epoch_recv
            st.lg_append(entry)
            self.messages_logged += 1
            self.bytes_logged += entry.size
            if self.obs is not None:
                epoch = entry.epoch_send
                cells = self._log_cells.get(epoch)
                if cells is None:
                    cells = self._log_cells[epoch] = (
                        self._logged_counter.slot((epoch,)),
                        self._log_bytes_counter.slot((epoch,)),
                    )
                cells[0].n += 1
                cells[1].n += entry.size
            sink = self._flight_sink
            if sink is not None:
                sink.append((sink.time.now, _FK_LOG, self.rank, entry.dst,
                             entry.uid, entry.epoch_send, epoch_recv,
                             entry.phase_send, 0, None))
        else:
            st.record_spe(entry.dst, entry.epoch_send, epoch_recv)
            self.messages_confirmed += 1
            sink = self._flight_sink
            if sink is not None:
                # the ack resolved without logging — this is a NON-LOGGED
                # message, the raw material of the recovery explainer
                sink.append((sink.time.now, _FK_CONFIRM, self.rank,
                             entry.dst, entry.uid, entry.epoch_send,
                             epoch_recv, entry.phase_send, 0, None))

    # ------------------------------------------------------------------
    # Checkpointing (Fig. 3 lines 41-45)
    # ------------------------------------------------------------------
    def checkpoint_due(self) -> bool:
        return self.schedule.due(self.world.engine.now)

    def on_checkpoint(self) -> float:
        self.schedule.mark_taken(self.world.engine.now)
        if self.flight is not None:
            self.flight.record(self.rank, FlightKind.CHECKPOINT,
                               epoch_send=self.state.epoch,
                               phase=self.state.phase)
        self.state.begin_epoch()
        if self.flight is not None:
            self.flight.record(self.rank, FlightKind.EPOCH,
                               epoch_send=self.state.epoch,
                               phase=self.state.phase)
        self.controller.store_checkpoint(self.rank)
        return self.controller.checkpoint_write_stall()

    # ------------------------------------------------------------------
    # Recovery: notifications and replay (Fig. 3 lines 47-74)
    # ------------------------------------------------------------------
    def on_control(self, env: Envelope) -> None:
        tag, payload = env.tag, env.payload
        if tag == CTL.ROLLBACK:
            self._on_rollback_notice(payload)
        elif tag == CTL.RECOVERY_LINE:
            self._on_recovery_line(payload)
        elif tag == CTL.READY_PHASE:
            self._on_ready_phase(payload)
        else:
            raise ProtocolError(f"rank {self.rank}: unexpected control tag {tag}")

    def begin_recovery_as_failed(self, round_no: int) -> None:
        """Called by the controller after this (failed) rank was restored
        from its latest checkpoint: broadcast Rollback and upload SPE
        (Fig. 3 lines 47-52)."""
        self.round = round_no
        self.status = Status.ROLLED_BACK
        notice = {"epoch": self.state.epoch, "date": self.state.date, "round": round_no}
        for peer in range(self.controller.nprocs):
            if peer != self.rank:
                self._ctl(peer, CTL.ROLLBACK, dict(notice))
        self._ctl_to_recovery(CTL.ROLLBACK, notice)
        self._upload_spe(round_no)

    def _on_rollback_notice(self, payload: dict[str, Any]) -> None:
        round_no = payload["round"]
        if round_no > self.round:
            self.round = round_no
        if self.status is Status.RUNNING:
            # the controller paused us when it detected the failure
            self.status = Status.BLOCKED
        self._upload_spe(round_no)

    def _upload_spe(self, round_no: int) -> None:
        if self._spe_uploaded_round >= round_no:
            return  # one upload per recovery round (lines 54-56)
        self._spe_uploaded_round = round_no
        if self.flight is not None:
            self.flight.record(self.rank, FlightKind.SPE,
                               peer=self.controller.recovery_rank,
                               epoch_send=self.state.epoch,
                               phase=self.state.phase, extra=round_no)
        self._ctl_to_recovery(
            CTL.SPE_UPLOAD,
            {
                "spe": self.state.spe_export(),
                "epoch": self.state.epoch,
                "date": self.state.date,
                "round": round_no,
            },
        )

    def _on_recovery_line(self, payload: dict[str, Any]) -> None:
        """Fig. 3 lines 58-68: maybe roll back further, then derive orphan
        expectations and replay lists and notify the recovery process."""
        rl: dict[int, tuple[int, int]] = payload["rl"]
        round_no = payload["round"]
        mine = rl.get(self.rank)
        # A recovery-line entry at our *current* epoch still demands a
        # rollback (restore the checkpoint that begins it and re-execute
        # the interval) — unless we are a freshly restored failed process
        # already sitting exactly at that point.
        needs_restore = mine is not None and (
            mine[0] < self.state.epoch
            or (self.status is not Status.ROLLED_BACK and mine[0] == self.state.epoch)
        )
        if needs_restore:
            if self.flight is not None:
                self.flight.record(self.rank, FlightKind.ROLLBACK,
                                   epoch_send=mine[0], extra=round_no)
            # Roll back to the prescribed epoch (controller swaps program,
            # protocol state and library queues from the checkpoint store).
            self.controller.restore_rank(self.rank, mine[0])
            self.status = Status.ROLLED_BACK
            self.round = round_no
        st = self.state
        # Orphan expectations (lines 62-64): receptions recorded after the
        # sender's restart point are orphans; the last one per (phase,
        # sender) is identified by its date.
        self._orph_lookup = {}
        for phase, per_src in st.rpp.items():
            for src, date in per_src.items():
                if src in rl and date > rl[src][1]:
                    self._orph_lookup.setdefault((src, date), []).append(phase)
        # Replay lists (lines 65-67): logged messages whose reception was
        # rolled back, plus unacknowledged messages to rolled-back peers
        # (covers messages lost in flight with the failed process) whose
        # log entry is not queued already: a message goes out once.
        #
        # Phase lifting: entries toward one destination may carry phases
        # recorded in different execution branches, which can invert the
        # channel's date order (a later message in an earlier phase).  The
        # receiver matches by (source, tag) FIFO, so per-channel emission
        # MUST follow date order; we lift each entry's replay phase to the
        # running maximum along its channel's date order (delaying a replay
        # is always safe; the gating only ever requires "not before").
        per_dst: dict[int, list[tuple[int, SentMessage]]] = {}
        for lm in st.logs.values():
            if lm.dst in rl and lm.epoch_recv >= rl[lm.dst][0]:
                per_dst.setdefault(lm.dst, []).append((lm.date, lm))
        for key, pa in st.non_ack.items():
            if pa.dst in rl:
                lm = st.logs.get(key)
                if lm is None or lm.epoch_recv < rl[pa.dst][0]:
                    per_dst.setdefault(pa.dst, []).append((pa.date, pa))
        self.replay = {}
        for entries in per_dst.values():
            entries.sort(key=_by_date)
            running = 0
            for entry in entries:
                running = max(running, entry[1].phase_send)
                self.replay.setdefault(running, []).append(entry)
        # Freeze the phase we are registered under: fresh messages from
        # already-released senders may legitimately bump our phase before
        # our ReadyPhase arrives, so the release test below compares against
        # the *reported* phase, not the live one.
        self._reported_phase = st.phase
        orph_entries = sorted(
            (phase, src) for (src, _date), phases in self._orph_lookup.items()
            for phase in phases)
        self._ctl_to_recovery(
            CTL.ORPHAN_NOTIF,
            {
                "status": self.status.value,
                "phase": st.phase,
                "orph_entries": orph_entries,
                "log_phases": sorted(self.replay),
                "round": round_no,
            },
        )

    def _on_ready_phase(self, payload: dict[str, Any]) -> None:
        """Fig. 3 lines 70-74: replay this phase's logged/unacked messages
        and unblock if the status condition is met."""
        phase = payload["phase"]
        self._emit_replays(self.replay.pop(phase, []))
        reported = self._reported_phase
        if reported is None:
            return
        if (self.status is Status.ROLLED_BACK and phase >= reported - 1) or (
            self.status is Status.BLOCKED and phase >= reported
        ):
            self._reported_phase = None
            self.set_running()

    def set_running(self) -> None:
        self.status = Status.RUNNING
        if self.flight is not None:
            self.flight.record(self.rank, FlightKind.RUNNING,
                               epoch_send=self.state.epoch,
                               phase=self.state.phase)
        self.proc.unpause()
        if not self.replay:
            self.controller.protocol_settled()

    def flush_replays(self) -> int:
        """Emit every pending replay immediately, in phase order.

        Stall-breaker for cross-branch phase skew (see DESIGN.md §7.3 and the
        controller's watchdog): after earlier recoveries, a replay can be
        registered at a phase above an orphan whose drain needs this very
        replay's receiver to make progress.  Flushing is ordering-safe: a
        process only runs once its replay lists are empty, so these
        messages always precede the sender's future traffic per channel,
        and within the flush phases go out in ascending order.
        """
        entries = [e for bucket in self.replay.values() for e in bucket]
        self.replay = {}
        self._emit_replays(entries)
        return len(entries)

    def _emit_replays(self, entries: list[tuple[int, SentMessage]]) -> None:
        """Re-emit log entries / pending acks in date order: dates are this
        sender's send-sequence numbers, so date order IS the original
        per-channel emission order.  ``entries`` left the replay queue."""
        for _date, m in sorted(entries, key=_by_date):
            self._replay(m)
        if entries and not self.replay and self.status is Status.RUNNING:
            self.controller.protocol_settled()

    def _replay(self, m: SentMessage) -> None:
        """Emit the logged or unacknowledged message ``m`` without
        re-executing application code.

        The original metadata is carried so the receiver's duplicate
        detection and phase machinery behave exactly as for a re-executed
        message.  EVERY replay re-enters the NonAck set until its (fresh or
        duplicate) acknowledgement returns: a replay is an unacknowledged
        send, and if the next failure purges it in flight the NonAck
        coverage of the following round re-sends it — a log entry alone
        would not (its recorded reception epoch belongs to the branch that
        never received this copy; DESIGN.md §7.2).

        The wire carries a copy of the retained payload, which the receiver
        owns like any delivered buffer; the NonAck entry keeps the
        retained object itself."""
        env = Envelope(src=self.rank, dst=m.dst, tag=m.tag,
                       payload=retention_copy(m.payload), size=m.size,
                       uid=self.world.next_uid())
        env.meta["date"] = m.date
        env.meta["epoch"] = m.epoch_send
        env.meta["phase"] = m.phase_send
        env.meta["replayed"] = True
        if self.san is not None:
            # log replays must re-emit the witnessed message; a payload the
            # log did not retain (retain_payloads=False) checks shape only
            self.san.send_witness(
                self.rank, m.date, m.dst, m.tag, m.size,
                envelope_digest(env) if m.payload is not None else None,
            )
        if not self.state.na_contains(m.dst, m.date):
            self.state.na_append(m)
        self.messages_replayed += 1
        if self.flight is not None:
            # uid is the fresh emission; cause_uid links back to the
            # original send this replay re-executes
            self.flight.record(self.rank, FlightKind.REPLAY, peer=m.dst,
                               uid=env.uid, epoch_send=m.epoch_send,
                               phase=m.phase_send, cause_uid=m.uid,
                               extra=m.date)
        self.world.transmit_app(env)

    # ------------------------------------------------------------------
    def adopt_state(self, state: ProtocolState) -> None:
        """Install a restored protocol state (controller-driven rollback).

        Restored log entries and SPE cells carry the reception epochs known
        *when the checkpoint was taken*; re-deliveries after it (e.g. during
        an earlier recovery) may have landed in later epochs.  Lift them
        with the monotone observation table so the next recovery's replay
        filter and fix-point see current knowledge (DESIGN.md §7.2)."""
        obs = self._ack_obs
        for lm in state.logs.values():
            lm.epoch_recv = max(lm.epoch_recv, obs.get(lm.dst, {}).get(lm.date, 0))
        # SPE cells have no dates; map observations onto the restored
        # branch's epoch date spans (sends of epoch e carry dates in
        # (start_date(e), start_date(next e)]), capped at the sending
        # epoch: SPE must keep the non-logged invariant Es >= Er (the
        # garbage-collection bound "nobody rolls below the smallest current
        # epoch" depends on it); re-receptions beyond it are the
        # log/NonAck's business
        ordered = sorted(state.spe)
        for epoch, nxt in zip(ordered, ordered[1:] + [None]):
            rec = state.spe[epoch]
            lo = rec.start_date
            hi = float("inf") if nxt is None else state.spe[nxt].start_date
            cells = rec.recv_epoch
            for dst in cells:
                best = min(max((er for d, er in obs.get(dst, {}).items()
                                if lo < d <= hi), default=0), epoch)
                if best > cells[dst]:
                    cells[dst] = best
        self.state = state

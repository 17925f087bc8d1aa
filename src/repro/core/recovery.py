"""The dedicated recovery process — the paper's Fig. 4 algorithm.

The recovery process is a control-plane entity (it is *not* one of the
application ranks; the controller attaches it to the network under a
pseudo-rank) that, per recovery round:

1. collects every process's ``SPE`` table into the dependency table;
2. runs the recovery-line fix-point (Fig. 4 lines 9-16): whenever process
   ``k`` sent a *non-logged* message from epoch ``Es`` that ``j`` received
   in an epoch at or above ``j``'s restart epoch, ``k`` must restart at or
   below ``Es`` — iterated to a fixed point;
3. broadcasts the recovery line;
4. collects the per-process orphan notifications, then runs
   ``NotifyPhases`` (lines 38-41): a phase ``p`` becomes *ready* once no
   phase ``p' <= p`` still has outstanding orphan messages; ``ReadyPhase``
   notifications are emitted in increasing phase order.

The paper computes the date associated with a rollback epoch from the
``SPE`` table (``SPE[e].date`` is the process date at the beginning of
``e``), which is exactly what :func:`compute_recovery_line` does here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..errors import ProtocolError
from ..lint.sanitize import sanitizer_for
from ..obs.flight import FlightKind
from ..simmpi.message import Envelope
from .protocol import CTL
from .state import SPEExport

if TYPE_CHECKING:  # pragma: no cover
    from .controller import FTController

__all__ = [
    "compute_recovery_line",
    "RecoveryProcess",
    "RecoveryReport",
]


class RecoveryLineSolver:
    """Worklist implementation of the Fig. 4 fix-point.

    The naive formulation rescans every SPE entry per iteration.  This
    solver builds, once per set of tables, a reverse index ``receiver ->
    [(sender, epoch_send, epoch_recv)]`` and then propagates rollbacks
    with a worklist: when a rank's restart epoch drops, only *its* inbound
    entries are rescanned.  One solver serves many failure hypotheses over
    the same tables (the domino analysis, the sanitizer's closure check;
    Table I uses the all-failures closure in ``analysis/rollback.py``
    instead).
    """

    def __init__(self, spe_tables: dict[int, SPEExport]):
        self.spe_tables = spe_tables
        self.inbound: dict[int, list[tuple[int, int, int]]] = {}
        for k, spe in spe_tables.items():
            for epoch_send, (_start, per_peer) in spe.items():
                for j, epoch_recv in per_peer.items():
                    self.inbound.setdefault(j, []).append(
                        (k, epoch_send, epoch_recv)
                    )

    def solve(
        self,
        failed_restarts: dict[int, int],
        on_step: Callable[[int, int, int, int, int], None] | None = None,
    ) -> dict[int, tuple[int, int]]:
        """Run the fix-point.  ``on_step``, when given, is invoked as
        ``on_step(k, epoch_send, j, epoch_recv, bound)`` every time rank
        ``k``'s restart epoch is lowered because receiver ``j`` (bounded at
        ``bound``) re-executes a non-logged reception — the raw material of
        :mod:`repro.obs.explain` and the RL_STEP flight records.  The
        callback never alters the result."""
        rl: dict[int, int] = dict(failed_restarts)
        work = list(failed_restarts)
        while work:
            j = work.pop()
            bound = rl[j]
            for k, epoch_send, epoch_recv in self.inbound.get(j, ()):
                if epoch_recv < bound:
                    continue
                # j re-executes the reception: k must re-send, so k
                # restarts at or below the sending epoch
                cur = rl.get(k)
                if cur is None or epoch_send < cur:
                    rl[k] = epoch_send
                    work.append(k)
                    if on_step is not None:
                        on_step(k, epoch_send, j, epoch_recv, bound)
        return self._finish(rl)

    def _finish(self, rl: dict[int, int]) -> dict[int, tuple[int, int]]:
        """Resolve restart epochs to dates, in rank-sorted order."""
        spe_tables = self.spe_tables
        out: dict[int, tuple[int, int]] = {}
        for rank in sorted(rl):
            epoch = rl[rank]
            spe = spe_tables.get(rank, {})
            if epoch not in spe:
                raise ProtocolError(
                    f"recovery line needs epoch {epoch} of rank {rank} but its "
                    f"SPE has no such epoch (available: {sorted(spe)})"
                )
            out[rank] = (epoch, spe[epoch][0])
        return out


def compute_recovery_line(
    spe_tables: dict[int, SPEExport],
    failed_restarts: dict[int, int],
    on_step: Callable[[int, int, int, int, int], None] | None = None,
) -> dict[int, tuple[int, int]]:
    """Fix-point recovery-line computation (Fig. 4 lines 6-16).

    Parameters
    ----------
    spe_tables:
        ``rank -> SPE export`` for every application process.
    failed_restarts:
        ``rank -> restart epoch`` for the failed processes (their latest
        checkpoint epoch).

    Returns
    -------
    ``rank -> (epoch, date)`` for every process that must roll back; ranks
    absent from the mapping keep running from their current state.
    """
    return RecoveryLineSolver(spe_tables).solve(failed_restarts, on_step=on_step)


@dataclass
class RecoveryReport:
    """Per-round statistics surfaced to experiments and tests."""

    round_no: int
    failed: list[int]
    recovery_line: dict[int, tuple[int, int]] = field(default_factory=dict)
    rolled_back: list[int] = field(default_factory=list)
    phases_notified: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: inputs of the fix-point this round solved — kept so the recovery
    #: explainer (repro.obs.explain) can replay it offline
    failed_restarts: dict[int, int] = field(default_factory=dict)
    spe_tables: dict[int, SPEExport] = field(default_factory=dict)


class RecoveryProcess:
    """Message-driven implementation of the Fig. 4 recovery coordinator."""

    def __init__(self, controller: "FTController"):
        self.controller = controller
        self.obs = controller.obs
        self.flight = self.obs.flight if self.obs is not None else None
        self.san = sanitizer_for(self.obs)
        self.nprocs = controller.nprocs
        self.active = False
        self.round = 0
        self.report: RecoveryReport | None = None
        self._reset_round_state()

    def _reset_round_state(self) -> None:
        self._rollback_notices: dict[int, tuple[int, int]] = {}
        self._spe_tables: dict[int, SPEExport] = {}
        self._current_epochs: dict[int, int] = {}
        self._rl: dict[int, tuple[int, int]] = {}
        self._rl_sent = False
        self._orphan_notifs: dict[int, dict[str, Any]] = {}
        self._nb_orphan: dict[int, int] = {}
        #: (receiver, recorded phase, sender) -> effective (remapped) phase
        self._orphan_eff_phase: dict[tuple[int, int, int], int] = {}
        self._max_phase = 0
        self._next_ready = 0
        self._expected_failed: set[int] = set()

    # ------------------------------------------------------------------
    def begin_round(self, round_no: int, failed: list[int], now: float) -> None:
        if self.active:
            raise ProtocolError("recovery round started while one is active")
        self.active = True
        self.round = round_no
        self._reset_round_state()
        self._expected_failed = set(failed)
        self.report = RecoveryReport(round_no=round_no, failed=sorted(failed),
                                     started_at=now)

    # ------------------------------------------------------------------
    # Inbound control messages
    # ------------------------------------------------------------------
    def receive(self, env: Envelope) -> None:
        payload = env.payload
        if payload.get("round") != self.round or not self.active:
            return  # stale traffic from a previous round
        if env.tag == CTL.ROLLBACK:
            self._rollback_notices[env.src] = (payload["epoch"], payload["date"])
            self._maybe_compute_line()
        elif env.tag == CTL.SPE_UPLOAD:
            if self.san is not None:
                self.san.spe_table_ordered(env.src, payload["spe"])
            self._spe_tables[env.src] = payload["spe"]
            self._current_epochs[env.src] = payload["epoch"]
            self._maybe_compute_line()
        elif env.tag == CTL.ORPHAN_NOTIF:
            self._orphan_notifs[env.src] = payload
            if len(self._orphan_notifs) == self.nprocs:
                self._aggregate_notifications()
        elif env.tag == CTL.NO_ORPHAN:
            key = (env.src, payload["phase"], payload["sender"])
            eff = self._orphan_eff_phase.pop(key, None)
            if eff is None:
                raise ProtocolError(f"unexpected NoOrphan for {key}")
            self._nb_orphan[eff] -= 1
            if self._nb_orphan[eff] < 0:
                raise ProtocolError(f"phase {eff} orphan aggregate went negative")
            self._notify_phases()
        else:
            raise ProtocolError(f"recovery process got unexpected tag {env.tag}")

    # ------------------------------------------------------------------
    def _maybe_compute_line(self) -> None:
        if self._rl_sent:
            return
        if self._expected_failed - set(self._rollback_notices):
            return
        if len(self._spe_tables) < self.nprocs:
            return
        failed_restarts = {r: e for r, (e, _d) in self._rollback_notices.items()}
        flight = self.flight
        on_step = None
        if flight is not None:
            coord = self.controller.recovery_rank

            def on_step(k: int, es: int, j: int, er: int, bound: int) -> None:
                # coordinator-lane record: sender k forced down to es
                # because receiver j (bounded at `bound`) re-executes a
                # non-logged reception from (es, er)
                flight.record(coord, FlightKind.RL_STEP, peer=k,
                              epoch_send=es, epoch_recv=er, extra=(j, bound))

        self._rl = compute_recovery_line(self._spe_tables, failed_restarts,
                                         on_step=on_step)
        if self.san is not None:
            # the solver must have reached a true fix-point (re-solving
            # from its own output is a no-op) and only moved epochs down
            self.san.rl_fixpoint_stable(
                self._rl,
                lambda seeds: compute_recovery_line(self._spe_tables, seeds),
            )
            self.san.rl_monotone(self._rl, self._current_epochs,
                                 failed_restarts)
        self._rl_sent = True
        assert self.report is not None
        self.report.recovery_line = dict(self._rl)
        self.report.rolled_back = sorted(self._rl)
        self.report.failed_restarts = failed_restarts
        # every upload is a fresh export and a round gets a new table
        self.report.spe_tables = self._spe_tables
        if flight is not None:
            flight.record(self.controller.recovery_rank, FlightKind.RL_FIXED,
                          extra=sorted(self._rl))
        self.controller.broadcast_control(
            CTL.RECOVERY_LINE, {"rl": self._rl, "round": self.round}
        )

    def _aggregate_notifications(self) -> None:
        """Fig. 4 lines 22-32: build the per-phase orphan aggregate.

        Reproduction note — *phase remapping*.  The paper's proof assumes
        all recorded phases belong to one coherent execution.  Phases,
        unlike send dates, are *not* reproducible across re-executions
        (they depend on delivery interleavings and on where checkpoints
        fall), so after a second failure an orphan may sit in an ``RPP``
        bucket recorded in an abandoned branch whose phase number is lower
        than its sender's registration phase in the current branch — which
        would gate the sender's release on the orphan it must itself
        re-send (deadlock).  We therefore lift every orphan to
        ``max(recorded phase, sender's registration phase)``.  Progress:
        a release cycle would need registration phases ``p_A < p_B < ... <
        p_A``.  Single-failure rounds are unaffected (the recorded phase
        already dominates the sender's restored phase there).
        """
        self._nb_orphan = {}
        self._orphan_eff_phase = {}
        reg_phase = {
            rank: notif["phase"]
            for rank, notif in self._orphan_notifs.items()
            if notif["status"] == "RolledBack"
        }
        max_phase = 0
        for rank, notif in self._orphan_notifs.items():
            max_phase = max(max_phase, notif["phase"], *(notif["log_phases"] or [0]))
            for phase, sender in notif["orph_entries"]:
                eff = max(phase, reg_phase.get(sender, 0))
                self._orphan_eff_phase[(rank, phase, sender)] = eff
                self._nb_orphan[eff] = self._nb_orphan.get(eff, 0) + 1
                max_phase = max(max_phase, eff)
        self._max_phase = max_phase
        self._next_ready = 0
        self._notify_phases()

    def _notify_phases(self) -> None:
        """Fig. 4 lines 38-41, emitted in increasing phase order."""
        if not self._rl_sent or len(self._orphan_notifs) < self.nprocs:
            return
        while self._next_ready <= self._max_phase:
            phase = self._next_ready
            if self._nb_orphan.get(phase, 0) > 0:
                return
            self.controller.broadcast_control(
                CTL.READY_PHASE, {"phase": phase, "round": self.round}
            )
            assert self.report is not None
            self.report.phases_notified += 1
            self._next_ready += 1
        self._finish_round()

    def _finish_round(self) -> None:
        assert self.report is not None
        report = self.report
        report.finished_at = self.controller.now
        self.active = False
        obs = self.obs
        if obs is not None:
            obs.counter("recovery.rounds").inc()
            obs.counter("recovery.rollbacks").inc(len(report.rolled_back))
            obs.counter("recovery.phases_notified").inc(report.phases_notified)
            obs.histogram("recovery.round_duration_s").observe(
                report.finished_at - report.started_at
            )
        self.controller.on_recovery_complete(report)

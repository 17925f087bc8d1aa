"""Runtime protocol-invariant sanitizer (``REPRO_SANITIZE=1``).

The linter certifies the *code*; the sanitizer certifies the *run*.  When
enabled it attaches cheap per-event assertions to the protocol, recovery
and engine layers, checking live the invariants the paper's Section IV
correctness argument rests on:

``spe_table_ordered``
    An uploaded SPE table is internally consistent with the delivered
    messages that built it: epoch order is start-date order, and every
    recorded reception epoch is a real epoch (``>= 1``).
``rl_fixpoint_stable``
    The recovery line is a fix-point: re-running the solver on its own
    output changes nothing.
``rl_monotone``
    The fix-point only moves restart epochs down: no rank is asked to
    restart above its current epoch (or, for failed ranks, above the
    checkpoint it was restored from).
``engine_pending_audit``
    The engine's O(1) pending-event counter agrees with the queue's
    actual live-entry count, and its heap of instants with its buckets
    (amortised: every ``AUDIT_INTERVAL`` dispatches).
``send_witness``
    Send-determinism, checked live (paper Section II-A): the first
    emission of each send date registers its witness ``(dst, tag, size,
    payload digest)``; any recovery re-emission of the same date must
    reproduce it bit-for-bit.  A replay whose payload was not retained
    (``digest=None``) still checks destination, tag and size.  This is
    the runtime twin of the static SD certifier in
    :mod:`repro.lint.sendet`.
``rollback_closure``
    The offline Table I analysis counts every failure's recovery line in
    one reachability pass per SPE snapshot; on a stride of ~32 failed
    ranks per snapshot the count equals the size of the line the Fig. 4
    fix-point (:class:`repro.core.recovery.RecoveryLineSolver`) computes.

Cost model: the enabled checks are O(1) per event except the two
recovery-line checks (once per recovery round), the engine audit
(amortised O(1)) and the closure check (~32 fix-points per snapshot).  When *disabled* — the default — components cache
``None`` instead of a sanitizer, exactly the observability subsystem's
cached-instrument pattern, so the hot path pays one identity comparison
(measured ~0 in ``benchmarks/test_sanitize_overhead.py``).

A violation raises :class:`repro.errors.InvariantViolation` at the event
that broke the invariant, with the protocol context in the message —
turning "the results diverged three recoveries later" into a stack trace
at the root cause.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping

from ..errors import InvariantViolation

__all__ = [
    "ENV_VAR",
    "AUDIT_INTERVAL",
    "INVARIANTS",
    "Sanitizer",
    "sanitize_enabled",
    "sanitizer_for",
]

#: environment switch; any value except 0/false/no/off enables
ENV_VAR = "REPRO_SANITIZE"
_FALSY = frozenset({"", "0", "false", "no", "off"})

#: engine dispatches between pending-counter audits (power of two: the
#: dispatch-loop test is a mask, not a modulo)
AUDIT_INTERVAL = 1024

#: every invariant the sanitizer can certify, in documentation order
INVARIANTS: tuple[str, ...] = (
    "spe_table_ordered",
    "rl_fixpoint_stable",
    "rl_monotone",
    "engine_pending_audit",
    "send_witness",
    "rollback_closure",
)


def sanitize_enabled() -> bool:
    """Is the sanitizer on?  Read from the environment at every call."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


def sanitizer_for(obs: Any = None) -> "Sanitizer | None":
    """The component-side constructor: a :class:`Sanitizer` when enabled,
    else ``None`` — callers cache the result and guard every check with
    one ``is not None`` comparison (the cached-instrument pattern)."""
    return Sanitizer(obs) if sanitize_enabled() else None


class Sanitizer:
    """Live invariant checks with per-invariant execution counts.

    Counts land in ``self.checks``, which the labelled counter
    ``sanitize.checks`` of a supplied metrics registry reads, so CI can
    prove every invariant actually ran.
    """

    __slots__ = ("checks", "_witness")

    def __init__(self, obs: Any = None):
        self.checks: dict[str, int] = {}
        #: rank -> {send date -> (dst, tag, size, digest)} witness registry
        self._witness: dict[int, dict[int, tuple]] = {}
        if obs is not None:
            checks = self.checks  # not self: the witness table stays ours
            obs.derive(None, "sanitize.checks", lambda: [
                ((name,), checks.get(name, 0)) for name in INVARIANTS],
                ("invariant",))

    # ------------------------------------------------------------------
    def _tick(self, name: str) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1

    @staticmethod
    def _fail(name: str, detail: str) -> None:
        raise InvariantViolation(f"sanitizer[{name}]: {detail}")

    # ------------------------------------------------------------------
    # Recovery-layer checks (per SPE upload / per recovery round)
    # ------------------------------------------------------------------
    def spe_table_ordered(self, rank: int,
                          spe: Mapping[int, tuple[int, Mapping[int, int]]]) -> None:
        """Called when the recovery process receives rank's SPE export
        (``epoch -> (start_date, {peer: recv_epoch})``)."""
        self._tick("spe_table_ordered")
        prev_date = None
        for epoch in sorted(spe):
            start_date, per_peer = spe[epoch]
            if prev_date is not None and start_date < prev_date:
                self._fail("spe_table_ordered",
                           f"rank {rank} SPE epoch {epoch} starts at date "
                           f"{start_date}, before the previous epoch's "
                           f"{prev_date} — epoch order must be date order")
            prev_date = start_date
            for peer, recv_epoch in per_peer.items():
                if recv_epoch < 1:
                    self._fail("spe_table_ordered",
                               f"rank {rank} SPE epoch {epoch} records "
                               f"reception epoch {recv_epoch} for peer "
                               f"{peer}; epochs start at 1")

    def rl_fixpoint_stable(
        self,
        rl: Mapping[int, tuple[int, int]],
        resolve: Callable[[dict[int, int]], Mapping[int, tuple[int, int]]],
    ) -> None:
        """Re-run the recovery-line solver seeded with its own output;
        a true fix-point reproduces itself exactly."""
        self._tick("rl_fixpoint_stable")
        again = resolve({rank: epoch for rank, (epoch, _date) in rl.items()})
        if dict(again) != dict(rl):
            changed = {
                r: (dict(rl).get(r), dict(again).get(r))
                for r in set(rl) | set(again)
                if dict(rl).get(r) != dict(again).get(r)
            }
            self._fail("rl_fixpoint_stable",
                       f"recovery line is not a fix-point; re-solving moved "
                       f"{changed}")

    def rl_monotone(self, rl: Mapping[int, tuple[int, int]],
                    current_epochs: Mapping[int, int],
                    failed_restarts: Mapping[int, int]) -> None:
        """The fix-point only lowers restart epochs."""
        self._tick("rl_monotone")
        for rank, (epoch, _date) in rl.items():
            bound = failed_restarts.get(rank, current_epochs.get(rank))
            if bound is not None and epoch > bound:
                self._fail("rl_monotone",
                           f"recovery line restarts rank {rank} at epoch "
                           f"{epoch}, above its bound {bound}")

    def rollback_closure(self, time: float, rank: int, closure_count: int,
                         fixpoint_count: int) -> None:
        """Called by the rollback analysis per sampled (snapshot, failure)."""
        self._tick("rollback_closure")
        if closure_count != fixpoint_count:
            self._fail("rollback_closure",
                       f"snapshot t={time!r}, failure of rank {rank}: the "
                       f"closure pass counts {closure_count} rolled-back "
                       f"ranks, the fix-point {fixpoint_count}")

    # ------------------------------------------------------------------
    # Send-determinism witness (per application send, incl. replays)
    # ------------------------------------------------------------------
    def send_witness(self, rank: int, date: int, dst: int, tag: int,
                     size: int, digest: int | None) -> None:
        """Register or verify the witness of one dated application send.

        First emission of ``date`` records ``(dst, tag, size, digest)``;
        every later emission — a recovery re-execution or log replay —
        must match it.  ``digest=None`` (payload not retained by the
        log) skips only the payload comparison.
        """
        self._tick("send_witness")
        per_rank = self._witness.setdefault(rank, {})
        prior = per_rank.get(date)
        if prior is None:
            per_rank[date] = (dst, tag, size, digest)
            return
        pdst, ptag, psize, pdigest = prior
        if (dst, tag, size) != (pdst, ptag, psize):
            self._fail("send_witness",
                       f"rank {rank} re-sent date {date} as "
                       f"(dst={dst}, tag={tag}, size={size}); witness "
                       f"recorded (dst={pdst}, tag={ptag}, size={psize})")
        if digest is not None and pdigest is not None and digest != pdigest:
            self._fail("send_witness",
                       f"rank {rank} re-sent date {date} with payload "
                       f"digest {digest}; witness recorded {pdigest}")
        if pdigest is None and digest is not None:
            # a later emission retained the payload: tighten the witness
            per_rank[date] = (pdst, ptag, psize, digest)

    # ------------------------------------------------------------------
    # Engine-layer check (amortised per AUDIT_INTERVAL dispatches)
    # ------------------------------------------------------------------
    def engine_pending_audit(self, live: int, pending: int,
                             in_step: bool = True) -> None:
        """Compare the engine's O(1) pending counter with an actual count
        of live queue entries; ``in_step`` is whether its heap of instants
        and its buckets hold the same instants, each once."""
        self._tick("engine_pending_audit")
        if live != pending:
            self._fail("engine_pending_audit",
                       f"engine pending counter drifted: counter={pending}, "
                       f"queue holds {live} live entries")
        if not in_step:
            self._fail("engine_pending_audit",
                       "engine heap and buckets hold different instants")

"""Recovery-line explainability: *why* did each rank roll back?

The recovery-line fix-point (Fig. 4, :class:`repro.core.recovery.
RecoveryLineSolver`) answers *who* rolls back; this module replays it
with cause tracking and answers *why*: for every rolled-back rank it
produces the fix-point step that fixed its restart epoch — "rank ``k``
restarts at epoch ``Es`` because it sent a non-logged message from ``Es``
that rank ``j`` received at epoch ``Er`` at or above ``j``'s restart
point" — plus the causal chain of such steps back to a failed process.

When the run's flight recorder (:mod:`repro.obs.flight`) is available, each
forcing edge is resolved to a *concrete* message: the ``confirm`` record
(an acknowledgement that resolved without logging, i.e. a non-logged
message) matching ``(sender, receiver, epoch_send)`` with a reception
epoch at or above the receiver's bound, giving the message ``uid`` the
rest of the tooling (Perfetto flows, trace dumps) indexes by.

The explained recovery line is produced by the *same* solver the recovery
process uses, so it is equal to ``RecoveryLineSolver.solve()`` by
construction — asserted in ``tests/obs/test_explain.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .flight import FlightKind

__all__ = [
    "ForcingEdge",
    "RankExplanation",
    "RecoveryExplanation",
    "explain_recovery_line",
    "explain_report",
]


@dataclass(frozen=True)
class ForcingEdge:
    """One fix-point propagation step: ``sender`` must restart at
    ``epoch_send`` because ``receiver`` (restarting at ``receiver_bound``)
    re-executes a reception of a non-logged message sent from
    ``epoch_send`` and received at ``epoch_recv``."""

    sender: int
    receiver: int
    epoch_send: int
    epoch_recv: int
    receiver_bound: int
    #: concrete message id resolved from flight records (None when no
    #: flight data covers the edge)
    uid: int | None = None

    def describe(self) -> str:
        msg = f"uid={self.uid}" if self.uid is not None else "uid=?"
        return (
            f"non-logged message {msg} {self.sender}->{self.receiver} "
            f"(epoch_send={self.epoch_send}, epoch_recv={self.epoch_recv})"
        )


@dataclass
class RankExplanation:
    """Why one rank appears in the recovery line."""

    rank: int
    epoch: int
    date: int
    failed: bool
    #: the step that finally fixed this rank's restart epoch (None for
    #: failed ranks — their restart point is the failure itself)
    edge: ForcingEdge | None
    #: causal chain of ranks from this one back to a failed process
    chain: tuple[int, ...] = ()

    def describe(self) -> str:
        where = f"restarts at (epoch {self.epoch}, date {self.date})"
        if self.failed:
            return f"rank {self.rank}: failed -> {where}"
        assert self.edge is not None
        chain = " <- ".join(str(r) for r in self.chain)
        return (
            f"rank {self.rank}: forced by {self.edge.describe()} -> {where}"
            f"  [chain: {chain}]"
        )


@dataclass
class RecoveryExplanation:
    """Full explanation of one recovery line."""

    recovery_line: dict[int, tuple[int, int]]
    failed: list[int]
    ranks: dict[int, RankExplanation] = field(default_factory=dict)
    #: every propagation step, in fix-point order (diagnostic detail)
    steps: list[ForcingEdge] = field(default_factory=list)

    def rolled_back(self) -> list[int]:
        return sorted(self.recovery_line)

    def format(self) -> str:
        lines = [
            f"recovery line: {len(self.recovery_line)} rank(s) roll back "
            f"(failed: {self.failed})"
        ]
        for rank in sorted(self.ranks):
            lines.append("  " + self.ranks[rank].describe())
        return "\n".join(lines)


def _confirm_index(flight: Any) -> dict[tuple[int, int, int], list[tuple[int, int]]]:
    """Index flight ``confirm`` records: (sender, receiver, epoch_send) ->
    [(epoch_recv, uid)]."""
    index: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    if flight is None:
        return index
    for rec in flight.records(kind=FlightKind.CONFIRM):
        _time, _kind, rank, peer, uid, epoch_send, epoch_recv, *_rest = rec
        index.setdefault((rank, peer, epoch_send), []).append((epoch_recv, uid))
    return index


def _resolve_uid(index: dict, edge: ForcingEdge) -> int | None:
    """Find a concrete non-logged message realising ``edge``.

    Prefers the exact reception epoch the SPE cell carried; any confirm
    with ``epoch_recv >= receiver_bound`` is an equally valid witness (the
    fix-point only needs one reception at or above the bound).
    """
    candidates = index.get((edge.sender, edge.receiver, edge.epoch_send))
    if not candidates:
        return None
    exact = [u for er, u in candidates if er == edge.epoch_recv]
    if exact:
        return exact[0]
    above = [u for er, u in candidates if er >= edge.receiver_bound]
    return above[0] if above else None


def explain_recovery_line(
    spe_tables: dict[int, dict],
    failed_restarts: dict[int, int],
    flight: Any = None,
) -> RecoveryExplanation:
    """Replay the fix-point with cause tracking and build the explanation.

    Parameters mirror :func:`repro.core.recovery.compute_recovery_line`;
    ``flight`` optionally supplies concrete message uids (the run's
    :class:`~repro.obs.flight.FlightRecorder`).
    """
    # imported lazily: core.recovery itself imports repro.obs.registry, and
    # this module is re-exported from the repro.obs package
    from ..core.recovery import RecoveryLineSolver

    steps: list[ForcingEdge] = []
    rl = RecoveryLineSolver(spe_tables).solve(
        failed_restarts,
        on_step=lambda k, es, j, er, bound: steps.append(ForcingEdge(
            sender=k, receiver=j, epoch_send=es, epoch_recv=er,
            receiver_bound=bound)),
    )
    uid_index = _confirm_index(flight)
    if uid_index:
        steps = [replace(edge, uid=_resolve_uid(uid_index, edge))
                 for edge in steps]
    # The solver only reports a step when it lowers the sender's bound, so
    # the LAST recorded step per sender is the one that fixed its final
    # restart epoch.
    final_edge: dict[int, ForcingEdge] = {}
    for edge in steps:
        final_edge[edge.sender] = edge

    explanation = RecoveryExplanation(
        recovery_line=rl, failed=sorted(failed_restarts), steps=steps,
    )
    for rank, (epoch, date) in rl.items():
        failed = rank in failed_restarts
        edge = None if failed else final_edge.get(rank)
        chain: list[int] = [rank]
        # walk the forcing chain to a failed process (visited-guard: the
        # fix-point can in principle revisit a rank across epochs)
        seen = {rank}
        cursor = edge
        while cursor is not None:
            nxt = cursor.receiver
            chain.append(nxt)
            if nxt in failed_restarts or nxt in seen:
                break
            seen.add(nxt)
            cursor = final_edge.get(nxt)
        explanation.ranks[rank] = RankExplanation(
            rank=rank, epoch=epoch, date=date, failed=failed,
            edge=edge, chain=tuple(chain),
        )
    return explanation


def explain_report(report: Any, flight: Any = None) -> RecoveryExplanation:
    """Explain a live :class:`~repro.core.recovery.RecoveryReport`.

    The recovery process stores the SPE tables and failed-restart map it
    solved with on the report, so the explanation replays exactly the
    fix-point of that round.
    """
    if not report.spe_tables:
        raise ValueError(
            "report carries no SPE tables (recovery never reached the "
            "fix-point, or the report predates explainability)"
        )
    explanation = explain_recovery_line(
        report.spe_tables, report.failed_restarts, flight
    )
    if explanation.recovery_line != report.recovery_line:
        raise AssertionError(
            "explained recovery line diverged from the round's: "
            f"{explanation.recovery_line} vs {report.recovery_line}"
        )
    return explanation

"""Fail-stop failure injection.

The paper assumes a *fail-stop* model with possibly multiple concurrent
failures (Section II-A).  The injector schedules kill events at virtual
times (or when a rank reaches an event count) and invokes a handler —
normally the protocol controller's failure orchestration — which performs
the actual kill/restore.  The substrate-level kill primitive lives on
:class:`~repro.simmpi.process.Proc` (``kill()``: drop the execution, purge
in-flight inbound traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from .process import Proc
    from .runtime import World

__all__ = ["FailureEvent", "FailureInjector", "TIME_QUANTUM"]

#: two scheduled failure times closer than this are one concurrent round.
#: Float arithmetic on schedule times (``t + dt``, fractions of a measured
#: horizon) produces values that are *intended* equal but differ in the
#: last ulps; the quantum is far below every timing-model constant (the
#: fastest network hop is ~1e-6 s), so genuinely distinct rounds are never
#: merged while arithmetic noise never splits a concurrent batch.
TIME_QUANTUM = 1e-9


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled fail-stop failure."""

    rank: int
    time: float


class FailureInjector:
    """Schedules fail-stop failures and dispatches them to a handler.

    Concurrent failures: multiple events within ``TIME_QUANTUM`` of each
    other are delivered to the handler as a single batch (list of ranks),
    matching the paper's "multiple concurrent failures" scenario where the
    recovery line must account for every failed process at once.  Exact
    float equality is deliberately *not* required — schedule times that
    come from arithmetic (``t + dt``) land a few ulps apart.
    """

    def __init__(self, world: "World", handler: Callable[[list[int]], None]):
        self.world = world
        self.handler = handler
        self._scheduled: list[FailureEvent] = []
        self.fired: list[FailureEvent] = []
        #: pending ``after_sends`` taps, ``(rank, nsends)``, dropped as they fire
        self._taps: list[tuple[int, int]] = []

    def at(self, time: float, rank: int) -> None:
        """Kill ``rank`` at virtual ``time``."""
        if not 0 <= rank < self.world.nprocs:
            raise ConfigError(f"rank {rank} out of range")
        self._scheduled.append(FailureEvent(rank, time))

    # ------------------------------------------------------------------
    # Logical placement: kill after the Nth application send
    # ------------------------------------------------------------------
    def after_sends(self, rank: int, nsends: int) -> None:
        """Kill ``rank`` immediately after its ``nsends``-th application
        send — deterministic logical placement, independent of the timing
        model (useful for reproducible protocol corner cases).

        ``Proc._emit`` counts application sends and calls the rank's
        ``send_tap`` right after each one, so a protocol replay (which
        reaches the wire without ``_emit``) never counts.  Taps compose:
        each registered ``(rank, nsends)`` fires once, and a rank with no
        pending tap left stops calling back.
        """
        if not 0 <= rank < self.world.nprocs:
            raise ConfigError(f"rank {rank} out of range")
        if nsends < 1:
            raise ConfigError("nsends must be positive")
        self._taps.append((rank, nsends))
        self.world.procs[rank].send_tap = self._on_send

    def _on_send(self, proc: "Proc") -> None:
        """Fire each pending tap on ``proc``'s rank that its application
        send count has reached."""
        rank, sent = proc.rank, proc.app_messages_sent
        for tap in [t for t in self._taps if t[0] == rank and sent >= t[1]]:
            self._taps.remove(tap)
            self.world.engine.call_soon(
                lambda: self._fire([rank], self.world.engine.now))
        if all(r != rank for r, _ in self._taps):
            proc.send_tap = None

    def close(self) -> None:
        """Drop the taps that never fired and let go of the handler (see
        ``Controller.close``); :attr:`fired` stays readable."""
        self._taps.clear()
        self.handler = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Install the scheduled failures into the engine.

        Events are grouped into concurrent rounds within
        ``TIME_QUANTUM`` of each group's earliest time (not exact
        float equality), and each group fires at that earliest time.
        """
        events = sorted(self._scheduled, key=lambda ev: (ev.time, ev.rank))
        groups: list[tuple[float, list[int]]] = []
        for ev in events:
            if groups and ev.time - groups[-1][0] <= TIME_QUANTUM:
                groups[-1][1].append(ev.rank)
            else:
                groups.append((ev.time, [ev.rank]))
        for time, ranks in groups:
            self.world.engine.schedule_at(
                time, lambda rs=sorted(set(ranks)), t=time: self._fire(rs, t)
            )
        self._scheduled.clear()

    def _fire(self, ranks: list[int], time: float) -> None:
        alive = [r for r in ranks if self.world.procs[r].alive]
        if not alive:
            return
        for r in alive:
            self.fired.append(FailureEvent(r, time))
            self.world.tracer.on_mark("failure", r, time)
        self.handler(alive)

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
        #: active ``after_sends`` taps: {"rank", "nsends", "fired"}
        self._taps: list[dict] = []
        self._tap_wrapper: Callable | None = None
        self._orig_transmit: Callable | None = None

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

        Multiple taps compose: each registered ``(rank, nsends)`` fires
        independently through one shared ``transmit_app`` wrapper, and the
        wrapper is uninstalled once every tap has fired, so steady-state
        sends never keep paying for an exhausted tap.
        """
        if not 0 <= rank < self.world.nprocs:
            raise ConfigError(f"rank {rank} out of range")
        if nsends < 1:
            raise ConfigError("nsends must be positive")
        self._taps.append({"rank": rank, "nsends": nsends, "fired": False})
        self._install_tap()

    def _install_tap(self) -> None:
        if self._tap_wrapper is not None:
            return
        # None: no instance-level wrapper was there before ours
        self._orig_transmit = vars(self.world).get("transmit_app")
        original = self.world.transmit_app

        def tapped(env, _original=original):
            cpu = _original(env)
            if self._taps:
                # the send counter increments after transmit returns, so
                # +1 makes this the count *including* the in-flight send:
                # the kill lands right after the nsends-th send, not one
                # message later
                sent = self.world.procs[env.src].app_messages_sent + 1
                exhausted = True
                for tap in self._taps:
                    if (not tap["fired"] and tap["rank"] == env.src
                            and sent >= tap["nsends"]):
                        tap["fired"] = True
                        self.world.engine.call_soon(
                            lambda r=env.src: self._fire(
                                [r], self.world.engine.now
                            )
                        )
                    exhausted = exhausted and tap["fired"]
                if exhausted:
                    self._taps.clear()
                    self._uninstall_tap()
            return cpu

        self._tap_wrapper = tapped
        self.world.transmit_app = tapped

    def _uninstall_tap(self) -> None:
        """Restore the original ``transmit_app`` hook once every tap fired.

        If someone wrapped ``transmit_app`` *after* us, restoring the
        original would silently drop their wrapper — in that case ours
        stays in the chain as a cheap pass-through (empty tap list)."""
        if self._tap_wrapper is None:
            return
        if self.world.transmit_app is self._tap_wrapper:
            if self._orig_transmit is None:
                # the class's own method: putting a bound method back as
                # an instance attribute would tie the world to itself
                del self.world.transmit_app
            else:
                self.world.transmit_app = self._orig_transmit
        self._tap_wrapper = None
        self._orig_transmit = None

    def close(self) -> None:
        """Uninstall a tap that never fired and let go of the handler (see
        ``Controller.close``); :attr:`fired` stays readable."""
        self._taps.clear()
        self._uninstall_tap()
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

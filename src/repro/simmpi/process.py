"""Simulated MPI processes.

A rank program is a Python *generator* that yields operation objects
(:class:`SendOp`, :class:`RecvOp`, ...).  The :class:`Proc` wrapper drives
the generator: it executes each yielded operation against the simulated
network, resumes the generator with the operation's result, and suspends it
while an operation blocks.

Fault-tolerance protocols attach to a :class:`Proc` through the
:class:`ProtocolHook` interface.  The substrate consults the hook at every
send, delivery and checkpoint, which is how the paper's protocol (and the
baselines) piggyback metadata, suppress duplicate deliveries and take
checkpoints — without the substrate knowing anything about epochs or
phases.  A protocol holds a rank (recovery) by pausing its :class:`Proc`.

Process image semantics
-----------------------
A checkpoint of a simulated process consists of the rank-program snapshot
*plus* the library-level unexpected-message queue (messages delivered to
the process but not yet matched by a receive are part of the process image,
exactly as they live in MPI library buffers under system-level
checkpointing).  Restoring re-creates the generator from the snapshot and
reinstates that queue.  Receives block, so a program that reaches a
checkpoint has none outstanding: the image is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, TYPE_CHECKING

from ..errors import SimulationError
from .message import ANY_SOURCE, ANY_TAG, CONTROL_TAG_BASE, Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import World

__all__ = [
    "SendOp",
    "RecvOp",
    "ComputeOp",
    "CheckpointOp",
    "NowOp",
    "ProtocolHook",
    "NullHook",
    "Proc",
]


# ----------------------------------------------------------------------
# Operations yielded by rank programs
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SendOp:
    """Blocking buffered send: completes once the message is on the wire."""

    dst: int
    payload: Any
    tag: int = 0
    size: int = 0


@dataclass(slots=True)
class RecvOp:
    """Blocking receive; resumes the program with the matched payload."""

    src: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(slots=True)
class ComputeOp:
    """Spend ``seconds`` of virtual CPU time."""

    seconds: float


@dataclass(slots=True)
class CheckpointOp:
    """Offer the protocol layer a checkpoint opportunity.

    With ``force`` the checkpoint is always taken; otherwise the protocol's
    schedule decides.  Resumes with ``True`` iff a checkpoint was taken.
    """

    force: bool = False


@dataclass(slots=True)
class NowOp:
    """Resumes immediately with the current virtual time."""


# ----------------------------------------------------------------------
# Protocol hook interface
# ----------------------------------------------------------------------
class ProtocolHook:
    """Interception points for rollback-recovery protocols.

    The default implementations are pass-throughs; protocols override what
    they need.  One hook instance is attached per process; a protocol that
    must stop its rank's sends pauses the :class:`Proc`.
    """

    # slots: late keys can overflow the key table CPython shares among a
    # subclass's instance dicts, and then each instance gets its own dict
    __slots__ = ("proc", "world")

    def attach(self, proc: "Proc", world: "World") -> None:
        """Called once when the process is created."""
        self.proc = proc
        self.world = world

    def detach(self) -> None:
        """Called once when the world is closed: forget process and world."""
        self.proc = None
        self.world = None

    # --- send path ----------------------------------------------------
    def on_app_send(self, env: Envelope) -> None:
        """Called just before an application envelope enters the network.

        Protocols stamp piggybacked metadata into ``env.meta`` here and
        retain payload copies for sender-based logging.
        """

    # --- receive path ---------------------------------------------------
    def on_message(self, env: Envelope) -> bool:
        """Called on every inbound application envelope.

        Return ``True`` to deliver to the application, ``False`` to
        suppress (duplicate messages during recovery).
        """
        return True

    def on_ack(self, src: int, record: Any) -> None:
        """Called on every acknowledgement record from ``src``."""

    def on_control(self, env: Envelope) -> None:
        """Called on inbound control-plane envelopes (never seen by apps)."""

    # --- checkpoint path ------------------------------------------------
    def checkpoint_due(self) -> bool:
        """Should an offered (non-forced) checkpoint opportunity be taken?"""
        return False

    def on_checkpoint(self) -> float | None:
        """A checkpoint is being taken; capture protocol state.

        May return a duration (seconds) the process spends writing the
        checkpoint to stable storage — the I/O cost model hook."""

    # --- lifecycle -------------------------------------------------------
    def on_program_done(self) -> None:
        """The rank program ran to completion."""


class NullHook(ProtocolHook):
    """No fault tolerance: every call is the default pass-through."""


# ----------------------------------------------------------------------
# The process driver
# ----------------------------------------------------------------------
class Proc:
    """Drives one rank program inside the simulated world.  A blocked
    program waits on one receive slot; a held rank is paused."""

    __slots__ = ("rank", "world", "hook", "incarnation", "alive", "done",
                 "paused", "_gen", "_pending_resume", "_waiting",
                 "unexpected", "app_messages_sent", "send_tap",
                 "__weakref__")  # teardown checks take weak references

    def __init__(self, rank: int, world: "World", hook: ProtocolHook | None = None):
        self.rank = rank
        self.world = world
        self.hook = hook or NullHook()
        self.hook.attach(self, world)
        self.incarnation = 0
        self.alive = True
        self.done = False
        self.paused = False
        self._gen: Generator[Any, Any, Any] | None = None
        self._pending_resume: tuple[Any] | None = None  # boxed value
        # the receive no delivered message matched yet
        self._waiting: RecvOp | None = None
        #: appended, scanned, deleted from by index: a list is enough
        self.unexpected: list[Envelope] = []
        self.app_messages_sent = 0
        #: called with this rank after each application send while a
        #: ``FailureInjector.after_sends`` tap on it is pending
        self.send_tap: Callable[[Proc], None] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, gen: Generator[Any, Any, Any]) -> None:
        """Install the rank program generator and schedule its first step."""
        self._gen = gen
        self.done = False
        self.world.engine.call_soon(lambda inc=self.incarnation: self._kick(inc))

    def _kick(self, incarnation: int) -> None:
        if incarnation != self.incarnation or not self.alive:
            return
        self._advance(None, first=True)

    def reincarnate(self) -> None:
        """Discard the current execution (fail-stop or rollback restore).

        Cancels the waiting receive and stale continuations by bumping the
        incarnation number; the caller then installs a fresh generator via
        :meth:`start` and (for restores) reinstates the checkpointed
        unexpected-queue via :attr:`unexpected`.
        """
        self.incarnation += 1
        self._gen = None
        self._waiting = None
        self.unexpected.clear()
        self._pending_resume = None
        self.done = False

    def kill(self) -> None:
        """Fail-stop: the process disappears; in-flight inbound traffic drops."""
        self.alive = False
        self.world.network.purge_inbound(self.rank)
        self.reincarnate()

    # ------------------------------------------------------------------
    # Pause / resume (how a protocol holds a rank during recovery)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self.paused = True

    def unpause(self) -> None:
        """Resume execution; flushes a resume deferred while paused."""
        if not self.paused:
            return
        self.paused = False
        if self._pending_resume is not None:
            (value,) = self._pending_resume
            self._pending_resume = None
            self._resume_soon(value)

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _resume_if_current(self, resume: tuple[int, Any]) -> None:
        """The resume event: ``(incarnation that asked for it, value)``."""
        incarnation, value = resume
        if incarnation != self.incarnation or not self.alive:
            return
        self._advance(value)

    def _schedule_resume(self, delay: float, value: Any) -> None:
        self.world.engine.post(delay, self._resume_if_current,
                               (self.incarnation, value))

    def _resume_soon(self, value: Any) -> None:
        """Resume the program with ``value`` at the current instant, or
        park the value while paused (:meth:`unpause` re-issues it)."""
        if self.paused:
            self._pending_resume = (value,)
        else:
            self._schedule_resume(0.0, value)

    def _advance(self, value: Any, first: bool = False) -> None:
        """Run the generator until it blocks, pauses, or finishes."""
        if self._gen is None or self.done or not self.alive:
            return
        gen = self._gen
        while True:
            if self.paused:
                self._pending_resume = (value,)
                return
            try:
                op = gen.send(None if first else value)
            except StopIteration:
                self.done = True
                self.hook.on_program_done()
                return
            first = False
            if isinstance(op, SendOp):
                # always resumes via the engine
                self._schedule_resume(self._emit(op), None)
                return
            elif isinstance(op, RecvOp):
                env = self._try_match(op)
                if env is not None:
                    value = env.payload
                    continue
                self._waiting = op
                return
            elif isinstance(op, ComputeOp):
                if op.seconds < 0:
                    raise SimulationError("negative compute time")
                self._schedule_resume(op.seconds, None)
                return
            elif isinstance(op, CheckpointOp):
                taken, duration = self._handle_checkpoint(op)
                if duration > 0:
                    # checkpoint writes consume process time (I/O model)
                    self._schedule_resume(duration, taken)
                    return
                value = taken
                continue
            elif isinstance(op, NowOp):
                value = self.world.engine.now
                continue
            else:
                raise SimulationError(f"rank {self.rank} yielded unknown op {op!r}")

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def _emit(self, op: SendOp) -> float:
        """Put ``op``'s message on the wire; returns the sender CPU time."""
        if op.tag <= CONTROL_TAG_BASE:
            raise SimulationError(
                f"tag {op.tag} is reserved for the protocol control plane"
            )
        env = Envelope(self.rank, op.dst, op.tag, op.payload, op.size,
                       None, self.world.next_uid())
        self.hook.on_app_send(env)
        cpu = self.world.transmit_app(env)
        self.app_messages_sent += 1
        if self.send_tap is not None:
            self.send_tap(self)
        return cpu

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    @staticmethod
    def _matches(env: Envelope, op: RecvOp) -> bool:
        return (op.src == ANY_SOURCE or env.src == op.src) and (
            op.tag == ANY_TAG or env.tag == op.tag
        )

    def _try_match(self, op: RecvOp) -> Envelope | None:
        for i, env in enumerate(self.unexpected):
            if self._matches(env, op):
                del self.unexpected[i]
                return env
        return None

    # ------------------------------------------------------------------
    # Inbound delivery (the rank's two network sinks)
    # ------------------------------------------------------------------
    def receive(self, env: Envelope) -> None:
        """Accept an inbound envelope: a control one goes to the hook, an
        application one is traced, then to the application unless the hook
        suppresses it (a duplicate)."""
        if env.tag > CONTROL_TAG_BASE:
            self.world.tracer.on_app_deliver(env)
            if self.alive and self.hook.on_message(env):
                self.deliver_to_app(env)
        elif self.alive:
            self.hook.on_control(env)

    def deliver_to_app(self, env: Envelope) -> None:
        """Deliver an envelope to the application, bypassing the hook: it
        completes the waiting receive or joins the unexpected queue.

        Called directly by protocols that buffer and re-order deliveries
        themselves (e.g. pessimistic message logging replaying in
        determinant order).
        """
        if not self.alive:
            return
        op = self._waiting
        if op is not None and self._matches(env, op):
            self._waiting = None
            self._resume_soon(env.payload)
        else:
            self.unexpected.append(env)

    def deliver_ack(self, src: int, record: Any) -> None:
        """The ack sink; the hook's method is looked up per ack."""
        if self.alive:
            self.hook.on_ack(src, record)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _handle_checkpoint(self, op: CheckpointOp) -> tuple[bool, float]:
        """Returns ``(taken, write_duration)``; the hook may charge I/O time."""
        if not (op.force or self.hook.checkpoint_due()):
            return False, 0.0
        duration = self.hook.on_checkpoint() or 0.0
        return True, float(duration)

    # ------------------------------------------------------------------
    def describe_block(self) -> str:
        """The ``DeadlockError`` diagnostic for this rank (at quiescence no
        rank is inside a compute or checkpoint write: its resume is queued)."""
        if self.done:
            return "done"
        if not self.alive:
            return "dead"
        if self.paused:
            return "paused"
        op = self._waiting
        if op is not None:
            return f"recv(src={op.src}, tag={op.tag})"
        return "runnable"

    def close(self) -> None:
        """Drop the execution and sever the back-references (the world is
        being closed); the counters stay readable."""
        self._gen = None
        self._waiting = None
        self._pending_resume = None
        self.send_tap = None
        self.hook.detach()
        self.world = None

"""Simulated MPI processes.

A rank program is a Python *generator* that yields operation objects
(:class:`SendOp`, :class:`RecvOp`, ...).  The :class:`Proc` wrapper drives
the generator: it executes each yielded operation against the simulated
network, resumes the generator with the operation's result, and suspends it
while an operation blocks.

Fault-tolerance protocols attach to a :class:`Proc` through the
:class:`ProtocolHook` interface.  The substrate consults the hook at every
send, delivery and checkpoint, which is how the paper's protocol (and the
baselines) piggyback metadata, gate sends during recovery, suppress
duplicate deliveries and take checkpoints — without the substrate knowing
anything about epochs or phases.

Process image semantics
-----------------------
A checkpoint of a simulated process consists of the rank-program snapshot
*plus* the library-level unexpected-message queue (messages delivered to
the process but not yet matched by a receive are part of the process image,
exactly as they live in MPI library buffers under system-level
checkpointing).  Restoring re-creates the generator from the snapshot and
reinstates that queue.  Outstanding non-blocking receives across a
checkpoint are not supported (asserted), mirroring the usual
application-level checkpointing contract.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, TYPE_CHECKING

from ..errors import SimulationError
from .message import ANY_SOURCE, ANY_TAG, CONTROL_TAG_BASE, Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runtime import World

__all__ = [
    "SendOp",
    "RecvOp",
    "IsendOp",
    "IrecvOp",
    "WaitOp",
    "WaitallOp",
    "ComputeOp",
    "CheckpointOp",
    "NowOp",
    "Request",
    "Status",
    "ProtocolHook",
    "NullHook",
    "Proc",
]


# ----------------------------------------------------------------------
# Operations yielded by rank programs
# ----------------------------------------------------------------------
@dataclass
class SendOp:
    """Blocking buffered send: completes once the message is on the wire."""

    dst: int
    payload: Any
    tag: int = 0
    size: int = 0


@dataclass
class RecvOp:
    """Blocking receive; resumes the program with the matched payload."""

    src: int = ANY_SOURCE
    tag: int = ANY_TAG
    with_status: bool = False


@dataclass
class IsendOp:
    """Non-blocking send; resumes immediately with a :class:`Request`."""

    dst: int
    payload: Any
    tag: int = 0
    size: int = 0


@dataclass
class IrecvOp:
    """Non-blocking receive; resumes immediately with a :class:`Request`."""

    src: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass
class WaitOp:
    """Block until ``request`` completes; resumes with its value."""

    request: "Request"


@dataclass
class WaitallOp:
    """Block until every request completes; resumes with the value list."""

    requests: list["Request"]


@dataclass
class ComputeOp:
    """Spend ``seconds`` of virtual CPU time."""

    seconds: float


@dataclass
class CheckpointOp:
    """Offer the protocol layer a checkpoint opportunity.

    With ``force`` the checkpoint is always taken; otherwise the protocol's
    schedule decides.  Resumes with ``True`` iff a checkpoint was taken.
    """

    force: bool = False


@dataclass
class NowOp:
    """Resumes immediately with the current virtual time."""


@dataclass(frozen=True)
class Status:
    """Reception metadata returned by ``RecvOp(with_status=True)``."""

    source: int
    tag: int
    size: int


class Request:
    """Completion handle for non-blocking operations."""

    __slots__ = ("done", "value", "_waiter", "kind")

    def __init__(self, kind: str):
        self.kind = kind
        self.done = False
        self.value: Any = None
        self._waiter: Callable[[], None] | None = None

    def _complete(self, value: Any) -> None:
        if self.done:
            raise SimulationError("request completed twice")
        self.done = True
        self.value = value
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter()


# ----------------------------------------------------------------------
# Protocol hook interface
# ----------------------------------------------------------------------
class ProtocolHook:
    """Interception points for rollback-recovery protocols.

    The default implementations are pass-throughs; protocols override what
    they need.  One hook instance is attached per process.
    """

    def attach(self, proc: "Proc", world: "World") -> None:
        """Called once when the process is created."""
        self.proc = proc
        self.world = world

    def detach(self) -> None:
        """Called once when the world is closed: forget process and world."""
        self.proc = None
        self.world = None

    # --- send path ----------------------------------------------------
    def send_allowed(self) -> bool:
        """May the application emit a message right now? (recovery gating)"""
        return True

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


@dataclass
class _PostedRecv:
    src: int
    tag: int
    complete: Callable[[Envelope], None]
    seq: int = 0


# ----------------------------------------------------------------------
# The process driver
# ----------------------------------------------------------------------
class Proc:
    """Drives one rank program inside the simulated world."""

    def __init__(self, rank: int, world: "World", hook: ProtocolHook | None = None):
        self.rank = rank
        self.world = world
        self.hook = hook or NullHook()
        self.hook.attach(self, world)
        self.incarnation = 0
        self.alive = True
        self.done = False
        self.paused = False
        #: what the process is blocked on, kept raw because it is set at
        #: every blocking op and read only by :meth:`describe_block`: the
        #: ``RecvOp`` / ``WaitOp`` / ``ComputeOp`` itself, the list of
        #: requests a waitall still waits for, the duration of a
        #: checkpoint write, or the string ``"send-gate"``
        self.blocked_on: Any = None
        self._gen: Generator[Any, Any, Any] | None = None
        self._pending_resume: tuple[Any] | None = None  # boxed value
        self._posted: list[_PostedRecv] = []
        self._post_seq = 0
        self.unexpected: collections.deque[Envelope] = collections.deque()
        # FIFO of sends held back by protocol gating:
        # entries are ("block", SendOp, None) or ("isend", IsendOp, Request)
        self._gated_sends: collections.deque[tuple[str, Any, Request | None]] = (
            collections.deque()
        )
        self.app_messages_sent = 0
        self.app_messages_received = 0

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

        Cancels posted receives and stale continuations by bumping the
        incarnation number; the caller then installs a fresh generator via
        :meth:`start` and (for restores) reinstates the checkpointed
        unexpected-queue via :attr:`unexpected`.
        """
        self.incarnation += 1
        self._gen = None
        self._posted.clear()
        self.unexpected.clear()
        self._pending_resume = None
        self._gated_sends.clear()
        self.blocked_on = None
        self.done = False

    def kill(self) -> None:
        """Fail-stop: the process disappears; in-flight inbound traffic drops."""
        self.alive = False
        self.world.network.purge_inbound(self.rank)
        self.reincarnate()

    # ------------------------------------------------------------------
    # Pause / resume (protocol send-gating and recovery blocking)
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
            inc = self.incarnation
            self.world.engine.call_soon(lambda: self._resume_if_current(inc, value))
        if self._gated_sends and self.hook.send_allowed():
            self.retry_gated_sends()

    def retry_gated_sends(self) -> None:
        """Drain sends that were held back by protocol gating, in order."""
        inc = self.incarnation
        self.world.engine.call_soon(lambda: self._drain_gated_if_current(inc))

    def _drain_gated_if_current(self, incarnation: int) -> None:
        if incarnation != self.incarnation or not self.alive:
            return
        while self._gated_sends and self.hook.send_allowed():
            kind, op, req = self._gated_sends.popleft()
            env = self._make_envelope(op.dst, op.payload, op.tag, op.size)
            self.hook.on_app_send(env)
            cpu = self.world.transmit_app(env)
            self.app_messages_sent += 1
            if kind == "block":
                self.blocked_on = None
                self._schedule_resume(cpu, None)
            else:
                assert req is not None
                req._complete(None)

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _resume_if_current(self, incarnation: int, value: Any) -> None:
        if incarnation != self.incarnation or not self.alive:
            return
        self._advance(value)

    def _schedule_resume(self, delay: float, value: Any) -> None:
        inc = self.incarnation
        self.world.engine.schedule(delay, lambda: self._resume_if_current(inc, value))

    def _advance(self, value: Any, first: bool = False) -> None:
        """Run the generator until it blocks, pauses, or finishes."""
        if self._gen is None or self.done or not self.alive:
            return
        if self.paused:
            self._pending_resume = (value,)
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
                self.blocked_on = None
                self.hook.on_program_done()
                self.world.on_rank_done(self.rank)
                return
            first = False
            self.blocked_on = None
            # Dispatch; handlers return (blocking, value)
            if isinstance(op, SendOp):
                self._handle_send(op)
                return  # _handle_send always resumes via the engine (or gates)
            elif isinstance(op, RecvOp):
                matched = self._try_match(op.src, op.tag)
                if matched is not None:
                    value = self._recv_value(matched, op.with_status)
                    continue
                self._post_recv(op.src, op.tag, self._make_recv_completer(op.with_status))
                self.blocked_on = op
                return
            elif isinstance(op, IsendOp):
                value = self._handle_isend(op)
                continue
            elif isinstance(op, IrecvOp):
                value = self._handle_irecv(op)
                continue
            elif isinstance(op, WaitOp):
                req = op.request
                if req.done:
                    value = req.value
                    continue
                self._wait_request(req)
                self.blocked_on = op
                return
            elif isinstance(op, WaitallOp):
                pending = [r for r in op.requests if not r.done]
                if not pending:
                    value = [r.value for r in op.requests]
                    continue
                self._wait_all(op.requests, pending)
                self.blocked_on = pending
                return
            elif isinstance(op, ComputeOp):
                if op.seconds < 0:
                    raise SimulationError("negative compute time")
                self._schedule_resume(op.seconds, None)
                self.blocked_on = op
                return
            elif isinstance(op, CheckpointOp):
                taken, duration = self._handle_checkpoint(op)
                if duration > 0:
                    # checkpoint writes consume process time (I/O model)
                    self._schedule_resume(duration, taken)
                    self.blocked_on = duration
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
    def _make_envelope(self, dst: int, payload: Any, tag: int, size: int) -> Envelope:
        if tag <= CONTROL_TAG_BASE:
            raise SimulationError(
                f"tag {tag} is reserved for the protocol control plane"
            )
        return Envelope(
            src=self.rank, dst=dst, tag=tag, payload=payload, size=size,
            src_incarnation=self.incarnation,
        )

    def _can_send_now(self) -> bool:
        return not self._gated_sends and self.hook.send_allowed()

    def _handle_send(self, op: SendOp) -> None:
        if not self._can_send_now():
            self._gated_sends.append(("block", op, None))
            self.blocked_on = "send-gate"
            return
        env = self._make_envelope(op.dst, op.payload, op.tag, op.size)
        self.hook.on_app_send(env)
        cpu = self.world.transmit_app(env)
        self.app_messages_sent += 1
        self._schedule_resume(cpu, None)

    def _handle_isend(self, op: IsendOp) -> Request:
        # Buffered non-blocking send: the request completes once the message
        # is accepted by the network; protocol gating may delay that.
        req = Request("isend")
        if not self._can_send_now():
            self._gated_sends.append(("isend", op, req))
            return req
        env = self._make_envelope(op.dst, op.payload, op.tag, op.size)
        self.hook.on_app_send(env)
        self.world.transmit_app(env)
        self.app_messages_sent += 1
        req._complete(None)
        return req

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _matches(self, env: Envelope, src: int, tag: int) -> bool:
        return (src == ANY_SOURCE or env.src == src) and (tag == ANY_TAG or env.tag == tag)

    def _try_match(self, src: int, tag: int) -> Envelope | None:
        for i, env in enumerate(self.unexpected):
            if self._matches(env, src, tag):
                del self.unexpected[i]
                return env
        return None

    def _recv_value(self, env: Envelope, with_status: bool) -> Any:
        self.app_messages_received += 1
        if with_status:
            return env.payload, Status(env.src, env.tag, env.size)
        return env.payload

    def _make_recv_completer(self, with_status: bool) -> Callable[[Envelope], None]:
        inc = self.incarnation

        def complete(env: Envelope) -> None:
            value = self._recv_value(env, with_status)
            if self.paused:
                self._pending_resume = (value,)
            else:
                self.world.engine.call_soon(lambda: self._resume_if_current(inc, value))

        return complete

    def _post_recv(self, src: int, tag: int, complete: Callable[[Envelope], None]) -> None:
        self._post_seq += 1
        self._posted.append(_PostedRecv(src, tag, complete, self._post_seq))

    def _handle_irecv(self, op: IrecvOp) -> Request:
        req = Request("irecv")
        matched = self._try_match(op.src, op.tag)
        if matched is not None:
            req._complete(matched.payload)
            self.app_messages_received += 1
            return req

        def complete(env: Envelope) -> None:
            self.app_messages_received += 1
            req._complete(env.payload)

        self._post_recv(op.src, op.tag, complete)
        return req

    def _wait_request(self, req: Request) -> None:
        inc = self.incarnation

        def waiter() -> None:
            if self.paused:
                self._pending_resume = (req.value,)
            else:
                self.world.engine.call_soon(lambda: self._resume_if_current(inc, req.value))

        req._waiter = waiter

    def _wait_all(self, all_reqs: list[Request], pending: list[Request]) -> None:
        inc = self.incarnation
        remaining = {id(r) for r in pending}

        def make_waiter(r: Request) -> Callable[[], None]:
            def waiter() -> None:
                remaining.discard(id(r))
                if not remaining:
                    values = [x.value for x in all_reqs]
                    if self.paused:
                        self._pending_resume = (values,)
                    else:
                        self.world.engine.call_soon(
                            lambda: self._resume_if_current(inc, values)
                        )

            return waiter

        for r in pending:
            r._waiter = make_waiter(r)

    # ------------------------------------------------------------------
    # Inbound delivery (called by World)
    # ------------------------------------------------------------------
    def deliver(self, env: Envelope) -> None:
        """Accept an inbound application envelope.

        The protocol hook sees it first and may suppress it (duplicates);
        otherwise it matches a posted receive or joins the unexpected queue.
        """
        if not self.alive:
            return
        if not self.hook.on_message(env):
            return
        for i, posted in enumerate(self._posted):
            if self._matches(env, posted.src, posted.tag):
                del self._posted[i]
                posted.complete(env)
                return
        self.unexpected.append(env)

    def deliver_to_app(self, env: Envelope) -> None:
        """Deliver an envelope to the application, bypassing the hook.

        Used by protocols that buffer and re-order deliveries themselves
        (e.g. pessimistic message logging replaying in determinant order).
        """
        if not self.alive:
            return
        for i, posted in enumerate(self._posted):
            if self._matches(env, posted.src, posted.tag):
                del self._posted[i]
                posted.complete(env)
                return
        self.unexpected.append(env)

    def deliver_control(self, env: Envelope) -> None:
        if not self.alive:
            return
        self.hook.on_control(env)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _handle_checkpoint(self, op: CheckpointOp) -> tuple[bool, float]:
        """Returns ``(taken, write_duration)``; the hook may charge I/O time."""
        if not (op.force or self.hook.checkpoint_due()):
            return False, 0.0
        if self._posted:
            raise SimulationError(
                f"rank {self.rank}: checkpoint with outstanding receives is unsupported"
            )
        duration = self.hook.on_checkpoint() or 0.0
        return True, float(duration)

    # ------------------------------------------------------------------
    def describe_block(self) -> str:
        """The ``DeadlockError`` diagnostic for this rank."""
        if self.done:
            return "done"
        on = self.blocked_on
        if on is None:
            return "runnable"
        if isinstance(on, RecvOp):
            return f"recv(src={on.src}, tag={on.tag})"
        if isinstance(on, WaitOp):
            return f"wait({on.request.kind})"
        if isinstance(on, list):
            return f"waitall({len(on)} pending)"
        if isinstance(on, ComputeOp):
            return f"compute({on.seconds:g}s)"
        if isinstance(on, float):
            return f"checkpoint-write({on:g}s)"
        return on

    def close(self) -> None:
        """Drop the execution and sever the back-references (the world is
        being closed); the counters stay readable."""
        self._gen = None
        self._posted.clear()
        self._gated_sends.clear()
        self._pending_resume = None
        self.hook.detach()
        self.world = None

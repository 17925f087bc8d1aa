"""The :class:`World`: engine + network + processes wired together.

``World`` is the top-level entry point of the substrate.  It owns the
event engine, the network, one :class:`~repro.simmpi.process.Proc` per
rank, one rank program per rank (created by a user factory) and the
tracer.  Fault-tolerance protocols plug in through per-rank hooks created
by ``hook_factory``; the plain world (no factory) runs without any fault
tolerance, which is what the native-performance baselines measure.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import DeadlockError, SimulationError
from .api import MpiApi
from .engine import Engine
from .message import Envelope, retention_copy
from .network import Network, TimingModel
from .process import NullHook, Proc, ProtocolHook
from .trace import Tracer

__all__ = ["World"]


class World:
    """A simulated machine running ``nprocs`` ranks.

    Parameters
    ----------
    nprocs:
        Number of MPI ranks.
    program_factory:
        ``f(rank, size) -> RankProgram`` building each rank's program (any
        object with ``run(api) -> generator``, ``snapshot()`` and
        ``restore(state)``; see :class:`repro.apps.base.RankProgram`).
    timing:
        Network cost model (defaults to the Myri-10G-calibrated model).
    hook_factory:
        ``f(rank) -> ProtocolHook`` creating the per-rank protocol hook.
    copy_payloads:
        Deep-copy *mutable* payloads at send time so sender-side buffer
        reuse cannot corrupt in-flight messages.  Immutable payloads
        (ints, floats, strings, bytes, tuples of immutables, ``None``) are
        never copied under either setting — sharing them is always safe.
        The rank programs in :mod:`repro.apps` all hand fresh buffers to
        ``send`` and never mutate them afterwards, so the default ``False``
        is zero-copy end to end; the protocol layer makes its own retention
        copies when an envelope enters the sender-based log or a checkpoint
        (copy-on-log — see :func:`repro.simmpi.message.retention_copy`).
        Enable only for programs that recycle send buffers in place.
    obs:
        Optional :class:`repro.obs.MetricsRegistry`; threaded into the
        engine, network and processes, whose counters it reads.  ``None``
        (the default) keeps the sampled histograms off too.
    record_sequences:
        Keep the tracer's per-message send / deliver log (a digest and two
        records per application message).  Whoever reads it after the run
        — :func:`repro.analysis.compare_executions`, the chaos oracles,
        ``certify --dynamic`` — arms it here; reading an unarmed log raises.
    """

    def __init__(
        self,
        nprocs: int,
        program_factory: Callable[[int, int], Any],
        timing: TimingModel | None = None,
        hook_factory: Callable[[int], ProtocolHook] | None = None,
        copy_payloads: bool = False,
        network_seed: int = 0,
        obs: Any = None,
        record_sequences: bool = False,
    ):
        if nprocs < 1:
            raise SimulationError("need at least one rank")
        self.nprocs = nprocs
        self.obs = obs
        self.engine = Engine(obs=obs)
        self.network = Network(self.engine, timing, seed=network_seed, obs=obs)
        #: every envelope and ack of this world draws its uid here, so a
        #: world numbers alike whatever the interpreter built before it
        self.next_uid = self.network.next_uid
        self.tracer = Tracer(nprocs, record_sequences)
        self.copy_payloads = copy_payloads
        self.programs = [program_factory(rank, nprocs) for rank in range(nprocs)]
        self.apis = [MpiApi(rank, nprocs) for rank in range(nprocs)]
        self.procs: list[Proc] = []
        for rank in range(nprocs):
            hook = hook_factory(rank) if hook_factory is not None else NullHook()
            proc = Proc(rank, self, hook)
            self.procs.append(proc)
            self.network.attach(rank, proc.receive, proc.deliver_ack)
        if obs is not None:
            # engine.events_dispatched of the two callbacks posted raw, from
            # counts kept anyway: a delivery, an envelope's or an ack's, is a
            # Network._deliver, and any other dispatch the handle APIs did
            # not count is a Proc._resume_if_current, the one other raw post
            engine, network = self.engine, self.network
            deliver = (Network._deliver.__qualname__,)
            resume = (Proc._resume_if_current.__qualname__,)
            obs.derive(self, "engine.events_dispatched", lambda: [
                (label, n) for label, n in (
                    (deliver, network.messages_delivered),
                    (resume, engine.events_dispatched - engine.events_counted
                     - network.messages_delivered)) if n], ("callback",))

    # ------------------------------------------------------------------
    def launch(self) -> None:
        """Create and schedule every rank program's generator."""
        for rank, proc in enumerate(self.procs):
            proc.start(self.programs[rank].run(self.apis[rank]))

    # ------------------------------------------------------------------
    # Transmission entry points
    # ------------------------------------------------------------------
    def transmit_app(self, env: Envelope) -> float:
        """Send an application envelope; returns sender CPU time."""
        if self.copy_payloads:
            # defensive mode for buffer-recycling programs: immutable
            # payloads still travel zero-copy (retention_copy shares them)
            env.payload = retention_copy(env.payload)
        self.tracer.on_app_send(env, is_replay_dup=bool(env.meta.get("replayed")))
        return self.network.transmit(env)

    def transmit_control(self, env: Envelope) -> float:
        """Send a control-plane envelope (protocol internal traffic)."""
        if not env.is_control:
            raise SimulationError("transmit_control requires a control tag")
        return self.network.transmit(env)

    @property
    def all_done(self) -> bool:
        return all(p.done for p in self.procs)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Run the simulation; returns the final virtual time.

        Run to quiescence (no ``until``), a world with unfinished programs
        raises :class:`DeadlockError` carrying per-rank blocking
        diagnostics — the single most useful debugging signal when a
        protocol gates a send it should have released.
        """
        self.engine.run(until=until)
        if until is None and not self.all_done:
            blocked = {
                p.rank: p.describe_block() for p in self.procs if not p.done
            }
            raise DeadlockError(
                f"simulation quiesced with {len(blocked)} unfinished ranks", blocked
            )
        return self.engine.now

    def close(self) -> None:
        """Sever the back-references of a finished world.

        World, processes, hooks and the network's receivers all point at
        each other, so a world its owner merely drops lingers until the
        cyclic collector's next full pass — and :meth:`Engine.run` pauses
        the collector, so there may be none for a long while.  Whoever
        built the world calls this (in a ``finally``) once it has read its
        results: the heap is then freed by reference count as the owner's
        names go.  Programs, tracer and every counter stay readable; the
        world cannot run again.
        """
        self.engine.close()
        self.network.close()
        for proc in self.procs:
            proc.close()
        if self.obs is not None:
            self.obs.settle(self)

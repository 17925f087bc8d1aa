"""Fault-tolerance controller: wires the protocol into the simulator.

:class:`Controller` and :func:`build_world` are the lifecycle every
protocol in the repo shares, the baselines included — one hook per rank,
one world, one failure injector feeding ``on_failures`` — so a protocol is
a :class:`~repro.simmpi.process.ProtocolHook` plus a recovery policy.

:class:`FTController`, the paper's protocol, owns what, on a real cluster,
is spread across the runtime
environment: the checkpoint store (stable storage), the per-rank checkpoint
schedules, the recovery process, failure detection and process restart.

Failure orchestration
---------------------
On a fail-stop failure the controller

1. kills the failed ranks (their execution and in-flight inbound traffic
   are lost — the substrate purges the network),
2. pauses the survivors (the paper's block on the Rollback notification)
   and lets the network *drain* — recovery bookkeeping starts at the
   delivery of the last in-flight message or acknowledgement.  This models
   a perfect failure detector plus channel flush; it guarantees the
   collected ``SPE`` tables and ``NonAck`` sets are consistent (see
   DESIGN.md §5.3),
3. restores each failed rank from its latest checkpoint and triggers the
   paper's message flow: Rollback broadcast → SPE upload → recovery-line
   computation → orphan notification → phase-gated replay (Figs. 3-4).

The round settles when the last protocol reports it is Running with an
empty replay queue.  Failures arriving while a recovery round is in flight
are queued and handled as a subsequent round (the paper treats concurrent
failures within a round; cascading failures across rounds compose because
a recovered state is indistinguishable from a normal one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ProtocolError
from ..obs.flight import FlightKind
from ..simmpi.failure import FailureInjector
from ..simmpi.message import Envelope, retention_copy
from ..simmpi.runtime import World
from ..simmpi.process import ProtocolHook
from .checkpoint import (Checkpoint, CheckpointSchedule, CheckpointStore,
                         ProcessImage, StorageDevice, restart_rank)
from .protocol import SDProtocol, Status
from .recovery import RecoveryProcess, RecoveryReport

__all__ = ["EPOCH_SPACING", "ProtocolConfig", "Controller", "FTController",
           "build_world", "build_ft_world"]

#: clusters start this many epochs apart — the paper's value, so a
#: cluster checkpoint never equalises two clusters' epochs
EPOCH_SPACING = 2


@dataclass
class ProtocolConfig:
    """Knobs for the protocol and its checkpointing policy.

    ``cluster_of`` maps each rank to a cluster index; clusters receive
    starting epochs separated by :data:`EPOCH_SPACING` and their
    checkpoint schedules are staggered by ``cluster_stagger`` seconds.
    """

    checkpoint_interval: float | None = None
    checkpoint_jitter: float = 0.0
    checkpoint_seed: int = 0
    cluster_of: list[int] | None = None
    #: explicit cluster -> initial epoch map (e.g. from
    #: :meth:`repro.core.clustering.Clustering.initial_epochs` after an
    #: epoch reconfiguration); derived from :data:`EPOCH_SPACING` when
    #: absent
    cluster_epochs: dict[int, int] | None = None
    cluster_stagger: float = 0.0
    rank_stagger: float = 0.0
    #: watchdog period for the recovery stall-breaker (virtual seconds);
    #: two consecutive ticks without progress trigger a replay flush
    stall_timeout: float = 1e-3
    #: skip deep app-state snapshots and checkpoint storage — only valid
    #: for failure-free analysis runs (Table I methodology) where
    #: checkpoints are never restored; epoch/SPE bookkeeping still runs
    lightweight: bool = False
    #: keep message payloads in NonAck/Logs (needed for replay); analysis
    #: runs that never recover can disable it to save time and memory
    retain_payloads: bool = True
    #: disable the epoch-crossing logging rule entirely.  This degrades the
    #: protocol to *plain uncoordinated checkpointing*: every message goes
    #: into SPE, so the recovery-line fix-point cascades freely — the
    #: domino effect of Section V-E-2 becomes observable.
    log_cross_epoch: bool = True
    #: checkpoint I/O model (Section I's burst argument): writing a
    #: checkpoint stalls the process for ``size / bandwidth`` seconds, and
    #: concurrent writers serialise on the one shared device — which is
    #: what makes coordinated bursts expensive.  0 disables.
    checkpoint_size_bytes: int = 0
    storage_bandwidth: float = 1e9

    def cluster(self, rank: int) -> int:
        return 0 if self.cluster_of is None else self.cluster_of[rank]

    def initial_epoch(self, rank: int) -> int:
        cluster = self.cluster(rank)
        if self.cluster_epochs is not None:
            return self.cluster_epochs[cluster]
        return 1 + EPOCH_SPACING * cluster

    def make_schedule(self, rank: int) -> CheckpointSchedule:
        """A fresh schedule per call: its jitter draws replay from the seed."""
        return CheckpointSchedule(
            interval=self.checkpoint_interval,
            offset=self.cluster_stagger * self.cluster(rank)
            + self.rank_stagger * rank,
            jitter=self.checkpoint_jitter,
            seed=self.checkpoint_seed * 7919 + rank,
        )


class Controller:
    """The part of a protocol's controller that is the same for all of
    them: per-rank hooks, world binding, failure wiring, statistics.

    A subclass fills ``self.hooks`` (one :class:`ProtocolHook` per rank)
    in its constructor and implements :meth:`on_failures`.
    """

    def __init__(self, nprocs: int, config: Any):
        self.nprocs = nprocs
        self.config = config
        self.hooks: list[Any] = []
        self.world: World | None = None
        self.injector: FailureInjector | None = None
        #: number of ranks rolled back by each failure recovered so far
        self.rolled_back_history: list[int] = []

    def hook_for(self, rank: int) -> ProtocolHook:
        return self.hooks[rank]

    def bind(self, world: World) -> None:
        """Attach to the world (whose procs already carry the hooks)."""
        self.world = world
        self.injector = FailureInjector(world, self.on_failures)

    def close(self) -> None:
        """Close the world and sever the controller's own back-references
        (hook -> controller, injector -> handler).

        The owner of a ``(world, controller)`` pair calls this in a
        ``finally`` once the run is over, so the pair is freed by reference
        count when the owner lets go — see :meth:`World.close`.  The closed
        world stays attached: hooks, reports and :meth:`logging_stats`
        remain readable.
        """
        if self.world is not None:
            self.world.close()
        if self.injector is not None:
            self.injector.close()
        for hook in self.hooks:
            hook.controller = None

    def on_failures(self, ranks: list[int]) -> None:
        raise ProtocolError(f"{type(self).__name__} implements no recovery")

    def when_drained(self, then: Callable[[], None]) -> None:
        """Run ``then`` now if nothing is in flight, else from the delivery
        that empties the network; clearing ``network.on_drained`` abandons."""
        assert self.world is not None
        if self.world.network.in_flight_count():
            self.world.network.on_drained = then
        else:
            then()

    def inject_failure(self, time: float, rank: int) -> None:
        assert self.injector is not None
        self.injector.at(time, rank)

    def arm(self) -> None:
        assert self.injector is not None
        self.injector.arm()

    def logging_stats(self) -> dict[str, float]:
        """Aggregate logging statistics (Table I inputs); a protocol whose
        hooks keep no message log reports zero."""
        assert self.world is not None
        logged = sum(getattr(h, "messages_logged", 0) for h in self.hooks)
        logged_bytes = sum(getattr(h, "bytes_logged", 0) for h in self.hooks)
        total = self.world.tracer.total_app_messages()
        return {
            "messages_logged": logged,
            "bytes_logged": logged_bytes,
            "messages_total": total,
            "log_fraction": (logged / total) if total else 0.0,
        }


class FTController(Controller):
    """Per-world fault-tolerance services shared by all rank protocols."""

    def __init__(self, nprocs: int, config: ProtocolConfig | None = None,
                 obs: Any = None):
        super().__init__(nprocs, config or ProtocolConfig())
        if self.config.cluster_of is not None and len(self.config.cluster_of) != nprocs:
            raise ProtocolError("cluster_of must map every rank")
        self.obs = obs
        if obs is not None:
            # checkpoints fire per rank on every interval — slot-resolve the
            # per-rank series up front (rank cardinality is known here)
            ckpt = obs.counter("checkpoint.stored", ("rank",))
            self._ckpt_cells = [ckpt.slot((r,)) for r in range(nprocs)]
        self.store = CheckpointStore(nprocs)
        self.protocols: list[SDProtocol] = [SDProtocol(r, self) for r in range(nprocs)]
        self.hooks = self.protocols
        self.recovery = RecoveryProcess(self)
        self.recovery_rank = nprocs  # pseudo-rank on the network
        self.round = 0
        self._pending_failures: deque[list[int]] = deque()
        self._round_in_progress = False
        #: protocols not Running with an empty replay queue (once settling)
        self._unsettled = 0
        self._stall_sig: tuple = ()
        self._stall_flushed_round = -1
        self._watchdog: tuple[list, int] | None = None  # (bucket, index)
        self.stall_flushes = 0
        self.stall_releases = 0
        self.recovery_reports: list[RecoveryReport] = []
        #: a mid-round collect_garbage(defer=True) call parked here; runs
        #: once the last queued round settles
        self._gc_deferred = False
        self.storage = StorageDevice(self.config.storage_bandwidth)
        #: accumulated per-rank time spent writing checkpoints
        self.checkpoint_write_time: float = 0.0
        #: cumulative payload bytes reclaimed from message logs by GC —
        #: with cumulative ``bytes_logged`` this yields bytes currently
        #: held as ``logged - reclaimed`` in O(1), no log walk
        self.log_bytes_reclaimed: int = 0

    # ------------------------------------------------------------------
    # World wiring
    # ------------------------------------------------------------------
    def bind(self, world: World) -> None:
        """Attach to the world: recovery pseudo-rank, injector, initial
        checkpoints (every rank's epoch begins with one — the initial state
        is the implicit first checkpoint, so 'restart from the beginning'
        is always representable)."""
        super().bind(world)
        world.network.attach(self.recovery_rank, self.recovery.receive)
        if self.obs is not None:
            ts = self.obs.timeseries
            if ts is not None and ts.engine is world.engine:
                self._register_timeseries(ts)
        for rank in range(self.nprocs):
            self.store_checkpoint(rank)

    def close(self) -> None:
        super().close()
        self.recovery.controller = None
        self._watchdog = None

    def _register_timeseries(self, ts: Any) -> None:
        """Protocol/recovery curves for the virtual-time series recorder.

        Every reader is O(nprocs) per grid point (attribute sums and
        ``len()`` over the state dicts) — never a per-message walk — so the
        recorder's cost scales with the sampling grid, not event count.
        """
        protocols = self.protocols
        recovery = self.recovery
        ts.probe("log.bytes_logged",
                 lambda: sum(p.bytes_logged for p in protocols),
                 kind="counter")
        ts.probe("log.bytes_reclaimed",
                 lambda: self.log_bytes_reclaimed, kind="counter")
        ts.probe("log.bytes_held",
                 lambda: sum(p.bytes_logged for p in protocols)
                 - self.log_bytes_reclaimed)
        ts.probe("log.messages_held",
                 lambda: sum(len(p.state.logs) for p in protocols))
        ts.probe("protocol.non_acked",
                 lambda: sum(len(p.state.non_ack) for p in protocols))
        # recovery-line size: ranks in the line once the SPE has computed
        # and published it for the active round, zero when quiescent
        ts.probe("recovery.line_size",
                 lambda: len(recovery._rl)
                 if recovery.active and recovery._rl_sent else 0)
        stored = self.obs.counter("checkpoint.stored", ("rank",))
        ts.probe("checkpoint.stored", lambda: stored.total, kind="counter")

    @property
    def now(self) -> float:
        assert self.world is not None
        return self.world.engine.now

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def store_checkpoint(self, rank: int) -> None:
        """Capture (app snapshot, library queue, protocol state) for the
        epoch that is beginning now on ``rank``."""
        assert self.world is not None
        proto = self.protocols[rank]
        world = self.world
        epoch = proto.state.epoch
        if self.obs is not None:
            self._ckpt_cells[rank].n += 1
        if self.config.lightweight:
            # epoch bookkeeping already advanced (begin_epoch); analysis
            # runs never restore, so skip the expensive state capture
            self.store.checkpoints_taken += 1
        else:
            self.store.add(Checkpoint(
                rank=rank, epoch=epoch, time=world.engine.now,
                image=ProcessImage.capture(world, rank),
                proto=proto.state.checkpoint_copy(),
            ))
        world.tracer.on_mark("checkpoint", rank, world.engine.now, (epoch,))

    def checkpoint_write_stall(self) -> float:
        """Process-visible duration of the checkpoint write (I/O model):
        the queueing delay on the shared device plus this rank's own
        transfer."""
        nbytes = self.config.checkpoint_size_bytes
        if not nbytes:
            return 0.0
        stall = self.storage.reserve(self.now, nbytes) - self.now
        self.checkpoint_write_time += stall
        return stall

    # ------------------------------------------------------------------
    # Control-plane plumbing for the recovery process
    # ------------------------------------------------------------------
    def broadcast_control(self, tag: int, payload: dict[str, Any]) -> None:
        assert self.world is not None
        for rank in range(self.nprocs):
            env = Envelope(src=self.recovery_rank, dst=rank, tag=tag,
                           payload=retention_copy(payload),
                           uid=self.world.next_uid())
            self.world.transmit_control(env)

    # ------------------------------------------------------------------
    # Failure orchestration
    # ------------------------------------------------------------------
    def on_failures(self, ranks: list[int]) -> None:
        # A round is "in progress" from the first kill until the last
        # protocol reports it is Running again — strictly wider than
        # ``recovery.active`` (Fig. 4's message exchange only), because
        # failures during the drain or settle windows must queue too.
        if self._round_in_progress or self._pending_failures:
            self._pending_failures.append(ranks)
            return
        self._start_round(ranks)

    def _start_round(self, ranks: list[int]) -> None:
        assert self.world is not None
        world = self.world
        self._round_in_progress = True
        self.round += 1
        if self.obs is not None:
            self.obs.counter("recovery.failures").inc(len(ranks))
            flight = self.obs.flight
            if flight is not None:
                for r in sorted(ranks):
                    flight.record(r, FlightKind.FAILURE,
                                  epoch_send=self.protocols[r].state.epoch,
                                  phase=self.protocols[r].state.phase,
                                  extra=self.round)
        for r in ranks:
            world.procs[r].kill()
        # Pause survivors (perfect failure detection) and drain the network
        # so SPE/NonAck are quiescently consistent before recovery starts.
        for rank in range(self.nprocs):
            if rank not in ranks:
                world.procs[rank].pause()
        self.when_drained(lambda: self._begin_recovery(ranks))

    def _begin_recovery(self, failed: list[int]) -> None:
        assert self.world is not None
        self.recovery.begin_round(self.round, failed, self.now)
        for r in failed:
            self.world.engine.call_soon(lambda rr=r: self._restart_failed(rr))
        self._arm_stall_watchdog()

    # ------------------------------------------------------------------
    # Stall watchdog (cross-branch phase-skew rescue — DESIGN.md §7.3)
    # ------------------------------------------------------------------
    def _progress_signature(self) -> tuple:
        assert self.world is not None
        return (
            self.recovery._next_ready,
            self.world.network.messages_sent,
            sum(p.messages_suppressed + p.messages_replayed for p in self.protocols),
        )

    def _arm_stall_watchdog(self) -> None:
        assert self.world is not None
        self._stall_sig = self._progress_signature()
        round_no = self.round
        bucket = self.world.engine.schedule(
            self.config.stall_timeout, lambda: self._check_stall(round_no)
        )
        self._watchdog = (bucket, len(bucket) - 2)

    def _check_stall(self, round_no: int) -> None:
        assert self.world is not None
        if round_no != self.round or not self._round_in_progress:
            return
        sig = self._progress_signature()
        if sig != self._stall_sig:
            self._arm_stall_watchdog()
            return
        if self._stall_flushed_round != round_no:
            # Step 1: phase skew across execution branches — release every
            # pending replay (ordering-safe, see SDProtocol.flush_replays)
            # and let the orphan countdown resume.
            self._stall_flushed_round = round_no
            self.stall_flushes += 1
            if self.obs is not None:
                self.obs.counter("recovery.stall_flushes").inc()
            for proto in self.protocols:
                proto.flush_replays()
            self._arm_stall_watchdog()
            return
        # Step 2: the wait cycle runs through a process release (an orphan's
        # re-sender needs traffic from a still-gated process).  Releasing a
        # gated process early is ordering-safe once replays are flushed:
        # everything a rolled-back peer needs from it is already on the
        # wire, so its re-executed/new sends follow them in channel order.
        # Release the lowest-registered one per tick (mirrors the phase
        # ordering the notifications would have used).
        stuck = [p for p in self.protocols if p.status is not Status.RUNNING]
        if not stuck:
            raise ProtocolError(
                f"recovery round {round_no} stalled with every process "
                f"running — outstanding orphans will never drain"
            )
        target = min(
            stuck,
            key=lambda p: (
                p._reported_phase if p._reported_phase is not None else 1 << 30,
                p.rank,
            ),
        )
        target._reported_phase = None
        target.set_running()
        self.stall_releases += 1
        if self.obs is not None:
            self.obs.counter("recovery.stall_releases").inc()
        self._arm_stall_watchdog()

    def _restart_failed(self, rank: int) -> None:
        """Fig. 3 lines 47-52: restore the failed rank from its latest
        checkpoint, then let its protocol broadcast Rollback and upload SPE."""
        latest = self.store.latest(rank)
        self._install_checkpoint(rank, latest, was_killed=True)
        self.protocols[rank].begin_recovery_as_failed(self.round)

    def restore_rank(self, rank: int, epoch: int) -> None:
        """Roll a live rank back to the checkpoint beginning ``epoch``
        (recovery-line application, Fig. 3 lines 59-61)."""
        if self.config.lightweight:
            raise ProtocolError(
                "cannot restore checkpoints in lightweight mode (no app snapshots)"
            )
        ckpt = self.store.get(rank, epoch)
        self._install_checkpoint(rank, ckpt, was_killed=False)

    def _install_checkpoint(self, rank: int, ckpt: Checkpoint, was_killed: bool) -> None:
        assert self.world is not None
        world = self.world
        restart_rank(world, rank, ckpt.image, killed=was_killed)
        # the restarted program's first step is queued, not run: it stays
        # paused until the recovery round releases it
        world.procs[rank].pause()
        self.store.discard_above(rank, ckpt.epoch)
        self.protocols[rank].adopt_state(ckpt.proto.checkpoint_copy())
        world.tracer.on_mark("restore", rank, world.engine.now, (ckpt.epoch,))
        if self.obs is not None:
            self.obs.counter("recovery.restores", ("rank",)).inc(labels=(rank,))
            if self.obs.flight is not None:
                self.obs.flight.record(rank, FlightKind.RESTORE,
                                       epoch_send=ckpt.epoch,
                                       extra=was_killed)

    def on_recovery_complete(self, report: RecoveryReport) -> None:
        """The recovery process notified every phase.  Notifications may
        still be in flight; a queued failure round must not start before
        every process is Running and every replay list drained, otherwise
        the new round's bookkeeping would race the old round's messages."""
        self.recovery_reports.append(report)
        self.rolled_back_history.append(len(report.rolled_back))
        # the recovery process counts as one more, and it has just finished
        self._unsettled = 1 + sum(
            p.status is not Status.RUNNING or bool(p.replay)
            for p in self.protocols)
        self.protocol_settled()

    def protocol_settled(self) -> None:
        """A protocol became Running with an empty replay queue."""
        if self._round_in_progress and not self.recovery.active:
            self._unsettled -= 1
            if not self._unsettled:
                # its own event: a notice from inside a watchdog tick must
                # not start the next round in the middle of that tick
                assert self.world is not None
                self.world.engine.call_soon(self._settled)

    def _settled(self) -> None:
        assert self.world is not None
        self._round_in_progress = False
        if self._watchdog is not None:
            # the round settled: a pending watchdog tick would only keep the
            # event queue alive (and inflate measured durations)
            self.world.engine.cancel(*self._watchdog)
            self._watchdog = None
        # a queued batch may be all-dead by now (its ranks failed again in
        # a later batch that already recovered them, then died for good);
        # skipping it must not strand the batches queued behind it
        while self._pending_failures:
            ranks = self._pending_failures.popleft()
            alive = [r for r in ranks if self.world.procs[r].alive]
            if alive:
                self._start_round(alive)
                return
        if self._gc_deferred:
            self._gc_deferred = False
            self.collect_garbage()

    # ------------------------------------------------------------------
    # Garbage collection (Section III-A-4)
    # ------------------------------------------------------------------
    def collect_garbage(self, defer: bool = False) -> dict[str, int] | None:
        """Delete checkpoints and logged messages below the smallest
        current epoch (the paper's periodic global operation).

        The bound is only safe against *committed* epochs: while a recovery
        round is in flight (or queued), rolled-back protocols report the
        transient epochs of the abandoned branch, and the min over them can
        delete logged messages or checkpoints that a queued failure round
        still needs.  Mid-round calls therefore raise
        :class:`~repro.errors.ProtocolError` — or, with ``defer=True``,
        return ``None`` and run automatically once the round (and every
        queued round) has settled.
        """
        if not self.config.log_cross_epoch:
            # without epoch-crossing logging there is no bounded-rollback
            # theorem: the domino can cascade below *any* epoch, so no
            # checkpoint is ever provably dead (found by chaos fuzzing —
            # a post-GC failure needed an epoch the min-epoch bound had
            # already reclaimed)
            raise ProtocolError(
                "collect_garbage() is unsound with log_cross_epoch=False: "
                "plain uncoordinated rollback is unbounded, so the "
                "min-epoch reclamation bound does not exist"
            )
        if self._round_in_progress or self._pending_failures:
            if not defer:
                raise ProtocolError(
                    "collect_garbage() called while a recovery round is in "
                    "flight or queued; the min-epoch bound is unsafe against "
                    "rolled-back epochs (pass defer=True to run after settle)"
                )
            self._gc_deferred = True
            return None
        min_epoch = min(p.state.epoch for p in self.protocols)
        removed_ckpts = self.store.collect_garbage(
            {r: min_epoch for r in range(self.nprocs)}
        )
        removed_logs = 0
        removed_log_bytes = 0
        removed_obs = 0
        for proto in self.protocols:
            count, nbytes = proto.state.drop_logs_below(min_epoch)
            removed_logs += count
            removed_log_bytes += nbytes
            # observation-table entries below the bound can never lift a
            # replay filter above any future recovery line (which is >= the
            # bound), so they are dead weight
            for dst, obs in proto._ack_obs.items():
                stale = [d for d, er in obs.items() if er < min_epoch]
                for d in stale:
                    del obs[d]
                removed_obs += len(stale)
        self.log_bytes_reclaimed += removed_log_bytes
        return {
            "min_epoch": min_epoch,
            "checkpoints_removed": removed_ckpts,
            "logs_removed": removed_logs,
            "log_bytes_removed": removed_log_bytes,
            "observations_removed": removed_obs,
        }


def build_world(
    controller: Controller,
    program_factory: Callable[[int, int], Any],
    obs: Any = None,
    **world_kwargs: Any,
) -> tuple[World, Any]:
    """World + ``controller``, fully wired (for the paper's protocol: with
    every rank's initial checkpoint taken).  Call ``world.launch()`` (and
    ``controller.arm()`` if failures were injected) before ``world.run()``.

    ``obs`` (a :class:`repro.obs.MetricsRegistry`) instruments the whole
    stack — engine, network, protocol and recovery share one registry.
    """
    world = World(
        controller.nprocs, program_factory, hook_factory=controller.hook_for,
        obs=obs, **world_kwargs
    )
    controller.bind(world)
    return world, controller


def build_ft_world(
    nprocs: int,
    program_factory: Callable[[int, int], Any],
    config: ProtocolConfig | None = None,
    obs: Any = None,
    **world_kwargs: Any,
) -> tuple[World, FTController]:
    """:func:`build_world` for the paper's protocol."""
    return build_world(FTController(nprocs, config, obs=obs), program_factory,
                       obs=obs, **world_kwargs)

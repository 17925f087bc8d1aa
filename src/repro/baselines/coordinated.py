"""Coordinated checkpointing baseline (global restart on any failure).

The comparison point of the paper's introduction: coordinated
checkpointing keeps one consistent global snapshot, which makes recovery
trivial (restore everyone, discard nothing else) but forces **every**
process to roll back on any single failure — the energy argument
motivating the paper — and synchronizes all checkpoint I/O into a burst.

Implementation: *blocking boundary coordination* (in the spirit of
Koo–Toueg [12] and the time-coordinated protocol of Neves–Fuchs [14], the
flavours actually deployed in HPC production):

1. the coordinator opens a round and collects every rank's current
   checkpoint-opportunity count;
2. the round's *target boundary* is ``max(counts) + 1``: every rank
   pauses when its opportunity counter reaches the target.  Because the
   kernels are SPMD and offer an opportunity once per iteration, all
   iteration-``T`` traffic is emitted before any rank passes boundary
   ``T``, so every rank can reach the target without post-target messages
   (no coordination deadlock);
3. once all ranks are paused the controller drains the network — any
   cross-iteration straggler lands in the library-level unexpected queue,
   which is part of the snapshot — then snapshots everyone and resumes.

A Chandy–Lamport marker implementation is deliberately *not* used: the
substrate checkpoints at application level (generator boundaries), and CL
requires snapshotting at marker-arrival instants, i.e. mid-iteration
process images, which application-level checkpointing cannot capture.

Recovery restores the most recent completed round on **all** ranks
(``rolled back = 100 %``) and purges the network.  Snapshot parts are
plain :class:`~repro.core.checkpoint.ProcessImage` objects and ranks come
back through :func:`~repro.core.checkpoint.restart_rank` — the same image
and restart the paper's protocol uses; only the policy (everyone, to the
last completed round) is this module's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.checkpoint import ProcessImage, StorageDevice, restart_rank
from ..core.controller import Controller
from ..errors import ProtocolError
from ..simmpi.message import Envelope
from ..simmpi.process import ProtocolHook
from ..simmpi.runtime import World

__all__ = ["CLConfig", "CoordinatedHook", "CLController"]


@dataclass
class CLConfig:
    """Coordinated checkpointing knobs.

    ``snapshot_size_bytes`` enables the checkpoint I/O model: every rank's
    snapshot write serialises on the shared storage device, so a
    coordinated round stalls the whole machine for roughly
    ``P * size / bandwidth`` — the I/O burst of the paper's introduction.
    """

    snapshot_interval: float | None = None
    snapshot_size_bytes: int = 0
    storage_bandwidth: float = 1e9


class CoordinatedHook(ProtocolHook):
    """Per-rank participant: counts opportunities, pauses at the target."""

    def __init__(self, rank: int, controller: "CLController"):
        self.rank = rank
        self.controller = controller
        self.boundary_count = 0
        self.target: int | None = None
        #: application sends so far — stamped on each as its ``date``, the
        #: key the tracer collapses re-executed sends by; rolls back with
        #: the snapshot
        self.date = 0
        #: this rank's part of each kept global snapshot, by round
        self.snapshots: dict[int, tuple[ProcessImage, int]] = {}

    def on_app_send(self, env: Envelope) -> None:
        self.date += 1
        env.meta["date"] = self.date

    # --- boundary detection ------------------------------------------------
    def checkpoint_due(self) -> bool:
        # Every opportunity advances the boundary counter; the coordinated
        # round decides whether this boundary is a pause point.
        self.boundary_count += 1
        return self.target is not None and self.boundary_count >= self.target

    def on_checkpoint(self) -> None:
        self.target = None
        self.proc.pause()
        self.controller.on_rank_at_boundary(self.rank)

    def on_program_done(self) -> None:
        if self.target is not None:
            # cannot reach another boundary; participate with the final state
            self.target = None
            self.controller.on_rank_at_boundary(self.rank)

    # --- snapshot capture (controller-driven, post-drain) --------------------
    def capture(self, round_no: int) -> None:
        self.snapshots[round_no] = (
            ProcessImage.capture(self.world, self.rank), self.date)


class CLController(Controller):
    """Coordinates snapshot rounds and performs global restarts."""

    def __init__(self, nprocs: int, config: CLConfig | None = None):
        super().__init__(nprocs, config or CLConfig())
        self.hooks = [CoordinatedHook(r, self) for r in range(nprocs)]
        self.round = 0
        self.round_active = False
        self._at_boundary: set[int] = set()
        self.completed_rounds: list[int] = []
        self.global_restarts = 0
        self.storage = StorageDevice(self.config.storage_bandwidth)

    @property
    def io_burst_time(self) -> float:
        """Cumulative machine time lost to serialised snapshot writes."""
        return self.storage.busy_time

    def bind(self, world: World) -> None:
        super().bind(world)
        for hook in self.hooks:
            # round 0: the initial state is a trivially consistent snapshot
            hook.capture(0)
        if self.config.snapshot_interval is not None:
            world.engine.schedule_at(self.config.snapshot_interval, self._periodic)

    def _periodic(self) -> None:
        assert self.world is not None and self.config.snapshot_interval is not None
        if self.world.all_done:
            return  # stop the timer or the event queue never drains
        self.trigger_snapshot()
        self.world.engine.schedule(self.config.snapshot_interval, self._periodic)

    # ------------------------------------------------------------------
    # Snapshot rounds
    # ------------------------------------------------------------------
    def trigger_snapshot(self) -> int | None:
        assert self.world is not None
        if self.round_active:
            return None  # one round at a time
        self.round += 1
        self.round_active = True
        self._at_boundary = set()
        target = max(h.boundary_count for h in self.hooks) + 1
        for rank, hook in enumerate(self.hooks):
            if self.world.procs[rank].done:
                self._at_boundary.add(rank)
            else:
                hook.target = target
        if len(self._at_boundary) == self.nprocs:
            self._complete_round()
        return self.round

    def on_rank_at_boundary(self, rank: int) -> None:
        if not self.round_active:
            return
        self._at_boundary.add(rank)
        if len(self._at_boundary) == self.nprocs:
            self.when_drained(self._complete_round)

    def _complete_round(self) -> None:
        assert self.world is not None
        now = self.world.engine.now
        nbytes = self.config.snapshot_size_bytes
        for rank, hook in enumerate(self.hooks):
            hook.capture(self.round)
            hook.snapshots = {
                r: s for r, s in hook.snapshots.items()
                if r >= self.round - 1 or r == 0
            }  # keep previous round until this one is fully durable
            if nbytes:
                # every rank's write serialises on the shared device; the
                # whole machine is paused until its own write lands — the
                # coordinated I/O burst
                self.world.engine.schedule_at(
                    self.storage.reserve(now, nbytes),
                    lambda r=rank: self.world.procs[r].unpause()
                )
            else:
                self.world.procs[rank].unpause()
        self.completed_rounds.append(self.round)
        self.round_active = False

    # ------------------------------------------------------------------
    # Failure handling: global restart
    # ------------------------------------------------------------------
    def on_failures(self, ranks: list[int]) -> None:
        """Restore the last completed global snapshot on *every* rank."""
        assert self.world is not None
        world = self.world
        self.global_restarts += 1
        self.rolled_back_history.append(self.nprocs)
        self.round_active = False
        world.network.on_drained = None  # a round caught mid-drain is abandoned
        world.network.purge_all()
        restore_round = self.completed_rounds[-1] if self.completed_rounds else 0
        for rank, hook in enumerate(self.hooks):
            hook.target = None
            snap = hook.snapshots.get(restore_round)
            if snap is None:
                raise ProtocolError(
                    f"rank {rank} lacks snapshot for round {restore_round}"
                )
            image, hook.date = snap
            restart_rank(world, rank, image, killed=rank in ranks)
        self.round = restore_round

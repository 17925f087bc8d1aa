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
(``rolled back = 100 %``) and purges the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError, SimulationError
from ..simmpi.failure import FailureInjector
from ..simmpi.message import Envelope
from ..simmpi.process import ProtocolHook
from ..simmpi.runtime import World

__all__ = ["CLConfig", "CoordinatedHook", "CLController", "build_cl_world"]


@dataclass
class CLConfig:
    """Coordinated checkpointing knobs.

    ``snapshot_size_bytes`` enables the checkpoint I/O model: every rank's
    snapshot write serialises on the shared storage device, so a
    coordinated round stalls the whole machine for roughly
    ``P * size / bandwidth`` — the I/O burst of the paper's introduction.
    """

    snapshot_interval: float | None = None
    first_snapshot_at: float | None = None
    snapshot_size_bytes: int = 0
    storage_bandwidth: float = 1e9


@dataclass
class _GlobalSnapshotPart:
    round_no: int
    app_state: Any
    coll_seq: int
    unexpected: list[Envelope]


class CoordinatedHook(ProtocolHook):
    """Per-rank participant: counts opportunities, pauses at the target."""

    def __init__(self, rank: int, controller: "CLController"):
        self.rank = rank
        self.controller = controller
        self.boundary_count = 0
        self.target: int | None = None
        #: completed global snapshot parts by round
        self.snapshots: dict[int, _GlobalSnapshotPart] = {}

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
        world = self.world
        self.snapshots[round_no] = _GlobalSnapshotPart(
            round_no=round_no,
            app_state=world.programs[self.rank].snapshot(),
            coll_seq=world.apis[self.rank]._coll_seq,
            unexpected=[e.stored_copy() for e in self.proc.unexpected],
        )

    def record_initial(self) -> None:
        """Round 0: the initial state is a trivially consistent snapshot."""
        self.snapshots[0] = _GlobalSnapshotPart(
            round_no=0,
            app_state=self.world.programs[self.rank].snapshot(),
            coll_seq=0,
            unexpected=[],
        )


class CLController:
    """Coordinates snapshot rounds and performs global restarts."""

    def __init__(self, nprocs: int, config: CLConfig | None = None):
        self.nprocs = nprocs
        self.config = config or CLConfig()
        self.hooks = [CoordinatedHook(r, self) for r in range(nprocs)]
        self.world: World | None = None
        self.injector: FailureInjector | None = None
        self.round = 0
        self.round_active = False
        self._at_boundary: set[int] = set()
        self.completed_rounds: list[int] = []
        self.global_restarts = 0
        self.rolled_back_history: list[int] = []
        self._drain_polls = 0
        #: cumulative machine time lost to serialised snapshot writes
        self.io_burst_time = 0.0

    def hook_for(self, rank: int) -> CoordinatedHook:
        return self.hooks[rank]

    def bind(self, world: World) -> None:
        self.world = world
        self.injector = FailureInjector(world, self.on_failures)
        for hook in self.hooks:
            hook.record_initial()
        cfg = self.config
        if cfg.snapshot_interval is not None:
            first = cfg.first_snapshot_at or cfg.snapshot_interval
            world.engine.schedule_at(first, self._periodic)

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
            self._drain_polls = 0
            self._poll_drain()

    def _poll_drain(self) -> None:
        assert self.world is not None
        if not self.round_active:
            return
        if self.world.network.in_flight_count() == 0:
            self._complete_round()
            return
        self._drain_polls += 1
        if self._drain_polls > 1_000_000:
            raise SimulationError("coordinated round failed to drain")
        self.world.engine.schedule(1e-6, self._poll_drain)

    def _complete_round(self) -> None:
        assert self.world is not None
        cfg = self.config
        transfer = (
            cfg.snapshot_size_bytes / cfg.storage_bandwidth
            if cfg.snapshot_size_bytes else 0.0
        )
        free_at = self.world.engine.now
        for rank, hook in enumerate(self.hooks):
            hook.capture(self.round)
            hook.snapshots = {
                r: s for r, s in hook.snapshots.items()
                if r >= self.round - 1 or r == 0
            }  # keep previous round until this one is fully durable
            if transfer:
                # every rank's write serialises on the shared device; the
                # whole machine is paused until its own write lands — the
                # coordinated I/O burst
                free_at += transfer
                self.io_burst_time += transfer
                self.world.engine.schedule_at(
                    free_at, lambda r=rank: self.world.procs[r].unpause()
                )
            else:
                self.world.procs[rank].unpause()
        self.completed_rounds.append(self.round)
        self.round_active = False

    # ------------------------------------------------------------------
    # Failure handling: global restart
    # ------------------------------------------------------------------
    def inject_failure(self, time: float, rank: int) -> None:
        assert self.injector is not None
        self.injector.at(time, rank)

    def arm(self) -> None:
        assert self.injector is not None
        self.injector.arm()

    def on_failures(self, ranks: list[int]) -> None:
        """Restore the last completed global snapshot on *every* rank."""
        assert self.world is not None
        world = self.world
        self.global_restarts += 1
        self.rolled_back_history.append(self.nprocs)
        self.round_active = False
        world.network.purge_all()
        restore_round = self.completed_rounds[-1] if self.completed_rounds else 0
        for rank in range(self.nprocs):
            proc = world.procs[rank]
            if proc.done:
                world.note_rank_restarted()
            if rank in ranks:
                proc.kill()
                proc.alive = True
            else:
                proc.reincarnate()
            proc.paused = False
            hook = self.hooks[rank]
            hook.target = None
            snap = hook.snapshots.get(restore_round)
            if snap is None:
                raise ProtocolError(
                    f"rank {rank} lacks snapshot for round {restore_round}"
                )
            program = world.programs[rank]
            program.restore(snap.app_state)
            world.apis[rank]._coll_seq = snap.coll_seq
            proc.unexpected.extend(e.stored_copy() for e in snap.unexpected)
            proc.start(program.run(world.apis[rank]))
        self.round = restore_round


def build_cl_world(nprocs: int, program_factory, config: CLConfig | None = None,
                   **world_kwargs) -> tuple[World, CLController]:
    """World + coordinated-checkpointing controller, wired."""
    controller = CLController(nprocs, config)
    world = World(nprocs, program_factory, hook_factory=controller.hook_for,
                  **world_kwargs)
    controller.bind(world)
    return world, controller

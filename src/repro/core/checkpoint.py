"""Process images, checkpoint storage and scheduling.

A checkpoint is the paper's Fig. 3 line 42 tuple — process image plus
protocol metadata.  :class:`ProcessImage` and :func:`restart_rank` define
the image and the restart from one for every protocol in the repo, the
baselines included; a protocol adds only its own metadata.  The image is
the rank program's snapshot with two simulator-specific additions that
complete it under application-level checkpointing:

* the library-level *unexpected message queue* (messages delivered but not
  yet matched by a receive live in MPI buffers and are part of a
  system-level image);
* the collective-operation sequence counter (re-executed collectives must
  reuse the tags of the original execution so that two rolled-back peers
  match each other's replayed traffic).

``CheckpointSchedule`` implements the *uncoordinated* checkpoint policies
of the evaluation: independent periodic checkpoints with per-rank (or
per-cluster, Section V-E-3) staggered offsets, and the random-time policy
of Section V-E-2 that demonstrates why naive uncoordinated checkpointing
rolls everyone back.  The baselines' local timers are the same class.

:class:`StorageDevice` is the checkpoint I/O model of Section I's burst
argument, shared by the paper's protocol and the coordinated baseline:
concurrent writers serialise on one device.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from ..errors import CheckpointError
from ..simmpi.message import Envelope
from .state import ProtocolState

if TYPE_CHECKING:  # pragma: no cover
    from ..simmpi.runtime import World

__all__ = ["ProcessImage", "restart_rank", "Checkpoint", "CheckpointStore",
           "CheckpointSchedule", "StorageDevice"]


@dataclass
class ProcessImage:
    """What a restart needs besides protocol metadata: the rank program's
    snapshot, the collective sequence counter and the unexpected queue."""

    app_state: Any
    coll_seq: int
    unexpected: list[Envelope]

    @classmethod
    def capture(cls, world: "World", rank: int) -> "ProcessImage":
        """Image of ``rank`` as it stands now.  Queued envelopes are stored
        as copies, so nothing the process does later reaches the image."""
        return cls(
            app_state=world.programs[rank].snapshot(),
            coll_seq=world.apis[rank]._coll_seq,
            unexpected=[e.stored_copy() for e in world.procs[rank].unexpected],
        )

    def install(self, world: "World", rank: int) -> None:
        """Make ``rank`` (holding no execution, see :func:`restart_rank`)
        this image and schedule its program's first step.  It gets copies
        again, so one image can be installed repeatedly."""
        program = world.programs[rank]
        program.restore(self.app_state)
        world.apis[rank]._coll_seq = self.coll_seq
        proc = world.procs[rank]
        proc.unexpected.extend(e.stored_copy() for e in self.unexpected)
        proc.start(program.run(world.apis[rank]))


def restart_rank(world: "World", rank: int, image: ProcessImage,
                 killed: bool) -> None:
    """Discard whatever ``rank`` is executing and restart it from ``image``.

    ``killed``: the rank failed (fail-stop, its in-flight inbound traffic
    is lost) rather than being a live process rolled back by the protocol.
    The kill is not repeated for a rank already dead — the paper's protocol
    kills on detection and restarts after the network drained.  The rank
    comes back alive and unpaused; if it had finished it runs again.
    """
    proc = world.procs[rank]
    if not killed:
        proc.reincarnate()
    elif proc.alive:
        proc.kill()
    proc.alive = True
    proc.paused = False
    image.install(world, rank)


@dataclass
class Checkpoint:
    """One process checkpoint; ``epoch`` is the epoch that begins here."""

    rank: int
    epoch: int
    time: float
    image: ProcessImage
    proto: ProtocolState

    @property
    def date(self) -> int:
        """The process date at the restore point (start of ``epoch``)."""
        return self.proto.date


class CheckpointStore:
    """Epoch-indexed stable storage for every rank's checkpoints."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._by_rank: list[dict[int, Checkpoint]] = [dict() for _ in range(nprocs)]
        self.checkpoints_taken = 0
        self.checkpoints_collected = 0

    def add(self, ckpt: Checkpoint) -> None:
        if ckpt.epoch in self._by_rank[ckpt.rank]:
            raise CheckpointError(
                f"rank {ckpt.rank} already has a checkpoint for epoch {ckpt.epoch}"
            )
        self._by_rank[ckpt.rank][ckpt.epoch] = ckpt
        self.checkpoints_taken += 1

    def get(self, rank: int, epoch: int) -> Checkpoint:
        try:
            return self._by_rank[rank][epoch]
        except KeyError:
            raise CheckpointError(
                f"no checkpoint for rank {rank} epoch {epoch} "
                f"(have {sorted(self._by_rank[rank])})"
            ) from None

    def has(self, rank: int, epoch: int) -> bool:
        return epoch in self._by_rank[rank]

    def latest(self, rank: int) -> Checkpoint:
        epochs = self._by_rank[rank]
        if not epochs:
            raise CheckpointError(f"rank {rank} has no checkpoint")
        return epochs[max(epochs)]

    def epochs(self, rank: int) -> list[int]:
        return sorted(self._by_rank[rank])

    def count(self) -> int:
        return sum(len(d) for d in self._by_rank)

    def discard_above(self, rank: int, epoch: int) -> int:
        """Drop checkpoints of ``rank`` with an epoch above ``epoch``.

        Called when ``rank`` rolls back to (the checkpoint beginning)
        ``epoch``: later checkpoints belong to the abandoned execution
        branch and re-execution will regenerate those epoch numbers.
        """
        epochs = self._by_rank[rank]
        stale = [e for e in epochs if e > epoch]
        for e in stale:
            del epochs[e]
        return len(stale)

    # ------------------------------------------------------------------
    def collect_garbage(self, min_epoch_by_rank: dict[int, int]) -> int:
        """Delete checkpoints strictly below each rank's safe epoch.

        Section III-A-4: if ``E`` is the smallest current epoch in the
        application, checkpoints in an epoch less than ``E`` can be
        deleted.  The caller computes the bound (a periodic global
        operation in the paper); per-rank bounds let the caller be more
        precise when clusters use disjoint epoch ranges.
        """
        removed = 0
        for rank, bound in min_epoch_by_rank.items():
            epochs = self._by_rank[rank]
            for e in [e for e in epochs if e < bound]:
                del epochs[e]
                removed += 1
        self.checkpoints_collected += removed
        return removed


class StorageDevice:
    """Shared stable storage that serves one checkpoint write at a time."""

    def __init__(self, bandwidth: float):
        self.bandwidth = bandwidth
        #: the next instant the device is free
        self.free_at = 0.0
        #: cumulative seconds spent transferring
        self.busy_time = 0.0

    def reserve(self, now: float, nbytes: int) -> float:
        """Queue a write of ``nbytes`` issued at ``now`` behind the writes
        already accepted; returns the instant it completes."""
        transfer = nbytes / self.bandwidth
        end = max(now, self.free_at) + transfer
        self.free_at = end
        self.busy_time += transfer
        return end


@dataclass(slots=True)
class CheckpointSchedule:
    """Decides when a rank takes its next (uncoordinated) checkpoint.

    ``interval`` is the per-rank checkpoint period in virtual seconds
    (``None``: never — forced checkpoints still work);
    ``offset`` staggers ranks/clusters (the paper schedules clusters at
    different times to smooth I/O bursts); ``jitter`` (for the random
    policy of Section V-E-2) perturbs each period by a uniform factor in
    ``[1 - jitter, 1 + jitter]`` from a seeded RNG, built only then.

    The schedule is *not* part of the checkpointed state: a restored
    process does not immediately re-checkpoint (BLCR-restored processes
    inherit the host's notion of time, not the image's).
    """

    interval: float | None
    offset: float = 0.0
    jitter: float = 0.0
    seed: int = 0
    _next_due: float = field(init=False)
    _rng: random.Random | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.interval is None:  # no periodic checkpoints configured
            self.interval = float("inf")
        self._rng = random.Random(self.seed) if self.jitter else None
        self._next_due = self.offset + self._period()

    def _period(self) -> float:
        if self._rng is not None:
            return self.interval * (1.0 + self.jitter * (2 * self._rng.random() - 1.0))
        return self.interval

    def due(self, now: float) -> bool:
        return now >= self._next_due

    def mark_taken(self, now: float) -> None:
        self._next_due = now + self._period()

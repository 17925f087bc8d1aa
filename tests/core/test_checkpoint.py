"""Unit tests for process images, the checkpoint store and schedules."""

import copy

import numpy as np
import pytest

from repro.apps.stencil import Stencil1D
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointSchedule,
    CheckpointStore,
    ProcessImage,
    StorageDevice,
    restart_rank,
)
from repro.core.state import ProtocolState
from repro.errors import CheckpointError
from repro.simmpi import World
from repro.simmpi.message import Envelope


def ckpt(rank, epoch, time=0.0):
    image = ProcessImage(app_state={"e": epoch}, coll_seq=0, unexpected=[])
    return Checkpoint(rank=rank, epoch=epoch, time=time, image=image,
                      proto=ProtocolState.initial(epoch))


# ----------------------------------------------------------------------
# Process image
# ----------------------------------------------------------------------
def _world_with_queued_message():
    """Rank 1 of a 3-rank world, mid-way: some program state, an advanced
    collective counter and one delivered-but-unmatched message."""
    world = World(3, lambda rank, size: Stencil1D(rank, size, niters=4, cells=4))
    world.programs[1].state["marker"] = np.arange(3.0)
    world.apis[1]._coll_seq = 6
    world.procs[1].unexpected.append(
        Envelope(src=0, dst=1, tag=5, payload=np.array([1.0, 2.0]),
                 meta={"seq": [1]})
    )
    return world


def _queue_view(queue):
    return [(e.src, e.tag, e.uid, list(e.payload), copy.deepcopy(e.meta))
            for e in queue]


def test_process_image_round_trip():
    world = _world_with_queued_message()
    proc, program, api = world.procs[1], world.programs[1], world.apis[1]
    image = ProcessImage.capture(world, 1)
    want_state = program.snapshot()
    want_queue = _queue_view(proc.unexpected)

    # the process runs on: every part of the image goes stale
    program.state["marker"][0] = 99.0
    program.state["extra"] = True
    api._coll_seq = 40
    proc.unexpected[0].payload[0] = -1.0
    proc.unexpected[0].meta["seq"].append(2)
    proc.unexpected.append(Envelope(src=2, dst=1, tag=5, payload="late"))

    restart_rank(world, 1, image, killed=False)
    assert set(program.state) == set(want_state)
    assert np.array_equal(program.state["marker"], want_state["marker"])
    assert api._coll_seq == 6
    assert _queue_view(proc.unexpected) == want_queue
    assert proc.alive and not proc.paused and not proc.done


def test_process_image_stores_and_installs_copies():
    world = _world_with_queued_message()
    proc = world.procs[1]
    live = proc.unexpected[0]
    image = ProcessImage.capture(world, 1)
    stored = image.unexpected[0]
    assert stored is not live and stored.payload is not live.payload
    live.payload[0] = -1.0                 # mutating the live queue ...
    assert stored.payload[0] == 1.0        # ... never reaches the image

    restart_rank(world, 1, image, killed=True)
    installed = proc.unexpected[0]
    assert installed is not stored and installed.payload is not stored.payload
    installed.payload[1] = -2.0            # nor does the installed queue
    installed.meta["seq"].append(3)
    assert list(stored.payload) == [1.0, 2.0] and stored.meta == {"seq": [1]}
    # so the same image restarts the rank again, identically
    restart_rank(world, 1, image, killed=False)
    assert _queue_view(proc.unexpected) == _queue_view(image.unexpected)


def test_restart_rank_counts_a_finished_rank_as_running_again():
    world = World(2, lambda rank, size: Stencil1D(rank, size, niters=2, cells=4))
    image = ProcessImage.capture(world, 0)
    world.launch()
    world.run()
    assert world.all_done
    incarnation = world.procs[0].incarnation
    restart_rank(world, 0, image, killed=True)
    assert world.procs[0].incarnation == incarnation + 1   # killed once
    assert not world.procs[0].done and not world.all_done


def test_add_get_latest():
    store = CheckpointStore(2)
    store.add(ckpt(0, 1))
    store.add(ckpt(0, 2))
    assert store.get(0, 1).epoch == 1
    assert store.latest(0).epoch == 2
    assert store.epochs(0) == [1, 2]
    assert store.count() == 2


def test_duplicate_epoch_rejected():
    store = CheckpointStore(1)
    store.add(ckpt(0, 1))
    with pytest.raises(CheckpointError):
        store.add(ckpt(0, 1))


def test_missing_checkpoint_raises():
    store = CheckpointStore(1)
    with pytest.raises(CheckpointError):
        store.get(0, 3)
    with pytest.raises(CheckpointError):
        store.latest(0)


def test_has():
    store = CheckpointStore(1)
    store.add(ckpt(0, 2))
    assert store.has(0, 2) and not store.has(0, 1)


def test_collect_garbage_below_bound():
    store = CheckpointStore(2)
    for e in (1, 2, 3):
        store.add(ckpt(0, e))
        store.add(ckpt(1, e))
    removed = store.collect_garbage({0: 3, 1: 2})
    assert removed == 3
    assert store.epochs(0) == [3]
    assert store.epochs(1) == [2, 3]
    assert store.checkpoints_collected == 3


def test_discard_above():
    store = CheckpointStore(1)
    for e in (1, 2, 3, 4):
        store.add(ckpt(0, e))
    assert store.discard_above(0, 2) == 2
    assert store.epochs(0) == [1, 2]


def test_checkpoint_date_property():
    c = ckpt(0, 1)
    c.proto.date = 42
    assert c.date == 42


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def test_schedule_periodic():
    s = CheckpointSchedule(interval=10.0)
    assert not s.due(5.0)
    assert s.due(10.0)
    s.mark_taken(10.0)
    assert not s.due(15.0)
    assert s.due(20.0)


def test_schedule_offset_staggers_first():
    s = CheckpointSchedule(interval=10.0, offset=7.0)
    assert not s.due(12.0)
    assert s.due(17.0)


def test_schedule_rank_stagger_offset_matches_baseline_timers():
    """The message-logging and CIC baselines time their checkpoints with
    ``offset=rank_stagger * rank``; their retired private timers computed
    ``interval + rank_stagger * rank`` first and ``now + interval`` after
    each checkpoint — the same floats, bit for bit."""
    interval, stagger = 3e-5, 1e-6
    for rank in range(64):
        s = CheckpointSchedule(interval, offset=stagger * rank)
        first = interval + stagger * rank
        assert s._next_due == first
        assert not s.due(first - 1e-9) and s.due(first)
        now = first + 1.7e-6
        s.mark_taken(now)
        assert s._next_due == now + interval
        assert not s.due(now) and s.due(now + interval)


def test_schedule_jitter_deterministic_and_bounded():
    periods = []
    for seed in (1, 1, 2):
        s = CheckpointSchedule(interval=10.0, jitter=0.5, seed=seed)
        periods.append(s._next_due)
    assert periods[0] == periods[1]
    assert periods[0] != periods[2]
    assert 5.0 <= periods[0] <= 15.0


def test_schedule_max_checkpoints():
    # there is no cap: a periodic schedule fires after every checkpoint
    s = CheckpointSchedule(interval=1.0)
    for k in range(1, 101):
        assert not s.due(k - 0.5) and s.due(float(k))
        s.mark_taken(float(k))


def test_schedule_never():
    # no interval: never due (forced checkpoints still work)
    s = CheckpointSchedule(interval=None)
    assert not s.due(1e12)


# ----------------------------------------------------------------------
# Storage device: one model under both former I/O formulas
# ----------------------------------------------------------------------
def test_storage_device_equals_the_coordinated_burst_formula():
    """Five writers at one instant: the running sum ``free_at += transfer``
    the coordinated controller used to keep (floats compared with ==)."""
    nbytes, bandwidth, now = 50_000, 1e9, 1.2345e-4
    device = StorageDevice(bandwidth)
    transfer = nbytes / bandwidth
    free_at, burst = now, 0.0
    for _ in range(5):
        free_at += transfer
        burst += transfer
        assert device.reserve(now, nbytes) == free_at
    assert device.busy_time == burst


def test_storage_device_equals_the_serialised_writer_formula():
    """Staggered writers, some queueing and some finding the device idle:
    the ``max(now, free_at) + transfer`` the paper's controller used."""
    nbytes, bandwidth = 30_000, 1e9
    device = StorageDevice(bandwidth)
    storage_free_at = 0.0
    for now in (1e-5, 1.2e-5, 3.9e-5, 9e-5, 9.00001e-5, 2e-4, 2e-4):
        transfer = nbytes / bandwidth
        start = max(now, storage_free_at)
        end = start + transfer
        storage_free_at = end
        assert device.reserve(now, nbytes) == end
        assert device.free_at == end

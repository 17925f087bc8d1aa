"""Acknowledgement coalescing (``ProtocolConfig.ack_batch``).

The logging decision (Fig. 3: log iff ``epoch_send < epoch_recv``) uses
the *reception* epoch latched when the receiver delivered the message, so
it is invariant under ack batching — these tests pin that equivalence plus
the flush machinery around it.
"""

import numpy as np
import pytest

from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters
from repro.simmpi.network import TimingModel


def _config(batch, **kw):
    return ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(8, 2),
        cluster_stagger=5e-6,
        rank_stagger=1e-6,
        ack_batch=batch,
        **kw,
    )


def _run(batch, niters=40, fail_at=None, fail_rank=7, **world_kwargs):
    world, ctl = build_ft_world(
        8, lambda r, s: Stencil2D(r, s, niters=niters, block=3), _config(batch),
        record_sequences=True, **world_kwargs
    )
    if fail_at is not None:
        ctl.inject_failure(fail_at, fail_rank)
        ctl.arm()
    world.launch()
    world.run()
    return world, ctl


@pytest.fixture(scope="module")
def reference():
    world, ctl = _run(batch=1)
    return {
        "sends": world.tracer.send_sequences(dedup=True),
        "logical": world.tracer.logical_send_sequences(),
        "stats": ctl.logging_stats(),
        "results": [p.result().copy() for p in world.programs],
    }


@pytest.mark.parametrize("batch", [2, 4, 16])
def test_logging_decision_invariant_under_batching(reference, batch):
    """%log (the paper's Table I column) must not move with ack_batch."""
    world, ctl = _run(batch)
    stats = ctl.logging_stats()
    assert stats["messages_logged"] == reference["stats"]["messages_logged"]
    assert stats["log_fraction"] == pytest.approx(
        reference["stats"]["log_fraction"]
    )
    assert world.tracer.send_sequences(dedup=True) == reference["sends"]


@pytest.mark.parametrize("batch", [2, 8])
def test_recovery_valid_under_batching(reference, batch):
    """A failure mid-run still recovers to the failure-free execution."""
    world, ctl = _run(batch, fail_at=7e-5)
    assert len(ctl.recovery_reports) >= 1
    assert world.tracer.logical_send_sequences() == reference["logical"]
    for ref, prog in zip(reference["results"], world.programs):
        np.testing.assert_allclose(ref, prog.result())


def test_batched_acks_reduce_control_messages():
    """The point of coalescing: fewer ack envelopes on the wire."""
    w1, c1 = _run(batch=1)
    w8, c8 = _run(batch=8)
    assert w8.network.messages_sent < w1.network.messages_sent
    total_piggy = sum(pr.acks_piggybacked for pr in c8.protocols)
    total_flushes = sum(pr.ack_flushes for pr in c8.protocols)
    assert total_piggy + total_flushes > 0
    # every owed ack was resolved by the end of the run
    for pr in c8.protocols:
        assert not pr._pending_acks
        assert not pr.state.non_ack


def test_default_batch_is_eager_one_ack_per_message():
    """ack_batch=1 (the default) must stay the paper's protocol: acks are
    sent immediately and nothing ever enters the batching machinery."""
    world, ctl = _run(batch=1, niters=10)
    for pr in ctl.protocols:
        assert pr.acks_piggybacked == 0
        assert pr.ack_flushes == 0
        assert not pr._pending_acks
        assert not pr._ack_timers


def test_timeout_flushes_idle_channel():
    """A one-way channel (receiver never sends back) still resolves its
    acks via the virtual-time flush timer."""
    # rank 0 streams to rank 1; rank 1 never sends an app message back, so
    # piggybacking alone would strand the acks forever
    class OneWay:
        def __init__(self, rank, size):
            self.rank, self.size = rank, size

        def run(self, api):
            if self.rank == 0:
                for i in range(6):
                    yield api.send(1, float(i), tag=0)
                    yield api.compute(1e-6)
            else:
                for _ in range(6):
                    yield api.recv(0, tag=0)

        def snapshot(self):
            return {}

        def restore(self, state):
            pass

        def result(self):
            return np.zeros(1)

    cfg = ProtocolConfig(checkpoint_interval=1e-2, ack_batch=64)
    world, ctl = build_ft_world(2, lambda r, s: OneWay(r, s), cfg)
    world.launch()
    world.run()
    # all six sends acknowledged (non_ack drained) without a full batch
    assert not ctl.protocols[0].state.non_ack
    assert ctl.protocols[1].ack_flushes >= 1


def test_ack_batch_exercises_engine_compaction():
    """Heavy timer cancellation (every piggyback cancels a timer) drives
    the engine's lazy compaction; the run must stay correct through it.
    Jitter takes the ranks off lockstep: timers armed at one instant share
    a bucket, and only an instant whose every timer is cancelled is garbage
    (without it this run never holds more than 45 dead instants)."""
    world, ctl = _run(batch=4, niters=60, timing=TimingModel(jitter=0.05))
    assert world.engine.compactions >= 1
    assert world.engine.queue_garbage == 0
    assert world.all_done

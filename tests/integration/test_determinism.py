"""Bit-reproducibility across configurations that must not change behavior.

The correctness methodology of this repo leans on comparing executions
message by message (failure-free vs recovered, obs on vs off, repeated
runs).  These tests pin the invariants the hot-path work depends on:
instrumentation, zero-copy payload handling and the slim event queue are
all *observationally* transparent — identical tracer sequences, identical
final virtual time, identical event count.
"""

import numpy as np

from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters
from repro.obs import MetricsRegistry
from repro.simmpi import World
from repro.simmpi.network import TimingModel


def _config():
    return ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(8, 2),
        cluster_stagger=5e-6,
        rank_stagger=1e-6,
    )


def _factory(r, s):
    return Stencil2D(r, s, niters=30, block=3)


def _signature(world):
    """Everything an execution 'said': sends, deliveries, clock, events."""
    return (
        world.tracer.send_sequences(),
        world.tracer.deliver_sequences(),
        world.engine.now,
        world.engine.events_dispatched,
    )


def _run_protocol(obs=None, timing=None, network_seed=0, fail_at=None):
    world, ctl = build_ft_world(
        8, _factory, _config(), obs=obs, timing=timing,
        network_seed=network_seed, record_sequences=True,
    )
    if fail_at is not None:
        ctl.inject_failure(fail_at, 7)
        ctl.arm()
    world.launch()
    world.run()
    return world, ctl


def test_observability_does_not_change_execution():
    """Instrumented and uninstrumented runs are the same execution."""
    off, _ = _run_protocol(obs=None)
    on, _ = _run_protocol(obs=MetricsRegistry())
    assert _signature(on) == _signature(off)


def test_repeated_runs_bit_identical():
    a, _ = _run_protocol()
    b, _ = _run_protocol()
    assert _signature(a) == _signature(b)


def test_jittered_runs_reproducible_per_seed():
    """Jitter explores interleavings but stays a pure function of the seed."""
    timing = TimingModel(jitter=0.3)
    a, _ = _run_protocol(timing=timing, network_seed=7)
    b, _ = _run_protocol(timing=timing, network_seed=7)
    c, _ = _run_protocol(timing=timing, network_seed=8)
    assert _signature(a) == _signature(b)
    assert _signature(a) != _signature(c)


def test_failure_recovery_reproducible():
    """The full failure + recovery pipeline replays identically."""
    a, ca = _run_protocol(fail_at=7e-5)
    b, cb = _run_protocol(fail_at=7e-5)
    assert _signature(a) == _signature(b)
    assert len(ca.recovery_reports) == len(cb.recovery_reports)
    for ra, rb in zip(ca.recovery_reports, cb.recovery_reports):
        assert sorted(ra.rolled_back) == sorted(rb.rolled_back)


def test_recovered_run_matches_failure_free_logically():
    """Validity (Section III): the recovered execution's logical send
    sequences and results equal the failure-free ones."""
    ff, _ = _run_protocol()
    rec, ctl = _run_protocol(fail_at=7e-5)
    assert len(ctl.recovery_reports) >= 1
    assert (
        rec.tracer.logical_send_sequences()
        == ff.tracer.logical_send_sequences()
    )
    for r in range(8):
        np.testing.assert_allclose(
            ff.programs[r].result(), rec.programs[r].result()
        )


# ----------------------------------------------------------------------
# Zero-copy payload semantics
# ----------------------------------------------------------------------

class _Probe:
    """Two-rank program exposing the exact payload objects exchanged."""

    def __init__(self, rank, size, payload_factory, count=3):
        self.rank, self.size = rank, size
        self.sent = []
        self.received = []
        self._make = payload_factory
        self._count = count

    def run(self, api):
        if self.rank == 0:
            for _ in range(self._count):
                buf = self._make()
                self.sent.append(buf)
                yield api.send(1, buf, tag=0)
                yield api.compute(1e-6)
        else:
            for _ in range(self._count):
                self.received.append((yield api.recv(0, tag=0)))

    def snapshot(self):
        return {}

    def restore(self, state):
        pass

    def result(self):
        return np.zeros(1)


def _probe_world(payload_factory, **world_kw):
    world = World(2, lambda r, s: _Probe(r, s, payload_factory), **world_kw)
    world.launch()
    world.run()
    return world.programs[0].sent, world.programs[1].received


def test_immutable_payloads_share_identity_end_to_end():
    """bytes/str/tuple payloads travel the wire without a single copy."""
    sent, received = _probe_world(lambda: ("round", b"data", 42))
    for s, r in zip(sent, received):
        assert r is s


def test_mutable_payloads_share_identity_by_default():
    """Zero-copy default: the receiver gets the sender's array object."""
    sent, received = _probe_world(lambda: np.arange(4.0))
    for s, r in zip(sent, received):
        assert r is s


def test_copy_payloads_opt_in_copies_mutables_only():
    """copy_payloads=True restores defensive copies for mutable payloads
    while immutables still travel zero-copy."""
    sent, received = _probe_world(lambda: np.arange(4.0), copy_payloads=True)
    for s, r in zip(sent, received):
        assert r is not s
        np.testing.assert_array_equal(r, s)
    sent, received = _probe_world(lambda: (1, 2.5, "x"), copy_payloads=True)
    for s, r in zip(sent, received):
        assert r is s


def test_logged_payload_isolated_from_sender_buffer():
    """Copy-on-log: once a payload enters the sender-based log, mutating
    the application buffer must not corrupt the logged copy."""
    # per-rank clusters + staggered checkpoints force epoch-crossing
    # messages, i.e. actual log entries (epoch_send < epoch_recv)
    cfg = ProtocolConfig(
        checkpoint_interval=4e-6,
        cluster_of=block_clusters(2, 2),
        cluster_stagger=2e-6,
        rank_stagger=1e-6,
        retain_payloads=True,
    )
    world, ctl = build_ft_world(
        2, lambda r, s: _Probe(r, s, lambda: np.ones(4), count=30), cfg
    )
    world.launch()
    world.run()
    proto = ctl.protocols[0]
    entries = [e for e in [*proto.state.non_ack.values(), *proto.state.logs.values()]
               if e.payload is not None]
    assert entries, "workload produced no logged/in-flight entries"
    # mutate every application-side buffer after the fact
    for buf in world.programs[0].sent:
        buf[:] = -1.0
    for entry in entries:
        np.testing.assert_array_equal(entry.payload, np.ones(4))


def test_zero_copy_keeps_network_sizes():
    """payload_nbytes fast paths: sizes (and thus the timing model input)
    are unchanged by the zero-copy rework."""
    from repro.simmpi.message import Envelope, payload_nbytes

    samples = [
        7, 3.14, True, None, b"abcd", "hello", "héllo",
        (1, 2.0, "x"), [1, 2, 3], {"date": 4, "epoch_send": 1,
                                   "epoch_recv": 2, "dup": False},
        np.zeros(16), {"nested": {"a": (1, b"zz")}},
    ]
    for payload in samples:
        env = Envelope(src=0, dst=1, tag=0, payload=payload)
        assert env.size == payload_nbytes(payload) > 0
    assert payload_nbytes("hello") == 5
    assert payload_nbytes("héllo") == len("héllo".encode())
    assert payload_nbytes(np.zeros(16)) == 128

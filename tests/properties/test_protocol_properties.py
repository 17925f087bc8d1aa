"""Property-based tests of the protocol's core invariants (hypothesis).

These check the paper's Theorem 1 (validity after failures) over
randomized failure schedules, plus the structural invariants the Section
IV proof leans on (Prop. 1 phase monotonicity, the logging rule, recovery
-line sanity)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.recovery import compute_recovery_line

NPROCS = 5


def factory(rank, size):
    return Stencil1D(rank, size, niters=20, cells=3)


def config():
    return ProtocolConfig(checkpoint_interval=2.5e-5, rank_stagger=2e-6)


def reference():
    world, _ = build_ft_world(NPROCS, factory, config(), record_sequences=True)
    world.launch()
    world.run()
    return world


_REF = None


def ref():
    global _REF
    if _REF is None:
        _REF = reference()
    return _REF


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(min_value=0, max_value=NPROCS - 1),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_validity_under_random_single_failure(rank, frac):
    """Theorem 1: any (time, rank) fail-stop yields the failure-free send
    sequences and results."""
    ref_world = ref()
    t = frac * ref_world.engine.now
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    ctl.inject_failure(t, rank)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.stall_flushes == 0  # single failures never need the rescue
    ref_seqs = ref_world.tracer.logical_send_sequences()
    seqs = world.tracer.logical_send_sequences()
    assert ref_seqs == seqs
    for p_ref, p in zip(ref_world.programs, world.programs):
        np.testing.assert_allclose(p_ref.result(), p.result())


@settings(max_examples=12, deadline=None)
@given(
    ranks=st.sets(st.integers(min_value=0, max_value=NPROCS - 1),
                  min_size=2, max_size=3),
    frac=st.floats(min_value=0.1, max_value=0.9),
)
def test_validity_under_concurrent_failures(ranks, frac):
    ref_world = ref()
    t = frac * ref_world.engine.now
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    for r in ranks:
        ctl.inject_failure(t, r)
    ctl.arm()
    world.launch()
    world.run()
    assert ref_world.tracer.logical_send_sequences() == world.tracer.logical_send_sequences()
    for p_ref, p in zip(ref_world.programs, world.programs):
        np.testing.assert_allclose(p_ref.result(), p.result())


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_recovery_line_sanity_on_random_spe(data):
    """Random SPE tables: the fix-point (a) includes every failed rank,
    (b) never assigns an epoch above the failed rank's restart, (c) is
    monotone in the failure set."""
    nprocs = data.draw(st.integers(min_value=2, max_value=6))
    tables = {}
    for rank in range(nprocs):
        nepochs = data.draw(st.integers(min_value=1, max_value=4))
        table = {}
        date = 0
        for e in range(1, nepochs + 1):
            peers = {}
            for peer in range(nprocs):
                if peer == rank:
                    continue
                if data.draw(st.booleans()):
                    # non-logged constraint: epoch_recv <= epoch_send would
                    # be typical, but the fix-point must tolerate anything
                    peers[peer] = data.draw(st.integers(min_value=1, max_value=4))
            table[e] = (date, peers)
            date += data.draw(st.integers(min_value=0, max_value=5))
        tables[rank] = table
    failed = data.draw(st.sets(st.integers(min_value=0, max_value=nprocs - 1),
                               min_size=1, max_size=nprocs))
    restarts = {f: max(tables[f]) for f in failed}
    rl = compute_recovery_line(tables, restarts)
    for f in failed:
        assert f in rl
        assert rl[f][0] <= restarts[f]
    for rank, (epoch, date) in rl.items():
        assert epoch in tables[rank]
        assert tables[rank][epoch][0] == date
    # monotonicity: adding a failure never removes ranks or raises epochs
    one = next(iter(failed))
    rl_one = compute_recovery_line(tables, {one: restarts[one]})
    assert set(rl_one) <= set(rl)
    for rank, (epoch, _d) in rl_one.items():
        assert rl[rank][0] <= epoch


def _jittered_world(seed, jitter, failure):
    """A run under jittered checkpoints; ``failure`` is ``None`` (failure
    free) or ``(rank, frac)``: a fail-stop of ``rank`` at ``frac`` of the
    reference horizon, recovered before the run ends."""
    world, ctl = build_ft_world(NPROCS, factory,
                                ProtocolConfig(checkpoint_interval=2e-5,
                                               checkpoint_jitter=jitter,
                                               checkpoint_seed=seed,
                                               rank_stagger=1e-6))
    if failure is not None:
        rank, frac = failure
        ctl.inject_failure(frac * ref().engine.now, rank)
        ctl.arm()
    return world, ctl


def _assert_recovered(ctl, failure):
    """The run had the recovery round its failure asked for."""
    if failure is not None:
        assert len(ctl.recovery_reports) == 1
        assert ctl.recovery_reports[0].rolled_back


#: no failure, or one fail-stop whose recovery completes within the run
FAILURES = st.none() | st.tuples(
    st.integers(min_value=0, max_value=NPROCS - 1),
    st.floats(min_value=0.1, max_value=0.7))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), failure=FAILURES)
@example(seed=0, failure=(NPROCS - 1, 0.5))
def test_phase_monotone_along_deliveries(seed, failure):
    """Prop. 1 observable: a receiver's phase after any delivery is at
    least the message's phase (checked over a whole run via piggybacked
    metadata) — re-executions and replays of a recovery included."""
    world, ctl = _jittered_world(seed, 0.5, failure)
    violations = []
    for proto in ctl.protocols:
        orig = proto.on_message

        def wrapped(env, proto=proto, orig=orig):
            ok = orig(env)
            if ok and proto.state.phase < env.meta["phase"]:
                violations.append((proto.rank, env.meta))
            return ok

        proto.on_message = wrapped
    world.launch()
    world.run()
    _assert_recovered(ctl, failure)
    assert violations == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), failure=FAILURES)
@example(seed=0, failure=(NPROCS - 1, 0.5))
def test_logging_rule_iff_epoch_crossing(seed, failure):
    """Every logged message crossed epochs upward; every SPE entry did not
    — also on the state a recovery restored and rebuilt."""
    world, ctl = _jittered_world(seed, 0.4, failure)
    world.launch()
    world.run()
    _assert_recovered(ctl, failure)
    for proto in ctl.protocols:
        for lm in proto.state.logs.values():
            assert lm.epoch_send < lm.epoch_recv
        for epoch, rec in proto.state.spe.items():
            for peer, epoch_recv in rec.recv_epoch.items():
                assert epoch_recv <= epoch

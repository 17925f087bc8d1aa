"""Runtime sanitizer: env gating, cached-None wiring, per-invariant
negative tests, and the acceptance run proving every invariant executes
at least once under ``REPRO_SANITIZE=1`` on a full failure + recovery
cycle."""

import pytest

from repro.analysis import rollback as rollback_mod
from repro.analysis.rollback import SpeSampler, SpeSnapshot, rollback_analysis
from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters
from repro.errors import InvariantViolation
from repro.lint.sanitize import (
    AUDIT_INTERVAL,
    ENV_VAR,
    INVARIANTS,
    Sanitizer,
    sanitize_enabled,
    sanitizer_for,
)
from repro.obs import MetricsRegistry


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("yes", True), ("ON", True),
    ("0", False), ("false", False), ("no", False), ("off", False),
    ("", False),
])
def test_env_gating(monkeypatch, value, expected):
    monkeypatch.setenv(ENV_VAR, value)
    assert sanitize_enabled() is expected
    assert (sanitizer_for() is not None) is expected


def test_unset_env_means_disabled(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert sanitize_enabled() is False
    assert sanitizer_for() is None


def test_override_beats_environment(monkeypatch):
    """The environment is the one switch, read at every call: a value set
    mid-process overrides the one the process started with."""
    monkeypatch.setenv(ENV_VAR, "0")
    assert sanitizer_for() is None
    monkeypatch.setenv(ENV_VAR, "1")
    assert sanitize_enabled() is True
    assert isinstance(sanitizer_for(), Sanitizer)
    monkeypatch.setenv(ENV_VAR, "0")
    assert sanitizer_for() is None


def test_components_cache_none_when_disabled(monkeypatch):
    """The hot paths must see literal None (cached-instrument pattern)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    world, ctl = _build()
    assert world.engine._san is None
    assert all(p.san is None for p in ctl.protocols)


# ----------------------------------------------------------------------
# Per-invariant negative tests (direct method calls with bad inputs)
# ----------------------------------------------------------------------

def _raises(invariant):
    return pytest.raises(InvariantViolation, match=rf"sanitizer\[{invariant}\]")


def test_spe_table_ordered_violations():
    san = Sanitizer()
    san.spe_table_ordered(0, {1: (0, {1: 1}), 2: (7, {2: 3})})
    with _raises("spe_table_ordered"):
        san.spe_table_ordered(0, {1: (10, {1: 1}), 2: (5, {1: 1})})
    with _raises("spe_table_ordered"):
        san.spe_table_ordered(0, {1: (0, {2: 0})})  # epoch 0 never received


def test_rl_fixpoint_violation():
    san = Sanitizer()
    rl = {0: (2, 5), 1: (1, 0)}
    san.rl_fixpoint_stable(rl, lambda seeds: dict(rl))  # true fix-point
    with _raises("rl_fixpoint_stable"):
        san.rl_fixpoint_stable(rl, lambda seeds: {0: (1, 3), 1: (1, 0)})


def test_rl_monotone_violation():
    san = Sanitizer()
    san.rl_monotone({0: (2, 5)}, {0: 2}, {})
    san.rl_monotone({0: (2, 5)}, {0: 1}, {0: 2})  # failed-rank bound wins
    with _raises("rl_monotone"):
        san.rl_monotone({0: (3, 5)}, {0: 2}, {})


def test_engine_pending_audit_violation():
    san = Sanitizer()
    san.engine_pending_audit(4, 4)
    with _raises("engine_pending_audit"):
        san.engine_pending_audit(5, 6)
    with _raises("engine_pending_audit"):
        san.engine_pending_audit(4, 4, in_step=False)


def test_rollback_closure_violation():
    san = Sanitizer()
    san.rollback_closure(7e-5, 3, 5, 5)
    with _raises("rollback_closure"):
        san.rollback_closure(7e-5, 3, 5, 4)


def test_rollback_closure_catches_a_planted_closure_defect(monkeypatch):
    """A closure pass that drops one rank from one failure's line goes
    unnoticed disarmed and is named (snapshot, rank, both counts) armed."""
    snap = SpeSnapshot(
        time=0.25,
        spe_tables={0: {1: (0, {})}, 1: {1: (0, {0: 1})}, 2: {1: (0, {1: 1})}},
        epochs={0: 1, 1: 1, 2: 1},
    )
    assert rollback_analysis([snap], 3).counts == [3, 2, 1]
    real = rollback_mod._closure_counts

    def defective(spe_tables, epochs, failed_ranks):
        counts = real(spe_tables, epochs, failed_ranks)
        counts[0] -= 1
        return counts

    monkeypatch.setattr(rollback_mod, "_closure_counts", defective)
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert rollback_analysis([snap], 3).counts == [2, 2, 1]
    monkeypatch.setenv(ENV_VAR, "1")
    with pytest.raises(InvariantViolation,
                       match=r"rollback_closure.*t=0\.25.*rank 0.*counts 2 .*"
                             r"fix-point 3"):
        rollback_analysis([snap], 3)


def test_counts_land_in_checks_and_registry():
    obs = MetricsRegistry()
    san = Sanitizer(obs)
    san.engine_pending_audit(1, 1)
    san.engine_pending_audit(2, 2)
    assert san.checks == {"engine_pending_audit": 2}
    counter = obs.counter("sanitize.checks", ("invariant",))
    assert counter.get(("engine_pending_audit",)) == 2


def test_registry_free_sanitizer_still_counts():
    san = Sanitizer(None)
    san.engine_pending_audit(1, 1)
    assert san.checks["engine_pending_audit"] == 1


# ----------------------------------------------------------------------
# Acceptance: full failure + recovery under REPRO_SANITIZE=1
# ----------------------------------------------------------------------

def _build(obs=None, fail_at=None):
    cfg = ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(8, 2),
        cluster_stagger=5e-6,
        rank_stagger=1e-6,
    )
    world, ctl = build_ft_world(
        8, lambda r, s: Stencil2D(r, s, niters=30, block=3), cfg, obs=obs,
        record_sequences=True,
    )
    if fail_at is not None:
        ctl.inject_failure(fail_at, 7)
        ctl.arm()
    return world, ctl


def test_full_run_every_invariant_executes(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    obs = MetricsRegistry()
    world, ctl = _build(obs=obs, fail_at=7e-5)
    sampler = SpeSampler(ctl, interval=4e-5)
    sampler.arm()
    world.launch()
    world.run()
    assert len(ctl.recovery_reports) >= 1  # recovery actually happened
    assert world.engine.events_dispatched >= AUDIT_INTERVAL  # audits fired
    # the offline analysis arms its own registry-free sanitizer; hand it
    # this run's registry so its checks are counted with the rest
    monkeypatch.setattr(rollback_mod, "sanitizer_for", lambda: Sanitizer(obs))
    rollback_analysis(sampler.snapshots, 8)
    counter = obs.counter("sanitize.checks", ("invariant",))
    executed = {name: counter.get((name,)) for name in INVARIANTS}
    missing = [name for name, n in executed.items() if n < 1]
    assert not missing, f"invariants never exercised: {missing} ({executed})"


def test_sanitized_run_is_execution_transparent(monkeypatch):
    """The sanitizer observes; it must not perturb the execution."""
    def signature(world):
        return (
            world.tracer.send_sequences(),
            world.engine.now,
            world.engine.events_dispatched,
        )

    monkeypatch.delenv(ENV_VAR, raising=False)
    off, _ = _build(fail_at=7e-5)
    off.launch()
    off.run()
    monkeypatch.setenv(ENV_VAR, "1")
    on, _ = _build(fail_at=7e-5)
    on.launch()
    on.run()
    assert signature(on) == signature(off)


# ----------------------------------------------------------------------
# send_witness: the send-determinism invariant
# ----------------------------------------------------------------------

def test_send_witness_first_emission_registers():
    san = Sanitizer()
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")
    assert san.checks["send_witness"] == 1


def test_send_witness_matching_replay_passes():
    san = Sanitizer()
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")  # replay
    assert san.checks["send_witness"] == 2


def test_send_witness_envelope_mismatch_raises():
    san = Sanitizer()
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")
    with _raises("send_witness"):
        san.send_witness(0, 3, dst=2, tag=7, size=64, digest="abc")


def test_send_witness_payload_mismatch_raises():
    san = Sanitizer()
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")
    with _raises("send_witness"):
        san.send_witness(0, 3, dst=1, tag=7, size=64, digest="OTHER")


def test_send_witness_none_digest_is_tolerated_then_tightened():
    san = Sanitizer()
    # replay from a log without a payload digest: envelope-only check
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest=None)
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")  # tightens
    with _raises("send_witness"):
        san.send_witness(0, 3, dst=1, tag=7, size=64, digest="xyz")


def test_send_witness_is_per_rank_and_per_date():
    san = Sanitizer()
    san.send_witness(0, 3, dst=1, tag=7, size=64, digest="abc")
    # same date on another rank, different envelope: fine
    san.send_witness(1, 3, dst=0, tag=7, size=64, digest="zzz")
    # another date on the same rank: fine
    san.send_witness(0, 4, dst=2, tag=9, size=8, digest="qqq")
    assert san.checks["send_witness"] == 3

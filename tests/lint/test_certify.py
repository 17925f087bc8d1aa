"""Certification pipeline: the differential delivery-order verifier
agrees with the static verdicts on every shipped kernel, catches a
planted order-dependent kernel, and the registry + campaign gates behave.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import apps
from repro.apps.base import RankProgram
from repro.core.controller import build_ft_world
from repro.errors import ConfigError
from repro.lint.certify import (
    DEFAULT_JITTER,
    OK_VERDICTS,
    REGISTRY_VERSION,
    build_registry,
    check_campaign_certification,
    current_kernel_digest,
    dynamic_verify,
    load_registry,
    registry_entry,
    render_registry_text,
    save_registry,
)
from repro.simmpi.api import ANY_SOURCE
from repro.simmpi.trace import send_witness_chains

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
APPS = os.path.join(REPO, "src", "repro", "apps")
UNSOUND = os.path.join(REPO, "tests", "lint", "fixtures", "unsound_kernel.py")
CATALOGUED = sorted(e.cls.__name__ for e in apps.KERNELS.values())


# ----------------------------------------------------------------------
# Dynamic differential verification
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kernel", CATALOGUED)
def test_dynamic_verifier_agrees_with_static(kernel):
    """Every shipped kernel's witness chains survive adversarial delivery
    schedules — the dynamic ground truth matches the static PROVEN_SD."""
    verdict = dynamic_verify(kernel, schedules=3)
    assert verdict.deterministic, verdict.detail
    assert verdict.kernel == kernel


class OrderEcho(RankProgram):
    """Deliberately NOT send-deterministic: rank 0 forwards ANY_SOURCE
    arrivals to the last rank in arrival order, so the payload sequence it
    sends depends on the delivery schedule."""

    def run(self, api):  # pragma: no cover - exercised via dynamic_verify
        last = self.size - 1
        if self.rank == 0:
            for _ in range(1, last):
                val = yield api.recv(ANY_SOURCE)
                yield api.send(last, val + 1.0)
        elif self.rank == last:
            for _ in range(1, last):
                yield api.recv(0)
        else:
            yield api.send(0, float(self.rank))


def test_dynamic_verifier_catches_order_dependence(monkeypatch):
    monkeypatch.setitem(apps.KERNELS, "order-echo",
                        apps.KernelEntry(OrderEcho, (4,), lambda n: OrderEcho))
    verdict = dynamic_verify("OrderEcho", schedules=6)
    assert not verdict.deterministic
    assert "changed the send sequence" in verdict.detail


@pytest.mark.parametrize("kernel", CATALOGUED)
def test_dynamic_verifier_runs_the_recording_world(kernel, monkeypatch):
    """Each delivery schedule runs the protocol-free recording world:
    send-determinism makes its sends the protocol's, so at schedule 0
    (no jitter) and schedule 1 its horizon, event count and witness chains
    equal a protocol world's under the same timing and network seed."""
    from contextlib import closing

    from repro import simmpi
    from repro.analysis.rollback import _RecordingHook
    from repro.lint import certify

    worlds = []
    real = simmpi.World

    def spy(*args, **kw):
        worlds.append(real(*args, **kw))
        return worlds[-1]

    monkeypatch.setattr(simmpi, "World", spy)
    assert dynamic_verify(kernel, schedules=2).deterministic
    monkeypatch.undo()
    assert len(worlds) == 2
    entry = certify._catalogue()[kernel]
    for s, world in enumerate(worlds):
        assert all(isinstance(p.hook, _RecordingHook) for p in world.procs)
        full, controller = build_ft_world(
            world.nprocs, entry.make(certify._NITERS),
            timing=simmpi.TimingModel(jitter=0.0 if s == 0 else DEFAULT_JITTER),
            network_seed=certify._SEED_BASE + s, record_sequences=True)
        with closing(controller):
            full.launch()
            full.run()
        assert ((world.engine.now, world.engine.events_dispatched,
                 send_witness_chains(world.tracer))
                == (full.engine.now, full.engine.events_dispatched,
                    send_witness_chains(full.tracer)))


@pytest.mark.parametrize("schedules", [1, 0, -1])
def test_dynamic_verify_needs_two_schedules(schedules):
    # one schedule compares nothing: refused, not silently run twice
    with pytest.raises(ConfigError, match="at least 2 delivery schedules"):
        dynamic_verify("Stencil1D", schedules=schedules)


def test_dynamic_verify_unknown_kernel_is_config_error():
    with pytest.raises(ConfigError, match="no catalogue entry"):
        dynamic_verify("NoSuchKernel")


def test_witness_chains_are_per_rank_and_reproducible():
    nprocs = 4

    def chains():
        world, _ = build_ft_world(nprocs, apps.KERNELS["stencil"].make(6),
                                  network_seed=11, record_sequences=True)
        world.launch()
        world.run()
        return send_witness_chains(world.tracer)

    first, second = chains(), chains()
    assert len(first) == nprocs
    assert first == second  # same schedule -> bit-identical witness


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry():
    return build_registry([APPS])


def test_registry_shape_and_verdicts(registry):
    assert registry["v"] == REGISTRY_VERSION
    assert registry["errors"] == []
    assert registry["noqa_findings"] == []
    assert sorted(registry["kernels"]) == CATALOGUED
    for name, entry in registry["kernels"].items():
        assert entry["verdict"] in OK_VERDICTS, (name, entry["verdict"])
        assert entry["static"] == entry["verdict"]
        assert entry["dynamic"] is None  # static-only build


def test_registry_save_load_round_trip(registry, tmp_path):
    path = str(tmp_path / "sub" / "certification.json")
    save_registry(registry, path)
    loaded = load_registry(path)
    assert loaded == json.loads(json.dumps(registry))  # JSON-clean
    entry = registry_entry(loaded, "Stencil1D")
    assert entry is not None and entry["verdict"] in OK_VERDICTS
    assert registry_entry(loaded, "NoSuchKernel") is None
    assert registry_entry(None, "Stencil1D") is None


def test_load_registry_rejects_garbage(tmp_path):
    assert load_registry(str(tmp_path / "absent.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("not json{", encoding="utf-8")
    assert load_registry(str(bad)) is None
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"v": REGISTRY_VERSION + 1, "kernels": {}}),
                     encoding="utf-8")
    assert load_registry(str(wrong)) is None


def test_live_digest_matches_registry_digest(registry):
    """current_kernel_digest (from class objects) and analyze_paths (from
    files) must agree, or every gate would cry stale."""
    for name in ("Stencil1D", "ReduceTreeKernel", "PingPong"):
        entry = registry_entry(registry, name)
        assert current_kernel_digest(getattr(apps, name)) == entry["digest"]


def test_render_registry_text(registry):
    text = render_registry_text(registry)
    assert "Stencil1D" in text
    n = len(registry["kernels"])
    assert f"{n} kernel(s) analyzed, {n} certified send-deterministic" in text


# ----------------------------------------------------------------------
# Campaign gates
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def registry_path(registry, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cert") / "certification.json")
    save_registry(registry, path)
    return path


def test_gate_passes_on_fresh_registry(registry_path):
    warnings = check_campaign_certification(
        [apps.Stencil1D, apps.PingPong, "ReduceTreeKernel"],
        registry_path=registry_path)
    assert warnings == []


def test_gate_warns_without_registry(tmp_path):
    warnings = check_campaign_certification(
        [apps.Stencil1D], registry_path=str(tmp_path / "none.json"))
    assert len(warnings) == 1
    assert "no certification registry" in warnings[0]
    assert "Stencil1D" in warnings[0]


def test_gate_warns_on_uncertified_kernel(registry_path):
    warnings = check_campaign_certification(
        ["NotARealKernel"], registry_path=registry_path)
    assert len(warnings) == 1
    assert "no entry" in warnings[0]


def test_gate_warns_on_stale_digest(registry, tmp_path):
    doc = json.loads(json.dumps(registry))
    doc["kernels"]["Stencil1D"]["digest"] = "0" * 32
    path = str(tmp_path / "stale.json")
    save_registry(doc, path)
    warnings = check_campaign_certification([apps.Stencil1D],
                                            registry_path=path)
    assert len(warnings) == 1
    assert "changed since certification" in warnings[0]
    # a bare name skips the digest check: verdict-only
    assert check_campaign_certification(["Stencil1D"],
                                        registry_path=path) == []


def test_gate_warns_on_violation_verdict(registry, tmp_path):
    doc = json.loads(json.dumps(registry))
    doc["kernels"]["Stencil1D"]["verdict"] = "VIOLATION"
    path = str(tmp_path / "bad.json")
    save_registry(doc, path)
    warnings = check_campaign_certification([apps.Stencil1D],
                                            registry_path=path)
    assert len(warnings) == 1
    assert "certified VIOLATION" in warnings[0]


def test_gate_strict_raises(tmp_path):
    with pytest.raises(ConfigError, match="--strict-sd"):
        check_campaign_certification(
            [apps.Stencil1D], registry_path=str(tmp_path / "none.json"),
            strict=True)


def test_certify_cli_goes_red_on_unsound_kernel():
    """The CI negative control: the committed fixture sends a
    ``from time import perf_counter`` reading, so ``repro certify`` must
    exit non-zero with verdict VIOLATION."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "certify", UNSOUND, "--out", "-"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO, "src")})
    assert proc.returncode == 1, proc.stderr
    assert "UnsoundKernel" in proc.stdout and "VIOLATION" in proc.stdout
    assert "SD105" in proc.stdout and "time.perf_counter()" in proc.stdout

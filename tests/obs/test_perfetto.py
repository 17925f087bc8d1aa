"""Perfetto/Chrome trace-event export: schema validity, one lane per
rank, and flow pairing by message uid."""

import json

from repro.apps.stencil import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.obs import MetricsRegistry, dump_perfetto, perfetto_trace

NPROCS = 6


def run_failure():
    config = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    factory = lambda r, s: Stencil2D(r, s, niters=25, block=3)
    obs = MetricsRegistry()
    world, controller = build_ft_world(NPROCS, factory, config, obs=obs)
    controller.inject_failure(4e-5, 3)
    controller.arm()
    world.launch()
    world.run()
    return controller, obs


def test_schema_valid_chrome_trace_events():
    _controller, obs = run_failure()
    trace = perfetto_trace(obs)
    events = trace["traceEvents"]
    assert events
    for e in events:
        assert e["ph"] in {"X", "i", "s", "f"}
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert e["pid"] == e["tid"]  # one lane per rank
        assert e["ts"] >= 0
        assert e["name"]
        if e["ph"] == "X":
            assert e["dur"] >= 0
        if e["ph"] == "i":
            assert e["s"] == "t"
        if e["ph"] in {"s", "f"}:
            assert e["id"] > 0
    # timestamps are sorted (stable rendering in viewers)
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)


def test_lanes_and_spans_per_rank():
    controller, obs = run_failure()
    events = perfetto_trace(obs)["traceEvents"]
    lanes = {e["pid"] for e in events}
    assert set(range(NPROCS)) <= lanes  # every rank has a lane
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"compute", "recovery"}
    # rolled-back ranks show a recovery span
    rolled = set(controller.recovery_reports[0].rolled_back)
    recovery_lanes = {e["pid"] for e in spans if e["name"] == "recovery"}
    assert rolled <= recovery_lanes
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert "checkpoint" in instants and "failure" in instants


def test_flow_events_paired_by_uid():
    _controller, obs = run_failure()
    events = perfetto_trace(obs)["traceEvents"]
    starts = {e["id"]: e for e in events if e["ph"] == "s"}
    finishes = {e["id"]: e for e in events if e["ph"] == "f"}
    assert starts
    assert set(starts) == set(finishes)  # every arrow has both ends
    for uid, s in starts.items():
        f = finishes[uid]
        assert f["ts"] >= s["ts"]  # delivery never precedes the send
        assert f.get("bp") == "e"


def test_dump_perfetto_writes_loadable_json(tmp_path):
    _controller, obs = run_failure()
    out = tmp_path / "run.trace.json"
    n = dump_perfetto(obs, str(out))
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == n > 0


def test_exporter_accepts_recorder_and_empty_sources():
    _controller, obs = run_failure()
    assert perfetto_trace(obs) == perfetto_trace(obs.flight)
    assert perfetto_trace(MetricsRegistry())["traceEvents"] == []

"""Time-series recorder: grid sampling, every point kept, snapshot/merge,
engine integration, and the central determinism contracts — arming the
recorder (or changing its interval) never perturbs protocol event order,
and merged series are byte-identical for any worker count."""

import json

import pytest

from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters
from repro.errors import SimulationError
from repro.obs import (
    DEFAULT_TIMESERIES_INTERVAL,
    MetricsRegistry,
    TimeSeriesRecorder,
    dump_flight,
    dump_metrics,
    dump_timeseries,
)
from repro.simmpi.engine import Engine
from repro.sweep import SweepTask, run_sweep


class FakeEngine:
    def __init__(self, now=0.0):
        self.now = now


# ----------------------------------------------------------------------
# Recorder unit behaviour
# ----------------------------------------------------------------------
def test_interval_must_be_positive():
    for bad in (0.0, -1e-6):
        with pytest.raises(SimulationError):
            TimeSeriesRecorder(bad)


def test_duplicate_series_name_raises():
    ts = TimeSeriesRecorder(1.0)
    ts.probe("x", lambda: 0.0)
    with pytest.raises(SimulationError):
        ts.probe("x", lambda: 1.0)
    with pytest.raises(SimulationError):
        ts.probe("y", lambda: 0.0, kind="rate")


def test_grid_sampling_and_counter_deltas():
    ts = TimeSeriesRecorder(1.0)
    state = {"v": 0.0}
    ts.probe("g", lambda: state["v"])
    ts.probe("c", lambda: state["v"] * 10, kind="counter")
    ts.bind_engine(FakeEngine())
    state["v"] = 1.0
    ts.sample_through(2.5)  # boundaries 1.0 and 2.0
    state["v"] = 4.0
    ts.sample_through(4.0)  # boundaries 3.0 and 4.0
    g, c = ts.series["g"], ts.series["c"]
    assert list(g.t) == [1.0, 2.0, 3.0, 4.0]
    assert list(g.v) == [1.0, 1.0, 4.0, 4.0]
    assert list(c.v) == [10.0, 10.0, 40.0, 40.0]
    assert list(c.d) == [10.0, 0.0, 30.0, 0.0]
    assert ts.samples_taken == 4


def test_a_long_series_keeps_its_start():
    # 5,000 grid points, past the 4,096 a per-series ring once held
    ts = TimeSeriesRecorder(0.5)
    ts.probe("g", lambda: 7.0)
    ts.probe("c", lambda: 1.0, kind="counter")
    ts.bind_engine(FakeEngine())
    ts.sample_through(2500.0)
    g, c = ts.series["g"], ts.series["c"]
    assert len(g.t) == len(g.v) == len(c.d) == ts.samples_taken == 5000
    assert g.t[0] == c.t[0] == 0.5 and g.t[-1] == 2500.0
    assert c.d[:2] == [1.0, 0.0]


def test_bind_engine_first_wins():
    ts = TimeSeriesRecorder(1.0)
    e1, e2 = FakeEngine(), FakeEngine()
    assert ts.bind_engine(e1) is True
    assert ts.bind_engine(e2) is False  # second world stays out
    assert ts.bind_engine(e1) is True  # idempotent for the owner
    assert ts.engine is e1


def test_snapshot_merge_roundtrip():
    def make(offset):
        ts = TimeSeriesRecorder(1.0)
        ts.probe("g", lambda: float(offset))
        ts.probe("c", lambda: float(offset), kind="counter")
        ts.bind_engine(FakeEngine())
        ts.sample_through(2.0)
        return ts

    sink = TimeSeriesRecorder(1.0)
    sink.merge(make(1).snapshot())
    sink.merge(make(2).snapshot())
    g = sink.series["g"]
    assert list(g.t) == [1.0, 2.0, 1.0, 2.0]  # concatenated, task order
    assert list(g.v) == [1.0, 1.0, 2.0, 2.0]
    assert list(sink.series["c"].d) == [1.0, 0.0, 2.0, 0.0]
    assert sink.samples_taken == 4


def test_merge_interval_mismatch_raises():
    a, b = TimeSeriesRecorder(1.0), TimeSeriesRecorder(2.0)
    a.probe("g", lambda: 0.0)
    a.bind_engine(FakeEngine())
    with pytest.raises(SimulationError):
        b.merge(a.snapshot())


def test_merge_kind_mismatch_raises():
    a = TimeSeriesRecorder(1.0)
    a.probe("x", lambda: 0.0)
    b = TimeSeriesRecorder(1.0)
    b.probe("x", lambda: 0.0, kind="counter")
    with pytest.raises(SimulationError):
        b.merge(a.snapshot())


def test_registry_merge_autocreates_unbounded_sink():
    worker = MetricsRegistry(timeseries_interval=1.0)
    worker.timeseries.probe("g", lambda: 1.0)
    worker.timeseries.bind_engine(FakeEngine())
    worker.timeseries.sample_through(5.0)
    parent = MetricsRegistry()  # no recorder until a snapshot arrives
    assert parent.timeseries is None
    parent.merge(worker.snapshot())
    parent.merge(worker.snapshot())
    sink = parent.timeseries
    assert sink is not None and sink.interval == 1.0
    # 5 points per snapshot; the sink keeps all of them, in merge order
    assert sink.series["g"].t == [1.0, 2.0, 3.0, 4.0, 5.0] * 2


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def _count_engine(interval, *, run_slices=None, until=None):
    reg = MetricsRegistry(timeseries_interval=interval)
    engine = Engine(obs=reg)
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if state["n"] < 12:
            engine.schedule_at(engine.now + 3e-6, tick)

    engine.schedule_at(3e-6, tick)
    if run_slices:
        for u in run_slices:
            engine.run(until=u)
    else:
        engine.run(until=until)
    return reg


def test_engine_samples_on_grid():
    reg = _count_engine(1e-5)
    ts = reg.timeseries
    disp = ts.series["engine.events_dispatched"]
    # events at 3,6,9..36 us; grid boundaries 10,20,30 us all crossed.
    # (The 10th event's accumulated float time lands a hair *below* the
    # multiplied 3e-5 grid point, so the third sample already sees it —
    # deterministic float semantics, identical on every run.)
    assert list(disp.t) == [k * 1e-5 for k in (1, 2, 3)]
    assert [int(v) for v in disp.v] == [3, 6, 10]
    assert "engine.pending" in ts.series


def test_run_slices_match_one_shot():
    # same horizon reached in one run() or four: identical samples (the
    # drained-queue branch keeps sampling through idle time to the horizon)
    one = _count_engine(1e-5, until=5e-5).timeseries.snapshot()
    sliced = _count_engine(
        1e-5, run_slices=[1.5e-5, 2e-5, 3.7e-5, 5e-5]
    ).timeseries.snapshot()
    assert one == sliced


def test_sampler_never_perturbs_protocol_order():
    """The boundary hook consumes no sequence numbers: the final registry
    of an instrumented run is byte-identical with the recorder on or off,
    and for any interval."""

    def run(interval):
        nprocs = 8
        config = ProtocolConfig(
            checkpoint_interval=3e-5,
            cluster_of=block_clusters(nprocs, 2),
            cluster_stagger=5e-6, rank_stagger=1e-6,
        )
        factory = lambda r, s: Stencil2D(r, s, niters=20, block=3)
        reg = MetricsRegistry(timeseries_interval=interval)
        world, controller = build_ft_world(nprocs, factory, config, obs=reg)
        controller.inject_failure(2e-4, nprocs - 1)
        controller.arm()
        world.launch()
        world.run()
        return reg

    def normalized_flight(reg):
        # message uids come from a process-global counter, so consecutive
        # worlds in one process see a constant offset; subtract it to
        # compare the streams structurally
        recs = [json.loads(line)
                for line in dump_flight(reg, "jsonl").splitlines()]
        uids = [r["uid"] for r in recs if r.get("uid", 0) > 0]
        off = min(uids) - 1 if uids else 0
        for r in recs:
            for key in ("uid", "cause_uid"):
                if r.get(key, 0) > 0:
                    r[key] -= off
        return recs

    baseline = run(None)
    on = run(DEFAULT_TIMESERIES_INTERVAL)
    coarse = run(7e-5)
    base_metrics = dump_metrics(baseline, "jsonl")
    base_flight = normalized_flight(baseline)
    for reg in (on, coarse):
        assert dump_metrics(reg, "jsonl") == base_metrics
        assert normalized_flight(reg) == base_flight
    # and the recorder did actually record something
    assert on.timeseries.samples_taken > 0
    held = on.timeseries.series["log.bytes_held"]
    assert max(held.v) > 0


# ----------------------------------------------------------------------
# Worker byte-identity (the --workers N contract)
# ----------------------------------------------------------------------
def _ts_task(params):
    """Module-level (picklable): tiny instrumented protocol run."""
    nprocs = 4
    config = ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(nprocs, 2),
        cluster_stagger=5e-6, rank_stagger=1e-6,
    )
    factory = lambda r, s: Stencil2D(r, s, niters=4 + params["n"], block=3)
    world, _ = build_ft_world(nprocs, factory, config, obs=params["obs"])
    world.launch()
    world.run()
    return {"n": params["n"]}


def test_workers_byte_identical_series():
    def run(workers):
        parent = MetricsRegistry()
        tasks = [SweepTask(name=f"t{i}", params={"n": i}) for i in range(4)]
        results = run_sweep(_ts_task, tasks, workers=workers,
                            obs=parent, collect_obs=True, timeseries=1e-5)
        assert all(r.ok for r in results)
        return dump_timeseries(parent, "jsonl")

    seq = run(1)
    par = run(4)
    assert seq == par
    rows = [json.loads(line) for line in seq.splitlines()]
    assert any(r["series"] == "network.in_flight" for r in rows)

"""Cross-process observability merging: worker registries ship snapshots
back to the parent, and the merged registry is identical for any worker
count (inline vs. pool)."""

from repro.obs import MetricsRegistry
from repro.sweep import SweepTask, run_sweep

from .conftest import sample_point, sampled_points


def obs_task(params):
    """Module-level (picklable) task exercising every instrument type."""
    obs = params["obs"]
    n = params["n"]
    obs.counter("task.runs").inc()
    obs.counter("task.n", ("n",)).inc(n, labels=(n,))
    g = obs.gauge("task.depth")
    g.inc(n)
    obs.histogram("task.size", (1.0, 10.0)).observe(float(n))
    sample_point(obs, n)
    return {"n": n}


def tasks(count=4):
    return [SweepTask(name=f"t{i}", params={"n": i + 1}) for i in range(count)]


def run(workers):
    parent = MetricsRegistry()
    results = run_sweep(obs_task, tasks(), workers=workers,
                        obs=parent, collect_obs=True, timeseries=1.0)
    assert all(r.ok for r in results)
    return parent, results


def test_merged_obs_identical_inline_vs_pool():
    seq, seq_results = run(workers=1)
    par, par_results = run(workers=2)
    # no wall-clock datum lives in the simulation registry: the whole
    # snapshot is the determinism contract
    assert seq.snapshot() == par.snapshot()
    # per-result snapshots also identical in task order
    assert [r.obs for r in seq_results] == [r.obs for r in par_results]


def slot_task(params):
    """Task instrumented the slot-resolved way (the hot-path idiom):
    cells bound once, bare ``.n`` bumps."""
    obs = params["obs"]
    n = params["n"]
    runs = obs.counter("slot.runs").slot()
    sized = obs.counter("slot.bytes", ("src",)).slot((n,))
    for _ in range(n):
        runs.n += 1
        sized.n += 8
    obs.histogram("slot.size", (1.0, 10.0)).observe(float(n))
    sample_point(obs, n)
    return {"n": n}


def test_merged_export_byte_identical_workers_1_vs_4():
    """The PR 3 guarantee under the slot API: every exported artefact of
    the merged parent registry is byte-for-byte identical whether the
    sweep ran inline or on four workers."""
    from repro.obs.export import dump_metrics, dump_timeseries

    dumps = {}
    for workers in (1, 4):
        parent = MetricsRegistry()
        results = run_sweep(slot_task, tasks(), workers=workers,
                            obs=parent, collect_obs=True, timeseries=1.0)
        assert all(r.ok for r in results)
        dumps[workers] = (
            dump_metrics(parent, fmt="jsonl"),
            dump_metrics(parent, fmt="csv"),
            dump_timeseries(parent, fmt="jsonl"),
        )
    assert dumps[1] == dumps[4]
    # sanity: the comparison is not vacuous
    assert "slot.runs" in dumps[1][0]
    assert '"v": [1.0, 2.0, 3.0, 4.0]' in dumps[1][2]


def test_merge_happens_in_task_order():
    parent, _results = run(workers=3)
    # time series concatenate in task order: one point per task, 1..4
    assert sampled_points(parent) == [1.0, 2.0, 3.0, 4.0]
    assert parent.counter("task.runs").total == 4
    assert parent.gauge("task.depth").value == 1 + 2 + 3 + 4


def test_result_obs_excluded_from_json():
    _parent, results = run(workers=1)
    for r in results:
        assert r.obs is not None
        assert "obs" not in r.to_json()


def test_collect_obs_without_parent_registry_still_ships_snapshots():
    results = run_sweep(obs_task, tasks(2), workers=1, collect_obs=True,
                        timeseries=1.0)
    assert all(r.obs["instruments"] for r in results)


def test_no_collect_obs_keeps_results_lean():
    results = run_sweep(lambda p: p["n"], tasks(2), workers=1)
    assert all(r.obs is None for r in results)

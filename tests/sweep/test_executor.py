"""Unit tests for the :mod:`repro.sweep` multiprocessing executor."""

import json
import os
import time

import pytest

from repro.obs import MetricsRegistry
from repro.sweep import SweepResult, SweepTask, run_sweep, save_results, task_seed
from repro.sweep.executor import _jsonable

from .conftest import sample_point, sampled_points


# Task functions must live at module level so they pickle into workers.

def square(params):
    return params["x"] * params["x"]


def record_seed(params):
    return params["seed"]


def fail_on_odd(params):
    if params["x"] % 2:
        raise ValueError(f"odd input {params['x']}")
    return params["x"]


def structured(params):
    return {"rate": params["x"] / 2, "pair": (params["x"], "name")}


def _tasks(n):
    return [SweepTask(name=f"t{i}", params={"x": i}) for i in range(n)]


# ----------------------------------------------------------------------
# task_seed
# ----------------------------------------------------------------------

def test_task_seed_deterministic_and_distinct():
    assert task_seed(0, 0, "a") == task_seed(0, 0, "a")
    # any coordinate change moves the seed
    assert task_seed(0, 0, "a") != task_seed(1, 0, "a")
    assert task_seed(0, 0, "a") != task_seed(0, 1, "a")
    assert task_seed(0, 0, "a") != task_seed(0, 0, "b")


def test_task_seed_is_63_bit_non_negative():
    for i in range(50):
        s = task_seed(7, i, f"task-{i}")
        assert 0 <= s < 2**63


def test_task_seed_does_not_depend_on_hash_salt():
    """The documented reason for blake2b: ``hash()`` is salted per process,
    so per-task seeds must come from a content-addressed digest.  Pin the
    value so any accidental switch to ``hash()`` fails on the next run."""
    assert task_seed(0, 0, "pinned") == 7901061385613268754


# ----------------------------------------------------------------------
# run_sweep
# ----------------------------------------------------------------------

def test_sequential_sweep_returns_task_order():
    results = run_sweep(square, _tasks(5), workers=1)
    assert [r.index for r in results] == list(range(5))
    assert [r.value for r in results] == [0, 1, 4, 9, 16]
    assert all(r.ok and r.status == "ok" for r in results)


def test_parallel_matches_sequential():
    tasks = _tasks(6)
    seq = run_sweep(square, tasks, workers=1, base_seed=3)
    par = run_sweep(square, tasks, workers=2, base_seed=3)
    strip = lambda rs: [(r.index, r.name, r.status, r.value, r.seed)
                        for r in rs]
    assert strip(par) == strip(seq)


def test_seeds_injected_and_stable_across_worker_counts():
    tasks = _tasks(4)
    expected = [task_seed(11, i, t.name) for i, t in enumerate(tasks)]
    for workers in (1, 3):
        results = run_sweep(record_seed, tasks, workers=workers, base_seed=11)
        assert [r.value for r in results] == expected
        assert [r.seed for r in results] == expected


def test_error_isolation_sweep_continues():
    results = run_sweep(fail_on_odd, _tasks(5), workers=1)
    assert [r.status for r in results] == ["ok", "error", "ok", "error", "ok"]
    bad = results[1]
    assert not bad.ok
    assert bad.value is None
    assert "ValueError" in bad.error and "odd input 1" in bad.error
    assert "fail_on_odd" in bad.traceback


def test_error_isolation_in_workers():
    results = run_sweep(fail_on_odd, _tasks(5), workers=2)
    assert [r.status for r in results] == ["ok", "error", "ok", "error", "ok"]
    assert [r.index for r in results] == list(range(5))


def test_params_not_mutated_by_seed_injection():
    task = SweepTask(name="t", params={"x": 2})
    run_sweep(square, [task], workers=1)
    assert task.params == {"x": 2}  # seed went into a copy


def test_progress_callback_sees_every_result():
    seen = []
    run_sweep(square, _tasks(4), workers=1, on_progress=seen.append)
    assert sorted(r.index for r in seen) == list(range(4))


def test_obs_counters_track_completions():
    obs = MetricsRegistry()
    run_sweep(fail_on_odd, _tasks(4), workers=1, obs=obs)
    counter = obs.counter("sweep.tasks_completed", ("status",))
    assert counter.get(labels=("ok",)) == 2
    assert counter.get(labels=("error",)) == 2
    assert counter.total == 4


def test_empty_sweep():
    assert run_sweep(square, [], workers=4) == []


# ----------------------------------------------------------------------
# save_results / to_json
# ----------------------------------------------------------------------

def test_save_results_structure(tmp_path):
    results = run_sweep(fail_on_odd, _tasks(3), workers=1, base_seed=5)
    out = tmp_path / "sweep.json"
    save_results(str(out), results, sweep_name="demo", extra={"ranks": 8})
    doc = json.loads(out.read_text())
    assert doc["sweep"] == "demo"
    assert doc["tasks"] == 3
    assert doc["ok"] == 2
    assert doc["errors"] == 1
    assert doc["extra"]["ranks"] == 8
    assert [r["index"] for r in doc["results"]] == [0, 1, 2]
    assert doc["results"][0]["value"] == 0
    assert doc["results"][1]["status"] == "error"
    assert "traceback" in doc["results"][1]
    assert "value" not in doc["results"][1]
    assert doc["results"][2]["seed"] == task_seed(5, 2, "t2")


def test_save_results_extra_cannot_clobber_document_keys(tmp_path):
    """Historically ``extra`` merged into the top level, so a key named
    ``results`` or ``ok`` silently replaced the document's own field."""
    results = run_sweep(square, _tasks(2), workers=1)
    out = tmp_path / "sweep.json"
    save_results(str(out), results, sweep_name="demo",
                 extra={"results": "clobber", "ok": -1, "tasks": 999})
    doc = json.loads(out.read_text())
    assert doc["tasks"] == 2 and doc["ok"] == 2  # document fields intact
    assert [r["index"] for r in doc["results"]] == [0, 1]
    assert doc["extra"] == {"results": "clobber", "ok": -1, "tasks": 999}


def test_to_json_handles_structured_values(tmp_path):
    results = run_sweep(structured, _tasks(2), workers=1)
    out = tmp_path / "sweep.json"
    save_results(str(out), results)
    doc = json.loads(out.read_text())
    assert doc["results"][1]["value"] == {"rate": 0.5, "pair": [1, "name"]}


def test_to_json_reprs_unserialisable_values():
    res = SweepResult(index=0, name="t", status="ok", value=object())
    encoded = res.to_json()
    assert isinstance(encoded["value"], str)
    json.dumps(encoded)  # must not raise


# ----------------------------------------------------------------------
# _jsonable key-collision handling
# ----------------------------------------------------------------------

def test_jsonable_disambiguates_colliding_stringified_keys():
    """``1`` and ``"1"`` both stringify to ``"1"``; they used to merge
    silently (last writer wins).  Both values must survive."""
    out = _jsonable({1: "int", "1": "str", None: "none", "None": "s"})
    assert out["1"] == "int"
    assert out["1#str"] == "str"
    assert out["None"] == "none"
    assert out["None#str"] == "s"
    assert len(out) == 4


def test_jsonable_collision_suffixes_are_deterministic():
    a = _jsonable({1: "a", "1": "b", 1.0: "c"})
    # 1 and 1.0 are equal dict keys, so only two entries exist
    assert a == {"1": "c", "1#str": "b"}
    out = _jsonable({"2": "s", 2: "i", "2#int": "taken"})
    assert out == {"2": "s", "2#int": "i", "2#int#str": "taken"}
    # the numbered suffix kicks in when the typed form is taken too
    out = _jsonable({"3": "a", "3#int": "b", 3: "c", (3,): {"3": 1, 3: 2}})
    assert out["3#int.2"] == "c"
    assert out["(3,)"] == {"3": 1, "3#int": 2}  # recursion disambiguates


def test_jsonable_strict_raises_on_collision_and_repr():
    with pytest.raises(ValueError, match="collide"):
        _jsonable({1: "a", "1": "b"}, strict=True)
    with pytest.raises(ValueError, match="content-stable"):
        _jsonable(object(), strict=True)
    # plain data passes through strict mode unchanged
    assert _jsonable({"a": [1, 2.5, None, True]}, strict=True) == \
        {"a": [1, 2.5, None, True]}


# ----------------------------------------------------------------------
# hard worker crashes (no exception, no result)
# ----------------------------------------------------------------------

def crash_hard(params):
    if params["x"] == 2:
        time.sleep(0.4)  # let innocent tasks drain first
        os._exit(13)  # simulated segfault/OOM kill: pool breaks
    return params["x"]


def test_worker_hard_crash_raises_lost_results():
    """A worker that dies without returning must not hang the sweep or
    silently drop its task: after a retry in a fresh pool, the sweep
    raises the historical lost-results error naming the task index."""
    with pytest.raises(RuntimeError,
                       match=r"sweep lost results for task indices \[2\]"):
        run_sweep(crash_hard, _tasks(4), workers=2)


# ----------------------------------------------------------------------
# obs snapshots from *error* results merge in task order
# ----------------------------------------------------------------------

def obs_then_fail(params):
    obs = params["obs"]
    n = params["x"]
    obs.counter("t.runs", ("n",)).inc(labels=(n,))
    sample_point(obs, n)
    if n % 2:
        raise ValueError(f"odd input {n}")
    return n


def _merged_export(workers):
    from repro.obs import dump_metrics

    parent = MetricsRegistry()
    results = run_sweep(obs_then_fail, _tasks(4), workers=workers,
                        obs=parent, collect_obs=True, timeseries=1.0)
    assert [r.status for r in results] == ["ok", "error", "ok", "error"]
    return dump_metrics(parent, "jsonl"), sampled_points(parent)


def test_error_result_obs_snapshots_merge_in_task_order():
    """Failing tasks still ship their partial obs snapshot, and the merge
    happens in task order for any worker count — the time-series point of
    failed task 1 lands before task 2's even when a pool finished them out
    of order."""
    seq_export, seq_order = _merged_export(workers=1)
    par_export, par_order = _merged_export(workers=2)
    assert seq_order == [0, 1, 2, 3]
    assert par_order == [0, 1, 2, 3]
    assert par_export == seq_export


# ----------------------------------------------------------------------
# content-addressed cache round trip
# ----------------------------------------------------------------------

def test_cache_round_trip_byte_identity():
    """Second run against a warm cache: 100% hits, and every export —
    result JSON and the merged obs registry — byte-identical to the
    cold run (durations included: hits carry the cold run's)."""
    from repro.obs import dump_metrics
    from repro.service import ResultCache

    cache = ResultCache()

    def run(service_obs=None):
        parent = MetricsRegistry()
        results = run_sweep(obs_then_fail, _tasks(4), workers=1,
                            base_seed=9, obs=parent, collect_obs=True,
                            cache=cache, service_obs=service_obs)
        return results, dump_metrics(parent, "jsonl")

    cold, cold_obs = run()
    assert all(not r.cached for r in cold)
    assert cache.stats()["misses"] == 4 and cache.stats()["stores"] == 4

    acct = MetricsRegistry()
    warm, warm_obs = run(service_obs=acct)
    assert all(r.cached for r in warm)
    assert cache.stats()["hits"] == 4
    # hit/miss accounting lands in the *service* registry only
    assert acct.counter("service.cache", ("outcome",)).get(("hit",)) == 4
    assert "service.cache" not in warm_obs

    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]
    assert [r.duration for r in warm] == [r.duration for r in cold]
    assert warm_obs == cold_obs


def test_cached_flag_not_serialized():
    res = SweepResult(index=0, name="t", status="ok", value=1, cached=True)
    assert "cached" not in res.to_json()


# ----------------------------------------------------------------------
# the pinned start method
# ----------------------------------------------------------------------

def process_name(params):
    import multiprocessing

    return multiprocessing.current_process().name


@pytest.fixture
def start_method_env(monkeypatch):
    """Set ``REPRO_MP_START_METHOD`` for one test; the pin resolves afresh
    on both sides of it."""
    from repro.sweep import executor

    def set_method(value):
        monkeypatch.setenv("REPRO_MP_START_METHOD", value)
        executor._pinned_start_method.cache_clear()

    yield set_method
    executor._pinned_start_method.cache_clear()


@pytest.mark.parametrize("argv", [
    ["table1", "--kernels", "CG", "MG", "--ranks", "8", "--clusters", "2",
     "--niters", "2", "--workers", "2"],
    ["chaos", "--trials", "2", "--workers", "2"],
])
def test_unknown_start_method_is_a_usage_error(argv, start_method_env,
                                               capsys):
    import multiprocessing

    from repro.cli import main

    start_method_env("bogus")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "REPRO_MP_START_METHOD='bogus'" in err
    assert all(m in err for m in multiprocessing.get_all_start_methods())
    assert "Traceback" not in err


def test_start_method_override_reaches_the_pool(start_method_env):
    from repro.sweep import Scheduler, executor

    start_method_env("spawn")
    assert executor.MP_START_METHOD == "spawn"
    assert Scheduler(2).mp_method == "spawn"
    names = [r.value for r in run_sweep(process_name, _tasks(2), workers=2)]
    assert all(name.startswith("SpawnProcess") for name in names), names

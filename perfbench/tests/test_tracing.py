import pytest

from perfbench.tracing import LAYERS, SpanRecorder, bucket_profile, layer_of


def test_span_self_time_is_duration_minus_children():
    rec = SpanRecorder("w")
    rec.spans = [
        {"name": "unit", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "run", "parent": 0, "start": 1.0, "end": 5.0},
        {"name": "sample", "parent": 1, "start": 2.0, "end": 2.5},
        {"name": "sample", "parent": 1, "start": 3.0, "end": 3.5},
        {"name": "solve", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    own = rec.self_times()
    assert own == {"unit": 2.0, "run": 3.0, "sample": 1.0, "solve": 4.0}
    assert sum(own.values()) == 10.0
    assert rec.total("sample") == 1.0


def test_span_recorder_nests_and_closes_on_error():
    rec = SpanRecorder("w")
    with pytest.raises(KeyError):
        with rec.span("outer"):
            with rec.span("inner"):
                raise KeyError("boom")
    assert [s["parent"] for s in rec.spans] == [None, 0]
    assert all(s["end"] >= s["start"] and s["workload"] == "w"
               for s in rec.spans)


def test_layer_of_maps_repo_modules_and_unknown_files():
    assert layer_of("/x/src/repro/simmpi/engine.py") == "simmpi.engine"
    assert layer_of("/x/src/repro/simmpi/api.py") == "simmpi.process"
    assert layer_of("/x/src/repro/apps/cg.py") == "apps"
    assert layer_of("/x/src/repro/analysis/validity.py") == "analysis.other"
    assert layer_of("/x/src/repro/service/jobs.py") == "service.jobs"
    assert layer_of("/x/src/repro/campaigns.py") == "other"
    assert layer_of("/usr/lib/python3.11/copy.py") == "other"
    assert layer_of("~") == "other"
    assert LAYERS[-1] == "other" and len(set(LAYERS)) == len(LAYERS)


ENGINE = ("/r/src/repro/simmpi/engine.py", 10, "run")
CKPT = ("/r/src/repro/core/checkpoint.py", 20, "take")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
DEEPCOPY = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
COPY_DICT = ("/usr/lib/python3.11/copy.py", 227, "_deepcopy_dict")
ID = ("~", 0, "<built-in method builtins.id>")
BENCH = ("/r/perfbench/workloads.py", 5, "unit")
MYSTERY = ("/somewhere/else.py", 1, "f")


def _stats():
    # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    return {
        BENCH: (1, 1, 0.5, 20.0, {}),
        ENGINE: (1, 1, 4.0, 6.0, {BENCH: (1, 1, 4.0, 6.0)}),
        HEAPPUSH: (100, 100, 2.0, 2.0, {ENGINE: (100, 100, 2.0, 2.0)}),
        CKPT: (1, 1, 1.0, 13.0, {BENCH: (1, 1, 1.0, 13.0)}),
        # recursive: most of deepcopy's self time sits under its own frames
        DEEPCOPY: (10, 50, 6.0, 12.0, {CKPT: (10, 10, 1.0, 12.0),
                                       COPY_DICT: (40, 0, 5.0, 11.0)}),
        COPY_DICT: (10, 40, 3.0, 11.0, {DEEPCOPY: (40, 10, 3.0, 11.0)}),
        ID: (50, 50, 3.0, 3.0, {DEEPCOPY: (50, 50, 3.0, 3.0)}),
        MYSTERY: (1, 1, 0.25, 0.25, {}),
    }


def test_bucket_profile_sums_to_total_and_charges_callers():
    stats = _stats()
    buckets = bucket_profile(stats)
    total = sum(entry[2] for entry in stats.values())
    assert sum(b["self_s"] for b in buckets.values()) == pytest.approx(total)
    # builtin charged to its caller's layer
    assert buckets["simmpi.engine"]["self_s"] == pytest.approx(4.0 + 2.0)
    assert buckets["simmpi.engine"]["calls"] == 101
    # stdlib recursion and the builtin under it reach the checkpoint layer
    assert buckets["core.checkpoint"]["self_s"] == pytest.approx(1 + 6 + 3 + 3)
    # the benchmark's own frame and a file nobody knows go to other
    assert buckets["other"]["self_s"] == pytest.approx(0.5 + 0.25)
    assert set(buckets) == set(LAYERS)


def test_bucket_profile_splits_a_shared_builtin_by_caller():
    stats = {
        ENGINE: (1, 1, 1.0, 2.0, {}),
        CKPT: (1, 1, 1.0, 4.0, {}),
        ID: (4, 4, 4.0, 4.0, {ENGINE: (1, 1, 1.0, 1.0), CKPT: (3, 3, 3.0, 3.0)}),
    }
    buckets = bucket_profile(stats)
    assert buckets["simmpi.engine"]["self_s"] == pytest.approx(2.0)
    assert buckets["core.checkpoint"]["self_s"] == pytest.approx(4.0)
    assert buckets["other"]["self_s"] == 0

"""CLI smoke tests (argument parsing + each command end to end)."""

import os

import pytest

import repro.apps
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["pattern", "ZZ"])


def test_demo_command(capsys):
    assert main(["demo", "--ranks", "8", "--clusters", "2",
                 "--fail-rank", "6"]) == 0
    out = capsys.readouterr().out
    assert "rolled back" in out
    assert "validity" in out


def test_table1_command(capsys):
    assert main(["table1", "--kernels", "CG", "--ranks", "16",
                 "--clusters", "4", "--niters", "4"]) == 0
    out = capsys.readouterr().out
    assert "%log" in out and "theoretical" in out


def test_table1_command_parallel_output_identical(capsys):
    argv = ["table1", "--kernels", "CG", "--ranks", "16",
            "--clusters", "4", "--niters", "4"]
    assert main(argv) == 0
    sequential = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential


def test_sweep_command_failures(tmp_path, capsys):
    import json

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--ranks", "8",
                 "--clusters", "2", "--niters", "20", "--runs", "3",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "3/3 runs ok" in stdout
    assert "validity violations: none" in stdout
    doc = json.loads(out.read_text())
    assert doc["sweep"] == "failures"
    assert doc["tasks"] == 3 and doc["ok"] == 3 and doc["errors"] == 0
    for res in doc["results"]:
        assert res["status"] == "ok"
        assert res["value"]["valid"] is True


def test_sweep_command_seed_reproducible(tmp_path):
    import json

    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["sweep", "--runs", "2",
                     "--niters", "20", "--base-seed", "9",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # durations are host wall-clock; everything else must match
        for res in doc["results"]:
            res.pop("duration_s")
        outs.append(doc)
    assert outs[0] == outs[1]


def test_table1_out_writes_the_results_document(tmp_path, capsys):
    import json

    out = tmp_path / "cells.json"
    assert main(["table1", "--kernels", "CG", "MG", "--ranks", "8",
                 "--clusters", "2", "--niters", "2", "--out", str(out)]) == 0
    assert f"results -> {out}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["sweep"] == "table1" and doc["ok"] == 2
    assert [r["name"] for r in doc["results"]] == ["CG/8r/2cl", "MG/8r/2cl"]
    assert doc["extra"] == {"ranks": [8], "clusters": [2], "workers": 1,
                            "base_seed": 0}


def test_fig6_command(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "lat_native_us" in out


def test_pattern_command(capsys):
    assert main(["pattern", "CG", "--ranks", "16", "--clusters", "4"]) == 0
    out = capsys.readouterr().out
    assert "locality" in out


def test_domino_command(capsys):
    assert main(["domino", "--ranks", "8"]) == 0
    out = capsys.readouterr().out
    assert "rolled back" in out


@pytest.mark.parametrize("argv", [
    ["domino", "--ranks", "0"],
    ["domino", "--ranks", "-3"],
    ["pattern", "CG", "--ranks", "0"],
], ids=["domino-0", "domino-negative", "pattern-0"])
def test_no_ranks_is_a_usage_error(argv, capsys):
    """A world of no rank is refused as a configuration: one line on
    stderr, exit 2, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"need at least one rank, not {argv[-1]}"]
    assert captured.out == ""


@pytest.mark.parametrize("flag,value,line", [
    ("--jitter", "nan", "TimingModel: jitter must be in [0, 1), not nan"),
    ("--jitter", "-2", "TimingModel: jitter must be in [0, 1), not -2.0"),
    ("--jitter", "1", "TimingModel: jitter must be in [0, 1), not 1.0"),
    ("--schedules", "1",
     "dynamic_verify needs at least 2 delivery schedules, not 1"),
])
def test_certify_dynamic_bad_input_is_a_usage_error(flag, value, line,
                                                    capsys):
    """A jitter outside [0, 1) or a single schedule would verify nothing:
    one line on stderr, exit 2, and no verdict printed."""
    apps = os.path.dirname(repro.apps.__file__)
    assert main(["certify", apps, "--dynamic", "--kernels", "PingPong",
                 "--out", "-", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert "deterministic" not in captured.out


# ----------------------------------------------------------------------
# Time-resolved telemetry (PR 8): --timeseries, --stream, repro report
# ----------------------------------------------------------------------
def test_table1_timeseries_identical_across_workers(tmp_path, capsys):
    outs, dumps = [], []
    for i, workers in enumerate(("1", "2")):
        ts_out = tmp_path / f"ts{i}.jsonl"
        assert main(["table1", "--kernels", "CG", "--ranks", "8",
                     "--clusters", "2", "--niters", "4",
                     "--workers", workers, "--timeseries",
                     "--timeseries-out", str(ts_out)]) == 0
        outs.append(capsys.readouterr().out)
        dumps.append(ts_out.read_bytes())
    assert outs[0] == outs[1]
    assert "timeseries:" in outs[0]
    assert dumps[0] == dumps[1]  # byte-identical JSONL for any -N


def test_table1_stream_events(tmp_path, capsys):
    import json

    path = tmp_path / "stream.jsonl"
    assert main(["table1", "--kernels", "CG", "--ranks", "8",
                 "--clusters", "2", "--niters", "4",
                 "--stream", str(path)]) == 0
    capsys.readouterr()
    evs = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [e["kind"] for e in evs]
    assert kinds == ["campaign_begin", "task_done", "campaign_end"]
    assert evs[0]["campaign"] == "table1"
    assert evs[1]["status"] == "ok"
    assert evs[2]["ok"] is True


def test_obs_text_format(capsys):
    assert main(["obs", "--ranks", "4", "--clusters", "2",
                 "--format", "text", "--timeseries"]) == 0
    out = capsys.readouterr().out
    assert "counter" in out and "histogram" in out
    assert "p50=" in out
    assert "timeseries interval=" in out


def test_obs_timeseries_out_requires_flag(tmp_path, capsys):
    # rejected before the run: no other output is written either
    path, metrics = tmp_path / "ts.jsonl", tmp_path / "m.jsonl"
    assert main(["obs", "--ranks", "4", "--clusters", "2",
                 "--out", str(metrics), "--timeseries-out", str(path)]) == 2
    assert "--timeseries-out needs --timeseries" in capsys.readouterr().err
    assert not metrics.exists() and not path.exists()


@pytest.mark.parametrize("interval", ["0", "nan", "-1"])
def test_obs_timeseries_interval_out_of_range_is_a_usage_error(
        interval, tmp_path, capsys):
    """The rule table1 / sweep apply to their spec: one line on stderr,
    exit 2, before the run writes anything."""
    metrics = tmp_path / "m.jsonl"
    assert main(["obs", "--ranks", "4", "--clusters", "2", "--out",
                 str(metrics), "--timeseries", interval]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"obs timeseries interval must be > 0, not {float(interval)}"]
    assert not metrics.exists()


def test_table1_timeseries_out_requires_flag(tmp_path, capsys):
    # one declaration, one check: table1 refuses what obs refuses
    path = tmp_path / "ts.jsonl"
    assert main(["table1", "--kernels", "CG", "--ranks", "16",
                 "--clusters", "4", "--niters", "2",
                 "--timeseries-out", str(path)]) == 2
    captured = capsys.readouterr()
    assert "--timeseries-out needs --timeseries" in captured.err
    assert not captured.out and not path.exists()


def test_obs_trace_out_is_perfetto_whatever_the_suffix(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"                  # no ``.trace.json`` suffix
    assert main(["obs", "--ranks", "4", "--clusters", "2",
                 "--out", str(tmp_path / "m.jsonl"),
                 "--trace-out", str(path)]) == 0
    assert "perfetto trace" in capsys.readouterr().out
    events = json.loads(path.read_text())["traceEvents"]
    assert events
    for e in events:
        assert e["ph"] in {"X", "i", "s", "f"}
        assert e["pid"] == e["tid"] and e["ts"] >= 0 and e["name"]
    assert {"checkpoint", "failure"} <= {e["name"] for e in events}


def _dump_obs_series(tmp_path) -> str:
    ts = tmp_path / "ts.jsonl"
    assert main(["obs", "--ranks", "4", "--clusters", "2",
                 "--timeseries", "--timeseries-out", str(ts),
                 "--out", str(tmp_path / "m.jsonl")]) == 0
    return str(ts)


def test_report_command(tmp_path, capsys):
    """``repro report`` writes one self-contained file: inline SVG, no
    external assets."""
    ts = _dump_obs_series(tmp_path)
    capsys.readouterr()
    out = tmp_path / "dash.html"
    assert main(["report", "--out", str(out), "--timeseries", ts]) == 0
    assert "report ->" in capsys.readouterr().out
    html = out.read_text(encoding="utf-8")
    assert html.count("<svg") >= 4
    for needle in ("<script src=", "<link ", "@import", "url("):
        assert needle not in html


def test_report_from_timeseries_dump(tmp_path, capsys):
    """``repro report`` charts the series ``repro obs`` dumped."""
    ts = _dump_obs_series(tmp_path)
    out = tmp_path / "dash.html"
    assert main(["report", "--out", str(out), "--timeseries", ts]) == 0
    capsys.readouterr()
    html = out.read_text(encoding="utf-8")
    assert html.count("<svg") >= 4
    assert "In-flight" in html


def test_chaos_help_names_the_oracle_count(capsys):
    from repro.chaos.oracles import ORACLES

    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"{len(ORACLES)} validity oracles per trial" in help_text


@pytest.mark.parametrize("extra", [[], ["--strict-sd"]])
def test_chaos_refuses_an_unknown_kernel_before_any_trial(extra, capsys):
    """Every trial of such a pool used to end in a harness error, and the
    certification gate checked an empty class list."""
    assert main(["chaos", "--trials", "2", "--kernels", "bogus"] + extra) == 2
    captured = capsys.readouterr()
    assert "unknown chaos kernel(s) bogus" in captured.err
    assert "trials" not in captured.out


def test_submit_refuses_an_unknown_kernel_before_connecting(tmp_path,
                                                            capsys):
    assert main(["submit", "--connect", str(tmp_path / "none.sock"),
                 "chaos", "--kernels", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown chaos kernel(s) bogus" in err
    assert "cannot reach service" not in err


@pytest.mark.parametrize("argv,message", [
    (["demo", "--fail-rank", "99"], "99"),
    (["chaos", "--trials", "2", "--bug", "bogus"], "unknown synthetic bug"),
])
def test_a_config_error_is_a_usage_error(argv, message, capsys):
    """Whichever command raises it, a ConfigError is one line on stderr
    and exit 2, never a traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_chaos_help_names_the_default_pool(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default: cg lu pingpong reduce stencil stencil2d)" in help_text


def test_submit_without_a_kind_is_a_usage_error(tmp_path, capsys):
    assert main(["submit", "--connect", str(tmp_path / "none.sock")]) == 2
    err = capsys.readouterr().err
    assert "KIND" in err and "cannot reach service" not in err

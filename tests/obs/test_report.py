"""HTML dashboard: chart generation, self-containment, and the section
renderers for sweep/chaos/benchmark documents."""

from repro.obs import MetricsRegistry, render_report, timeseries_rows, write_report
from repro.obs.report import _si, svg_bar_chart, svg_line_chart


def _instrumented_rows():
    """Time-series rows from a real (tiny) instrumented failure run."""
    from repro.apps import Stencil2D
    from repro.core import ProtocolConfig, build_ft_world
    from repro.core.clustering import block_clusters

    nprocs = 4
    config = ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(nprocs, 2),
        cluster_stagger=5e-6, rank_stagger=1e-6,
    )
    factory = lambda r, s: Stencil2D(r, s, niters=20, block=3)
    reg = MetricsRegistry(timeseries_interval=1e-5)
    world, controller = build_ft_world(nprocs, factory, config, obs=reg)
    controller.inject_failure(2e-4, nprocs - 1)
    controller.arm()
    world.launch()
    world.run()
    return timeseries_rows(reg)


SWEEP_DOC = {
    "sweep": "failures", "tasks": 2, "ok": 1, "errors": 1,
    "results": [
        {"index": 0, "name": "a", "status": "ok", "duration_s": 0.5,
         "value": {"valid": True}},
        {"index": 1, "name": "b", "status": "error", "duration_s": 0.1,
         "error": "RuntimeError: boom"},
    ],
}

CHAOS_DOC = {
    "seed": 3, "trials": 5, "workers": 1, "passed": 4, "failed": 1,
    "errors": 0, "ok": False,
    "oracle_failures": {"validity": 1},
    "failure_index": [{"index": 2, "seed": 9, "oracles": ["validity"]}],
    "failures": [], "shrunk": [],
}

BENCH = {
    "BENCH_throughput": {"engine_events_per_s": 1.5e6,
                         "instrumentation_overhead_factor": 1.2},
    "BENCH_scale": {"sizes": {
        "256": {"events_per_s": 1e6, "wall_s": 1.0},
        "1024": {"events_per_s": 9e5, "wall_s": 5.0},
        "4096": {"events_per_s": 8e5, "wall_s": 22.0},
    }},
}


def test_report_has_at_least_four_series_charts():
    html, n_charts = render_report(timeseries=_instrumented_rows())
    assert n_charts >= 4
    assert html.count("<svg") >= 4
    for name in ("In-flight", "Logged bytes", "Non-acked", "Recovery-line"):
        assert name in html


def test_report_is_self_contained():
    html, _ = render_report(
        timeseries=_instrumented_rows(), sweep=SWEEP_DOC,
        chaos=CHAOS_DOC, bench=BENCH,
    )
    # a single HTML file: no external scripts, stylesheets or resources
    # (the SVG xmlns URL is declarative, not a fetch)
    for needle in ("<script src=", "<link ", "@import", "url(",
                   "fetch(", "XMLHttpRequest"):
        assert needle not in html
    assert html.startswith("<!DOCTYPE html>")


def test_report_sections():
    html, _ = render_report(
        timeseries=_instrumented_rows(), sweep=SWEEP_DOC,
        chaos=CHAOS_DOC, bench=BENCH, title="t",
    )
    assert "Sweep" in html and "Chaos campaign" in html
    assert "Benchmarks" in html
    assert "RuntimeError: boom" not in html  # error text stays in the JSON
    assert "validity" in html  # oracle failure named
    assert "Throughput vs scale" in html


def test_report_empty_inputs():
    html, n_charts = render_report()
    assert n_charts == 0
    assert "nothing to render" in html


def test_write_report(tmp_path):
    path = tmp_path / "dash.html"
    html, _ = render_report(timeseries=_instrumented_rows())
    write_report(str(path), html)
    assert path.read_text(encoding="utf-8") == html


def test_line_chart_handles_empty_and_restarts():
    empty = svg_line_chart("c0", "Empty", [], [])
    assert "no data" in empty
    # merged multi-task series restart the x axis; the polyline must split
    x = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    chart = svg_line_chart(
        "c1", "Restarts", x,
        [{"name": "s", "y": [1, 2, 3, 4, 5, 6], "slot": 1}],
        y_label="v",
    )
    assert chart.count("<polyline") >= 2


def test_bar_chart_escapes_labels():
    chart = svg_bar_chart(
        "b1", "Bars", [("<script>", 2.0, None), ("ok", 1500.0, "critical")],
    )
    assert "<script>" not in chart
    assert "&lt;script&gt;" in chart
    # a bar's value text is _si(value): the same inputs, the same bytes
    assert f'>{_si(1500.0)}</text>' in chart and ">1.5k</text>" in chart


def test_chaos_table_lists_every_failing_trial(tmp_path, capsys):
    """The failing-trials table reads the report's ``failure_index``: one
    row per failing trial with its index, seed and failed oracles (it used
    to read keys no campaign report has and render rows of ``?``)."""
    import json
    import re

    from repro.cli import main

    report, html_path = tmp_path / "r.json", tmp_path / "r.html"
    assert main(["chaos", "--trials", "8", "--seed", "0", "--bug",
                 "ack_drop", "--shrink", "0", "--out", str(report)]) == 1
    assert main(["report", "--chaos", str(report), "--no-scenario",
                 "--out", str(html_path)]) == 0
    capsys.readouterr()
    failing = json.loads(report.read_text())["failure_index"]
    assert failing
    table = html_path.read_text().split("<summary>failing trials</summary>")[1]
    rows = re.findall(r"<tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td>",
                      table.split("</table>")[0])
    assert rows == [(str(f["index"]), str(f["seed"]), ", ".join(f["oracles"]))
                    for f in failing]
    assert all(f["oracles"] for f in failing)

"""HTML dashboard: chart generation, self-containment, every page rendered
from the documents the campaign commands write, and the strict reader's
refusals."""

import json
import pathlib
import re
from html import escape

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, render_report, timeseries_rows
from repro.obs.report import _si, svg_bar_chart, svg_line_chart

#: the committed benchmark artefacts (``results/BENCH_*.json``)
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


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


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """A directory of the documents ``repro report`` renders, each written
    by the command that writes it: a 2-cell Table I, a 4-run sweep, an
    8-trial chaos campaign with a planted bug, and an obs time series."""
    d = tmp_path_factory.mktemp("real")
    assert main(["table1", "--kernels", "CG", "MG", "--ranks", "8",
                 "--clusters", "2", "--niters", "4",
                 "--out", str(d / "table1.json")]) == 0
    assert main(["sweep", "--runs", "4", "--ranks", "6", "--clusters", "2",
                 "--niters", "10", "--out", str(d / "sweep.json")]) == 0
    assert main(["chaos", "--trials", "8", "--seed", "0", "--bug",
                 "ack_drop", "--shrink", "0",
                 "--out", str(d / "chaos.json")]) == 1
    assert main(["obs", "--ranks", "4", "--clusters", "2", "--timeseries",
                 "--timeseries-out", str(d / "series.jsonl"),
                 "--out", str(d / "metrics.jsonl")]) == 0
    return d


#: page -> (report flags over the ``real`` directory, heading it renders)
PAGES = {
    "chaos+series": (["--chaos", "chaos.json", "--timeseries",
                      "series.jsonl"], "Chaos campaign · seed 0"),
    "table1": (["--sweep", "table1.json"], "Sweep · table1"),
    "sweep": (["--sweep", "sweep.json"], "Sweep · failures"),
    "bench": (["--bench", str(RESULTS)], "Benchmarks"),
}


def _render(real, flags, capsys):
    out = real / "dash.html"
    argv = ["report", "--out", str(out)]
    argv += [f if f.startswith("-") or f.startswith("/") else str(real / f)
             for f in flags]
    assert main(argv) == 0
    assert "report ->" in capsys.readouterr().out
    return out.read_text(encoding="utf-8")


def _failing_trials(html):
    """The failing-trials table's rows, as (trial, seed, oracles, error)."""
    if "<summary>failing trials</summary>" not in html:
        return []
    table = html.split("<summary>failing trials</summary>")[1]
    return re.findall(
        r"<tr><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td><td>(.*?)</td></tr>",
        table.split("</table>")[0])


@pytest.mark.parametrize("page", sorted(PAGES))
def test_every_page_renders_real_output_without_placeholders(
        real, page, capsys):
    """No table cell, tile or bar value is a placeholder (``?``, empty or
    ``-``): each page reads only keys its writer writes.  The one cell
    allowed empty is a failing trial's error, which only a harness error
    carries."""
    flags, heading = PAGES[page]
    html = _render(real, flags, capsys)
    assert heading in html
    failing = _failing_trials(html)
    for _, _, oracles, error in failing:
        assert (error == "") == (oracles != "&lt;harness&gt;")
    body = re.sub(r"<details open><summary>failing trials</summary>.*?"
                  r"</details>", "", html, flags=re.S)
    cells = (re.findall(r"<td>(.*?)</td>", body)
             + re.findall(r'<div class="tval">(.*?)</div>', html)
             + re.findall(r'<text class="bvalue"[^>]*>(.*?)</text>', html)
             + [c for row in failing for c in row[:3]])
    assert cells
    assert not [c for c in cells if c in ("", "?", "-")]


def test_chaos_table_lists_every_failing_trial(real, capsys):
    """The failing-trials table reads the report's ``failure_index``: one
    row per failing trial with its index, seed and failed oracles (it used
    to read keys no campaign report has and render rows of ``?``)."""
    html = _render(real, ["--chaos", "chaos.json"], capsys)
    failing = json.loads((real / "chaos.json").read_text())["failure_index"]
    assert failing
    assert _failing_trials(html) == [
        tuple(escape(str(cell)) for cell in (
            f["index"], f["seed"], ", ".join(f["oracles"]),
            f.get("error", ""))) for f in failing]
    assert all(f["oracles"] for f in failing)


def test_report_has_at_least_four_series_charts():
    html, n_charts = render_report(timeseries=_instrumented_rows())
    assert n_charts >= 4
    assert html.count("<svg") >= 4
    for name in ("In-flight", "Logged bytes", "Non-acked", "Recovery-line"):
        assert name in html


def _load(path):
    text = pathlib.Path(path).read_text()
    if str(path).endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def test_report_is_self_contained(real):
    html, _ = render_report(
        timeseries=_load(real / "series.jsonl"),
        sweep=_load(real / "sweep.json"), chaos=_load(real / "chaos.json"),
        bench={p.stem: _load(p) for p in sorted(RESULTS.glob("BENCH_*.json"))},
    )
    # a single HTML file: no external scripts, stylesheets or resources
    # (the SVG xmlns URL is declarative, not a fetch)
    for needle in ("<script src=", "<link ", "@import", "url(",
                   "fetch(", "XMLHttpRequest"):
        assert needle not in html
    assert html.startswith("<!DOCTYPE html>")


#: a sweep with an errored task: no real run here produces one
SWEEP_DOC = {
    "sweep": "failures", "tasks": 2, "ok": 1, "errors": 1,
    "results": [
        {"index": 0, "name": "a", "status": "ok", "duration_s": 0.5,
         "value": {"valid": True}},
        {"index": 1, "name": "b", "status": "error", "duration_s": 0.1,
         "error": "RuntimeError: boom"},
    ],
}


def test_report_sections(real):
    html, _ = render_report(
        timeseries=_instrumented_rows(), sweep=SWEEP_DOC,
        chaos=_load(real / "chaos.json"),
        bench={p.stem: _load(p) for p in sorted(RESULTS.glob("BENCH_*.json"))},
    )
    assert "Sweep" in html and "Chaos campaign" in html
    assert "Benchmarks" in html
    assert "✕ b" in html and "failing tasks" in html  # errored task marked
    assert "RuntimeError: boom" not in html  # error text stays in the JSON
    assert "✕ witness" in html  # oracle failure named
    assert "Throughput vs scale" in html


def test_a_series_dump_that_still_counts_drops_renders_unchanged(real):
    """Series rows once carried a ``dropped`` count; the page no longer
    reads it, so a dump written with the key renders the same page."""
    rows = _load(real / "series.jsonl")
    assert rows and all("dropped" not in r for r in rows)
    old = [dict(r, dropped=0) for r in rows]
    assert render_report(timeseries=old) == render_report(timeseries=rows)


# ----------------------------------------------------------------------
# the strict reader: an input it cannot render is a usage error
# ----------------------------------------------------------------------

def _drop_key(path, out):
    """Copy a real document with one key its page reads removed; returns
    the key."""
    if path.suffix == ".jsonl":
        rows = _load(path)
        del rows[0]["t"]
        out.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return "t"
    doc = _load(path)
    if "results" in doc:           # results document: a task's field
        del doc["results"][0]["duration_s"]
        key = "duration_s"
    elif "failure_index" in doc:   # chaos report
        del doc["failure_index"]
        key = "failure_index"
    else:                          # BENCH_scale.json
        del doc["sizes"]
        key = "sizes"
    out.write_text(json.dumps(doc))
    return key


#: input flag -> the real document it takes
INPUTS = {
    "--timeseries": lambda real: real / "series.jsonl",
    "--sweep": lambda real: real / "sweep.json",
    "--chaos": lambda real: real / "chaos.json",
    "--bench": lambda real: RESULTS / "BENCH_scale.json",
}


@pytest.mark.parametrize("fault", ["missing", "bad", "key"])
@pytest.mark.parametrize("flag", sorted(INPUTS))
def test_report_refuses_an_input_it_cannot_render(
        real, tmp_path, flag, fault, capsys):
    """Missing, unparseable, or lacking a key its page reads: each input
    is a usage error (exit 2) naming the file (and the key), no traceback
    and no page (it used to skip the page, or crash with a traceback)."""
    source = INPUTS[flag](real)
    path = tmp_path / source.name
    key = None
    if fault == "bad":
        path.write_text(source.read_text()[:40])
    elif fault == "key":
        key = _drop_key(source, path)
    out = tmp_path / "dash.html"
    assert main(["report", flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    if key is not None:
        assert repr(key) in err
    assert not out.exists()


def test_report_refuses_a_bench_directory_without_artefacts(tmp_path, capsys):
    assert main(["report", "--bench", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path} holds no BENCH_*.json" in err


def test_report_without_input_is_a_usage_error(tmp_path, capsys):
    """``repro report`` renders files other commands wrote and runs nothing
    itself: with no input it names the four input flags."""
    assert main(["report", "--out", str(tmp_path / "d.html")]) == 2
    err = capsys.readouterr().err
    for flag in ("--timeseries", "--sweep", "--chaos", "--bench"):
        assert flag in err
    assert not (tmp_path / "d.html").exists()


# ----------------------------------------------------------------------
# chart primitives
# ----------------------------------------------------------------------

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

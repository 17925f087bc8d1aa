"""Exporter tests: flat row schema, JSON-lines and CSV round-trips."""

import csv
import io
import json

from repro.obs import (
    MetricsRegistry,
    dump_flight,
    dump_metrics,
    metric_rows,
    to_csv,
    to_jsonl,
)


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("c.plain").inc(2)
    reg.counter("c.labelled", ("src", "dst")).inc(labels=(0, 1))
    reg.gauge("g").set(7)
    reg.histogram("h", (1.0, 2.0)).observe(1.5)
    return reg


def test_metric_rows_schema():
    rows = metric_rows(populated_registry())
    by_name = {}
    for row in rows:
        by_name.setdefault(row["metric"], []).append(row)
    assert by_name["c.plain"][0]["value"] == 2.0
    assert by_name["c.labelled"][0]["labels"] == {"src": 0, "dst": 1}
    assert by_name["g"][0]["high_water"] == 7
    hist = by_name["h"][0]
    assert hist["count"] == 1
    assert hist["bucket_counts"] == [0, 1, 0]
    # rows come out sorted by metric name
    assert [r["metric"] for r in rows] == sorted(r["metric"] for r in rows)


def test_registered_but_unused_counter_still_exported():
    reg = MetricsRegistry()
    reg.counter("touched.never")
    rows = metric_rows(reg)
    assert rows == [{"metric": "touched.never", "type": "counter",
                     "labels": {}, "value": 0.0}]


def test_jsonl_round_trip():
    text = dump_metrics(populated_registry(), "jsonl")
    parsed = [json.loads(line) for line in text.splitlines()]
    assert len(parsed) == 4
    assert all("metric" in row and "type" in row for row in parsed)


def test_jsonl_is_the_per_row_encoding_byte_for_byte():
    """One encoder per export writes what ``json.dumps`` per row wrote,
    non-JSON values (``default=str``) and unsorted keys included."""
    rows = metric_rows(populated_registry()) + [
        {"z": 1, "a": {"y": (1, 2), "b": None}, "s": "\u00e9\n", "o": object},
        {"f": 0.1, "nan": float("nan"), "big": 2**70, "set": frozenset()},
    ]
    want = "".join(json.dumps(row, sort_keys=True, default=str) + "\n"
                   for row in rows)
    assert to_jsonl(rows) == want
    assert to_jsonl([]) == ""


def test_csv_has_union_header_and_parses():
    text = dump_metrics(populated_registry(), "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 4
    hist = next(r for r in rows if r["metric"] == "h")
    # list cells are JSON-encoded in place
    assert json.loads(hist["bucket_counts"]) == [0, 1, 0]
    labelled = next(r for r in rows if r["metric"] == "c.labelled")
    assert json.loads(labelled["labels"]) == {"src": 0, "dst": 1}


def test_empty_exports():
    reg = MetricsRegistry()
    assert to_jsonl([]) == ""
    assert to_csv([]) == ""
    assert dump_metrics(reg) == ""
    assert dump_flight(reg) == ""


# ----------------------------------------------------------------------
# Quantile estimates (PR 8)
# ----------------------------------------------------------------------
def test_histogram_quantiles_known_distribution():
    from repro.obs import histogram_quantile

    reg = MetricsRegistry()
    h = reg.histogram("lat", (10.0, 20.0, 30.0))
    for v in range(1, 101):  # 1..100, uniform across 0-100
        h.observe(float(v))
    p50 = histogram_quantile(h, 0.50)
    p95 = histogram_quantile(h, 0.95)
    p99 = histogram_quantile(h, 0.99)
    # everything past the last bound lands in the overflow bucket
    # [30, max]; interpolation keeps the order statistics monotone and
    # inside the observed range
    assert p50 is not None and 30.0 <= p50 <= 100.0
    assert p95 is not None and p50 <= p95 <= 100.0
    assert p99 is not None and p95 <= p99 <= 100.0

    tight = reg.histogram("tight", tuple(float(b) for b in range(0, 110, 10)))
    for v in range(1, 101):
        tight.observe(float(v))
    assert abs(histogram_quantile(tight, 0.50) - 50.0) <= 10.0
    assert abs(histogram_quantile(tight, 0.95) - 95.0) <= 10.0


def test_histogram_quantile_empty_and_single():
    from repro.obs import histogram_quantile

    reg = MetricsRegistry()
    empty = reg.histogram("empty", (1.0,))
    assert histogram_quantile(empty, 0.5) is None
    single = reg.histogram("single", (10.0,))
    single.observe(4.0)
    # one observation: every quantile is that observation
    assert histogram_quantile(single, 0.5) == 4.0
    assert histogram_quantile(single, 0.99) == 4.0


def test_metric_rows_carry_quantile_columns():
    rows = metric_rows(populated_registry())
    hist = next(r for r in rows if r["type"] == "histogram")
    for key in ("p50", "p95", "p99"):
        assert key in hist
        assert hist[key] is not None


# ----------------------------------------------------------------------
# CSV label-column order (PR 8 regression: sort by label value, not
# insertion order, so merge order can't reshuffle rows)
# ----------------------------------------------------------------------
def test_labelled_rows_sorted_numerically():
    reg = MetricsRegistry()
    c = reg.counter("c", ("rank",))
    for rank in (10, 2, 1):  # insertion order descending-ish
        c.inc(labels=(rank,))
    rows = [r for r in metric_rows(reg) if r["metric"] == "c"]
    assert [r["labels"]["rank"] for r in rows] == [1, 2, 10]


def test_csv_rows_invariant_under_merge_order():
    def make(ranks):
        reg = MetricsRegistry()
        c = reg.counter("m", ("rank",))
        for rank in ranks:
            c.inc(labels=(rank,))
        return reg

    a = MetricsRegistry()
    a.merge(make([3, 1]).snapshot())
    a.merge(make([2]).snapshot())
    b = MetricsRegistry()
    b.merge(make([2]).snapshot())
    b.merge(make([3, 1]).snapshot())
    assert dump_metrics(a, "csv") == dump_metrics(b, "csv")
    assert dump_metrics(a, "jsonl") == dump_metrics(b, "jsonl")


def test_mixed_label_types_sort_stably():
    reg = MetricsRegistry()
    c = reg.counter("mix", ("k",))
    for k in ("b", 2, "a", 10, 1):
        c.inc(labels=(k,))
    rows = [r["labels"]["k"] for r in metric_rows(reg) if r["metric"] == "mix"]
    # numbers first (numeric order), then strings (lexicographic)
    assert rows == [1, 2, 10, "a", "b"]


# ----------------------------------------------------------------------
# Text view and time-series rows (PR 8)
# ----------------------------------------------------------------------
def test_dump_text_summary():
    from repro.obs import dump_text

    text = dump_text(populated_registry())
    assert "c.plain" in text and "= 2" in text
    assert "p50=" in text and "p95=" in text and "p99=" in text
    assert "1-in-" in text  # sampling caveat is stated, not implied


def test_timeseries_rows_and_dump():
    from repro.obs import MetricsRegistry, dump_timeseries, timeseries_rows

    class FakeEngine:
        now = 0.0

    reg = MetricsRegistry(timeseries_interval=1.0)
    ts = reg.timeseries
    ts.probe("g", lambda: 5.0)
    ts.probe("c", lambda: 2.0, kind="counter")
    ts.bind_engine(FakeEngine())
    ts.sample_through(2.0)
    rows = timeseries_rows(reg)
    assert [r["series"] for r in rows] == ["g", "c"]
    g = rows[0]
    assert g["kind"] == "gauge" and g["t"] == [1.0, 2.0]
    assert "d" in rows[1] and rows[1]["d"] == [2.0, 0.0]
    lines = dump_timeseries(reg, "jsonl").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["series"] == "g"
    # no recorder -> empty dump
    assert dump_timeseries(MetricsRegistry(), "jsonl") == ""

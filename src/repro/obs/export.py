"""JSON-lines and CSV exporters for a metrics registry.

Both formats share one flat row schema so downstream tooling (pandas,
jq, a spreadsheet) can consume either:

* metric rows — one per ``(instrument, label set)``:
  ``{"metric", "type", "labels", "value", ...}`` where histograms add
  ``sum/count/min/max/mean/bounds/bucket_counts`` and gauges add
  ``high_water``;
* flight rows — one per flight record
  (:func:`repro.obs.flight.record_to_dict`).

CSV cells that hold lists or mappings (histogram bounds, label sets) are
JSON-encoded in place, keeping the file loadable with
any CSV reader.
"""

from __future__ import annotations

import io
import json
from typing import Any, TYPE_CHECKING

from .flight import record_to_dict
from .registry import Counter, Gauge, Histogram

if TYPE_CHECKING:  # pragma: no cover
    from .registry import MetricsRegistry

__all__ = [
    "metric_rows",
    "flight_rows",
    "timeseries_rows",
    "histogram_quantile",
    "to_jsonl",
    "to_csv",
    "dump_metrics",
    "dump_flight",
    "dump_timeseries",
    "dump_text",
]

#: quantiles exported for every histogram row
QUANTILES: tuple[float, ...] = (0.50, 0.95, 0.99)


def _labels_dict(names: tuple[str, ...], values: tuple) -> dict[str, Any]:
    if not values:
        return {}
    if not names:  # unnamed label tuple: positional keys
        names = tuple(f"label{i}" for i in range(len(values)))
    return dict(zip(names, values))


def _label_sort_key(labels: tuple) -> tuple:
    """Type-aware ordering for label tuples: numbers numerically, then
    everything else by string.  Sorting by value (not by insertion order,
    not by ``repr``) makes export row order — and therefore CSV column
    order — a pure function of the data, invariant under merge order and
    worker count, and puts ``rank=10`` after ``rank=2``."""
    return tuple(
        (0, "", float(v)) if isinstance(v, (int, float)) and not isinstance(v, bool)
        else (1, str(v), 0.0)
        for v in labels
    )


def histogram_quantile(hist: Histogram, q: float) -> float | None:
    """Estimate the ``q``-quantile from a fixed-boundary histogram.

    Linear interpolation inside the bucket holding the target rank;
    clamped to the observed ``min``/``max`` (which are tracked exactly),
    so estimates never leave the data's range even when the bucket edges
    are far apart.  Returns ``None`` for an empty histogram.  For
    *sampled* histograms (``MetricsRegistry.hist_sample``) the estimate
    derives from the deterministic 1-in-N subsample.
    """
    count = hist.count
    if not count:
        return None
    rank = q * count
    bounds = hist.bounds
    seen = 0
    for i, n in enumerate(hist.counts):
        seen += n
        if seen >= rank and n:
            lo = bounds[i - 1] if i > 0 else hist.min
            hi = bounds[i] if i < len(bounds) else hist.max
            lo = max(lo, hist.min)
            hi = min(hi, hist.max)
            if hi <= lo:
                return lo
            # position of the target rank inside this bucket's count
            frac = (rank - (seen - n)) / n
            return lo + (hi - lo) * frac
    return hist.max


def metric_rows(registry: "MetricsRegistry") -> list[dict[str, Any]]:
    """Flatten every instrument into export rows (sorted by metric name)."""
    rows: list[dict[str, Any]] = []
    for inst in registry.instruments():
        if isinstance(inst, Counter):
            values = inst.values  # one materialisation of the cell view
            for labels in sorted(values, key=_label_sort_key):
                rows.append({
                    "metric": inst.name,
                    "type": "counter",
                    "labels": _labels_dict(inst.label_names, labels),
                    "value": values[labels],
                })
            if not values:
                rows.append({"metric": inst.name, "type": "counter",
                             "labels": {}, "value": 0.0})
        elif isinstance(inst, Gauge):
            rows.append({
                "metric": inst.name,
                "type": "gauge",
                "labels": {},
                "value": inst.value,
                "high_water": inst.high_water,
            })
        elif isinstance(inst, Histogram):
            rows.append({
                "metric": inst.name,
                "type": "histogram",
                "labels": {},
                "value": inst.mean,
                "sum": inst.sum,
                "count": inst.count,
                "min": inst.min if inst.count else None,
                "max": inst.max if inst.count else None,
                # quantile *estimates*: per-event histograms observe a
                # deterministic 1-in-hist_sample subsample (8),
                # so these derive from that subsample; min/max/count are
                # exact for the observations the histogram received
                "p50": histogram_quantile(inst, 0.50),
                "p95": histogram_quantile(inst, 0.95),
                "p99": histogram_quantile(inst, 0.99),
                "bounds": list(inst.bounds),
                "bucket_counts": list(inst.counts),
            })
    return rows


def flight_rows(registry: "MetricsRegistry") -> list[dict[str, Any]]:
    """Flatten the flight-record stream into export rows (global time order)."""
    flight = registry.flight
    return ([record_to_dict(rec) for rec in flight.records()]
            if flight is not None else [])


def to_jsonl(rows: list[dict[str, Any]]) -> str:
    """One compact JSON object per line (one encoder for all of them)."""
    encode = json.JSONEncoder(sort_keys=True, default=str).encode
    return "".join(encode(row) + "\n" for row in rows)


def to_csv(rows: list[dict[str, Any]]) -> str:
    """CSV with the union of all row keys as header (stable order)."""
    import csv  # the one CSV user: most processes export JSON lines only

    if not rows:
        return ""
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({
            k: json.dumps(v, sort_keys=True, default=str)
            if isinstance(v, (dict, list, tuple)) else v
            for k, v in row.items()
        })
    return buf.getvalue()


def dump_metrics(registry: "MetricsRegistry", fmt: str = "jsonl") -> str:
    """Render the full metrics snapshot in ``fmt`` ("jsonl" or "csv")."""
    rows = metric_rows(registry)
    return to_csv(rows) if fmt == "csv" else to_jsonl(rows)


def dump_flight(registry: "MetricsRegistry", fmt: str = "jsonl") -> str:
    """Render the flight-record stream in ``fmt`` ("jsonl" or "csv")."""
    rows = flight_rows(registry)
    return to_csv(rows) if fmt == "csv" else to_jsonl(rows)


def timeseries_rows(registry: "MetricsRegistry") -> list[dict[str, Any]]:
    """Flatten the virtual-time series into one row per series.

    Rows carry the full parallel ``t``/``v`` arrays (and ``d`` window
    deltas for counter-kind series) in registration order — the shape
    ``repro report`` charts from directly.
    """
    ts = registry.timeseries
    if ts is None:
        return []
    rows: list[dict[str, Any]] = []
    for name, s in ts.series.items():
        row: dict[str, Any] = {
            "series": name,
            "kind": s.kind,
            "interval": ts.interval,
            "t": list(s.t),
            "v": list(s.v),
        }
        if s.d is not None:
            row["d"] = list(s.d)
        rows.append(row)
    return rows


def dump_timeseries(registry: "MetricsRegistry", fmt: str = "jsonl") -> str:
    """Render the virtual-time series in ``fmt`` ("jsonl" or "csv")."""
    rows = timeseries_rows(registry)
    return to_csv(rows) if fmt == "csv" else to_jsonl(rows)


def _fmt_num(v: float | None) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and v != int(v):
        return f"{v:.6g}"
    return str(int(v))


def dump_text(registry: "MetricsRegistry") -> str:
    """Human-readable metrics summary (``repro obs --format text``)."""
    lines: list[str] = []
    sampled = False
    for inst in registry.instruments():
        if isinstance(inst, Counter):
            values = inst.values
            if not values:
                lines.append(f"counter   {inst.name} = 0")
                continue
            lines.append(f"counter   {inst.name} = {_fmt_num(inst.total)}")
            if any(labels for labels in values):
                for labels in sorted(values, key=_label_sort_key):
                    ld = _labels_dict(inst.label_names, labels)
                    tag = ",".join(f"{k}={v}" for k, v in ld.items())
                    lines.append(f"          {inst.name}{{{tag}}} = "
                                 f"{_fmt_num(values[labels])}")
        elif isinstance(inst, Gauge):
            lines.append(f"gauge     {inst.name} = {_fmt_num(inst.value)} "
                         f"(high water {_fmt_num(inst.high_water)})")
        elif isinstance(inst, Histogram):
            qs = "  ".join(
                f"p{int(q * 100)}={_fmt_num(histogram_quantile(inst, q))}"
                for q in QUANTILES
            )
            lines.append(
                f"histogram {inst.name}  count={inst.count} "
                f"mean={_fmt_num(inst.mean)}  {qs}  "
                f"min={_fmt_num(inst.min if inst.count else None)} "
                f"max={_fmt_num(inst.max if inst.count else None)}"
            )
            sampled = True
    if sampled:
        lines.append(
            f"# histogram quantiles are interpolated estimates; per-event "
            f"histograms observe a deterministic 1-in-{registry.hist_sample} "
            f"subsample (count/min/max are exact for the recorded observations)"
        )
    ts = registry.timeseries
    if ts is not None:
        held = sum(len(s.t) for s in ts.series.values())
        lines.append(
            f"timeseries interval={ts.interval:g}s series={len(ts.series)} "
            f"samples={ts.samples_taken} points={held}"
        )
    return "\n".join(lines) + "\n" if lines else ""

"""Self-contained HTML dashboard (``repro report``).

Renders virtual-time metric series, campaign-level views (sweep task
outcomes, chaos oracle failures) and benchmark artefacts into a single
dependency-free HTML file: inline SVG charts, inline CSS (light + dark
from one validated palette), and a small inline script for the
crosshair-and-tooltip hover layer.  No external fonts, scripts, styles or
images — the file can be archived as a CI artifact and opened anywhere.

Everything here is pure rendering over already-collected data: the
documents ``repro obs --timeseries-out``, ``repro table1|sweep --out``,
``repro chaos --out`` and the benchmarks write.  A section indexes the
keys its writer always writes, so a document that lacks one fails to
render instead of drawing a blank cell.  Nothing reads a clock (the
output is a deterministic function of its inputs), so regenerating a
report from the same inputs is byte-identical.
"""

from __future__ import annotations

import html as _html
import json
import math
from typing import Any, Sequence

__all__ = [
    "render_report",
    "svg_line_chart",
    "svg_bar_chart",
    "TIMESERIES_CHARTS",
]

# Chart geometry (viewBox units; the SVG scales with the page).
_W, _H = 640, 240
_ML, _MR, _MT, _MB = 64, 16, 14, 34
_MR_LABELED = 150  # right margin when direct labels are present

#: the per-run time-series charts, in render order: (title, y-axis label,
#: [(series name, "v"|"d")], draw as area?).  A chart renders when at
#: least one of its series has data; unavailable ones are skipped and the
#: skip is noted in the section footer (no silent gaps).
TIMESERIES_CHARTS: tuple[tuple[str, str, tuple[tuple[str, str], ...], bool], ...] = (
    ("In-flight messages", "messages",
     (("network.in_flight", "v"),), True),
    ("Logged bytes: held vs reclaimed", "bytes",
     (("log.bytes_held", "v"), ("log.bytes_reclaimed", "v")), False),
    ("Non-acked send queue depth", "messages",
     (("protocol.non_acked", "v"),), True),
    ("Recovery-line size", "ranks",
     (("recovery.line_size", "v"),), True),
    ("Dispatch rate", "events / window",
     (("engine.events_dispatched", "d"),), False),
    ("Messages sent vs delivered (cumulative)", "messages",
     (("network.messages_sent", "v"), ("network.messages_delivered", "v")),
     False),
    ("Checkpoints stored (cumulative)", "checkpoints",
     (("checkpoint.stored", "v"),), False),
    ("Logged messages held", "messages",
     (("log.messages_held", "v"),), False),
)


def _esc(s: Any) -> str:
    return _html.escape(str(s), quote=True)


def _si(v: float) -> str:
    """Compact magnitude formatting for labels and tooltips."""
    av = abs(v)
    for div, suf in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if av >= div:
            return f"{v / div:.3g}{suf}"
    if av and av == int(av) and av < 1e15:
        return str(int(v))
    return f"{v:.3g}"


def _ticks(vmax: float, n: int = 4) -> list[float]:
    """0-anchored 'nice number' axis ticks covering [0, vmax]."""
    if vmax <= 0:
        return [0.0, 1.0]
    raw = vmax / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = mag
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = m * mag
        if step * n >= vmax * 0.999:
            break
    return [i * step for i in range(int(math.ceil(vmax / step)) + 1)]


def _stride(n: int, limit: int) -> int:
    return max(1, -(-n // limit))  # ceil division


def svg_line_chart(
    chart_id: str,
    title: str,
    x: Sequence[float],
    series: Sequence[dict[str, Any]],
    *,
    x_label: str = "virtual time (ms)",
    y_label: str = "",
    area: bool = False,
) -> str:
    """One line/area chart: 2px series lines over a hairline grid, legend
    chips + direct labels for multi-series, a crosshair/tooltip hover
    layer (data embedded as JSON) and a collapsible data table.

    ``series`` items: ``{"name": str, "y": [..], "slot": palette slot 1 or
    2}``.  ``x`` may contain restarts (merged multi-task series); each
    monotone run is drawn as its own segment.
    """
    series = [s for s in series if s.get("y")]
    if not x or not series:
        return (f'<figure class="fig empty"><figcaption>{_esc(title)}'
                f'</figcaption><p class="muted">no data</p></figure>')
    n = min(len(x), *(len(s["y"]) for s in series))
    x = list(x[:n])
    xmin, xmax = min(x), max(x)
    if xmax <= xmin:
        xmax = xmin + 1.0
    ymax = max(max(s["y"][:n]) for s in series)
    ticks = _ticks(ymax)
    ymax = ticks[-1]
    multi = len(series) > 1
    mr = _MR_LABELED if multi else _MR
    pw, ph = _W - _ML - mr, _H - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - xmin) / (xmax - xmin) * pw

    def sy(v: float) -> float:
        return _MT + ph - (v / ymax) * ph if ymax else _MT + ph

    stride = _stride(n, 600)
    idxs = list(range(0, n, stride))
    if idxs[-1] != n - 1:
        idxs.append(n - 1)

    parts: list[str] = [
        f'<figure class="fig" id="{_esc(chart_id)}">',
        f"<figcaption>{_esc(title)}</figcaption>",
    ]
    if multi:
        chips = "".join(
            f'<span class="key"><span class="chip s{s["slot"]}"></span>'
            f"{_esc(s['name'])}</span>"
            for s in series
        )
        parts.append(f'<div class="legend">{chips}</div>')
    parts.append(
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{_esc(title)}" preserveAspectRatio="xMidYMid meet">'
    )
    # grid + y axis labels (recessive: hairline strokes, muted ink)
    for tval in ticks:
        y = sy(tval)
        parts.append(
            f'<line class="grid" x1="{_ML}" y1="{y:.1f}" '
            f'x2="{_W - mr}" y2="{y:.1f}"/>'
            f'<text class="tick" x="{_ML - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_si(tval)}</text>'
        )
    # x axis: baseline + a handful of ticks
    base_y = sy(0.0)
    parts.append(
        f'<line class="axis" x1="{_ML}" y1="{base_y:.1f}" '
        f'x2="{_W - mr}" y2="{base_y:.1f}"/>'
    )
    for k in range(5):
        xv = xmin + (xmax - xmin) * k / 4
        parts.append(
            f'<text class="tick" x="{sx(xv):.1f}" y="{_H - _MB + 16}" '
            f'text-anchor="middle">{_si(xv)}</text>'
        )
    parts.append(
        f'<text class="tick" x="{(_ML + _W - mr) / 2:.1f}" y="{_H - 4}" '
        f'text-anchor="middle">{_esc(x_label)}</text>'
    )
    if y_label:
        parts.append(
            f'<text class="tick" transform="rotate(-90)" '
            f'x="{-(_MT + ph / 2):.1f}" y="12" '
            f'text-anchor="middle">{_esc(y_label)}</text>'
        )
    # series paths, one per monotone x segment
    ends: list[tuple[float, float, dict[str, Any]]] = []
    for s in series:
        ys = s["y"]
        segs: list[list[int]] = [[]]
        for i in idxs:
            if segs[-1] and x[i] < x[segs[-1][-1]]:
                segs.append([])
            segs[-1].append(i)
        for seg in segs:
            pts = " ".join(f"{sx(x[i]):.1f},{sy(ys[i]):.1f}" for i in seg)
            if area and len(seg) > 1:
                first, last = seg[0], seg[-1]
                parts.append(
                    f'<polygon class="area s{s["slot"]}" points="'
                    f'{sx(x[first]):.1f},{base_y:.1f} {pts} '
                    f'{sx(x[last]):.1f},{base_y:.1f}"/>'
                )
            parts.append(
                f'<polyline class="line s{s["slot"]}" points="{pts}"/>'
            )
        last = idxs[-1]
        ends.append((sx(x[last]), sy(ys[last]), s))
    if multi:
        # direct labels at line ends (chip carries identity, text stays in
        # ink); nudge apart when two lines end at the same height
        ends.sort(key=lambda e: e[1])
        prev = -1e9
        for ex, ey, s in ends:
            ey = max(ey, prev + 13)
            ey = min(ey, _MT + ph + 4)
            prev = ey
            parts.append(
                f'<circle class="dot s{s["slot"]}" cx="{ex:.1f}" '
                f'cy="{ey:.1f}" r="3"/>'
                f'<text class="dlabel" x="{ex + 7:.1f}" y="{ey + 3.5:.1f}">'
                f"{_esc(s['name'])}</text>"
            )
    parts.append("</svg>")
    # hover-layer data: [x_px, x label, formatted value per series]
    pts_data = [
        [round(sx(x[i]), 1), _si(x[i])] + [_si(s["y"][i]) for s in series]
        for i in idxs
    ]
    hover = {
        "w": _W,
        "top": _MT,
        "bottom": _MT + ph,
        "pts": pts_data,
        "series": [{"name": s["name"], "slot": s["slot"]} for s in series],
    }
    parts.append(
        '<script type="application/json">'
        + json.dumps(hover, sort_keys=True)
        + "</script>"
    )
    # table view (accessibility): decimated to <= 36 rows
    tstride = _stride(n, 36)
    head = "".join(f"<th>{_esc(s['name'])}</th>" for s in series)
    body = "".join(
        "<tr><td>" + _si(x[i]) + "</td>"
        + "".join(f"<td>{_si(s['y'][i])}</td>" for s in series)
        + "</tr>"
        for i in range(0, n, tstride)
    )
    parts.append(
        f"<details><summary>data table</summary><table><thead><tr>"
        f"<th>{_esc(x_label)}</th>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table></details>"
    )
    parts.append("</figure>")
    return "".join(parts)


def svg_bar_chart(
    chart_id: str,
    title: str,
    items: Sequence[tuple[str, float, str]],
    *,
    note: str = "",
) -> str:
    """Horizontal bars: ``items`` are ``(label, value, role)`` where role
    is a palette class (``s1`` for series, ``status-critical`` for status —
    status rows carry their icon in the label, never color alone)."""
    if not items:
        return (f'<figure class="fig empty"><figcaption>{_esc(title)}'
                f'</figcaption><p class="muted">no data</p></figure>')
    vmax = max(v for _, v, _ in items) or 1.0
    bar_h, gap = 16, 8
    label_w = 210
    h = _MT + len(items) * (bar_h + gap) + 8
    w = _W
    parts = [
        f'<figure class="fig" id="{_esc(chart_id)}">',
        f"<figcaption>{_esc(title)}</figcaption>",
        f'<svg viewBox="0 0 {w} {h}" role="img" aria-label="{_esc(title)}" '
        f'preserveAspectRatio="xMidYMid meet">',
    ]
    pw = w - label_w - 70
    for i, (label, value, role) in enumerate(items):
        y = _MT + i * (bar_h + gap)
        bw = max((value / vmax) * pw, 1.0)
        disp = label if len(label) <= 30 else label[:27] + "…"
        parts.append(
            f'<text class="blabel" x="{label_w - 8}" '
            f'y="{y + bar_h - 4}" text-anchor="end">'
            f"{_esc(disp)}</text>"
            f'<rect class="bar {role}" x="{label_w}" y="{y}" '
            f'width="{bw:.1f}" height="{bar_h}" rx="3">'
            f"<title>{_esc(label)}: {_si(value)}</title>"
            f"</rect>"
            f'<text class="bvalue" x="{label_w + bw + 6:.1f}" '
            f'y="{y + bar_h - 4}">{_si(value)}</text>'
        )
    parts.append("</svg>")
    if note:
        parts.append(f'<p class="muted">{_esc(note)}</p>')
    parts.append("</figure>")
    return "".join(parts)


def _tile(value: str, label: str, status: str = "") -> str:
    badge = ""
    if status:
        icon, cls, text = status.split(":", 2)
        badge = f'<div class="status {cls}">{_esc(icon)} {_esc(text)}</div>'
    return (
        f'<div class="tile"><div class="tval">{_esc(value)}</div>'
        f'<div class="tlabel">{_esc(label)}</div>{badge}</div>'
    )


def _timeseries_section(rows: list[dict[str, Any]]) -> tuple[str, int]:
    """Render the per-run time-series grid; returns (html, chart count)."""
    by_name = {r["series"]: r for r in rows}
    charts: list[str] = []
    skipped: list[str] = []
    for title, y_label, sources, area in TIMESERIES_CHARTS:
        series = []
        slot = 0
        x: list[float] = []
        for name, field in sources:
            slot += 1
            row = by_name.get(name)
            if not row or not row["t"]:
                continue
            y = row[field]  # parallel to t
            if len(row["t"]) > len(x):
                x = [t * 1e3 for t in row["t"]]  # virtual ms
            label = name + (" (rate)" if field == "d" else "")
            series.append({"name": label, "y": y, "slot": slot})
        if not series:
            skipped.append(title)
            continue
        cid = "ts-" + title.lower().replace(" ", "-")[:32]
        charts.append(
            svg_line_chart(cid, title, x, series,
                           y_label=y_label, area=area)
        )
    if not charts:
        return "", 0
    note = "not collected in this run: " + ", ".join(skipped)
    foot = f'<p class="muted">{_esc(note)}</p>' if skipped else ""
    html = (
        "<section><h2>Virtual-time series</h2>"
        '<div class="grid">' + "".join(charts) + "</div>" + foot + "</section>"
    )
    return html, len(charts)


def _sweep_section(doc: dict[str, Any]) -> str:
    results = doc["results"]
    if not results:
        return ""
    ok, errors = doc["ok"], doc["errors"]
    tiles = (
        _tile(str(doc["tasks"]), "tasks")
        + _tile(str(ok), "ok",
                "✓:good:all passed" if not errors else "")
        + _tile(str(errors), "errors",
                "✕:critical:failing tasks" if errors else "")
    )
    # a campaign run with --cache attaches the cache's stats under
    # extra.service (see docs/service.md)
    service = doc.get("extra", {}).get("service")
    if service:
        hits, misses = service["cache"]["hits"], service["cache"]["misses"]
        tiles += _tile(f"{hits}/{hits + misses}", "cache hits",
                       "✓:good:fully cached"
                       if hits and not misses else "")
    shown = results[:40]
    items = [
        (
            ("✕ " if r["status"] != "ok" else "") + r["name"],
            float(r["duration_s"]),
            "status-critical" if r["status"] != "ok" else "s1",
        )
        for r in shown
    ]
    note = (
        f"showing first {len(shown)} of {len(results)} tasks"
        if len(results) > len(shown) else ""
    )
    chart = svg_bar_chart(
        "sweep-durations",
        "Per-task wall time (s)",
        items,
        note=note,
    )
    return (
        f"<section><h2>Sweep · {_esc(doc['sweep'])}</h2>"
        f'<div class="tiles">{tiles}</div>{chart}</section>'
    )


def _chaos_section(doc: dict[str, Any]) -> str:
    failed, errors = doc["failed"], doc["errors"]
    tiles = (
        _tile(str(doc["trials"]), "trials")
        + _tile(str(doc["passed"]), "passed",
                "✓:good:campaign clean" if doc["ok"] else "")
        + _tile(str(failed), "oracle failures",
                "✕:critical:oracle failures" if failed else "")
        + _tile(str(errors), "crashed trials",
                "✕:critical:crashes" if errors else "")
    )
    parts = [
        f"<section><h2>Chaos campaign · seed {_esc(doc['seed'])}"
        f'</h2><div class="tiles">{tiles}</div>'
    ]
    # the writer keeps only oracles that failed, sorted by name
    oracle = doc["oracle_failures"]
    if oracle:
        items = [
            (f"✕ {name}", float(count), "status-critical")
            for name, count in oracle.items()
        ]
        parts.append(
            svg_bar_chart("chaos-oracles", "Failures per oracle", items)
        )
    failures = doc["failure_index"]
    if failures:
        rows = "".join(
            f"<tr><td>{_esc(f['index'])}</td><td>{_esc(f['seed'])}</td>"
            f"<td>{_esc(', '.join(f['oracles']))}</td>"
            f"<td>{_esc(f.get('error', ''))}</td></tr>"
            for f in failures[:20]
        )
        more = (
            f'<p class="muted">showing first 20 of {len(failures)} '
            f"failures</p>" if len(failures) > 20 else ""
        )
        parts.append(
            "<details open><summary>failing trials</summary>"
            "<table><thead><tr><th>trial</th><th>seed</th>"
            "<th>failed oracles</th><th>error</th></tr></thead>"
            f"<tbody>{rows}</tbody></table></details>{more}"
        )
    parts.append("</section>")
    return "".join(parts)


#: scalar keys surfaced as tiles from BENCH_throughput.json, in order
_BENCH_TILES: tuple[tuple[str, str], ...] = (
    ("engine_events_per_s", "engine events / s"),
    ("speedup_vs_seed_protocol", "speedup vs seed"),
    ("instrumentation_overhead_factor", "full-obs factor"),
    ("flight_overhead_factor", "flight factor"),
    ("timeseries_overhead_factor", "recorder factor"),
)


def _bench_section(bench: dict[str, dict[str, Any]]) -> str:
    parts = ["<section><h2>Benchmarks</h2>"]
    through = bench.get("BENCH_throughput")
    if through:
        tiles = "".join(
            _tile(_si(float(through[key])), label)
            for key, label in _BENCH_TILES
        )
        parts.append(f'<div class="tiles">{tiles}</div>')
    scale = bench.get("BENCH_scale")
    points = (sorted((int(k), v) for k, v in scale["sizes"].items())
              if scale else [])
    if len(points) >= 2:
        ranks = [float(r) for r, _ in points]
        for key, title, y_label in (
            ("events_per_s", "Throughput vs scale", "events / s"),
            ("wall_s", "Wall time vs scale", "seconds"),
        ):
            parts.append(
                svg_line_chart(
                    f"bench-{key}", title, ranks,
                    [{"name": key, "y": [float(v[key]) for _, v in points],
                      "slot": 1}],
                    x_label="ranks", y_label=y_label,
                )
            )
    parts.append("</section>")
    return "".join(parts) if len(parts) > 2 else ""


_CSS = """
.viz-root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink1: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root .viz-root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink1: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926;
  }
}
.viz-root {
  margin: 0; background: var(--page); color: var(--ink1);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
main { max-width: 1240px; margin: 0 auto; padding: 20px; }
h1 { font-size: 20px; margin: 4px 0 2px; }
h2 { font-size: 15px; margin: 26px 0 10px; color: var(--ink1); }
.muted { color: var(--muted); font-size: 12px; margin: 6px 0 0; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(480px, 1fr)); gap: 14px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 10px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 110px;
}
.tval { font-size: 22px; }
.tlabel { color: var(--ink2); font-size: 12px; }
.status { font-size: 12px; margin-top: 4px; }
.status.good { color: var(--good); }
.status.critical { color: var(--critical); }
.fig {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; margin: 0 0 14px;
  position: relative;
}
.fig svg { width: 100%; height: auto; display: block; }
figcaption { font-size: 13px; color: var(--ink1); margin-bottom: 4px; }
.legend { display: flex; flex-wrap: wrap; gap: 10px; margin: 2px 0 6px; }
.key { color: var(--ink2); font-size: 12px; display: inline-flex; align-items: center; gap: 5px; }
.chip { width: 9px; height: 9px; border-radius: 2px; display: inline-block; }
.chip.s1 { background: var(--s1); } .chip.s2 { background: var(--s2); }
.grid-line, .grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 10px; }
.dlabel { fill: var(--ink2); font-size: 10px; }
.blabel { fill: var(--ink2); font-size: 11px; }
.bvalue { fill: var(--ink1); font-size: 11px; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.line.s1 { stroke: var(--s1); } .line.s2 { stroke: var(--s2); }
.area { opacity: 0.12; }
.area.s1 { fill: var(--s1); } .area.s2 { fill: var(--s2); }
.dot.s1 { fill: var(--s1); } .dot.s2 { fill: var(--s2); }
.bar.s1 { fill: var(--s1); }
.bar.status-critical { fill: var(--critical); }
.cross { stroke: var(--axis); stroke-width: 1; stroke-dasharray: 3 3; pointer-events: none; }
.tip {
  position: absolute; display: none; pointer-events: none;
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 9px; font-size: 12px;
  color: var(--ink2); box-shadow: 0 2px 8px rgba(0,0,0,0.12);
  max-width: 230px; z-index: 2;
}
.tip b { color: var(--ink1); font-weight: 600; }
.tip .chip { margin-right: 5px; }
details { margin-top: 8px; color: var(--ink2); font-size: 12px; }
summary { cursor: pointer; color: var(--muted); }
table { border-collapse: collapse; margin-top: 6px; width: 100%; }
th, td {
  text-align: right; padding: 2px 8px; font-variant-numeric: tabular-nums;
  border-bottom: 1px solid var(--grid); font-size: 11px;
}
th:first-child, td:first-child { text-align: left; }
"""

_JS = """
(function () {
  function init(fig) {
    var svg = fig.querySelector("svg");
    var dataEl = fig.querySelector('script[type="application/json"]');
    if (!svg || !dataEl) return;
    var d = JSON.parse(dataEl.textContent);
    var tip = document.createElement("div");
    tip.className = "tip";
    fig.appendChild(tip);
    var ns = "http://www.w3.org/2000/svg";
    var cross = document.createElementNS(ns, "line");
    cross.setAttribute("class", "cross");
    cross.setAttribute("y1", d.top);
    cross.setAttribute("y2", d.bottom);
    cross.style.display = "none";
    svg.appendChild(cross);
    function hide() {
      tip.style.display = "none";
      cross.style.display = "none";
    }
    svg.addEventListener("mousemove", function (ev) {
      var r = svg.getBoundingClientRect();
      if (!r.width) return;
      var x = ((ev.clientX - r.left) / r.width) * d.w;
      var pts = d.pts, lo = 0, hi = pts.length - 1;
      while (lo < hi) {
        var mid = (lo + hi) >> 1;
        if (pts[mid][0] < x) lo = mid + 1; else hi = mid;
      }
      if (lo > 0 && Math.abs(pts[lo - 1][0] - x) < Math.abs(pts[lo][0] - x))
        lo -= 1;
      var p = pts[lo];
      cross.setAttribute("x1", p[0]);
      cross.setAttribute("x2", p[0]);
      cross.style.display = "";
      var parts = ["<div>t = <b>" + p[1] + "</b> ms</div>"];
      for (var k = 0; k < d.series.length; k++) {
        parts.push(
          '<div><span class="chip s' + d.series[k].slot + '"></span>' +
          d.series[k].name + " <b>" + p[2 + k] + "</b></div>");
      }
      tip.innerHTML = parts.join("");
      tip.style.display = "block";
      var px = (p[0] / d.w) * r.width + 14;
      if (px > r.width - 180) px = px - 200;
      tip.style.left = px + "px";
      tip.style.top = (ev.clientY - r.top + 18) + "px";
    });
    svg.addEventListener("mouseleave", hide);
  }
  var figs = document.querySelectorAll(".fig");
  for (var i = 0; i < figs.length; i++) init(figs[i]);
})();
"""


def render_report(
    *,
    timeseries: list[dict[str, Any]] | None = None,
    sweep: dict[str, Any] | None = None,
    chaos: dict[str, Any] | None = None,
    bench: dict[str, dict[str, Any]] | None = None,
) -> tuple[str, int]:
    """Assemble the dashboard; returns ``(html, time-series chart count)``.

    ``timeseries`` takes :func:`repro.obs.export.timeseries_rows` rows,
    ``sweep`` the results document ``repro table1|sweep --out`` writes,
    ``chaos`` the report ``repro chaos --out`` writes, and ``bench`` maps
    artefact stem (e.g. ``"BENCH_throughput"``) to its parsed JSON.
    """
    sections: list[str] = []
    n_ts = 0
    if timeseries is not None:
        ts_html, n_ts = _timeseries_section(timeseries)
        sections.append(ts_html)
    if sweep is not None:
        sections.append(_sweep_section(sweep))
    if chaos is not None:
        sections.append(_chaos_section(chaos))
    if bench is not None:
        sections.append(_bench_section(bench))
    html = (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>repro dashboard</title>"
        f"<style>{_CSS}</style></head>"
        '<body class="viz-root"><main><header><h1>repro dashboard</h1>'
        f"</header>{''.join(sections)}</main>"
        f"<script>{_JS}</script></body></html>\n"
    )
    return html, n_ts

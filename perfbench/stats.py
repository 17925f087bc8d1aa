"""Sample statistics and the paired verdict ``compare`` prints.

Every timing in the ledger is reported as its value (a median, or a pooled
p95), quartiles, min, max and n.  A verdict compares one (workload, metric)
pair between two reports of the same benchmark code: the baseline ``a`` and
the candidate ``b``.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable, Sequence

__all__ = [
    "DEMOTED",
    "EXACT_COUNTS",
    "compare_reports",
    "format_comparison",
    "iqr_share",
    "percentile",
    "quartiles",
    "summarize",
    "summarize_p95",
    "verdict",
]

#: per-layer counts that must repeat bit-for-bit at a fixed seed; the only
#: numbers a later count-based claim may cite
EXACT_COUNTS = (
    "simmpi.engine.events",
    "simmpi.network.messages",
    "simmpi.network.bytes",
    "core.protocol.messages_logged",
    "core.protocol.bytes_logged",
    "analysis.rollback.snapshots",
    "analysis.rollback.trials",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.stores",
    "chaos.campaign.failures_injected",
)

#: workload-specific end-to-end walls that BENCHMARK.json lists under
#: ``per_layer`` (its ``end_to_end`` entries must exist on every workload);
#: ``compare`` still judges them, against the bound of ``wall_s``
DEMOTED = ("warm_wall_s", "trial_p95_s")


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values: Iterable[float]) -> dict[str, Any]:
    """value (the median) / q1 / q3 / min / max / n of a sample."""
    data = [float(v) for v in values]
    q1, med, q3 = quartiles(data)
    return {"stat": "median", "value": med, "q1": q1, "q3": q3,
            "min": min(data), "max": max(data), "n": len(data)}


def summarize_p95(groups: Sequence[Sequence[float]]) -> dict[str, Any]:
    """value = p95 of all samples pooled; q1 / q3 / min / max are of the
    per-group p95s (one group per timed unit); n counts the samples."""
    pooled = [float(v) for group in groups for v in group]
    spread = summarize(percentile(group, 95) for group in groups)
    spread.update(stat="p95", value=percentile(pooled, 95), n=len(pooled))
    return spread


def iqr_share(summary: dict[str, float]) -> float:
    """Inter-quartile distance as a share of the value."""
    value = summary["value"]
    return (summary["q3"] - summary["q1"]) / value if value else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]): the smallest sample with
    at least ``p`` % of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    data = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return float(data[rank - 1])


def verdict(a: dict[str, float], b: dict[str, float], bound: float,
            better: str = "lower", same_code: bool = False) -> tuple[str, float]:
    """``(verdict, change)`` for one metric; ``change`` is b's value
    relative to a's, positive when worse.

    * ``unresolved`` — either side's quartile spread is wider than the
      bound, unless every b sample beats every a sample (``improved``);
    * ``regressed`` — b is worse than a by more than the bound;
    * ``improved`` — better by more than both spreads and a third of the
      bound (the steadiness the benchmark itself is held to);
    * ``unchanged`` — otherwise.

    With ``same_code`` the two reports measured one program, so there is
    nothing to improve: the question is whether the benchmark repeats, and
    it is symmetric.  A spread wider than the bound is ``unresolved`` and
    a change beyond the bound *in either direction* is ``disagree``.

    ``bound == 0`` is an absolute bound (``failed_share``): any worsening
    regresses.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        diff = sign * (b["value"] - a["value"])
        if same_code:
            return ("disagree" if diff else "unchanged"), diff
        return ("regressed" if diff > 0 else
                "improved" if diff < 0 else "unchanged"), diff
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(iqr_share(a), iqr_share(b))
    if same_code:
        return ("unresolved" if spread > bound else
                "disagree" if abs(change) > bound else "unchanged"), change
    if spread > bound:
        if better == "lower":
            clear_win = b["max"] < a["min"]
        else:
            clear_win = b["min"] > a["max"]
        return ("improved" if clear_win else "unresolved"), change
    if change > bound:
        return "regressed", change
    if -change > max(spread, bound / 3):
        return "improved", change
    return "unchanged", change


def compare_reports(a: dict[str, Any], b: dict[str, Any],
                    benchmark: dict[str, Any]) -> dict[str, Any]:
    """Paired verdicts for every (workload, end-to-end metric) both reports
    carry, plus equality of the exact-count layer metrics.

    ``benchmark`` is the parsed ``BENCHMARK.json`` (source of the bounds).
    When both headers carry the same ``source_digest`` the reports measured
    one program and the verdicts are the symmetric agreement check (see
    :func:`verdict`).  Returns ``{"rows", "counts", "same_code", "ok"}``;
    ``ok`` is false when any metric regressed, disagrees or is unresolved,
    or a count differs.
    """
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in benchmark["end_to_end"]}
    for name in DEMOTED:
        bounds[name] = bounds["wall_s"]
    bounds["failed_share"] = (0.0, "lower")
    digest = a.get("header", {}).get("source_digest")
    same_code = (digest is not None
                 and digest == b.get("header", {}).get("source_digest"))
    rows, counts = [], []
    for wl in a["workloads"]:
        if wl not in b["workloads"]:
            continue
        e2e_a = a["workloads"][wl]["end_to_end"]
        e2e_b = b["workloads"][wl]["end_to_end"]
        for name, sa in e2e_a.items():
            if name not in e2e_b or name not in bounds:
                continue
            bound, better = bounds[name]
            what, change = verdict(sa, e2e_b[name], bound, better, same_code)
            rows.append({
                "workload": wl, "metric": name, "unit": sa.get("unit", ""),
                "a": sa["value"], "b": e2e_b[name]["value"],
                "change": change, "bound": bound,
                "spread_a": iqr_share(sa), "spread_b": iqr_share(e2e_b[name]),
                "verdict": what,
            })
        layer_a = a["workloads"][wl].get("per_layer", {})
        layer_b = b["workloads"][wl].get("per_layer", {})
        for name in EXACT_COUNTS:
            if name in layer_a and name in layer_b:
                va, vb = layer_a[name]["value"], layer_b[name]["value"]
                counts.append({"workload": wl, "metric": name,
                               "a": va, "b": vb, "identical": va == vb})
    ok = (all(r["verdict"] in ("unchanged", "improved") for r in rows)
          and all(c["identical"] for c in counts))
    return {"rows": rows, "counts": counts, "same_code": same_code, "ok": ok}


def format_comparison(result: dict[str, Any]) -> str:
    """The comparison as the text table ``compare`` prints."""
    lines = [f"{'workload':<14} {'metric':<14} {'a':>12} {'b':>12} "
             f"{'change':>8} {'bound':>6} {'spread a/b':>13}  verdict"]
    for r in result["rows"]:
        lines.append(
            f"{r['workload']:<14} {r['metric']:<14} {r['a']:>12.6g} "
            f"{r['b']:>12.6g} {r['change']:>+8.2%} {r['bound']:>6.2f} "
            f"{r['spread_a']:>6.2%}/{r['spread_b']:<6.2%} {r['verdict']}")
    different = [c for c in result["counts"] if not c["identical"]]
    lines.append(f"exact counts: {len(result['counts'])} compared, "
                 f"{len(different)} different")
    for c in different:
        lines.append(f"  DIFFERENT {c['workload']} {c['metric']}: "
                     f"{c['a']} != {c['b']}")
    what = ("agreement of two reports of one program" if result["same_code"]
            else "no regression")
    lines.append(f"{what}: " + ("ok" if result["ok"] else "FAILED"))
    return "\n".join(lines)

"""One workload in one process: the program behind ``perfbench/run.py``.

Untraced (``--trace 0``): timed set-up, a discarded warm-up at smoke size,
then at least ``MIN_REPEATS`` units, and units for about ``--seconds``, with
``gc.collect()`` between them and set-up timed once more, in a fresh
interpreter, after every other one; prints the end-to-end metrics, every
wall in reference-host seconds (see ``perfbench.host``).  Traced
(``--trace 1``): one unit under phase spans
(plus the direct single-layer timings), one unit under ``cProfile``; prints
the per-layer metrics.  The last line of stdout is the driver's JSON
object; the line before it (``REPORT_PREFIX``) carries the full report
``python -m perfbench run`` assembles.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import pstats
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from .host import host_slowdown
from .inputs import WORKLOADS, make_input
from .metrics import END_TO_END, PER_LAYER
from .stats import summarize
from .tracing import NULL_RECORDER, SpanRecorder, bucket_profile
from .workloads import make_workload

__all__ = ["REPORT_PREFIX", "command", "main"]

ROOT = Path(__file__).resolve().parent.parent
REPORT_PREFIX = "PERFBENCH_REPORT "

#: timed units per run, however slow the host (``--smoke``: one)
MIN_REPEATS = 5


def _set_up(name: str, seed: int, smoke: bool, work_dir: str):
    """Everything before the timed region: import ``repro`` and construct
    the workload's first input."""
    for module in ("repro.campaigns", "repro.service", "repro.chaos"):
        importlib.import_module(module)
    workload = make_workload(make_input(name, seed, smoke), work_dir, smoke)
    return workload, workload.prepare(0)


def command(workload: str, seed: int, smoke: bool, *extra: str) -> list[str]:
    """The argv that runs one workload in a fresh interpreter."""
    return [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            *(["--smoke"] if smoke else []), *extra]


def _setup_probe(args: argparse.Namespace) -> float:
    """Set up once more, in a fresh interpreter; its ``setup_s``."""
    cmd = command(args.workload, args.seed, args.smoke, "--setup-probe")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          text=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _timed_unit(workload, ctx, rec=NULL_RECORDER):
    t0 = time.perf_counter()
    out = workload.unit(ctx, rec)
    return out, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


# ----------------------------------------------------------------------
def run_untraced(args, workload, ctx, setup_s) -> dict[str, Any]:
    if not args.smoke:
        # let lazy imports and allocator arenas settle on a small unit
        warm = make_workload(make_input(args.workload, args.seed, True),
                             workload.work_dir, True)
        warm_ctx = warm.prepare(0)
        warm.after_unit(warm_ctx, warm.unit(warm_ctx))
        del warm, warm_ctx
    repeats = 1 if args.smoke else MIN_REPEATS
    walls: list[float] = []
    slowdowns: list[float] = []
    setups = [setup_s]
    started = time.perf_counter()
    while True:
        gc.collect()
        if ctx is None:
            ctx = workload.prepare(len(walls))
        before = host_slowdown()
        out, wall = _timed_unit(workload, ctx)
        slowdowns.append((before + host_slowdown()) / 2)
        walls.append(wall)
        workload.after_unit(ctx, out)
        ctx = out = None
        if len(walls) == repeats:
            # the high-water mark creeps up over repeats (arenas fragment)
            # and a fast host fits more of them: read it where every run
            # gets to, after set-up, warm-up and the least number of units
            peak_rss_mb = _peak_rss_mb()
        if args.smoke:
            break
        # set-up samples sit between the units (after every other one), so
        # that both see the same stretch of the host
        if len(walls) % 2:
            setups.append(_setup_probe(args))
        # stop where the next unit would on average overshoot --seconds by
        # more than it undershoots: a run costs about --seconds on a host
        # fast enough to fit MIN_REPEATS units in that
        elapsed = time.perf_counter() - started
        if (len(walls) >= repeats
                and elapsed + elapsed / len(walls) / 2 >= args.seconds):
            break
    samples = {
        "wall_s": ("s", [w / slow for w, slow in zip(walls, slowdowns)]),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", [peak_rss_mb]),
        "failed_share": ("ratio", [workload.failed / workload.attempted]),
        # not metrics of the benchmark: what the clock read, and the host
        "raw_wall_s": ("s", walls),
        "host.slowdown": ("ratio", slowdowns),
    }
    end_to_end = {name: {"unit": unit, **summarize(values), "samples": values}
                  for name, (unit, values) in samples.items()}
    end_to_end.update(workload.extra_end_to_end(slowdowns))
    return {"repeats": len(walls), "end_to_end": end_to_end}


def run_traced(args, workload) -> dict[str, Any]:
    rec = SpanRecorder(args.workload)
    # pass 1: phase spans and counts around the public calls
    gc.collect()
    ctx = workload.prepare(0, rec)
    with rec.span("unit"):
        out, span_wall = _timed_unit(workload, ctx, rec)
    workload.after_unit(ctx, out, rec)
    layer = dict(workload.layer_metrics(ctx, out, rec, span_wall))
    layer.update(workload.probes(ctx))
    plain_wall = workload.unprofiled_wall(out, span_wall)
    del ctx, out

    # pass 2: module self time under cProfile
    variant = workload.profile_variant()
    gc.collect()
    ctx = variant.prepare(0)
    profile = cProfile.Profile()
    profile.enable()
    out, profiled_wall = _timed_unit(variant, ctx)
    profile.disable()
    variant.after_unit(ctx, out)
    del ctx, out
    if variant is not workload:
        workload.attempted += variant.attempted
        workload.failed += variant.failed
        workload.failures += variant.failures
    buckets = bucket_profile(pstats.Stats(profile).stats)
    profiled_total = sum(b["self_s"] for b in buckets.values())
    layers = {}
    for name, bucket in buckets.items():
        layer[f"{name}.self_s"] = bucket["self_s"]
        layer[f"{name}.calls"] = bucket["calls"]
        layers[name] = {**bucket, "share": bucket["self_s"] / profiled_total}
    layer["trace.span_wall_s"] = span_wall
    layer["trace.profiled_wall_s"] = profiled_wall
    layer["trace.overhead_factor"] = profiled_wall / plain_wall
    return {
        "per_layer": layer, "layers": layers,
        "span_self_s": rec.self_times(), "spans": rec.spans,
        "profiled_self_total_s": profiled_total,
    }


# ----------------------------------------------------------------------
def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="untraced: keep timing units this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down shapes, one repeat, no warm-up")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print setup_s, exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, t0: float | None = None) -> int:
    """``t0`` is the process's first clock reading (set-up starts there)."""
    t0 = time.perf_counter() if t0 is None else t0
    args = _parse(argv)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload, ctx = _set_up(args.workload, args.seed, args.smoke, work_dir)
        setup_s = time.perf_counter() - t0
        setup_s /= host_slowdown()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        report: dict[str, Any] = {
            "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "trace": args.trace, "input": workload.inp,
            "loadavg": list(os.getloadavg()),
        }
        if args.trace:
            ctx = None  # the traced pass builds its own, under a span
            report.update(run_traced(args, workload))
            values = report["per_layer"]
            unknown = set(values) - {name for name, _, _ in PER_LAYER}
            if unknown:
                raise RuntimeError(f"unnamed per-layer metrics: {sorted(unknown)}")
            # the driver wants every per-layer metric from every workload:
            # a layer this workload bypasses reads 0
            metrics = {name: {"value": values.get(name, 0), "unit": unit}
                       for name, unit, _ in PER_LAYER}
            report["per_layer"] = {name: metrics[name] for name in values}
        else:
            report.update(run_untraced(args, workload, ctx, setup_s))
            metrics = {name: {"value": report["end_to_end"][name]["value"],
                              "unit": unit}
                       for name, unit, _ in END_TO_END}
        report.update(attempted=workload.attempted, failed=workload.failed,
                      failures=workload.failures)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()  # last one out; fails while others run
        except OSError:
            pass
    correct = workload.failed == 0
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1

"""``python -m perfbench run`` and ``python -m perfbench compare``.

``run`` is the full protocol: ``ROUNDS`` rounds over the four workloads,
each run the command of ``BENCHMARK.json`` exactly as the driver issues it
(a fresh subprocess of ``perfbench/run.py``, ``run_seconds`` long), never
concurrently, their samples pooled per workload; then one traced run per
workload.  ``compare`` judges two reports of ``run`` against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: untraced runs per workload in one ``run``, a round of all workloads at a
#: time: this host changes speed by the minute, and samples minutes apart
#: say more about the program than as many taken in one stretch
ROUNDS = 3


def _run_worker(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    from .worker import REPORT_PREFIX, command

    cmd = command(name, args.seed, args.smoke,
                  "--seconds", str(args.seconds), "--trace", str(trace))
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            return json.loads(line[len(REPORT_PREFIX):])
    raise RuntimeError(f"{name} (trace {trace}) exited {done.returncode} "
                       f"without a report")


def _pool(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """One workload's untraced reports, one per round, as one: samples
    concatenated and summarised again, ops summed."""
    from .stats import summarize, summarize_p95

    end_to_end = {}
    for name, first in rounds[0]["end_to_end"].items():
        samples = [v for r in rounds for v in r["end_to_end"][name]["samples"]]
        again = summarize_p95 if first["stat"] == "p95" else summarize
        end_to_end[name] = {"unit": first["unit"], **again(samples),
                            "samples": samples}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    end_to_end["failed_share"] = {
        "unit": "ratio", **summarize([failed / attempted]),
        "samples": [failed / attempted]}
    return {"input": rounds[0]["input"],
            "loadavg": [r["loadavg"] for r in rounds],
            "repeats": sum(r["repeats"] for r in rounds),
            "end_to_end": end_to_end, "attempted": attempted,
            "failed": failed,
            "failures": [why for r in rounds for why in r["failures"]]}


def _print_workload(name: str, wl: dict[str, Any]) -> None:
    print(f"\n== {name}: {wl['repeats']} timed repeats, "
          f"{wl['failed']} of {wl['attempted']} ops failed")
    for why in wl["failures"]:
        print(f"   FAILED: {why}")
    print("  end to end (tracing off)")
    for metric, e in wl["end_to_end"].items():
        print(f"    {metric:<13} {e['unit']:<5} {e['stat']} {e['value']:<10.6g} "
              f"q1 {e['q1']:<10.6g} q3 {e['q3']:<10.6g} "
              f"min {e['min']:<10.6g} max {e['max']:<10.6g} n {e['n']}")
    print("  per layer (traced pass)")
    for metric, e in wl["per_layer"].items():
        if not metric.endswith((".self_s", ".calls")):
            print(f"    {metric:<40} {e['value']:<14.6g} {e['unit']}")
    profiled = wl["per_layer"]["trace.profiled_wall_s"]["value"]
    print("  module self time under cProfile (share of the profile)")
    for layer, b in sorted(wl["layers"].items(),
                           key=lambda item: -item[1]["self_s"]):
        if b["calls"]:
            print(f"    {layer:<22} {b['self_s']:>9.4f} s {b['share']:>7.2%} "
                  f"{b['calls']:>10} calls")
    total = wl["profiled_self_total_s"]
    print(f"    layers sum {total:.4f} s = {total / profiled:.2%} "
          f"of the profiled wall {profiled:.4f} s")
    if wl["input"]["kind"] == "cell":
        spans = wl["span_self_s"]
        wall = (wl["per_layer"]["trace.span_wall_s"]["value"]
                + spans["core.controller.build"])
        parts = " + ".join(f"{name.rsplit('.', 1)[-1]} {seconds:.4f}"
                           for name, seconds in spans.items() if name != "unit")
        print(f"    spans: {parts} + remainder {spans['unit']:.4f} = "
              f"{sum(spans.values()) / wall:.2%} of build + unit "
              f"{wall:.4f} s")


def cmd_run(args: argparse.Namespace) -> int:
    from .host import NOISY_DRIFT, append_history, calib_spin_s, header
    from .inputs import WORKLOADS
    from .worker import MIN_REPEATS

    with open(ROOT / "BENCHMARK.json") as fh:
        args.seconds = json.load(fh)["run_seconds"]
    rounds = 1 if args.smoke else ROUNDS
    calib = [calib_spin_s()]
    untraced: dict[str, list] = {name: [] for name in WORKLOADS}
    for _ in range(rounds):
        for name in WORKLOADS:
            untraced[name].append(_run_worker(name, args, trace=0))
    report: dict[str, Any] = {"schema": 2, "workloads": {}}
    for name in WORKLOADS:
        wl = _pool(untraced[name])
        traced = _run_worker(name, args, trace=1)
        wl.update({key: traced[key] for key in
                   ("per_layer", "layers", "span_self_s", "spans",
                    "profiled_self_total_s")})
        wl["attempted"] += traced["attempted"]
        wl["failed"] += traced["failed"]
        wl["failures"] += traced["failures"]
        report["workloads"][name] = wl
        _print_workload(name, wl)
    calib.append(calib_spin_s())
    drift = abs(calib[1] - calib[0]) / calib[0]
    report["header"] = header(ROOT, {
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "rounds": rounds, "min_repeats": 1 if args.smoke else MIN_REPEATS,
        "host.calib_spin_s": calib, "noisy": drift > NOISY_DRIFT})
    print(f"\nheader: {json.dumps(report['header'])}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if args.history:
        append_history(args.history, report)
    failed = sum(wl["failed"] for wl in report["workloads"].values())
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .stats import compare_reports, format_comparison

    with open(args.a) as fa, open(args.b) as fb, open(args.benchmark) as fm:
        result = compare_reports(json.load(fa), json.load(fb), json.load(fm))
    print(format_comparison(result))
    return 0 if result["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="all workloads, untraced then traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--smoke", action="store_true",
                     help="scaled-down shapes, one round of one repeat, "
                          "under 30 s")
    run.add_argument("--out", help="write the full report (JSON) here")
    run.add_argument("--history",
                     help="append one commit-keyed JSON row to this file")
    run.set_defaults(fn=cmd_run)
    compare = sub.add_parser("compare", help="verdicts between two reports")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

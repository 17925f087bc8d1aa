"""Command-line interface: ``python -m repro <command>``.

Thin front-end over the library for the common workflows.  The campaign
commands (``table1``, ``sweep``, ``chaos``, ``submit``) only translate
flags into a campaign spec and format what comes back: what a spec
computes, its defaults and how it runs live in :mod:`repro.campaigns`.
Each kind's spec flags are declared once (:data:`CAMPAIGN_FLAGS`) and
serve both doors: ``repro KIND [flags]`` runs the campaign here,
``repro submit --connect ADDR KIND [flags]`` sends the same spec to a
service.

* ``demo`` — run a clustered workload, inject a failure, report recovery;
* ``table1`` — regenerate Table I for chosen kernels/sizes/clusters
  (``--workers N`` fans the cells across processes, same output;
  ``--out`` writes the JSON results document);
* ``sweep`` — randomized failure runs, each recovery validated against
  its failure-free reference, fanned across worker processes, with JSON
  results (``--out``);
* ``fig6`` — print the ping-pong latency/bandwidth table;
* ``pattern`` — print a kernel's communication matrix with clustering;
* ``domino`` — quantify the domino effect vs the protocol;
* ``explain`` — run a failure scenario and print, per rolled-back rank,
  the chain of non-logged messages that forced its rollback;
* ``obs`` — run an instrumented scenario and dump the metrics/trace/
  flight streams as JSON-lines or CSV, or a Perfetto trace
  (see ``docs/observability.md``);
* ``report`` — render the HTML dashboard of files the other commands
  wrote; it runs nothing;
* ``lint`` — static determinism linter (RPD rules, ``# repro: noqa``
  suppressions, text/JSON output; see ``docs/static-analysis.md``);
* ``certify`` — send-determinism certifier: static taint analysis over
  the ``RankProgram`` kernels (SD rules), optional differential
  delivery-order verification (``--dynamic``), and the certification
  registry that ``table1``/``sweep``/``chaos`` consult at campaign
  start (``--strict-sd`` turns their warnings into refusals);
* ``serve`` / ``submit`` — the resident campaign service: an async job
  queue over a persistent work-stealing worker pool with a
  content-addressed result cache, and the thin client that submits
  table1/sweep/chaos/selftest campaigns to it (see ``docs/service.md``).
  The one-shot campaign commands accept ``--cache DIR`` to reuse the
  same content-addressed cache without a resident service.

The global ``--sanitize`` flag (before the subcommand) enables the
runtime protocol-invariant sanitizer for the run, equivalent to setting
``REPRO_SANITIZE=1``.

Each command prints the paper-style output the benchmarks save under
``results/`` but lets users pick parameters interactively.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, NoReturn, Sequence

# what the parser and several commands share; a command imports what it
# alone runs
from . import campaigns
from .apps import CHAOS_POOL, KERNELS, TABLE1_KERNELS
from .chaos.oracles import ORACLES
from .lint.certify import (
    DEFAULT_JITTER,
    DEFAULT_REGISTRY,
    DEFAULT_SCHEDULES,
)
from .lint.sanitize import ENV_VAR as SANITIZE_ENV_VAR
from .obs.timeseries import DEFAULT_TIMESERIES_INTERVAL

__all__ = ["main", "build_parser"]


def _add_campaign_args(p: argparse.ArgumentParser, unit: str) -> None:
    """The flags every one-shot campaign command shares (table1 / sweep /
    chaos): worker count, progress stream, certification gate, result
    cache."""
    p.add_argument("--workers", type=int, default=1,
                   help=f"fan {unit}s across N worker processes (1 = "
                        "inline, output identical either way)")
    p.add_argument("--stream", default=None, metavar="PATH",
                   help=f"live JSONL progress stream: one event per {unit} "
                        "plus campaign begin/end ('-' = stderr)")
    p.add_argument("--strict-sd", action="store_true",
                   help="refuse to run kernels that are not certified "
                        "send-deterministic in the certification registry "
                        f"({DEFAULT_REGISTRY}; see `repro certify`); "
                        "without this flag uncertified kernels only warn")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed result cache directory: tasks "
                        "whose (code digest, seed, params) address is "
                        "already stored are served from disk, byte-"
                        "identical to a cold run (see docs/service.md)")


def _open_cache(args: argparse.Namespace):
    if not args.cache:
        return None
    from .service import ResultCache

    return ResultCache(args.cache)


def _cache_summary(cache) -> str:
    s = cache.stats()
    return (f"cache: hits={s['hits']} misses={s['misses']} "
            f"stores={s['stores']} unkeyable={s['unkeyable']}")


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    """Size and victim of the Stencil2D failure scenario (demo / explain /
    obs)."""
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--fail-rank", type=int, default=None,
                   help="rank to kill mid-run (default: last rank)")


#: ``--timeseries``, a spec field of table1 / sweep and an option of obs
TIMESERIES_FLAG: dict = {
    "nargs": "?", "type": float, "const": DEFAULT_TIMESERIES_INTERVAL,
    "metavar": "INTERVAL",
    "help": "sample virtual-time metric series at INTERVAL virtual seconds; "
            "a campaign merges its tasks' series in task order — byte-"
            "identical for any --workers N (default "
            f"{DEFAULT_TIMESERIES_INTERVAL:g})"}


def _add_timeseries_out(p: argparse.ArgumentParser) -> None:
    """``main`` refuses ``--timeseries-out`` without ``--timeseries``."""
    p.add_argument("--timeseries-out", metavar="PATH",
                   help="write the time-series dump (JSONL) here")


_INT: dict = {"type": int}
_INTS: dict = {"nargs": "+", "type": int}

#: per campaign kind: its help line and one flag per field of
#: ``campaigns.DEFAULTS[kind]`` (field ``base_seed`` is ``--base-seed``).
#: Both doors build their parsers from this table: ``repro KIND`` and
#: ``repro submit ... KIND``.
CAMPAIGN_FLAGS: dict[str, tuple[str, dict[str, dict]]] = {
    "table1": ("regenerate Table I: one task and one simulation per "
               "kernel and rank count, for all its cluster counts", {
        "kernels": {"nargs": "+", "choices": sorted(TABLE1_KERNELS)},
        "ranks": _INTS, "clusters": _INTS, "niters": _INT,
        "base_seed": _INT, "timeseries": TIMESERIES_FLAG}),
    "sweep": ("randomized failure runs, each recovery checked against its "
              "failure-free reference", {
        "ranks": _INT, "clusters": _INT, "niters": _INT,
        "runs": {"type": int, "help": "number of failure runs"},
        "base_seed": _INT, "timeseries": TIMESERIES_FLAG}),
    "chaos": ("seeded failure-schedule fuzzing: random kernels, config axes "
              f"and failure placements, {len(ORACLES)} validity oracles per "
              "trial, delta-debugging shrinker for failures", {
        "trials": _INT,
        "seed": {"type": int,
                 "help": "campaign seed; trial i is a pure function of "
                         "(seed, i) for any worker count"},
        "kernels": {"nargs": "+",
                    "help": f"kernel pool, any of {' '.join(KERNELS)} "
                            f"(default: {' '.join(CHAOS_POOL)})"},
        "bug": {"help": "plant a synthetic protocol bug in every trial "
                        "(harness self-test; see repro.chaos.SYNTHETIC_BUGS)"},
        "shrink": {"type": int,
                   "help": "delta-debug at most N failing trials down to "
                           "minimal reproducers (0 disables)"}}),
    "selftest": ("trivial tasks that exercise the service's queue, pool and "
                 "cache", {"tasks": _INT, "base_seed": _INT}),
}


def _campaign_parser(sub, kind: str) -> argparse.ArgumentParser:
    """``kind``'s parser with its spec flags.  Each defaults to None: an
    unset flag stays out of the spec, so the planner's default applies on
    either door (the help quotes it)."""
    help_text, flags = CAMPAIGN_FLAGS[kind]
    p = sub.add_parser(kind, help=help_text)
    for field, options in flags.items():
        default = campaigns.DEFAULTS[kind][field]
        if default not in (None, ""):
            shown = " ".join(map(str, default)) \
                if isinstance(default, tuple) else default
            options = {**options, "help": f"{options.get('help', '')} "
                                          f"(default {shown})".lstrip()}
        p.add_argument("--" + field.replace("_", "-"), **options)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uncoordinated checkpointing without domino effect "
                    "(IPDPS 2011) — reproduction toolkit",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime protocol-invariant sanitizer for this "
             "run (same as REPRO_SANITIZE=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="clustered recovery demo")
    _add_scenario_args(demo)

    for kind in ("table1", "sweep"):
        grid = _campaign_parser(sub, kind)
        grid.add_argument("--out", help="write structured JSON results here")
        _add_timeseries_out(grid)
        _add_campaign_args(grid, "task")

    sub.add_parser("fig6", help="ping-pong latency/bandwidth table")

    pat = sub.add_parser("pattern", help="communication matrix + clustering")
    pat.add_argument("kernel", choices=sorted(TABLE1_KERNELS))
    pat.add_argument("--ranks", type=int, default=16)
    pat.add_argument("--clusters", type=int, default=4)

    dom = sub.add_parser("domino", help="domino effect vs the protocol")
    dom.add_argument("--ranks", type=int, default=12)

    ex = sub.add_parser(
        "explain",
        help="run a failure scenario and explain why each rank rolled back",
    )
    _add_scenario_args(ex)

    obs = sub.add_parser(
        "obs", help="run an instrumented scenario, dump metrics/flight streams"
    )
    _add_scenario_args(obs)
    obs.add_argument("--no-failure", action="store_true",
                     help="measure a failure-free execution")
    obs.add_argument("--format", choices=["jsonl", "csv", "text"],
                     default="jsonl",
                     help="metrics output format; 'text' is a human-"
                          "readable summary with p50/p95/p99 quantile "
                          "estimates per histogram")
    obs.add_argument("--out", default=None,
                     help="write the metrics dump here (default: stdout)")
    obs.add_argument("--timeseries", **TIMESERIES_FLAG)
    _add_timeseries_out(obs)
    obs.add_argument("--trace-out", default=None,
                     help="also write the run as Perfetto/Chrome "
                          "trace-event JSON to this path")
    obs.add_argument("--flight-out", default=None,
                     help="write the flight-record stream (JSONL/CSV) here")

    chaos = _campaign_parser(sub, "chaos")
    chaos.add_argument("--replay", type=int, default=None, metavar="INDEX",
                       help="re-run exactly one campaign trial by index and "
                            "print its verdicts as JSON")
    chaos.add_argument("--out", default=None,
                       help="write the JSON campaign report here")
    chaos.add_argument("--failures-dir", default=None,
                       help="write per-failure artifacts (schedule JSON, "
                            "flight-recorder dump, shrunk pytest "
                            "reproducers) into this directory")
    _add_campaign_args(chaos, "trial")

    rep = sub.add_parser(
        "report",
        help="render a self-contained HTML dashboard (inline SVG, no "
             "external assets) from files other commands wrote; it runs "
             "nothing, and an input it cannot read is a usage error",
    )
    rep.add_argument("--out", default="report.html",
                     help="output HTML path (default: report.html)")
    rep.add_argument("--timeseries", default=None, metavar="PATH",
                     help="time-series JSONL dump (from repro obs "
                          "--timeseries --timeseries-out)")
    rep.add_argument("--sweep", default=None, metavar="PATH",
                     help="results JSON (from repro table1 --out or repro "
                          "sweep --out)")
    rep.add_argument("--chaos", default=None, metavar="PATH",
                     help="chaos campaign report JSON (from repro chaos "
                          "--out)")
    rep.add_argument("--bench", nargs="*", default=None, metavar="PATH",
                     help="BENCH_*.json artefacts, or a directory to scan "
                          "(no value: ./results)")

    lint = sub.add_parser(
        "lint",
        help="determinism linter: flag unseeded RNG, wall-clock reads, "
             "unordered iteration and friends (RPD rules)",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    # comma-separated and repeatable (ruff-style) — a greedy nargs="+"
    # would swallow the positional paths that follow
    lint.add_argument("--select", action="append", metavar="CODE[,CODE...]",
                      default=None, help="only report these rule codes")
    lint.add_argument("--ignore", action="append", metavar="CODE[,CODE...]",
                      default=None, help="drop these rule codes")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    cert = sub.add_parser(
        "certify",
        help="send-determinism certifier: static taint analysis over "
             "RankProgram kernels (SD rules), differential delivery-order "
             "verification (--dynamic), JSON certification registry",
    )
    cert.add_argument("paths", nargs="*",
                      help="files or directories holding kernels (default: "
                           "the installed repro.apps package)")
    cert.add_argument("--kernels", nargs="+", default=None, metavar="CLASS",
                      help="restrict to these kernel class names")
    cert.add_argument("--dynamic", action="store_true",
                      help="also run each kernel under K adversarial "
                           "delivery schedules and require bit-identical "
                           "send-witness chains")
    cert.add_argument("--schedules", type=int, default=DEFAULT_SCHEDULES,
                      help="adversarial delivery schedules per kernel "
                           f"(default {DEFAULT_SCHEDULES})")
    cert.add_argument("--jitter", type=float, default=DEFAULT_JITTER,
                      help="relative transit-time jitter in [0, 1) for the "
                           f"adversarial schedules (default {DEFAULT_JITTER})")
    cert.add_argument("--base-seed", type=int, default=2026,
                      help="seed base for the jitter streams")
    cert.add_argument("--out", default=DEFAULT_REGISTRY, metavar="PATH",
                      help="write the certification registry JSON here "
                           f"(default {DEFAULT_REGISTRY}; '-' skips the "
                           "write)")
    cert.add_argument("--format", choices=["text", "json"], default="text")

    srv = sub.add_parser(
        "serve",
        help="resident campaign service: async job queue over a "
             "persistent work-stealing pool with a content-addressed "
             "result cache (JSONL protocol; see docs/service.md)",
    )
    srv.add_argument("--socket", default=None, metavar="PATH",
                     help="listen on this Unix socket path")
    srv.add_argument("--host", default="127.0.0.1",
                     help="listen on TCP host (with --port; default "
                          "127.0.0.1)")
    srv.add_argument("--port", type=int, help="listen on TCP port")
    srv.add_argument("--workers", type=int, default=2,
                     help="worker processes in the persistent pool")
    srv.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persist the result cache here (default: "
                          "in-memory only)")
    srv.add_argument("--no-cache", action="store_true",
                     help="disable the result cache entirely")

    sbm = sub.add_parser(
        "submit",
        help="submit a campaign to a running `repro serve` instance "
             "(or query/stop it with --op)",
    )
    sbm.add_argument("--connect", required=True, metavar="ADDR",
                     help="service address: Unix socket path or host:port")
    sbm.add_argument("--op", choices=["submit", "status", "stats",
                                      "shutdown"],
                     default="submit")
    sbm.add_argument("--job", default=None,
                     help="job id for --op status")
    sbm.add_argument("--no-wait", action="store_true",
                     help="enqueue and print the job id without waiting")
    sbm.add_argument("--out", default=None,
                     help="write the job's result document (JSON) here")
    sbm.add_argument("--stats-out", default=None, metavar="PATH",
                     help="write service cache/scheduler stats JSON here")
    kinds = sbm.add_subparsers(
        dest="kind", metavar="KIND",
        help="the campaign to submit, with its own flags (`repro submit "
             "--connect ADDR KIND --help`); --op submit needs one")
    for kind in CAMPAIGN_FLAGS:
        _campaign_parser(kinds, kind)
    return parser


# ----------------------------------------------------------------------
def cmd_demo(args: argparse.Namespace) -> int:
    from .analysis import compare_executions

    nprocs = args.ranks
    ref, world, controller, fail_rank, fail_time = campaigns.stencil_scenario(
        nprocs, args.clusters, fail_rank=args.fail_rank, record_sequences=True)
    report = controller.recovery_reports[0]
    stats = controller.logging_stats()
    print(f"failure of rank {fail_rank} at t={fail_time * 1e3:.3f} ms")
    print(f"rolled back  : {report.rolled_back} "
          f"({len(report.rolled_back)}/{nprocs})")
    print(f"%log         : {100 * stats['log_fraction']:.1f}")
    validity = compare_executions(ref, world)
    if not validity.valid:
        print(f"VALIDITY VIOLATION: {validity.summary()}")
        return 1
    print("validity     : results identical to the failure-free run")
    return 0


def _obs_summary(registry) -> str:
    """Deterministic one-line digest of a merged registry.

    Counter totals only — no wall-clock numbers — so the line is
    byte-identical for any worker count (the parallel byte-identity test
    covers it).
    """
    keys = (
        "protocol.messages_logged", "protocol.messages_confirmed",
        "protocol.messages_replayed", "protocol.messages_suppressed",
        "checkpoint.stored", "recovery.rollbacks",
    )
    return "obs: " + " ".join(
        f"{k.rsplit('.', 1)[1]}={registry.get_counter_total(k):.0f}"
        for k in keys)


def _ts_digest(registry) -> str:
    """Deterministic one-line digest of the merged time-series recorder.

    Virtual-time quantities only (no wall-clock), so — like
    :func:`_obs_summary` — the line is byte-identical for any worker count.
    """
    ts = registry.timeseries
    points = sum(len(s.t) for s in ts.series.values())
    return (f"timeseries: interval={ts.interval:g}s "
            f"series={len(ts.series)} samples={ts.samples_taken} "
            f"points={points}")


def _write_timeseries(registry, path: str) -> None:
    from .obs import dump_timeseries

    with open(path, "w") as fh:
        fh.write(dump_timeseries(registry, "jsonl"))


def _campaign_spec(kind: str, args: argparse.Namespace) -> dict:
    """The campaign spec a parsed command line describes: every field of
    ``kind`` whose flag the user set.  Unset flags stay out, so the
    planner's defaults apply — the same through the one-shot commands and
    through ``repro submit``."""
    spec = {"kind": kind}
    for field in campaigns.DEFAULTS[kind]:
        value = getattr(args, field)
        if value is not None:
            spec[field] = value
    return spec


def _gated_spec(kind: str, args: argparse.Namespace) -> dict:
    """A one-shot command's campaign spec, validated and past the
    campaign-start certification check (a refusal raises ``ConfigError``).
    Uncertified, stale or VIOLATION kernels only warn unless
    ``--strict-sd``."""
    from .lint.certify import check_campaign_certification

    spec = campaigns.validate_spec(_campaign_spec(kind, args))
    warnings = check_campaign_certification(campaigns.plan(spec)[3],
                                            strict=args.strict_sd)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return spec


def _save_results(args: argparse.Namespace, spec: dict, results, cache,
                  name: str) -> None:
    """``--out`` of table1 and sweep: the structured results document."""
    from .sweep import save_results

    extra = {"ranks": spec["ranks"], "clusters": spec["clusters"],
             "workers": args.workers, "base_seed": spec["base_seed"]}
    if cache is not None:
        extra["service"] = {"cache": cache.stats()}
    save_results(args.out, results, sweep_name=name, extra=extra)
    print(f"results -> {args.out}")


def _print_telemetry(registry, cache, args: argparse.Namespace,
                     file) -> None:
    """The obs / cache / time-series digest lines of table1 and sweep."""
    print(_obs_summary(registry), file=file)
    if cache is not None:
        print(_cache_summary(cache), file=sys.stderr)
    if registry.timeseries is not None:
        print(_ts_digest(registry), file=file)
        if args.timeseries_out:
            _write_timeseries(registry, args.timeseries_out)
            print(f"timeseries -> {args.timeseries_out}", file=sys.stderr)


def cmd_table1(args: argparse.Namespace) -> int:
    from .analysis.report import format_table1

    spec = _gated_spec("table1", args)
    cache = _open_cache(args)
    run = campaigns.run_campaign(spec, workers=args.workers, cache=cache,
                                 stream=args.stream)
    failed = [r for r in run.results if not r.ok]
    for r in failed:
        print(f"task {r.name} failed: {r.error}", file=sys.stderr)
    print(format_table1((row for r in run.results if r.ok for row in r.value),
                        spec["clusters"]), end="")
    _print_telemetry(run.registry, cache, args, sys.stdout)
    if args.out:
        _save_results(args, spec, run.results, cache, "table1")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _gated_spec("sweep", args)
    done = {"n": 0}

    def progress(result):
        done["n"] += 1
        status = "ok" if result.ok else "ERROR"
        print(f"[{done['n']:3d}/{spec['runs']}] {result.name}: {status} "
              f"({result.duration:.2f}s)", file=sys.stderr)

    cache = _open_cache(args)
    run = campaigns.run_campaign(spec, workers=args.workers, cache=cache,
                                 stream=args.stream, on_progress=progress)
    results = run.results
    _print_telemetry(run.registry, cache, args, sys.stderr)
    ok = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"{r.name} failed: {r.error}", file=sys.stderr)
    invalid = [r.name for r in ok if not r.value["valid"]]
    if ok:
        mean_rb = sum(r.value["pct_rolled_back"] for r in ok) / len(ok)
        print(f"{len(ok)}/{len(results)} runs ok, mean rolled back "
              f"{mean_rb:.1f}%, validity violations: {invalid or 'none'}")
    if args.out:
        _save_results(args, spec, results, cache, "failures")
    return 1 if failed or invalid else 0


def cmd_fig6(_args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .netmodel import MODES, PerfModel

    model = PerfModel()
    sizes = [1 << k for k in range(0, 24, 2)]
    rows = [
        [size] + [f"{model.one_way_time(size, m) * 1e6:.2f}" for m in MODES]
        + [f"{model.bandwidth_mbps(size, m):.0f}" for m in MODES]
        for size in sizes
    ]
    print(format_table(
        ["size_B", "lat_native_us", "lat_nolog_us", "lat_log_us",
         "bw_native", "bw_nolog", "bw_log"], rows,
    ))
    return 0


def cmd_pattern(args: argparse.Namespace) -> int:
    from .analysis import collect_matrix, render_matrix
    from .core.clustering import Clustering, block_clusters

    cls = TABLE1_KERNELS[args.kernel]
    matrix = collect_matrix(args.ranks, lambda r, s: cls(r, s),
                            copy_payloads=False)
    clusters = block_clusters(args.ranks, args.clusters)
    clustering = Clustering(clusters, matrix).reconfigure_epochs()
    print(render_matrix(matrix, clusters, clustering.initial_epochs(),
                        max_width=64))
    print(f"locality {100 * clustering.locality():.1f}%  "
          f"isolation {100 * clustering.isolation():.1f}%  "
          f"predicted log {100 * clustering.predicted_log_fraction():.1f}%")
    return 0


def cmd_domino(args: argparse.Namespace) -> int:
    from .apps import Stencil2D
    from .baselines import run_domino_analysis

    factory = lambda r, s: Stencil2D(r, s, niters=40, block=3)
    stats = run_domino_analysis(args.ranks, factory, checkpoint_interval=2e-5,
                                sample_interval=4e-5, jitter=0.15,
                                copy_payloads=False)
    print(f"plain uncoordinated: {100 * stats.mean_rolled_back_fraction:.1f}% "
          f"rolled back, {100 * stats.restart_from_beginning_fraction:.1f}% "
          f"of failures reach the initial state")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Run an instrumented failure scenario, then explain — for every rank
    in the recovery line — the chain of non-logged messages (with concrete
    uids from the flight recorder) that forced its rollback."""
    from .obs import MetricsRegistry, explain_report

    registry = MetricsRegistry()
    _, _, controller, fail_rank, fail_time = campaigns.stencil_scenario(
        args.ranks, args.clusters, fail_rank=args.fail_rank, obs=registry)
    if not controller.recovery_reports:
        print("no recovery round to explain", file=sys.stderr)
        return 1
    report = controller.recovery_reports[0]
    explanation = explain_report(report, flight=registry.flight)
    print(f"failure: rank {fail_rank} at t={fail_time * 1e3:.3f} ms "
          f"(round {report.round_no})")
    print(explanation.format())
    print(f"fix-point steps: {len(explanation.steps)}  "
          f"flight records: {registry.flight.total_records}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Instrumented run covering every layer: engine dispatch, per-channel
    traffic, logging decisions, and (unless --no-failure) a full recovery
    round — then dump the metrics snapshot and the optional flight /
    Perfetto / time-series streams."""
    from .obs import MetricsRegistry, dump_flight, dump_metrics, dump_text
    from .obs.perfetto import dump_perfetto

    registry = MetricsRegistry(timeseries_interval=args.timeseries)
    _, world, controller, _, _ = campaigns.stencil_scenario(
        args.ranks, args.clusters, fail_rank=args.fail_rank, obs=registry,
        fail_frac=None if args.no_failure else 0.5)

    # the flight stream stays JSONL when the metrics view is text
    stream_fmt = "jsonl" if args.format == "text" else args.format
    if args.format == "text":
        metrics_text = dump_text(registry)
    else:
        metrics_text = dump_metrics(registry, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(metrics_text)
        print(f"metrics ({args.format}) -> {args.out}")
    else:
        sys.stdout.write(metrics_text)
    if args.trace_out:
        n = dump_perfetto(registry, args.trace_out)
        print(f"perfetto trace ({n} events) -> {args.trace_out} "
              f"(open in ui.perfetto.dev)")
    if args.flight_out:
        with open(args.flight_out, "w") as fh:
            fh.write(dump_flight(registry, stream_fmt))
        print(f"flight records ({stream_fmt}) -> {args.flight_out}")
    if args.timeseries_out:
        _write_timeseries(registry, args.timeseries_out)
        print(f"timeseries -> {args.timeseries_out}")
    summary = (
        f"# events={world.engine.events_dispatched} "
        f"messages={world.network.messages_sent} "
        f"logged={controller.logging_stats()['messages_logged']:.0f} "
        f"recovery_rounds={len(controller.recovery_reports)}"
    )
    print(summary, file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos campaign; exit 0 when every trial passes all five oracles."""
    from .chaos import replay_trial

    spec = _gated_spec("chaos", args)
    if args.replay is not None:
        verdict = replay_trial(spec["seed"], args.replay,
                               kernels=spec["kernels"], bug=spec["bug"])
        print(json.dumps(verdict, indent=2))
        return 0 if verdict.get("passed") else 1

    done = {"n": 0, "failed": 0}

    def progress(result):
        done["n"] += 1
        ok = result.ok and bool(result.value.get("passed"))
        if not ok:
            done["failed"] += 1
        if done["n"] % 25 == 0 or not ok:
            print(f"  [{done['n']}/{spec['trials']}] "
                  f"{done['failed']} failing", file=sys.stderr)

    cache = _open_cache(args)
    run = campaigns.run_campaign(spec, workers=args.workers, cache=cache,
                                 stream=args.stream, on_progress=progress)
    report, obs = run.report, run.registry
    print(report.summary())
    if cache is not None:
        print(_cache_summary(cache), file=sys.stderr)
    oracle_counter = obs.counter("chaos.oracle", ("name", "passed"))
    for name in ORACLES:
        passed = int(oracle_counter.get((name, True)))
        failed = int(oracle_counter.get((name, False)))
        print(f"  oracle {name:<12} pass={passed} fail={failed}")
    for entry in report.shrunk:
        if "minimized" in entry:
            evs = entry["minimized"].get("failures", [])
            print(f"  shrunk trial {entry['index']}: {len(evs)} event(s), "
                  f"oracles {entry.get('failing_oracles')}")

    if args.out:
        report.save(args.out)
        print(f"campaign report -> {args.out}")
    if args.failures_dir and (report.failures or report.shrunk):
        os.makedirs(args.failures_dir, exist_ok=True)
        for entry in report.failures:
            idx = entry["index"]
            base = os.path.join(args.failures_dir, f"trial-{idx:05d}")
            with open(base + ".json", "w") as fh:
                json.dump({k: v for k, v in entry.items()
                           if k != "flight_jsonl"}, fh, indent=2)
            flight = entry.get("flight_jsonl")
            if flight:
                with open(base + ".flight.jsonl", "w") as fh:
                    fh.write(flight)
        for entry in report.shrunk:
            if "reproducer" not in entry:
                continue
            path = os.path.join(
                args.failures_dir,
                f"test_chaos_repro_{entry['index']:05d}.py")
            with open(path, "w") as fh:
                fh.write(entry["reproducer"])
        print(f"failure artifacts -> {args.failures_dir}/")
    return 0 if report.ok else 1


class _ReportDoc(dict):
    """A JSON object read by ``repro report``: a key its page reads that
    the file lacks is a usage error naming the file and the key."""

    def __init__(self, obj: dict, path: str):
        super().__init__(obj)
        self.path = path

    def __missing__(self, key: str) -> NoReturn:
        from .errors import ConfigError

        raise ConfigError(f"report: {self.path} has no key {key!r}")


def _read_report_input(path: str, jsonl: bool = False) -> Any:
    """Parse one ``repro report`` input, every JSON object in it a
    :class:`_ReportDoc`; a file that cannot be opened or parsed, or a JSON
    document that is not an object, is a usage error naming the file."""
    from .errors import ConfigError

    def strict(obj: dict) -> _ReportDoc:
        return _ReportDoc(obj, path)

    try:
        with open(path) as fh:
            if jsonl:
                return [json.loads(line, object_hook=strict)
                        for line in fh if line.strip()]
            doc = json.load(fh, object_hook=strict)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"report: cannot read {path}: {exc}") from None
    if not isinstance(doc, _ReportDoc):
        raise ConfigError(f"report: {path} is not a JSON object")
    return doc


def _read_bench(paths: list[str]) -> dict[str, Any]:
    """Map BENCH_<name>.json stem -> parsed document; directories scan."""
    import glob as globmod

    from .errors import ConfigError

    files: list[str] = []
    for p in (paths or ["results"]):
        if os.path.isdir(p):
            found = sorted(globmod.glob(os.path.join(p, "BENCH_*.json")))
            if not found:
                raise ConfigError(f"report: {p} holds no BENCH_*.json")
            files.extend(found)
        else:
            files.append(p)
    return {os.path.splitext(os.path.basename(path))[0]:
            _read_report_input(path) for path in files}


def cmd_report(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard (inline SVG, no assets)
    from files other commands wrote; it runs nothing."""
    from .errors import ConfigError
    from .obs import render_report

    if (args.timeseries is None and args.sweep is None and args.chaos is None
            and args.bench is None):
        raise ConfigError("report: nothing to render: pass --timeseries, "
                          "--sweep, --chaos or --bench")
    bench = None if args.bench is None else _read_bench(args.bench)
    html, n_charts = render_report(
        timeseries=(None if args.timeseries is None
                    else _read_report_input(args.timeseries, jsonl=True)),
        sweep=None if args.sweep is None else _read_report_input(args.sweep),
        chaos=None if args.chaos is None else _read_report_input(args.chaos),
        bench=bench,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"report -> {args.out} ({n_charts} time-series charts, "
          f"{len(bench or ())} benchmark artefact(s))")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism pass; exit 0 clean, 1 findings, 2 usage error."""
    from .lint import lint_paths, list_rules_text, render_json, render_text

    if args.list_rules:
        print(list_rules_text())
        return 0
    def split_codes(groups):
        if not groups:
            return None
        return [c for group in groups for c in group.split(",") if c.strip()]

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    report = lint_paths(paths, select=split_codes(args.select),
                        ignore=split_codes(args.ignore))
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


def cmd_certify(args: argparse.Namespace) -> int:
    """Send-determinism certification; exit 0 when every analyzed kernel
    is PROVEN_SD or CONDITIONAL (and no bare-SD-noqa/parse errors), 1 on
    violations, 2 on usage errors."""
    from .lint.certify import (
        OK_VERDICTS,
        build_registry,
        render_registry_text,
        save_registry,
    )

    paths = args.paths or [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "apps")
    ]
    for path in paths:
        if not os.path.exists(path):
            print(f"path does not exist: {path}", file=sys.stderr)
            return 2
    registry = build_registry(
        paths, kernels=args.kernels, dynamic=args.dynamic,
        schedules=args.schedules, jitter=args.jitter,
        base_seed=args.base_seed,
    )
    if args.kernels:
        missing = sorted(set(args.kernels) - set(registry["kernels"]))
        if missing:
            print(f"kernel(s) not found under {paths}: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 2
    if not registry["kernels"] and not registry["errors"]:
        print(f"no RankProgram kernels found under {paths}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(registry, indent=1, sort_keys=True))
    else:
        print(render_registry_text(registry))
    if args.out and args.out != "-":
        save_registry(registry, args.out)
        print(f"registry -> {args.out}", file=sys.stderr)
    clean = (
        all(e.get("verdict") in OK_VERDICTS
            for e in registry["kernels"].values())
        and not registry["errors"]
        and not registry["noqa_findings"]
    )
    return 0 if clean else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident campaign service until a `shutdown` op arrives."""
    from .service import serve

    if not args.socket and args.port is None:
        print("serve: need --socket PATH or --port N", file=sys.stderr)
        return 2
    return serve(socket_path=args.socket, host=args.host, port=args.port,
                 workers=args.workers, cache_dir=args.cache_dir,
                 no_cache=args.no_cache)


def _write_json(path: str, doc, what: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{what} -> {path}", file=sys.stderr)


def cmd_submit(args: argparse.Namespace) -> int:
    """Talk to a running service: submit a campaign or query/stop it."""
    from .errors import ConfigError
    from .service import ServiceClient

    if args.op == "submit":
        if args.kind is None:
            raise ConfigError("submit: name the campaign KIND to submit "
                              f"({', '.join(CAMPAIGN_FLAGS)})")
        spec = _campaign_spec(args.kind, args)
        campaigns.validate_spec(spec)
    try:
        client = ServiceClient(args.connect)
    except (OSError, ConfigError) as exc:
        print(f"cannot reach service at {args.connect!r}: {exc}",
              file=sys.stderr)
        return 2
    with client:
        if args.op == "stats":
            reply = client.stats()
            stats = reply.get("stats", {})
            print(json.dumps(stats, indent=2, sort_keys=True))
            if args.stats_out:
                _write_json(args.stats_out, stats, "stats")
            return 0 if reply.get("ok") else 1
        if args.op == "status":
            reply = client.status(args.job)
            print(json.dumps({k: v for k, v in reply.items()
                              if k not in ("done",)},
                             indent=2, sort_keys=True))
            return 0 if reply.get("ok") else 1
        if args.op == "shutdown":
            reply = client.shutdown()
            print("service stopping" if reply.get("ok") else
                  f"shutdown failed: {reply.get('error')}")
            return 0 if reply.get("ok") else 1

        def on_event(event: dict) -> None:
            if event["kind"] != "task_done":
                return
            status = "cached" if event.get("cached") else event["status"]
            print(f"  [{event['done']:3d}] {event['name']}: {status}",
                  file=sys.stderr)

        reply = client.submit(
            spec, wait=not args.no_wait,
            include_results=bool(args.out),
            on_event=None if args.no_wait else on_event,
        )
        if args.no_wait:
            print(reply.get("job", ""))
            return 0 if reply.get("ok") else 1
        if not reply.get("ok"):
            print(f"job failed: {reply.get('error', 'unknown error')}",
                  file=sys.stderr)
            return 1
        summary = reply.get("summary", {})
        print(json.dumps(summary, indent=2, sort_keys=True))
        if args.out:
            _write_json(args.out,
                        {"job": reply.get("job"), "summary": summary,
                         "results": reply.get("results"),
                         "obs": reply.get("obs")}, "results")
        if args.stats_out:
            _write_json(args.stats_out, client.stats().get("stats", {}),
                        "stats")
        return 0 if not summary.get("errors") else 1


_COMMANDS = {
    "demo": cmd_demo,
    "table1": cmd_table1,
    "sweep": cmd_sweep,
    "fig6": cmd_fig6,
    "pattern": cmd_pattern,
    "domino": cmd_domino,
    "explain": cmd_explain,
    "obs": cmd_obs,
    "chaos": cmd_chaos,
    "report": cmd_report,
    "lint": cmd_lint,
    "certify": cmd_certify,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; a :class:`~repro.errors.ConfigError` anywhere in it
    is a usage error: its message on stderr, exit 2."""
    from .errors import ConfigError

    args = build_parser().parse_args(argv)
    if getattr(args, "timeseries_out", None) and args.timeseries is None:
        print("--timeseries-out needs --timeseries", file=sys.stderr)
        return 2
    if args.sanitize:
        # must land in the environment before any world is built: every
        # component snapshots sanitizer state at construction time
        os.environ[SANITIZE_ENV_VAR] = "1"
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The four workloads, each built from public ``repro`` entry points.

A workload object is created from one generated input and offers:

* ``prepare(index, rec)`` — input construction for timed unit ``index``
  (part of ``setup_s``);
* ``unit(ctx, rec)`` — the region ``wall_s`` times;
* ``after_unit(ctx, out, rec)`` — untimed: output checks (failed ops),
  secondary timed passes (warm resubmissions), clean-up;
* ``layer_metrics(...)`` / ``probes()`` — traced pass only: numbers read
  off the spans and the public counters, and direct timings of single
  layers made from outside.

``rec`` is a :class:`perfbench.tracing.SpanRecorder` in the traced pass and
the no-op recorder everywhere else; spans sit around calls *into* ``repro``
and never inside it.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any, Callable

from .inputs import unit_float
from .stats import percentile, summarize, summarize_p95
from .tracing import NULL_RECORDER

__all__ = ["CampaignWorkload", "CellWorkload", "ChaosWorkload",
           "make_workload"]

#: (snapshot, failed rank) pairs re-solved with the public one-shot solver
CROSS_CHECK_PAIRS = 32


def _median_call_s(fn: Callable[[Any], Any], items: list) -> float:
    """Median wall of ``fn(item)`` over ``items``."""
    walls = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _interleaved_factor(numerator: Callable[[], Any],
                        denominator: Callable[[], Any], pairs: int) -> float:
    """Median wall of ``numerator`` over median wall of ``denominator``,
    the two measured alternately so drift hits both alike."""
    num, den = [], []
    for _ in range(pairs):
        for fn, sink in ((denominator, den), (numerator, num)):
            gc.collect()
            t0 = time.perf_counter()
            fn()
            sink.append(time.perf_counter() - t0)
    return statistics.median(num) / statistics.median(den)


def _counter_totals(jsonl: str) -> dict[str, float]:
    """Metric name -> value summed over label sets, from a
    ``dump_metrics(..., "jsonl")`` export (counters only)."""
    totals: dict[str, float] = {}
    for line in jsonl.splitlines():
        row = json.loads(line)
        if row.get("type") == "counter":
            totals[row["metric"]] = totals.get(row["metric"], 0) + row["value"]
    return totals


def _sim_counts(totals: dict[str, float]) -> dict[str, float]:
    """The substrate's exact counts as the merged obs registry saw them."""
    return {
        "simmpi.engine.events": totals.get("engine.events_dispatched", 0),
        "simmpi.network.messages": totals.get("network.channel.messages", 0),
        "simmpi.network.bytes": totals.get("network.channel.bytes", 0),
        "core.protocol.messages_logged": totals.get("protocol.messages_logged", 0),
        "core.protocol.bytes_logged": totals.get("protocol.log_bytes", 0),
    }


class _Workload:
    """Shared tallies: attempted/failed ops and secondary samples."""

    def __init__(self, inp: dict[str, Any], work_dir: str, smoke: bool):
        self.inp = inp
        self.work_dir = work_dir
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        #: why ops failed, for the report (first few only)
        self.failures: list[str] = []

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(why)

    def extra_end_to_end(self, slowdowns: list[float]) -> dict[str, dict[str, Any]]:
        """Workload-specific end-to-end metrics (untraced samples), in
        reference-host seconds: ``slowdowns[i]`` is the host's during
        timed unit ``i``."""
        return {}

    def probes(self, ctx) -> dict[str, float]:
        """Direct single-layer timings; traced pass only."""
        return {}

    def profile_variant(self) -> "_Workload":
        """The workload as the cProfile pass runs it (default: as is)."""
        return self

    def unprofiled_wall(self, out, unit_wall: float) -> float:
        """Wall of the profile variant's unit without the profiler, from
        the span pass (default: the unit as it ran)."""
        return unit_wall


# ----------------------------------------------------------------------
# Table-I cells
# ----------------------------------------------------------------------
class CellWorkload(_Workload):
    """One Table-I cell: ``repro.campaigns.table1_cell`` split into the
    calls it is made of, so the world build lands in set-up and the phases
    can carry spans."""

    def __init__(self, inp, work_dir, smoke):
        super().__init__(inp, work_dir, smoke)
        self._first_fingerprint: tuple | None = None

    def _config(self):
        from repro.core import ProtocolConfig
        from repro.core.clustering import block_clusters

        inp = self.inp
        return ProtocolConfig(
            checkpoint_interval=inp["checkpoint_interval"],
            cluster_of=block_clusters(inp["ranks"], inp["clusters"]),
            cluster_stagger=inp["cluster_stagger"],
            rank_stagger=inp["rank_stagger"],
            lightweight=True, retain_payloads=False,
        )

    def _factory(self, niters: int):
        from repro.apps import TABLE1_KERNELS

        cls = TABLE1_KERNELS[self.inp["kernel"]]
        compute_time = self.inp["compute_time"]
        return lambda r, s: cls(r, s, niters=niters, compute_time=compute_time)

    def prepare(self, index=0, rec=NULL_RECORDER):
        from repro.analysis import SpeSampler
        from repro.core import build_ft_world

        inp = self.inp
        with rec.span("core.controller.build"):
            world, controller = build_ft_world(
                inp["ranks"], self._factory(inp["niters"]), self._config(),
                copy_payloads=False)
            sampler = SpeSampler(controller, interval=inp["sample_interval"])
            sampler.arm()
        return {"world": world, "controller": controller, "sampler": sampler}

    def unit(self, ctx, rec=NULL_RECORDER):
        from repro.analysis import rollback_analysis

        world, controller, sampler = ctx["world"], ctx["controller"], ctx["sampler"]
        inp = self.inp
        if rec.enabled:
            take = sampler.take

            def traced_take():
                with rec.span("analysis.rollback.sample"):
                    return take()

            sampler.take = traced_take  # instance wrap; _tick calls self.take()
        with rec.span("simmpi.runtime.run"):
            world.launch()
            world.run()
            if not sampler.snapshots:
                sampler.take()
        with rec.span("core.controller.logging_stats"):
            log = controller.logging_stats()
        with rec.span("analysis.rollback.solve"):
            rb = rollback_analysis(sampler.snapshots, inp["ranks"])
        return {
            "result": {
                "kernel": inp["kernel"], "ranks": inp["ranks"],
                "clusters": inp["clusters"],
                "pct_log": 100 * log["log_fraction"],
                "pct_rollback": rb.percent,
            },
            "log": log, "rollback": rb,
        }

    def after_unit(self, ctx, out, rec=NULL_RECORDER):
        world = ctx["world"]
        fingerprint = (world.engine.events_dispatched,
                       world.network.messages_sent,
                       out["result"]["pct_log"], out["result"]["pct_rollback"])
        self.attempted += 1
        if self._first_fingerprint is None:
            self._first_fingerprint = fingerprint
            bad = self._cross_check(ctx["sampler"].snapshots, out["rollback"])
            if bad:
                self._fail(1, f"cross-check: {bad} of {CROSS_CHECK_PAIRS} "
                              f"sampled recovery lines disagree")
        elif fingerprint != self._first_fingerprint:
            self._fail(1, f"repeat fingerprint {fingerprint} != first "
                          f"{self._first_fingerprint}")

    def _cross_check(self, snapshots, rb) -> int:
        """Re-solve sampled (snapshot, failed rank) pairs with the public
        one-shot solver; returns how many disagree with the aggregated
        counts (``rollback_analysis`` stores them snapshot-major)."""
        from repro.core.recovery import compute_recovery_line

        inp, ranks = self.inp, self.inp["ranks"]

        def pick(axis: str, i: int, size: int) -> int:
            return int(size * unit_float(inp["seed"], inp["workload"],
                                         f"xcheck/{axis}/{i}"))

        bad = 0
        for i in range(CROSS_CHECK_PAIRS):
            s, f = pick("snapshot", i, len(snapshots)), pick("rank", i, ranks)
            snap = snapshots[s]
            line = compute_recovery_line(snap.spe_tables, {f: snap.epochs[f]})
            if len(line) != rb.counts[s * ranks + f]:
                bad += 1
        return bad

    def layer_metrics(self, ctx, out, rec, unit_wall):
        world, rb, log = ctx["world"], out["rollback"], out["log"]
        run_s = rec.total("simmpi.runtime.run")
        solve_s = rec.total("analysis.rollback.solve")
        events = world.engine.events_dispatched
        return {
            "core.controller.build_s": rec.total("core.controller.build"),
            "simmpi.runtime.run_s": run_s,
            "simmpi.runtime.events_per_s": events / run_s,
            "simmpi.engine.events": events,
            "simmpi.network.messages": world.network.messages_sent,
            "simmpi.network.bytes": world.network.bytes_sent,
            "core.protocol.messages_logged": log["messages_logged"],
            "core.protocol.bytes_logged": log["bytes_logged"],
            "analysis.rollback.sample_s": rec.total("analysis.rollback.sample"),
            "analysis.rollback.snapshots": len(ctx["sampler"].snapshots),
            "analysis.rollback.solve_s": solve_s,
            "analysis.rollback.trials": rb.trials,
            "analysis.rollback.us_per_trial": 1e6 * solve_s / rb.trials,
            "analysis.rollback.share": solve_s / unit_wall,
        }

    def probes(self, ctx):
        """``core.protocol.overhead_factor``: this cell's kernel under
        ``build_ft_world`` (no sampler) over the bare ``World``, at a third
        of the iterations, interleaved."""
        from repro.core import build_ft_world
        from repro.simmpi import World

        ranks = self.inp["ranks"]
        factory = self._factory(max(2, self.inp["niters"] // 3))

        def with_protocol():
            world, _ = build_ft_world(ranks, factory, self._config(),
                                      copy_payloads=False)
            world.launch()
            world.run()

        def bare():
            world = World(ranks, factory, copy_payloads=False)
            world.launch()
            world.run()

        return {"core.protocol.overhead_factor": _interleaved_factor(
            with_protocol, bare, pairs=1 if self.smoke else 3)}


# ----------------------------------------------------------------------
# Cached campaign
# ----------------------------------------------------------------------
class CampaignWorkload(_Workload):
    """A ``table1`` campaign through ``run_campaign_job``: one cold pass on
    an empty on-disk cache (the unit), then two 100 %-hit resubmissions, one
    through the same ``ResultCache`` (memory-warm) and one through a new
    one on the same directory (disk-warm)."""

    def __init__(self, inp, work_dir, smoke, workers: int | None = None):
        super().__init__(inp, work_dir, smoke)
        self.workers = workers or min(2, os.cpu_count() or 1)
        self.warm_walls: list[float] = []
        self.spec = {
            "kind": "table1", "kernels": inp["kernels"], "ranks": inp["ranks"],
            "clusters": inp["clusters"], "niters": inp["niters"],
            "base_seed": inp["base_seed"],
        }

    def profile_variant(self):
        # inline, so that worker-side time is visible to cProfile
        return CampaignWorkload(self.inp, self.work_dir, self.smoke, workers=1)

    def unprofiled_wall(self, out, unit_wall):
        # what the tasks took in the workers is what an inline pass takes,
        # short of the parent's key/put/serialise (about 1 % of it)
        return sum(r["duration_s"] for r in out["results"]["results"])

    def prepare(self, index=0, rec=NULL_RECORDER):
        from repro.obs import MetricsRegistry
        from repro.service import ResultCache

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        ctx = {"dir": cache_dir, "cache": ResultCache(cache_dir),
               "service_obs": None}
        if rec.enabled:  # lease/steal accounting is opt-in
            ctx["service_obs"] = MetricsRegistry()
        return ctx

    def _job(self, cache, service_obs=None):
        from repro.service import run_campaign_job

        return run_campaign_job(self.spec, workers=self.workers, cache=cache,
                                service_obs=service_obs)

    def unit(self, ctx, rec=NULL_RECORDER):
        with rec.span("service.jobs.cold_pass"):
            return self._job(ctx["cache"], ctx["service_obs"])

    def check_pass(self, cold: dict[str, Any], summary: dict[str, Any],
                   warm: bool) -> int:
        """Failed ops of one pass: every task when a warm digest differs
        from the cold one, else errors plus (warm) tasks that missed."""
        tasks = summary["tasks"]
        if warm and (summary["results_digest"] != cold["results_digest"]
                     or summary["obs_digest"] != cold["obs_digest"]):
            return tasks
        wanted = "hits" if warm else "stores"
        return min(tasks, summary["errors"]
                   + tasks - summary["cache"][wanted])

    def after_unit(self, ctx, out, rec=NULL_RECORDER):
        from repro.service import ResultCache

        try:
            cold = out["summary"]
            passes = [("cold", cold, False)]
            with rec.span("service.jobs.warm_pass"):
                t0 = time.perf_counter()
                doc = self._job(ctx["cache"])
                self.warm_walls.append(time.perf_counter() - t0)
            passes.append(("memory-warm", doc["summary"], True))
            with rec.span("service.jobs.disk_warm_pass"):
                t0 = time.perf_counter()
                doc = self._job(ResultCache(ctx["dir"]))
                ctx["disk_warm_wall_s"] = time.perf_counter() - t0
            passes.append(("disk-warm", doc["summary"], True))
            for label, summary, warm in passes:
                self.attempted += summary["tasks"]
                bad = self.check_pass(cold, summary, warm)
                if bad:
                    self._fail(bad, f"{label} pass: {bad} of "
                                    f"{summary['tasks']} tasks failed")
            ctx["warm_hits"] = sum(s["cache"]["hits"] for _, s, warm in passes
                                   if warm)
            if rec.enabled:  # the probes time layers on these very results
                ctx["results"] = self._sweep(ResultCache(ctx["dir"]))
            ctx["entry_bytes"] = self._entry_bytes(ctx["dir"])
        finally:
            shutil.rmtree(ctx["dir"], ignore_errors=True)

    @staticmethod
    def _entry_bytes(cache_dir: str) -> float:
        sizes = [os.path.getsize(os.path.join(root, name))
                 for root, _dirs, names in os.walk(cache_dir)
                 for name in names if name.endswith(".pkl")]
        return statistics.mean(sizes) if sizes else 0.0

    def extra_end_to_end(self, slowdowns):
        walls = [w / slow for w, slow in zip(self.warm_walls, slowdowns)]
        return {"warm_wall_s": {"unit": "s", **summarize(walls),
                                "samples": walls}}

    def layer_metrics(self, ctx, out, rec, unit_wall):
        summary = out["summary"]
        durations = [r["duration_s"] for r in out["results"]["results"]]
        metrics = _sim_counts(_counter_totals(out["obs"]))
        metrics.update({
            # misses/stores of the cold pass, hits of the two warm passes
            "service.cache.hits": ctx["warm_hits"],
            "service.cache.misses": summary["cache"]["misses"],
            "service.cache.stores": summary["cache"]["stores"],
            "service.cache.entry_bytes": ctx["entry_bytes"],
            "service.cache.disk_warm_wall_s": ctx["disk_warm_wall_s"],
            "warm_wall_s": self.warm_walls[-1],
            "service.scheduler.leases": summary["leases_total"],
            "service.scheduler.steals": summary["steals_total"],
            "service.scheduler.makespan_efficiency":
                sum(durations) / (self.workers * unit_wall),
        })
        return metrics

    def _tasks(self):
        from repro import campaigns

        inp = self.inp
        return campaigns.table1_tasks(inp["kernels"], inp["ranks"],
                                      inp["clusters"], inp["niters"])

    def _sweep(self, cache):
        """The grid's ``SweepResult`` objects (``run_campaign_job`` returns
        documents only); keyed as the job keys them, so a warm cache hits."""
        from repro.campaigns import table1_cell
        from repro.sweep import run_sweep

        return run_sweep(table1_cell, self._tasks(), workers=self.workers,
                         base_seed=self.inp["base_seed"], collect_obs=True,
                         cache=cache)

    # -- direct single-layer timings -----------------------------------
    def probes(self, ctx):
        metrics = self._probe_cache_and_merge(ctx["results"])
        metrics.update(self._probe_scheduler())
        metrics.update(self._probe_server())
        metrics.update(self._probe_obs_overhead())
        return metrics

    def _probe_cache_and_merge(self, results) -> dict[str, float]:
        """key/get/put per call, serialisation and obs merge, on the
        grid's own tasks and results."""
        from repro.campaigns import table1_cell
        from repro.obs import MetricsRegistry, dump_metrics
        from repro.service import ResultCache
        from repro.sweep import results_document, task_seed

        tasks = self._tasks()
        seeds = [task_seed(self.inp["base_seed"], i, t.name)
                 for i, t in enumerate(tasks)]
        cache_dir = tempfile.mkdtemp(prefix="probe-", dir=self.work_dir)
        try:
            cache = ResultCache(cache_dir)
            key_s = _median_call_s(
                lambda i: cache.key_for(table1_cell, tasks[i].params, seeds[i],
                                        collect_obs=True),
                list(range(len(tasks))))
            keys = [f"{i:032x}" for i in range(len(results))]
            put_s = _median_call_s(
                lambda i: cache.put(keys[i], results[i]),
                list(range(len(results))))
            get_s = _median_call_s(cache.get, keys)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        registry = MetricsRegistry()
        t0 = time.perf_counter()
        for result in results:
            registry.merge(result.obs)
        merge_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        json.dumps(results_document(results, sweep_name="table1"),
                   sort_keys=True, separators=(",", ":"))
        dump_metrics(registry, "jsonl")
        serialise_s = time.perf_counter() - t0
        return {"service.cache.key_s": key_s, "service.cache.get_s": get_s,
                "service.cache.put_s": put_s, "obs.registry.merge_s": merge_s,
                "sweep.executor.serialise_s": serialise_s}

    def _probe_scheduler(self) -> dict[str, float]:
        from repro.service import run_campaign_job

        count = 20 if self.smoke else 200
        t0 = time.perf_counter()
        doc = run_campaign_job({"kind": "selftest", "tasks": count},
                               workers=self.workers, collect_obs=False)
        wall = time.perf_counter() - t0
        if doc["summary"]["ok"] != count:
            raise RuntimeError("selftest campaign did not complete")
        return {"service.scheduler.noop_task_s": wall / count}

    def _probe_server(self) -> dict[str, float]:
        """Median submit round trip of an 8-task selftest through an
        in-thread service over a unix socket."""
        import asyncio

        from repro.service import CampaignService, ServiceClient

        sock_dir = tempfile.mkdtemp(prefix="sock-", dir=self.work_dir)
        # relative to the cwd: AF_UNIX paths are capped near 100 bytes
        sock = os.path.relpath(os.path.join(sock_dir, "s"))
        ready = threading.Event()

        def serve():
            # the service owns asyncio primitives: create it on its loop
            service = CampaignService(workers=1, cache=None)
            asyncio.run(service.serve(socket_path=sock, ready=ready))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            if not ready.wait(30):
                raise RuntimeError("campaign service did not come up")
            with ServiceClient(sock, timeout=60) as client:
                def submit(_):
                    reply = client.submit({"kind": "selftest", "tasks": 8})
                    if not reply["ok"]:
                        raise RuntimeError(f"submit failed: {reply}")

                roundtrip = _median_call_s(
                    submit, list(range(3 if self.smoke else 20)))
                client.shutdown()
        finally:
            thread.join(timeout=30)
            shutil.rmtree(sock_dir, ignore_errors=True)
        if thread.is_alive():
            raise RuntimeError("campaign service did not stop")
        return {"service.server.submit_roundtrip_s": roundtrip}

    def _probe_obs_overhead(self) -> dict[str, float]:
        """A 64-rank cell with over without a metrics registry."""
        from repro.campaigns import table1_cell
        from repro.obs import MetricsRegistry

        params = {"kernel": "CG", "ranks": 64, "clusters": 4, "niters": 8}
        return {"obs.registry.overhead_factor": _interleaved_factor(
            lambda: table1_cell(dict(params, obs=MetricsRegistry())),
            lambda: table1_cell(dict(params)),
            pairs=1 if self.smoke else 5)}


# ----------------------------------------------------------------------
# Chaos campaign
# ----------------------------------------------------------------------
class ChaosWorkload(_Workload):
    """``repro.chaos.run_campaign`` inline, one campaign per kernel so that
    every unit runs the same number of trials of each (the kernels differ
    sixfold in cost per trial, and a free draw of the mix is most of what
    makes one campaign seed dearer than another).  Every trial is a
    reference run, a run with injected failures and live recovery, and a
    re-run, scored by the oracles.  Timed unit ``i`` takes campaign seed
    ``campaign_seeds[i]``: a run pools several campaigns."""

    def __init__(self, inp, work_dir, smoke):
        super().__init__(inp, work_dir, smoke)
        #: per timed unit, the duration of each of its trials
        self.trial_walls: list[list[float]] = []

    def prepare(self, index=0, rec=NULL_RECORDER):
        from repro.chaos import schedule_for_trial
        from repro.obs import MetricsRegistry

        seeds = self.inp["campaign_seeds"]
        seed = seeds[index % len(seeds)]
        schedules = [schedule_for_trial(seed, i, kernels=(kernel,))
                     for kernel in self.inp["kernels"]
                     for i in range(self.inp["trials_per_kernel"])]
        return {"campaign_seed": seed,
                "failures_planned": sum(len(s.failures) for s in schedules),
                "registry": MetricsRegistry() if rec.enabled else None}

    def unit(self, ctx, rec=NULL_RECORDER):
        from repro.chaos import run_campaign

        walls: list[float] = []
        with rec.span("chaos.campaign.run"):
            reports = [
                run_campaign(
                    self.inp["trials_per_kernel"], seed=ctx["campaign_seed"],
                    workers=1, kernels=(kernel,), shrink=0,
                    bug=self.inp["bug"], obs=ctx["registry"],
                    on_progress=lambda result: walls.append(result.duration))
                for kernel in self.inp["kernels"]]
        return {"reports": reports, "trial_walls": walls}

    def after_unit(self, ctx, out, rec=NULL_RECORDER):
        for report in out["reports"]:
            self.attempted += report.trials
            bad = report.failed + report.errors
            if bad:
                self._fail(bad, f"chaos: {report.summary()}")
        self.trial_walls.append(out["trial_walls"])

    def extra_end_to_end(self, slowdowns):
        walls = [[w / slow for w in unit]
                 for unit, slow in zip(self.trial_walls, slowdowns)]
        return {"trial_p95_s": {"unit": "s", **summarize_p95(walls),
                                "samples": walls}}

    def layer_metrics(self, ctx, out, rec, unit_wall):
        from repro.obs import dump_metrics

        totals = _counter_totals(dump_metrics(ctx["registry"], "jsonl"))
        metrics = _sim_counts(totals)
        metrics.update({
            "chaos.trial.median_s": statistics.median(out["trial_walls"]),
            "trial_p95_s": percentile(out["trial_walls"], 95),
            "chaos.campaign.failures_planned": ctx["failures_planned"],
            "chaos.campaign.failures_injected": totals.get("recovery.failures", 0),
        })
        return metrics


def make_workload(inp: dict[str, Any], work_dir: str, smoke: bool) -> _Workload:
    cls = {"cell": CellWorkload, "campaign": CampaignWorkload,
           "chaos": ChaosWorkload}[inp["kind"]]
    return cls(inp, work_dir, smoke)

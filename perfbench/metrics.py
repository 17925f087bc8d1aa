"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` is the contract the driver reads; this table is what the
code emits.  ``perfbench/tests`` holds the two equal, so a metric cannot be
added to one and forgotten in the other.
"""

from __future__ import annotations

from .tracing import LAYERS

__all__ = ["END_TO_END", "PER_LAYER"]

#: (name, unit, better) — emitted by every workload, tracing off
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) — traced pass; 0 where a workload bypasses the layer
_SPAN_AND_COUNT = (
    # the two workload-specific end-to-end metrics, see README "Demoted"
    ("warm_wall_s", "s", "lower"),
    ("trial_p95_s", "s", "lower"),
    ("core.controller.build_s", "s", "lower"),
    ("simmpi.runtime.run_s", "s", "lower"),
    ("simmpi.runtime.events_per_s", "1/s", "higher"),
    ("simmpi.engine.events", "count", "lower"),
    ("simmpi.network.messages", "count", "lower"),
    ("simmpi.network.bytes", "count", "lower"),
    ("core.protocol.messages_logged", "count", "lower"),
    ("core.protocol.bytes_logged", "count", "lower"),
    ("core.protocol.overhead_factor", "ratio", "lower"),
    ("analysis.rollback.sample_s", "s", "lower"),
    ("analysis.rollback.snapshots", "count", "lower"),
    ("analysis.rollback.solve_s", "s", "lower"),
    ("analysis.rollback.trials", "count", "lower"),
    ("analysis.rollback.us_per_trial", "us", "lower"),
    ("analysis.rollback.share", "ratio", "lower"),
    ("sweep.executor.serialise_s", "s", "lower"),
    ("obs.registry.merge_s", "s", "lower"),
    ("obs.registry.overhead_factor", "ratio", "lower"),
    ("service.cache.key_s", "s", "lower"),
    ("service.cache.get_s", "s", "lower"),
    ("service.cache.put_s", "s", "lower"),
    ("service.cache.hits", "count", "higher"),
    ("service.cache.misses", "count", "lower"),
    ("service.cache.stores", "count", "lower"),
    ("service.cache.entry_bytes", "bytes", "lower"),
    ("service.cache.disk_warm_wall_s", "s", "lower"),
    ("service.scheduler.leases", "count", "lower"),
    ("service.scheduler.steals", "count", "lower"),
    ("service.scheduler.makespan_efficiency", "ratio", "higher"),
    ("service.scheduler.noop_task_s", "s", "lower"),
    ("service.server.submit_roundtrip_s", "s", "lower"),
    ("chaos.trial.median_s", "s", "lower"),
    ("chaos.campaign.failures_planned", "count", "lower"),
    ("chaos.campaign.failures_injected", "count", "lower"),
    ("trace.span_wall_s", "s", "lower"),
    ("trace.profiled_wall_s", "s", "lower"),
    ("trace.overhead_factor", "ratio", "lower"),
)

PER_LAYER = _SPAN_AND_COUNT + tuple(
    entry
    for layer in LAYERS
    for entry in ((f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.calls", "count", "lower"))
)


"""repro.obs — opt-in observability for the simulator and protocol stack.

A :class:`MetricsRegistry` threads through every layer (engine, network,
protocol, log store, controller, recovery) and collects counters, gauges,
histograms and the per-rank flight-record stream.  The default is
``obs=None``, so uninstrumented runs pay (at most) one pointer comparison
per event and the simulator's bit-reproducibility guarantee is untouched.

Quick start::

    from repro.obs import MetricsRegistry, dump_metrics
    obs = MetricsRegistry()
    world, controller = build_ft_world(8, factory, config, obs=obs)
    world.launch(); world.run()
    print(dump_metrics(obs, "jsonl"))

or from the command line: ``python -m repro obs --format csv``.
"""

from .registry import (
    Counter,
    CounterCell,
    Gauge,
    Histogram,
    MetricsRegistry,
    DURATION_BUCKETS,
    DEPTH_BUCKETS,
    SIZE_BUCKETS,
)
from .export import (
    dump_flight,
    dump_metrics,
    dump_text,
    dump_timeseries,
    flight_rows,
    histogram_quantile,
    metric_rows,
    timeseries_rows,
    to_csv,
    to_jsonl,
)
from .timeseries import (
    DEFAULT_TIMESERIES_CAPACITY,
    DEFAULT_TIMESERIES_INTERVAL,
    TimeSeriesRecorder,
)
from .stream import ProgressStream, stream_progress
from .report import render_report, write_report
from .flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightKind,
    FlightRecorder,
    RECORD_FIELDS,
    record_to_dict,
)
from .explain import (
    ForcingEdge,
    RankExplanation,
    RecoveryExplanation,
    explain_recovery_line,
    explain_report,
)
from .perfetto import dump_perfetto, perfetto_trace

__all__ = [
    "Counter",
    "CounterCell",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BUCKETS",
    "DEPTH_BUCKETS",
    "SIZE_BUCKETS",
    "dump_flight",
    "dump_metrics",
    "dump_text",
    "dump_timeseries",
    "flight_rows",
    "histogram_quantile",
    "metric_rows",
    "timeseries_rows",
    "to_csv",
    "to_jsonl",
    "DEFAULT_TIMESERIES_CAPACITY",
    "DEFAULT_TIMESERIES_INTERVAL",
    "TimeSeriesRecorder",
    "ProgressStream",
    "stream_progress",
    "render_report",
    "write_report",
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightKind",
    "FlightRecorder",
    "RECORD_FIELDS",
    "record_to_dict",
    "ForcingEdge",
    "RankExplanation",
    "RecoveryExplanation",
    "explain_recovery_line",
    "explain_report",
    "dump_perfetto",
    "perfetto_trace",
]

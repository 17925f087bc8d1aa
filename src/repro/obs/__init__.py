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

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .explain import (
        ForcingEdge,
        RankExplanation,
        RecoveryExplanation,
        explain_recovery_line,
        explain_report,
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
    from .flight import (
        RECORD_FIELDS,
        FlightKind,
        FlightRecorder,
        record_to_dict,
    )
    from .perfetto import dump_perfetto, perfetto_trace
    from .registry import (
        DEPTH_BUCKETS,
        DURATION_BUCKETS,
        SIZE_BUCKETS,
        Counter,
        CounterCell,
        Gauge,
        Histogram,
        MetricsRegistry,
    )
    from .report import render_report
    from .stream import ProgressStream, stream_progress
    from .timeseries import (
        DEFAULT_TIMESERIES_INTERVAL,
        TimeSeriesRecorder,
    )
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "explain": "ForcingEdge RankExplanation RecoveryExplanation "
                   "explain_recovery_line explain_report",
        "export": "dump_flight dump_metrics dump_text dump_timeseries "
                  "flight_rows histogram_quantile metric_rows "
                  "timeseries_rows to_csv to_jsonl",
        "flight": "RECORD_FIELDS FlightKind FlightRecorder record_to_dict",
        "perfetto": "dump_perfetto perfetto_trace",
        "registry": "DEPTH_BUCKETS DURATION_BUCKETS SIZE_BUCKETS Counter "
                    "CounterCell Gauge Histogram MetricsRegistry",
        "report": "render_report",
        "stream": "ProgressStream stream_progress",
        "timeseries": "DEFAULT_TIMESERIES_INTERVAL TimeSeriesRecorder",
    })

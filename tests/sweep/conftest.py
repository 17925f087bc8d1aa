"""Shared helpers for the sweep tests."""

from types import SimpleNamespace


def sample_point(obs, value):
    """Record one time-series point carrying ``value`` in a task's registry
    (the sweep must pass ``timeseries=``): the probe merge-order tests
    follow across the process boundary, since series concatenate in task
    order.  The recorder runs on a stub clock at 0, so the point lands on
    the first grid boundary."""
    ts = obs.timeseries
    ts.bind_engine(SimpleNamespace(now=0.0))
    ts.probe("task.point", lambda: float(value))
    ts.sample_through(ts.next_time)


def sampled_points(registry):
    """The merged ``task.point`` values, in merge order."""
    return list(registry.timeseries.series["task.point"].v)

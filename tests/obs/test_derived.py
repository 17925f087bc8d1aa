"""Metrics read from the counts their owners keep.

Per-event series — channel traffic, deliveries, dispatches per callback,
acks, suppressions — are not counted a second time by the registry: they
are read from the counts the network, engine, processes and protocol keep
for themselves.  These tests hold those reads to the counts, mid-run (from
a timer event, and at every time-series grid point) as well as after the
run, in the worlds campaigns build; and they pin the exports of two such
worlds to the bytes a registry that counted every event itself produced.
"""

import ast
import hashlib
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import campaigns
from repro.chaos import schedule_for_trial
from repro.chaos import trial as chaos_trial
from repro.core import build_ft_world
from repro.lint.sanitize import ENV_VAR
from repro.obs import MetricsRegistry, dump_metrics, dump_timeseries
from repro.obs.flight import FlightKind
from repro.obs.timeseries import DEFAULT_TIMESERIES_INTERVAL

from ..analysis import live_cell


def check_counts(world, controller, obs):
    """The derived series against the counts they are read from, and
    against counts kept apart from them (a registry watching one world)."""
    network, engine = world.network, world.engine
    assert obs.counter("network.channel.messages", ("src", "dst")).total \
        == network.messages_sent
    assert obs.counter("network.channel.bytes", ("src", "dst")).total \
        == network.bytes_sent
    delivered = obs.get_counter_total("network.messages_delivered")
    assert delivered == network.messages_delivered
    in_flight = sum(network.in_flight_count(r) for r in range(world.nprocs + 1))
    assert delivered == (network.messages_sent - network.messages_dropped
                         - in_flight)
    assert obs.get_counter_total("engine.events_dispatched") \
        == engine.events_dispatched
    acks = obs.counter("protocol.acks_sent", ("dup",))
    protocols = controller.protocols
    assert acks.get((True,)) == sum(p.messages_suppressed for p in protocols)
    assert acks.total == sum(p.acks_sent for p in protocols)


def check_flight(obs):
    """The protocol series against the flight stream's records of the same
    transitions (one record per suppression, confirmation, replay, ack)."""
    flight = obs.flight
    kinds = Counter(record[1] for record in flight.records())
    acks = obs.counter("protocol.acks_sent", ("dup",))
    assert acks.get((True,)) == kinds[FlightKind.SUPPRESS]
    assert acks.total == kinds[FlightKind.ACK]
    assert obs.get_counter_total("protocol.messages_confirmed") \
        == kinds[FlightKind.CONFIRM]
    assert obs.get_counter_total("protocol.messages_replayed") \
        == kinds[FlightKind.REPLAY]


@pytest.fixture
def watch(monkeypatch):
    """``watch(module, every)``: every instrumented world ``module`` builds
    with ``build_ft_world`` checks its counts from a timer event each
    ``every`` virtual seconds, and records in a time series of its own the
    sum of the ``engine.events_dispatched`` labels at each grid point.
    Returns the list of ``(world, controller, obs, mid-run checks)``."""
    seen = []

    def install(module, every):
        def build(*args, **kwargs):
            world, controller = build_ft_world(*args, **kwargs)
            obs = kwargs.get("obs")
            if obs is None:
                return world, controller
            entry = [world, controller, obs, 0]

            def tick():
                check_counts(world, controller, obs)
                entry[3] += 1
                if not world.all_done:
                    world.engine.schedule(every, tick)

            world.engine.schedule(every, tick)
            dispatched = obs.counter("engine.events_dispatched", ("callback",))
            obs.timeseries.probe("test.dispatch_labels",
                                 lambda: dispatched.total, kind="counter")
            seen.append(entry)
            return world, controller

        monkeypatch.setattr(module, "build_ft_world", build)
        return seen

    return install


def check_after(seen):
    assert len(seen) == 1
    world, controller, obs, mid_run = seen[0]
    assert mid_run >= 3  # the timer read the counts mid-run
    check_counts(world, controller, obs)
    check_flight(obs)
    # every grid point of the dispatch series is the engine's count at
    # that instant — the sum of the labels read right then
    series = obs.timeseries.series
    points = list(series["engine.events_dispatched"].v)
    assert len(points) >= 3
    assert points == list(series["test.dispatch_labels"].v)
    return world, controller, obs


def test_table1_cell(watch):
    seen = watch(live_cell, every=4e-5)  # a Table I cell's live world
    obs = MetricsRegistry(timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)
    live_cell.live_table1_cell({"kernel": "MG", "ranks": 64, "clusters": 4,
                                "niters": 3, "obs": obs})
    world, _, _ = check_after(seen)
    assert world.nprocs == 64


def test_chaos_trial_with_purges_and_restores(watch):
    seen = watch(chaos_trial, every=2e-5)
    schedule = schedule_for_trial(0, 1)  # stencil, three failures
    obs = MetricsRegistry(timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)
    # the timer's events are not the re-run's: leave determinism out
    result = chaos_trial.run_trial_schedule(schedule, obs=obs,
                                            check_determinism=False)
    assert result.passed, result.to_json()
    _, controller, obs = check_after(seen)
    assert obs.get_counter_total("network.messages_dropped") > 0
    assert obs.get_counter_total("recovery.restores") > 0
    assert sum(p.messages_suppressed for p in controller.protocols) > 0
    assert sum(p.messages_replayed for p in controller.protocols) > 0


def test_obs_stencil_scenario_with_timeseries(watch):
    seen = watch(campaigns, every=2e-5)
    obs = MetricsRegistry(timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)
    campaigns.stencil_scenario(8, 2, obs=obs)
    check_after(seen)


def _raw_post_sites() -> set[str]:
    """``Class.method`` of every function in the package that touches
    ``.post`` / ``.post_at`` — a call or a bound-method alias alike."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) \
                    and child.attr in ("post", "post_at"):
                sites.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), ())
    return sites


def test_raw_posts_are_only_the_two_the_world_derives():
    # World files every dispatch the handle APIs did not count, minus the
    # deliveries, under Proc._resume_if_current: a raw post anywhere else
    # would land under that label unnoticed, so the set of raw posters is
    # pinned (the handle APIs count what they post themselves)
    assert _raw_post_sites() == {
        "Engine.post", "Engine.schedule", "Engine.schedule_at",
        "Network._transmit", "Proc._schedule_resume",
    }


# ----------------------------------------------------------------------
# Byte identity with the registry that counted every event
# ----------------------------------------------------------------------
#: sha256 of ``dump_metrics + dump_timeseries``, as produced when every
#: per-event series was a cell the hot paths bumped, minus the two
#: always-zero ack-coalescing rows (``protocol.ack_flushes`` and
#: ``protocol.acks_batched``) that left with ack batching, and minus each
#: series row's ``"dropped"`` key that left with the per-series rings
#: (re-inserting ``"dropped": 0`` after ``"interval"`` in every row gives
#: the previous pins, 5da56f89… and 76b1a687…, exactly).  The stencil run
#: recovers from a failure: its pin moved once more (from 16eb1fd2…) when
#: the drain and settle polls left, which only retimed that recovery
PINNED = {
    "stencil": "383945a171275c5e25b2c622040df9d36f5feae40ea3e3bebb3f889fe58eea83",
    "mg32": "14f2d1b11ffd81b214034cc1cc331cd54c4619fb597af59bac8c1526938e465c",
}


def _stencil():
    # what `repro obs --timeseries` runs
    obs = MetricsRegistry(timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)
    campaigns.stencil_scenario(8, 2, obs=obs)
    return obs


def _mg32():
    # a Table I cell's live protocol world, registry built the way the
    # sweep executor builds it
    obs = MetricsRegistry(flight=False,
                          timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)
    live_cell.live_table1_cell({"kernel": "MG", "ranks": 32, "clusters": 4,
                                "niters": 3, "obs": obs})
    return obs


@pytest.mark.parametrize("name, run", [("stencil", _stencil), ("mg32", _mg32)])
def test_exports_are_byte_identical(monkeypatch, name, run):
    monkeypatch.setenv(ENV_VAR, "0")  # a sanitizer adds its own counter
    obs = run()
    text = dump_metrics(obs) + dump_timeseries(obs)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]

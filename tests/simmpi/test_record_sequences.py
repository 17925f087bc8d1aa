"""The send / deliver sequence log is armed by whoever reads it.

``World(..., record_sequences=True)`` keeps the per-message log the
validity oracle, the chaos oracles and ``certify --dynamic`` read; the
default keeps only the pair matrix and the marks.  An unarmed read raises
(never an empty list an oracle would accept as "equal"), and arming does
not perturb the run.
"""

from contextlib import closing

import numpy as np
import pytest

from repro import campaigns
from repro.analysis import compare_executions
from repro.analysis import rollback as rollback_mod
from repro.apps import TABLE1_KERNELS
from repro.apps.stencil import Stencil1D
from repro.chaos.oracles import oracle_validity, oracle_witness, run_digest
from repro.core import build_ft_world, build_world
from repro.core.controller import FTController
from repro.errors import SimulationError
from repro.simmpi import World
from repro.simmpi.trace import Tracer, send_witness_chains

from ..analysis import live_cell


def _factory(rank, size):
    return Stencil1D(rank, size, niters=6, cells=4)


def _run(world):
    world.launch()
    world.run()
    return world


# ----------------------------------------------------------------------
# (a) an unarmed read raises, and says which flag
# ----------------------------------------------------------------------
def test_off_by_default_on_every_builder():
    assert Tracer(2).record_sequences is False
    assert World(2, _factory).tracer.record_sequences is False
    world, _ = build_ft_world(2, _factory)
    assert world.tracer.record_sequences is False
    world, _ = build_world(FTController(2), _factory)
    assert world.tracer.record_sequences is False
    for armed in (World(2, _factory, record_sequences=True),
                  build_ft_world(2, _factory, record_sequences=True)[0],
                  build_world(FTController(2), _factory,
                              record_sequences=True)[0]):
        assert armed.tracer.record_sequences is True


READERS = {
    "send_sequences": lambda ref, w: w.tracer.send_sequences(),
    "logical_send_sequences": lambda ref, w: w.tracer.logical_send_sequences(),
    "deliver_sequences": lambda ref, w: w.tracer.deliver_sequences(),
    "send_witness_chains": lambda ref, w: send_witness_chains(w.tracer),
    "compare_executions": lambda ref, w: compare_executions(ref, w),
    "compare_executions_unarmed_ref":
        lambda ref, w: compare_executions(w, ref),
    "oracle_validity": lambda ref, w: oracle_validity(ref, w),
    "oracle_witness": lambda ref, w: oracle_witness(ref, w),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_unarmed_read_raises_and_names_the_flag(reader):
    ref = _run(build_ft_world(4, _factory, record_sequences=True)[0])
    unarmed = _run(build_ft_world(4, _factory)[0])
    with pytest.raises(SimulationError, match="record_sequences"):
        READERS[reader](ref, unarmed)
    # the same read of the armed world answers
    assert READERS[reader](ref, ref) is not None


def test_determinism_digest_of_an_unarmed_world_raises():
    # two "<unavailable>" strings would compare equal: it must not get there
    world, controller = build_ft_world(4, _factory)
    controller.arm()
    _run(world)
    with pytest.raises(SimulationError, match="record_sequences"):
        run_digest(world, controller)


def test_every_reader_in_src_arms_its_worlds(monkeypatch):
    # chaos trial (reference + chaos run + determinism re-run), dynamic
    # certifier, failures scenario (reference + recovered), demo
    from repro import cli
    from repro.chaos import schedule_for_trial
    from repro.chaos import trial as chaos_trial
    from repro.lint import certify

    built = []
    real = build_ft_world

    def spy(*args, **kw):
        world, controller = real(*args, **kw)
        built.append(world.tracer.record_sequences)
        return world, controller

    monkeypatch.setattr(chaos_trial, "build_ft_world", spy)
    assert chaos_trial.run_trial_schedule(schedule_for_trial(0, 0)).passed
    assert built == [True, True, True]

    del built[:]
    monkeypatch.setattr("repro.core.controller.build_ft_world", spy)
    assert certify.dynamic_verify("Stencil1D", schedules=2).deterministic
    assert built == [True, True]

    # the Stencil2D scenario (a sweep task, demo) runs on the chaos harness
    del built[:]
    out = campaigns.failure_scenario(
        {"ranks": 6, "clusters": 2, "niters": 10, "seed": 3})
    assert out["valid"] is True and built == [True, True]

    del built[:]
    assert cli.main(["demo", "--ranks", "6", "--clusters", "2"]) == 0
    assert built == [True, True]

    # ... and the builders that read nothing stay unarmed: a Table I
    # cell's live world, the stencil scenario's two, and the one world a
    # trace-derived cell runs
    del built[:]
    monkeypatch.setattr(live_cell, "build_ft_world", spy)
    live_cell.live_table1_cell(
        {"kernel": "MG", "ranks": 16, "clusters": 4, "niters": 2})
    campaigns.stencil_scenario(6, 2, niters=10)
    assert built == [False, False, False]

    traced = []

    def world_spy(*args, **kw):
        traced.append(World(*args, **kw))
        return traced[-1]

    monkeypatch.setattr(rollback_mod, "World", world_spy)
    campaigns.table1_cell(
        {"kernel": "MG", "ranks": 16, "clusters": 4, "niters": 2})
    assert [w.tracer.record_sequences for w in traced] == [False]


# ----------------------------------------------------------------------
# (b) an unarmed world retains nothing per message
# ----------------------------------------------------------------------
def _mg_cell(record_sequences, monkeypatch):
    """The live Table I cell ("MG", 64, 4) with its world armed or not;
    returns (cell row, world, controller, sampler)."""
    seen = {}
    real = build_ft_world

    def build(*args, **kw):
        seen["world"], seen["controller"] = real(
            *args, record_sequences=record_sequences, **kw)
        return seen["world"], seen["controller"]

    class Sampler(live_cell.SpeSampler):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            seen["sampler"] = self

    with monkeypatch.context() as patch:
        patch.setattr(live_cell, "build_ft_world", build)
        patch.setattr(live_cell, "SpeSampler", Sampler)
        row = live_cell.live_table1_cell(
            {"kernel": "MG", "ranks": 64, "clusters": 4, "niters": 4})
    return row, seen["world"], seen["controller"], seen["sampler"]


@pytest.fixture(scope="module")
def mg_cells():
    with pytest.MonkeyPatch.context() as patch:
        return _mg_cell(True, patch), _mg_cell(False, patch)


def test_unarmed_world_retains_nothing_per_message(mg_cells):
    (_, armed, _, _), (_, unarmed, _, _) = mg_cells
    a, u = armed.tracer, unarmed.tracer
    assert not any(u._sends) and not any(u._delivers)
    total = u.total_app_messages()
    assert total > 1000 and total == a.total_app_messages()
    assert sum(len(s) for s in a._sends) == total
    assert sum(len(d) for d in a._delivers) == total
    assert np.array_equal(u.comm_matrix(), a.comm_matrix())
    assert np.array_equal(u.comm_matrix("bytes"), a.comm_matrix("bytes"))
    assert u.marks == a.marks and len(u.marks) >= 64


def test_unarmed_tracer_never_digests_a_payload(monkeypatch):
    from repro.simmpi import trace

    def boom(payload):
        raise AssertionError("payload_digest called in an unarmed world")

    monkeypatch.setattr(trace, "payload_digest", boom)
    cls = TABLE1_KERNELS["MG"]
    world = World(16, lambda r, s: cls(r, s, niters=2))
    with closing(world):
        _run(world)
    assert world.tracer.total_app_messages() > 0
    with pytest.raises(AssertionError, match="payload_digest"):
        _run(World(2, _factory, record_sequences=True))


# ----------------------------------------------------------------------
# (c) arming does not perturb the run
# ----------------------------------------------------------------------
def test_arming_does_not_perturb_a_table1_cell(mg_cells):
    (row_a, wa, ca, sa), (row_u, wu, cu, su) = mg_cells
    assert row_a == row_u
    assert row_a["pct_log"] > 0 and row_a["pct_rollback"] > 0
    assert wa.engine.events_dispatched == wu.engine.events_dispatched
    assert wa.engine.now == wu.engine.now
    assert wa.network.messages_sent == wu.network.messages_sent
    assert wa.network.bytes_sent == wu.network.bytes_sent
    assert ca.logging_stats() == cu.logging_stats()
    assert len(sa.snapshots) == len(su.snapshots) >= 2
    for x, y in zip(sa.snapshots, su.snapshots):
        assert (x.time, x.epochs, x.spe_tables) == (y.time, y.epochs,
                                                     y.spe_tables)

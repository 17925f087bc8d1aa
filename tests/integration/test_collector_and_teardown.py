"""The premise of the collector pause, and the teardown that goes with it.

``Engine.run`` pauses the cyclic collector for its dispatch loop.  That is
only sound because a run allocates no cyclic garbage — checked here with
the collector held off by the test: after a run, ``gc.collect()`` must
find nothing.  And it is only affordable because a finished world is freed
by reference count: ``World.close()`` / ``Controller.close()`` sever the
back-references, so a ``weakref`` to the world dies the moment its owner
lets go, collector or no collector.
"""

import gc
import weakref

import pytest

from repro.apps import Stencil2D
from repro.apps.cg import CGKernel
from repro.apps.mg import MGKernel
from repro.apps.stencil import Stencil1D
from repro.campaigns import table1_cell
from repro.chaos import schedule_for_trial
from repro.chaos.trial import run_trial, run_trial_schedule
from repro.core import ProtocolConfig, build_ft_world, build_world
from repro.core.clustering import block_clusters
from repro.simmpi import World
from repro.simmpi.engine import Engine

# the four protocols, configured as the lifecycle differential test has them
from ..baselines.test_protocol_differential import CONTROLLERS, INTERVAL, STAGGER


@pytest.fixture
def collector_off():
    """Hold the collector off for the test, starting from a clean heap."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def stencil1d(rank, size):
    return Stencil1D(rank, size, niters=25, cells=4)


# ----------------------------------------------------------------------
# A run allocates no cyclic garbage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel, nprocs", [
    (lambda r, s: CGKernel(r, s, niters=6, block=4), 16),
    (lambda r, s: MGKernel(r, s, niters=3, levels=3, block=4), 8),
])
def test_failure_free_run_leaves_no_cyclic_garbage(collector_off, kernel, nprocs):
    config = ProtocolConfig(checkpoint_interval=INTERVAL,
                            cluster_of=block_clusters(nprocs, 2),
                            rank_stagger=STAGGER)
    world, controller = build_ft_world(nprocs, kernel, config)
    world.launch()
    world.run()
    assert world.all_done
    assert gc.collect() == 0


def test_recovered_run_leaves_no_cyclic_garbage(collector_off):
    nprocs = 8
    factory = lambda r, s: Stencil2D(r, s, niters=30, block=3)
    config = ProtocolConfig(checkpoint_interval=3e-5,
                            cluster_of=block_clusters(nprocs, 2),
                            cluster_stagger=5e-6, rank_stagger=1e-6)
    ref, ref_controller = build_ft_world(nprocs, factory, config)
    ref.launch()
    ref.run()
    world, controller = build_ft_world(nprocs, factory, config)
    controller.inject_failure(ref.engine.now / 2, nprocs - 1)
    controller.arm()
    world.launch()
    world.run()
    assert world.all_done and len(controller.recovery_reports) == 1
    assert gc.collect() == 0


@pytest.mark.parametrize("protocol", ["coordinated", "pessimistic", "cic"])
def test_baseline_run_leaves_no_cyclic_garbage(collector_off, protocol):
    world, controller = build_world(CONTROLLERS[protocol](6), stencil1d)
    world.launch()
    world.run()
    assert world.all_done
    assert gc.collect() == 0


def _first_schedule(wanted):
    for i in range(200):
        schedule = schedule_for_trial(0, i)
        if wanted(schedule):
            return schedule
    raise AssertionError("no generated schedule has the wanted property")


def _gc_schedule():
    """The first generated schedule that runs periodic log GC."""
    return _first_schedule(lambda s: s.gc_frac > 0)


def _tap_schedule():
    """The first generated schedule with a send-count failure tap (the
    injector gives the tapped rank's ``Proc.send_tap`` a callback)."""
    return _first_schedule(
        lambda s: any(f.kind == "after_sends" for f in s.failures))


def test_chaos_trial_with_gc_ticks_leaves_no_cyclic_garbage(collector_off):
    # the periodic collect_garbage tick used to be a closure rescheduling
    # itself: a function <-> cell cycle holding world and controller
    result = run_trial_schedule(_gc_schedule())
    assert result.passed, result.to_json()
    del result
    assert gc.collect() == 0


# ----------------------------------------------------------------------
# Engine.run leaves the collector as it found it
# ----------------------------------------------------------------------
def test_run_pauses_the_collector_and_restores_it():
    seen = []
    eng = Engine()
    eng.schedule(1e-6, lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    eng.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_restores_the_collector_when_a_callback_raises():
    def boom():
        raise RuntimeError("boom")

    eng = Engine()
    eng.schedule(1e-6, boom)
    with pytest.raises(RuntimeError):
        eng.run()
    assert gc.isenabled()


def test_run_entered_with_the_collector_off_leaves_it_off(collector_off):
    eng = Engine()
    eng.schedule(1e-6, lambda: None)
    eng.run()
    assert not gc.isenabled()


# ----------------------------------------------------------------------
# close() frees a finished world by reference count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", sorted(CONTROLLERS))
def test_closed_world_dies_with_its_owner(collector_off, protocol):
    world, controller = build_world(CONTROLLERS[protocol](6), stencil1d)
    if protocol != "cic":  # CIC implements no recovery
        controller.inject_failure(4e-5, 1)
        controller.arm()
    world.launch()
    world.run()
    assert world.all_done
    assert len(controller.injector.fired) == (protocol != "cic")
    stats = controller.logging_stats()
    world_ref, controller_ref = weakref.ref(world), weakref.ref(controller)
    proc_ref = weakref.ref(world.procs[0])
    controller.close()
    # a closed pair still answers for its results
    assert controller.logging_stats() == stats
    assert world.programs[0].result() is not None
    del world, controller
    assert world_ref() is None
    assert controller_ref() is None
    assert proc_ref() is None


def test_unclosed_world_needs_the_collector(collector_off):
    # the control for the test above: without close() the cycles hold
    world, controller = build_world(CONTROLLERS["paper"](6), stencil1d)
    world.launch()
    world.run()
    world_ref = weakref.ref(world)
    del world, controller
    assert world_ref() is not None
    gc.collect()
    assert world_ref() is None


def test_bare_world_close(collector_off):
    world = World(4, stencil1d)
    world.launch()
    world.run()
    world_ref = weakref.ref(world)
    world.close()
    assert world.tracer.total_app_messages() > 0
    del world
    assert world_ref() is None


def test_close_after_an_aborted_run_drops_the_queue(collector_off):
    # a horizon-bounded run leaves events queued whose callbacks reference
    # the controller, which keeps its (closed) world
    world, controller = build_world(CONTROLLERS["paper"](6), stencil1d)
    world.launch()
    world.run(until=1e-5)
    assert world.engine.pending > 0
    world_ref = weakref.ref(world)
    controller.close()
    assert world.engine.pending == 0
    del world, controller
    assert world_ref() is None


def _live_worlds():
    return [obj for obj in gc.get_objects() if isinstance(obj, World)]


def test_table1_cell_leaves_no_world_behind(collector_off):
    cell = table1_cell({"kernel": "CG", "ranks": 16, "clusters": 4, "niters": 4})
    assert cell["ranks"] == 16
    assert _live_worlds() == []


@pytest.mark.parametrize("make_schedule", [_gc_schedule, _tap_schedule])
def test_run_trial_leaves_no_world_behind(collector_off, make_schedule):
    # three worlds per trial: reference, chaos run, re-run
    verdict = run_trial({"schedule": make_schedule().to_json()})
    assert verdict["passed"]
    assert _live_worlds() == []


def test_closed_instrumented_world_dies_while_its_registry_lives(collector_off):
    # the registry reads its counters from the world's own counts; closing
    # settles them, so the registry keeps the numbers, not the world
    from repro.obs import MetricsRegistry, dump_metrics

    obs = MetricsRegistry(flight_capacity=0)
    config = ProtocolConfig(checkpoint_interval=INTERVAL, rank_stagger=STAGGER)
    world, controller = build_ft_world(6, stencil1d, config, obs=obs)
    controller.inject_failure(4e-5, 1)
    controller.arm()
    world.launch()
    world.run()
    metrics = dump_metrics(obs)
    world_ref, proc_ref = weakref.ref(world), weakref.ref(world.procs[0])
    network_ref = weakref.ref(world.network)
    controller.close()
    del world, controller
    assert world_ref() is None
    assert proc_ref() is None
    assert network_ref() is None
    assert dump_metrics(obs) == metrics
    assert obs.get_counter_total("network.channel.messages") > 0

"""Tests for the public validity-comparison API."""

import numpy as np

from repro.analysis import compare_executions
from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world


def factory(rank, size):
    return Stencil1D(rank, size, niters=20, cells=4)


def cfg():
    return ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)


def run(failure=None):
    world, ctl = build_ft_world(6, factory, cfg(), record_sequences=True)
    if failure:
        ctl.inject_failure(*failure)
        ctl.arm()
    world.launch()
    world.run()
    return world


def test_recovered_run_reports_valid():
    ref = run()
    world = run(failure=(5e-5, 2))
    report = compare_executions(ref, world)
    assert report.valid, report.summary()
    assert "valid" in report.summary()


def test_different_configuration_reports_invalid():
    ref = run()
    world, _ = build_ft_world(
        6, lambda r, s: Stencil1D(r, s, niters=22, cells=4), cfg(),
        record_sequences=True,
    )
    world.launch()
    world.run()
    report = compare_executions(ref, world)
    assert not report.valid
    assert report.sequence_mismatches
    assert "INVALID" in report.summary()


def test_corrupted_result_detected():
    ref = run()
    world = run(failure=(5e-5, 2))
    world.programs[3].state["u"] = world.programs[3].state["u"] + 1.0
    report = compare_executions(ref, world)
    assert not report.valid
    assert 3 in report.result_mismatches


def test_dict_results_compared():
    from repro.apps import FTKernel

    def ft_factory(r, s):
        return FTKernel(r, s, niters=4, slab=2)

    a, _ = build_ft_world(4, ft_factory, cfg(), record_sequences=True)
    a.launch(); a.run()
    b, _ = build_ft_world(4, ft_factory, cfg(), record_sequences=True)
    b.launch(); b.run()
    assert compare_executions(a, b).valid

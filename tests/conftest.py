"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.apps.stencil import Stencil1D, Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.simmpi import World


def run_failure_free(nprocs, factory, config=None, **kw):
    """Run under the paper's protocol without failures; return (world, ctl).

    Worlds built here keep their send / deliver sequence log (the tests
    read it); pass ``record_sequences=False`` for the campaign default."""
    kw.setdefault("record_sequences", True)
    world, controller = build_ft_world(nprocs, factory, config, **kw)
    world.launch()
    world.run()
    return world, controller


def run_with_failures(nprocs, factory, failures, config=None, **kw):
    """Run with failures (list of (time, rank)); return (world, controller)."""
    kw.setdefault("record_sequences", True)
    world, controller = build_ft_world(nprocs, factory, config, **kw)
    for time, rank in failures:
        controller.inject_failure(time, rank)
    controller.arm()
    world.launch()
    world.run()
    return world, controller


def assert_valid_execution(ref_world, world):
    """The paper's validity criterion (Definition 1), checked end-to-end:

    * every rank's logical send sequence equals the failure-free one;
    * every rank's final application state equals the failure-free one.
    """
    ref_seqs = ref_world.tracer.logical_send_sequences()
    seqs = world.tracer.logical_send_sequences()
    for rank, (a, b) in enumerate(zip(ref_seqs, seqs)):
        assert a == b, (
            f"rank {rank}: send sequence diverged (lens {len(a)} vs {len(b)})"
        )
    for rank, (p_ref, p) in enumerate(zip(ref_world.programs, world.programs)):
        ref_res, res = p_ref.result(), p.result()
        np.testing.assert_equal(_normalize(ref_res), _normalize(res),
                                err_msg=f"rank {rank}: result diverged")


def _normalize(value):
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return np.round(value, 12)
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


@pytest.fixture
def send_rule(monkeypatch):
    """Fig. 3 line 14 watched at the protocol's send hook, which every
    application send passes (log replays do not: the protocol emits them
    itself).  ``violations`` lists ``(rank, status)`` for each send made
    while its rank was not Running; ``while_held`` counts the sends made
    while some other rank was, so a run shows the check was live."""
    from types import SimpleNamespace

    from repro.core.protocol import SDProtocol, Status

    rule = SimpleNamespace(violations=[], while_held=0)
    on_app_send = SDProtocol.on_app_send

    def checked(self, env):
        if self.status is not Status.RUNNING:
            rule.violations.append((self.rank, self.status))
        elif any(p.status is not Status.RUNNING
                 for p in self.controller.protocols):
            rule.while_held += 1
        on_app_send(self, env)

    monkeypatch.setattr(SDProtocol, "on_app_send", checked)
    return rule


@pytest.fixture
def stencil1d_factory():
    def factory(rank, size):
        return Stencil1D(rank, size, niters=30, cells=4)

    return factory


@pytest.fixture
def stencil2d_factory():
    def factory(rank, size):
        return Stencil2D(rank, size, niters=25, block=3)

    return factory


@pytest.fixture
def default_config():
    return ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)


class CountingProgram(RankProgram):
    """Minimal deterministic program used in substrate unit tests: rank 0
    sends ``count`` integers to rank 1, which sums them."""

    def __init__(self, rank, size, count=5):
        super().__init__(rank, size)
        self.state = {"i": 0, "count": count, "total": 0}

    def run(self, api):
        st = self.state
        if api.rank == 0:
            while st["i"] < st["count"]:
                yield api.send(1, st["i"], tag=1)
                st["i"] += 1
        elif api.rank == 1:
            while st["i"] < st["count"]:
                v = yield api.recv(0, tag=1)
                st["total"] += v
                st["i"] += 1

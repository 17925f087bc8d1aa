"""Differential test of the shared fault-tolerance lifecycle.

The paper's protocol and the baselines stand on one substrate — process
image, rank restart, checkpoint timer, failure wiring (``repro.core``).
Here every protocol that recovers runs the same kernels through the same
mid-run failure and is held to the same three checks: the recovered
execution is valid against the protocol's own failure-free run
(Definition 1: send sequences and results), its per-rank send-witness
chains match, and a second run is bit-identical.  CIC counts checkpoints
and has no recovery, so it joins failure-free.
"""

import numpy as np
import pytest

from repro import apps
from repro.analysis.validity import compare_executions
from repro.baselines import (
    CICConfig,
    CICController,
    CLConfig,
    CLController,
    PMLConfig,
    PMLController,
)
from repro.chaos.oracles import oracle_witness
from repro.core import FTController, ProtocolConfig, build_world
from repro.errors import ProtocolError
from repro.simmpi import World

INTERVAL = 2e-5
STAGGER = 1e-6
FAIL_RANK = 1

#: test id -> (ranks, factory) of a catalogue kernel: its largest rank
#: count, and iterations enough that the mid-run failure lands after the
#: first checkpoints
KERNELS = {
    kernel: (max(apps.KERNELS[name].ranks), apps.KERNELS[name].make(niters))
    for kernel, name, niters in (("Stencil1D", "stencil", 25), ("CG", "cg", 8))
}

CONTROLLERS = {
    "paper": lambda n: FTController(n, ProtocolConfig(
        checkpoint_interval=INTERVAL, rank_stagger=STAGGER,
        cluster_of=[2 * r // n for r in range(n)])),
    "coordinated": lambda n: CLController(n, CLConfig(snapshot_interval=INTERVAL)),
    "pessimistic": lambda n: PMLController(n, PMLConfig(
        checkpoint_interval=INTERVAL, rank_stagger=STAGGER)),
    "cic": lambda n: CICController(n, CICConfig(
        checkpoint_interval=INTERVAL, rank_stagger=STAGGER)),
}


def run(protocol, kernel, fail_at=None):
    nprocs, factory = KERNELS[kernel]
    world, ctl = build_world(CONTROLLERS[protocol](nprocs), factory,
                            record_sequences=True)
    if fail_at is not None:
        ctl.inject_failure(fail_at, FAIL_RANK)
        ctl.arm()
    world.launch()
    world.run()
    return world, ctl


def exact(value):
    """Bit-exact, ``==``-comparable form of an application result."""
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def fingerprint(world):
    return (
        world.engine.events_dispatched,
        world.network.messages_sent,
        world.engine.now,
        [exact(p.result()) for p in world.programs],
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("protocol", ["paper", "coordinated", "pessimistic"])
def test_one_failure_valid_witnessed_and_reproducible(protocol, kernel):
    ref_world, _ = run(protocol, kernel)
    fail_at = 0.5 * ref_world.engine.now
    world, ctl = run(protocol, kernel, fail_at)

    assert [ev.rank for ev in ctl.injector.fired] == [FAIL_RANK]
    report = compare_executions(ref_world, world)
    assert report.valid, report
    witness = oracle_witness(ref_world, world)
    assert witness.passed, witness.detail
    # recovery happened and cost what the protocol says it costs
    nprocs = KERNELS[kernel][0]
    bound = {"paper": nprocs, "coordinated": nprocs, "pessimistic": 1}[protocol]
    (rolled_back,) = ctl.rolled_back_history
    assert 1 <= rolled_back <= bound
    if protocol != "paper":
        assert rolled_back == bound
    assert world.network.messages_sent > ref_world.network.messages_sent

    again, _ = run(protocol, kernel, fail_at)
    assert fingerprint(again) == fingerprint(world)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_cic_failure_free_valid_witnessed_and_reproducible(kernel):
    """CIC piggybacks an index and takes timer checkpoints on the shared
    schedule; neither may perturb what the application sends — the
    reference is the same kernel with no protocol attached at all."""
    nprocs, factory = KERNELS[kernel]
    ref_world = World(nprocs, factory, record_sequences=True)
    ref_world.launch()
    ref_world.run()
    world, ctl = run("cic", kernel)

    assert ctl.stats()["basic_checkpoints"] > 0
    report = compare_executions(ref_world, world)
    assert report.valid, report
    witness = oracle_witness(ref_world, world)
    assert witness.passed, witness.detail
    with pytest.raises(ProtocolError, match="no recovery"):
        ctl.on_failures([FAIL_RANK])

    again, _ = run("cic", kernel)
    assert fingerprint(again) == fingerprint(world)

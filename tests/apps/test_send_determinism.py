"""Send-determinism verification under network perturbation.

The paper's entire premise (Section II): for a fixed configuration, each
process emits the same message sequence in any correct execution,
regardless of how non-causally-related deliveries interleave.  We verify
the property for every kernel by re-running it under different network
jitter seeds (which reorder cross-channel deliveries) and comparing the
recorded per-rank send sequences exactly.
"""

import pytest

from repro import apps
from repro.apps import Stencil2D
from repro.simmpi import TimingModel, World

#: every catalogue kernel; ids as this test has always named them
KERNELS = sorted(apps.KERNELS)
IDS = [{"stencil": "ST1", "stencil2d": "ST2"}.get(k, k.upper())
       for k in KERNELS]


def sequences(name, seed):
    entry = apps.KERNELS[name]
    world = World(
        max(entry.ranks),
        entry.make(8),
        timing=TimingModel(latency=2e-6, bandwidth=1e9, jitter=0.8),
        network_seed=seed,
        record_sequences=True,
    )
    world.launch()
    world.run()
    return world.tracer.send_sequences()


@pytest.mark.parametrize("name", KERNELS, ids=IDS)
def test_send_sequences_invariant_under_jitter(name):
    a = sequences(name, seed=1)
    b = sequences(name, seed=99)
    assert a == b, f"{name}: send sequences depend on delivery interleaving"


def test_jitter_actually_changes_delivery_order():
    """Sanity: the perturbation is real — delivery interleavings differ
    across seeds even though send sequences do not."""
    def deliveries(seed):
        world = World(
            8,
            lambda r, s: Stencil2D(r, s, niters=4, block=3),
            timing=TimingModel(latency=2e-6, bandwidth=1e9, jitter=0.8),
            network_seed=seed,
            record_sequences=True,
        )
        world.launch()
        world.run()
        return world.tracer.deliver_sequences()

    assert deliveries(1) != deliveries(99)

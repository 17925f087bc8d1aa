"""Send-determinism verification under network perturbation.

The paper's entire premise (Section II): for a fixed configuration, each
process emits the same message sequence in any correct execution,
regardless of how non-causally-related deliveries interleave.  We verify
the property for every kernel by re-running it under different network
jitter seeds (which reorder cross-channel deliveries) and comparing the
recorded per-rank send sequences exactly.
"""

import pytest

from repro.apps import (
    BTKernel,
    CGKernel,
    FTKernel,
    LUKernel,
    MGKernel,
    SPKernel,
    Stencil1D,
    Stencil2D,
)
from repro.simmpi import TimingModel, World

KERNELS = [
    ("CG", CGKernel, 16, dict(niters=6, block=4)),
    ("MG", MGKernel, 8, dict(niters=3, levels=2, block=4)),
    ("FT", FTKernel, 8, dict(niters=3, slab=2)),
    ("LU", LUKernel, 8, dict(niters=3, nblocks=2, block=4)),
    ("BT", BTKernel, 9, dict(niters=3, block=4)),
    ("SP", SPKernel, 9, dict(niters=2, block=3)),
    ("ST1", Stencil1D, 6, dict(niters=6, cells=4)),
    ("ST2", Stencil2D, 8, dict(niters=4, block=3)),
]


def sequences(cls, nprocs, kw, seed):
    world = World(
        nprocs,
        lambda r, s: cls(r, s, **kw),
        timing=TimingModel(latency=2e-6, bandwidth=1e9, jitter=0.8),
        network_seed=seed,
        record_sequences=True,
    )
    world.launch()
    world.run()
    return world.tracer.send_sequences()


@pytest.mark.parametrize("name,cls,nprocs,kw", KERNELS, ids=[k[0] for k in KERNELS])
def test_send_sequences_invariant_under_jitter(name, cls, nprocs, kw):
    a = sequences(cls, nprocs, kw, seed=1)
    b = sequences(cls, nprocs, kw, seed=99)
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

"""Prediction-vs-simulation tests for the collective cost model."""

import pytest

from repro.apps.base import RankProgram
from repro.errors import ConfigError
from repro.netmodel import CollectiveCost
from repro.simmpi import TimingModel, World

TIMING = TimingModel(latency=2e-6, bandwidth=1e9, send_overhead=3e-7)


def measure(nprocs, body):
    """Global span of the operation: latest exit minus earliest entry.

    Per-rank dt is meaningless for asymmetric roles (a bcast root exits
    after its buffered sends, microseconds before the deepest leaf), so
    the collective's latency is the cross-rank envelope."""
    class P(RankProgram):
        def run(self, api):
            yield from api.allreduce(0)    # roughly align entry
            self.state["t0"] = yield api.now()
            yield from body(api)
            self.state["t1"] = yield api.now()

    world = World(nprocs, P, timing=TIMING)
    world.launch()
    world.run()
    return (max(p.state["t1"] for p in world.programs)
            - min(p.state["t0"] for p in world.programs))


SIZE = 800  # 100 float64s


@pytest.mark.parametrize("nprocs", [2, 4, 8])
@pytest.mark.parametrize("name", ["bcast", "reduce", "allreduce", "alltoall"])
def test_predictions_track_simulation(nprocs, name):
    cost = CollectiveCost(TIMING, nprocs)
    payload = [0.0] * 100

    def body(api):
        if name == "bcast":
            yield from api.bcast(payload if api.rank == 0 else None, root=0)
        elif name == "allreduce":
            yield from api.allreduce(1.0)
        elif name == "reduce":
            yield from api.reduce(1.0)
        elif name == "alltoall":
            yield from api.alltoall([api.rank] * api.size)

    size = SIZE if name == "bcast" else 8
    predicted = cost.predict(name, size)
    measured = measure(nprocs, body)
    # the measured envelope includes the aligning allreduce's exit skew
    # (roughly one tree depth of small hops)
    skew = cost.bcast(8)
    assert predicted * 0.4 <= measured <= (predicted + skew) * 1.6, (
        f"{name} P={nprocs}: predicted {predicted:.2e} (+skew {skew:.2e}), "
        f"measured {measured:.2e}"
    )


def test_tree_collectives_scale_logarithmically():
    cost64 = CollectiveCost(TIMING, 64)
    cost8 = CollectiveCost(TIMING, 8)
    assert cost64.bcast(8) / cost8.bcast(8) == pytest.approx(2.0)


def test_linear_collectives_scale_linearly():
    cost64 = CollectiveCost(TIMING, 64)
    cost8 = CollectiveCost(TIMING, 8)
    assert cost64.alltoall(8) / cost8.alltoall(8) == pytest.approx(63 / 7)


def test_single_rank_free():
    cost = CollectiveCost(TIMING, 1)
    assert cost.bcast(8) == 0.0
    assert cost.alltoall(8) == 0.0


def test_unknown_collective_rejected():
    with pytest.raises(ConfigError):
        CollectiveCost(TIMING, 4).predict("allgatherv")


def test_invalid_nprocs_rejected():
    with pytest.raises(ConfigError):
        CollectiveCost(TIMING, 0)

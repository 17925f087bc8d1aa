"""Unit tests for the collective operations (all algorithms, odd sizes)."""

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.simmpi import World

SIZES = [1, 2, 3, 4, 5, 7, 8]


class CollectiveProgram(RankProgram):
    """Runs every collective once and records results for assertions."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"res": {}}

    def run(self, api):
        res = self.state["res"]
        res["bcast"] = yield from api.bcast(
            {"root": "data"} if api.rank == 0 else None, root=0
        )
        res["reduce"] = yield from api.reduce(api.rank + 1, root=0)
        res["allreduce"] = yield from api.allreduce(api.rank + 1)
        res["alltoall"] = yield from api.alltoall(
            [api.rank * 100 + j for j in range(api.size)]
        )


@pytest.fixture(params=SIZES)
def collective_world(request):
    world = World(request.param, CollectiveProgram)
    world.launch()
    world.run()
    return world


def results(world):
    return [p.state["res"] for p in world.programs]


def test_bcast_delivers_root_value(collective_world):
    for res in results(collective_world):
        assert res["bcast"] == {"root": "data"}


def test_reduce_sums_at_root(collective_world):
    n = collective_world.nprocs
    expected = n * (n + 1) // 2
    for rank, res in enumerate(results(collective_world)):
        assert res["reduce"] == (expected if rank == 0 else None)


def test_allreduce_everywhere(collective_world):
    n = collective_world.nprocs
    expected = n * (n + 1) // 2
    for res in results(collective_world):
        assert res["allreduce"] == expected


def test_alltoall_transposes(collective_world):
    n = collective_world.nprocs
    for rank, res in enumerate(results(collective_world)):
        assert res["alltoall"] == [s * 100 + rank for s in range(n)]


def test_reduce_with_numpy_payloads():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"total": None}

        def run(self, api):
            v = np.full(4, float(api.rank))
            self.state["total"] = yield from api.allreduce(v)

    world = World(6, P)
    world.launch()
    world.run()
    for p in world.programs:
        np.testing.assert_array_equal(p.state["total"], np.full(4, 15.0))


def test_reduce_custom_op():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"m": None}

        def run(self, api):
            self.state["m"] = yield from api.allreduce(api.rank, op=max)

    world = World(5, P)
    world.launch()
    world.run()
    assert all(p.state["m"] == 4 for p in world.programs)


def test_nonzero_root_bcast_and_reduce():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"b": None, "r": None}

        def run(self, api):
            self.state["b"] = yield from api.bcast(
                "v" if api.rank == 3 else None, root=3
            )
            self.state["r"] = yield from api.reduce(1, root=3)

    world = World(6, P)
    world.launch()
    world.run()
    assert all(p.state["b"] == "v" for p in world.programs)
    assert world.programs[3].state["r"] == 6


def test_alltoall_requires_per_rank_values():
    class P(RankProgram):
        def run(self, api):
            yield from api.alltoall([1])

    world = World(3, P)
    world.launch()
    with pytest.raises(ValueError):
        world.run()


def test_back_to_back_collectives_do_not_crosstalk():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"vals": []}

        def run(self, api):
            for i in range(10):
                v = yield from api.allreduce(i)
                self.state["vals"].append(v)

    world = World(4, P)
    world.launch()
    world.run()
    for p in world.programs:
        assert p.state["vals"] == [4 * i for i in range(10)]

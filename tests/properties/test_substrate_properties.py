"""Property-based tests of the simulator substrate."""

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.base import RankProgram
from repro.simmpi import World
from repro.simmpi.engine import Engine
from repro.simmpi.message import Envelope
from repro.simmpi.network import Network, TimingModel
from repro.simmpi.topology import CartGrid, balanced_dims


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=1e-3,
                                 allow_nan=False), min_size=1, max_size=40))
def test_engine_dispatches_in_nondecreasing_time(delays):
    eng = Engine()
    times = []
    for d in delays:
        eng.schedule(d, lambda: times.append(eng.now))
    eng.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=10**7),
                      min_size=1, max_size=30),
       jitter=st.floats(min_value=0.0, max_value=0.9))
def test_network_fifo_per_channel(sizes, jitter):
    eng = Engine()
    net = Network(eng, TimingModel(latency=1e-6, bandwidth=1e8, jitter=jitter),
                  seed=1)
    seen = []
    net.attach(1, lambda env: seen.append(env.meta["k"]))
    for k, size in enumerate(sizes):
        env = Envelope(src=0, dst=1, tag=0, payload=b"", size=size)
        env.meta["k"] = k
        net.transmit(env)
    eng.run()
    assert seen == list(range(len(sizes)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=512),
       d=st.integers(min_value=1, max_value=4))
def test_balanced_dims_always_factor(n, d):
    dims = balanced_dims(n, d)
    prod = 1
    for x in dims:
        prod *= x
    assert prod == n and len(dims) == d


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                     max_size=3))
def test_cart_grid_shift_inverse(dims):
    g = CartGrid(tuple(dims), periodic=True)
    for rank in range(g.size):
        for dim in range(g.ndims):
            fwd = g.shift(rank, dim, +1)
            assert fwd is not None
            assert g.shift(fwd, dim, -1) == rank


class RandomRing(RankProgram):
    """Ring reduction with seeded per-rank payload sizes; used to check the
    whole substrate is deterministic for a given seed."""

    def __init__(self, rank, size, seed=0):
        super().__init__(rank, size)
        rng = np.random.default_rng(seed * 1000 + rank)
        self.state = {"it": 0, "niters": 5,
                      "data": rng.standard_normal(1 + rank % 3), "acc": 0.0}

    def run(self, api):
        nxt = (api.rank + 1) % api.size
        prv = (api.rank - 1) % api.size
        while self.state["it"] < self.state["niters"]:
            yield api.send(nxt, self.state["data"].copy(), tag=1)
            got = yield api.recv(prv, tag=1)
            self.state["acc"] += float(np.sum(got))
            total = yield from api.allreduce(self.state["acc"])
            self.state["acc"] = total / api.size
            self.state["it"] += 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=2, max_value=7))
def test_simulation_bit_reproducible(seed, n):
    def run():
        world = World(n, lambda r, s: RandomRing(r, s, seed=seed))
        world.launch()
        t = world.run()
        return t, [p.state["acc"] for p in world.programs], \
            world.tracer.total_app_messages()

    assert run() == run()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=9),
       values=st.lists(st.floats(min_value=-100, max_value=100,
                                 allow_nan=False), min_size=9, max_size=9))
def test_allreduce_matches_local_sum(n, values):
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"out": None}

        def run(self, api):
            self.state["out"] = yield from api.allreduce(values[api.rank])

    world = World(n, P)
    world.launch()
    world.run()
    expected = sum(values[:n])
    for p in world.programs:
        assert abs(p.state["out"] - expected) < 1e-9 * max(1.0, abs(expected))


# ----------------------------------------------------------------------
# retention_copy is copy.deepcopy
# ----------------------------------------------------------------------
class _SubDict(dict):
    """A dict subclass: retention_copy leaves it to deepcopy."""


class _Box:
    """An arbitrary object: the deepcopy fallback."""

    def __init__(self, item):
        self.item = item


_MUTABLE = (list, dict, np.ndarray, _Box)

_leaves = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.text(max_size=4),
    st.lists(st.floats(allow_nan=False, width=32), max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
        lambda xs: np.array(xs, dtype=np.int16).reshape(len(xs), 1)),
)
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=2), kids, max_size=3),
    st.dictionaries(st.text(max_size=2), kids, max_size=2).map(_SubDict),
    kids.map(_Box),
), max_leaves=12)


@st.composite
def _aliased(draw):
    """Trees that reference one pool of parts several times, sometimes
    through a list that contains itself."""
    parts = draw(st.lists(_trees, min_size=1, max_size=4))
    picks = st.integers(0, len(parts) - 1)
    root = [parts[i] for i in draw(st.lists(picks, min_size=1, max_size=6))]
    root.append({"again": parts[draw(picks)], "tuple": (parts[draw(picks)],)})
    if draw(st.booleans()):
        loop = [parts[draw(picks)]]
        loop.append(loop)
        root.append(loop)
    return root


def _children(x):
    if type(x) in (list, tuple):
        return list(x)
    if isinstance(x, dict):
        return [y for item in x.items() for y in item]
    if type(x) is _Box:
        return [x.item]
    return []


def _same_value(a, b, seen=None):
    """Structural, numpy-aware equality that terminates on cycles."""
    seen = set() if seen is None else seen
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape) == (b.dtype, b.shape) and \
            np.array_equal(a, b)
    if isinstance(a, (list, tuple, dict, _Box)):
        if (id(a), id(b)) in seen:
            return True
        seen.add((id(a), id(b)))
        ka, kb = _children(a), _children(b)
        return len(ka) == len(kb) and all(
            _same_value(x, y, seen) for x, y in zip(ka, kb))
    return a == b


def _alias_shape(root):
    """The aliasing graph in visit order: each mutable node is named by
    the order its object was first reached, so two structures share the
    same objects in the same places iff their shapes are equal."""
    first: dict[int, int] = {}
    shape, stack = [], [root]
    while stack:
        x = stack.pop()
        if isinstance(x, _MUTABLE):
            if id(x) in first:
                shape.append(first[id(x)])
                continue                    # already walked
            shape.append(first.setdefault(id(x), len(first)))
        stack.extend(reversed(_children(x)))
    return shape


def _mutable_nodes(root):
    """Every mutable object reachable from ``root``, each once."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, _MUTABLE):
            nodes.append(x)
        stack.extend(_children(x))
    return nodes


@settings(max_examples=150, deadline=None)
@given(value=st.one_of(_trees, _aliased()))
def test_retention_copy_is_deepcopy(value):
    from repro.simmpi.message import retention_copy

    memo_r, memo_d = {}, {}
    dup, ref = retention_copy(value, memo_r), copy.deepcopy(value, memo_d)
    assert _same_value(dup, ref) and _same_value(dup, value)
    assert _alias_shape(dup) == _alias_shape(ref) == _alias_shape(value)
    # one memo contract: the same originals copied (and kept alive)
    assert set(memo_r) - {id(memo_r)} == set(memo_d) - {id(memo_d)}
    assert _same_value(retention_copy(value), ref)
    src = _mutable_nodes(value)
    src_ids = {id(x) for x in src}
    src_arrays = [x for x in src if isinstance(x, np.ndarray)]
    for node in _mutable_nodes(dup):
        assert id(node) not in src_ids
        if isinstance(node, np.ndarray):
            assert not any(np.shares_memory(node, a) for a in src_arrays)

"""Unit tests for grid topologies."""

import math

import pytest

from repro.errors import ConfigError
from repro.simmpi.topology import (
    CartGrid,
    balanced_dims,
    is_power_of_two,
)


def test_is_power_of_two():
    assert all(is_power_of_two(1 << k) for k in range(10))
    assert not any(is_power_of_two(n) for n in [0, 3, 5, 6, 7, 9, 12, -4])


@pytest.mark.parametrize("n,d", [(64, 3), (128, 3), (256, 3), (16, 2), (36, 2),
                                 (7, 2), (12, 3), (1, 1)])
def test_balanced_dims_product_and_balance(n, d):
    dims = balanced_dims(n, d)
    assert math.prod(dims) == n
    assert len(dims) == d
    # near-balanced: max/min ratio bounded by the largest prime factor
    assert max(dims) <= n


def test_balanced_dims_cube_for_64():
    assert balanced_dims(64, 3) == (4, 4, 4)


def test_balanced_dims_invalid():
    with pytest.raises(ConfigError):
        balanced_dims(0, 2)
    with pytest.raises(ConfigError):
        balanced_dims(4, 0)


def test_cart_coords_roundtrip():
    g = CartGrid((3, 4, 5))
    for rank in range(g.size):
        assert g.rank_of(g.coords(rank)) == rank


def test_cart_row_major_order():
    g = CartGrid((2, 3))
    assert g.coords(0) == (0, 0)
    assert g.coords(1) == (0, 1)
    assert g.coords(3) == (1, 0)


def test_shift_periodic_wraps():
    g = CartGrid((4,), periodic=True)
    assert g.shift(0, 0, -1) == 3
    assert g.shift(3, 0, +1) == 0


def test_shift_nonperiodic_boundary_none():
    g = CartGrid((4,), periodic=False)
    assert g.shift(0, 0, -1) is None
    assert g.shift(3, 0, +1) is None
    assert g.shift(1, 0, +1) == 2


def test_neighbors_unique():
    g = CartGrid((2, 2), periodic=True)
    n = g.neighbors(0)
    assert len(n) == len(set(n))
    assert 0 not in n


def test_neighbors_interior_count():
    g = CartGrid((5, 5), periodic=False)
    assert len(g.neighbors(12)) == 4  # interior
    assert len(g.neighbors(0)) == 2   # corner


def test_invalid_rank_and_coords():
    g = CartGrid((2, 2))
    with pytest.raises(ConfigError):
        g.coords(4)
    with pytest.raises(ConfigError):
        g.rank_of((2, 0))
    with pytest.raises(ConfigError):
        g.rank_of((0,))


def test_invalid_dims():
    with pytest.raises(ConfigError):
        CartGrid((0, 2))
    with pytest.raises(ConfigError):
        CartGrid(())

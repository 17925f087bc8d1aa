"""Process-grid topology helpers used by the NAS-pattern kernels.

The NAS kernels decompose their domains over 1-D, 2-D or 3-D logical
process grids; these helpers map ranks to grid coordinates and enumerate
neighbors, mirroring ``MPI_Cart_create`` / ``MPI_Cart_shift`` behaviour
(row-major rank ordering, optional periodicity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["CartGrid", "balanced_dims", "is_power_of_two"]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def balanced_dims(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nprocs`` into ``ndims`` near-equal factors (MPI_Dims_create).

    Greedy: repeatedly assign the largest remaining prime factor to the
    smallest dimension.  Deterministic and close to cubic for the process
    counts used in the paper (64, 128, 256).
    """
    if nprocs < 1 or ndims < 1:
        raise ConfigError("nprocs and ndims must be positive")
    dims = [1] * ndims
    remaining = nprocs
    factors: list[int] = []
    f = 2
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return tuple(sorted(dims, reverse=True))


@dataclass(frozen=True)
class CartGrid:
    """A Cartesian process grid with row-major rank ordering."""

    dims: tuple[int, ...]
    periodic: bool = True

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError(f"invalid grid dims {self.dims}")

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of ``rank`` (row-major, last dim fastest)."""
        if not 0 <= rank < self.size:
            raise ConfigError(f"rank {rank} outside grid of size {self.size}")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank_of(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.ndims:
            raise ConfigError("coordinate arity mismatch")
        rank = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ConfigError(f"coordinate {coords} outside grid {self.dims}")
            rank = rank * d + c
        return rank

    def shift(self, rank: int, dim: int, disp: int) -> int | None:
        """Neighbor of ``rank`` displaced by ``disp`` along ``dim``.

        Returns ``None`` at a non-periodic boundary (``MPI_PROC_NULL``).
        """
        coords = list(self.coords(rank))
        c = coords[dim] + disp
        if self.periodic:
            c %= self.dims[dim]
        elif not 0 <= c < self.dims[dim]:
            return None
        coords[dim] = c
        return self.rank_of(tuple(coords))

    def neighbors(self, rank: int) -> list[int]:
        """All distinct ±1 neighbors across every dimension."""
        out: list[int] = []
        for dim in range(self.ndims):
            for disp in (-1, +1):
                n = self.shift(rank, dim, disp)
                if n is not None and n != rank and n not in out:
                    out.append(n)
        return out

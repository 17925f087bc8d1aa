"""MG — multigrid V-cycle communication pattern (NPB MG).

NPB MG solves a 3-D Poisson problem with a V-cycle over a hierarchy of
grids.  Ranks form a 3-D process grid; at hierarchy level ``l`` each rank
exchanges face halos with its ±1 neighbours *at stride ``2^l``* in every
dimension (coarser levels talk to more distant ranks — the widening bands
of the paper's Fig. 8, right), then the cycle walks back down with the
same exchanges.  A norm all-reduce closes each iteration.

The kernel performs a genuine (toy) V-cycle on local blocks — smoothing,
restriction, prolongation — so its output is deterministic and testable,
while the exchange schedule matches MG's.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..errors import ConfigError
from ..simmpi.api import MpiApi
from ..simmpi.topology import CartGrid, balanced_dims
from .base import RankProgram

__all__ = ["MGKernel"]


class MGKernel(RankProgram):
    """3-D multigrid-pattern kernel.

    Parameters
    ----------
    niters:
        Number of V-cycles.
    levels:
        Hierarchy depth; level ``l`` exchanges with neighbours at stride
        ``2^l`` (clamped to the grid extent).
    block:
        Local block edge length (payload sizes shrink with level, like
        MG's coarsening).
    """

    TAG_BASE = 200  # + level * 8 + direction

    def __init__(self, rank: int, size: int, niters: int = 12, levels: int = 3,
                 block: int = 8, compute_time: float = 0.0):
        super().__init__(rank, size)
        self.grid = CartGrid(balanced_dims(size, 3), periodic=True)
        self.levels = levels
        self.compute_time = compute_time
        #: per level, this rank's (direction_id, peer) pairs: the grid never
        #: changes, and every exchange of every V-cycle asks for them
        self._neighbors = [
            self._neighbors_at(rank, 1 << level) for level in range(levels)
        ]
        rng = np.random.default_rng(777 + rank)
        self.state = {
            "it": 0,
            "niters": niters,
            "u": rng.standard_normal(block),
            "norm": 0.0,
        }

    def _neighbors_at(self, rank: int, stride: int) -> list[tuple[int, int]]:
        """(direction_id, peer) pairs for ±stride along each dimension."""
        out = []
        for dim in range(self.grid.ndims):
            if self.grid.dims[dim] == 1:
                continue
            step = stride % self.grid.dims[dim]
            if step == 0:
                step = self.grid.dims[dim] // 2 or 1
            for di, disp in enumerate((-step, +step)):
                peer = self.grid.shift(rank, dim, disp)
                if peer is not None and peer != rank:
                    out.append((dim * 2 + di, peer))
        return out

    def _exchange(self, api: MpiApi, level: int, data: np.ndarray):
        """Face exchange at hierarchy level ``level``; returns neighbour sum."""
        acc = np.zeros_like(data)
        pairs = self._neighbors[level]
        tag = self.TAG_BASE + level * 8
        for d, peer in pairs:
            yield api.send(peer, data.copy(), tag=tag + d)
        for d, peer in pairs:
            # matching receive: my direction d pairs with the peer's
            # opposite direction (d ^ 1)
            other = yield api.recv(peer, tag=tag + (d ^ 1))
            acc += other
        return acc

    def run(self, api: MpiApi) -> Generator[Any, Any, None]:
        st = self.state
        while st["it"] < st["niters"]:
            u = st["u"]
            residues = []
            # downward sweep: smooth + restrict at each level
            for level in range(self.levels):
                halo = yield from self._exchange(api, level, u)
                u = 0.5 * u + 0.5 * halo / max(1, len(self._neighbors[level]))
                residues.append(u)
                u = 0.5 * (u[0::2] + u[1::2]) if len(u) > 1 else u  # restrict
                if self.compute_time:
                    yield api.compute(self.compute_time)
            # upward sweep: prolong + smooth
            for level in range(self.levels - 1, -1, -1):
                u = np.repeat(u, 2)[: len(residues[level])] + residues[level]
                halo = yield from self._exchange(api, level, u)
                u = 0.5 * u + 0.5 * halo / max(1, len(self._neighbors[level]))
                if self.compute_time:
                    yield api.compute(self.compute_time)
            st["u"] = u / (1.0 + np.abs(u).max())  # keep bounded
            st["norm"] = yield from api.allreduce(float(u @ u))
            st["it"] += 1
            yield api.maybe_checkpoint()

    def result(self) -> dict[str, Any]:
        return {"u": self.state["u"], "norm": self.state["norm"]}

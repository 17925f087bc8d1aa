"""Analytic cost model for the substrate's collective algorithms.

Predicts the virtual-time latency of each collective from the point-to-
point model and the algorithm structure documented in
:mod:`repro.simmpi.collectives` (binomial trees, the reduce+bcast
composite, pairwise exchange).  Used to sanity-check the simulator
(prediction vs measurement tests) and to reason about how much of the
Fig. 7 overhead comes from latency-bound collective chains.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..simmpi.network import TimingModel

__all__ = ["CollectiveCost"]


class CollectiveCost:
    """Latency predictions for P ranks under a :class:`TimingModel`.

    Predictions assume an idle network and simultaneous entry — the same
    conditions the prediction-vs-simulation tests create.
    """

    def __init__(self, timing: TimingModel, nprocs: int):
        if nprocs < 1:
            raise ConfigError("need at least one rank")
        self.timing = timing
        self.nprocs = nprocs

    # -- primitives ------------------------------------------------------
    def hop(self, size: int) -> float:
        """One message hop: sender CPU + wire."""
        return self.timing.sender_cpu_time(size) + self.timing.transit_time(size)

    def _tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(self.nprocs))) if self.nprocs > 1 else 0

    # -- collectives -------------------------------------------------------
    def bcast(self, size: int) -> float:
        """Binomial tree: depth ceil(log2 P) sequential hops on the longest
        root-to-leaf path."""
        return self._tree_depth() * self.hop(size)

    def reduce(self, size: int) -> float:
        """Same tree, leaves-to-root."""
        return self._tree_depth() * self.hop(size)

    def allreduce(self, size: int) -> float:
        """reduce to 0 + bcast from 0 (the substrate's composite)."""
        return self.reduce(size) + self.bcast(size)

    def alltoall(self, size: int) -> float:
        """P-1 pairwise rounds; each round costs one hop (sends overlap),
        plus the per-round sender CPU for the round's emission."""
        if self.nprocs == 1:
            return 0.0
        return (self.nprocs - 1) * self.hop(size)

    # -- helpers -----------------------------------------------------------
    def predict(self, name: str, size: int = 8) -> float:
        table = {
            "bcast": self.bcast,
            "reduce": self.reduce,
            "allreduce": self.allreduce,
            "alltoall": self.alltoall,
        }
        if name not in table:
            raise ConfigError(f"no cost model for collective {name!r}")
        return table[name](size)

"""Analytic rollback model for clustered epochs (Section V-E-3).

The paper's pessimistic model: with ``p`` clusters at pairwise-distinct
epochs, the failure of a process makes its whole cluster roll back, plus
every cluster at a *higher* epoch (messages flowing up-epoch are logged,
so lower-epoch clusters are insulated).  With failures evenly distributed
over clusters the expected number of rolled-back clusters is::

    (p + (p-1) + ... + 1) / p  =  (p + 1) / 2

i.e. an expected rolled-back *fraction* of ``(p + 1) / (2 p)`` — 62.5 %
for 4 clusters, 56.25 % for 8, 53.125 % for 16, approaching 50 % as
``p`` grows (the factor-2 reduction over coordinated checkpointing the
title promises).
"""

from __future__ import annotations

import random

__all__ = [
    "expected_rolled_back_clusters",
    "expected_rollback_fraction",
    "rollback_fraction_given_position",
    "monte_carlo_rollback_fraction",
]


def expected_rolled_back_clusters(p: int) -> float:
    """Expected number of clusters to roll back, failures uniform over
    ``p`` clusters (pessimistic whole-cluster model)."""
    if p < 1:
        raise ValueError("need at least one cluster")
    return (p + 1) / 2.0


def expected_rollback_fraction(p: int) -> float:
    """Expected fraction of processes to roll back = ``(p+1) / (2p)``."""
    return expected_rolled_back_clusters(p) / p


def rollback_fraction_given_position(p: int, position: int) -> float:
    """Rollback fraction when the failed cluster is the ``position``-th
    lowest epoch (0-based): clusters at positions ``>= position`` roll
    back → ``(p - position) / p``."""
    if not 0 <= position < p:
        raise ValueError("position out of range")
    return (p - position) / p


def monte_carlo_rollback_fraction(p: int, trials: int = 10000, seed: int = 0) -> float:
    """Monte-Carlo estimate of the same expectation (sanity cross-check,
    and the hook point for non-uniform failure distributions)."""
    rng = random.Random(seed)
    total = 0.0
    for _ in range(trials):
        pos = rng.randrange(p)
        total += rollback_fraction_given_position(p, pos)
    return total / trials


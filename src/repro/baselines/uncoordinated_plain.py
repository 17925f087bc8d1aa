"""Plain uncoordinated checkpointing — the domino-effect baseline.

Section V-E-2 of the paper: uncoordinated checkpoints at random times with
*no* message logging create no consistent cuts in the dependency paths, so
the failure of any process rolls everybody back (and, with unbounded
dependency chains, arbitrarily far — the domino effect).

This baseline is the protocol's configuration with the epoch-crossing
logging rule disabled (``ProtocolConfig(log_cross_epoch=False)``): every
acknowledged message lands in ``SPE``, so the recovery-line fix-point
cascades freely, which is precisely the domino computation.  The offline
analysis (:func:`~repro.analysis.rollback.measure_rollback`, one recorded
run) then reports how many processes roll back and how deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..analysis.rollback import measure_rollback
from ..core.controller import ProtocolConfig
from ..core.recovery import RecoveryLineSolver

__all__ = ["DominoStats", "run_domino_analysis", "plain_uncoordinated_config"]


def plain_uncoordinated_config(
    checkpoint_interval: float,
    jitter: float = 0.5,
    seed: int = 0,
) -> ProtocolConfig:
    """Random-time independent checkpoints, no logging, no clustering —
    the configuration of the paper's Section V-E-2 experiment."""
    return ProtocolConfig(
        checkpoint_interval=checkpoint_interval,
        checkpoint_jitter=jitter,
        checkpoint_seed=seed,
        log_cross_epoch=False,
    )


@dataclass
class DominoStats:
    """Rollback statistics for the plain-uncoordinated baseline."""

    nprocs: int
    mean_rolled_back_fraction: float
    #: mean number of epochs each rolled-back process loses
    mean_rollback_depth: float
    #: fraction of trials in which some process returned to its initial epoch
    restart_from_beginning_fraction: float


def run_domino_analysis(
    nprocs: int,
    program_factory: Callable[[int, int], Any],
    checkpoint_interval: float,
    sample_interval: float,
    jitter: float = 0.5,
    seed: int = 0,
) -> DominoStats:
    """Run a kernel under plain uncoordinated checkpointing and measure the
    domino effect with the paper's offline methodology."""
    cfg = plain_uncoordinated_config(checkpoint_interval, jitter, seed)
    _, snapshots, stats = measure_rollback(nprocs, program_factory, cfg, sample_interval)
    depths: list[float] = []
    hit_beginning = 0
    trials = 0
    for snap in snapshots:
        # one solver per snapshot: the inbound-edge index is shared across
        # all nprocs failure trials instead of being rebuilt per trial
        solver = RecoveryLineSolver(snap.spe_tables)
        for f in range(nprocs):
            rl = solver.solve({f: snap.epochs[f]})
            trials += 1
            if any(epoch <= 1 for epoch, _ in rl.values()):
                hit_beginning += 1
            depths.extend(snap.epochs[r] - e for r, (e, _d) in rl.items())
    return DominoStats(
        nprocs=nprocs,
        mean_rolled_back_fraction=stats.mean_fraction,
        mean_rollback_depth=float(np.mean(depths)) if depths else 0.0,
        restart_from_beginning_fraction=hit_beginning / trials if trials else 0.0,
    )

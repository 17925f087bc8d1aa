"""Communication-induced checkpointing (CIC) baseline.

Related-work comparison (paper Section VI, [2][3]): index-based CIC à la
Briatico/Ciuffoletti/Simoncini avoids the domino effect without
coordination by piggybacking a checkpoint index on every message and
**forcing** a checkpoint whenever a message with a larger index arrives
(before delivering it).  The recovery line `index = i` is then always
consistent.

The well-known drawback (the analysis of Alvisi et al. [2] the paper
cites) is the *forced-checkpoint amplification*: processes checkpoint far
more often than their local (basic) schedule asks for, and the effect
worsens with scale.  This implementation measures exactly that:
``forced_checkpoints`` vs ``basic_checkpoints`` per rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.checkpoint import CheckpointSchedule
from ..core.controller import Controller
from ..simmpi.message import Envelope
from ..simmpi.process import ProtocolHook

__all__ = ["CICConfig", "CICHook", "CICController"]


@dataclass
class CICConfig:
    """Basic (local-timer) checkpoint policy for the CIC baseline."""

    checkpoint_interval: float
    rank_stagger: float = 0.0


class CICHook(ProtocolHook):
    """Index-based CIC participant.

    A *basic* checkpoint fires on the local timer at checkpoint
    opportunities; a *forced* checkpoint fires immediately (conceptually
    before delivery) when a message carries a larger index.  Forced
    checkpoints here snapshot protocol state only — the baseline exists to
    count checkpoints, not to run recovery (its controller inherits the
    shared wiring and the refusing default ``on_failures``).
    """

    def __init__(self, rank: int, controller: "CICController"):
        self.rank = rank
        self.controller = controller
        self.index = 0
        self.basic_checkpoints = 0
        self.forced_checkpoints = 0
        cfg = controller.config
        self.schedule = CheckpointSchedule(cfg.checkpoint_interval,
                                           offset=cfg.rank_stagger * rank)

    # --- message paths ---------------------------------------------------
    def on_app_send(self, env: Envelope) -> None:
        env.meta["cic_index"] = self.index

    def on_message(self, env: Envelope) -> bool:
        msg_index = env.meta.get("cic_index", 0)
        if msg_index > self.index:
            # forced checkpoint before delivery: jump to the message index
            self.index = msg_index
            self.forced_checkpoints += 1
        return True

    # --- basic (timer) checkpoints ------------------------------------------
    def checkpoint_due(self) -> bool:
        return self.schedule.due(self.world.engine.now)

    def on_checkpoint(self) -> None:
        self.schedule.mark_taken(self.world.engine.now)
        self.index += 1
        self.basic_checkpoints += 1


class CICController(Controller):
    """Aggregates per-rank CIC checkpoint counts."""

    def __init__(self, nprocs: int, config: CICConfig):
        super().__init__(nprocs, config)
        self.hooks = [CICHook(r, self) for r in range(nprocs)]

    def stats(self) -> dict[str, float]:
        basic = sum(h.basic_checkpoints for h in self.hooks)
        forced = sum(h.forced_checkpoints for h in self.hooks)
        return {
            "basic_checkpoints": basic,
            "forced_checkpoints": forced,
            "amplification": (basic + forced) / basic if basic else float("inf"),
        }


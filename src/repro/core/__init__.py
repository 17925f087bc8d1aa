"""``repro.core`` — the paper's contribution.

Uncoordinated checkpointing without domino effect for send-deterministic
applications: per-process protocol (Fig. 3), recovery process (Fig. 4),
epoch-crossing partial message logging, process clustering with staggered
epochs (Section V-E-3) and garbage collection (Section III-A-4).
"""

from .checkpoint import (Checkpoint, CheckpointSchedule, CheckpointStore,
                         ProcessImage, restart_rank)
from .controller import (Controller, FTController, ProtocolConfig,
                         build_ft_world, build_world)
from .protocol import SDProtocol, Status
from .recovery import RecoveryProcess, RecoveryReport, compute_recovery_line
from .state import EpochRecord, ProtocolState, SentMessage

__all__ = [
    "Checkpoint",
    "CheckpointSchedule",
    "CheckpointStore",
    "ProcessImage",
    "restart_rank",
    "Controller",
    "FTController",
    "ProtocolConfig",
    "build_world",
    "build_ft_world",
    "SDProtocol",
    "Status",
    "RecoveryProcess",
    "RecoveryReport",
    "compute_recovery_line",
    "EpochRecord",
    "ProtocolState",
    "SentMessage",
]

"""``repro.baselines`` — the protocols the paper compares against.

Each is a :class:`~repro.simmpi.process.ProtocolHook` plus a recovery
policy on a :class:`~repro.core.controller.Controller` subclass, built
with ``repro.core.build_world(SomeController(nprocs, config), factory)``.
Process images, rank restart, the periodic-checkpoint timer and the
failure wiring are the paper's protocol's own (``repro.core.checkpoint``,
``repro.core.controller``), not re-implemented here.

* :mod:`repro.baselines.coordinated` — blocking coordinated
  checkpointing (global restart; the "100 % rollback" reference).
* :mod:`repro.baselines.pessimistic_log` — pessimistic sender-based
  message logging (restart one process; logs 100 % of messages).
* :mod:`repro.baselines.uncoordinated_plain` — plain uncoordinated
  checkpointing (domino effect, Section V-E-2).
* :mod:`repro.baselines.cic` — index-based communication-induced
  checkpointing (forced-checkpoint amplification, Section VI).
"""

from .cic import CICConfig, CICController
from .coordinated import CLConfig, CLController
from .pessimistic_log import PMLConfig, PMLController
from .uncoordinated_plain import (
    DominoStats,
    plain_uncoordinated_config,
    run_domino_analysis,
)

__all__ = [
    "CICConfig", "CICController",
    "CLConfig", "CLController",
    "PMLConfig", "PMLController",
    "DominoStats", "plain_uncoordinated_config", "run_domino_analysis",
]

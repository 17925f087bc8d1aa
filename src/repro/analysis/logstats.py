"""Message-logging statistics — the ``%log`` column of Table I.

The simulator counts actual logging decisions (a message is logged when
its acknowledgement reveals an epoch crossing, Fig. 3 lines 36-37), so the
numbers here are measured, not predicted; the clustering module's
:meth:`~repro.core.clustering.Clustering.predicted_log_fraction` gives the
analytic inter-cluster component for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.controller import FTController

__all__ = ["LogStats", "collect_log_stats"]


@dataclass(frozen=True)
class LogStats:
    messages_total: int
    messages_logged: int
    bytes_total: int
    bytes_logged: int

    @property
    def fraction(self) -> float:
        return self.messages_logged / self.messages_total if self.messages_total else 0.0

    @property
    def percent(self) -> float:
        """The paper's ``%log`` column."""
        return 100.0 * self.fraction


def collect_log_stats(controller: FTController) -> LogStats:
    assert controller.world is not None
    tracer = controller.world.tracer
    return LogStats(
        messages_total=tracer.total_app_messages(),
        messages_logged=sum(p.messages_logged for p in controller.protocols),
        bytes_total=int(tracer.msg_bytes.sum()),
        bytes_logged=sum(p.bytes_logged for p in controller.protocols),
    )

"""ASCII timelines of executions: checkpoints, failures, restores.

Renders the tracer's marks as one lifeline per rank — the quickest way to
*see* a recovery: where the uncoordinated checkpoints fell, which ranks a
failure dragged back, and how far.

Example output::

    rank 0 |----c--------c----------c--------------------|
    rank 1 |----c--------c----X r===c=====================|
    rank 2 |------c--------c--- r===c=====================|

    c checkpoint   X failure   r restore   = re-execution
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..simmpi.trace import Tracer

__all__ = ["Timeline", "render_timeline"]

_LEGEND = "c checkpoint   X failure   r restore   = re-execution   - execution"


@dataclass
class Timeline:
    """Per-rank event rows extracted from a tracer."""

    nprocs: int
    duration: float
    #: rank -> list of (time, symbol)
    marks: dict[int, list[tuple[float, str]]]

    @staticmethod
    def from_tracer(tracer: Tracer, duration: float) -> "Timeline":
        marks: dict[int, list[tuple[float, str]]] = {
            r: [] for r in range(tracer.nprocs)
        }
        symbol = {"checkpoint": "c", "failure": "X", "restore": "r"}
        for kind, time, rank, _detail in tracer.marks:
            marks[rank].append((time, symbol[kind]))
        return Timeline(tracer.nprocs, duration, marks)

    def recovery_spans(self, rank: int) -> list[tuple[float, float]]:
        """(restore time, end estimate) pairs — used to shade re-execution.

        The span closes at the next mark of the rank or the run's end.
        """
        spans = []
        row = sorted(self.marks[rank])
        for i, (t, s) in enumerate(row):
            if s == "r":
                end = row[i + 1][0] if i + 1 < len(row) else self.duration
                spans.append((t, end))
        return spans


def render_timeline(tracer: Tracer, duration: float, width: int = 72) -> str:
    """Render the timeline as fixed-width ASCII art."""
    tl = Timeline.from_tracer(tracer, duration)
    if duration <= 0:
        raise ConfigError("duration must be positive")
    scale = (width - 1) / duration

    def col(t: float) -> int:
        return min(width - 1, max(0, int(t * scale)))

    lines = []
    for rank in range(tl.nprocs):
        row = ["-"] * width
        for start, end in tl.recovery_spans(rank):
            for i in range(col(start), col(end) + 1):
                row[i] = "="
        for t, s in sorted(tl.marks[rank]):
            row[col(t)] = s
        lines.append(f"rank {rank:>3} |{''.join(row)}|")
    lines.append("")
    lines.append(_LEGEND)
    return "\n".join(lines)

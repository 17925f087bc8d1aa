"""Rank-program contract for send-deterministic applications.

A :class:`RankProgram` is a restartable, send-deterministic SPMD program:

* ``run(api)`` is a generator producing simulator ops; it must *resume*
  from whatever position the program state describes, so that restoring a
  snapshot and calling ``run`` again re-executes from the checkpoint;
* ``snapshot()`` returns a deep, picklable copy of the full program state;
* ``restore(state)`` reinstates a snapshot (the state object passed in is
  owned by the checkpoint store — implementations must copy it).

Send-determinism contract (paper Section II-A): for a fixed configuration,
the sequence of messages each rank sends must be identical in every correct
execution, regardless of the order in which non-causally-related messages
are delivered.  Programs therefore must not branch on reception *order*
(branching on received *values* is fine when the values themselves are
deterministic), must not read wall-clock time, and must draw randomness
only from seeded generators stored in their state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generator

from ..simmpi.api import MpiApi
from ..simmpi.message import retention_copy

__all__ = ["RankProgram"]


class RankProgram(ABC):
    """Base class for simulated rank programs.

    Subclasses keep *all* mutable execution state in ``self.state`` (a dict
    or dataclass) so the default ``snapshot``/``restore`` work; programs
    with bespoke state layouts override both.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self.state: dict[str, Any] = {}

    @abstractmethod
    def run(self, api: MpiApi) -> Generator[Any, Any, None]:
        """The program body; must resume from ``self.state``."""

    def snapshot(self) -> Any:
        """Deep copy of the program state (application-level checkpoint),
        :func:`~repro.simmpi.message.retention_copy`'s typed walk of it."""
        return retention_copy(self.state)

    def restore(self, state: Any) -> None:
        """Reinstate a snapshot taken by :meth:`snapshot`."""
        self.state = retention_copy(state)

    # Convenience for result collection in tests/benchmarks -------------
    def result(self) -> Any:
        """The program's final output (kernel-specific; default: state)."""
        return self.state


"""Rank-facing MPI-like API.

An :class:`MpiApi` instance is handed to every rank program.  Point-to-point
operations return *op objects* that the program must ``yield``; collective
operations are generator functions used with ``yield from``::

    def run(self, api):
        yield api.send(1, data, tag=7)
        x = yield api.recv(src=0, tag=7)
        total = yield from api.allreduce(x)
        yield api.maybe_checkpoint()

This mirrors mpi4py's lower-case pickle-based interface (``send``/``recv``/
``bcast``/...) while staying inside the discrete-event simulator.
"""

from __future__ import annotations

from typing import Any

from .message import ANY_SOURCE, ANY_TAG
from . import collectives as _coll
from .process import CheckpointOp, ComputeOp, NowOp, RecvOp, SendOp

__all__ = ["MpiApi", "ANY_SOURCE", "ANY_TAG"]


class MpiApi:
    """The communication interface a rank program sees.

    Attributes
    ----------
    rank, size:
        This process's rank and the world size, as in ``MPI_Comm_rank`` /
        ``MPI_Comm_size`` on ``MPI_COMM_WORLD``.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        # Per-rank collective instance counter.  All kernels are SPMD and
        # call collectives in the same order on every rank, so the counter
        # is globally consistent and keeps concurrent collectives from
        # matching each other's traffic.
        self._coll_seq = 0

    # ------------------------------------------------------------------
    # Point-to-point (yield the returned op)
    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any, tag: int = 0, size: int = 0) -> SendOp:
        """Blocking buffered send."""
        return SendOp(dst, payload, tag, size)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvOp:
        """Blocking receive; yields the payload."""
        return RecvOp(src, tag)

    # ------------------------------------------------------------------
    # Local operations
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> ComputeOp:
        """Model a local computation lasting ``seconds`` of virtual time."""
        return ComputeOp(seconds)

    def now(self) -> NowOp:
        """Yields the current virtual time (for app-level instrumentation)."""
        return NowOp()

    def checkpoint(self) -> CheckpointOp:
        """Unconditionally take a checkpoint at this point."""
        return CheckpointOp(force=True)

    def maybe_checkpoint(self) -> CheckpointOp:
        """Offer a checkpoint opportunity; the protocol's schedule decides."""
        return CheckpointOp(force=False)

    # ------------------------------------------------------------------
    # Collectives (use with ``yield from``)
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        # stride 2: composite collectives (allreduce = reduce + bcast) use
        # ``tag`` and ``tag - 1``, so instances must not be adjacent.
        self._coll_seq += 2
        return _coll.collective_tag(self._coll_seq)

    def bcast(self, value: Any = None, root: int = 0):
        return _coll.bcast(self, value, root, self._next_coll_tag())

    def reduce(self, value: Any, op=None, root: int = 0):
        return _coll.reduce(self, value, op, root, self._next_coll_tag())

    def allreduce(self, value: Any, op=None):
        return _coll.allreduce(self, value, op, self._next_coll_tag())

    def alltoall(self, values: list[Any]):
        return _coll.alltoall(self, values, self._next_coll_tag())

"""Collective operations built over point-to-point messages.

Every collective is a *generator function* used by rank programs through
``yield from``.  The algorithms are fixed and data-independent, so all
collectives are send-deterministic by construction (the same sequence of
point-to-point sends happens in every correct execution) — which is the
property the paper's protocol requires of the application layer.

Algorithms
----------
* ``bcast`` / ``reduce`` — binomial trees rooted at ``root`` (log2 P steps).
* ``allreduce`` — reduce to rank 0 + broadcast; this trades a little
  latency for simplicity and strict determinism.
* ``alltoall`` — linear pairwise exchange ``(rank + i) mod P``; buffered
  sends make it deadlock-free.

Tags: each collective *instance* gets its own reserved tag (negative, below
:data:`~repro.simmpi.message.COLLECTIVE_TAG_BASE`) derived from a per-rank
sequence counter; SPMD programs call collectives in the same order on every
rank, so the counters agree globally and concurrent instances never match
each other's traffic.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, TYPE_CHECKING

from .message import COLLECTIVE_TAG_BASE, CONTROL_TAG_BASE

if TYPE_CHECKING:  # pragma: no cover
    from .api import MpiApi

__all__ = ["collective_tag", "bcast", "reduce", "allreduce", "alltoall"]

#: number of distinct collective tags before the counter wraps
_TAG_SPACE = -(CONTROL_TAG_BASE - COLLECTIVE_TAG_BASE) - 16


def collective_tag(seq: int) -> int:
    """Reserved tag for collective instance ``seq`` (wraps in the tag space)."""
    return COLLECTIVE_TAG_BASE - (seq % _TAG_SPACE)


def _resolve_op(op: Callable[[Any, Any], Any] | None) -> Callable[[Any, Any], Any]:
    return operator.add if op is None else op


# ----------------------------------------------------------------------
def bcast(api: "MpiApi", value: Any, root: int, tag: int):
    """Binomial-tree broadcast; every rank returns the root's value."""
    rank, size = api.rank, api.size
    if size == 1:
        return value
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = ((vrank - mask) + root) % size
            value = yield api.recv(src, tag)
            break
        mask <<= 1
    # after the loop, ``mask`` is the level this rank received at (or the
    # first power of two >= size for the root); children are vrank + m for
    # every power of two m below that level.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            yield api.send(dst, value, tag)
        mask >>= 1
    return value


def reduce(api: "MpiApi", value: Any, op, root: int, tag: int):
    """Binomial-tree reduction; the root returns the combined value."""
    rank, size = api.rank, api.size
    combine = _resolve_op(op)
    if size == 1:
        return value
    vrank = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if (vrank & mask) == 0:
            peer = vrank | mask
            if peer < size:
                other = yield api.recv((peer + root) % size, tag)
                acc = combine(acc, other)
        else:
            parent = vrank & ~mask
            yield api.send((parent + root) % size, acc, tag)
            return None
        mask <<= 1
    return acc if rank == root else None


def allreduce(api: "MpiApi", value: Any, op, tag: int):
    """Reduce to rank 0 then broadcast; every rank returns the result."""
    acc = yield from reduce(api, value, op, 0, tag)
    result = yield from bcast(api, acc, 0, tag - 1 if tag - 1 > CONTROL_TAG_BASE else tag)
    return result


def alltoall(api: "MpiApi", values: list[Any], tag: int):
    """Pairwise exchange; rank ``i`` returns ``[v_0[i], ..., v_{P-1}[i]]``.

    Round ``i`` sends to ``(rank + i) mod P`` and receives from
    ``(rank - i) mod P``; buffered sends keep the rounds deadlock-free.
    """
    rank, size = api.rank, api.size
    if len(values) != size:
        raise ValueError("alltoall needs one value per rank")
    out: list[Any] = [None] * size
    out[rank] = values[rank]
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        yield api.send(dst, values[dst], tag)
        out[src] = yield api.recv(src, tag)
    return out

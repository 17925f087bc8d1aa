"""Offline rollback analysis — the paper's Table I methodology (Sec. V-E-1).

    "To compute the number of processes to roll back, the SPE table of all
    processes is saved every 30 s during the execution.  We analyze these
    data offline and run the recovery protocol: for each version of SPE,
    we compute the rollbacks that would be induced by the failure of each
    process.  Then, we can compute an estimation of the average number of
    processes to roll back in the event of a failure."

:class:`SpeSampler` attaches to a live controller and snapshots every
rank's SPE table at a fixed virtual period; :func:`rollback_analysis`
computes, per snapshot, the size of the recovery line of every failed rank
and aggregates the statistics the paper reports (``%rl``);
:func:`measure_rollback` is the whole method in one call.

The p fix-points of one snapshot are one reachability problem.  Take nodes
``(j, b)`` = "rank j restarts at an epoch <= b", one per distinct sending
epoch of an SPE edge plus each failed rank's current epoch.  ``(j, b)``
implies ``(k, epoch_send)`` for every non-logged message ``k -> j`` whose
``epoch_recv >= b`` (Fig. 4 lines 9-16), and j's next-higher node, whose
edge set is a subset of its own — so each edge is stored once, at the
highest node it applies to.  The recovery line of "f fails in epoch e" is
the ranks of the nodes reachable from ``(f, e)``, and ``%rl`` needs only
how many.  Strongly connected nodes reach the same set, so one Tarjan pass
condenses them and ORs rank bitsets (Python ints) up the condensation:
O((nodes + edges) * p/64) word operations per snapshot for all p failures.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..core.controller import FTController, ProtocolConfig, build_ft_world
from ..core.recovery import RecoveryLineSolver
from ..lint.sanitize import sanitizer_for

__all__ = ["SpeSnapshot", "SpeSampler", "RollbackStats", "rollback_analysis", "measure_rollback"]


@dataclass
class SpeSnapshot:
    """All ranks' SPE tables + current epochs at one instant.  Read-only:
    consecutive snapshots share the epoch entries that did not change."""

    time: float
    spe_tables: dict[int, dict]  # rank -> spe export
    epochs: dict[int, int]       # rank -> current epoch (= latest ckpt epoch)


class SpeSampler:
    """Periodically snapshots the SPE tables of a running world."""

    def __init__(self, controller: FTController, interval: float):
        self.controller = controller
        self.interval = interval
        self.snapshots: list[SpeSnapshot] = []

    def arm(self) -> None:
        assert self.controller.world is not None
        self.controller.world.engine.schedule_at(self.interval, self._tick)

    def _tick(self) -> None:
        assert self.controller.world is not None
        if self.controller.world.all_done:
            return  # stop the timer or the event queue never drains
        self.take()
        self.controller.world.engine.schedule(self.interval, self._tick)

    def take(self) -> SpeSnapshot:
        """Record one snapshot immediately."""
        ctl = self.controller
        prev = self.snapshots[-1].spe_tables if self.snapshots else {}
        snap = SpeSnapshot(
            time=ctl.now,
            spe_tables={r: p.state.spe_export(prev.get(r))
                        for r, p in enumerate(ctl.protocols)},
            epochs={r: p.state.epoch for r, p in enumerate(ctl.protocols)},
        )
        self.snapshots.append(snap)
        return snap


@dataclass
class RollbackStats:
    """Aggregated rollback statistics over (snapshot × failed rank) trials."""

    nprocs: int
    trials: int
    #: rolled-back process count for each trial
    counts: list[int] = field(default_factory=list)
    #: per failed rank: mean rolled-back count across snapshots
    per_rank_mean: dict[int, float] = field(default_factory=dict)

    @property
    def mean_count(self) -> float:
        return float(np.mean(self.counts)) if self.counts else 0.0

    @property
    def mean_fraction(self) -> float:
        return self.mean_count / self.nprocs if self.nprocs else 0.0

    @property
    def percent(self) -> float:
        """The paper's ``%rl`` column."""
        return 100.0 * self.mean_fraction


def _closure_counts(
    spe_tables: dict[int, dict],
    epochs: dict[int, int],
    failed_ranks: list[int],
) -> list[int]:
    """Recovery-line size of "f restarts at ``epochs[f]``" for every f in
    ``failed_ranks``, in argument order (see the module docstring)."""
    node_of: dict[int, dict[int, int]] = {}  # rank -> {bound: node}
    rank_bit: dict[int, int] = {}            # rank ids may be sparse
    bit: list[int] = []                      # node -> its rank's bit
    # receiver -> [(epoch_recv, node of the sender's epoch_send)]
    inbound: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)

    def node(rank: int, bound: int) -> int:
        nid = node_of.setdefault(rank, {}).setdefault(bound, len(bit))
        if nid == len(bit):  # new
            bit.append(rank_bit.setdefault(rank, 1 << len(rank_bit)))
        return nid

    for k, spe in spe_tables.items():
        for epoch_send, (_start, per_peer) in spe.items():
            if not per_peer:
                continue
            nid = node(k, epoch_send)
            for j, epoch_recv in per_peer.items():
                inbound[j].append((epoch_recv, nid))
    roots = [node(f, epochs[f]) for f in failed_ranks]

    # successors: walking j's nodes from the highest bound down, each takes
    # a link to the node above plus the inbound edges its bound newly exposes
    succ: list[list[int]] = [[] for _ in bit]
    for j, ids in node_of.items():
        edges = sorted(inbound.get(j, ()))  # consumed from the high end
        above: list[int] = []
        for bound in sorted(ids, reverse=True):
            out = succ[ids[bound]]
            out += above
            while edges and edges[-1][0] >= bound:
                out.append(edges.pop()[1])
            above = [ids[bound]]

    # iterative Tarjan.  Components close in reverse topological order, so
    # when one closes every successor outside it already holds its final
    # bitset; ``closure[v] == 0`` doubles as "v is still on the stack", and
    # a node's 1-based stack position serves as its discovery number (only
    # nodes that are on the stack together are ever compared).
    order = [0] * len(bit)   # 0 = unseen
    low = order[:]
    closure = order[:]       # node -> bitset of reached ranks
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []

    def visit(v: int) -> None:
        stack.append(v)
        order[v] = low[v] = len(stack)
        work.append((v, iter(succ[v])))

    for root in roots:
        if not order[root]:
            visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if not order[w]:
                    visit(w)
                    break
                if not closure[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:  # v roots a component: pop it
                    members = stack[order[v] - 1:]
                    del stack[order[v] - 1:]
                    bits = 0
                    for w in members:
                        bits |= bit[w]
                        for x in succ[w]:
                            bits |= closure[x]
                    for w in members:
                        closure[w] = bits
    return [closure[r].bit_count() for r in roots]


def rollback_analysis(
    snapshots: list[SpeSnapshot],
    nprocs: int,
    failed_ranks: list[int] | None = None,
) -> RollbackStats:
    """Run the recovery protocol offline for every (snapshot, failure).

    A failed process restarts at its latest checkpoint, i.e. the beginning
    of its current epoch; every rank appearing in the resulting recovery
    line rolls back (including the failed one).
    """
    ranks = list(range(nprocs)) if failed_ranks is None else failed_ranks
    stats = RollbackStats(nprocs=nprocs, trials=len(snapshots) * len(ranks))
    san = sanitizer_for()
    # The closure scratch is acyclic and freed by reference count, but its
    # container allocations alone schedule a full collection of the
    # simulator's heap (0.4 s of 0.8 s at 4096 ranks): pause the collector.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for snap in snapshots:
            counts = _closure_counts(snap.spe_tables, snap.epochs, ranks)
            if san is not None:
                # the closure against the Fig. 4 fix-point on ~32 ranks
                solver = RecoveryLineSolver(snap.spe_tables)
                for i in range(0, len(ranks), max(1, len(ranks) // 32)):
                    line = solver.solve({ranks[i]: snap.epochs[ranks[i]]})
                    san.rollback_closure(snap.time, ranks[i], counts[i], len(line))
            stats.counts.extend(counts)
    finally:
        if gc_was_enabled:
            gc.enable()
    # sums of small ints are exact: same floats as np.mean rank by rank
    means = (np.reshape(stats.counts, (len(snapshots), len(ranks))).mean(axis=0)
             if snapshots else np.zeros(len(ranks)))
    stats.per_rank_mean = dict(zip(ranks, means.tolist()))
    return stats


def measure_rollback(
    nprocs: int, program_factory: Callable[[int, int], Any], config: ProtocolConfig,
    period: float, **world_kwargs: Any,
) -> tuple[dict[str, float], list[SpeSnapshot], RollbackStats]:
    """Sec. V-E-1 end to end: run ``program_factory`` failure-free under
    ``config`` (``world_kwargs`` go to :func:`build_ft_world`), snapshot every
    SPE table each ``period`` of virtual time (once at the end if the run is
    shorter) and fail every rank in every snapshot.  Returns the run's
    ``logging_stats()`` (``%log``), the snapshots and their ``%rl`` statistics."""
    world, controller = build_ft_world(nprocs, program_factory, config, **world_kwargs)
    with closing(controller):
        sampler = SpeSampler(controller, period)
        sampler.arm()
        world.launch()
        world.run()
        if not sampler.snapshots:
            sampler.take()
    return (controller.logging_stats(), sampler.snapshots,
            rollback_analysis(sampler.snapshots, nprocs))

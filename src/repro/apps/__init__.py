"""``repro.apps`` — send-deterministic mini-kernels.

Five NAS-pattern kernels (CG, MG, FT, LU, BT/SP — the Table I set), generic
stencils and the NetPIPE-style ping-pong of Fig. 6.  Every kernel follows
the :class:`~repro.apps.base.RankProgram` contract: restartable from a
snapshot and send-deterministic by construction.

:data:`KERNELS` is the one catalogue of how to run them: Table I, the
chaos campaign, ``repro certify --dynamic`` and the tests all read it.
"""

from dataclasses import dataclass
from typing import Callable

from .base import RankProgram
from .bt import ADIKernel, BTKernel
from .cg import CGKernel, cg_grid
from .ft import FTKernel
from .is_sort import ISKernel
from .lu import LUKernel
from .mg import MGKernel
from .pingpong import DEFAULT_SIZES, PingPong
from .reduce_tree import ReduceTreeKernel
from .sp import SPKernel
from .stencil import Stencil1D, Stencil2D


@dataclass(frozen=True)
class KernelEntry:
    """How to run one kernel class.  Payloads are kept small: chaos buys
    coverage with many runs, not big runs."""

    cls: type
    #: rank counts it runs at; a chaos trial draws one in this order
    ranks: tuple[int, ...]
    make: Callable[[int], Callable[[int, int], RankProgram]]  # niters -> factory
    #: a row of the paper's Table I, named by its upper-cased key
    table1: bool = False
    #: ``result()`` reports virtual-time measurements (latency), which
    #: legitimately change once a recovery stretches the clock — the
    #: validity oracle then checks send sequences/contents only
    timing_result: bool = False
    #: the rank count ``certify --dynamic`` runs at (0: the smallest)
    certify_ranks: int = 0


#: one entry per kernel class, keyed by the name chaos schedules use
KERNELS: dict[str, KernelEntry] = {
    "mg": KernelEntry(MGKernel, (4, 8), lambda n: lambda r, s: MGKernel(
        r, s, niters=n // 4, levels=2, block=4), table1=True),
    "lu": KernelEntry(LUKernel, (4, 6), lambda n: lambda r, s: LUKernel(
        r, s, niters=max(2, n // 4), nblocks=3, block=4), table1=True),
    "ft": KernelEntry(FTKernel, (4, 8), lambda n: lambda r, s: FTKernel(
        r, s, niters=n, slab=2), table1=True),
    "cg": KernelEntry(CGKernel, (4, 8), lambda n: lambda r, s: CGKernel(
        r, s, niters=n, block=4), table1=True),
    "bt": KernelEntry(BTKernel, (4, 9), lambda n: lambda r, s: BTKernel(
        r, s, niters=n, block=4), table1=True),
    "sp": KernelEntry(SPKernel, (4, 9), lambda n: lambda r, s: SPKernel(
        r, s, niters=n // 4, block=4)),
    "adi": KernelEntry(ADIKernel, (4, 9), lambda n: lambda r, s: ADIKernel(
        r, s, niters=n, block=4)),
    "is": KernelEntry(ISKernel, (4, 8), lambda n: lambda r, s: ISKernel(
        r, s, niters=n // 4, keys_per_rank=32, max_key=1 << 10)),
    "stencil": KernelEntry(Stencil1D, (4, 5, 6, 8), lambda n: lambda r, s:
                           Stencil1D(r, s, niters=n, cells=4)),
    "stencil2d": KernelEntry(Stencil2D, (4, 6, 8), lambda n: lambda r, s:
                             Stencil2D(r, s, niters=n, block=3)),
    "reduce": KernelEntry(ReduceTreeKernel, (4, 6, 8), lambda n: lambda r, s:
                          ReduceTreeKernel(r, s, niters=n), certify_ranks=6),
    "pingpong": KernelEntry(PingPong, (2, 4), lambda n: lambda r, s: PingPong(
        r, s, sizes=[64, 1024, 8192], reps=max(2, n // 8)),
        timing_result=True),
}

#: the pool a chaos campaign draws from when no kernels are named; adding
#: a name moves the draws of every committed (seed, trial)
CHAOS_POOL = ("cg", "lu", "pingpong", "reduce", "stencil", "stencil2d")

#: the Table I kernel set, keyed the way the paper's rows are
TABLE1_KERNELS = {name.upper(): e.cls for name, e in KERNELS.items()
                  if e.table1}

__all__ = [
    "RankProgram",
    "ADIKernel",
    "BTKernel",
    "CGKernel",
    "cg_grid",
    "FTKernel",
    "ISKernel",
    "LUKernel",
    "MGKernel",
    "PingPong",
    "ReduceTreeKernel",
    "DEFAULT_SIZES",
    "SPKernel",
    "Stencil1D",
    "Stencil2D",
    "CHAOS_POOL",
    "KERNELS",
    "KernelEntry",
    "TABLE1_KERNELS",
]

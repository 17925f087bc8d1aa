"""Seeded random failure schedules for the chaos campaign.

A :class:`TrialSchedule` is the complete, JSON-able description of one
chaos trial: which app kernel runs, at what scale, under which protocol
configuration axes (clustering, checkpoint jitter, epoch-crossing
logging), and which fail-stop failures hit it — varied in rank,
multiplicity, placement in virtual time *and* logical placement
(``after_sends``, during the post-failure network drain, during an
in-flight recovery round, immediately after a restore).

Schedules are generated from a seed with :func:`generate_schedule`; the
campaign derives per-trial seeds with the same keyed blake2b scheme as
:func:`repro.sweep.task_seed`, so trial ``i`` of campaign seed ``S`` is
identical across processes, worker counts and interpreter invocations.
Everything here is pure data + a seeded :class:`random.Random` — no
simulation — which is what lets the shrinker rewrite schedules freely and
re-run them through :func:`repro.chaos.trial.run_trial_schedule`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Callable

from .. import campaigns
from ..apps import CHAOS_POOL, KERNELS
from ..core.clustering import block_clusters
from ..errors import ConfigError

__all__ = [
    "FailureSpec",
    "TrialSchedule",
    "PLACEMENT_KINDS",
    "SYNTHETIC_BUGS",
    "generate_schedule",
    "schedule_from_json",
    "with_failures",
]

#: logical placements of one failure event.  ``at`` is an absolute point
#: (fraction of the failure-free horizon); the window kinds anchor to the
#: previous event's absolute time, landing in the drain window, inside the
#: recovery round, or right after the restored ranks resume.
PLACEMENT_KINDS = ("at", "drain", "recovery", "restored", "after_sends")

#: anchor offset windows (virtual seconds) for the relative placements;
#: a drain lasts until the last in-flight message lands (a few 1e-6 s) and
#: a recovery round spans ~1e-5..1e-4 s at campaign scale, so the three
#: windows straddle the round's phases.
_WINDOWS = {
    "drain": (1e-7, 3e-6),
    "recovery": (3e-6, 6e-5),
    "restored": (6e-5, 3e-4),
}


#: available synthetic protocol bugs (shrinker self-test / harness
#: self-validation); each entry documents what the bug breaks
SYNTHETIC_BUGS = {
    "ack_drop": ("sender treats every 3rd acknowledgement as cumulative, "
                 "dropping every outstanding NonAck record for that peer"),
    "log_drop": "sender-based log loses every 2nd logged message",
    "restore_corrupt": "restored app state is perturbed by 1e-3",
}


def check_bug(bug: str) -> None:
    """Refuse a synthetic bug name :data:`SYNTHETIC_BUGS` lacks ("" is none)."""
    if bug and bug not in SYNTHETIC_BUGS:
        raise ConfigError(f"unknown synthetic bug {bug!r} "
                          f"(have {sorted(SYNTHETIC_BUGS)})")


_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def _from_json(cls: type, data: dict[str, Any], **rest: Any) -> Any:
    """``cls`` from its ``to_json`` dict: every scalar field present is
    coerced to its declared type, a missing one keeps the dataclass
    default — the fields and defaults are stated once, on the class.  A
    key that names no field is refused: a typo, or a dump from a version
    with other axes, would otherwise replay a different trial."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return cls(**rest, **{
        f.name: _SCALARS[f.type](data[f.name])
        for f in fields(cls) if f.type in _SCALARS and f.name in data
    })


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled fail-stop failure inside a trial.

    ``frac`` is used by ``at`` (fraction of the horizon); ``delta`` by the
    anchored kinds (offset after the previous event's absolute time);
    ``nsends`` by ``after_sends`` (kill after the Nth application send,
    resolved modulo the rank's actual send count at trial time).
    """

    rank: int
    kind: str = "at"
    frac: float = 0.5
    delta: float = 0.0
    nsends: int = 0

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class TrialSchedule:
    """Everything one chaos trial needs, as plain data."""

    seed: int
    kernel: str = "stencil"
    nprocs: int = 6
    niters: int = 24
    clusters: int = 1
    checkpoint_interval: float = 2e-5
    checkpoint_jitter: float = 0.0
    checkpoint_seed: int = 0
    log_cross_epoch: bool = True
    cluster_stagger: float = 0.0
    rank_stagger: float = 2e-6
    #: run a deferred garbage-collection pass every ``gc_frac`` of the
    #: horizon (0 disables) — exercises the mid-round GC guard
    gc_frac: float = 0.0
    failures: tuple[FailureSpec, ...] = ()
    #: synthetic protocol bug to plant (shrinker self-test; "" = none)
    bug: str = ""

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown chaos kernel {self.kernel!r}")
        if self.nprocs < 2:
            raise ConfigError("chaos trials need at least 2 ranks")
        block_clusters(self.nprocs, self.clusters)  # raises on a bad count
        if self.gc_frac and not self.log_cross_epoch:
            raise ConfigError(
                "gc_frac requires log_cross_epoch=True (GC is unsound "
                "under unbounded domino rollback)")
        for spec in self.failures:
            if not 0 <= spec.rank < self.nprocs:
                raise ConfigError(f"failure rank {spec.rank} out of range")
            if spec.kind not in PLACEMENT_KINDS:
                raise ConfigError(f"unknown placement kind {spec.kind!r}")
        check_bug(self.bug)

    def factory(self) -> Callable[[int, int], Any]:
        return KERNELS[self.kernel].make(self.niters)

    def describe(self) -> str:
        axes = (
            f"{self.kernel}/{self.nprocs}r it={self.niters} "
            f"cl={self.clusters} jit={self.checkpoint_jitter:g} "
            f"log={int(self.log_cross_epoch)}"
        )
        evs = ", ".join(
            f"{s.kind}:{s.rank}"
            + (f"@{s.frac:.3f}" if s.kind == "at"
               else f"#{s.nsends}" if s.kind == "after_sends"
               else f"+{s.delta:.2e}")
            for s in self.failures
        )
        return f"{axes} [{evs or 'no failures'}]" + (
            f" bug={self.bug}" if self.bug else ""
        )

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {**asdict(self),
                "failures": [s.to_json() for s in self.failures]}


def schedule_from_json(data: dict[str, Any]) -> TrialSchedule:
    """Rebuild a schedule from :meth:`TrialSchedule.to_json` output."""
    sched = _from_json(TrialSchedule, data, failures=tuple(
        _from_json(FailureSpec, s) for s in data.get("failures", ())))
    sched.validate()
    return sched


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
#: the generator's options default as a chaos campaign spec's fields do
_SPEC = campaigns.DEFAULTS["chaos"]


def generate_schedule(
    seed: int,
    kernels: tuple[str, ...] | None = _SPEC["kernels"],
    bug: str = _SPEC["bug"],
) -> TrialSchedule:
    """Draw one trial schedule from ``seed``.

    Every draw comes from one seeded :class:`random.Random`, so the
    mapping seed -> schedule is a pure function (the determinism oracle
    and the shrinker both rely on it).  ``kernels`` restricts the kernel
    pool.
    """
    rng = random.Random(seed)
    pool = tuple(kernels) if kernels else CHAOS_POOL
    for name in pool:
        if name not in KERNELS:
            raise ConfigError(f"unknown chaos kernel {name!r}")
    kernel = rng.choice(pool)
    nprocs = rng.choice(KERNELS[kernel].ranks)
    niters = rng.randrange(16, 40)

    # --- config axes -------------------------------------------------
    # block clustering needs nclusters | nprocs; draw from the divisors
    divisors = [d for d in (2, 3, 4) if nprocs % d == 0]
    clusters = rng.choice([1, 1] + divisors + [nprocs // 2]
                          if nprocs % 2 == 0 else [1, 1] + divisors)
    # the retired ack-batch axis: drawn and discarded, so every later draw
    # (and every committed campaign seed and trial) stays where it was
    rng.choice([1, 1, 2, 4])
    interval = rng.choice([1.5e-5, 2e-5, 3e-5])
    jitter = rng.choice([0.0, 0.0, 0.15, 0.3])
    log_cross_epoch = rng.random() >= 0.08  # else plain uncoordinated
    cluster_stagger = rng.choice([0.0, 5e-6]) if clusters > 1 else 0.0
    rank_stagger = rng.choice([0.0, 1e-6, 3e-6])
    # GC is provably unsound in plain-uncoordinated mode (unbounded
    # domino) — the controller refuses the combination
    gc_frac = (rng.choice([0.0, 0.0, 0.0, 0.25, 0.4])
               if log_cross_epoch else 0.0)

    # --- failure events ----------------------------------------------
    nfail = rng.randrange(1, 5)
    failures: list[FailureSpec] = []
    for i in range(nfail):
        rank = rng.randrange(nprocs)
        if i == 0:
            # the first event anchors the trial: absolute or logical
            if rng.random() < 0.25:
                failures.append(FailureSpec(
                    rank, "after_sends", nsends=rng.randrange(1, 200)))
            else:
                failures.append(FailureSpec(
                    rank, "at", frac=rng.uniform(0.15, 0.8)))
            continue
        kind = rng.choice(
            ["at", "at", "drain", "recovery", "recovery", "restored",
             "restored", "after_sends"]
        )
        if kind == "at":
            # occasionally an (intended-)concurrent partner: same frac
            # through arithmetic that lands a few ulps away
            if failures[0].kind == "at" and rng.random() < 0.4:
                base = failures[0].frac
                frac = (base * 3.0) / 3.0 + rng.choice([0.0, 1e-16, -1e-16])
                failures.append(FailureSpec(rank, "at", frac=frac))
            else:
                failures.append(FailureSpec(
                    rank, "at", frac=rng.uniform(0.15, 0.85)))
        elif kind == "after_sends":
            failures.append(FailureSpec(
                rank, "after_sends", nsends=rng.randrange(1, 200)))
        else:
            lo, hi = _WINDOWS[kind]
            if kind == "restored" and rng.random() < 0.5:
                # deliberately re-kill a rank that just failed: the
                # just-restored-rank corner
                rank = rng.choice([s.rank for s in failures])
            failures.append(FailureSpec(
                rank, kind, delta=rng.uniform(lo, hi)))

    sched = TrialSchedule(
        seed=seed, kernel=kernel, nprocs=nprocs, niters=niters,
        clusters=clusters,
        checkpoint_interval=interval, checkpoint_jitter=jitter,
        checkpoint_seed=seed & 0xFFFF, log_cross_epoch=log_cross_epoch,
        cluster_stagger=cluster_stagger, rank_stagger=rank_stagger,
        gc_frac=gc_frac, failures=tuple(failures), bug=bug,
    )
    sched.validate()
    return sched


def with_failures(sched: TrialSchedule,
                  failures: tuple[FailureSpec, ...]) -> TrialSchedule:
    """Schedule with a replaced failure list (shrinker helper)."""
    return replace(sched, failures=failures)

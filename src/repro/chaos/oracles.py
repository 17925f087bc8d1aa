"""Validity oracles for chaos trials.

Every trial must pass **all five** oracles, each a concrete, checkable
form of the paper's guarantees:

``settles``
    Recovery terminates: the run completes with every rank's program
    finished — no deadlock, no stalled recovery round, no protocol or
    simulation error (Theorem 1's "the protocol always terminates").
``validity``
    The recovered execution is *valid* in the sense of Definition 1:
    every rank's logical send sequence and final application state match
    a failure-free reference execution
    (:func:`repro.analysis.validity.compare_executions`).
``sanitize``
    The run stayed clean under ``REPRO_SANITIZE=1``: none of the six
    live invariants of :data:`repro.lint.sanitize.INVARIANTS`
    (``spe_table_ordered``, ``rl_fixpoint_stable``, ``rl_monotone``,
    ``engine_pending_audit``, ``send_witness``, ``rollback_closure``)
    raised :class:`~repro.errors.InvariantViolation`.
``determinism``
    A bit-identical re-run of the same (seed, schedule) produces the
    same recovered execution: identical send sequences, final virtual
    time, recovery rounds, rollback sets and application results — the
    recovered execution itself is send-deterministic.
``witness``
    Send-determinism as a per-rank certificate: the chaos run's witness
    hash chains (:func:`repro.simmpi.trace.send_witness_chains`, folding
    every logical send's ``(dst, date, tag, size, payload digest)``)
    match the failure-free reference's chain for chain — the same
    witness ``repro certify --dynamic`` compares across adversarial
    delivery schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.validity import compare_executions
from ..errors import SendDeterminismError
from ..simmpi.trace import payload_digest, send_witness_chains

__all__ = ["ORACLES", "OracleResult", "TrialResult", "oracle_validity",
           "oracle_witness", "run_digest", "oracle_determinism"]

#: the five oracles, in evaluation order
ORACLES = ("settles", "validity", "sanitize", "determinism", "witness")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle on one trial."""

    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class TrialResult:
    """Everything one chaos trial produced."""

    schedule: Any  # TrialSchedule (kept untyped to avoid an import cycle)
    oracles: dict[str, OracleResult] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    #: JSONL flight-record dump, attached only when an oracle failed
    flight_jsonl: str | None = None
    #: traceback of the exception that broke the run, if any
    traceback: str | None = None

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.oracles.values())

    def failed_oracles(self) -> list[str]:
        return [n for n in ORACLES
                if n in self.oracles and not self.oracles[n].passed]

    def detail(self, name: str) -> str:
        res = self.oracles.get(name)
        return res.detail if res is not None else "<oracle not evaluated>"

    def to_json(self) -> dict[str, Any]:
        return {
            "schedule": self.schedule.to_json(),
            "passed": self.passed,
            "oracles": {n: o.to_json() for n, o in self.oracles.items()},
            "stats": self.stats,
            "flight_jsonl": self.flight_jsonl,
            "traceback": self.traceback,
        }


# ----------------------------------------------------------------------
def oracle_validity(ref_world: Any, world: Any,
                    check_results: bool = True) -> OracleResult:
    """Definition 1 against the failure-free reference.

    ``check_results=False`` for kernels whose ``result()`` is a
    virtual-time measurement (send sequences/contents still checked)."""
    report = compare_executions(ref_world, world,
                                check_results=check_results)
    return OracleResult("validity", report.valid, report.summary())


def oracle_witness(ref_world: Any, world: Any) -> OracleResult:
    """Send-witness certificate: the chaos run's per-rank witness chains
    equal the reference run's.

    Chains are in-process-comparable only (salted str/bytes digests), so
    both worlds must come from the same interpreter — which is exactly
    how trials run."""
    try:
        ref_chains = send_witness_chains(ref_world.tracer)
        chains = send_witness_chains(world.tracer)
    except SendDeterminismError as exc:  # from dedup-by-date
        return OracleResult("witness", False, f"chain unavailable: {exc}")
    if ref_chains == chains:
        return OracleResult(
            "witness", True,
            f"{len(chains)} per-rank witness chains match the reference")
    bad = [r for r, (a, b) in enumerate(zip(ref_chains, chains)) if a != b]
    return OracleResult(
        "witness", False,
        f"witness chain diverged from reference on rank(s) {bad}")


def run_digest(world: Any, controller: Any) -> dict[str, Any]:
    """Bit-exact summary of one recovered execution, for the determinism
    oracle.  Everything here must be identical between two runs of the
    same (seed, schedule) — virtual times included."""
    try:
        sequences = world.tracer.logical_send_sequences()
    except SendDeterminismError as exc:  # validity reports it
        sequences = f"<unavailable: {exc}>"
    return {
        "final_time": world.engine.now,
        "sequences": sequences,
        "results": [payload_digest(p.result()) for p in world.programs],
        "rounds": [
            (r.round_no, tuple(r.failed), tuple(sorted(r.rolled_back)))
            for r in controller.recovery_reports
        ],
        "messages_sent": world.network.messages_sent,
        "fired": [(e.rank, e.time) for e in controller.injector.fired],
    }


def oracle_determinism(first: dict[str, Any],
                       second: dict[str, Any]) -> OracleResult:
    """Compare two :func:`run_digest` summaries field by field."""
    for key in ("final_time", "messages_sent", "rounds", "fired",
                "sequences", "results"):
        a, b = first.get(key), second.get(key)
        if a != b:
            detail = f"re-run diverged in {key!r}"
            if key in ("final_time", "messages_sent", "rounds"):
                detail += f": {a!r} vs {b!r}"
            return OracleResult("determinism", False, detail)
    return OracleResult("determinism", True,
                        "re-run bit-identical (times, sequences, results)")

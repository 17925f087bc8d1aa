"""Executable form of the paper's validity criterion (Definition 1).

A recovery is *valid* when (i) every process emits its valid sequence of
messages and (ii) causal delivery order is respected.  Both are checkable
against a failure-free reference execution:

* (i) directly — each rank's *logical* send sequence (recovery re-sends
  collapsed by their branch-invariant send dates, with payload digests
  compared so silent state corruption is caught even when contracting
  numerics hide it in the final result);
* (ii) observationally — an application that matched a wrong message
  (which is what a causal-delivery violation manifests as) diverges in
  state and therefore in its subsequent send contents and final results.

:func:`compare_executions` packages the check used throughout the test
suite as a public API, returning a structured report instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import SendDeterminismError
from ..simmpi.runtime import World

__all__ = ["ValidityReport", "compare_executions"]


@dataclass
class ValidityReport:
    """Outcome of a validity comparison against a reference execution."""

    valid: bool
    #: ranks whose logical send sequences diverged (length or order)
    sequence_mismatches: list[int] = field(default_factory=list)
    #: ranks that re-sent a message with different content (state corruption)
    content_violations: list[str] = field(default_factory=list)
    #: ranks whose final application result diverged
    result_mismatches: list[int] = field(default_factory=list)

    def summary(self) -> str:
        if self.valid:
            return "valid: send sequences and results match the reference"
        parts = []
        if self.content_violations:
            parts.append(f"content violations: {self.content_violations}")
        if self.sequence_mismatches:
            parts.append(f"sequence mismatches at ranks {self.sequence_mismatches}")
        if self.result_mismatches:
            parts.append(f"result mismatches at ranks {self.result_mismatches}")
        return "INVALID — " + "; ".join(parts)


#: relative tolerance of the final-result comparison (absolute: none)
RESULT_RTOL = 1e-9


def _results_equal(a: Any, b: Any) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _results_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _results_equal(x, y) for x, y in zip(a, b)
        )
    try:
        return bool(np.allclose(a, b, rtol=RESULT_RTOL, atol=0.0))
    except (TypeError, ValueError):
        return a == b


def compare_executions(reference: World, world: World,
                       check_results: bool = True) -> ValidityReport:
    """Check ``world`` (typically a failed-and-recovered run) against
    ``reference`` (the failure-free run of the same configuration).

    ``check_results=False`` skips the final-result comparison; use it for
    benchmarks whose ``result()`` reports *virtual-time* measurements
    (e.g. ping-pong latency), which legitimately differ once a recovery
    stretches the clock — their send sequences and contents are still
    held to Definition 1.
    """
    report = ValidityReport(valid=True)
    try:
        ref_seqs = reference.tracer.logical_send_sequences()
        seqs = world.tracer.logical_send_sequences()
    except SendDeterminismError as exc:
        report.valid = False
        report.content_violations.append(str(exc))
        return report
    for rank, (a, b) in enumerate(zip(ref_seqs, seqs)):
        if a != b:
            report.sequence_mismatches.append(rank)
    if check_results:
        for rank, (p_ref, p) in enumerate(
                zip(reference.programs, world.programs)):
            if not _results_equal(p_ref.result(), p.result()):
                report.result_mismatches.append(rank)
    report.valid = not (
        report.sequence_mismatches
        or report.content_violations
        or report.result_mismatches
    )
    return report

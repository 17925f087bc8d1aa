"""``repro.analysis`` — offline analyses for the paper's evaluation.

Rollback analysis (Table I's ``%rl``, Section V-E-1 methodology), logging
statistics (``%log``), communication matrices (Fig. 8) and the analytic
``(p+1)/2p`` rollback model (Section V-E-3).
"""

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .commmatrix import collect_matrix, matrix_stats, render_matrix
    from .rollback import RollbackStats, SpeSampler, SpeSnapshot, rollback_analysis
    from .theory import (
        expected_rollback_fraction,
        expected_rolled_back_clusters,
        monte_carlo_rollback_fraction,
        rollback_fraction_given_position,
    )
    from .timeline import Timeline, render_timeline
    from .validity import ValidityReport, compare_executions
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "commmatrix": "collect_matrix matrix_stats render_matrix",
        "rollback": "RollbackStats SpeSampler SpeSnapshot rollback_analysis",
        "theory": "expected_rollback_fraction expected_rolled_back_clusters "
                  "monte_carlo_rollback_fraction "
                  "rollback_fraction_given_position",
        "timeline": "Timeline render_timeline",
        "validity": "ValidityReport compare_executions",
    })

"""Equivalence property: the worklist recovery-line solver — with and
without an ``on_step`` callback — computes the same least fix-point as the
literal Fig. 4 transcription, and the offline analysis' all-failures
closure pass counts exactly that fix-point's ranks.

Checked three ways:

* randomized SPE tables and failure sets (including multi-failure unions);
* repeated solves on one solver instance (the shared ``inbound`` index
  must not be corrupted by use);
* the full protocol stack on the minimized chaos reproducer schedules
  (second failure during network drain, re-kill of a just-restored rank,
  two rounds queued back-to-back), where every live ``solve`` call is
  cross-checked against the naive reference mid-recovery.

The ``on_step`` edge sequence (RL_STEP flight records, ``repro explain``)
is pinned by one hand-built table with its expected sequence written out.

The closure pass (``rollback_analysis``) is held to the same oracle: on the
same random worlds its count for *every* rank at *every* one of its epochs
equals the naive line's size, plus directed cases for what the random
tables rarely produce.
"""

import random

import pytest

from repro.analysis.rollback import SpeSnapshot, rollback_analysis
from repro.chaos.schedule import FailureSpec, TrialSchedule
from repro.chaos.trial import run_trial_schedule
from repro.core.recovery import RecoveryLineSolver

from .naive_solver import NaiveRecoveryLineSolver


def _random_world(rng: random.Random):
    """Random SPE tables plus a failure set drawn from their epochs."""
    nprocs = rng.randint(2, 12)
    tables = {}
    for rank in range(nprocs):
        n_epochs = rng.randint(1, 5)
        spe = {}
        date = 0
        for epoch in range(1, n_epochs + 1):
            spe[epoch] = (date, {})
            date += rng.randint(0, 40)
        tables[rank] = spe
    # edges: sender k, from one of its epochs, to a peer, received in an
    # arbitrary epoch (receptions need not exist in the receiver's SPE —
    # only restart epochs must, and those are always sender-side epochs)
    for k in range(nprocs):
        for epoch_send in tables[k]:
            for _ in range(rng.randint(0, 3)):
                j = rng.randrange(nprocs)
                if j == k:
                    continue
                epoch_recv = rng.randint(1, 6)
                peers = tables[k][epoch_send][1]
                peers[j] = max(peers.get(j, 0), epoch_recv)
    n_failed = rng.randint(1, min(3, nprocs))
    failed = {}
    for rank in rng.sample(range(nprocs), n_failed):
        failed[rank] = rng.choice(sorted(tables[rank]))
    return tables, failed


def _assert_equivalent(tables, failed):
    ref = NaiveRecoveryLineSolver(tables).solve(failed)
    solver = RecoveryLineSolver(tables)
    plain = solver.solve(failed)
    steps = []
    traced = RecoveryLineSolver(tables).solve(
        failed, on_step=lambda *a: steps.append(a)
    )
    assert plain == traced == ref
    # the mapping's iteration order must match too (it can leak into
    # restore scheduling)
    assert list(plain) == list(ref) == list(traced)
    # repeating a solve on the same instance must not corrupt the index
    assert solver.solve(failed) == ref
    # every traced step lowers a bound onto an edge that exists
    for k, epoch_send, j, _epoch_recv, _bound in steps:
        assert epoch_send in tables[k]


def _assert_closure_matches_naive(tables, failed_ranks=None):
    """All-failures counts == naive line sizes, for every failed rank at
    every one of its epochs (snapshot i puts each rank in its i-th epoch,
    cycling, so the snapshots together cover every (rank, epoch) pair)."""
    ranks = sorted(tables) if failed_ranks is None else failed_ranks
    naive = NaiveRecoveryLineSolver(tables)
    snaps = [
        SpeSnapshot(
            time=float(i), spe_tables=tables,
            epochs={r: sorted(spe)[i % len(spe)] for r, spe in tables.items()},
        )
        for i in range(max(len(spe) for spe in tables.values()))
    ]
    stats = rollback_analysis(snaps, len(tables), ranks)
    expected = [len(naive.solve({f: snap.epochs[f]}))
                for snap in snaps for f in ranks]
    assert stats.counts == expected  # snapshot-major, argument order
    assert stats.trials == len(expected)
    return stats


def test_randomized_tables_and_failures():
    rng = random.Random(20110)
    for _ in range(300):
        tables, failed = _random_world(rng)
        _assert_equivalent(tables, failed)
        _assert_closure_matches_naive(tables)


def test_on_step_sequence_of_a_hand_built_table():
    """The edge sequence a callback sees — every lowering, in worklist
    (LIFO) order, several ranks lowered twice — as the traced path of the
    commit before the two paths became one reported it."""
    tables = {
        0: {1: (0, {1: 1}), 2: (4, {1: 2, 3: 1}), 3: (9, {2: 3})},
        1: {1: (0, {0: 1, 2: 2}), 2: (6, {3: 2})},
        2: {1: (0, {}), 2: (3, {0: 3, 1: 1}), 3: (8, {3: 3})},
        3: {1: (0, {0: 2}), 2: (5, {2: 2}), 3: (11, {1: 2})},
    }
    line = {0: (1, 0), 1: (1, 0), 2: (2, 3), 3: (1, 0)}
    # steps are (sender k, epoch_send, receiver j, epoch_recv, j's bound)
    cases = [
        ({3: 2}, [(1, 2, 3, 2, 2), (2, 3, 3, 3, 2), (0, 3, 2, 3, 3),
                  (2, 2, 0, 3, 3), (1, 1, 2, 2, 2), (0, 1, 1, 1, 1),
                  (3, 1, 0, 2, 1)]),
        ({1: 1, 2: 3}, [(0, 3, 2, 3, 3), (2, 2, 0, 3, 3), (3, 2, 2, 2, 2),
                        (0, 1, 1, 1, 1), (3, 1, 0, 2, 1)]),
    ]
    for failed, expected in cases:
        steps = []
        solver = RecoveryLineSolver(tables)
        assert solver.solve(failed, on_step=lambda *a: steps.append(a)) == line
        assert steps == expected
        assert solver.solve(failed) == line
        _assert_equivalent(tables, failed)


def test_repeated_solves_reuse_one_solver():
    """The domino analysis and the sanitizer build one solver per set of
    tables and solve per failed rank: solves must not bleed into each
    other."""
    rng = random.Random(4096)
    for _ in range(40):
        tables, _ = _random_world(rng)
        solver = RecoveryLineSolver(tables)
        for rank in sorted(tables):
            for epoch in sorted(tables[rank]):
                failed = {rank: epoch}
                assert solver.solve(failed) == NaiveRecoveryLineSolver(
                    tables
                ).solve(failed)


def test_multi_failure_union_matches_reference():
    rng = random.Random(7)
    for _ in range(100):
        tables, _ = _random_world(rng)
        ranks = sorted(tables)
        failed = {r: min(tables[r]) for r in ranks[: len(ranks) // 2 + 1]}
        _assert_equivalent(tables, failed)


def test_sparse_rank_ids_match_reference():
    """Non-contiguous rank ids (offline analyses can slice worlds) must
    still match the reference — solver and closure pass alike."""
    rng = random.Random(99)
    for _ in range(60):
        tables, failed = _random_world(rng)
        remap = {r: r * 1_000_003 + 17 for r in tables}
        tables = {
            remap[k]: {
                e: (d, {remap[j]: er for j, er in peers.items()})
                for e, (d, peers) in spe.items()
            }
            for k, spe in tables.items()
        }
        failed = {remap[r]: e for r, e in failed.items()}
        _assert_equivalent(tables, failed)
        _assert_closure_matches_naive(tables)
        # a reordered subset: counts follow the argument's order
        _assert_closure_matches_naive(
            tables, failed_ranks=sorted(tables, reverse=True)[::2])


# ----------------------------------------------------------------------
# Closure pass: directed cases
# ----------------------------------------------------------------------

def test_closure_condenses_a_cycle_spanning_three_ranks():
    """0 -> 1 -> 2 -> 0 in one epoch is one strongly connected component:
    any of the three failing rolls back all three, and rank 3 (which only
    *received* from the cycle) on top when it is the one that fails."""
    tables = {
        0: {1: (0, {}), 2: (5, {1: 2})},
        1: {1: (0, {}), 2: (5, {2: 2})},
        2: {1: (0, {}), 2: (5, {0: 2, 3: 2})},
        3: {1: (0, {}), 2: (5, {})},
    }
    snap = SpeSnapshot(time=0.0, spe_tables=tables,
                       epochs={0: 2, 1: 2, 2: 2, 3: 2})
    assert rollback_analysis([snap], 4).counts == [3, 3, 3, 4]
    _assert_closure_matches_naive(tables)


def test_closure_rank_without_inbound_edges_rolls_back_alone():
    tables = {
        0: {1: (0, {1: 1})},      # 0 sent to 1; nobody sent to 0
        1: {1: (0, {})},
        2: {},                    # no SPE at all
    }
    snap = SpeSnapshot(time=0.0, spe_tables=tables, epochs={0: 1, 1: 1, 2: 1})
    assert rollback_analysis([snap], 3).counts == [1, 2, 1]


def test_closure_receptions_in_epochs_absent_from_receiver_spe():
    """``epoch_recv`` is the receiver's epoch at delivery and need not be
    a key of its SPE (it sent nothing from it): bounds compare by value."""
    tables = {
        0: {1: (0, {}), 4: (9, {1: 7})},   # 1 received it in its epoch 7
        1: {2: (0, {}), 9: (30, {})},      # ... which 1's SPE never lists
        2: {3: (0, {1: 8}), 5: (12, {0: 2})},
    }
    stats = _assert_closure_matches_naive(tables)
    # 1 fails in epoch 2 <= 7, 8: both senders re-send; 0 at 4 exposes
    # nothing new (2's message landed in 0's epoch 2 < 4)
    assert stats.counts[1] == 3
    # 1 fails in epoch 9: both receptions precede it, nobody else moves
    assert stats.counts[4] == 1


@pytest.mark.parametrize(
    "failures",
    [
        # the minimized chaos reproducers (tests/chaos/test_reproducers.py):
        # multi-failure and mid-recovery geometries
        (FailureSpec(1, "at", frac=0.5), FailureSpec(2, "drain", delta=1.0e-6)),
        (FailureSpec(1, "at", frac=0.5), FailureSpec(1, "restored", delta=1.2e-4)),
        (
            FailureSpec(1, "at", frac=0.4),
            FailureSpec(2, "drain", delta=0.0),
            FailureSpec(3, "drain", delta=0.0),
        ),
    ],
    ids=["drain-window", "rekill-restored", "queued-rounds"],
)
def test_live_recovery_solves_match_reference(monkeypatch, failures):
    """Cross-check every recovery-line solve the protocol stack performs
    while driving the reproducer schedules — real SPE tables, multiple
    failures, solves happening mid-recovery."""
    from repro.core import recovery as rec

    orig = rec.RecoveryLineSolver.solve
    solves = []

    def checking(self, failed_restarts, on_step=None):
        out = orig(self, failed_restarts, on_step)
        ref = NaiveRecoveryLineSolver(self.spe_tables).solve(failed_restarts)
        assert out == ref and list(out) == list(ref)
        # with the callback when the caller had none, and the reverse
        other = orig(rec.RecoveryLineSolver(self.spe_tables), failed_restarts,
                     (lambda *a: None) if on_step is None else None)
        assert other == ref
        solves.append(len(failed_restarts))
        return out

    monkeypatch.setattr(rec.RecoveryLineSolver, "solve", checking)
    sched = TrialSchedule(
        seed=3, kernel="stencil", nprocs=4, niters=20, failures=failures
    )
    result = run_trial_schedule(sched)
    assert result.passed, {
        name: result.detail(name) for name in result.failed_oracles()
    }
    assert solves, "schedule drove no recovery-line solves"

"""End-to-end recovery on stencil workloads: the paper's validity criterion
(Theorem 1) checked against failure-free executions."""

import pytest

from repro.core import ProtocolConfig
from repro.core.protocol import Status

from ..conftest import assert_valid_execution, run_failure_free, run_with_failures


@pytest.mark.parametrize("fail_rank", [0, 2, 5])
def test_single_failure_any_rank(stencil1d_factory, default_config, fail_rank):
    ref, _ = run_failure_free(6, stencil1d_factory, default_config)
    world, ctl = run_with_failures(
        6, stencil1d_factory, [(6e-5, fail_rank)], default_config
    )
    assert_valid_execution(ref, world)
    assert len(ctl.recovery_reports) == 1
    assert ctl.recovery_reports[0].failed == [fail_rank]


@pytest.mark.parametrize("fail_time", [1e-5, 4e-5, 9e-5, 1.3e-4])
def test_single_failure_various_times(stencil1d_factory, default_config, fail_time):
    ref, _ = run_failure_free(6, stencil1d_factory, default_config)
    world, _ = run_with_failures(
        6, stencil1d_factory, [(fail_time, 1)], default_config
    )
    assert_valid_execution(ref, world)


def test_failure_before_any_checkpoint(stencil1d_factory):
    """A failure before the first periodic checkpoint restarts the failed
    rank from its initial (implicit) checkpoint."""
    cfg = ProtocolConfig(checkpoint_interval=1e-3)  # never fires in this run
    ref, _ = run_failure_free(4, stencil1d_factory, cfg)
    world, ctl = run_with_failures(4, stencil1d_factory, [(3e-5, 2)], cfg)
    assert_valid_execution(ref, world)
    rl = ctl.recovery_reports[0].recovery_line
    assert rl[2][0] == 1  # restarted at the initial epoch


def test_failure_after_completion_of_some_ranks(stencil1d_factory, default_config):
    """Failures can arrive when parts of the application already finished;
    finished ranks may be rolled back and must re-finish."""
    ref, _ = run_failure_free(6, stencil1d_factory, default_config)
    # run to near-completion first, then fail: use a late failure time
    world, ctl = run_with_failures(
        6, stencil1d_factory, [(1.45e-4, 3)], default_config
    )
    assert_valid_execution(ref, world)


def test_2d_stencil_recovery(stencil2d_factory, default_config):
    ref, _ = run_failure_free(8, stencil2d_factory, default_config)
    world, _ = run_with_failures(8, stencil2d_factory, [(7e-5, 5)], default_config)
    assert_valid_execution(ref, world)


def test_statuses_return_to_running(stencil1d_factory, default_config):
    world, ctl = run_with_failures(
        6, stencil1d_factory, [(6e-5, 2)], default_config
    )
    assert all(p.status is Status.RUNNING for p in ctl.protocols)
    assert not ctl.recovery.active


def test_recovery_report_contents(stencil1d_factory, default_config):
    world, ctl = run_with_failures(
        6, stencil1d_factory, [(6e-5, 2)], default_config
    )
    rep = ctl.recovery_reports[0]
    assert rep.round_no == 1
    assert rep.failed == [2]
    assert rep.rolled_back == sorted(rep.recovery_line)
    assert rep.finished_at >= rep.started_at
    assert rep.phases_notified >= 1


def test_duplicates_were_suppressed(stencil1d_factory):
    """Recovery re-sends messages whose receivers kept them: the receivers
    must suppress them.  Needs partial rollback (clusters) so re-executing
    ranks re-send inter-cluster messages to peers that never rolled back."""
    cfg = ProtocolConfig(checkpoint_interval=2e-5, cluster_of=[0, 0, 0, 1, 1, 1],
                         cluster_stagger=4e-6, rank_stagger=1e-6)
    world, ctl = run_with_failures(6, stencil1d_factory, [(6e-5, 4)], cfg)
    rolled = set(ctl.recovery_reports[0].rolled_back)
    assert rolled != set(range(6))  # partial rollback happened
    suppressed = sum(p.messages_suppressed for p in ctl.protocols)
    assert suppressed > 0


def test_failure_after_all_ranks_finished(stencil1d_factory, default_config):
    """A failure landing after the application completed rolls the failed
    rank (and its dependents) back; they re-execute to completion again."""
    ref, _ = run_failure_free(6, stencil1d_factory, default_config)
    world, ctl = run_with_failures(
        6, stencil1d_factory, [(ref.engine.now * 1.5, 2)], default_config
    )
    assert_valid_execution(ref, world)
    assert world.all_done
    assert len(ctl.recovery_reports) == 1


def test_failure_exactly_at_checkpoint_time(stencil1d_factory):
    """Failures colliding with checkpoint instants must not corrupt the
    store (the checkpoint either completed or never happened)."""
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=0.0)
    ref, _ = run_failure_free(6, stencil1d_factory, cfg)
    world, ctl = run_with_failures(6, stencil1d_factory, [(4e-5, 3)], cfg)
    assert_valid_execution(ref, world)

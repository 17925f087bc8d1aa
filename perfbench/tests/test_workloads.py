"""Inputs, the cell's equivalence to the public entry point, and planted
failures reaching ``failed`` and the exit code."""

import json

import pytest

from perfbench import worker
from perfbench.inputs import CHAOS_SEED_BANK, JITTER, WORKLOADS, make_input
from perfbench.workloads import CampaignWorkload, make_workload


def test_inputs_are_a_function_of_the_seed():
    for name in WORKLOADS:
        assert make_input(name, 7) == make_input(name, 7)
    cell0, cell7 = make_input("cell_cg1024", 0), make_input("cell_cg1024", 7)
    assert (cell0["checkpoint_interval"], cell0["cluster_stagger"],
            cell0["rank_stagger"]) == (6e-5, 8e-6, 2e-7)
    assert cell7["checkpoint_interval"] != cell0["checkpoint_interval"]
    assert abs(cell7["checkpoint_interval"] / 6e-5 - 1) <= JITTER
    # the seed never moves what sets the amount of work
    for key in ("kernel", "ranks", "clusters", "niters", "compute_time",
                "sample_interval"):
        assert cell7[key] == cell0[key]
    assert make_input("campaign_grid", 0)["base_seed"] == 0
    assert make_input("campaign_grid", 7)["base_seed"] != 0
    chaos0, chaos7 = make_input("chaos_mix", 0), make_input("chaos_mix", 7)
    assert chaos0["campaign_seeds"] != chaos7["campaign_seeds"]
    assert (sorted(chaos0["campaign_seeds"]) == sorted(chaos7["campaign_seeds"])
            == sorted(CHAOS_SEED_BANK))
    with pytest.raises(ValueError):
        make_input("nope", 0)


def test_seed_zero_cell_is_table1_cell(tmp_path):
    from repro.campaigns import table1_cell

    inp = make_input("cell_mg256", 0, smoke=True)
    workload = make_workload(inp, str(tmp_path), smoke=True)
    ctx = workload.prepare(0)
    out = workload.unit(ctx)
    workload.after_unit(ctx, out)
    assert out["result"] == table1_cell(
        {key: inp[key] for key in ("kernel", "ranks", "clusters", "niters")})
    assert (workload.attempted, workload.failed) == (1, 0)


def test_cell_repeat_with_a_different_fingerprint_fails(tmp_path):
    workload = make_workload(make_input("cell_cg1024", 0, smoke=True),
                             str(tmp_path), smoke=True)
    for index in range(2):
        ctx = workload.prepare(index)
        out = workload.unit(ctx)
        if workload.attempted:  # plant a drifting result on the repeat
            out["result"]["pct_rollback"] += 1e-9
        workload.after_unit(ctx, out)
    assert (workload.attempted, workload.failed) == (2, 1)


def test_planted_digest_mismatch_fails_every_task_of_the_pass(tmp_path):
    workload = CampaignWorkload(make_input("campaign_grid", 0, smoke=True),
                                str(tmp_path), smoke=True, workers=1)
    cold = {"tasks": 4, "errors": 0, "results_digest": "aa", "obs_digest": "bb",
            "cache": {"hits": 0, "misses": 4, "stores": 4}}
    warm = dict(cold, cache={"hits": 4, "misses": 0, "stores": 0})
    assert workload.check_pass(cold, cold, warm=False) == 0
    assert workload.check_pass(cold, warm, warm=True) == 0
    assert workload.check_pass(cold, dict(warm, obs_digest="xx"), warm=True) == 4
    one_miss = dict(warm, cache={"hits": 3, "misses": 1, "stores": 1})
    assert workload.check_pass(cold, one_miss, warm=True) == 1
    assert workload.check_pass(cold, dict(cold, errors=2), warm=False) == 2


def test_failing_oracle_raises_failed_and_the_exit_code(monkeypatch, capsys):
    def with_bug(workload, seed, smoke=False):
        # one trial per kernel (the smoke shape) is too few to trip an oracle
        return dict(make_input(workload, seed, smoke), bug="ack_drop",
                    trials_per_kernel=2)

    monkeypatch.setattr(worker, "make_input", with_bug)
    code = worker.main(["--workload", "chaos_mix", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["attempted"] == 12


def test_chaos_units_take_successive_campaign_seeds(tmp_path):
    inp = make_input("chaos_mix", 3, smoke=True)
    workload = make_workload(inp, str(tmp_path), smoke=True)
    seeds = [workload.prepare(index)["campaign_seed"] for index in range(3)]
    assert seeds == inp["campaign_seeds"][:3]
    ctx = workload.prepare(0)
    out = workload.unit(ctx)
    workload.after_unit(ctx, out)
    # one campaign per kernel, trials_per_kernel trials each
    assert [r.trials for r in out["reports"]] == [1] * len(inp["kernels"])
    assert (workload.attempted, workload.failed) == (len(inp["kernels"]), 0)
    assert len(workload.trial_walls[0]) == len(inp["kernels"])


def test_a_real_oracle_failure_is_a_failed_op(tmp_path):
    """Trial 4 of the plain campaign with seed 38 (a ``reduce`` trial) trips
    the ``send_witness`` sanitizer on the commit this benchmark was defined
    on (README, "A defect the chaos campaigns found")."""
    from repro.chaos import run_campaign

    report = run_campaign(5, seed=38, workers=1, shrink=0)
    if report.ok:
        pytest.skip("the defect is fixed: drop it from the README")
    workload = make_workload(make_input("chaos_mix", 0, smoke=True),
                             str(tmp_path), smoke=True)
    workload.after_unit({}, {"reports": [report], "trial_walls": [0.1] * 5})
    assert (workload.attempted, workload.failed) == (5, 1)
    assert "1 failed" in workload.failures[0]

"""One spec, one planner, one runner: the one-shot CLI and the campaign
service must compute — and cache — the same tasks."""

import json
import re

import pytest

from repro import apps, campaigns
from repro.cli import _campaign_spec, _submit_spec, build_parser, main
from repro.errors import ConfigError
from repro.obs import ProgressStream
from repro.service import ResultCache, cache_key, run_campaign_job
from repro.sweep import task_seed

#: (spec, the equivalent one-shot command line)
DOORS = {
    "table1": (
        {"kind": "table1", "kernels": ["CG"], "ranks": [8], "clusters": [2],
         "niters": 3},
        ["table1", "--kernels", "CG", "--ranks", "8", "--clusters", "2",
         "--niters", "3"],
    ),
    "sweep/failures": (
        {"kind": "sweep", "scenario": "failures", "runs": 2, "ranks": 6,
         "clusters": 2, "niters": 10, "base_seed": 3},
        ["sweep", "--scenario", "failures", "--runs", "2", "--ranks", "6",
         "--clusters", "2", "--niters", "10", "--base-seed", "3"],
    ),
    "sweep/table1": (
        {"kind": "sweep", "scenario": "table1", "ranks": 8, "clusters": 2,
         "niters": 10},
        ["sweep", "--scenario", "table1", "--ranks", "8", "--clusters", "2",
         "--niters", "10"],
    ),
    "chaos": (
        {"kind": "chaos", "trials": 3, "seed": 5, "kernels": ["stencil"]},
        ["chaos", "--trials", "3", "--seed", "5", "--kernels", "stencil"],
    ),
}


def _cli_cache_line(capsys):
    line = re.search(r"cache: hits=(\d+) misses=(\d+) stores=(\d+)",
                     capsys.readouterr().err)
    assert line, "the one-shot command printed no cache summary"
    return tuple(int(n) for n in line.groups())


@pytest.mark.parametrize("door", sorted(DOORS))
def test_two_doors_one_campaign(door, tmp_path, capsys):
    """A cache filled through either door serves the other entirely."""
    spec, argv = DOORS[door]
    ntasks = len(campaigns.plan(spec)[1])

    filled_by_service = str(tmp_path / "service")
    cold = run_campaign_job(spec, cache=ResultCache(filled_by_service))
    assert cold["summary"]["cache"]["stores"] == ntasks
    main(argv + ["--cache", filled_by_service])
    assert _cli_cache_line(capsys) == (ntasks, 0, 0)

    filled_by_cli = str(tmp_path / "cli")
    main(argv + ["--cache", filled_by_cli])
    assert _cli_cache_line(capsys) == (0, ntasks, ntasks)
    warm = run_campaign_job(spec, cache=ResultCache(filled_by_cli))
    assert warm["summary"]["cache"] == {"hits": ntasks, "misses": 0,
                                        "stores": 0, "unkeyable": 0}
    # the CLI's cells are the service's (durations are host wall-clock)
    assert warm["summary"]["obs_digest"] == cold["summary"]["obs_digest"]


@pytest.mark.parametrize("kind, one_shot, submit", [
    ("table1", ["table1"], ["--kind", "table1"]),
    ("sweep", ["sweep"], ["--kind", "sweep"]),
    ("sweep", ["sweep", "--scenario", "table1"],
     ["--kind", "sweep", "--scenario", "table1"]),
    ("chaos", ["chaos"], ["--kind", "chaos"]),
])
def test_unset_flags_plan_the_same_campaign_on_both_doors(kind, one_shot,
                                                          submit):
    """`repro submit --kind K` and `repro K`, no other flag given, plan
    equal functions, task lists, seeds and cache keys — the defaults are
    the planner's, not each parser's."""
    parser = build_parser()
    cli = campaigns.plan(_campaign_spec(kind, parser.parse_args(one_shot)))
    wire = campaigns.plan(_submit_spec(
        parser.parse_args(["submit", "--connect", "unused"] + submit)))
    assert cli[:3] == wire[:3]
    assert cli[1], "an empty plan proves nothing"

    def keys(planned):
        fn, tasks, base_seed, _ = planned
        return [cache_key(fn, t.params, task_seed(base_seed, i, t.name),
                          collect_obs=True) for i, t in enumerate(tasks)]

    assert keys(cli) == keys(wire)


def test_planner_defaults_reach_a_flagless_submit():
    """`repro submit --kind table1` used to forward the sweep-flavoured
    argparse defaults (ranks 8 / clusters 2 / niters 40)."""
    args = build_parser().parse_args(
        ["submit", "--connect", "unused", "--kind", "table1"])
    assert _submit_spec(args) == {"kind": "table1"}
    _, tasks, _, _ = campaigns.plan(_submit_spec(args))
    assert [t.params for t in tasks] == [
        {"kernel": k, "ranks": 16, "clusters": 4, "niters": 8}
        for k in ("CG", "FT")]


def test_plan_names_the_classes_a_campaign_runs():
    """What the ``--strict-sd`` gate checks: the catalogue's class for
    every kernel a pool or a Table I grid can instantiate."""
    assert campaigns.plan({"kind": "chaos"})[3] == [
        apps.CGKernel, apps.LUKernel, apps.PingPong, apps.ReduceTreeKernel,
        apps.Stencil1D, apps.Stencil2D]
    assert campaigns.plan({"kind": "chaos", "kernels": ["mg", "bt"]})[3] \
        == [apps.MGKernel, apps.BTKernel]
    assert campaigns.plan({"kind": "table1", "kernels": ["MG"]})[3] == \
        [apps.MGKernel]


@pytest.mark.parametrize("spec", [
    {"kind": "chaos", "kernels": ["stencil", "bogus"]},
    {"kind": "chaos", "kernels": ["MG"]},       # a Table I row name
    {"kind": "table1", "kernels": ["CG", "ZZ"]},
    {"kind": "table1", "kernels": ["mg"]},      # a chaos name
])
def test_unknown_kernel_names_are_refused_before_planning(spec):
    """An unknown name used to plan a campaign whose every trial (or
    cell) errored, and the certification gate never saw it."""
    with pytest.raises(ConfigError, match=f"unknown {spec['kind']} kernel"):
        campaigns.validate_spec(spec)
    with pytest.raises(ConfigError):
        campaigns.plan(spec)


# ----------------------------------------------------------------------
# The runner ends what it began
# ----------------------------------------------------------------------
_REAL_FAILURE_SCENARIO = campaigns.failure_scenario


def _invalid_failure_scenario(params):
    return dict(_REAL_FAILURE_SCENARIO(params), valid=False)


def test_sweep_validity_violation_keeps_results_and_ends_stream(
        tmp_path, capsys, monkeypatch):
    """A validity violation exits 1 — after ``--out`` is written and the
    stream has its ``campaign_end``, not before."""
    monkeypatch.setattr(campaigns, "failure_scenario",
                        _invalid_failure_scenario)
    out, stream = tmp_path / "sweep.json", tmp_path / "stream.jsonl"
    assert main(["sweep", "--scenario", "failures", "--runs", "2",
                 "--ranks", "6", "--niters", "10", "--out", str(out),
                 "--stream", str(stream)]) == 1
    assert "validity violations: ['failure-000', 'failure-001']" \
        in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["tasks"] == 2
    assert [r["value"]["valid"] for r in doc["results"]] == [False, False]
    events = [json.loads(line) for line in stream.read_text().splitlines()]
    assert [e["kind"] for e in events] == [
        "campaign_begin", "task_done", "task_done", "campaign_end"]


def test_runner_closes_the_stream_when_the_sweep_raises(tmp_path,
                                                        monkeypatch):
    def lost(*args, **kwargs):
        raise RuntimeError("sweep lost results for task indices [0]")

    monkeypatch.setattr(campaigns, "run_sweep", lost)
    stream = ProgressStream.open(str(tmp_path / "stream.jsonl"))
    with pytest.raises(RuntimeError, match="lost results"):
        campaigns.run_campaign({"kind": "selftest", "tasks": 2},
                               stream=stream)
    assert stream._fh.closed


# ----------------------------------------------------------------------
# The simulation registry holds virtual-time data only
# ----------------------------------------------------------------------
def test_cold_runs_of_one_spec_fill_equal_registries():
    """No host wall-clock datum reaches the simulation registry, and no
    uid-bearing flight record either: two cold runs of one spec fill equal
    registries, whole snapshot compared."""
    spec = {"kind": "table1", "kernels": ["CG"], "ranks": [8],
            "clusters": [2], "niters": 4}
    first, second = (campaigns.run_campaign(spec).registry.snapshot()
                     for _ in range(2))
    assert first == second and first["instruments"]


# ----------------------------------------------------------------------
# A sweep task ships its metrics, not its flight stream
# ----------------------------------------------------------------------
#: seed 0 fails four of these eight trials (the planted ack defect)
ACK_DROP = {"kind": "chaos", "trials": 8, "seed": 0, "bug": "ack_drop",
            "shrink": 0}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", [DOORS["table1"][0], ACK_DROP],
                         ids=["table1", "chaos"])
def test_no_flight_stream_is_shipped(spec, workers):
    run = campaigns.run_campaign(spec, workers=workers)
    assert run.results and all("flight" not in r.obs for r in run.results)
    assert run.registry.flight is None


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_chaos_trials_keep_their_flight_dump(workers):
    """A chaos trial records its own stream and dumps it when an oracle
    fails, before anything crosses the process boundary."""
    trials = [r.value for r in campaigns.run_campaign(ACK_DROP,
                                                      workers=workers).results]
    failing = [t for t in trials if not t["passed"]]
    assert failing
    for trial in failing:
        assert trial["flight_jsonl"]
        records = [json.loads(line)
                   for line in trial["flight_jsonl"].splitlines()]
        rank, time = trial["stats"]["fired"][0]
        assert any(rec["kind"] == "failure" and rec["rank"] == rank
                   and rec["time"] == time for rec in records)

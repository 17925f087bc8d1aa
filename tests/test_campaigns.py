"""One spec, one planner, one runner: the one-shot CLI and the campaign
service must compute — and cache — the same tasks."""

import json
import re

import pytest

from repro import apps, campaigns
from repro.chaos import trial as chaos_trial
from repro.cli import _campaign_spec, build_parser, main
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
    "table1/suite": (
        {"kind": "table1", "kernels": ["BT", "CG", "FT", "LU", "MG"],
         "ranks": [8], "clusters": [2], "niters": 2},
        ["table1", "--kernels", "BT", "CG", "FT", "LU", "MG", "--ranks", "8",
         "--clusters", "2", "--niters", "2"],
    ),
    "sweep/failures": (
        {"kind": "sweep", "runs": 2, "ranks": 6, "clusters": 2, "niters": 10,
         "base_seed": 3},
        ["sweep", "--runs", "2", "--ranks", "6", "--clusters", "2",
         "--niters", "10", "--base-seed", "3"],
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


# ----------------------------------------------------------------------
# The doors cannot drift: every spec field has one flag, on both
# ----------------------------------------------------------------------
#: the kinds with a one-shot command (selftest is submit-only)
ONE_SHOT = {"table1", "sweep", "chaos"}

#: a non-default value for each field whose default does not suggest one
OTHER_VALUE = {
    ("table1", "kernels"): ["MG", "LU"],
    ("chaos", "kernels"): ["mg", "stencil"],
    ("chaos", "bug"): "ack_drop",
    # block clustering needs clusters | ranks (8 ranks, 2 clusters by default)
    ("sweep", "ranks"): 16,
    ("sweep", "clusters"): 4,
    "timeseries": 0.5,
}


def _other_value(kind, field):
    default = campaigns.DEFAULTS[kind][field]
    if isinstance(default, tuple) and all(isinstance(v, int)
                                          for v in default):
        # a grid of two sizes that block clustering realises
        return [2 * default[0], 4 * default[0]]
    if isinstance(default, int) and (kind, field) not in OTHER_VALUE:
        return default + 1
    return OTHER_VALUE.get((kind, field), OTHER_VALUE.get(field))


def _argv(field, value):
    flag = "--" + field.replace("_", "-")
    values = value if isinstance(value, list) else [value]
    return [flag] + [str(v) for v in values]


def _doors(kind, argv):
    """The spec each door builds from ``argv``: ``repro KIND`` (where the
    kind has a command) and ``repro submit --connect x KIND``."""
    parser = build_parser()
    doors = [parser.parse_args(["submit", "--connect", "x", kind] + argv)]
    if kind in ONE_SHOT:
        doors.append(parser.parse_args([kind] + argv))
    return [_campaign_spec(kind, args) for args in doors]


def _planned(spec):
    """Function, tasks, seeds and cache keys of a spec's plan."""
    fn, tasks, base_seed, kernels = campaigns.plan(spec)
    timeseries = campaigns.validate_spec(spec).get("timeseries")
    seeds = [task_seed(base_seed, i, t.name) for i, t in enumerate(tasks)]
    keys = [cache_key(fn, t.params, seed, collect_obs=True,
                      timeseries=timeseries)
            for t, seed in zip(tasks, seeds)]
    return fn, [(t.name, t.params) for t in tasks], seeds, keys, kernels


FIELDS = [(kind, field) for kind in campaigns.CAMPAIGN_KINDS
          for field in campaigns.DEFAULTS[kind]]


@pytest.mark.parametrize("kind, field", FIELDS,
                         ids=[f"{k}-{f}" for k, f in FIELDS])
def test_every_spec_field_has_one_flag_on_both_doors(kind, field):
    """A non-default value for ``field``, given through either door,
    reaches the spec, and both doors plan the same campaign from it."""
    value = _other_value(kind, field)
    assert value is not None, f"no test value for {kind}.{field}"
    assert value != campaigns.DEFAULTS[kind][field]
    specs = _doors(kind, _argv(field, value))
    for spec in specs:
        assert spec == {"kind": kind, field: value}
    plans = [_planned(spec) for spec in specs]
    assert plans[0][1], "an empty plan proves nothing"
    assert all(planned == plans[0] for planned in plans)


@pytest.mark.parametrize("kind", campaigns.CAMPAIGN_KINDS)
def test_unset_flags_plan_the_same_campaign_on_both_doors(kind):
    """`repro submit ... K` and `repro K`, no other flag given, plan the
    planner's default campaign — the defaults are the planner's, not each
    parser's."""
    assert all(spec == {"kind": kind} for spec in _doors(kind, []))
    assert campaigns.plan({"kind": kind})[1], "an empty plan proves nothing"


def test_planner_defaults_reach_a_flagless_submit():
    """`repro submit --kind table1` used to forward the sweep-flavoured
    argparse defaults (ranks 8 / clusters 2 / niters 40)."""
    args = build_parser().parse_args(["submit", "--connect", "unused",
                                      "table1"])
    assert _campaign_spec("table1", args) == {"kind": "table1"}
    _, tasks, _, _ = campaigns.plan(_campaign_spec("table1", args))
    assert [t.params for t in tasks] == [
        {"kernel": k, "ranks": 16, "clusters": [4], "niters": 8}
        for k in ("CG", "FT")]


def test_a_sweep_spec_with_a_scenario_is_refused():
    """``sweep`` means randomized failure runs; Table I cells are
    ``table1``'s."""
    with pytest.raises(ConfigError, match="unknown spec field.*scenario"):
        campaigns.validate_spec({"kind": "sweep", "scenario": "table1"})


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


@pytest.mark.parametrize("kind, name, params", [
    ("table1", "CG", {"kernel": "CG"}),
    ("chaos", "cg", {"kernels": ["cg"]}),
])
def test_one_kernel_name_is_a_one_kernel_pool(kind, name, params):
    """A JSON spec may give ``kernels`` as one string, as it may give a
    grid axis as one number; it used to be read letter by letter."""
    spec = {"kind": kind, "kernels": name}
    assert campaigns.validate_spec(spec)["kernels"] == [name]
    _, tasks, _, kernels = campaigns.plan(spec)
    assert kernels == [apps.CGKernel]
    assert tasks and all(params.items() <= t.params.items() for t in tasks)


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


#: (one-shot command line, what the refusal says): grids block
#: clustering cannot realise, which used to fail inside every task
UNREALISABLE = {
    "table1/no-cell": (["table1", "--ranks", "4", "--clusters", "8"],
                       "keeps no cell"),
    "table1/zero-clusters": (["table1", "--ranks", "8", "--clusters", "0"],
                             "invalid cluster count 0"),
    "table1/uneven-blocks": (["table1", "--ranks", "8", "--clusters", "3"],
                             r"nclusters \| nprocs"),
    "sweep/no-ranks": (["sweep", "--ranks", "0", "--runs", "1"],
                       "invalid cluster count 2 for 0 ranks"),
}


@pytest.mark.parametrize("case", sorted(UNREALISABLE))
def test_an_unrealisable_grid_is_a_usage_error_on_both_doors(case, tmp_path,
                                                             capsys):
    argv, says = UNREALISABLE[case]
    assert main(argv) == 2
    assert re.search(says, capsys.readouterr().err)
    spec = _campaign_spec(argv[0], build_parser().parse_args(argv))
    with pytest.raises(ConfigError, match=says):
        campaigns.validate_spec(spec)
    # submit refuses it before connecting
    assert main(["submit", "--connect", str(tmp_path / "none.sock")]
                + argv) == 2
    assert re.search(says, capsys.readouterr().err)


#: (campaign kind, its flags, what the refusal says): counts a campaign
#: cannot run, which used to plan a run of nothing, a program that never
#: iterates or a time series that failed inside the engine
OUT_OF_RANGE = [
    ("table1", ["--niters", "0"], "niters must be >= 1"),
    ("table1", ["--niters", "-3"], "niters must be >= 1"),
    ("sweep", ["--ranks", "4", "--runs", "1", "--niters", "-1"],
     "niters must be >= 1"),
    ("sweep", ["--runs", "-2"], "runs must be >= 1"),
    ("chaos", ["--trials", "-1"], "trials must be >= 1"),
    ("chaos", ["--shrink", "-1"], "shrink must be >= 0"),
    ("selftest", ["--tasks", "0"], "tasks must be >= 1"),
    ("table1", ["--timeseries", "0"], "timeseries interval must be > 0"),
    ("sweep", ["--timeseries", "nan"], "timeseries interval must be > 0"),
]


@pytest.mark.parametrize("kind, argv, says", OUT_OF_RANGE)
def test_a_count_out_of_range_is_a_usage_error_on_both_doors(
        kind, argv, says, tmp_path, capsys):
    for door in _doors(kind, argv):
        with pytest.raises(ConfigError, match=says):
            campaigns.validate_spec(door)
    if kind in ONE_SHOT:
        assert main([kind] + argv) == 2
        assert says in capsys.readouterr().err
    # submit refuses it before connecting, as the service does on submit
    assert main(["submit", "--connect", str(tmp_path / "none.sock"), kind]
                + argv) == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("run", [
    lambda: main(["demo", "--ranks", "6"]),
    lambda: main(["explain", "--ranks", "6"]),
    lambda: main(["obs", "--ranks", "6"]),
    lambda: main(["obs", "--ranks", "6", "--no-failure"]),
    lambda: campaigns.failure_scenario(
        {"ranks": 6, "clusters": 2, "niters": 10, "seed": 3}),
], ids=["demo", "explain", "obs", "obs-no-failure", "sweep-task"])
def test_the_failure_scenario_runs_on_the_chaos_harness(run, monkeypatch,
                                                        capsys):
    """Both worlds of the Stencil2D scenario come from the chaos harness:
    its failure-free reference, a protocol-free recording world, then the
    failure run, a protocol world."""
    real_world, real_ft = chaos_trial.World, chaos_trial.build_ft_world
    built = []

    def world_spy(*args, **kw):
        built.append("recording")
        return real_world(*args, **kw)

    def ft_spy(*args, **kw):
        built.append("protocol")
        return real_ft(*args, **kw)

    monkeypatch.setattr(chaos_trial, "World", world_spy)
    monkeypatch.setattr(chaos_trial, "build_ft_world", ft_spy)
    out = run()
    assert out == 0 or out["valid"] is True
    assert built == ["recording", "protocol"]


def test_table1_cell_pins_its_numbers():
    """The one definition of a Table I cell reproduces the cell it always
    computed (CG, 16 ranks, 4 clusters, 8 iterations)."""
    assert campaigns.table1_cell(
        {"kernel": "CG", "ranks": 16, "clusters": 4, "niters": 8}) == {
        "kernel": "CG", "ranks": 16, "clusters": 4,
        "pct_log": 11.194029850746269, "pct_rollback": 59.765625}


def test_a_table1_campaign_derives_what_the_live_cells_measure():
    """One task per (kernel, ranks), each simulating once: its rows and
    its protocol / checkpoint counter totals equal the live protocol's
    Table I cells', cell by cell summed."""
    from repro.obs import MetricsRegistry

    from .analysis.live_cell import live_table1_cell

    spec = {"kind": "table1", "kernels": ["MG", "LU"], "ranks": [16],
            "clusters": [2, 4], "niters": 4}
    run = campaigns.run_campaign(spec)
    assert [r.name for r in run.results] == ["MG/16r/2,4cl", "LU/16r/2,4cl"]
    live, rows = MetricsRegistry(flight=False), []
    for task in campaigns.table1_tasks(["MG", "LU"], [16], [2, 4], 4):
        cell = MetricsRegistry(flight=False)
        rows.append(live_table1_cell(dict(task.params, obs=cell)))
        live.merge(cell.snapshot())
    assert [row for r in run.results for row in r.value] == rows
    for name in ("protocol.messages_logged", "protocol.log_bytes",
                 "protocol.messages_confirmed", "checkpoint.stored"):
        assert run.registry.get_counter_total(name) == \
            live.get_counter_total(name) > 0, name
    # two simulations ran, not four, each with the live run's wire traffic
    delivered = run.registry.get_counter_total("network.messages_delivered")
    assert 0 < 2 * delivered == live.get_counter_total("network.messages_delivered")


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
    assert main(["sweep", "--runs", "2",
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

import pytest

from perfbench.stats import (compare_reports, iqr_share, percentile,
                             quartiles, summarize, summarize_p95, verdict)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 4.0, 6.0)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        quartiles([])


def test_summarize_and_iqr_share():
    s = summarize([10, 12, 11, 13, 14])
    assert (s["value"], s["min"], s["max"], s["n"]) == (12, 10, 14, 5)
    assert s["stat"] == "median" and s["q1"] == 10.5 and s["q3"] == 13.5
    assert iqr_share(s) == pytest.approx(3 / 12)


def test_summarize_p95_pools_samples_and_spreads_over_groups():
    groups = [list(range(1, 21)), list(range(21, 41)), list(range(41, 61))]
    s = summarize_p95(groups)
    assert (s["stat"], s["value"], s["n"]) == ("p95", 57, 60)
    # quartiles, min and max are of the per-group p95s: 19, 39, 59
    assert (s["min"], s["max"]) == (19, 59)


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 95) == 95
    assert percentile(data, 100) == 100
    assert percentile([3.0], 95) == 3.0
    assert percentile([1, 2, 3, 4], 50) == 2


def _s(values):
    return summarize(values)


def test_verdict_unchanged_regressed_improved():
    base = _s([1.00, 1.01, 0.99, 1.00, 1.02])
    assert verdict(base, _s([1.03, 1.02, 1.04, 1.03, 1.03]), 0.10)[0] == "unchanged"
    assert verdict(base, _s([1.20, 1.21, 1.19, 1.20, 1.22]), 0.10)[0] == "regressed"
    what, change = verdict(base, _s([0.90, 0.91, 0.89, 0.90, 0.92]), 0.10)
    assert what == "improved" and change == pytest.approx(-0.10)


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = _s([1.0, 1.3, 0.8, 1.2, 0.9])
    assert verdict(noisy, _s([1.0, 1.0, 1.0, 1.0, 1.0]), 0.10)[0] == "unresolved"
    # ... unless every run of b beats every run of a
    assert verdict(noisy, _s([0.5, 0.6, 0.55, 0.7, 0.65]), 0.10)[0] == "improved"


def test_same_code_verdict_is_symmetric():
    base = _s([1.00, 1.01, 0.99, 1.00, 1.02])
    fast = _s([0.80, 0.81, 0.79, 0.80, 0.82])
    # two reports of one program: faster by more than the bound is no
    # improvement, it is a benchmark that does not repeat, either way round
    assert verdict(base, fast, 0.10)[0] == "improved"
    assert verdict(base, fast, 0.10, same_code=True)[0] == "disagree"
    assert verdict(fast, base, 0.10, same_code=True)[0] == "disagree"
    assert verdict(base, _s([1.05, 1.04, 1.06, 1.05, 1.05]), 0.10,
                   same_code=True)[0] == "unchanged"
    noisy = _s([1.0, 1.3, 0.8, 1.2, 0.9])
    assert verdict(noisy, _s([0.5, 0.6, 0.55, 0.7, 0.65]), 0.10,
                   same_code=True)[0] == "unresolved"
    assert verdict(_s([0.0]), _s([0.01]), 0.0, same_code=True)[0] == "disagree"


def test_verdict_higher_is_better_and_absolute_bound():
    assert verdict(_s([100, 101, 99]), _s([80, 81, 79]), 0.10,
                   better="higher")[0] == "regressed"
    assert verdict(_s([0.0]), _s([0.0]), 0.0)[0] == "unchanged"
    assert verdict(_s([0.0]), _s([0.01]), 0.0)[0] == "regressed"


def _report(wall, events, warm=None, digest=None):
    e2e = {"wall_s": {"unit": "s", **summarize(wall)},
           "failed_share": {"unit": "ratio", **summarize([0.0])}}
    if warm:
        e2e["warm_wall_s"] = {"unit": "s", **summarize(warm)}
    return {"header": {"source_digest": digest}, "workloads": {"w": {
        "end_to_end": e2e,
        "per_layer": {"simmpi.engine.events": {"value": events, "unit": "count"}},
    }}}


BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}]}


def test_compare_reports_agreement_and_exact_counts():
    a = _report([1.0, 1.01, 0.99], 1000, warm=[0.5, 0.5, 0.5])
    same = compare_reports(a, _report([1.02, 1.0, 1.01], 1000,
                                      warm=[0.51, 0.5, 0.5]), BENCHMARK)
    assert same["ok"]
    assert {r["metric"] for r in same["rows"]} == {
        "wall_s", "failed_share", "warm_wall_s"}
    slow = compare_reports(a, _report([1.3, 1.31, 1.29], 1000), BENCHMARK)
    assert not slow["ok"]
    drift = compare_reports(a, _report([1.0, 1.01, 0.99], 1001), BENCHMARK)
    assert not drift["ok"] and not drift["counts"][0]["identical"]


def test_compare_reports_of_one_program_must_agree_both_ways():
    slow = _report([1.3, 1.31, 1.29], 1000, digest="d")
    fast = _report([1.0, 1.01, 0.99], 1000, digest="d")
    # another program: faster is fine
    assert compare_reports(slow, _report([1.0, 1.01, 0.99], 1000, digest="e"),
                           BENCHMARK)["ok"]
    for a, b in ((slow, fast), (fast, slow)):
        result = compare_reports(a, b, BENCHMARK)
        assert result["same_code"] and not result["ok"]
        assert result["rows"][0]["verdict"] == "disagree"

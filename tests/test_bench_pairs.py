"""tools/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

#: two end-to-end metrics as ``BENCHMARK.json`` lists them
METRICS = [
    {"name": "jobs_per_s", "better": "higher", "bound": 0.24},
    {"name": "job_p50_s", "better": "lower", "bound": 0.24},
]


def _runs(parent, change):
    return [
        {"pair": pair, "side": side, "metrics": {"jobs_per_s": value, "job_p50_s": 1 / value}}
        for pair, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]


def test_summary_counts_pairs_won_in_the_better_direction():
    runs = _runs([10, 12, 11, 13], [14, 11, 15, 16])
    summary = bench_pairs.summarize(runs, METRICS)
    for name in ("jobs_per_s", "job_p50_s"):
        assert summary[name]["pairs"] == 4
        assert summary[name]["pairs_won_by_change"] == 3
    jobs = summary["jobs_per_s"]
    assert jobs["parent"]["median"] == 11.5 and jobs["change"]["median"] == 14.5
    assert jobs["parent"]["q1"] <= jobs["parent"]["median"] <= jobs["parent"]["q3"]
    assert jobs["change_over_parent"] == pytest.approx(14.5 / 11.5)
    assert jobs["bound"] == 0.24


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(_runs([10, 10], [10, 11]), METRICS)
    assert summary["jobs_per_s"]["pairs_won_by_change"] == 1
    assert summary["job_p50_s"]["pairs_won_by_change"] == 1


PARENT = [100, 98, 102, 99, 101, 97, 103, 100, 99, 101]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    # parent q3 - q1 is 2.5 jobs/s
    summary = bench_pairs.summarize(_runs(PARENT, [x + 10 for x in PARENT]), METRICS)
    assert summary["jobs_per_s"]["gain_shown"] and summary["job_p50_s"]["gain_shown"]
    # won 9 of 10: still shown
    nine = [x + 10 for x in PARENT[:9]] + [PARENT[9] - 1]
    assert bench_pairs.summarize(_runs(PARENT, nine), METRICS)["jobs_per_s"]["gain_shown"]
    # won 8 of 10: not shown, however large the gap
    eight = [x + 10 for x in PARENT[:8]] + [x - 1 for x in PARENT[8:]]
    assert not bench_pairs.summarize(_runs(PARENT, eight), METRICS)["jobs_per_s"]["gain_shown"]
    # won every pair, but the medians differ by less than the parent's spread
    close = bench_pairs.summarize(_runs(PARENT, [x + 1 for x in PARENT]), METRICS)
    assert close["jobs_per_s"]["pairs_won_by_change"] == 10
    assert not close["jobs_per_s"]["gain_shown"]
    # a loss in every pair is no gain, in either direction of "better"
    worse = bench_pairs.summarize(_runs(PARENT, [x - 10 for x in PARENT]), METRICS)
    assert not worse["jobs_per_s"]["gain_shown"] and not worse["job_p50_s"]["gain_shown"]


def test_within_bound_is_read_as_a_share_of_the_parent_median():
    # parent median 100 jobs/s: 24% worse is the most the bound allows
    def verdicts(change):
        summary = bench_pairs.summarize(_runs(PARENT, change), METRICS)
        return summary["jobs_per_s"]["within_bound"], summary["job_p50_s"]["within_bound"]

    # 15 fewer: jobs_per_s 15% worse, job_p50_s 17.6% worse
    assert verdicts([x - 15 for x in PARENT]) == (True, True)
    assert verdicts([x + 50 for x in PARENT]) == (True, True)
    # 30 jobs/s fewer: jobs_per_s is 30% worse and job_p50_s 43% worse
    assert verdicts([x - 30 for x in PARENT]) == (False, False)
    # 24.5 fewer: jobs_per_s is 24.5% worse, job_p50_s (lower is better) 32% worse
    assert verdicts([x - 24.5 for x in PARENT]) == (False, False)
    # 19.5 fewer: jobs_per_s 19.5% worse, job_p50_s 24.2% worse
    assert verdicts([x - 19.5 for x in PARENT]) == (True, False)


def test_resolved_needs_both_spreads_within_the_bound_or_a_change_better_in_every_run():
    # tight: parent and change q3 - q1 of 2.5 jobs/s against a bound of 24
    tight = bench_pairs.summarize(_runs(PARENT, [x - 5 for x in PARENT]), METRICS)
    assert tight["jobs_per_s"]["resolved"] and tight["job_p50_s"]["resolved"]
    # noisy: q3 - q1 is 90 jobs/s on a median of 100, wider than the bound, on one side or both
    noisy = [20, 180, 40, 160, 60, 140, 80, 120, 100, 100]
    for parent, change in ((noisy, noisy), (PARENT, noisy), (noisy, PARENT)):
        summary = bench_pairs.summarize(_runs(parent, change), METRICS)
        assert not summary["jobs_per_s"]["resolved"] and not summary["job_p50_s"]["resolved"]
        assert summary["jobs_per_s"]["within_bound"]
    # noisy but dominated: the slowest change run beats the fastest parent run, in either direction of "better"
    dominated = bench_pairs.summarize(_runs(noisy, [x + 170 for x in noisy]), METRICS)
    assert dominated["jobs_per_s"]["resolved"] and dominated["job_p50_s"]["resolved"]
    # the same runs with the sides swapped are worse in every run: that is no exception
    swapped = bench_pairs.summarize(_runs([x + 170 for x in noisy], noisy), METRICS)
    assert not swapped["jobs_per_s"]["resolved"] and not swapped["job_p50_s"]["resolved"]

"""tools/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent, change):
    return [
        {"pair": pair, "side": side, "metrics": {"jobs_per_s": value, "job_p50_s": 1 / value}}
        for pair, (p, c) in enumerate(zip(parent, change))
        for side, value in (("parent", p), ("change", c))
    ]


def test_summary_counts_pairs_won_in_the_better_direction():
    runs = _runs([10, 12, 11, 13], [14, 11, 15, 16])
    summary = bench_pairs.summarize(runs, {"jobs_per_s": "higher", "job_p50_s": "lower"})
    for name in ("jobs_per_s", "job_p50_s"):
        assert summary[name]["pairs"] == 4
        assert summary[name]["pairs_won_by_change"] == 3
    jobs = summary["jobs_per_s"]
    assert jobs["parent"]["median"] == 11.5 and jobs["change"]["median"] == 14.5
    assert jobs["parent"]["q1"] <= jobs["parent"]["median"] <= jobs["parent"]["q3"]
    assert jobs["change_over_parent"] == pytest.approx(14.5 / 11.5)


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(_runs([10, 10], [10, 11]), {"jobs_per_s": "higher", "job_p50_s": "lower"})
    assert summary["jobs_per_s"]["pairs_won_by_change"] == 1
    assert summary["job_p50_s"]["pairs_won_by_change"] == 1

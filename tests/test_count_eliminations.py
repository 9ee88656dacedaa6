"""tools/count_eliminations.py: eliminations of benchmark jobs, per calling function."""

import importlib.util
from collections import Counter
from pathlib import Path

from gradalg import exactla

_spec = importlib.util.spec_from_file_location(
    "count_eliminations", Path(__file__).resolve().parent.parent / "tools" / "count_eliminations.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def _cheap_jobs():
    """The first cartan-sl2 ``rootsys`` and ``refine-canonical`` jobs of the seed-0 lie round."""
    (jobs,) = tool.workloads.make_jobs("lie", 0, 1)
    return [next(j for j in jobs if j.kind == f"lie/cartan-sl2/{p}") for p in ("rootsys", "refine-canonical")]


def test_two_cheap_jobs_are_counted_per_caller(monkeypatch):
    jobs = _cheap_jobs()
    real = exactla._integer_echelon
    counts = tool.count_eliminations(jobs)
    assert exactla._integer_echelon is real
    # again over a plain counter, which sees every call: each job parses its own workspace, so the counts repeat
    plain = []

    def counting(*args, **kwargs):
        plain.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactla, "_integer_echelon", counting)
    assert tool.count_eliminations(jobs) == counts
    assert sum(counts.values()) == len(plain) > 0
    # each caller is named outside exactla, with the function that called it
    assert all(" <- " in k and not k.startswith("exactla.") for k in counts), counts
    assert counts["grading._incremental_kernel <- grading.graded_derivations"] > 0
    assert not any("weight_decomposition" in k or "_is_cartan" in k.split(" <- ")[0] for k in counts)


def test_main_prints_the_total_and_the_callers(monkeypatch, capsys):
    jobs = _cheap_jobs()
    monkeypatch.setattr(tool.workloads, "make_jobs", lambda workload, seed, rounds: [jobs])
    assert tool.main(["--workload", "lie", "--seed", "0"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    counts = Counter({line[9:]: int(line[:7]) for line in rest})
    assert first == f"total {sum(counts.values())} eliminations in 2 lie jobs, seed 0"
    assert counts == tool.count_eliminations(jobs)

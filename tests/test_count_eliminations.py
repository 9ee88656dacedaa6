"""tools/count_eliminations.py: eliminations of benchmark jobs, per calling function."""

import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gradalg import exactla

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_eliminations.py"
_spec = importlib.util.spec_from_file_location("count_eliminations", TOOL)
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
    # the bracket check of weight_decomposition reads containment, and the Cartan search runs no normalizer
    assert not any("weight_decomposition" in k or "normalizer" in k for k in counts)
    # toral_rank ran, canonical_refinement spanned the semisimple parts on its Cartan subalgebra, and
    # toral_rank read D_e's structure constants at its pivots with no elimination
    assert counts["afine.cartan_candidates <- afine.toral_rank"] > 0
    assert counts["afine._toral_part <- afine.canonical_refinement"] > 0
    assert "algcore.algebra_from_matrices <- afine.toral_rank" not in counts, counts


def test_main_prints_the_total_and_the_callers(monkeypatch, capsys):
    jobs = _cheap_jobs()
    monkeypatch.setattr(tool.workloads, "make_jobs", lambda workload, seed, rounds: [jobs])
    assert tool.main(["--workload", "lie", "--seed", "0"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    counts = Counter({line[9:]: int(line[:7]) for line in rest})
    assert first == f"total {sum(counts.values())} eliminations in 2 lie jobs, seed 0"
    assert counts == tool.count_eliminations(jobs)


#: the eliminations of each workload's seed-0 round when L_e, the grading
#: subalgebra g, D_e and Der(A) were re-based at the pivots of their
#: Subspace, the Cartan search accepted a nilpotent Engel subalgebra with
#: no normalizer, a supplied h was tested in L with one preimage, each
#: D_g of a semisimple algebra was the span of its inner derivations, with
#: no Leibniz system, and 0 with no elimination when it has none, and a
#: refinement was read with one coordinate read and no component span, or
#: with none against a unit basis, and the toral rank was read off the trace
#: form on the first Cartan subalgebra, a 0 x 0 or 1 x 1 form with no
#: elimination, and no coarsening that the derivation support certifies
#: took a toral rank; a change that eliminates again for a canonical basis
#: it could read or write down, or for a fact a lemma gives, goes over
ELIMINATION_BUDGET = {"lie": 437, "assoc": 82, "classify": 0}


@pytest.mark.parametrize("workload", ["lie", "assoc"])
def test_a_refinement_check_spans_no_component(workload):
    # refine-canonical and root-graded read the refinement, and root-graded's delta, off coarse_labels
    (jobs,) = tool.workloads.make_jobs(workload, 0, 1)
    counts = tool.count_eliminations(jobs)
    assert not any(k.startswith("grading.Grading.component <- grading.Grading.components") for k in counts), counts
    assert "grading.Grading.component <- lieroot.root_graded_structure" not in counts, counts
    # every coarse grading of these rounds has the unit basis, whose columns are their own coordinates
    assert not any(k.startswith("grading.Grading.coarse_labels <- ") for k in counts), counts


@pytest.mark.parametrize("workload", sorted(ELIMINATION_BUDGET))
def test_seed_0_round_stays_within_its_elimination_budget(workload):
    (jobs,) = tool.workloads.make_jobs(workload, 0, 1)
    counts = tool.count_eliminations(jobs)
    # on failure, the per-caller counts name the caller that went up
    callers = "\n".join(f"{n:7d}  {caller}" for caller, n in counts.most_common())
    assert sum(counts.values()) <= ELIMINATION_BUDGET[workload], f"per caller:\n{callers}"


def test_a_closed_pipe_ends_the_tool_quietly():
    # the reader of the output, say head, may have gone before the tool prints
    child = subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "classify"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 1
    assert err == b"", err

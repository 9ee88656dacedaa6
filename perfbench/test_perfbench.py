"""Tests of the benchmark itself: seeded inputs, checks and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json

import pytest

import checks
import run
import workloads as W

#: job kinds cheap enough for a smoke run (well under a second each)
HEAVY = ("cartan-sl4", "b2-skew", "tga3", "root-graded")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference()


def _cheap(jobs, limit):
    picked = [(i, j) for i, j in enumerate(jobs) if not any(h in j.kind for h in HEAVY)]
    return picked[:limit]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generator_is_deterministic_and_inputs_distinct(workload):
    a = W.make_jobs(workload, 11, 2)
    assert a == W.make_jobs(workload, 11, 2)
    assert a[0] == W.make_jobs(workload, 11, 1)[0]
    assert a != W.make_jobs(workload, 12, 2)
    spaces = [j.workspace for j in a[0]]
    assert len(set(spaces)) == len(spaces)
    assert len({(j.workspace, j.argv) for batch in a for j in batch}) == sum(map(len, a))
    kinds = [sorted(j.kind.split("/")[1:] if workload != "classify" else [str(len(j.facts["sources"]))]
                    for j in batch) for batch in a]
    assert kinds[0] == kinds[1]


def test_classify_targets_stay_under_the_cap():
    for batch in W.make_jobs("classify", 5, 3):
        for job in batch:
            target = job.facts["target"]
            counts = [W.hom_count(*W._uab(s), target) for s in job.facts["sources"]]
            assert max(counts) <= W.DEFAULT_CAP
            assert sum(counts) <= W.CLASSIFY_HOM_BUDGET
            assert target == sorted(target)
            assert all(b % a == 0 for a, b in zip(target, target[1:]))


def test_recorded_uab_of_classify_sources(cli):
    from gradalg.grading import universal_abelian_group

    for name in W.CLASSIFY_SOURCES:
        ws = cli.parse_workspace([W.load_catalog(name)])
        uab = universal_abelian_group(ws.gradings[ws.grading_order[0]]).group
        assert W._uab(name) == (uab.free_rank, list(uab.invariants)), name


def test_invariant_factors():
    assert W.invariant_factors([2, 3]) == [6]
    assert W.invariant_factors([4, 6]) == [2, 12]
    assert W.invariant_factors([2, 2, 4]) == [2, 2, 4]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_run_has_no_errors(cli, ref, workload):
    (jobs,) = W.make_jobs(workload, 3, 1)
    picked = [j for _, j in _cheap(jobs, 8)]
    results, _, _ = run.run_loop(cli, picked)
    assert run.failures(picked, results, ref, None) == {}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_default_seed_matches_recorded_hashes(cli, ref, workload):
    (jobs,) = W.make_jobs(workload, run.DEFAULT_SEED, 1)
    for i, job in _cheap(jobs, 4):
        _, stdout, _ = run.run_job(cli, job)
        assert checks.digest(stdout) == ref["hashes"][workload][i], job.kind


def test_checks_reject_a_wrong_report(cli, ref):
    (jobs,) = W.make_jobs("lie", 3, 1)
    job = next(j for j in jobs if j.kind == "lie/cartan-sl3/trank")
    rc, stdout, _ = run.run_job(cli, job)
    assert checks.check(job, rc, stdout, ref) == []
    wrong = json.dumps({**json.loads(stdout), "trank": 1})
    assert checks.check(job, 0, wrong, ref)
    assert checks.check(job, 1, "", ref) == ["exit 1"]


def test_tracer_is_transparent_and_restores_bindings(cli):
    from tracer import METRICS, Tracer

    jobs = [j for _, j in _cheap(W.make_jobs("lie", 4, 1)[0], 6)]
    jobs += [j for _, j in _cheap(W.make_jobs("classify", 4, 1)[0], 3)]
    plain, _, _ = run.run_loop(cli, jobs)
    afine = importlib.import_module("gradalg.afine")
    algcore = importlib.import_module("gradalg.algcore")
    exactla = importlib.import_module("gradalg.exactla")
    grading = importlib.import_module("gradalg.grading")

    def bindings():
        return (afine.nullspace, exactla.RatMatrix.__init__, cli.main,
                algcore.StructureAlgebra._verify_lie, grading._incremental_kernel)

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert afine.nullspace is not before[0]
        seen, _, _ = run.run_loop(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert [r[:2] for r in seen] == [r[:2] for r in plain]
    values = tracer.metrics()
    assert set(values) == set(METRICS) - {"trace.overhead_ratio"}
    assert values["cli.main.self_s"] > 0
    assert values["grading.graded_derivations.calls"] > 0
    assert values["exactla.RatMatrix.entries"] > 0
    assert values["algcore.StructureAlgebra.checked_triples"] > 0
    solved = values["grading.graded_derivations.degrees_solved"]
    assert solved >= values["grading.graded_derivations.degrees_nonzero"] > 0
    for name, st in tracer.stats.items():
        assert st["self_s"] <= st["total_s"] + 1e-9, name
    spans = tracer.spans
    assert spans and all(end >= start for _, start, end, _, _ in spans)
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(spans))

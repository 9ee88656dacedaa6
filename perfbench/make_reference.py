"""Regenerate the benchmark's recorded inputs and reference outputs.

    python3 perfbench/make_reference.py

Writes ``catalog/*.json`` (``gradalg catalog NAME`` for each entry the
workloads use) and ``reference.json``: the basis-independent fields of
every job kind on the unpermuted catalog workspaces, and the sha256 of
every report of a run at the default seed that lasts ``run_seconds`` of
``BENCHMARK.json``; shorter runs check a prefix of them.  Run it only
when the recorded outputs are meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as W
from checks import REFERENCE_PATH, digest, project


def _report(cli, argv, workspace: str) -> dict:
    job = W.Job("reference", tuple(argv), workspace, {})
    rc, stdout, _ = run.run_job(cli, job)
    if rc != 0:
        raise SystemExit(f"reference job {argv} exited {rc}")
    return json.loads(stdout)


def main() -> None:
    cli = run.import_cli()
    names = {e for e, _ in W.LIE_ROUND} | set(W.CLASSIFY_SOURCES) | {"pauli-m2"}
    for name in sorted(names):
        doc = cli.catalog_workspace(name)
        (W.CATALOG_DIR / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    ref: dict = {"invariants": {}, "classify": {}, "hashes": {}}
    kinds = [("lie", e, p) for e, p in sorted(W.LIE_ROUND)]
    kinds += [("assoc", e, p) for e, p in sorted(W.ASSOC_ROUND) if e == "pauli-m2"]
    for workload, entry, pipeline in kinds:
        ws = W.dumps(W.load_catalog(entry))
        report = _report(cli, (pipeline, "-", "--json"), ws)
        ref["invariants"][f"{workload}/{entry}/{pipeline}"] = project(pipeline, report)
        print(workload, entry, pipeline, file=sys.stderr)
    pairs = sorted({(s, t) for sources, t in W.classify_mix() for s in sources})
    for entry, target in pairs:
        doc = W.load_catalog(entry)
        ws = W.dumps({
            "algebras": [{**doc["algebras"][0], "name": f"a0-{entry}"}],
            "gradings": [{**doc["gradings"][0], "name": f"g0-{entry}", "algebra": f"a0-{entry}"}],
            "weyl": [{**w, "grading": f"g0-{entry}"} for w in doc["weyl"]],
        })
        lit = W.dumps({"free_rank": 0, "invariants": list(target)})
        report = _report(cli, ("classify", "-", "--json", "--target", lit), ws)
        entries = [{k: v for k, v in e.items() if k != "source"} for e in report["entries"]]
        ref["classify"][f"{entry}|{'x'.join(map(str, target))}"] = entries
        print("classify", entry, target, file=sys.stderr)
    for workload in W.WORKLOADS:
        rounds = W.rounds_for(workload, run.RUN_SECONDS)
        jobs = [j for batch in W.make_jobs(workload, run.DEFAULT_SEED, rounds) for j in batch]
        ref["hashes"][workload] = [digest(run.run_job(cli, j)[1]) for j in jobs]
        print("hashes", workload, len(jobs), file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

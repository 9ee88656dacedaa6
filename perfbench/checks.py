"""Correctness checks applied to every benchmark job.

Every report is reduced to its basis-independent fields (``project``) and
compared with the same job on the unpermuted catalog workspace, recorded
in ``reference.json``, and with the catalog's ``expected`` facts.  The
twisted group algebras have no recorded reference; their reports are
checked against facts that follow from the cocycle alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Job

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: number of subgroups of Z2^r
_SUBGROUPS_OF_Z2 = {0: 1, 1: 2, 2: 5, 3: 16}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def project(pipeline: str, report: dict) -> dict:
    """The fields of a report that do not depend on the basis or on --seed."""
    out = dict(report)
    if pipeline == "refine-canonical":
        refined = out.pop("refined")
        del out["weights"]
        out["refined_group"] = refined["group"]
        sizes: dict[str, int] = {}
        for d in refined["degrees"]:
            sizes[str(d)] = sizes.get(str(d), 0) + 1
        out["component_sizes"] = sorted(sizes.values())
    elif pipeline == "rootsys":
        out["roots"] = sorted(r["dim"] for r in out["roots"])
    elif pipeline == "root-graded":
        out["tables"] = {
            k: sorted([t["torsion_class"], t["dim"]] for t in v)
            for k, v in out["tables"].items()
        }
    return out


def _expected_problems(pipeline: str, report: dict, exp: dict) -> list[str]:
    """Catalog ``expected`` facts visible in this pipeline's report."""
    seen = {}
    if pipeline in ("trank", "almost-fine", "refine-canonical") and "trank" in exp:
        seen["trank"] = report["trank"]
    if pipeline == "almost-fine":
        seen["almost_fine"] = report["almost_fine"]
        seen["uab_free_rank"] = report["rank_uab"]
    if pipeline == "ugroup":
        seen["uab_free_rank"] = report["universal_group"]["free_rank"]
        seen["uab_invariants"] = report["universal_group"]["invariants"]
    if pipeline in ("rootsys", "root-graded") and "root_system" in exp:
        seen["root_system"] = report["type"]
    if pipeline == "rootsys" and "num_roots" in exp:
        seen["num_roots"] = len(report["roots"])
    if pipeline == "validate":
        gr = report["gradings"][0]
        seen["dimension"] = sum(gr["component_dims"].values())
        if "support_size" in exp:
            seen["support_size"] = gr["support_size"]
    return [
        f"{k} = {v!r}, catalog expects {exp[k]!r}"
        for k, v in seen.items()
        if k in exp and v != exp[k]
    ]


def _twisted_problems(pipeline: str, report: dict, k: int, central: int) -> list[str]:
    """Facts of Q^beta[Z2^k]: U_ab = Z2^k, trank 0, almost fine, derivations
    inner (one per non-central degree), and every subgroup of the centre's
    degrees is an almost-fine coarsening."""
    n = 2**k
    z2k = {"free_rank": 0, "invariants": [2] * k}
    got: dict = {}
    want: dict = {}
    if pipeline == "validate":
        gr = report["gradings"][0]
        got = {"group": gr["group"], "dims": sorted(gr["component_dims"].values())}
        want = {"group": z2k, "dims": [1] * n}
    elif pipeline == "ugroup":
        got, want = {"uab": report["universal_group"]}, {"uab": z2k}
    elif pipeline == "der":
        dims = sorted(c["dim"] for c in report["components"] if c["dim"])
        got = {"identity_dim": report["identity_dim"], "dims": dims}
        want = {"identity_dim": 0, "dims": [1] * (n - central)}
    elif pipeline == "trank":
        got = {"trank": report["trank"], "dim_d_e": report["dim_d_e"]}
        want = {"trank": 0, "dim_d_e": 0}
    elif pipeline == "almost-fine":
        got = {k_: report[k_] for k_ in ("almost_fine", "rank_uab", "trank")}
        want = {"almost_fine": True, "rank_uab": 0, "trank": 0}
    elif pipeline == "refine-canonical":
        got = {k_: report[k_] for k_ in ("group", "support_size", "trank")}
        want = {"group": z2k, "support_size": n, "trank": 0}
    elif pipeline == "coarsen-enum":
        r = central.bit_length() - 1
        got = {
            "count": report["count"],
            "dims": sorted({sum(e["component_dims"].values()) for e in report["entries"]}),
        }
        want = {"count": _SUBGROUPS_OF_Z2[r], "dims": [n]}
    return [f"{key} = {got[key]!r}, expected {want[key]!r}" for key in want if got[key] != want[key]]


def _classify_problems(job: Job, report: dict, ref: dict) -> list[str]:
    target = job.facts["target"]
    want = []
    for slot, entry in enumerate(job.facts["sources"]):
        key = f"{entry}|{'x'.join(map(str, target))}"
        if key not in ref["classify"]:
            return [f"no reference for classify {key}"]
        want += [{**e, "source": f"g{slot}-{entry}"} for e in ref["classify"][key]]
    problems = []
    if report["target"] != {"free_rank": 0, "invariants": target}:
        problems.append(f"target {report['target']!r}")
    if report["entries"] != want:
        problems.append("classification entries differ from the unpermuted sources")
    return problems


def check(job: Job, rc, stdout: str, ref: dict) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed."""
    if rc != 0:
        return [f"exit {rc!r}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    workload, subject, pipeline = job.kind.split("/")
    try:
        if workload == "classify":
            return _classify_problems(job, report, ref)
        if "k" in job.facts:
            return _twisted_problems(pipeline, report, job.facts["k"], job.facts["central"])
        problems = _expected_problems(pipeline, report, job.facts["expected"])
        want = ref["invariants"].get(job.kind)
        if want is None:
            problems.append("no reference report")
        elif project(pipeline, report) != want:
            problems.append("basis-independent fields differ from the unpermuted workspace")
        return problems
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks a field: {exc!r}"]

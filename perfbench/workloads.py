"""Seeded job generators for the three benchmark workloads.

A job is one ``gradalg`` CLI invocation: an argv whose workspace file is
``-`` plus the JSON text fed on stdin.  Every job gets its own input: the
catalog workspaces are re-presented in a seeded signed basis permutation
(structure constants, degrees and ``basis_change`` rewritten together) and
the twisted group algebras are drawn with a seeded cocycle and basis
order.  The same seed always gives the same bytes.

A run is a whole number of rounds.  Each round holds every job kind of
its workload in the weights below, in a seeded order, so every run
measures the same mix whatever its seed or length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, prod
from pathlib import Path

CATALOG_DIR = Path(__file__).resolve().parent / "catalog"

#: the CLI's default ``--cap``; classify targets are drawn below it
DEFAULT_CAP = 10**4

LIE_PIPELINES = ("der", "trank", "almost-fine", "refine-canonical", "coarsen-enum")
ASSOC_PIPELINES = (
    "validate", "ugroup", "der", "trank", "almost-fine", "refine-canonical", "coarsen-enum",
)

#: (entry, pipeline) -> jobs per round.  The large entry cartan-sl4 (7-15 s
#: per job) appears once, on ``der``, and root-graded (up to 2.5 s) once per
#: entry.  The other kinds run twice, so that the median and the tail fall
#: among many jobs of similar size.  cartan-sl3 ``der``, ``trank`` and
#: ``almost-fine`` (about 0.3 s, where the median falls) run four times:
#: with them twice, ``job_p50_s`` spread by 14% over ten seeds.
LIE_ROUND = {
    **{(e, p): 2 for e in ("cartan-sl2", "cartan-sl3", "sl3-involution")
       for p in LIE_PIPELINES + ("rootsys",)},
    **{("cartan-sl3", p): 4 for p in ("der", "trank", "almost-fine")},
    **{(e, "root-graded"): 1 for e in ("cartan-sl2", "cartan-sl3", "sl3-involution")},
    **{("b2-skew", p): 2 for p in LIE_PIPELINES},
    ("cartan-sl4", "der"): 1,
}

CLASSIFY_SOURCES = ("cartan-sl2", "cartan-sl3", "pauli-m2", "sl3-involution", "b2-skew")
#: cyclic factors the classify targets are built from
TARGET_FACTORS = (2, 3, 4, 6)
#: classify jobs per round, by number of source gradings
CLASSIFY_ROUND = {1: 9, 2: 9, 3: 9}
#: bound on the homomorphisms a classify job enumerates, over all sources
CLASSIFY_HOM_BUDGET = 256
#: seeds the sources and targets of the classify round, which are the same
#: in every run: drawn per run, they changed a run's work by half
CLASSIFY_MIX_SEED = "classify-mix"

#: (algebra, pipeline) -> jobs per round; "tga2"/"tga3" are Q^beta[Z2^k].
#: The small jobs fall in two clusters, about 0.04 s (validate, ugroup, der,
#: trank, almost-fine) and about 0.07 s (refine-canonical, coarsen-enum).
#: Weighting tga2 toward the first puts the median well inside it; with
#: equal weights the clusters split the jobs in half and the median jumped
#: between them.  tga3 ``der`` and ``almost-fine`` (about 1 s each) run
#: twice, so that the tail (the 11th largest of two rounds) falls among four
#: jobs of one kind.
ASSOC_ROUND = {
    **{("tga2", p): 2 for p in ("validate", "ugroup")},
    **{("tga2", p): 3 for p in ("der", "trank", "almost-fine")},
    **{("tga2", p): 1 for p in ("refine-canonical", "coarsen-enum")},
    **{("pauli-m2", p): 1 for p in ASSOC_PIPELINES},
    **{("tga3", p): 1 for p in ASSOC_PIPELINES},
    ("tga3", "der"): 2,
    ("tga3", "almost-fine"): 2,
}

WORKLOADS = ("lie", "classify", "assoc")

#: draws of one job kind before a repeated workspace is accepted
MAX_DRAWS = 200

#: seconds one round takes on the reference machine (2 cores, Python 3.11)
NOMINAL_ROUND_S = {"lie": 32.0, "classify": 14.0, "assoc": 12.0}


def rounds_for(workload: str, seconds: float) -> int:
    """The fewest whole rounds that take ``seconds`` on the reference machine."""
    return max(1, ceil(seconds / NOMINAL_ROUND_S[workload]))


@dataclass(frozen=True)
class Job:
    #: reference key of the job kind, e.g. ``lie/cartan-sl3/der``
    kind: str
    argv: tuple[str, ...]
    workspace: str
    #: facts that hold for every input of this kind (see checks.py)
    facts: dict


def load_catalog(name: str) -> dict:
    return json.loads((CATALOG_DIR / f"{name}.json").read_text())


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Basis rewrites
# ---------------------------------------------------------------------------


def _fracstr(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def signed_permutation(n: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """New position and sign of each old basis vector: f_pos[i] = sign[i] e_i."""
    pos = list(range(n))
    rng.shuffle(pos)
    return pos, [rng.choice((1, -1)) for _ in range(n)]


def rewrite_algebra(alg: dict, pos: list[int], sign: list[int]) -> dict:
    ops = []
    for op in alg["operations"]:
        entries = []
        for *key, j, c in op["entries"]:
            s = sign[j]
            for i in key:
                s *= sign[i]
            entries.append([pos[i] for i in key] + [pos[j], _fracstr(s * Fraction(c))])
        entries.sort()
        ops.append({**op, "entries": entries})
    return {**alg, "operations": ops}


def rewrite_grading(gr: dict, pos: list[int], sign: list[int]) -> dict:
    out = dict(gr)
    if "basis_change" in gr:
        # columns are the homogeneous vectors; only their coordinates move
        bc = [None] * len(pos)
        for i, row in enumerate(gr["basis_change"]):
            bc[pos[i]] = [_fracstr(sign[i] * Fraction(x)) for x in row]
        out["basis_change"] = bc
    else:
        degrees = [None] * len(pos)
        for i, d in enumerate(gr["degrees"]):
            degrees[pos[i]] = d
        out["degrees"] = degrees
    return out


def rewrite_catalog(doc: dict, rng: random.Random) -> dict:
    """The catalog workspace (one algebra) in a seeded signed basis permutation."""
    (alg,) = doc["algebras"]
    pos, sign = signed_permutation(alg["dimension"], rng)
    return {
        **doc,
        "algebras": [rewrite_algebra(alg, pos, sign)],
        "gradings": [rewrite_grading(g, pos, sign) for g in doc["gradings"]],
    }


# ---------------------------------------------------------------------------
# Twisted group algebras Q^beta[Z2^k]
# ---------------------------------------------------------------------------


def twisted_group_algebra(k: int, beta: list[list[int]], order: list[int]) -> dict:
    """Workspace of Q^beta[Z2^k], e_x e_y = (-1)^(x^T beta y) e_(x+y), graded by
    Z2^k with deg e_x = x; basis vector ``order[t]`` is the t-th basis element."""
    n = 2**k
    bits = [[(x >> i) & 1 for i in range(k)] for x in range(n)]
    where = {x: t for t, x in enumerate(order)}
    entries = []
    for x in range(n):
        for y in range(n):
            form = sum(bits[x][i] * beta[i][j] * bits[y][j] for i in range(k) for j in range(k))
            entries.append([where[x], where[y], where[x ^ y], "-1/1" if form % 2 else "1/1"])
    entries.sort()
    name = f"tga{k}"
    return {
        "algebras": [{
            "name": name,
            "dimension": n,
            "flags": {"associative": True},
            "operations": [{"name": "product", "arity": 2, "entries": entries}],
        }],
        "gradings": [{
            "name": name,
            "algebra": name,
            "group": {"free_rank": 0, "invariants": [2] * k},
            "degrees": [bits[x] for x in order],
        }],
    }


def central_degrees(k: int, beta: list[list[int]]) -> int:
    """Number of x in Z2^k with e_x central: the radical of beta + beta^T."""
    count = 0
    for x in range(2**k):
        xb = [(x >> i) & 1 for i in range(k)]
        if all(sum(xb[i] * (beta[i][j] + beta[j][i]) for i in range(k)) % 2 == 0
               for j in range(k)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Classify targets
# ---------------------------------------------------------------------------


def invariant_factors(cyclic: list[int]) -> list[int]:
    """Invariant factors (a divisibility chain) of a product of cyclic groups."""
    primes: dict[int, list[int]] = {}
    for m in cyclic:
        p = 2
        while m > 1:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                primes.setdefault(p, []).append(q)
            p += 1
    length = max((len(v) for v in primes.values()), default=0)
    out = [1] * length
    for powers in primes.values():
        powers.sort(reverse=True)
        for t, q in enumerate(powers):
            out[length - 1 - t] *= q
    return out


def hom_count(free_rank: int, invariants: list[int], target: list[int]) -> int:
    """|Hom(Z^r + sum Z_d, target)|."""
    order = prod(target)
    return order**free_rank * prod(prod(gcd(d, m) for m in target) for d in invariants)


def _uab(name: str) -> tuple[int, list[int]]:
    exp = load_catalog(name)["assertions"]["expected"]
    if name == "b2-skew":
        # support Z2^3, no free part: the catalog records only the free rank
        return 0, [2, 2, 2]
    return exp["uab_free_rank"], list(exp["uab_invariants"])


def draw_target(sources: list[str], rng: random.Random) -> list[int]:
    uabs = [_uab(s) for s in sources]
    while True:
        cyclic = [rng.choice(TARGET_FACTORS) for _ in range(rng.randint(1, 3))]
        target = invariant_factors(cyclic)
        counts = [hom_count(r, inv, target) for r, inv in uabs]
        if max(counts) <= DEFAULT_CAP and sum(counts) <= CLASSIFY_HOM_BUDGET:
            return target


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def _job_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _lie_job(entry: str, pipeline: str, rng: random.Random) -> Job:
    doc = rewrite_catalog(load_catalog(entry), rng)
    argv = (pipeline, "-", "--json", "--seed", _job_seed(rng))
    return Job(f"lie/{entry}/{pipeline}", argv, dumps(doc),
               {"expected": doc["assertions"]["expected"]})


def _classify_job(sources: tuple[str, ...], target: tuple[int, ...], rng: random.Random) -> Job:
    doc: dict = {"algebras": [], "gradings": [], "weyl": []}
    for slot, entry in enumerate(sources):
        part = rewrite_catalog(load_catalog(entry), rng)
        aname, gname = f"a{slot}-{entry}", f"g{slot}-{entry}"
        doc["algebras"].append({**part["algebras"][0], "name": aname})
        doc["gradings"].append({**part["gradings"][0], "name": gname, "algebra": aname})
        doc["weyl"] += [{**w, "grading": gname} for w in part["weyl"]]
    target_lit = dumps({"free_rank": 0, "invariants": list(target)})
    argv = ("classify", "-", "--json", "--target", target_lit)
    kind = "classify/" + "+".join(sources) + "/Z" + "x".join(map(str, target))
    return Job(kind, argv, dumps(doc), {"sources": list(sources), "target": list(target)})


def classify_mix() -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The (sources, target) pairs of a classify round."""
    rng = random.Random(CLASSIFY_MIX_SEED)
    mix = []
    for nsources, count in sorted(CLASSIFY_ROUND.items()):
        for _ in range(count):
            sources = tuple(rng.choice(CLASSIFY_SOURCES) for _ in range(nsources))
            mix.append((sources, tuple(draw_target(list(sources), rng))))
    return mix


def _assoc_job(algebra: str, pipeline: str, rng: random.Random) -> Job:
    if algebra == "pauli-m2":
        doc = rewrite_catalog(load_catalog(algebra), rng)
        facts = {"expected": doc["assertions"]["expected"]}
    else:
        k = int(algebra[-1])
        while True:
            beta = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            # nondegenerate commutation form: the same work for every seed
            if central_degrees(k, beta) == 2 ** (k % 2):
                break
        order = list(range(2**k))
        rng.shuffle(order)
        doc = twisted_group_algebra(k, beta, order)
        facts = {"k": k, "central": central_degrees(k, beta)}
    argv = (pipeline, "-", "--json", "--seed", _job_seed(rng))
    return Job(f"assoc/{algebra}/{pipeline}", argv, dumps(doc), facts)


def _round_kinds(workload: str) -> list[tuple]:
    if workload == "lie":
        table = LIE_ROUND
    elif workload == "classify":
        return classify_mix()
    elif workload == "assoc":
        table = ASSOC_ROUND
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [kind for kind, weight in sorted(table.items()) for _ in range(weight)]


def make_jobs(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    """``rounds`` rounds of jobs.  No two jobs share a workspace while the
    entry has presentations left: cartan-sl2 has only 24 distinct signed
    permutations, so in runs longer than one lie round its workspaces may
    repeat, each time with another ``--seed``."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"lie": _lie_job, "classify": _classify_job, "assoc": _assoc_job}[workload]
    seen: set[str] = set()
    out = []
    for _ in range(rounds):
        kinds = _round_kinds(workload)
        rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            for _ in range(MAX_DRAWS):
                job = make(*kind, rng)
                if job.workspace not in seen:
                    break
            seen.add(job.workspace)
            batch.append(job)
        out.append(batch)
    return out

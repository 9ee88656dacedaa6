"""Toral rank, almost-fine gradings, canonical refinements, enumeration of
almost-fine coarsenings, admissibility, and classification of gradings by
a fixed finite group up to isomorphism.

The toral rank of a grading is realized in characteristic 0 through the
Lie algebra D_e of degree-preserving derivations: a Cartan subalgebra of
D_e is a nilpotent Engel subalgebra ker (ad x)^d of a candidate element x
(every Engel subalgebra is self-normalizing), and the span of the
Jordan semisimple parts of its basis is a maximal toral subalgebra t,
whose dimension is the toral rank.  A grading is almost fine when the
free rank of its universal abelian group equals its toral rank; the
canonical refinement diagonalizes every component under t and grades the
eigenspaces by the weight lattice.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .abgroup import (
    DEFAULT_CAP,
    FgAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    enumerate_homs,
    enumerate_subgroups,
    quotient_by,
    torsion_and_free,
)
from .algcore import StructureAlgebra, Subspace, algebra_from_matrices, bracket_span, memoized
from .errors import AxiomFailure, DegenerateRetryExhausted, NonSplitError
from .exactla import (
    IntMatrix,
    RatMatrix,
    Rational,
    column_hnf,
    combine_rows,
    flat_operator,
    flat_vector,
    hnf_solve,
    nullspace,
    semisimple_part,
    simultaneous_eigenspaces,
    sparse_power,
)
from .grading import (
    Grading,
    UabResult,
    graded_derivations,
    induce,
    universal_abelian_group,
)

DEFAULT_SEED = 0
_MAX_GENERIC_RETRIES = 40


# ---------------------------------------------------------------------------
# Cartan subalgebras and toral parts
# ---------------------------------------------------------------------------


def _is_nilpotent_subalgebra(alg: StructureAlgebra, basis: Subspace) -> bool:
    """Lower-central-series check for a bracket-closed subspace, whose terms
    are nested: a term of unchanged dimension is the term before it."""
    current = basis
    while current.dim:
        nxt = bracket_span(alg, basis.sparse_vectors(), current.sparse_vectors())
        if nxt.dim == current.dim:
            return False
        current = nxt
    return True


def _element_candidates(d: int, rng: random.Random):
    """Candidate elements, as sparse vectors, whose adjoint nilspace may
    be a Cartan subalgebra: sparse deterministic combinations first (these
    tend to have rational spectra), then random vectors."""
    for i in range(d):
        yield {i: 1}
    for i in range(d):
        for j in range(i + 1, d):
            yield {i: 1, j: 1}
            yield {i: 1, j: -1}
            yield {i: 2, j: 1}
    for attempt in range(_MAX_GENERIC_RETRIES):
        bound = 3 + attempt
        yield {i: c for i, c in enumerate([rng.randint(-bound, bound) for _ in range(d)]) if c}


def cartan_candidates(alg: StructureAlgebra, rng: random.Random):
    """Cartan subalgebras, lazily and in a deterministic order: the nilpotent
    Engel subalgebras ker (ad x)^d of candidate elements x, as every Engel
    subalgebra is self-normalizing (Humphreys 15.1, Lemma A, any field);
    (ad x)^d is taken on sparse rows and made dense only for ``nullspace``."""
    d = alg.dimension
    produced = False
    for x in _element_candidates(d, rng):
        power = sparse_power(alg.ad_rows(x), d)
        nil = nullspace(RatMatrix([[row.get(j, 0) for j in range(d)] for row in power], d))
        if not _is_nilpotent_subalgebra(alg, nil):
            continue
        produced = True
        yield nil
    if not produced:
        raise DegenerateRetryExhausted(
            "no candidate element produced a Cartan subalgebra"
        )


def split_cartan(small: StructureAlgebra, space: Subspace, seed: int, split):
    """The first Cartan subalgebra H of ``small``, the algebra built on
    ``space`` at its pivots (L_e, or D_e in End(A)), from the candidates of
    ``cartan_candidates(small, random.Random(seed))``, taken to ambient
    coordinates by that basis, on which ``split(H)`` does not raise
    NonSplitError; returns (H, split(H)).  When every candidate is
    non-split, the last NonSplitError is re-raised (and when there is no
    candidate at all, ``cartan_candidates`` raises DegenerateRetryExhausted)."""
    nonsplit = None
    for h_small in cartan_candidates(small, random.Random(seed)):
        h = space.embed(h_small)
        try:
            return h, split(h)
        except NonSplitError as exc:
            nonsplit = exc
    try:
        raise nonsplit
    finally:  # the traceback holds this frame, so the frame must not hold the error (a reference cycle)
        del nonsplit


@dataclass(frozen=True)
class ToralData:
    """Toral part of the degree-preserving derivations of a grading."""

    #: dimension n of the graded algebra
    dimension: int
    #: D_e inside End(A) (homogeneous coordinates, n^2 flat)
    d_e: Subspace
    #: Cartan subalgebra of D_e, same coordinates
    cartan: Subspace
    #: span of the semisimple parts of the Cartan basis
    toral: Subspace
    trank: int

    def toral_matrices(self) -> list[list[dict[int, Rational]]]:
        """The canonical basis of t as operators, by sparse rows."""
        n = self.dimension
        return [flat_operator(v, n) for v in self.toral.sparse_vectors()]


@memoized
def toral_rank(grading: Grading, seed: int = DEFAULT_SEED) -> ToralData:
    """Toral data of a grading: D_e, a Cartan subalgebra of it, and the
    span t of the semisimple parts of the Cartan basis; trank = dim t.
    Only D_e is solved: the derivation degrees within the trivial subgroup."""
    n = grading.dimension
    d_e = graded_derivations(grading, Subgroup.from_generators(grading.group, [])).identity_part
    lie = algebra_from_matrices("commutators", d_e)

    def toral_part(cartan: Subspace) -> Subspace:
        # the span of the semisimple parts; NonSplitError when a spectrum is irrational
        parts = [semisimple_part(flat_operator(v, n)) for v in cartan.sparse_vectors()]
        return Subspace.span(n * n, map(flat_vector, parts))

    cartan, toral = split_cartan(lie, d_e, seed, toral_part)
    if (t_small := d_e.restrict(toral)) is None:
        raise AxiomFailure("semisimple part left the derivation algebra")
    if any(lie.bracket(x, y) for x in t_small.sparse_vectors() for y in t_small.sparse_vectors()):
        raise AxiomFailure("toral part is not commutative")
    return ToralData(n, d_e, cartan, toral, toral.dim)


# ---------------------------------------------------------------------------
# Almost-fine test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlmostFineCertificate:
    almost_fine: bool
    rank_uab: int
    trank: int
    #: only populated when the algebra asserts a reductive automorphism group
    dim_d_e: int | None


def is_almost_fine(grading: Grading, seed: int = DEFAULT_SEED) -> AlmostFineCertificate:
    """A grading is almost fine when the free rank of its universal
    abelian group equals its toral rank."""
    rank_u = universal_abelian_group(grading).group.free_rank
    td = toral_rank(grading, seed=seed)
    verdict = rank_u == td.trank
    dim_de = None
    if "aut_reductive" in grading.algebra.flags:
        # shortcut: D_e consists of toral elements, so trank = dim D_e
        dim_de = td.d_e.dim
        if (rank_u == dim_de) != verdict:
            raise AxiomFailure(
                "reductive shortcut disagrees with the toral-rank test"
            )
    return AlmostFineCertificate(verdict, rank_u, td.trank, dim_de)


# ---------------------------------------------------------------------------
# Canonical refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementResult:
    original: Grading
    refined: Grading
    #: projection (G x weight lattice) -> G; inducing along it recovers the
    #: original grading
    coarsening: GroupHom
    #: degree in the refined group -> weight-lattice coordinates
    weights: Mapping[GroupElement, tuple[int, ...]]
    toral: ToralData
    certificate: AlmostFineCertificate


def canonical_refinement(grading: Grading, seed: int = DEFAULT_SEED) -> RefinementResult:
    """Refine a grading by the joint eigenspace decomposition of its
    components under the toral part of D_e, graded by G x Z^r, where Z^r
    is the lattice of the observed weights and r the toral rank.  A piece
    of degree g and weight coordinates w has degree (free part of g, w,
    torsion part of g), and the projection onto G drops w.

    The result is almost fine with the same toral rank (verified)."""
    td = toral_rank(grading, seed=seed)
    n = grading.dimension
    r = td.trank
    tmats = td.toral_matrices()
    # eigen-decompose every component in homogeneous coordinates
    pieces: list[tuple[GroupElement, tuple[Rational, ...], list[dict[int, Rational]]]] = []
    for g in grading.support:
        # the unit vectors of the component's indices are its canonical basis
        component = Subspace(n, {i: {i: 1} for i in grading.indices_of_degree(g)})
        for weight, space in simultaneous_eigenspaces(tmats, component):
            pieces.append((g, weight, space.sparse_vectors()))
    # canonical weight lattice from the observed weights
    all_weights = sorted({w for _, w, _ in pieces})
    denom = lcm(*(x.denominator for w in all_weights for x in w))
    scaled = [[int(x * denom) for x in w] for w in all_weights]
    lattice = column_hnf(IntMatrix.from_columns(scaled, rows=r))
    if lattice.cols != r:
        raise AxiomFailure("observed weights do not span the weight space")
    coords_of = {}
    for w, s in zip(all_weights, scaled):
        c = hnf_solve(lattice, s)
        if c is None:
            raise AxiomFailure("observed weight outside the weight lattice")
        coords_of[w] = tuple(c)
    f = grading.group.free_rank
    gp = FgAbGroup(f + r, grading.group.invariants)
    proj_rows = [[int(i == j) for j in range(gp.ngens)] for i in range(gp.ngens) if not f <= i < f + r]
    proj = GroupHom(gp, grading.group, IntMatrix(proj_rows, gp.ngens))
    degrees: list[GroupElement] = []
    new_cols: list[dict[int, Rational]] = []
    weight_by_degree: dict[GroupElement, tuple[int, ...]] = {}
    for g, w, cols in sorted(pieces, key=lambda p: (p[0].coords, p[1])):
        deg = gp.element(g.coords[:f] + coords_of[w] + g.coords[f:])
        weight_by_degree[deg] = coords_of[w]
        degrees += [deg] * len(cols)
        new_cols += cols
    if len(new_cols) != n:
        raise AxiomFailure("eigenspace pieces do not fill the algebra")
    # the eigenvector columns are in homogeneous coordinates: compose them with the basis
    basis = [combine_rows(col, grading.basis_change) for col in new_cols]
    refined = Grading(grading.algebra, gp, degrees, basis)
    if not refined.is_refinement_of(grading):
        raise AxiomFailure("canonical refinement failed containment check")
    if induce(refined, proj).component_dims() != grading.component_dims():
        raise AxiomFailure("projection does not recover the original grading")
    cert = is_almost_fine(refined, seed=seed)
    if not cert.almost_fine or cert.trank != td.trank:
        raise AxiomFailure(
            "canonical refinement is not almost fine of equal toral rank"
        )
    return RefinementResult(grading, refined, proj, weight_by_degree, td, cert)


# ---------------------------------------------------------------------------
# Enumeration of almost-fine coarsenings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseningEntry:
    subgroup: Subgroup
    quotient: GroupHom
    grading: Grading
    #: "reductive" when certified wholesale by the reductive hypothesis,
    #: otherwise "per-candidate" with the toral ranks compared directly
    certificate: str
    orbit: int


def _subgroup_image(e: Subgroup, w: GroupHom) -> Subgroup:
    gens = [w(x) for x in e.canonical_generators()]
    return Subgroup.from_generators(e.owner, gens)


def _orbits(items: Sequence, act, generators: Sequence) -> list[list]:
    """Partition ``items`` into orbits under ``act(item, w)`` for w among
    the generators, following only images that are themselves items.
    Each orbit starts with the first of its items, and orbits come in the
    order of their first items."""
    position = {x: i for i, x in enumerate(items)}
    placed = [False] * len(items)
    orbits = []
    for i, x in enumerate(items):
        if placed[i]:
            continue
        placed[i] = True
        orbit = [x]
        frontier = [x]
        while frontier:
            cur = frontier.pop()
            for w in generators:
                j = position.get(act(cur, w))
                if j is not None and not placed[j]:
                    placed[j] = True
                    orbit.append(items[j])
                    frontier.append(items[j])
        orbits.append(orbit)
    return orbits


def enumerate_af_coarsenings(
    grading: Grading,
    weyl_generators: Sequence[GroupHom] = (),
    universal_only: bool = False,
    cap: int = DEFAULT_CAP,
    seed: int = DEFAULT_SEED,
) -> list[CoarseningEntry]:
    """Almost-fine coarsenings of an almost fine grading, one per subgroup
    E of the torsion of the universal group with E meeting the derivation
    support Sigma only at the identity.

    ``universal_only`` additionally requires E to be generated by its
    elements of the form u - v with u, v in the support.  Weyl generators
    (automorphisms of the universal group) are used for orbit labelling
    only; completeness of the orbits is exactly as complete as the
    supplied generators.
    """
    uab = universal_abelian_group(grading)
    ugr = uab.universal_grading(grading)
    t_u, _ = torsion_and_free(uab.group)
    # E <= t_u meets Sigma only inside t_u, so only the degrees there are solved
    sigma = [s for s in graded_derivations(ugr, t_u).sigma if not s.is_identity()]
    candidates = enumerate_subgroups(t_u, cap=cap)
    if universal_only:
        support_classes = [uab.iota[s] for s in uab.support_order]
        diffs = {u - v for u in support_classes for v in support_classes}
    reductive = "aut_reductive" in grading.algebra.flags
    base_trank: int | None = None
    survivors: list[tuple[Subgroup, GroupHom, Grading, str]] = []
    for e in candidates:
        if any(e.contains(s) for s in sigma):
            continue
        if universal_only:
            gens = [x for x in e.elements() if x in diffs]
            if Subgroup.from_generators(uab.group, gens) != e:
                continue
        quotient, qhom = quotient_by(uab.group, e)
        coarse = induce(ugr, qhom)
        if reductive:
            survivors.append((e, qhom, coarse, "reductive"))
        else:
            if base_trank is None:
                base_trank = toral_rank(grading, seed=seed).trank
            if toral_rank(coarse, seed=seed).trank != base_trank:
                continue
            survivors.append((e, qhom, coarse, "per-candidate"))
    # orbit labelling under the supplied automorphisms of U
    orbits = _orbits([e for e, *_rest in survivors], _subgroup_image, weyl_generators)
    orbit_of = {e: k for k, orbit in enumerate(orbits) for e in orbit}
    return [
        CoarseningEntry(e, qhom, coarse, cert, orbit_of[e])
        for e, qhom, coarse, cert in survivors
    ]


# ---------------------------------------------------------------------------
# Admissibility and classification
# ---------------------------------------------------------------------------


def is_admissible(images: Sequence[Sequence[int]], target: FgAbGroup, uab: UabResult) -> bool:
    """A homomorphism alpha: U -> target, given by its image tuple
    (``GroupHom.images()``), is admissible when s -> (alpha(s), class of s
    modulo torsion) is injective on the support, that is, when alpha is
    injective on each of ``uab.torsion_fibres``.  Each alpha(s) is an
    integer sum reduced modulo the target's invariants; the test stops at
    the first collision."""
    f = target.free_rank
    rows = [tuple(x[t] for x in images) for t in range(target.ngens)]
    torsion = list(zip(rows[f:], target.invariants))
    for fibre in uab.torsion_fibres:
        seen = set()
        for u in fibre:
            image = (
                tuple(sum(map(mul, u, row)) for row in rows[:f]),
                tuple(sum(map(mul, u, row)) % d for row, d in torsion),
            )
            if image in seen:
                return False
            seen.add(image)
    return True


def _precompose(target: FgAbGroup, images: tuple, columns: Sequence[tuple[int, ...]]) -> tuple:
    """alpha's reduced values in a finite ``target`` on ``columns``, elements of U, from its
    image tuple: the image tuple of alpha o w when column j holds w(e_j)."""
    rows = [(tuple(x[t] for x in images), d) for t, d in enumerate(target.invariants)]
    return tuple(tuple(sum(map(mul, col, row)) % d for row, d in rows) for col in columns)


@dataclass(frozen=True)
class ClassificationEntry:
    source: int
    alpha: GroupHom
    #: ``induce(uab.universal_grading(g), alpha).component_dims()``, counted on alpha's images
    component_dims: dict[tuple[int, ...], int]
    orbit: int
    #: number of admissible homomorphisms in this orbit
    orbit_size: int


def classify_gradings(
    catalog: Sequence[tuple[Grading, Sequence[GroupHom]]],
    group: FgAbGroup,
    cap: int = DEFAULT_CAP,
) -> list[ClassificationEntry]:
    """G-gradings induced from a catalog of almost fine gradings: for each
    catalog entry, enumerate homomorphisms from its universal group to G
    as image tuples, keep the admissible ones, and group them into orbits
    under precomposition with the supplied Weyl generators, emitting one
    representative per orbit (its member with the least images) as a
    ``GroupHom`` with the component dimensions it induces, counted on the
    image tuple; a caller that wants the induced grading itself calls
    ``induce(universal_abelian_group(g).universal_grading(g), e.alpha)``.

    The orbit decomposition is complete only if the supplied generators
    generate the relevant Weyl-group action."""
    out: list[ClassificationEntry] = []
    for idx, (grading, weyl) in enumerate(catalog):
        uab = universal_abelian_group(grading)
        ugr = uab.universal_grading(grading)  # rows sum to 0 in U, so under any alpha to 0 in G
        classes = [ugr.support[t].coords for t in ugr.labels]  # the class in U of deg e_i
        admissible = [a for a in enumerate_homs(uab.group, group, cap=cap) if is_admissible(a, group, uab)]
        # the homs come in order of their images, so an orbit's representative has the least images
        orbits = _orbits(admissible, partial(_precompose, group), [w.matrix.columns() for w in weyl])
        for orbit_id, orbit in enumerate(orbits):
            rep = GroupHom(uab.group, group, IntMatrix.from_columns(orbit[0], rows=group.ngens))
            dims = Counter(_precompose(group, orbit[0], classes))
            out.append(ClassificationEntry(idx, rep, dict(sorted(dims.items())), orbit_id, len(orbit)))
    return out

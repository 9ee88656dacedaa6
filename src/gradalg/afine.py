"""Toral rank, almost-fine gradings, canonical refinements, enumeration of
almost-fine coarsenings, admissibility, and classification of gradings by
a fixed finite group up to isomorphism.

The toral rank of a grading is realized in characteristic 0 through the
Lie algebra D_e of degree-preserving derivations: a Cartan subalgebra of
D_e is found by generic-element nilspace iteration, and the span of the
Jordan semisimple parts of its basis is a maximal toral subalgebra t,
whose dimension is the toral rank.  A grading is almost fine when the
free rank of its universal abelian group equals its toral rank; the
canonical refinement diagonalizes every component under t and grades the
eigenspaces by the weight lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
from .errors import (
    AxiomFailure,
    DegenerateRetryExhausted,
    NonSplitError,
    NotARefinement,
)
from .exactla import (
    IntMatrix,
    RatMatrix,
    column_hnf,
    combine_rows,
    flat_operator,
    flat_vector,
    hnf_solve,
    nullspace,
    semisimple_part,
    simultaneous_eigenspaces,
    sparse_nullspace,
    sparse_product,
)
from .grading import (
    GradedDerivations,
    Grading,
    UabResult,
    graded_derivations,
    induce,
    universal_abelian_group,
)

Q = Fraction

DEFAULT_SEED = 0
_MAX_GENERIC_RETRIES = 40


# ---------------------------------------------------------------------------
# Cartan subalgebras and toral parts
# ---------------------------------------------------------------------------


def _is_nilpotent_subalgebra(alg: StructureAlgebra, basis: Subspace) -> bool:
    """Lower-central-series check for a bracket-closed subspace."""
    current = basis
    for _ in range(alg.dimension + 1):
        if current.dim == 0:
            return True
        nxt = bracket_span(alg, basis.sparse_vectors(), current.sparse_vectors())
        if nxt.dim == current.dim and nxt == current:
            return False
        current = nxt
    return current.dim == 0


def _normalizer(alg: StructureAlgebra, sub: Subspace) -> Subspace:
    """{y : [y, sub] subset of sub} inside the algebra: the y with
    q([v, y]) = 0 for every v in sub and every functional q vanishing on
    sub."""
    ann = sub.annihilator()
    rows = (combine_rows(q, ad) for ad in map(alg.ad_rows, sub.sparse_vectors()) for q in ann)
    return sparse_nullspace(alg.dimension, rows)


def _is_cartan(alg: StructureAlgebra, sub: Subspace) -> bool:
    """A Cartan subalgebra: closed under the bracket, nilpotent, and
    equal to its own normalizer."""
    closed = sub.contains_subspace(bracket_span(alg, sub.sparse_vectors(), sub.sparse_vectors()))
    return closed and _is_nilpotent_subalgebra(alg, sub) and _normalizer(alg, sub) == sub


def _element_candidates(d: int, rng: random.Random):
    """Candidate elements, as sparse vectors, whose adjoint nilspace may
    be a Cartan subalgebra: sparse deterministic combinations first (these
    tend to have rational spectra), then random vectors."""
    for i in range(d):
        yield {i: Q(1)}
    for i in range(d):
        for j in range(i + 1, d):
            yield {i: Q(1), j: Q(1)}
            yield {i: Q(1), j: Q(-1)}
            yield {i: Q(2), j: Q(1)}
    for attempt in range(_MAX_GENERIC_RETRIES):
        bound = 3 + attempt
        yield {i: Q(c) for i, c in enumerate([rng.randint(-bound, bound) for _ in range(d)]) if c}


def cartan_candidates(alg: StructureAlgebra, rng: random.Random):
    """Verified Cartan subalgebras (nilpotent and self-normalizing),
    found as 0-generalized-eigenspaces of adjoints of candidate
    elements, lazily and in a deterministic order."""
    d = alg.dimension
    if d == 0:
        yield Subspace(0, {})
        return
    produced = False
    for x in _element_candidates(d, rng):
        if not x:
            continue
        adx = alg.ad_matrix(x)
        nil = nullspace(adx.power(d))
        # nilspace of a generic element is a Cartan subalgebra; verify
        if nil.dim == 0 or not _is_cartan(alg, nil):
            continue
        produced = True
        yield nil
    if not produced:
        raise DegenerateRetryExhausted(
            "no candidate element produced a Cartan subalgebra"
        )


def split_cartan(small: StructureAlgebra, space: Subspace, seed: int, split):
    """The first Cartan subalgebra H of ``small``, the algebra on the
    canonical basis of ``space``, from the candidates of
    ``cartan_candidates(small, random.Random(seed))``, taken to ambient
    coordinates by that basis, on which ``split(H)`` does not raise
    NonSplitError; returns (H, split(H)).  When every candidate is
    non-split, the last NonSplitError is re-raised (and when there is no
    candidate at all, ``cartan_candidates`` raises DegenerateRetryExhausted)."""
    nonsplit = None
    basis = space.sparse_vectors()
    for h_small in cartan_candidates(small, random.Random(seed)):
        h = Subspace.span(space.dim_ambient, (combine_rows(v, basis) for v in h_small.sparse_vectors()))
        try:
            return h, split(h)
        except NonSplitError as exc:
            nonsplit = exc
    raise nonsplit


@dataclass(frozen=True)
class ToralData:
    """Toral part of the degree-preserving derivations of a grading."""

    derivations: GradedDerivations
    #: D_e inside End(A) (homogeneous coordinates, n^2 flat)
    d_e: Subspace
    #: Cartan subalgebra of D_e, same coordinates
    cartan: Subspace
    #: span of the semisimple parts of the Cartan basis
    toral: Subspace
    trank: int

    def toral_matrices(self) -> list[list[dict[int, Fraction]]]:
        """The canonical basis of t as operators, by sparse rows."""
        n = self.derivations.grading.dimension
        return [flat_operator(v, n) for v in self.toral.sparse_vectors()]


@memoized
def toral_rank(grading: Grading, seed: int = DEFAULT_SEED) -> ToralData:
    """Toral data of a grading: D_e, a Cartan subalgebra of it, and the
    span t of the semisimple parts of the Cartan basis; trank = dim t."""
    n = grading.dimension
    gd = graded_derivations(grading)
    d_e = gd.identity_part
    if d_e.dim == 0:
        empty = Subspace(n * n, {})
        return ToralData(gd, d_e, empty, empty, 0)
    lie = algebra_from_matrices("commutators", [flat_operator(v, n) for v in d_e.sparse_vectors()])

    def toral_part(cartan: Subspace) -> Subspace:
        # the span of the semisimple parts; NonSplitError when a spectrum is irrational
        parts = [semisimple_part(flat_operator(v, n)) for v in cartan.sparse_vectors()]
        return Subspace.span(n * n, map(flat_vector, parts))

    cartan, toral = split_cartan(lie, d_e, seed, toral_part)
    mats = [flat_operator(v, n) for v in toral.sparse_vectors()]
    for i, a in enumerate(mats):
        if not d_e.contains(flat_vector(a)):
            raise AxiomFailure("semisimple part left the derivation algebra")
        for b in mats[i + 1 :]:
            if sparse_product(a, b) != sparse_product(b, a):
                raise AxiomFailure("toral part is not commutative")
    return ToralData(gd, d_e, cartan, toral, toral.dim)


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


def _product_with_free(
    g: FgAbGroup, extra: int
) -> tuple[FgAbGroup, GroupHom]:
    """G x Z^extra in canonical coordinates (G-free, new-free, G-torsion),
    with the projection back onto G."""
    gp = FgAbGroup(g.free_rank + extra, g.invariants)
    rows = []
    for i in range(g.free_rank):
        rows.append([1 if j == i else 0 for j in range(gp.ngens)])
    for i in range(len(g.invariants)):
        rows.append(
            [1 if j == g.free_rank + extra + i else 0 for j in range(gp.ngens)]
        )
    return gp, GroupHom(gp, g, IntMatrix(rows))


def _product_element(
    gp: FgAbGroup, g: GroupElement, lam: Sequence[int], extra: int
) -> GroupElement:
    r = g.owner.free_rank
    coords = list(g.coords[:r]) + [int(x) for x in lam] + list(g.coords[r:])
    return gp.element(coords)


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
    components under the toral part of D_e, graded by G x (weight lattice).

    The result is almost fine with the same toral rank (verified)."""
    td = toral_rank(grading, seed=seed)
    n = grading.dimension
    r = td.trank
    tmats = td.toral_matrices()
    # eigen-decompose every component in homogeneous coordinates
    pieces: list[tuple[GroupElement, tuple[Fraction, ...], list[dict[int, Fraction]]]] = []
    for g in grading.support:
        # the unit vectors of the component's indices are its canonical basis
        component = Subspace(n, {i: {i: Q(1)} for i in grading.indices_of_degree(g)})
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
    gp, proj = _product_with_free(grading.group, r)
    degrees: list[GroupElement] = []
    new_cols: list[dict[int, Fraction]] = []
    weight_by_degree: dict[GroupElement, tuple[int, ...]] = {}
    for g, w, cols in sorted(pieces, key=lambda p: (p[0].coords, p[1])):
        deg = _product_element(gp, g, coords_of[w], r)
        weight_by_degree[deg] = coords_of[w]
        degrees += [deg] * len(cols)
        new_cols += cols
    if len(new_cols) != n:
        raise AxiomFailure("eigenspace pieces do not fill the algebra")
    p = RatMatrix.from_sparse_columns(new_cols, n)
    refined = Grading(
        grading.algebra, gp, degrees, grading.basis_change * p
    )
    if not refined.is_refinement_of(grading):
        raise NotARefinement("canonical refinement failed containment check")
    if induce(refined, proj).component_dims() != grading.component_dims():
        raise NotARefinement("projection does not recover the original grading")
    td2 = toral_rank(refined, seed=seed)
    cert = is_almost_fine(refined, seed=seed)
    if not cert.almost_fine or td2.trank != td.trank:
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


def _orbits(items: Sequence, key, act, generators: Sequence[GroupHom]) -> list[list]:
    """Partition ``items`` into orbits under ``act(item, w)`` for w among
    the generators, following only images that are themselves items
    (matched by ``key``).  Each orbit starts with the first of its items,
    and orbits come in the order of their first items."""
    position = {key(x): i for i, x in enumerate(items)}
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
                j = position.get(key(act(cur, w)))
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
    ugr = uab.universal_grading()
    gd = graded_derivations(ugr)
    sigma = [s for s in gd.sigma if not s.is_identity()]
    t_u, _ = torsion_and_free(uab.group)
    candidates = enumerate_subgroups(t_u, cap=cap)
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
    orbits = _orbits(
        [e for e, *_rest in survivors], lambda e: e.lattice, _subgroup_image, weyl_generators
    )
    orbit_of = {e.lattice: k for k, orbit in enumerate(orbits) for e in orbit}
    return [
        CoarseningEntry(e, qhom, coarse, cert, orbit_of[e.lattice])
        for e, qhom, coarse, cert in survivors
    ]


# ---------------------------------------------------------------------------
# Admissibility and classification
# ---------------------------------------------------------------------------


def is_admissible(alpha: GroupHom, uab: UabResult) -> bool:
    """A homomorphism from the universal group is admissible when
    s -> (alpha(s), class of s modulo torsion) is injective on the support."""
    r = uab.group.free_rank
    seen = set()
    for s in uab.support_order:
        u = uab.iota[s]
        key = (alpha(u).coords, u.coords[:r])
        if key in seen:
            return False
        seen.add(key)
    return True


@dataclass(frozen=True)
class ClassificationEntry:
    source: int
    alpha: GroupHom
    grading: Grading
    orbit: int
    #: number of admissible homomorphisms in this orbit
    orbit_size: int


def classify_gradings(
    catalog: Sequence[tuple[Grading, Sequence[GroupHom]]],
    group: FgAbGroup,
    cap: int = DEFAULT_CAP,
) -> list[ClassificationEntry]:
    """G-gradings induced from a catalog of almost fine gradings: for each
    catalog entry, enumerate homomorphisms from its universal group to G,
    keep the admissible ones, and group them into orbits under
    precomposition with the supplied Weyl generators, emitting one
    representative (and its induced grading) per orbit.

    The orbit decomposition is complete only if the supplied generators
    generate the relevant Weyl-group action."""
    out: list[ClassificationEntry] = []
    for idx, (grading, weyl) in enumerate(catalog):
        uab = universal_abelian_group(grading)
        ugr = uab.universal_grading()
        homs = enumerate_homs(uab.group, group, cap=cap)

        def key(a: GroupHom) -> tuple:
            # the generator images, read from the columns of the hom matrix
            return tuple(
                a.codomain.element(a.matrix.column(i)).coords for i in range(a.domain.ngens)
            )

        admissible = [a for a in homs if is_admissible(a, uab)]
        # the homs come in key order, so an orbit's first member, its representative, has the least key
        for orbit_id, orbit in enumerate(_orbits(admissible, key, GroupHom.compose, weyl)):
            rep = orbit[0]
            out.append(
                ClassificationEntry(idx, rep, induce(ugr, rep), orbit_id, len(orbit))
            )
    return out

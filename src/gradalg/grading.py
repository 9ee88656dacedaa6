"""Gradings of structure algebras by finitely generated abelian groups.

A grading assigns a degree to each vector of a homogeneous basis (an
optional change-of-basis matrix homogenizes the input basis first).
Compatibility is verified exactly against every structure-tensor entry.
On top: the universal abelian group of a grading, induced gradings along
group homomorphisms, per-degree derivation components, and verification
of supplied graded maps (equivalences and isomorphisms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .abgroup import FgAbGroup, GroupElement, GroupHom, Presentation, group_from_presentation
from .algcore import StructureAlgebra, Subspace, _leibniz_rows, inner_derivations, memoized, subalgebra_structure
from .errors import (
    AxiomFailure,
    IncompatibleDegrees,
    NotAutomorphism,
    ShapeError,
    ValidationError,
    VerificationFailure,
)
from .exactla import IntMatrix, RatMatrix, combine_rows, gauss_jordan, sparse_nullspace, sparse_rows


def _incremental_kernel(ncols: int, rows, known=()) -> RatMatrix:
    """The canonical kernel basis of one degree's rows, as a dense matrix.  perfbench/tracer.py
    counts the per-degree solves of graded_derivations by this name and reads its column count.

    ``known`` are that degree's inner derivations, re-indexed to its unknowns: known kernel
    vectors, so ``sparse_nullspace`` stops eliminating at ncols - dim span(known) pivots and
    returns their span (when they are the whole kernel, as for a simple Lie algebra).  The
    rows it reads are checked against them."""
    return RatMatrix.from_sparse_columns(sparse_nullspace(ncols, rows, known).sparse_vectors(), ncols)


class Grading:
    """A G-grading of a structure algebra on a homogeneous basis.

    ``degrees[i]`` is the degree of the i-th column of ``basis_change``
    (default: the i-th standard basis vector).  Construction validates
    compatibility with every operation and caches the support and the
    structure tensors rewritten in the homogeneous basis.  Invariants
    computed from a grading are memoized on it (``_memo``).

    The rewritten algebra is ``subalgebra_structure(algebra, C)`` for the
    basis change C, which is memoized on the algebra: gradings sharing an
    algebra and a basis change (the inductions, coarsenings and universal
    grading of one grading) share one re-based, flag-checked copy.
    """

    __slots__ = (
        "algebra",
        "group",
        "degrees",
        "basis_change",
        "homog_algebra",
        "support",
        "_components",
        "_memo",
    )

    def __init__(
        self,
        algebra: StructureAlgebra,
        group: FgAbGroup,
        degrees: Sequence[GroupElement],
        basis_change: RatMatrix | None = None,
    ):
        n = algebra.dimension
        degrees = tuple(degrees)
        if len(degrees) != n:
            raise ShapeError("one degree per basis vector required")
        for d in degrees:
            if d.owner != group:
                raise ShapeError("degree from a different group")
        if basis_change is None:
            basis_change = RatMatrix.identity(n)
        not_invertible = "basis change must be an invertible n x n matrix"
        if basis_change.shape != (n, n):
            raise ShapeError(not_invertible)
        cols = list(sparse_rows(zip(*basis_change.data)))
        try:
            homog = subalgebra_structure(algebra, cols, name=algebra.name)
        except ValueError:  # dependent columns
            raise ShapeError(not_invertible) from None
        # compatibility: every nonzero entry lands in the product degree
        for op in homog.operations:
            for key, vec in op.tensor.items():
                total = degrees[key[0]]
                for i in key[1:]:
                    total = total + degrees[i]
                for j in vec:
                    if degrees[j] != total:
                        raise IncompatibleDegrees(
                            f"operation {op.name} maps degrees "
                            f"{[degrees[i].coords for i in key]} into basis vector {j} "
                            f"of degree {degrees[j].coords} != {total.coords}",
                            witness=(op.name, key, j),
                        )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "basis_change", basis_change)
        object.__setattr__(self, "homog_algebra", homog)
        support = sorted({d for d in degrees}, key=lambda g: g.coords)
        object.__setattr__(self, "support", tuple(support))
        comps: dict[GroupElement, Subspace] = {}
        for g in support:
            comps[g] = Subspace.span(n, [cols[i] for i in range(n) if degrees[i] == g])
        object.__setattr__(self, "_components", comps)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Grading is immutable")

    def __repr__(self) -> str:
        return (
            f"Grading({self.algebra.name}, {self.group!r}, "
            f"|S|={len(self.support)})"
        )

    @property
    def dimension(self) -> int:
        return self.algebra.dimension

    def component(self, g: GroupElement) -> Subspace:
        """Component of degree g in the original coordinates."""
        if g in self._components:
            return self._components[g]
        return Subspace(self.dimension, {})

    def components(self) -> dict[GroupElement, Subspace]:
        return dict(self._components)

    def indices_of_degree(self, g: GroupElement) -> list[int]:
        """Homogeneous-basis indices with degree g."""
        return [i for i, d in enumerate(self.degrees) if d == g]

    def identity_component(self) -> Subspace:
        return self.component(self.group.identity())

    def is_refinement_of(self, other: "Grading") -> bool:
        """Every component of ``self`` lies inside a component of ``other``."""
        if other.dimension != self.dimension:
            return False
        for g, comp in self._components.items():
            if not any(
                oc.contains_subspace(comp) for oc in other._components.values()
            ):
                return False
        return True

    def component_dims(self) -> dict[tuple[int, ...], int]:
        """Degree coords -> component dimension (plain data, for reports)."""
        return {g.coords: c.dim for g, c in self._components.items()}


# ---------------------------------------------------------------------------
# Universal abelian group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UabResult:
    """Universal abelian group of a grading: generators are the support
    elements, with one relation s_1 + ... + s_k = s for every nonzero
    evaluation of an operation across components."""

    grading: Grading
    group: FgAbGroup
    #: support elements of the original grading, fixing the generator order
    support_order: tuple[GroupElement, ...]
    #: s in S -> its class in the universal group
    iota: Mapping[GroupElement, GroupElement]
    #: universal group -> original grading group, alpha o iota = inclusion
    alpha: GroupHom
    presentation: Presentation

    def universal_grading(self) -> Grading:
        """The same decomposition viewed as a grading by the universal group."""
        degrees = [self.iota[d] for d in self.grading.degrees]
        return Grading(
            self.grading.algebra,
            self.group,
            degrees,
            self.grading.basis_change,
        )

    def hom_from_support_images(
        self, codomain: FgAbGroup, images: Mapping[GroupElement, GroupElement]
    ) -> GroupHom:
        """The homomorphism U -> codomain sending the class of each support
        element s to images[s] (must respect the relations; ValueError if
        not well defined)."""
        return _hom_from_support_images(self.presentation, self.support_order, codomain, images)


def _hom_from_support_images(pres: Presentation, support: Sequence, codomain: FgAbGroup, images: Mapping) -> GroupHom:
    """``UabResult.hom_from_support_images`` on ``pres``, presented on the
    generators ``support``: each canonical generator goes to the images
    summed along its section vector, then every support element is checked."""
    u = pres.group
    cols = []
    for i in range(u.ngens):
        img = codomain.identity()
        for s, c in zip(support, pres.section(u.generator(i))):
            img = img + c * images[s]
        cols.append(img)
    hom = GroupHom.from_gen_images(u, codomain, cols)
    for idx, s in enumerate(support):
        e_s = [1 if t == idx else 0 for t in range(len(support))]
        if hom(pres.project(e_s)) != images[s]:
            raise ValueError("images do not respect the defining relations")
    return hom


@memoized
def universal_abelian_group(grading: Grading) -> UabResult:
    """Present the universal abelian group on the support of the grading."""
    support = list(grading.support)
    index = {s: i for i, s in enumerate(support)}
    degrees = grading.degrees
    nsup = len(support)
    relations: set[tuple[int, ...]] = set()
    for op in grading.homog_algebra.operations:
        for key, vec in op.tensor.items():
            for j in vec:
                row = [0] * nsup
                for i in key:
                    row[index[degrees[i]]] += 1
                row[index[degrees[j]]] -= 1
                if any(row):
                    relations.add(tuple(row))
    rel = IntMatrix.from_columns(sorted(relations), rows=nsup)
    pres = group_from_presentation(nsup, rel)
    u = pres.group
    iota = {}
    for i, s in enumerate(support):
        e = [1 if t == i else 0 for t in range(nsup)]
        iota[s] = pres.project(e)
    if len(set(iota.values())) != nsup:
        raise AxiomFailure("universal-group classes of distinct degrees collide")
    try:
        alpha = _hom_from_support_images(pres, support, grading.group, {s: s for s in support})
    except ValueError as exc:
        raise AxiomFailure("alpha does not restrict to the support inclusion") from exc
    return UabResult(grading, u, tuple(support), iota, alpha, pres)


def weyl_on_uab(grading: Grading, weyl: Sequence[GroupHom]) -> list[GroupHom]:
    """Transport automorphisms of the grading group to automorphisms of
    the universal group along alpha (ValidationError unless alpha is an
    isomorphism)."""
    if not weyl:
        return []
    uab = universal_abelian_group(grading)
    try:
        inv = uab.alpha.inverse()
    except (ValueError, ShapeError):
        # ShapeError: a map through a group with no generators has no column count
        raise ValidationError(
            "weyl generators need the grading group to be universal "
            "(alpha: U_ab -> G is not an isomorphism)"
        ) from None
    return [inv.compose(w).compose(uab.alpha) for w in weyl]


# ---------------------------------------------------------------------------
# Induced gradings
# ---------------------------------------------------------------------------


def induce(grading: Grading, alpha: GroupHom) -> Grading:
    """The grading with degrees pushed forward along alpha."""
    if alpha.domain != grading.group:
        raise ShapeError("homomorphism domain must be the grading group")
    return Grading(
        grading.algebra,
        alpha.codomain,
        [alpha(d) for d in grading.degrees],
        grading.basis_change,
    )


# ---------------------------------------------------------------------------
# Graded derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedDerivations:
    """Per-degree derivation components of a grading, in homogeneous-basis
    coordinates (n^2 flat, row-major)."""

    grading: Grading
    #: degree g -> D_g = {derivations mapping each A_h into A_{g+h}}
    by_degree: Mapping[GroupElement, Subspace]
    identity_part: Subspace
    #: support of the induced grading on the derivation algebra
    sigma: tuple[GroupElement, ...]

    def total_dim(self) -> int:
        return sum(s.dim for s in self.by_degree.values())


@memoized
def graded_derivations(grading: Grading) -> GradedDerivations:
    """Compute D_g for every candidate degree g in one sparse pass.

    In the homogeneous basis the unknown D[r, c] (flat index r*n + c) has
    degree deg r - deg c, and every Leibniz row (key, j) involves unknowns
    of the single degree deg j - sum(deg key).  So the rows are generated
    once, each is routed to its degree and re-indexed there, and D_g is
    the kernel of the rows of degree g on its own unknowns
    {(r, c) : deg r = g + deg c}, embedded back into n^2 coordinates.
    The candidate degrees are the differences of support elements; the
    D_g are independent and their direct sum is the whole derivation
    algebra.  A row mixing two degrees contradicts the grading
    (AxiomFailure).  The inner derivations (``inner_derivations``: one
    binary lie or associative operation) are homogeneous, the one of e_i
    of degree deg e_i; each is routed the same way and passed to its
    degree's solve as a known kernel vector.
    """
    homog = grading.homog_algebra
    n = homog.dimension
    degrees = grading.degrees
    ident = grading.group.identity()
    candidates = sorted(
        {s - t for s in grading.support for t in grading.support} | {ident},
        key=lambda g: g.coords,
    )
    # flat unknown index -> (candidate number, index among that degree's unknowns)
    unknowns: list[list[int]] = [[] for _ in candidates]
    number = {g: i for i, g in enumerate(candidates)}
    where: list[tuple[int, int]] = []
    for r in range(n):
        for c in range(n):
            d = number[degrees[r] - degrees[c]]
            where.append((d, len(unknowns[d])))
            unknowns[d].append(r * n + c)

    def route(vectors, what: str) -> list[list[dict[int, Fraction]]]:
        """The sparse vectors in flat unknowns, each re-indexed to the unknowns of its degree."""
        out: list[list[dict[int, Fraction]]] = [[] for _ in candidates]
        for vec in vectors:
            d = where[next(iter(vec))][0]
            local = {}
            for idx, coeff in vec.items():
                e, k = where[idx]
                if e != d:
                    raise AxiomFailure(
                        f"{what} mixes the derivation degrees "
                        f"{candidates[d].coords} and {candidates[e].coords}"
                    )
                local[k] = coeff
            out[d].append(local)
        return out

    routed = route(_leibniz_rows(homog), "a Leibniz row")
    inner = route(inner_derivations(homog), "an inner derivation")
    by_degree: dict[GroupElement, Subspace] = {}
    sigma = []
    for g, idxs, rows, known in zip(candidates, unknowns, routed, inner):
        if not idxs:
            if g == ident:
                by_degree[g] = Subspace(n * n, {})
            continue
        kernel = _incremental_kernel(len(idxs), rows, known)
        embedded = [{idx: x for idx, x in zip(idxs, col) if x} for col in kernel.columns()]
        # idxs is increasing, so the embedded basis is canonical, each vector's pivot its first index
        space = Subspace(n * n, {min(col): col for col in embedded})
        if space.dim or g == ident:
            by_degree[g] = space
        if space.dim:
            sigma.append(g)
    return GradedDerivations(
        grading, by_degree, by_degree[ident], tuple(sigma)
    )


# ---------------------------------------------------------------------------
# Verification of supplied graded maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedMapReport:
    """Outcome of checking a linear map against two gradings."""

    kind: str  # "isomorphism" | "equivalence" | "neither"
    #: support bijection s -> gamma(s) (equivalence / isomorphism)
    gamma: Mapping[GroupElement, GroupElement] | None
    #: induced automorphism between the universal groups (equivalence)
    uab_map: GroupHom | None


def _automorphism_columns(phi: RatMatrix, algebra: StructureAlgebra) -> list[dict[int, Fraction]]:
    """The sparse columns of phi, verified to be those of an automorphism:
    invertible, with phi(op(e_key)) = op(phi(e_key)) on every basis key."""
    n = algebra.dimension
    cols = list(sparse_rows(zip(*phi.data)))
    if phi.shape != (n, n) or len(gauss_jordan(cols, n)) != n:
        raise NotAutomorphism("map is not invertible", witness=None)
    for op in algebra.operations:
        for key in product(range(n), repeat=op.arity):
            if combine_rows(op.tensor.get(key, {}), cols) != op.apply([cols[i] for i in key]):
                raise NotAutomorphism(
                    f"map fails to preserve operation {op.name} on basis tuple {key}",
                    witness=(op.name, key),
                )
    return cols


def check_graded_map(phi: RatMatrix, src: Grading, dst: Grading) -> GradedMapReport:
    """Verify that phi (in original coordinates) is an algebra automorphism
    and classify it as a graded isomorphism, an equivalence, or neither."""
    if src.algebra.dimension != dst.algebra.dimension:
        raise ShapeError("gradings live on algebras of different dimension")
    if src.group != dst.group:
        raise ShapeError("gradings use different groups")
    cols = _automorphism_columns(phi, src.algebra)
    gamma: dict[GroupElement, GroupElement] = {}
    for s in src.support:
        image_vectors = [combine_rows(v, cols) for v in src.component(s).sparse_vectors()]
        target = None
        for t in dst.support:
            if all(dst.component(t).contains(v) for v in image_vectors):
                target = t
                break
        if target is None:
            return GradedMapReport("neither", None, None)
        gamma[s] = target
    if len(set(gamma.values())) != len(gamma):
        return GradedMapReport("neither", None, None)
    if all(s == t for s, t in gamma.items()):
        return GradedMapReport("isomorphism", gamma, _induced_uab_map(src, dst, gamma))
    return GradedMapReport("equivalence", gamma, _induced_uab_map(src, dst, gamma))


def _induced_uab_map(src: Grading, dst: Grading, gamma: Mapping) -> GroupHom:
    """The automorphism w of the universal group with
    iota'(gamma(s)) = w(iota(s)) for all support elements s."""
    u_src = universal_abelian_group(src)
    u_dst = universal_abelian_group(dst)
    images = {s: u_dst.iota[gamma[s]] for s in u_src.support_order}
    try:
        w = u_src.hom_from_support_images(u_dst.group, images)
    except ValueError as exc:
        raise VerificationFailure(
            "support bijection does not respect the universal relations"
        ) from exc
    if not w.is_isomorphism():
        raise VerificationFailure(
            "induced map between universal groups is not an isomorphism"
        )
    for s in u_src.support_order:
        if w(u_src.iota[s]) != u_dst.iota[gamma[s]]:
            raise VerificationFailure("induced universal map disagrees on the support")
    return w

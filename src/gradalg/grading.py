"""Gradings of structure algebras by finitely generated abelian groups.

A grading assigns a degree to each vector of a homogeneous basis, given
by its sparse columns (default: the standard basis).
Compatibility is verified exactly on the relation rows read once from the
structure-tensor entries.
On top: the universal abelian group of a grading, Weyl generators checked
as permutations of the support and carried to it, induced gradings along
group homomorphisms, per-degree derivation components, and verification
of supplied graded maps (equivalences and isomorphisms).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import mul
from typing import Mapping, Sequence

from .abgroup import FgAbGroup, GroupElement, GroupHom, Presentation, Subgroup, group_from_presentation
from .algcore import (
    StructureAlgebra,
    Subspace,
    _leibniz_keys,
    _leibniz_row,
    inner_derivations,
    memoized,
    subalgebra_structure,
)
from .errors import (
    AxiomFailure,
    IncompatibleDegrees,
    NotAutomorphism,
    ShapeError,
    ValidationError,
    VerificationFailure,
)
from .exactla import IntMatrix, RatMatrix, Rational, combine_rows, gauss_jordan, sparse_nullspace, sparse_rows

NOT_INVERTIBLE = "basis change must be an invertible n x n matrix"


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

    ``basis_change`` holds the homogeneous basis as sparse columns in the
    algebra's coordinates (default: the unit columns, the standard basis),
    and ``degrees[i]`` is the degree of its i-th column.  Construction
    reads the structure tensors rewritten in the homogeneous basis once,
    into one table: ``labels[i]``, the index in ``support`` of
    ``degrees[i]``, and ``relations``, the distinct nonzero rows, sorted,
    of the support counts of ``key`` minus e_(label j) over the nonzero
    entries (key, j).  Each row must sum to 0 in the group
    (compatibility); they present the universal group.  A component is
    spanned the first time it is read.  Invariants computed from a
    grading, components among them, are memoized on it (``_memo``).

    The rewritten algebra is ``subalgebra_structure(algebra, basis_change)``,
    which is ``algebra`` itself for the unit columns and is otherwise
    memoized on the algebra: gradings constructed on one algebra and
    basis share one re-based, flag-checked copy.  An induced grading
    (``induce``, ``UabResult.universal_grading(g)``, so every coarsening
    and classified grading) is not constructed: ``_regraded`` builds its
    table from the source's and takes the source's algebra, basis and
    re-based copy; both paths set the fields through ``_fill``.
    """

    __slots__ = (
        "algebra",
        "group",
        "degrees",
        "basis_change",
        "homog_algebra",
        "support",
        "labels",
        "relations",
        "_memo",
    )

    def __init__(
        self,
        algebra: StructureAlgebra,
        group: FgAbGroup,
        degrees: Sequence[GroupElement],
        basis_change: Sequence[Mapping[int, Rational]] | None = None,
    ):
        n = algebra.dimension
        degrees = tuple(degrees)
        if len(degrees) != n:
            raise ShapeError("one degree per basis vector required")
        for d in degrees:
            if d.owner != group:
                raise ShapeError("degree from a different group")
        cols = tuple({i: 1} for i in range(n)) if basis_change is None else tuple(basis_change)
        if len(cols) != n:
            raise ShapeError(NOT_INVERTIBLE)
        try:
            homog = subalgebra_structure(algebra, cols)
        except ValueError:  # dependent columns
            raise ShapeError(NOT_INVERTIBLE) from None
        by_coords = {d.coords: d for d in degrees}
        support = [by_coords[c] for c in sorted(by_coords)]
        label_of = {s.coords: i for i, s in enumerate(support)}
        labels = tuple(label_of[d.coords] for d in degrees)
        # each distinct relation row, with the first entry (op, key, j) giving it
        rows: dict[tuple[int, ...], tuple] = {}
        for op in homog.operations:
            for key, vec in op.tensor.items():
                counts = [0] * len(support)
                for i in key:
                    counts[labels[i]] += 1
                for j in vec:
                    counts[labels[j]] -= 1
                    rows.setdefault(tuple(counts), (op, key, j))
                    counts[labels[j]] += 1
        # compatibility: every row sums to 0 in the group, read on the integer coordinates of its
        # first entry, so each entry lands in the product degree
        for op, key, j in rows.values():
            total = group.reduce([sum(x) for x in zip(*(degrees[i].coords for i in key))])
            if total != degrees[j].coords:
                raise IncompatibleDegrees(
                    f"operation {op.name} maps degrees "
                    f"{[degrees[i].coords for i in key]} into basis vector {j} "
                    f"of degree {degrees[j].coords} != {total}",
                    witness=(op.name, key, j),
                )
        relations = tuple(sorted(row for row in rows if any(row)))
        self._fill(algebra, group, degrees, cols, homog, tuple(support), labels, relations)

    def _fill(self, *values) -> None:
        """Set the slots, in the order of ``__slots__``, with an empty memo:
        the one place where a grading, constructed or induced, gets its fields."""
        for name, value in zip(self.__slots__, values + ({},)):
            object.__setattr__(self, name, value)

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

    @memoized
    def component(self, g: GroupElement) -> Subspace:
        """Component of degree g in the original coordinates (zero off the support)."""
        return Subspace.span(self.dimension, [self.basis_change[i] for i in self.indices_of_degree(g)])

    def components(self) -> dict[GroupElement, Subspace]:
        return {s: self.component(s) for s in self.support}

    def indices_of_degree(self, g: GroupElement) -> list[int]:
        """Homogeneous-basis indices with degree g."""
        s = self.support.index(g) if g in self.support else None
        return [i for i, t in enumerate(self.labels) if t == s]

    def identity_component(self) -> Subspace:
        return self.component(self.group.identity())

    def is_refinement_of(self, other: "Grading") -> bool:
        """Both grade the same algebra (equal dimension, and equal arity and
        structure constants per operation), and every component of ``self``
        lies inside a component of ``other``: each basis column of ``self``
        is read in the one that holds its degree's first column, with no span."""
        a, b = (
            (g.algebra.dimension, [(op.arity, op.tensor) for op in g.algebra.operations]) for g in (self, other)
        )
        if a != b:
            return False
        home: dict[int, Subspace | None] = {}
        for t, col in zip(self.labels, self.basis_change):
            places = [home[t]] if t in home else other.components().values()
            home[t] = next((c for c in places if c.contains(col)), None)
            if home[t] is None:
                return False
        return True

    def component_dims(self) -> dict[tuple[int, ...], int]:
        """Degree coords -> component dimension (plain data, for reports),
        counted on ``labels``: the basis is invertible, so each count is
        the dimension of the span."""
        counts = Counter(self.labels)
        return {s.coords: counts[i] for i, s in enumerate(self.support)}


# ---------------------------------------------------------------------------
# Universal abelian group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UabResult:
    """Universal abelian group of a grading: generators are the support
    elements, with one relation s_1 + ... + s_k = s for every nonzero
    evaluation of an operation across components, read from the grading's
    table (``Grading.relations``: each distinct relation once).  It is
    memoized on the grading, so it holds no reference to it."""

    group: FgAbGroup
    #: support elements of the original grading, fixing the generator order
    support_order: tuple[GroupElement, ...]
    #: s in S -> its class in the universal group
    iota: Mapping[GroupElement, GroupElement]
    #: universal group -> original grading group, alpha o iota = inclusion
    alpha: GroupHom
    presentation: Presentation

    @cached_property
    def torsion_fibres(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The coordinates of the classes iota(s), s in ``support_order``,
        grouped by their free part (their image in U/t(U)), in the order of
        their first members; only the groups of two or more are kept, as a
        class alone in its group is told apart from the others by the free part."""
        r = self.group.free_rank
        fibres: dict[tuple[int, ...], list] = {}
        for s in self.support_order:
            u = self.iota[s].coords
            fibres.setdefault(u[:r], []).append(u)
        return tuple(tuple(f) for f in fibres.values() if len(f) > 1)

    def universal_grading(self, grading: Grading) -> Grading:
        """The decomposition of ``grading``, the grading this result was
        computed from, viewed as a grading by the universal group."""
        return _regraded(grading, self.group, self.iota.__getitem__)

    def hom_from_support_images(
        self, codomain: FgAbGroup, images: Mapping[GroupElement, GroupElement]
    ) -> GroupHom:
        """The homomorphism U -> codomain sending the class of each support
        element s to images[s] (must respect the relations; ValueError if
        not well defined)."""
        return _hom_from_support_images(self.presentation, self.support_order, codomain, images)


def _hom_from_support_images(pres: Presentation, support: Sequence, codomain: FgAbGroup, images: Mapping) -> GroupHom:
    """``UabResult.hom_from_support_images`` on ``pres``, presented on the
    generators ``support``: its matrix is one integer product, the
    coordinates of the images (a column per support element) times
    ``pres.section_matrix``, with its columns reduced in ``codomain``.
    Then every support element is checked: the matrix times column s of
    ``pres.projection_matrix`` (the class of s) must reduce to images[s]."""
    rows = codomain.ngens
    targets = IntMatrix.from_columns([images[s].coords for s in support], rows=rows)
    columns = (targets * pres.section_matrix).columns()
    hom = GroupHom(pres.group, codomain, IntMatrix.from_columns(list(map(codomain.reduce, columns)), rows=rows))
    if list(map(codomain.reduce, (hom.matrix * pres.projection_matrix).columns())) != targets.columns():
        raise ValueError("images do not respect the defining relations")
    return hom


@memoized
def universal_abelian_group(grading: Grading) -> UabResult:
    """Present the universal abelian group on the support of the grading,
    with the grading's relation rows (``Grading.relations``, sorted) as the
    relation columns: iota(s) is column s of the presentation's projection
    matrix, and alpha is the hom sending each iota(s) to s."""
    support = list(grading.support)
    nsup = len(support)
    pres = group_from_presentation(nsup, IntMatrix.from_columns(grading.relations, rows=nsup))
    u = pres.group
    iota = {s: u.element(col) for s, col in zip(support, pres.projection_matrix.columns())}
    if len(set(iota.values())) != nsup:
        raise AxiomFailure("universal-group classes of distinct degrees collide")
    try:
        alpha = _hom_from_support_images(pres, support, grading.group, {s: s for s in support})
    except ValueError as exc:
        raise AxiomFailure("alpha does not restrict to the support inclusion") from exc
    return UabResult(u, tuple(support), iota, alpha, pres)


@memoized
def weyl_permutation(grading: Grading, w: GroupHom) -> tuple[int, ...]:
    """The permutation of the support labels by which the Weyl generator w
    acts: w maps support element i to element perm[i].  A Weyl generator
    maps the support onto itself, keeps each component's dimension, and
    permutes the relation rows of ``grading.relations``: the support counts
    of the nonzero products, which a graded automorphism permutes with the
    components.  Checked on integer tuples, the degrees' coordinates and
    the rows' counts; ValidationError otherwise.  Memoized on the grading,
    so ``weyl_on_uab`` reads the permutation the workspace parser checked."""
    if (w.domain, w.codomain) != (grading.group, grading.group):
        raise ShapeError("a Weyl generator is an endomorphism of the grading group")
    dims = grading.component_dims()
    matrix = [list(r) for r in w.matrix.data]
    # dims lists the support in order, the order of the columns of grading.relations
    label = {coords: i for i, coords in enumerate(dims)}
    perm = []
    for coords, dim in dims.items():
        image = grading.group.reduce(w.matrix.matvec(coords))
        if dims.get(image) != dim:
            found = f"of dimension {dims[image]}" if image in dims else "outside the support"
            raise ValidationError(
                f"matrix {matrix} is not in the Weyl group: "
                f"it maps degree {list(coords)} (dimension {dim}) to {list(image)} {found}"
            )
        perm.append(label[image])
    if len(set(perm)) < len(perm):
        raise ValidationError("matrix is not an automorphism")
    relations = set(grading.relations)
    # column k of a row's image is column perm^-1(k) of the row
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    for row in grading.relations:
        image = tuple(map(row.__getitem__, inverse))
        if image not in relations:
            raise ValidationError(
                f"matrix {matrix} is not in the Weyl group: it maps the relation "
                f"{_relation_text(row, dims)} of a nonzero product to {_relation_text(image, dims)}, "
                f"which no nonzero product gives"
            )
    return tuple(perm)


def _relation_text(row: Sequence[int], dims: Mapping[tuple[int, ...], int]) -> str:
    """A relation row as a sum of support degrees, such as ``-1*[0, 0] + 2*[1, 0]``."""
    return " + ".join(f"{c}*{list(s)}" for c, s in zip(row, dims) if c).replace("+ -", "- ")


def weyl_on_uab(grading: Grading, weyl: Sequence[GroupHom]) -> list[GroupHom]:
    """Carry Weyl generators of the grading group to the universal group:
    w permutes the support (``weyl_permutation``), and its generator on U
    sends iota(s) to iota(w(s)), one ``hom_from_support_images``.  That is
    alpha^-1 o w o alpha, as alpha(iota(s)) = s and iota(S) generates U;
    ValidationError unless alpha is an isomorphism."""
    if not weyl:
        return []
    uab = universal_abelian_group(grading)
    if not uab.alpha.is_isomorphism():
        raise ValidationError(
            "weyl generators need the grading group to be universal "
            "(alpha: U_ab -> G is not an isomorphism)"
        )
    support = uab.support_order
    images = ({s: uab.iota[support[t]] for s, t in zip(support, weyl_permutation(grading, w))} for w in weyl)
    return [uab.hom_from_support_images(uab.group, image) for image in images]


# ---------------------------------------------------------------------------
# Induced gradings
# ---------------------------------------------------------------------------


def induce(grading: Grading, alpha: GroupHom) -> Grading:
    """The grading with degrees pushed forward along alpha."""
    if alpha.domain != grading.group:
        raise ShapeError("homomorphism domain must be the grading group")
    return _regraded(grading, alpha.codomain, alpha)


def _regraded(grading: Grading, group: FgAbGroup, image) -> Grading:
    """The decomposition of ``grading`` with each degree s replaced by
    image(s) in ``group``, built from the source's table: image is applied
    once per support element, the labels follow the merged support, and
    the relation rows are the source's rows with their columns merged,
    each distinct nonzero one once, sorted.  Each merged row must sum to 0
    in ``group`` (IncompatibleDegrees otherwise).  The algebra, its
    re-based copy and the basis are the source's."""
    images = [image(s) for s in grading.support]
    by_coords = {g.coords: g for g in images}
    coords = sorted(by_coords)
    merged = {c: i for i, c in enumerate(coords)}
    column = [merged[g.coords] for g in images]
    rows = set()
    for row in grading.relations:
        sums = [0] * len(coords)
        for k, c in zip(column, row):
            sums[k] += c
        rows.add(tuple(sums))
    rows.discard((0,) * len(coords))
    # the coordinates of the degrees, axis by axis, and each axis's modulus (0 when free)
    axes = list(zip(*coords))
    moduli = (0,) * group.free_rank + group.invariants
    for row in rows:
        sums = [sum(map(mul, row, axis)) for axis in axes]
        if any(x % d if d else x for x, d in zip(sums, moduli)):
            total = group.reduce(sums)
            raise IncompatibleDegrees(
                f"the induced degrees {coords} violate the relation row {row}: its sum is {total}",
                witness=row,
            )
    induced = Grading.__new__(Grading)
    induced._fill(
        grading.algebra,
        group,
        tuple(images[s] for s in grading.labels),
        grading.basis_change,
        grading.homog_algebra,
        tuple(by_coords[c] for c in coords),
        tuple(column[s] for s in grading.labels),
        tuple(sorted(rows)),
    )
    return induced


# ---------------------------------------------------------------------------
# Graded derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedDerivations:
    """Per-degree derivation components of a grading, in homogeneous-basis
    coordinates (n^2 flat, row-major); memoized on the grading, so it holds
    no reference to it."""

    #: degree g -> D_g = {derivations mapping each A_h into A_{g+h}}, for g in the
    #: subgroup solved within
    by_degree: Mapping[GroupElement, Subspace]
    identity_part: Subspace
    #: support of the induced grading on the derivation algebra, inside that subgroup
    sigma: tuple[GroupElement, ...]

    def total_dim(self) -> int:
        return sum(s.dim for s in self.by_degree.values())


def _derivation_system(grading: Grading, within: Subgroup | None = None):
    """The Leibniz system of ``graded_derivations``, split by degree:
    (candidates, unknowns, rows, inner).  ``candidates`` are the possible
    degrees in ``within`` (all of them when it is None), sorted: the
    differences of support elements and the identity.
    For candidate number d, ``unknowns[d]`` lists the flat unknowns r*n + c
    of that degree, increasing; ``rows[d]`` is a generator of its Leibniz
    rows and ``inner[d]`` its inner derivations, both re-indexed to the
    positions in ``unknowns[d]``.  Unknowns, equations and inner
    derivations of degrees outside ``within`` are not filed.

    Degrees are read from integer tables: the support label of each basis
    vector and the |S| x |S| table of the candidate number of s - t (None
    outside ``within``).  Only the inner derivations of the basis vectors
    whose degree is a candidate are built.  One
    pass over the ``_leibniz_keys`` pairs files each equation (key, j)
    under its degree: that of D[j, a] for the first index a of op(key),
    or, when op(key) = 0, that of the first right-hand term that hits j.
    A row is built only when its degree's solve reads it, in the order
    of ``_leibniz_rows`` (key by key, then j), and is checked then: a row
    whose unknowns span two degrees raises AxiomFailure.  On a validated
    grading none does, as every unknown of row (key, j) has degree
    deg j - sum(deg key)."""
    homog = grading.homog_algebra
    n = homog.dimension
    group = grading.group
    support = [s.coords for s in grading.support]
    label = grading.labels
    differences = [[group.reduce([x - y for x, y in zip(s, t)]) for t in support] for s in support]
    candidates = sorted(
        g
        for g in {g for row in differences for g in row} | {group.identity().coords}
        if within is None or within.contains(group.element(g))
    )
    number = {g: i for i, g in enumerate(candidates)}
    diff = [[number.get(g) for g in row] for row in differences]
    candidates = [group.element(g) for g in candidates]
    # flat unknown r*n + c -> its candidate number and its position among that degree's unknowns
    degree_of = [diff[label[r]][label[c]] for r in range(n) for c in range(n)]
    unknowns: list[list[int]] = [[] for _ in candidates]
    position = [0] * (n * n)
    for k, d in enumerate(degree_of):
        if d is not None:
            position[k] = len(unknowns[d])
            unknowns[d].append(k)
    members = [[i for i in range(n) if label[i] == s] for s in range(len(support))]
    filed: list[list[tuple]] = [[] for _ in candidates]
    for val, terms in _leibniz_keys(homog):
        if val:
            a0 = label[next(iter(val))]
            for s, js in enumerate(members):
                if (d := diff[s][a0]) is not None:
                    filed[d].append((val, terms, js))
        else:
            first: dict[int, int | None] = {}
            for it, entries in terms:
                for b, vec in entries:
                    for j in vec:
                        first.setdefault(j, degree_of[b * n + it])
            by_degree: dict[int, list[int]] = {}
            for j in sorted(first):
                if first[j] is not None:
                    by_degree.setdefault(first[j], []).append(j)
            for d, js in by_degree.items():
                filed[d].append((val, terms, js))

    def local(vec, d: int, what: str) -> dict:
        """The sparse vector in flat unknowns, all of degree number d, re-indexed to that degree's."""
        out = {}
        for idx, coeff in vec.items():
            if degree_of[idx] != d:
                r, c = divmod(idx, n)
                raise AxiomFailure(
                    f"{what} mixes the derivation degrees "
                    f"{candidates[d].coords} and {differences[label[r]][label[c]]}"
                )
            out[position[idx]] = coeff
        return out

    def rows(d: int):
        """The rows of degree number d, each built in that degree's unknowns when it is read."""
        for val, terms, js in filed[d]:
            for j in js:
                if row := _leibniz_row(n, val, terms, j):
                    yield local(row, d, "a Leibniz row")

    inner: list[list[dict]] = [[] for _ in candidates]
    # the inner derivation of e_i has degree deg e_i: only those of a candidate are built
    for vec in inner_derivations(homog, {i for i in range(n) if support[label[i]] in number}):
        if (d := degree_of[next(iter(vec))]) is not None:
            inner[d].append(local(vec, d, "an inner derivation"))
    return candidates, unknowns, [rows(d) for d in range(len(candidates))], inner


@memoized
def graded_derivations(grading: Grading, within: Subgroup | None = None) -> GradedDerivations:
    """Compute D_g for every candidate degree g in the subgroup ``within``
    of the grading group (every candidate when None) in one sparse pass.
    The identity is in every subgroup, so D_e is always computed; the
    toral rank reads D_e alone (``within`` trivial), the almost-fine
    coarsenings the degrees in the torsion of the universal group, and
    ``der`` every one.

    In the homogeneous basis the unknown D[r, c] (flat index r*n + c) has
    degree deg r - deg c, and every Leibniz row (key, j) involves unknowns
    of the single degree deg j - sum(deg key).  So D_g is the kernel of the
    rows of degree g on its own unknowns {(r, c) : deg r = g + deg c},
    embedded back into n^2 coordinates (``_derivation_system`` files the
    rows by degree and builds each one when the solve reads it).  The
    candidate degrees are the differences of support elements; the D_g
    are independent and their direct sum is the whole derivation algebra.
    The inner derivations (``inner_derivations``: one binary lie or
    associative operation) are homogeneous, the one of e_i of degree
    deg e_i; each is passed to its degree's solve as a known kernel
    vector, so the solve stops once they can be the whole kernel.
    """
    if within is not None and within.owner != grading.group:
        raise ShapeError("subgroup of a different group")
    n = grading.dimension
    ident = grading.group.identity()
    candidates, unknowns, rows, inner = _derivation_system(grading, within)
    by_degree: dict[GroupElement, Subspace] = {}
    sigma = []
    for g, idxs, stream, known in zip(candidates, unknowns, rows, inner):
        kernel = _incremental_kernel(len(idxs), stream, known)
        embedded = [{idx: x for idx, x in zip(idxs, col) if x} for col in kernel.columns()]
        # idxs is increasing, so the embedded basis is canonical, each vector's pivot its first index
        space = Subspace(n * n, {min(col): col for col in embedded})
        if space.dim or g == ident:
            by_degree[g] = space
        if space.dim:
            sigma.append(g)
    return GradedDerivations(by_degree, by_degree[ident], tuple(sigma))


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


def _automorphism_columns(phi: RatMatrix, algebra: StructureAlgebra) -> list[dict[int, Rational]]:
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

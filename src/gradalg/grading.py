"""Gradings of structure algebras by finitely generated abelian groups.

A grading assigns a degree to each vector of a homogeneous basis, given
by its sparse columns (default: the standard basis).
Compatibility is verified exactly on the relation rows read once from the
structure-tensor entries.
On top: the universal abelian group of a grading, Weyl generators checked
as permutations of the support and carried to it, induced gradings along
group homomorphisms, and per-degree derivation components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Mapping, Sequence

from .abgroup import FgAbGroup, GroupElement, GroupHom, Presentation, Subgroup, group_from_presentation
from .algcore import (
    StructureAlgebra,
    Subspace,
    _leibniz_keys,
    _leibniz_row,
    derivations_are_inner,
    inner_derivations,
    memoized,
    subalgebra_structure,
)
from .errors import AxiomFailure, IncompatibleDegrees, ShapeError, ValidationError
from .exactla import IntMatrix, RatMatrix, Rational, coordinate_reader, is_unit_basis, sparse_nullspace

NOT_INVERTIBLE = "basis change must be an invertible n x n matrix"


def _incremental_kernel(ncols: int, rows, known=()) -> RatMatrix:
    """The canonical kernel basis of one degree's rows, as a dense matrix: the one per-degree
    kernel routine of graded_derivations, run for each degree that has a known vector or, on
    the Leibniz path, a row.  perfbench/tracer.py counts the per-degree kernels by this name
    and reads its column count.

    ``known`` are that degree's inner derivations, re-indexed to its unknowns: known kernel
    vectors.  ``rows`` None says they are the whole kernel (``derivations_are_inner``): their
    span is returned, one elimination, and no row is read.  Otherwise ``sparse_nullspace``
    stops eliminating at ncols - dim span(known) pivots and returns their span when they can
    be the whole kernel; the rows it reads are checked against them."""
    kernel = Subspace.span(ncols, known) if rows is None else sparse_nullspace(ncols, rows, known)
    return RatMatrix.from_sparse_columns(kernel.sparse_vectors(), ncols)


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
    spanned the first time it is read; membership in the components is
    read, not spanned (``coarse_labels`` reads a basis in this one's).
    Invariants computed from a grading, components among them, are
    memoized on it (``_memo``).

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

    def indices_of_degree(self, g: GroupElement) -> list[int]:
        """Homogeneous-basis indices with degree g."""
        s = self.support.index(g) if g in self.support else None
        return [i for i, t in enumerate(self.labels) if t == s]

    def identity_component(self) -> Subspace:
        return self.component(self.group.identity())

    def coarse_labels(self, other: "Grading") -> list[int] | None:
        """For each support label of ``self``, the support label of the
        component of ``other`` that holds it; None unless ``self`` refines
        ``other``.  Both must grade the same algebra (equal dimension, and
        equal arity and structure constants per operation).  Each basis
        column of ``self`` is read in ``other``'s homogeneous basis (one
        ``coordinate_reader``, with no span, or, when ``other`` has the unit
        basis, as the column itself, with no elimination): its coordinates
        must lie on the columns of one label of ``other``, the same for
        every column of one degree of ``self``."""
        a, b = (
            (g.algebra.dimension, [(op.arity, op.tensor) for op in g.algebra.operations]) for g in (self, other)
        )
        if a != b:
            return None
        unit = is_unit_basis(self.dimension, other.basis_change)
        coords = None if unit else coordinate_reader(self.dimension, other.basis_change)
        home: list[int | None] = [None] * len(self.support)
        for t, col in zip(self.labels, self.basis_change):
            places = {other.labels[i] for i in (col if unit else coords(col))}
            if len(places) != 1 or home[t] not in (None, *places):
                return None
            home[t] = places.pop()
        return home

    def is_refinement_of(self, other: "Grading") -> bool:
        """Every component of ``self`` lies inside a component of ``other`` (``coarse_labels``)."""
        return self.coarse_labels(other) is not None

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


def _degree_parts(grading: Grading, within: Subgroup | None, certified: bool) -> list[tuple]:
    """The per-degree parts of ``graded_derivations``: (g, unknowns, rows,
    known) for each degree g that can carry a derivation, sorted.  The
    unknowns of g are the flat r*n + c with deg r = g + deg c, increasing;
    ``rows`` generates g's Leibniz rows and ``known`` lists g's inner
    derivations, both re-indexed to the positions in the unknowns.  Only
    the maps of the basis vectors whose degree is in ``within`` (all when
    None) are built, by one ``inner_derivations`` call; a support degree
    is tested in ``within`` once, with no test in the trivial subgroup.

    The degrees are read per support label.  Labels s and t have the
    degree s - t, the identity when s = t with no group arithmetic, read
    once per pair.  A degree's layout is built at its first use: the label
    of s - g for each support label s, the unknowns, row r holding the
    (r, c) whose c has the label of deg r - g, and each row's offset.

    ``certified`` (``derivations_are_inner``): the degrees are the identity
    and the support degrees in ``within``, ``rows`` is None, and a degree
    with no inner derivation gets no unknowns.  Otherwise the degrees are
    the differences of support labels in ``within`` and the identity, and
    one pass over the ``_leibniz_keys`` pairs files each equation (key, j)
    under the degree of D[j, a] for the first index a of op(key), or, when
    op(key) = 0, of the first right-hand term that hits j.  A row is built
    only when its degree's solve reads it, key by key, then j.

    Each inner derivation is filed under the degree of its first entry,
    which must be one of the degrees, and every entry of a map or row must
    have its degree: one that does not raises AxiomFailure.  On a validated
    grading none does, as every unknown of row (key, j) has degree
    deg j - sum(deg key)."""
    homog = grading.homog_algebra
    n = homog.dimension
    group = grading.group
    support, label = grading.support, grading.labels
    identity = group.identity()
    ident = identity.coords
    # members[s]: the basis vectors of label s, increasing; rank[i]: the place of i among them
    members: list[list[int]] = [[] for _ in support]
    rank = [0] * n
    for i, s in enumerate(label):
        rank[i] = len(members[s])
        members[s].append(i)
    slot = {g.coords: t for t, g in enumerate(support)}
    differences: dict[tuple[int, int], tuple[int, ...]] = {}

    def difference(s: int, t: int) -> tuple[int, ...]:
        if (s, t) not in differences:
            differences[s, t] = ident if s == t else group.reduce([x - y for x, y in zip(support[s].coords, support[t].coords)])
        return differences[s, t]

    # only the identity lies in the trivial subgroup (toral_rank's): no membership solve
    trivial = within is not None and within.order() == 1

    def inside(g: GroupElement) -> bool:
        return within is None or g == identity or not trivial and within.contains(g)

    label_inside = [inside(g) for g in support]
    if certified:
        elements = [g for g, x in zip(support, label_inside) if x]
    else:
        pairs = {difference(s, t) for s in range(len(support)) for t in range(len(support))}
        elements = [g for g in map(group.element, pairs) if inside(g)]
    # degree coords -> the degree; the identity is there off the support too
    degrees = {ident: identity} | {g.coords: g for g in elements}
    # degree coords -> (label of s - g for each support label s, unknowns, offset of each row's)
    layouts: dict[tuple[int, ...], tuple[list, list[int], list[int]]] = {}

    def layout(g: tuple[int, ...]):
        if g not in layouts:
            if g == ident:
                table = list(range(len(support)))
            else:
                table = [slot.get(group.reduce([x - y for x, y in zip(s.coords, g)])) for s in support]
            # row r holds the unknowns (r, c) for the c of label table[label[r]], increasing
            idxs, offsets = [], []
            for row in range(n):
                offsets.append(len(idxs))
                if (b := table[label[row]]) is not None:
                    idxs.extend(row * n + col for col in members[b])
            layouts[g] = table, idxs, offsets
        return layouts[g]

    def local(vec, g: tuple[int, ...], what: str) -> dict:
        """The sparse vector in flat unknowns, all of degree g, re-indexed to that degree's."""
        table, _, offsets = layout(g)
        out = {}
        for idx, x in vec.items():
            r, c = divmod(idx, n)
            if table[label[r]] != label[c]:
                raise AxiomFailure(f"{what} mixes the derivation degrees {g} and {difference(label[r], label[c])}")
            out[offsets[r] + rank[c]] = x
        return out

    known: dict[tuple[int, ...], list[dict]] = {g: [] for g in degrees}
    for vec in inner_derivations(homog, {i for i in range(n) if label_inside[label[i]]}):
        r, c = divmod(next(iter(vec)), n)
        if (g := difference(label[r], label[c])) not in known:
            raise AxiomFailure(f"an inner derivation has degree {g}, no support degree in the subgroup")
        known[g].append(local(vec, g, "an inner derivation"))

    filed: dict[tuple[int, ...], list[tuple]] = {g: [] for g in degrees}
    for val, terms in () if certified else _leibniz_keys(homog):
        if val:
            a0 = label[next(iter(val))]
            for s, js in enumerate(members):
                if (g := difference(s, a0)) in filed:
                    filed[g].append((val, terms, js))
        else:
            first: dict[int, tuple[int, ...]] = {}
            for it, entries in terms:
                for b, vec in entries:
                    for j in vec:
                        first.setdefault(j, difference(label[b], label[it]))
            by_degree: dict[tuple[int, ...], list[int]] = {}
            for j in sorted(first):
                if first[j] in filed:
                    by_degree.setdefault(first[j], []).append(j)
            for g, js in by_degree.items():
                filed[g].append((val, terms, js))

    def rows(g: tuple[int, ...]):
        """The rows of degree g, each built in that degree's unknowns when it is read."""
        for val, terms, js in filed[g]:
            for j in js:
                if row := _leibniz_row(n, val, terms, j):
                    yield local(row, g, "a Leibniz row")

    return [
        (degrees[g], layout(g)[1] if known[g] or not certified else [], None if certified else rows(g), known[g])
        for g in sorted(degrees)
    ]


@memoized
def graded_derivations(grading: Grading, within: Subgroup | None = None) -> GradedDerivations:
    """Compute D_g for every degree g in the subgroup ``within`` of the
    grading group (every degree when None) that can carry a derivation.
    The identity is in every subgroup, so D_e is always computed; the
    toral rank reads D_e alone (``within`` trivial), the almost-fine
    coarsenings the degrees in the torsion of the universal group, and
    ``der`` every one.

    In the homogeneous basis the unknown D[r, c] (flat index r*n + c) has
    degree deg r - deg c, so D_g lies on its own unknowns
    {(r, c) : deg r = g + deg c} and is embedded back into n^2
    coordinates; the D_g are independent and their direct sum is the whole
    derivation algebra.  The inner derivations (``inner_derivations``: one
    binary lie or associative operation) are homogeneous, the one of e_i of
    degree deg e_i.  ``_degree_parts`` lays out each degree's unknowns per
    support label, one layout for both cases below, and files the inner
    derivations and any Leibniz equations under their degrees.

    When every derivation is inner (``derivations_are_inner``: a semisimple
    Lie or associative algebra, certified once per algebra), D_g is the
    span of the inner derivations of degree g, so only the support degrees
    and the identity can be nonzero, and no Leibniz equation is filed.
    Each degree's span is one ``_incremental_kernel`` with no rows, and
    D_g = 0, with no elimination, when g has no inner derivation.  On a
    certified Lie algebra ad is injective (the center lies in the Killing
    radical), so dim D_g = dim A_g is checked, and a mismatch raises
    AxiomFailure.

    Otherwise the degrees are the differences of support elements, and D_g
    is the kernel of the Leibniz rows of degree g: every row (key, j)
    involves unknowns of the single degree deg j - sum(deg key), and each
    is built when the solve reads it.  The inner derivations are passed to
    their degree's solve as known kernel vectors, so the solve stops once
    they can be the whole kernel.  Either way each D_g is the same
    canonical ``Subspace``, and ``by_degree`` and ``sigma`` are
    in sorted degree order.
    """
    if within is not None and within.owner != grading.group:
        raise ShapeError("subgroup of a different group")
    n = grading.dimension
    ident = grading.group.identity()
    # certified on the algebra, whose Killing form lieroot reads too: the homogeneous copy is
    # the same algebra re-based, with the same verified flags
    certified = derivations_are_inner(grading.algebra)
    ad_dims = grading.component_dims() if certified and "lie" in grading.algebra.flags else None
    by_degree: dict[GroupElement, Subspace] = {}
    sigma = []
    for g, idxs, stream, known in _degree_parts(grading, within, certified):
        # a certified degree with no inner derivation is 0, with no elimination
        columns = _incremental_kernel(len(idxs), stream, known).columns() if known or stream is not None else []
        if ad_dims is not None and len(columns) != ad_dims.get(g.coords, 0):
            raise AxiomFailure(
                f"the inner derivations of degree {g.coords} span {len(columns)} dimensions, "
                f"but ad is injective on the {ad_dims.get(g.coords, 0)}-dimensional component"
            )
        embedded = [{idx: x for idx, x in zip(idxs, col) if x} for col in columns]
        # idxs is increasing, so the embedded basis is canonical, each vector's pivot its first index
        space = Subspace(n * n, {min(col): col for col in embedded})
        if space.dim or g == ident:
            by_degree[g] = space
        if space.dim:
            sigma.append(g)
    return GradedDerivations(by_degree, by_degree[ident], tuple(sigma))


"""Finitely generated abelian groups in invariant-factor form.

A group is Z^r + Z_{d1} + ... + Z_{dk} with d1 | d2 | ... | dk, di >= 2.
Elements are integer coordinate vectors of length r + k (free coordinates
first, torsion coordinates reduced modulo the invariants), so equality is
coordinate equality.  Subgroups are canonical Hermite-form lattices in
Z^{r+k} containing the relation lattice; homomorphisms are integer
matrices on canonical generators, checked for well-definedness.
Subgroups, their elements and homomorphisms are enumerated from the
invariants and the Hermite form, never by searching element sets;
enumerated homomorphisms are integer tuples of generator images, and a
``GroupHom`` is built only for the ones a caller keeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

from .errors import AxiomFailure, CapExceeded, NotASubgroup, ShapeError
from .exactla import (
    IntMatrix,
    column_hnf,
    hnf_solve,
    integer_kernel,
    smith_normal_form,
)

DEFAULT_CAP = 10**4


class FgAbGroup:
    """Z^free_rank + Z_{d1} + ... + Z_{dk} with the di a divisibility chain."""

    __slots__ = ("free_rank", "invariants")

    def __init__(self, free_rank: int, invariants: Sequence[int] = ()):
        invariants = tuple(int(d) for d in invariants)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d < 2 for d in invariants):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(invariants, invariants[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "invariants", invariants)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.invariants)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        return prod(self.invariants) if self.is_finite else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FgAbGroup)
            and self.free_rank == other.free_rank
            and self.invariants == other.invariants
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.invariants))

    def __repr__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.invariants]
        return "FgAbGroup(" + (" + ".join(parts) if parts else "0") + ")"

    # -- elements -----------------------------------------------------------

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        coords = [int(x) for x in coords]
        if len(coords) != self.ngens:
            raise ShapeError("coordinate length mismatch")
        r = self.free_rank
        for i, d in enumerate(self.invariants):
            coords[r + i] %= d
        return tuple(coords)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, coords)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ngens)

    def generator(self, i: int) -> "GroupElement":
        coords = [0] * self.ngens
        coords[i] = 1
        return self.element(coords)

    def elements(self) -> list["GroupElement"]:
        """All elements; only for finite groups."""
        if not self.is_finite:
            raise ValueError("cannot list an infinite group")
        out = []
        for coords in itertools.product(*(range(d) for d in self.invariants)):
            out.append(GroupElement(self, coords))
        return out

    def relation_lattice(self) -> IntMatrix:
        """Columns spanning the kernel of Z^{r+k} -> G (canonical coords)."""
        n, r = self.ngens, self.free_rank
        cols = []
        for i, d in enumerate(self.invariants):
            v = [0] * n
            v[r + i] = d
            cols.append(v)
        return IntMatrix.from_columns(cols, rows=n)


@dataclass(frozen=True)
class GroupElement:
    owner: FgAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.owner.reduce(self.coords))

    def _check(self, other: "GroupElement"):
        if self.owner != other.owner:
            raise ValueError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.owner.element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.owner.element([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "GroupElement":
        return self.owner.element([-a for a in self.coords])

    def __rmul__(self, n: int) -> "GroupElement":
        return self.owner.element([n * a for a in self.coords])

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"GroupElement{self.coords}"


class Subgroup:
    """Subgroup of an FgAbGroup, stored as the canonical column-Hermite
    basis of its preimage lattice in Z^{r+k} (which always contains the
    relation lattice, so equal subgroups have equal lattices)."""

    __slots__ = ("owner", "lattice")

    def __init__(self, owner: FgAbGroup, lattice: IntMatrix):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "lattice", lattice)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @classmethod
    def from_generators(cls, owner: FgAbGroup, gens: Iterable[GroupElement]) -> "Subgroup":
        gens = list(gens)
        for g in gens:
            if g.owner != owner:
                raise ValueError("generator from a different group")
        cols = [list(g.coords) for g in gens]
        m = IntMatrix.from_columns(cols, rows=owner.ngens).hstack(owner.relation_lattice())
        return cls(owner, column_hnf(m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.owner == other.owner
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash((self.owner, self.lattice))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order()}, lattice={self.lattice!r})"

    def contains(self, g: GroupElement) -> bool:
        if g.owner != self.owner:
            return False
        return hnf_solve(self.lattice, list(g.coords)) is not None

    @property
    def is_finite(self) -> bool:
        r = self.owner.free_rank
        return all(
            all(self.lattice[i, j] == 0 for i in range(r))
            for j in range(self.lattice.cols)
        )

    def order(self) -> int | None:
        """Subgroup order; None if infinite."""
        if not self.is_finite:
            return None
        k = len(self.owner.invariants)
        r = self.owner.free_rank
        # The lattice contains diag(d_i) and, the subgroup being finite, has
        # zero free rows; so its column HNF is k x k lower-triangular on the
        # torsion rows, and the index of the lattice is its diagonal product.
        d = prod(self.lattice[r + i, i] for i in range(k))
        total = prod(self.owner.invariants)
        if d == 0 or total % d:
            raise AxiomFailure("subgroup index does not divide the group order")
        return total // d

    def elements(self) -> list[GroupElement]:
        """All elements of a finite subgroup, sorted by coordinates.

        The HNF columns c_i have their pivots on the torsion rows, so each
        element is sum_i x_i c_i for exactly one x with 0 <= x_i < d_i / pivot_i.
        """
        if not self.is_finite:
            raise ValueError("cannot list an infinite subgroup")
        owner, cols = self.owner, self.lattice.columns()
        r = owner.free_rank
        radices = [d // c[r + i] for i, (d, c) in enumerate(zip(owner.invariants, cols))]
        out = [
            owner.element([sum(x * c[t] for x, c in zip(xs, cols)) for t in range(owner.ngens)])
            for xs in itertools.product(*map(range, radices))
        ]
        return sorted(out, key=lambda e: e.coords)

    def canonical_generators(self) -> list[GroupElement]:
        return [self.owner.element(list(c)) for c in self.lattice.columns()]

    def sort_key(self):
        """Finite subgroups by order, then infinite ones; ties by lattice."""
        order = self.order()
        return (order is None, order or 0, tuple(self.lattice.columns()))


class GroupHom:
    """Homomorphism between FgAbGroups, as an integer matrix acting on
    canonical coordinates (columns = images of canonical generators).

    The matrix is kept as given, so its torsion rows may hold entries
    beyond the invariants; ``images()``, the reduced columns, is the one
    reading of the map: equality and hashing compare it, and it is kept
    once read."""

    __slots__ = ("domain", "codomain", "matrix", "_images")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: IntMatrix):
        if matrix.shape != (codomain.ngens, domain.ngens):
            raise ShapeError("hom matrix shape mismatch")
        r = domain.free_rank
        for i, d in enumerate(domain.invariants):
            img = codomain.element([d * matrix[t, r + i] for t in range(codomain.ngens)])
            if not img.is_identity():
                raise ValueError(
                    f"not well defined: d_{i} times the generator image is nonzero"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.owner != self.domain:
            raise ValueError("element outside the domain")
        return self.codomain.element(self.matrix.matvec(g.coords))

    def images(self) -> tuple[tuple[int, ...], ...]:
        """The canonical coordinates of the canonical generators' images."""
        try:
            return self._images
        except AttributeError:
            images = tuple(map(self.codomain.reduce, self.matrix.columns()))
            object.__setattr__(self, "_images", images)
            return images

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images() == other.images()
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.images()))

    def __repr__(self) -> str:
        return f"GroupHom({self.domain!r} -> {self.codomain!r}, {self.matrix!r})"

    def kernel(self) -> Subgroup:
        """Kernel as a subgroup of the domain."""
        ker = integer_kernel(self.matrix.hstack(self.codomain.relation_lattice()))
        gens = [
            self.domain.element([ker[i, j] for i in range(self.domain.ngens)])
            for j in range(ker.cols)
        ]
        return Subgroup.from_generators(self.domain, gens)

    def is_surjective(self) -> bool:
        """The preimage lattice of the image, the column HNF of the matrix
        beside the codomain's relations, is all of Z^(r+k): its HNF is the
        identity."""
        m = self.matrix.hstack(self.codomain.relation_lattice())
        return column_hnf(m) == IntMatrix.identity(self.codomain.ngens)

    def is_isomorphism(self) -> bool:
        """Bijectivity.  Groups in canonical form are isomorphic only when
        equal, and then surjectivity alone decides: a finitely generated
        abelian group is Hopfian, every surjective endomorphism of it being
        injective."""
        return self.domain == self.codomain and self.is_surjective()


@dataclass(frozen=True)
class Presentation:
    """Result of presenting Z^n by a relation lattice: the canonical group,
    a projection from generator vectors, and a section picking generator
    vectors for the canonical generators, both as integer matrices."""

    group: FgAbGroup
    #: (r+k) x n integer matrix: canonical coords of the n presentation
    #: generators as columns (apply then reduce).
    projection_matrix: IntMatrix
    #: n x (r+k): representative generator-vector for each canonical generator.
    section_matrix: IntMatrix


def group_from_presentation(num_generators: int, relations: IntMatrix) -> Presentation:
    """Canonical form of Z^num_generators modulo the column span of
    ``relations``."""
    n = num_generators
    if relations.rows != n:
        raise ShapeError("relations must have one row per generator")
    snf = smith_normal_form(relations)
    diag = list(snf.diagonal()) + [0] * (n - min(relations.rows, relations.cols))
    # In U-coordinates y = U x the relation lattice is spanned by d_i e_i.
    free_rows = [i for i in range(n) if diag[i] == 0]
    torsion_rows = [i for i in range(n) if diag[i] >= 2]
    invariants = [diag[i] for i in torsion_rows]
    g = FgAbGroup(len(free_rows), invariants)
    rows = free_rows + torsion_rows
    proj = IntMatrix([[snf.U[i, j] for j in range(n)] for i in rows], n)
    section = IntMatrix([[snf.U_inv[j, i] for i in rows] for j in range(n)], len(rows))
    return Presentation(g, proj, section)


def torsion_and_free(g: FgAbGroup) -> tuple[Subgroup, GroupHom]:
    """The torsion subgroup t(G) and the projection G -> G/t(G) = Z^r."""
    r = g.free_rank
    t = Subgroup.from_generators(g, [g.generator(r + i) for i in range(len(g.invariants))])
    free = FgAbGroup(r, ())
    proj = GroupHom(
        g,
        free,
        IntMatrix([[1 if i == j else 0 for j in range(g.ngens)] for i in range(r)], g.ngens),
    )
    return t, proj


def quotient_by(g: FgAbGroup, e: Subgroup) -> tuple[FgAbGroup, GroupHom]:
    """Canonical form of G/E with the quotient homomorphism."""
    if e.owner != g:
        raise NotASubgroup("subgroup belongs to a different group")
    pres = group_from_presentation(g.ngens, e.lattice)
    q = pres.group
    hom = GroupHom(g, q, pres.projection_matrix)
    return q, hom


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _lattices(invariants: Sequence[int]):
    """Column HNFs (lists of columns) of the lattices L with
    diag(invariants) Z^k <= L <= Z^k, each once.

    Column 1 is (a, x) over the HNF T of the other columns, which are the
    lattices of the tail invariants: a divides d_1, x is reduced modulo the
    pivots of T, and (d_1/a) x lies in T, which is exactly d_1 e_1 in L.
    """
    if not invariants:
        yield []
        return
    d, rest = invariants[0], invariants[1:]
    for tail in _lattices(rest):
        t = IntMatrix.from_columns(tail, rows=len(rest))
        box = [range(c[j]) for j, c in enumerate(tail)]
        for a in (a for a in range(1, d + 1) if d % a == 0):
            for x in itertools.product(*box):
                if hnf_solve(t, [d // a * xi for xi in x]) is not None:
                    yield [(a, *x)] + [(0, *c) for c in tail]


def enumerate_subgroups(h: Subgroup, cap: int = DEFAULT_CAP) -> list[Subgroup]:
    """All subgroups of the finite subgroup ``h``, canonically ordered.

    ``h`` is presented once, as Z^k modulo the relation lattice written in
    the basis of its own lattice.  The section of that presentation carries
    each lattice over the presented group's invariants into the owner's
    coordinates; the map is injective, so every subgroup comes out once.
    """
    if not h.is_finite:
        raise ValueError("subgroup enumeration requires a finite subgroup")
    order = h.order()
    if order > cap:
        raise CapExceeded(f"subgroup order {order} exceeds cap {cap}")
    owner, basis = h.owner, h.lattice
    kernel = [hnf_solve(basis, c) for c in owner.relation_lattice().columns()]
    pres = group_from_presentation(basis.cols, IntMatrix.from_columns(kernel, rows=basis.cols))
    to_owner = basis * pres.section_matrix
    out = [
        Subgroup.from_generators(owner, [owner.element(to_owner.matvec(c)) for c in cols])
        for cols in _lattices(pres.group.invariants)
    ]
    out.sort(key=Subgroup.sort_key)
    return out


def enumerate_homs(
    g: FgAbGroup, h: FgAbGroup, cap: int = DEFAULT_CAP
) -> list[tuple[tuple[int, ...], ...]]:
    """All homomorphisms G -> H for finite H, each as its image tuple (the
    canonical coordinates of the canonical generators' images, which is
    ``GroupHom.images()``), in lexicographic order.

    A generator of order d (0 when free) goes into the d-torsion of H: its
    coordinate j runs over the multiples of h_j / gcd(d, h_j).
    """
    if not h.is_finite:
        raise ValueError("homomorphism enumeration requires a finite codomain")
    # the d-torsion of H has prod_j gcd(d, h_j) elements
    orders = (0,) * g.free_rank + g.invariants
    total = 1
    for d in orders:
        total *= prod(gcd(d, e) for e in h.invariants)
        if total > cap:
            raise CapExceeded(f"{total}+ homomorphisms exceeds cap {cap}")
    choices = [
        list(itertools.product(*(range(0, e, e // gcd(d, e)) for e in h.invariants)))
        for d in orders
    ]
    return list(itertools.product(*choices))

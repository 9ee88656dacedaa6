"""Exact linear algebra over the rationals and integers.

One scalar type, an exact rational ``int | Fraction`` in canonical form: an
``int`` when the value is integral, a ``Fraction`` only when it is not
(``rational``, ``qdiv``); no float enters.  One vector format and one
operator format: a vector is a sparse dict ``{index: scalar}`` with no zero
entries, and an operator is the list of its sparse rows ``{column:
scalar}``, multiplied and raised to powers on them (``sparse_product``,
``sparse_power``).  One sparse Gauss-Jordan elimination, fraction-free on
integer rows, is behind every echelon form, kernel and solve over Q; one
subspace type, ``Subspace``, keeps a canonical basis as sparse columns, read
off one elimination (a kernel's, with the columns in decreasing order) or
carried with none (``embed``, ``restrict``), and tested for a vector with
none (``contains``); each condition "op x in a subspace" is one kernel,
``preimage``.  One spectral routine, the generalized eigenspaces of an
operator, is behind the simultaneous eigenspace decompositions of commuting
operators and the Jordan-Chevalley semisimple part.  It runs block by block:
an operator is the direct sum of its restrictions to the coordinate blocks
it preserves (the connected components of its nonzero entries), a 1 x 1
block [a] is its own eigenvalue, eigenspace and semisimple part, and only a
larger block goes through its minimal polynomial.  The Smith normal form
U M V = S, kept as S, U and U^-1 (V is not built), is behind every presentation;
an integer kernel is read off the column Hermite form of M stacked over I.
One immutable dense matrix class keeps the shape, with an explicit column
count, so 0 x n and n x 0 matrices exist; ``RatMatrix`` (rationals, with no
arithmetic but the product) and ``IntMatrix`` (exact integers) fix its entry
type.  A ``RatMatrix`` remains only at the edges: the CLI's parse of a basis
change, the argument of ``nullspace`` and the return of
``grading._incremental_kernel`` (``perfbench/tracer.py`` reads both), and
``rref``, ``solve`` and ``inverse``, which the tracer wraps by name and the
program never calls.  Everything is exact; non-rational spectra
raise NonSplitError instead of being approximated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    AxiomFailure,
    NonSplitError,
    NotCommutingError,
    NotDiagonalizableError,
    ShapeError,
)

#: an exact rational, an ``int`` when it is integral
Rational = int | Fraction


def rational(x) -> Rational:
    """The exact rational of an int, a Fraction or a numeric string, an
    ``int`` when it is integral (TypeError on anything else, floats
    included)."""
    if type(x) is int:
        return x
    if isinstance(x, (Fraction, int, str)):
        x = x if isinstance(x, Fraction) else Fraction(x)
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot build an exact rational from {x!r}")


def qdiv(a: Rational, b: Rational) -> Rational:
    """The exact quotient a / b of two rationals, an ``int`` when it is
    integral: the one true division of the program, since ``/`` on two
    ints is a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return rational(a / b)


class _DenseMatrix:
    """Immutable dense matrix with an explicit shape: its rows and its
    column count ``cols``, read off the first row unless given, so a
    matrix with no rows still has one (a map out of Z^n into the trivial
    group is 0 x n).  A subclass fixes the entry type with ``_entry`` and
    adds the operations of its ring."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Iterable[Iterable], cols: int | None = None):
        entry = self._entry
        data = tuple(tuple(map(entry, row)) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls, n: int):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None):
        if rows is None:
            if not cols:
                raise ShapeError("row count needed for a matrix with no columns")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ShapeError("ragged columns")
        return cls([[c[i] for c in cols] for i in range(rows)], len(cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def columns(self) -> list[tuple]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.cols, self.data))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("shape mismatch in multiplication")
        bt = other.columns()
        return type(self)(
            [[sum(map(operator.mul, row, col)) for col in bt] for row in self.data],
            other.cols,
        )


class RatMatrix(_DenseMatrix):
    """Immutable dense matrix of exact rationals, each kept in canonical
    form (``rational``)."""

    __slots__ = ()
    _entry = staticmethod(rational)

    @classmethod
    def from_sparse_columns(cls, cols: Sequence[Mapping[int, Rational]], rows: int) -> "RatMatrix":
        """The matrix with the sparse columns ``{row: entry}``."""
        return cls([[c.get(i, 0) for c in cols] for i in range(rows)], len(cols))

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.data]})"


# ---------------------------------------------------------------------------
# Echelon forms and linear solving
# ---------------------------------------------------------------------------


def gauss_jordan(
    rows: Iterable[Mapping[int, Rational]], ncols: int, max_rank: int | None = None
) -> dict[int, dict[int, Rational]]:
    """The reduced row echelon form of a stream of sparse rows
    ``{column: coefficient}`` in ``ncols`` columns, as {pivot column:
    row}, sorted by pivot: the one Gauss-Jordan elimination over Q
    (``_integer_echelon``), each kept row divided by its pivot entry.
    That is the unique reduced echelon basis of the rows read, whatever
    their order, with canonical entries: ``int`` where integral."""
    reduced = _integer_echelon(rows, ncols, max_rank)
    return {p: _rational_row(reduced[p], p) for p in sorted(reduced)}


def _integer_echelon(
    rows: Iterable[Mapping[int, Rational]], ncols: int, max_rank: int | None = None, first=min
) -> dict[int, dict[int, int]]:
    """The elimination behind ``gauss_jordan``, as {pivot column: primitive
    integer row} in the order the pivots were found.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    row read is scaled by the lcm of its denominators to integers and
    reduced against the rows kept so far, each a primitive integer row,
    positive at its pivot, 0 at every other pivot and 0 before its pivot
    in the column order (increasing, or decreasing with ``first=max``);
    one reduction step is d*row - f*kept, then division by the gcd of the
    entries.  If the row does not vanish, its first column in that order
    becomes a pivot and is cleared from the kept rows the same way.
    Reading stops once ``max_rank`` columns (default: every column) have a
    pivot; a caller that knows the rank of the rows is at most
    ``max_rank`` gets the whole row space."""
    reduced: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    stop = ncols if max_rank is None else max_rank
    while len(reduced) < stop and (row := next(rows, None)) is not None:
        row = _integer_row(row)
        for p in [c for c in row if c in reduced]:
            _eliminate(row, p, reduced[p])
        if row:
            pivot = first(row)
            g = math.gcd(*row.values())
            if row[pivot] < 0:
                g = -g
            if g != 1:
                for c in row:
                    row[c] //= g
            for other in reduced.values():
                if pivot in other:
                    _eliminate(other, pivot, row)
            reduced[pivot] = row
    return reduced


def _rational_row(row: dict[int, int], pivot: int) -> dict[int, Rational]:
    """The integer row divided by its entry at ``pivot``: the row itself
    when that entry is 1."""
    b = row[pivot]
    return row if b == 1 else {c: qdiv(x, b) for c, x in row.items()}


def _integer_row(row: Mapping[int, Rational]) -> dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their denominators:
    the nonzero entries themselves when every entry is an int."""
    if all(type(x) is int for x in row.values()):
        return {c: x for c, x in row.items() if x}
    scale = math.lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items() if x}


def _eliminate(target: dict[int, int], p: int, kept: Mapping[int, int]):
    """Clear column ``p`` of the integer row ``target`` in place with the
    kept row, positive at its pivot ``p``: target = d*target - f*kept for
    d = b/g and f = a/g, where a and b are the entries at ``p`` and g =
    gcd(a, b), then divided by the gcd of its entries."""
    g = math.gcd(a := target.pop(p), b := kept[p])
    d, f = b // g, a // g
    if d != 1:
        for c in target:
            target[c] *= d
    for c, x in kept.items():
        if c != p:
            if y := target.get(c, 0) - f * x:
                target[c] = y
            else:
                target.pop(c, None)
    if target and (g := math.gcd(*target.values())) != 1:
        for c in target:
            target[c] //= g


def combine_rows(
    coeffs: Mapping[int, Rational], rows: Sequence[Mapping[int, Rational]]
) -> dict[int, Rational]:
    """The sparse row sum over k of coeffs[k] * rows[k], each entry canonical
    (a sum of Fractions that is integral is returned as its ``int``)."""
    out: dict[int, Rational] = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x.numerator if type(x) is Fraction and x.denominator == 1 else x for j, x in out.items() if x}


def sparse_rows(data: Iterable[Sequence[Rational]]):
    """Each dense row of ``data`` as its nonzero entries {column: entry}."""
    return ({c: x for c, x in enumerate(row) if x} for row in data)


def sparse_product(a: Sequence[Mapping[int, Rational]], b: Sequence[Mapping[int, Rational]]) -> list[dict[int, Rational]]:
    """The sparse rows of the product A B of two operators given by sparse rows."""
    return [combine_rows(row, b) for row in a]


def sparse_power(rows: Sequence[Mapping[int, Rational]], k: int) -> list[dict[int, Rational]]:
    """The sparse rows of M^k for the square operator M with sparse rows ``rows``, by repeated
    squaring (``sparse_product``); M^0 is the identity."""
    power, base = [{i: 1} for i in range(len(rows))], list(rows)
    while k:
        if k & 1:
            power = sparse_product(power, base)
        k >>= 1
        if k:
            base = sparse_product(base, base)
    return power


def transpose(rows: Sequence[Mapping[int, Rational]], ncols: int) -> list[dict[int, Rational]]:
    """The sparse rows of the transpose: the columns of ``rows``, sparse."""
    out: list[dict[int, Rational]] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def flat_vector(rows: Sequence[Mapping[int, Rational]]) -> dict[int, Rational]:
    """An n x n operator as a sparse vector of Q^(n^2), entry (r, c) at r*n + c."""
    n = len(rows)
    return {r * n + c: x for r, row in enumerate(rows) for c, x in row.items()}


def flat_operator(vec: Mapping[int, Rational], n: int) -> list[dict[int, Rational]]:
    """The n x n operator whose ``flat_vector`` is ``vec``."""
    rows: list[dict[int, Rational]] = [{} for _ in range(n)]
    for k, x in vec.items():
        rows[k // n][k % n] = x
    return rows


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    reduced = gauss_jordan(sparse_rows(m.data), m.cols)
    rows = list(reduced.values()) + [{}] * (m.rows - len(reduced))
    return RatMatrix([[row.get(c, 0) for c in range(m.cols)] for row in rows], m.cols), tuple(reduced)


def _free_vectors(reduced: Mapping[int, Mapping[int, int]], ncols: int):
    """The kernel basis of a reduced echelon form {pivot: integer row} from
    ``_integer_echelon``, as (f, vector) for each free column f, increasing:
    1 at f, 0 at the other free columns and -row[f] / row[pivot] at each
    row's pivot, so nonzero only where a row's pivot comes before f in the
    column order: its last nonzero entry is f for ``first=min``, and for
    ``first=max`` it is the canonical basis vector with pivot f."""
    pivots = sorted(reduced)
    for f in range(ncols):
        if f not in reduced:
            vec = {f: 1}
            vec.update((p, qdiv(-row[f], row[p])) for p in pivots if f in (row := reduced[p]))
            yield f, vec


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """The unique X with A X = B, or None when the system is inconsistent,
    from one elimination of [A | B].  Raises ShapeError when the columns of
    A are dependent (the A block of that elimination has fewer pivots than
    columns)."""
    if a.rows != b.rows:
        raise ShapeError("A and B must have equal row counts")
    reduced = gauss_jordan(sparse_rows(ra + rb for ra, rb in zip(a.data, b.data)), a.cols + b.cols)
    pivots = tuple(reduced)
    if pivots[: a.cols] != tuple(range(a.cols)):
        raise ShapeError("columns of A are dependent")
    # Inconsistent iff some pivot falls in the B block.
    if len(pivots) > a.cols:
        return None
    return RatMatrix([[row.get(a.cols + j, 0) for j in range(b.cols)] for row in reduced.values()], b.cols)


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ShapeError("inverse of a non-square matrix")
    try:
        return solve(m, RatMatrix.identity(m.rows))
    except ShapeError:
        raise ShapeError("matrix is singular") from None


# ---------------------------------------------------------------------------
# Subspaces: canonical bases, kernels, coordinates
# ---------------------------------------------------------------------------


def _pivot_coords(vec: Mapping, pivots: Sequence[int], basis: Sequence[Mapping]) -> dict | None:
    """Sparse coordinates of the sparse vector ``vec`` in a canonical basis
    (vector t is 1 at its pivot ``pivots[t]``, every other one 0 there):
    x_t = vec[pivots[t]], or None when vec != sum_t x_t basis[t] (outside the span)."""
    x = {t: vec[p] for t, p in enumerate(pivots) if p in vec}
    return x if combine_rows(x, basis) == vec else None


class Subspace:
    """A subspace of Q^n with its canonical basis, the reduced column echelon
    basis: each vector is 1 at its pivot (its first nonzero coordinate) and
    0 at the others' pivots, so equal subspaces have equal bases.  It costs
    one elimination, of spanning vectors (``span``, also of a sum) or of a
    system (``sparse_nullspace``, ``preimage``, ``intersect``), or none
    (``embed``, ``restrict``, ``annihilator``, and ``contains`` and ``coords``,
    which read a vector at the pivots).  The zero space is ``Subspace(n, {})``."""

    __slots__ = ("dim_ambient", "_pivots", "_columns")

    def __init__(self, dim_ambient: int, reduced: Mapping[int, Mapping[int, Rational]]):
        """The subspace with the canonical basis ``reduced``, {pivot: vector} sorted by pivot."""
        object.__setattr__(self, "dim_ambient", dim_ambient)
        object.__setattr__(self, "_pivots", list(reduced))
        object.__setattr__(self, "_columns", list(reduced.values()))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, dim_ambient: int, vectors: Iterable[Mapping[int, Rational]]) -> "Subspace":
        """The span of sparse vectors {coordinate: entry} in Q^``dim_ambient``."""
        return cls(dim_ambient, gauss_jordan(vectors, dim_ambient))

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        return cls(dim_ambient, {i: {i: 1} for i in range(dim_ambient)})

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def sparse_vectors(self) -> list[dict[int, Rational]]:
        """The canonical basis as sparse vectors {coordinate: entry}."""
        return list(self._columns)

    def contains(self, vec: Mapping[int, Rational]) -> bool:
        return self.coords(vec) is not None

    def coords(self, vec: Mapping[int, Rational]) -> dict[int, Rational] | None:
        """Sparse coordinates {t: x_t} of the sparse vector ``vec`` in the
        canonical basis, or None if it is outside the subspace."""
        return _pivot_coords(vec, self._pivots, self._columns)

    def annihilator(self) -> list[dict[int, Rational]]:
        """A basis of the functionals vanishing on the subspace, with no
        elimination: q_f = e_f - sum_t b_t[f] e_(pivot t) for each coordinate
        f that is not a pivot, as q_f(b_s) = b_s[f] - b_s[f] = 0."""
        at, free = transpose(self._columns, self.dim_ambient), set(range(self.dim_ambient)).difference(self._pivots)
        return [{f: 1} | {self._pivots[t]: -x for t, x in at[f].items()} for f in sorted(free)]

    def embed(self, sub: "Subspace") -> "Subspace":
        """B(sub) for the canonical basis B and a subspace ``sub`` of
        Q^dim, with no elimination.  Each column of B is 1 at its own pivot,
        0 at the other columns' pivots and 0 before its own, so if v is 1 at
        t, 0 at the other vectors' pivots and 0 before t, then B v is 1 at
        B's pivot t, 0 at B's pivots of the others and 0 before B's pivot t:
        B carries the canonical basis of ``sub`` to that of B(sub)."""
        if sub.dim_ambient != self.dim:
            raise ShapeError("ambient mismatch")
        image = {self._pivots[t]: combine_rows(v, self._columns) for t, v in zip(sub._pivots, sub._columns)}
        return Subspace(self.dim_ambient, image)

    def restrict(self, sub: "Subspace") -> "Subspace | None":
        """The inverse of ``embed``: X with B(X) = ``sub``, or None when ``sub``
        is not inside, with no elimination.  A canonical vector of ``sub`` read
        at B's pivots is 1 at its pivot's index, its first, 0 at the others'."""
        self._check_ambient(sub)
        coords = [self.coords(v) for v in sub._columns]
        return None if None in coords else Subspace(self.dim, {next(iter(x)): x for x in coords})

    def preimage(self, ops: Iterable[Sequence[Mapping[int, Rational]]], target: "Subspace") -> "Subspace":
        """The x in the subspace with op x in ``target`` for each operator op
        (sparse rows): B(X), X the kernel of the rows q op B over q in the
        annihilator of ``target``, B the canonical basis; one elimination."""
        at, ann = transpose(self._columns, self.dim_ambient), target.annihilator()
        rows = (combine_rows(combine_rows(q, op), at) for op in ops for q in ann)
        return self.embed(sparse_nullspace(self.dim, rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The preimage of ``other`` under the identity."""
        self._check_ambient(other)
        return self.preimage([[{i: 1} for i in range(self.dim_ambient)]], other)

    def _check_ambient(self, other: "Subspace"):
        if self.dim_ambient != other.dim_ambient:
            raise ShapeError("ambient mismatch")

    def __eq__(self, other) -> bool:
        same = isinstance(other, Subspace) and self.dim_ambient == other.dim_ambient
        return same and self._columns == other._columns

    def __hash__(self) -> int:
        # equal subspaces have equal pivots
        return hash((self.dim_ambient, tuple(self._pivots)))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.dim_ambient}, dim={self.dim})"


def sparse_nullspace(
    ncols: int, rows: Iterable[Mapping[int, Rational]], known: Iterable[Mapping[int, Rational]] = ()
) -> Subspace:
    """The kernel of the sparse rows ``{column: coefficient}`` in ``ncols``
    unknowns: the free vectors, already canonical, of one elimination of
    the rows, read as a stream, with the columns in decreasing order.

    ``known`` are sparse vectors known to lie in the kernel, so the rows
    have rank at most ncols - dim span(known): the elimination stops
    reading at that many pivots, and the kernel is then span(known).  The
    rows read, not the rest, are checked to annihilate every known vector
    (AxiomFailure otherwise), in integers: the primitive echelon rows
    against each canonical known vector times the lcm of its denominators."""
    known = list(known)
    spanned = Subspace.span(ncols, known) if known else Subspace(ncols, {})
    reduced = _integer_echelon(rows, ncols, ncols - spanned.dim, first=max)
    checked = [_integer_row(vec) for vec in spanned._columns]
    for row in reduced.values():
        for vec in checked:
            if sum(x * vec[c] for c, x in row.items() if c in vec):
                raise AxiomFailure("a known kernel vector does not satisfy the rows")
    if len(reduced) == ncols - spanned.dim:
        return spanned
    return Subspace(ncols, dict(_free_vectors(reduced, ncols)))


def nullspace(a: RatMatrix) -> Subspace:
    """The right kernel of ``a``."""
    return sparse_nullspace(a.cols, sparse_rows(a.data))


def is_unit_basis(size: int, vectors: Subspace | Sequence[Mapping[int, Rational]]) -> bool:
    """Whether ``vectors`` are the unit vectors e_0, ..., e_(size-1) of
    Q^``size``, in order, or the ``Subspace`` they span: a basis in which
    each vector is its own coordinates."""
    if isinstance(vectors, Subspace):
        return vectors.dim_ambient == vectors.dim == size
    return len(vectors) == size and all(vec == {i: 1} for i, vec in enumerate(vectors))


def coordinate_rows(size: int, vectors: Subspace | Sequence[Mapping[int, Rational]]) -> tuple[int, list[dict[int, int]]]:
    """The reading in k vectors b_t as a linear map r, in integers: a scale
    L and the sparse rows L r(e_i), i < ``size``, so L r(v) = sum_i v_i
    rows[i].  r(v) holds the coordinates x of v at 0..k-1 and the residual
    v - sum_t x_t b_t at k + c, 0 exactly when v is in the span.

    A ``Subspace`` is read at its pivots, x_t = v[p_t] for its canonical
    basis, L the lcm of its denominators.  Other vectors (ValueError when
    they are dependent) take one ``_integer_echelon`` of [M | I], M the rows
    ``vectors``: L [R | E] with E M = R, its rows scaled to the lcm L of
    their pivot entries, so x = sum_p v_p E_p and the residual is
    v - sum_p v_p R_p.  A basis of Q^``size`` has no residual: its rows are
    its inverse."""
    if isinstance(vectors, Subspace):
        if vectors.dim_ambient != size:
            raise ShapeError("ambient mismatch")
        k, lcm = vectors.dim, math.lcm(*(x.denominator for col in vectors._columns for x in col.values()))
        at_pivot = {
            p: {t: lcm} | {k + c: -x.numerator * (lcm // x.denominator) for c, x in col.items() if c != p}
            for t, (p, col) in enumerate(zip(vectors._pivots, vectors._columns))
        }
    else:
        k = len(vectors)
        echelon = _integer_echelon(({**row, size + t: 1} for t, row in enumerate(vectors)), size + k)
        if any(p >= size for p in echelon):
            raise ValueError("the basis vectors are linearly dependent")
        lcm = math.lcm(*(row[p] for p, row in echelon.items()))
        at_pivot = {}
        for p, row in echelon.items():
            f = lcm // row[p]
            at_pivot[p] = {c - size: x * f for c, x in row.items() if c >= size}
            at_pivot[p] |= {k + c: -x * f for c, x in row.items() if c < size and c != p}
    return lcm, [at_pivot[i] if i in at_pivot else {k + i: lcm} for i in range(size)]


def coordinate_reader(size: int, vectors: Subspace | Sequence[Mapping[int, Rational]]):
    """The map from a sparse vector of Q^``size`` to its sparse coordinates
    (sorted by index) in ``vectors``, or None when it is outside their span.
    A ``Subspace`` of Q^``size`` is read at its pivots (``coords``).  For
    other vectors the vector times the lcm d of its denominators is read by
    ``coordinate_rows``, in integers, and each coordinate divided by L d
    exactly (``qdiv``)."""
    if isinstance(vectors, Subspace):
        if vectors.dim_ambient != size:
            raise ShapeError("ambient mismatch")
        return vectors.coords
    k = len(vectors)
    lcm, rows = coordinate_rows(size, vectors)

    def coords(vec: Mapping[int, Rational]) -> dict[int, Rational] | None:
        d = math.lcm(*(x.denominator for x in vec.values()))
        total = combine_rows({c: x.numerator * (d // x.denominator) for c, x in vec.items() if x}, rows)
        if any(t >= k for t in total):
            return None
        return {t: qdiv(x, lcm * d) for t, x in sorted(total.items())}

    return coords


# ---------------------------------------------------------------------------
# Polynomials over Q (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def minimal_polynomial(m: Sequence[Mapping[int, Rational]]) -> tuple[Rational, ...]:
    """Monic minimal polynomial of the operator M with sparse rows ``m``,
    from one elimination of the system sum_k c_k M^k = 0 in c_0..c_n, one
    equation per entry (i, j): its pivots are the powers independent of
    the lower ones, so its first free column is the degree d, and that
    column's kernel vector (last nonzero entry 1 at d) is the monic
    polynomial.  Row i of M^k is built sparse, as row i of M^(k-1) times M."""
    n = len(m)
    powers = [[{i: 1} for i in range(n)]]
    for _ in range(n):
        powers.append(sparse_product(powers[-1], m))
    system = ({k: p[i][j] for k, p in enumerate(powers) if j in p[i]} for i in range(n) for j in range(n))
    d, vec = next(_free_vectors(_integer_echelon(system, n + 1), n + 1))
    return tuple(vec.get(k, 0) for k in range(d + 1))


def poly_normalize(poly: Sequence[Rational]) -> tuple[Rational, ...]:
    p = list(poly)
    while p and p[-1] == 0:
        p.pop()
    if p:
        lead = p[-1]
        p = [qdiv(x, lead) for x in p]
    return tuple(p)


def rational_roots(poly: Sequence[Rational]) -> list[Rational] | None:
    """The distinct roots of ``poly``, sorted, if it splits over Q into
    linear factors; else None.  Multiplicities are ignored.

    Clearing denominators gives integers a_i, and y = a_d x turns f into
    the monic integer g(y) = sum_i a_i a_d^(d-1-i) y^i, whose rational
    roots are integers (Gauss).  Integer Newton steps from above find
    them one at a time, largest first; each root is divided out exactly.

    Suppose f splits.  Then every root of g is an integer r_j with
    |r_j| < B, the Fujiwara bound 2 max_i |g_(d-i)|^(1/i) rounded up to a
    power of two.  Let r be the largest root left.  By Rolle no root of
    g' or g'' exceeds r, so above r g > 0, g' > 0 and g is convex, and the
    real Newton iterate N = y - g/g' from y > r satisfies r <= N < y.  Hence
    the step y <- min(ceil(N), y - 1) keeps the integer y >= r and
    decreases it until g(y) = 0 at y = r exactly.  After the root is
    divided out, the next root is <= r, so the search goes on from y.
    Since g'/g = sum_j 1/(y - r_j) <= deg/(y - r) for the deg roots r_j
    left, N - r <= (y - r)(1 - 1/deg); so while y - r > deg each step
    cuts y - r - deg by the factor 1 - 1/deg at least, and after that
    each step lowers y by 1 at least.  From y - r < 2B one search thus
    takes at most deg (bit_length(2B) + 1) steps.  So g(y) < 0,
    g'(y) <= 0, y < -B and a longer search never happen when f splits,
    and each of them returns None.  A root is returned only when exact
    evaluation gives g(y) = 0, and the search ends at degree 0 only when
    g is the product of the linear factors found.
    """
    p = poly_normalize(poly)
    if len(p) <= 1:
        return []
    d = len(p) - 1
    lead = math.lcm(*(c.denominator for c in p))
    g = [int(c * lead) * lead ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    bound = 2 << max((abs(c).bit_length() + i - 1) // i for i, c in enumerate(reversed(g[:-1]), 1))
    budget = (2 * bound).bit_length() + 1
    roots = []
    y = bound
    while len(g) > 1:
        steps = (len(g) - 1) * budget
        while True:
            value = slope = 0
            for c in reversed(g):
                slope = slope * y + value
                value = value * y + c
            if value == 0:
                break
            if value < 0 or slope <= 0 or steps == 0:
                return None
            y -= max(value // slope, 1)
            if y < -bound:
                return None
            steps -= 1
        roots.append(y)
        quotient = [0] * (len(g) - 1)
        carry = 0
        for i in range(len(g) - 1, 0, -1):
            carry = g[i] + carry * y
            quotient[i - 1] = carry
        g = quotient
    return sorted({qdiv(r, lead) for r in roots})


# ---------------------------------------------------------------------------
# Spectra: generalized eigenspaces, simultaneous eigenspaces, Jordan-Chevalley
# ---------------------------------------------------------------------------


def _blocks(m: Sequence[Mapping[int, Rational]]) -> list[list[int]]:
    """The coordinate blocks of the operator M: the connected components of
    the graph on 0..n-1 with an edge i-j wherever M[i][j] != 0, each as
    sorted indices, in order of least index.  M maps the span of each
    block's unit vectors into itself, so it is the direct sum of its
    restrictions to them."""
    root = list(range(len(m)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, row in enumerate(m):
        for j, x in row.items():
            if x:
                a, b = find(i), find(j)
                root[max(a, b)] = min(a, b)
    # each root is its component's least index, met first in this order
    blocks: dict[int, list[int]] = {}
    for i in range(len(m)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def _spectra(m: Sequence[Mapping[int, Rational]], message: str) -> list[tuple[list[int], list, list[Rational], int]]:
    """Each block of the operator M (``_blocks``) as (indices, M restricted
    to the block, its distinct eigenvalues, k).  The eigenvalues must all
    be rational (else NonSplitError with ``message``), and k = deg - #roots
    + 1 for the block's minimal polynomial bounds every root's
    multiplicity; k = 1 iff the block is diagonalizable.  A 1 x 1 block
    [a] has the eigenvalue a and k = 1, with no polynomial.  Every block's
    spectrum is computed here, before a caller takes a verdict from k."""
    spectra = []
    for block in _blocks(m):
        at = {i: t for t, i in enumerate(block)}
        sub = [{at[c]: x for c, x in m[i].items() if x} for i in block]
        if len(block) == 1:
            spectra.append((block, sub, [rational(sub[0].get(0, 0))], 1))
            continue
        mp = minimal_polynomial(sub)
        roots = rational_roots(mp)
        if roots is None:
            raise NonSplitError(message)
        spectra.append((block, sub, roots, len(mp) - len(roots)))
    return spectra


def _generalized_eigenspaces(m: Sequence[Mapping[int, Rational]], roots: Sequence, k: int) -> list[tuple[Rational, Subspace]]:
    """ker (M - lam)^k for each eigenvalue lam of one block M, with the
    ``roots`` and ``k`` that ``_spectra`` gives it; a 1 x 1 block is its
    one eigenspace."""
    n = len(m)
    if n == 1:
        return [(roots[0], Subspace.full(1))]
    spaces = []
    for lam in roots:
        shifted = [combine_rows({0: 1, 1: -lam}, [row, {i: 1}]) for i, row in enumerate(m)]
        spaces.append((lam, sparse_nullspace(n, sparse_power(shifted, k))))
    if sum(space.dim for _, space in spaces) != n:
        raise AxiomFailure("generalized eigenspaces do not fill the space")
    return spaces


def _eigen_split(space: Subspace, op_columns: Sequence[Mapping[int, Rational]]) -> list[tuple[Rational, Subspace]]:
    """Split ``space``, which the operator with sparse columns
    ``op_columns`` must preserve, into its eigenspaces; raises if the
    restriction is not diagonalizable with rational spectrum.  Column t of
    the restriction R is the image of basis vector t read at the basis's
    pivots.  Each eigenspace of R is the union of its blocks' canonical
    bases, sorted by pivot: that is a canonical basis, since the blocks'
    supports are disjoint, and ``space.embed`` carries it to the
    operator's eigenspace."""
    restricted = []
    for v in space._columns:
        x = _pivot_coords(combine_rows(v, op_columns), space._pivots, space._columns)
        if x is None:
            raise ShapeError("operator does not preserve the space")
        restricted.append(x)
    spectra = _spectra(transpose(restricted, space.dim), "operator has an irrational eigenvalue")
    if any(k > 1 for *_, k in spectra):
        raise NotDiagonalizableError("minimal polynomial has a repeated root")
    kernels: dict[Rational, dict[int, dict[int, Rational]]] = {}
    for block, sub, roots, k in spectra:
        for lam, ker in _generalized_eigenspaces(sub, roots, k):
            kernels.setdefault(lam, {}).update(
                (block[p], {block[c]: x for c, x in v.items()}) for p, v in zip(ker._pivots, ker._columns)
            )
    return [(lam, space.embed(Subspace(space.dim, dict(sorted(ker.items()))))) for lam, ker in sorted(kernels.items())]


def simultaneous_eigenspaces(
    ops: Sequence[Sequence[Mapping[int, Rational]]], space: Subspace
) -> list[tuple[tuple[Rational, ...], Subspace]]:
    """Joint eigenspace decomposition of commuting diagonalizable
    operators, each given by its sparse rows, on ``space``, which every op
    must preserve.  Each op splits each piece so far block by block
    (``_eigen_split``).

    Returns (weight vector, subspace) pairs sorted by weight; the
    subspaces are a direct-sum decomposition of ``space``.
    """
    n = space.dim_ambient
    if any(len(op) != n or any(c >= n for row in op for c in row) for op in ops):
        raise ShapeError("operators must be square of equal size")
    columns = [transpose(op, n) for op in ops]
    images = [[combine_rows(v, cols) for v in space._columns] for cols in columns]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if [combine_rows(w, columns[i]) for w in images[j]] != [combine_rows(w, columns[j]) for w in images[i]]:
                raise NotCommutingError(f"operators {i} and {j} do not commute")
    spaces = [((), space)]
    for cols in columns:
        spaces = [(w + (lam,), piece) for w, space in spaces for lam, piece in _eigen_split(space, cols)]
    return sorted(spaces, key=lambda t: t[0])


def semisimple_part(m: Sequence[Mapping[int, Rational]]) -> list[dict[int, Rational]]:
    """Semisimple summand S of the Jordan-Chevalley decomposition M = S + N
    of the operator with sparse rows ``m``, as sparse rows.

    S is the direct sum of the semisimple parts of M's blocks
    (``_blocks``); a 1 x 1 block [a] is its own.  On a larger block S acts
    as lam on the generalized eigenspace of each eigenvalue lam, so column
    i of S is sum_t lam_t x_t b_t for the coordinates x of e_i in the
    basis b of those eigenspaces, all read by one coordinate reader.
    Requires the characteristic polynomial to split over the rationals
    (NonSplitError otherwise).
    """
    s: list[dict[int, Rational]] = [{} for _ in m]
    for block, sub, roots, k in _spectra(m, "spectrum is not rational"):
        if len(block) == 1:
            s[block[0]] = {block[0]: x for x in sub[0].values()}
            continue
        spaces = _generalized_eigenspaces(sub, roots, k)
        basis = [v for _, space in spaces for v in space._columns]
        lams = [lam for lam, space in spaces for _ in space._columns]
        coords = coordinate_reader(len(block), basis)
        for t in range(len(block)):
            column = combine_rows({u: lams[u] * x for u, x in coords({t: 1}).items()}, basis)
            for c, x in column.items():
                s[block[c]][block[t]] = x
    return s


# ---------------------------------------------------------------------------
# Integer matrices, Hermite and Smith normal forms
# ---------------------------------------------------------------------------


class IntMatrix(_DenseMatrix):
    """Immutable dense matrix of arbitrary-precision integers; entries must
    be exact integers (``operator.index``: TypeError on floats and
    Fractions)."""

    __slots__ = ()
    _entry = staticmethod(operator.index)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ShapeError("shape mismatch in matvec")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        return IntMatrix([ra + rb for ra, rb in zip(self.data, other.data)], self.cols + other.cols)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U M V with U, V unimodular, U_inv the inverse
    of U, and nonnegative diagonal entries in a divisibility chain; V is
    not kept."""

    S: IntMatrix
    U: IntMatrix
    U_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.S[i, i] for i in range(min(self.S.rows, self.S.cols))
        )


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form U*M*V = S with U and U_inv, and no V: a column
    operation acts on S alone (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).

    Step t moves the smallest nonzero entry of the trailing block to (t, t)
    and reduces its row and column by nearest quotients until both are
    zero; if the pivot then fails to divide some entry of the block, that
    entry's row is added to row t and the reduction goes on.  So a pivot is
    fixed only when it is positive and divides its whole trailing block,
    and the loop stops at the first all-zero block: so the diagonal is a
    divisibility chain.  Each row operation on U is undone by a column
    operation on U_inv, so U * U_inv = I throughout."""
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    u_inv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]
        for r in u_inv:
            r[src] -= f * r[dst]

    def add_col(src, dst, f):
        for r in a:
            r[dst] += f * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def nearest_q(x, p):
        # quotient minimizing |x - q*p|, keeps entries near gcd scale
        q, r = divmod(x, p)
        if 2 * r > p:
            q += 1
        return q

    t = 0
    n = min(rows, cols)
    while t < n:
        # Move the smallest nonzero entry of the trailing block to (t, t).
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    add_row(t, i, -nearest_q(a[i][t], p))
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    add_col(t, j, -nearest_q(a[t][j], p))
            # residues (all smaller than the pivot) restart the reduction
            best = None
            for i in range(t + 1, rows):
                if a[i][t] != 0 and (best is None or abs(a[i][t]) < best[0]):
                    best = (abs(a[i][t]), i, None)
            for j in range(t + 1, cols):
                if a[t][j] != 0 and (best is None or abs(a[t][j]) < best[0]):
                    best = (abs(a[t][j]), None, j)
            if best is not None:
                if best[1] is not None:
                    swap_rows(t, best[1])
                else:
                    swap_cols(t, best[2])
                continue
            # pull any non-multiple of the pivot into row t and keep going,
            # so the pivot ends up dividing the whole trailing block
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1
    return SnfResult(IntMatrix(a, cols), IntMatrix(u, rows), IntMatrix(u_inv, rows))


def column_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical column-style Hermite normal form of the column lattice.

    Columns are in echelon form with positive pivots; entries left of a
    pivot (in its row) are reduced into [0, pivot).  Zero columns are
    dropped, so equal lattices give equal results.
    """
    cols = [list(c) for c in m.columns()]
    rows = m.rows
    out: list[list[int]] = []
    work = cols
    for r in range(rows):
        live = [c for c in work if c[r] != 0]
        rest = [c for c in work if c[r] == 0]
        if not live:
            work = rest
            continue
        # gcd-reduce all live columns into one pivot column
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            c0 = live[0]
            for c in live[1:]:
                q = c[r] // c0[r]
                for i in range(rows):
                    c[i] -= q * c0[i]
            dead = [c for c in live[1:] if c[r] == 0]
            live = [c0] + [c for c in live[1:] if c[r] != 0]
            rest.extend(dead)
        pivot = live[0]
        if pivot[r] < 0:
            for i in range(rows):
                pivot[i] = -pivot[i]
        # reduce previously fixed columns at row r
        for c in out:
            q = c[r] // pivot[r]
            if q:
                for i in range(rows):
                    c[i] -= q * pivot[i]
        out.append(pivot)
        work = rest
    return IntMatrix.from_columns(out, rows=rows)


def hnf_solve(h: IntMatrix, v: Sequence[int]) -> list[int] | None:
    """Solve H x = v over the integers for H in column HNF; None if no
    solution (i.e. v is outside the lattice)."""
    v = [int(x) for x in v]
    if len(v) != h.rows:
        raise ShapeError("vector length mismatch")
    res = [0] * h.cols
    residual = list(v)
    pivots = []
    for j in range(h.cols):
        r = next(i for i in range(h.rows) if h[i, j] != 0)
        pivots.append(r)
    for j in range(h.cols):
        r = pivots[j]
        if residual[r] % h[r, j] != 0:
            return None
        q = residual[r] // h[r, j]
        res[j] = q
        for i in range(h.rows):
            residual[i] -= q * h[i, j]
    if any(residual):
        return None
    return res


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : M x = 0} as columns (canonical HNF).

    The columns (M x, x) of M stacked over I span a lattice whose column
    HNF has its pivots in M's rows first; the HNF columns with a zero M
    part are a basis of the (0, x) in it, so their parts below M span the
    kernel, and they come last, already in canonical HNF."""
    stacked = column_hnf(IntMatrix(m.data + IntMatrix.identity(m.cols).data, m.cols))
    kernel = [c[m.rows:] for c in stacked.columns() if not any(c[: m.rows])]
    return IntMatrix.from_columns(kernel, rows=m.cols)

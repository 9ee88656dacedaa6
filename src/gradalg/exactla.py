"""Exact linear algebra over the rationals and integers.

One vector format and one operator format: a vector is a sparse dict
``{index: Fraction}`` with no zero entries, and an operator is the list of
its sparse rows ``{column: Fraction}``.  One sparse Gauss-Jordan
elimination, fraction-free on integer rows, is behind every echelon form,
kernel and solve over Q; one subspace type, ``Subspace``, keeps the
canonical basis that one such elimination gives, as sparse columns, and
every kernel, sum, intersection and eigenspace is one.  One spectral routine, the
generalized eigenspaces of an operator, is behind the simultaneous
eigenspace decompositions of commuting operators and the Jordan-Chevalley
semisimple part.  The Smith normal form U M V = S, with U, V and U^-1,
is behind every solve over Z.  The dense ``RatMatrix`` is for matrices
that enter or leave the program; ``rref``, ``rank``, ``solve`` and
``inverse`` on it are the dense API of tests and tracing.  Everything is
exact; non-rational spectra raise NonSplitError instead of being approximated.
"""

from __future__ import annotations

import math
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

Q = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class RatMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        cols = [tuple(_frac(x) for x in c) for c in cols]
        if rows is None:
            if not cols:
                raise ShapeError("row count needed for a matrix with no columns")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ShapeError("ragged columns")
        return cls([[c[i] for c in cols] for i in range(rows)])

    @classmethod
    def from_sparse_columns(cls, cols: Sequence[Mapping[int, Fraction]], rows: int) -> "RatMatrix":
        """The matrix with the sparse columns ``{row: entry}``."""
        return cls([[c.get(i, 0) for c in cols] for i in range(rows)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(("RatMatrix", self.data))

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.data]})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ShapeError("shape mismatch in addition")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-x for x in row] for row in self.data])

    def scale(self, c) -> "RatMatrix":
        c = _frac(c)
        return RatMatrix([[c * x for x in row] for row in self.data])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("shape mismatch in multiplication")
        bt = list(zip(*other.data)) if other.data else []
        return RatMatrix(
            [
                [sum(a * b for a, b in zip(row, col) if a and b) for col in bt]
                for row in self.data
            ]
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def power(self, k: int) -> "RatMatrix":
        if not self.is_square():
            raise ShapeError("power of a non-square matrix")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return RatMatrix.identity(self.rows) if result is None else result


# ---------------------------------------------------------------------------
# Echelon forms and linear solving
# ---------------------------------------------------------------------------


def gauss_jordan(
    rows: Iterable[Mapping[int, Fraction]], ncols: int, max_rank: int | None = None
) -> dict[int, dict[int, Fraction]]:
    """The reduced row echelon form of a stream of sparse rows
    ``{column: coefficient}`` in ``ncols`` columns, as {pivot column:
    row}, sorted by pivot: the one Gauss-Jordan elimination over Q.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each
    row read is scaled by the lcm of its denominators to integers and
    reduced against the rows kept so far, each a primitive integer row,
    positive at its pivot, 0 at every other pivot and 0 left of its pivot;
    one reduction step is d*row - f*kept, then division by the gcd of the
    entries.  If the row does not vanish, its first column becomes a pivot
    and that column is cleared from the kept rows the same way.  Reading
    stops once ``max_rank`` columns (default: every column) have a pivot;
    a caller that knows the rank of the rows is at most ``max_rank`` gets
    the whole row space.  Each kept row is divided by its pivot entry only
    in the result, the unique reduced echelon basis of the rows read,
    whatever their order, with ``Fraction`` entries."""
    reduced: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    stop = ncols if max_rank is None else max_rank
    while len(reduced) < stop and (row := next(rows, None)) is not None:
        row = _integer_row(row)
        for p in [c for c in row if c in reduced]:
            _eliminate(row, p, reduced[p])
        if row:
            pivot = min(row)
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
    return {p: _rational_row(reduced[p], p) for p in sorted(reduced)}


def _rational_row(row: Mapping[int, int], pivot: int) -> dict[int, Fraction]:
    """The integer row divided by its entry at ``pivot``."""
    b = row[pivot]
    return {c: Fraction(x, b) for c, x in row.items()}


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their denominators."""
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
    coeffs: Mapping[int, Fraction], rows: Sequence[Mapping[int, Fraction]]
) -> dict[int, Fraction]:
    """The sparse row sum over k of coeffs[k] * rows[k]."""
    out: dict[int, Fraction] = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def sparse_rows(data: Iterable[Sequence[Fraction]]):
    """Each dense row of ``data`` as its nonzero entries {column: entry}."""
    return ({c: x for c, x in enumerate(row) if x} for row in data)


def sparse_product(a: Sequence[Mapping[int, Fraction]], b: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """The sparse rows of the product A B of two operators given by sparse rows."""
    return [combine_rows(row, b) for row in a]


def transpose(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """The sparse rows of the transpose: the columns of ``rows``, sparse."""
    out: list[dict[int, Fraction]] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def flat_vector(rows: Sequence[Mapping[int, Fraction]]) -> dict[int, Fraction]:
    """An n x n operator as a sparse vector of Q^(n^2), entry (r, c) at r*n + c."""
    n = len(rows)
    return {r * n + c: x for r, row in enumerate(rows) for c, x in row.items()}


def flat_operator(vec: Mapping[int, Fraction], n: int) -> list[dict[int, Fraction]]:
    """The n x n operator whose ``flat_vector`` is ``vec``."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for k, x in vec.items():
        rows[k // n][k % n] = x
    return rows


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    reduced = gauss_jordan(sparse_rows(m.data), m.cols)
    rows = list(reduced.values()) + [{}] * (m.rows - len(reduced))
    return RatMatrix([[row.get(c, 0) for c in range(m.cols)] for row in rows]), tuple(reduced)


def rank(m: RatMatrix) -> int:
    return len(gauss_jordan(sparse_rows(m.data), m.cols))


def kernel_vectors(rows: Iterable[Mapping[int, Fraction]], ncols: int):
    """A sparse basis of the kernel of the sparse rows ``{column:
    coefficient}`` in ``ncols`` unknowns, from their reduced echelon form
    (``_free_vectors``)."""
    return _free_vectors(gauss_jordan(rows, ncols), ncols)


def _free_vectors(reduced: Mapping[int, Mapping[int, Fraction]], ncols: int):
    """The kernel basis of a reduced echelon form {pivot: row}: for each
    free column f, the vector that is 1 at f, 0 at the other free columns
    and -row[f] at each row's pivot."""
    for f in range(ncols):
        if f not in reduced:
            vec = {p: -row[f] for p, row in reduced.items() if f in row}
            vec[f] = Q(1)
            yield vec


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
    return RatMatrix([[row.get(a.cols + j, 0) for j in range(b.cols)] for row in reduced.values()])


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square():
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
    0 at the others' pivots, so equal subspaces have equal bases.  That
    basis is the {pivot: sparse vector} result of one ``gauss_jordan``,
    taken as it is: of spanning vectors (``span``, ``add``) or of kernel
    vectors (``sparse_nullspace``, ``nullspace``, ``intersect``).  The zero
    space of Q^n is ``Subspace(n, {})``."""

    __slots__ = ("dim_ambient", "_pivots", "_columns")

    def __init__(self, dim_ambient: int, reduced: Mapping[int, Mapping[int, Fraction]]):
        """The subspace with the canonical basis ``reduced``, {pivot: vector} from gauss_jordan."""
        object.__setattr__(self, "dim_ambient", dim_ambient)
        object.__setattr__(self, "_pivots", list(reduced))
        object.__setattr__(self, "_columns", list(reduced.values()))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, dim_ambient: int, vectors: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        """The span of sparse vectors {coordinate: entry} in Q^``dim_ambient``."""
        return cls(dim_ambient, gauss_jordan(vectors, dim_ambient))

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        return cls(dim_ambient, {i: {i: Q(1)} for i in range(dim_ambient)})

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def sparse_vectors(self) -> list[dict[int, Fraction]]:
        """The canonical basis as sparse vectors {coordinate: entry}."""
        return list(self._columns)

    def contains(self, vec: Mapping[int, Fraction]) -> bool:
        return self.coords(vec) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(w) for w in other._columns)

    def coords(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction] | None:
        """Sparse coordinates {t: x_t} of the sparse vector ``vec`` in the
        canonical basis, or None if it is outside the subspace."""
        return _pivot_coords(vec, self._pivots, self._columns)

    def annihilator(self) -> list[dict[int, Fraction]]:
        """A basis of the functionals vanishing on the subspace, as sparse
        vectors q with sum_r q[r] w[r] = 0 for every w in it."""
        return list(kernel_vectors(self._columns, self.dim_ambient))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The span of A x over the kernel vectors (x, y) of [A | B], for
        the canonical bases A and B, since A x = B (-y)."""
        self._check_ambient(other)
        system = transpose(self._columns + other._columns, self.dim_ambient)
        kernel = kernel_vectors(system, self.dim + other.dim)
        meets = (combine_rows({t: x for t, x in v.items() if t < self.dim}, self._columns) for v in kernel)
        return Subspace.span(self.dim_ambient, meets)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.dim_ambient, self._columns + other._columns)

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
    ncols: int, rows: Iterable[Mapping[int, Fraction]], known: Iterable[Mapping[int, Fraction]] = ()
) -> Subspace:
    """The kernel of the sparse rows ``{column: coefficient}`` in ``ncols`` unknowns: one elimination
    of the rows, read as a stream, and one of its kernel vectors.

    ``known`` are sparse vectors known to lie in the kernel, so the rows
    have rank at most ncols - dim span(known).  The elimination stops
    reading at that many pivots, and the kernel is then span(known), with
    no second elimination.  The reduced rows read are checked to
    annihilate every known vector (AxiomFailure otherwise); the rows left
    unread are not."""
    known = list(known)
    spanned = Subspace.span(ncols, known) if known else Subspace(ncols, {})
    reduced = gauss_jordan(rows, ncols, ncols - spanned.dim)
    for row in reduced.values():
        for vec in spanned._columns:
            if sum(x * vec[c] for c, x in row.items() if c in vec):
                raise AxiomFailure("a known kernel vector does not satisfy the rows")
    if len(reduced) == ncols - spanned.dim:
        return spanned
    return Subspace.span(ncols, _free_vectors(reduced, ncols))


def nullspace(a: RatMatrix) -> Subspace:
    """The right kernel of ``a``."""
    return sparse_nullspace(a.cols, sparse_rows(a.data))


def coordinate_reader(size: int, vectors: Sequence[Mapping[int, Fraction]]):
    """The map from a sparse vector of Q^``size`` to its sparse coordinates
    (sorted by index) in the sparse ``vectors``, or None when it is outside
    their span (ValueError when they are linearly dependent).  One
    elimination serves every vector: with M the matrix of rows ``vectors``,
    the reduced echelon form of [M | I] is [R | E] with E M = R;
    ``_pivot_coords`` reads the coordinates y of v in the rows of R, and
    x = E^T y."""
    augmented = ({**row, size + k: Q(1)} for k, row in enumerate(vectors))
    reduced = gauss_jordan(augmented, size + len(vectors))
    if any(p >= size for p in reduced):
        raise ValueError("the basis vectors are linearly dependent")
    pivots = list(reduced)
    span_rows = [{c: x for c, x in row.items() if c < size} for row in reduced.values()]
    coord_rows = [{c - size: x for c, x in row.items() if c >= size} for row in reduced.values()]

    def coords(vec: Mapping[int, Fraction]) -> dict[int, Fraction] | None:
        at_pivots = _pivot_coords(vec, pivots, span_rows)
        return None if at_pivots is None else dict(sorted(combine_rows(at_pivots, coord_rows).items()))

    return coords


# ---------------------------------------------------------------------------
# Polynomials over Q (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def minimal_polynomial(m: Sequence[Mapping[int, Fraction]]) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of the operator M with sparse rows ``m``,
    from one elimination of the system sum_k c_k M^k = 0 in c_0..c_n, one
    equation per entry (i, j): its pivots are the powers independent of
    the lower ones, so its first free column is the degree d, and that
    column's kernel vector is the monic polynomial.  Row i of M^k is built
    sparse, as row i of M^(k-1) times M."""
    n = len(m)
    powers = [[{i: Q(1)} for i in range(n)]]
    for _ in range(n):
        powers.append(sparse_product(powers[-1], m))
    system = ({k: p[i][j] for k, p in enumerate(powers) if j in p[i]} for i in range(n) for j in range(n))
    vec = next(kernel_vectors(system, n + 1))
    return tuple(vec.get(k, Q(0)) for k in range(max(vec) + 1))


def poly_normalize(poly: Sequence[Fraction]) -> tuple[Fraction, ...]:
    p = list(poly)
    while p and p[-1] == 0:
        p.pop()
    if p:
        lead = p[-1]
        p = [x / lead for x in p]
    return tuple(p)


def rational_roots(poly: Sequence[Fraction]) -> list[Fraction] | None:
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
    return sorted({Q(r, lead) for r in roots})


# ---------------------------------------------------------------------------
# Spectra: generalized eigenspaces, simultaneous eigenspaces, Jordan-Chevalley
# ---------------------------------------------------------------------------


def _spectrum(m: Sequence[Mapping[int, Fraction]], message: str) -> tuple[list[Fraction], int]:
    """The distinct eigenvalues of the operator M, all rational (else
    NonSplitError with ``message``), and k = deg - #roots + 1 for its
    minimal polynomial: k bounds every root's multiplicity, and k = 1 iff
    M is diagonalizable."""
    mp = minimal_polynomial(m)
    roots = rational_roots(mp)
    if roots is None:
        raise NonSplitError(message)
    return roots, len(mp) - len(roots)


def _generalized_eigenspaces(m: Sequence[Mapping[int, Fraction]], roots: Sequence, k: int) -> list[tuple[Fraction, Subspace]]:
    """ker (M - lam)^k for each eigenvalue lam of the operator M, with the
    ``roots`` and ``k`` of ``_spectrum(M)``."""
    n = len(m)
    spaces = []
    for lam in roots:
        shifted = [combine_rows({0: Q(1), 1: -lam}, [row, {i: Q(1)}]) for i, row in enumerate(m)]
        power = shifted
        for _ in range(k - 1):
            power = sparse_product(power, shifted)
        spaces.append((lam, sparse_nullspace(n, power)))
    if sum(space.dim for _, space in spaces) != n:
        raise AxiomFailure("generalized eigenspaces do not fill the space")
    return spaces


def _eigen_split(space: Subspace, op_columns: Sequence[Mapping[int, Fraction]]) -> list[tuple[Fraction, Subspace]]:
    """Split ``space``, which the operator with sparse columns
    ``op_columns`` must preserve, into its eigenspaces; raises if the
    restriction is not diagonalizable with rational spectrum.  Column t of
    the restriction is the image of basis vector t read at the basis's
    pivots, and each eigenspace is the span of the basis applied to a
    kernel vector of the restriction."""
    restricted = []
    for v in space._columns:
        x = _pivot_coords(combine_rows(v, op_columns), space._pivots, space._columns)
        if x is None:
            raise ShapeError("operator does not preserve the space")
        restricted.append(x)
    restricted = transpose(restricted, space.dim)
    roots, k = _spectrum(restricted, "operator has an irrational eigenvalue")
    if k > 1:
        raise NotDiagonalizableError("minimal polynomial has a repeated root")
    return [
        (lam, Subspace.span(space.dim_ambient, (combine_rows(v, space._columns) for v in ker._columns)))
        for lam, ker in _generalized_eigenspaces(restricted, roots, k)
    ]


def simultaneous_eigenspaces(
    ops: Sequence[Sequence[Mapping[int, Fraction]]], space: Subspace | None = None
) -> list[tuple[tuple[Fraction, ...], Subspace]]:
    """Joint eigenspace decomposition of commuting diagonalizable
    operators, each given by its sparse rows, on ``space``, which every op
    must preserve (the whole space by default).

    Returns (weight vector, subspace) pairs sorted by weight; the
    subspaces are a direct-sum decomposition of ``space``.
    """
    if space is None:
        if not ops:
            raise ShapeError("a space is needed when there are no operators")
        space = Subspace.full(len(ops[0]))
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


def semisimple_part(m: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Semisimple summand S of the Jordan-Chevalley decomposition M = S + N
    of the operator with sparse rows ``m``, as sparse rows.

    S acts as lam on the generalized eigenspace of each eigenvalue lam, so
    column i of S is sum_t lam_t x_t b_t for the coordinates x of e_i in
    the basis b of those eigenspaces, all read by one coordinate reader.
    Requires the characteristic polynomial to split over the rationals
    (NonSplitError otherwise).
    """
    n = len(m)
    spaces = _generalized_eigenspaces(m, *_spectrum(m, "spectrum is not rational"))
    basis = [v for _, space in spaces for v in space._columns]
    lams = [lam for lam, space in spaces for _ in space._columns]
    coords = coordinate_reader(n, basis)
    columns = [combine_rows({t: lams[t] * x for t, x in coords({i: Q(1)}).items()}, basis) for i in range(n)]
    return transpose(columns, n)


# ---------------------------------------------------------------------------
# Integer matrices, Hermite and Smith normal forms
# ---------------------------------------------------------------------------


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeError("ragged rows")
        for row in data:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer entries required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if rows is None:
            if not cols:
                raise ShapeError("row count needed for a matrix with no columns")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ShapeError("ragged columns")
        return cls([[c[i] for c in cols] for i in range(rows)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(("IntMatrix", self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("shape mismatch in multiplication")
        bt = list(zip(*other.data)) if other.data else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.data]
        )

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ShapeError("shape mismatch in matvec")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        return IntMatrix([ra + rb for ra, rb in zip(self.data, other.data)])


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U M V with U, V unimodular, U_inv the inverse
    of U, and nonnegative diagonal entries in a divisibility chain."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.S[i, i] for i in range(min(self.S.rows, self.S.cols))
        )


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form with transformation matrices, U*M*V = S, and U_inv
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).

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
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]
        for r in u_inv:
            r[src] -= f * r[dst]

    def add_col(src, dst, f):
        for r in a:
            r[dst] += f * r[src]
        for r in v:
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
    return SnfResult(IntMatrix(a), IntMatrix(u), IntMatrix(v), IntMatrix(u_inv))


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
    """Basis of the integer kernel {x : M x = 0} as columns (canonical HNF)."""
    snf = smith_normal_form(m)
    d = snf.diagonal()
    r = sum(1 for x in d if x != 0)
    # kernel basis = last cols-r columns of V
    cols = [snf.V.column(j) for j in range(r, m.cols)]
    return column_hnf(IntMatrix.from_columns(cols, rows=m.cols))


def integer_solve(m: IntMatrix, vs: Sequence[Sequence[int]]) -> list[list[int] | None]:
    """For each right-hand side v, one integer solution x of M x = v, or
    None if none exists.  One Smith form U M V = S serves them all:
    x = V z for the z with S z = U v."""
    vs = [[int(x) for x in v] for v in vs]
    if any(len(v) != m.rows for v in vs):
        raise ShapeError("vector length mismatch")
    snf = smith_normal_form(m)
    d = snf.diagonal()

    def one(v):
        z = [0] * m.cols
        for i, y in enumerate(snf.U.matvec(v)):
            di = d[i] if i < len(d) else 0
            if di:
                if y % di:
                    return None
                z[i] = y // di
            elif y:
                return None
        return list(snf.V.matvec(z))

    return [one(v) for v in vs]

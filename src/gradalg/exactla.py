"""Exact linear algebra over the rationals and integers.

Dense matrices with arbitrary-precision entries; one sparse Gauss-Jordan
elimination behind every echelon form, kernel and solve over Q;
Smith/Hermite normal forms with transformation matrices; and one spectral
routine, the generalized eigenspaces of a rational matrix, behind the
simultaneous eigenspace decompositions of commuting rational matrices and
the Jordan-Chevalley semisimple part.  Everything is exact; non-rational
spectra raise NonSplitError instead of being approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import sympy

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
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)])

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

    @classmethod
    def column_vector(cls, entries: Sequence) -> "RatMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RatMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

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

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = [_frac(x) for x in v]
        if len(v) != self.cols:
            raise ShapeError("shape mismatch in matvec")
        return tuple(sum(a * b for a, b in zip(row, v) if a and b) for row in self.data)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.data))) if self.data else RatMatrix([])

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), Q(0))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        return RatMatrix([ra + rb for ra, rb in zip(self.data, other.data)])

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

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.data for x in row)


def mat_from_flat(entries: Sequence, rows: int, cols: int) -> RatMatrix:
    if len(entries) != rows * cols:
        raise ShapeError("flat length mismatch")
    return RatMatrix([entries[i * cols : (i + 1) * cols] for i in range(rows)])


# ---------------------------------------------------------------------------
# Echelon forms and linear solving
# ---------------------------------------------------------------------------


def gauss_jordan(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> dict[int, dict[int, Fraction]]:
    """The reduced row echelon form of a stream of sparse rows
    ``{column: coefficient}`` in ``ncols`` columns, as {pivot column:
    row}, sorted by pivot: the one Gauss-Jordan elimination over Q.

    Each row read is reduced against the rows kept so far, each 1 at its
    pivot, 0 at every other pivot and 0 left of its pivot.  If it does not
    vanish, its first column becomes a pivot: it is scaled to 1 there and
    that column is cleared from the kept rows.  Reading stops once every
    column has a pivot.  The result is the unique reduced echelon basis of
    the row space, whatever the order of the rows."""
    reduced: dict[int, dict[int, Fraction]] = {}
    rows = iter(rows)
    while len(reduced) < ncols and (row := next(rows, None)) is not None:
        row = {c: x for c, x in row.items() if x}
        for p in [c for c in row if c in reduced]:
            _subtract(row, row.pop(p), reduced[p], p)
        if row:
            pivot = min(row)
            inv = 1 / Q(row[pivot])
            row = {c: x * inv for c, x in row.items()}
            for other in reduced.values():
                if pivot in other:
                    _subtract(other, other.pop(pivot), row, pivot)
            reduced[pivot] = row
    return {p: reduced[p] for p in sorted(reduced)}


def _subtract(target: dict[int, Fraction], f: Fraction, row: Mapping[int, Fraction], skip: int):
    """target -= f * row in place, but for column ``skip``."""
    for c, x in row.items():
        if c != skip:
            if y := target.get(c, 0) - f * x:
                target[c] = y
            else:
                target.pop(c, None)


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


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    reduced = gauss_jordan(sparse_rows(m.data), m.cols)
    rows = list(reduced.values()) + [{}] * (m.rows - len(reduced))
    return RatMatrix([[row.get(c, 0) for c in range(m.cols)] for row in rows]), tuple(reduced)


def rank(m: RatMatrix) -> int:
    return len(gauss_jordan(sparse_rows(m.data), m.cols))


def kernel_vectors(rows: Iterable[Mapping[int, Fraction]], ncols: int):
    """A sparse basis of the kernel of the sparse rows ``{column:
    coefficient}`` in ``ncols`` unknowns, from their reduced echelon form:
    for each free column f, the vector that is 1 at f, 0 at the other free
    columns and -row[f] at each row's pivot."""
    reduced = gauss_jordan(rows, ncols)
    for f in range(ncols):
        if f not in reduced:
            vec = {p: -row[f] for p, row in reduced.items() if f in row}
            vec[f] = Q(1)
            yield vec


def _echelon_basis(vectors: Iterable[Mapping[int, Fraction]], dim: int) -> RatMatrix:
    """The canonical basis of the span of sparse vectors of length ``dim``,
    as the columns of a matrix."""
    return RatMatrix.from_sparse_columns(list(gauss_jordan(vectors, dim).values()), dim)


def sparse_nullspace(ncols: int, rows: Iterable[Mapping[int, Fraction]]) -> RatMatrix:
    """Basis of the kernel of the system of sparse rows ``{column:
    coefficient}`` in ``ncols`` unknowns, as columns in canonical (reduced
    column echelon) form.  The rows are read as a stream and no longer
    once the kernel is zero."""
    return _echelon_basis(kernel_vectors(rows, ncols), ncols)


def nullspace(a: RatMatrix) -> RatMatrix:
    """Basis of the right kernel of ``a`` as columns in a canonical
    (reduced column echelon) form."""
    return sparse_nullspace(a.cols, sparse_rows(a.data))


def column_echelon(m: RatMatrix) -> RatMatrix:
    """Canonical reduced column echelon form with zero columns dropped.

    The result is the unique reduced basis of the column space, so two
    subspaces are equal iff their column_echelon forms are equal.
    """
    return _echelon_basis(sparse_rows(zip(*m.data)), m.rows)


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
# Subspace helpers (columns = basis vectors)
# ---------------------------------------------------------------------------


def subspace_sum(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return column_echelon(a.hstack(b))


def subspace_intersection(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Canonical basis of the intersection of two column spaces: A x over
    the kernel vectors (x, y) of [A | B], for which A x = B (-y)."""
    if a.cols == 0 or b.cols == 0:
        return RatMatrix.zeros(a.rows, 0)
    kernel = kernel_vectors(sparse_rows(ra + rb for ra, rb in zip(a.data, b.data)), a.cols + b.cols)
    a_columns = list(sparse_rows(zip(*a.data)))
    meets = (combine_rows({k: x for k, x in v.items() if k < a.cols}, a_columns) for v in kernel)
    return _echelon_basis(meets, a.rows)


# ---------------------------------------------------------------------------
# Polynomials over Q (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def minimal_polynomial(m: RatMatrix) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of M, from one elimination of the system
    sum_k c_k M^k = 0 in c_0..c_n, one equation per entry (i, j): its pivots
    are the powers independent of the lower ones, so its first free column
    is the degree d, and that column's kernel vector is the monic
    polynomial.  Row i of M^k is built sparse, as row i of M^(k-1) times M."""
    if not m.is_square():
        raise ShapeError("minimal polynomial of a non-square matrix")
    n = m.rows
    rows = list(sparse_rows(m.data))
    powers = [[{i: Q(1)} for i in range(n)]]
    for _ in range(n):
        powers.append([combine_rows(row, rows) for row in powers[-1]])
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
    """All roots of ``poly`` if they are rational, else None.

    Returns the distinct roots (multiplicities ignored).
    """
    p = poly_normalize(poly)
    if len(p) <= 1:
        return []
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    roots = []
    for fac, _mult in factors:
        if fac.degree() > 1:
            return None
        if fac.degree() == 1:
            a1, a0 = fac.all_coeffs()
            roots.append(Q(int(sympy.numer(-a0 / a1)), int(sympy.denom(-a0 / a1))))
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# Spectra: generalized eigenspaces, simultaneous eigenspaces, Jordan-Chevalley
# ---------------------------------------------------------------------------


def _spectrum(m: RatMatrix, message: str) -> tuple[list[Fraction], int]:
    """The distinct eigenvalues of M, all rational (else NonSplitError with
    ``message``), and k = deg - #roots + 1 for its minimal polynomial: k
    bounds every root's multiplicity, and k = 1 iff M is diagonalizable."""
    mp = minimal_polynomial(m)
    roots = rational_roots(mp)
    if roots is None:
        raise NonSplitError(message)
    return roots, len(mp) - len(roots)


def _generalized_eigenspaces(
    m: RatMatrix, roots: Sequence[Fraction], k: int
) -> list[tuple[Fraction, RatMatrix]]:
    """ker (M - lam)^k, as a canonical basis, for each eigenvalue lam of M,
    with the ``roots`` and ``k`` of ``_spectrum(M)``."""
    one = RatMatrix.identity(m.rows)
    spaces = [(lam, nullspace((m - one.scale(lam)).power(k))) for lam in roots]
    if sum(space.cols for _, space in spaces) != m.rows:
        raise AxiomFailure("generalized eigenspaces do not fill the space")
    return spaces


def _eigen_split(basis: RatMatrix, op: RatMatrix) -> list[tuple[Fraction, RatMatrix]]:
    """Split the column space of ``basis``, which ``op`` must preserve, into
    eigenspaces of ``op``; raises if the restriction is not diagonalizable
    with rational spectrum."""
    restricted = solve(basis, op * basis)
    if restricted is None:
        raise ShapeError("operator does not preserve the space")
    roots, k = _spectrum(restricted, "operator has an irrational eigenvalue")
    if k > 1:
        raise NotDiagonalizableError("minimal polynomial has a repeated root")
    spaces = _generalized_eigenspaces(restricted, roots, k)
    return [(lam, column_echelon(basis * ker)) for lam, ker in spaces]


def simultaneous_eigenspaces(
    ops: Sequence[RatMatrix], basis: RatMatrix | None = None
) -> list[tuple[tuple[Fraction, ...], RatMatrix]]:
    """Joint eigenspace decomposition of commuting diagonalizable matrices
    on the column space of ``basis``, which every op must preserve (the
    whole space by default).

    Returns (weight vector, canonical subspace basis) pairs sorted by
    weight; the subspaces are a direct-sum decomposition of the space.
    """
    ops = list(ops)
    if basis is None:
        if not ops:
            raise ShapeError("a basis is needed when there are no operators")
        basis = RatMatrix.identity(ops[0].rows)
    if any(not op.is_square() or op.rows != basis.rows for op in ops):
        raise ShapeError("operators must be square of equal size")
    images = [op * basis for op in ops]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if ops[i] * images[j] != ops[j] * images[i]:
                raise NotCommutingError(f"operators {i} and {j} do not commute")
    spaces = [((), column_echelon(basis))]
    for op in ops:
        spaces = [(w + (lam,), piece) for w, space in spaces for lam, piece in _eigen_split(space, op)]
    return sorted(spaces, key=lambda t: t[0])


def semisimple_part(m: RatMatrix) -> RatMatrix:
    """Semisimple summand of the Jordan-Chevalley decomposition M = S + N.

    S acts as lam on the generalized eigenspace of each eigenvalue lam, so
    S B = B D for the matrix B of their bases and the diagonal D of their
    eigenvalues: one solve.  Requires the characteristic polynomial to
    split over the rationals (NonSplitError otherwise).
    """
    if not m.is_square():
        raise ShapeError("semisimple part of a non-square matrix")
    spaces = _generalized_eigenspaces(m, *_spectrum(m, "spectrum is not rational"))
    b = [col for _, space in spaces for col in space.columns()]
    bd = [tuple(lam * x for x in col) for lam, space in spaces for col in space.columns()]
    # S B = B D  <=>  B^T S^T = (B D)^T, and the columns of B^T are independent
    return solve(RatMatrix(b), RatMatrix(bd)).transpose()


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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.data))) if self.data else IntMatrix([])

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        return IntMatrix([ra + rb for ra, rb in zip(self.data, other.data)])

    def to_rational(self) -> RatMatrix:
        return RatMatrix(self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form S = U M V with U, V unimodular and
    nonnegative diagonal entries in a divisibility chain."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.S[i, i] for i in range(min(self.S.rows, self.S.cols))
        )


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form with transformation matrices: U*M*V = S."""
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for r in a:
            r[dst] += f * r[src]
        for r in v:
            r[dst] += f * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di == 0 and dj != 0:
                swap_rows(i, i + 1)
                swap_cols(i, i + 1)
                changed = True
                continue
            if dj % di if di else 0:
                # Standard 2x2 fix: fold d_{i+1} into row i and re-reduce.
                add_col(i + 1, i, 1)
                while a[i + 1][i] != 0:
                    q = a[i + 1][i] // a[i][i] if a[i][i] else 0
                    if a[i][i] != 0:
                        add_row(i, i + 1, -q)
                    if a[i + 1][i] != 0:
                        swap_rows(i, i + 1)
                # Clear the fill-in in row i.
                q = a[i][i + 1] // a[i][i]
                add_col(i, i + 1, -q)
                if a[i][i + 1]:
                    raise AxiomFailure("Smith normal form: fill-in left in row")
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return SnfResult(IntMatrix(a), IntMatrix(u), IntMatrix(v))


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
    return IntMatrix.from_columns(out, rows=rows) if out else IntMatrix.zeros(rows, 0)


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
    if not cols:
        return IntMatrix.zeros(m.cols, 0)
    return column_hnf(IntMatrix.from_columns(cols, rows=m.cols))


def integer_solve(m: IntMatrix, v: Sequence[int]) -> list[int] | None:
    """One integer solution x of M x = v, or None if none exists."""
    v = [int(x) for x in v]
    if len(v) != m.rows:
        raise ShapeError("vector length mismatch")
    snf = smith_normal_form(m)
    uv = snf.U.matvec(v)
    d = snf.diagonal()
    z = [0] * m.cols
    for i in range(m.rows):
        di = d[i] if i < len(d) else 0
        if di == 0:
            if uv[i] != 0:
                return None
        else:
            if uv[i] % di != 0:
                return None
            if i < m.cols:
                z[i] = uv[i] // di
    return list(snf.V.matvec(z))


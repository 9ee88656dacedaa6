"""Shared constructions for the test suite."""

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import chain, islice, product
from math import gcd, lcm, prod

import sympy

from gradalg.abgroup import FgAbGroup, GroupElement, GroupHom, Subgroup
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    algebra_from_matrices,
    centroid_dimension,
    killing_form,
)
from gradalg.errors import (
    AxiomFailure,
    FlagViolation,
    NonSplitError,
    NotDiagonalizableError,
    ShapeError,
)
from gradalg.exactla import (
    IntMatrix,
    RatMatrix,
    combine_rows,
    flat_operator,
    inverse,
    poly_normalize,
    rational_roots,
    smith_normal_form,
    solve,
    sparse_nullspace,
    sparse_rows,
)
from gradalg.grading import GradedDerivations, Grading
from gradalg.lieroot import _proportional, _wadd, _wscale


# ---------------------------------------------------------------------------
# Dense views of gradalg's sparse formats, for oracles and readable tests
# ---------------------------------------------------------------------------


def sparse(vec) -> dict:
    """A dense vector in gradalg's format: {index: entry}, no zero entries."""
    return {i: Q(x) for i, x in enumerate(vec) if x}


def dense(vec, n: int) -> tuple:
    """A sparse vector as a dense tuple of length n."""
    return tuple(Q(vec.get(i, 0)) for i in range(n))


def op_rows(m: RatMatrix) -> list[dict]:
    """A dense matrix in gradalg's operator format: its sparse rows."""
    return list(sparse_rows(m.data))


def rows_matrix(rows) -> RatMatrix:
    """The dense square matrix of an operator given by sparse rows."""
    return RatMatrix([[row.get(j, 0) for j in range(len(rows))] for row in rows])


def basis_matrix(space: Subspace) -> RatMatrix:
    """The canonical basis of a subspace as the columns of a dense matrix."""
    return RatMatrix.from_sparse_columns(space.sparse_vectors(), space.dim_ambient)


def vectors(space: Subspace) -> list[tuple]:
    """The canonical basis of a subspace as dense tuples."""
    return [dense(v, space.dim_ambient) for v in space.sparse_vectors()]


def span_of(n: int, vecs) -> Subspace:
    """The span of dense vectors of length n."""
    vecs = list(vecs)
    if any(len(v) != n for v in vecs):
        raise ShapeError("vector length must equal the ambient dimension")
    return Subspace.span(n, map(sparse, vecs))


def flatten(m: RatMatrix) -> tuple:
    """The entries of a dense matrix, row by row."""
    return tuple(x for row in m.data for x in row)


def mat_from_flat(entries, rows: int, cols: int) -> RatMatrix:
    """The dense matrix whose ``flatten`` is ``entries``."""
    return RatMatrix([entries[i * cols : (i + 1) * cols] for i in range(rows)])


def zeros(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)])


def diagonal(entries) -> RatMatrix:
    n = len(entries)
    return RatMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def column_vector(entries) -> RatMatrix:
    return RatMatrix([[x] for x in entries])


def matvec(m: RatMatrix, v) -> tuple:
    """The dense product M v."""
    return tuple(sum((a * Q(b) for a, b in zip(row, v)), Q(0)) for row in m.data)


def mat_transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix(list(zip(*m.data))) if m.data else RatMatrix([])


def trace(m: RatMatrix):
    return sum((m[i, i] for i in range(min(m.rows, m.cols))), Q(0))


def is_zero(m: RatMatrix) -> bool:
    return all(x == 0 for row in m.data for x in row)


def basis_value(op: MultilinearOp, key, n: int) -> tuple:
    """op(e_key) as a dense tuple of length n."""
    return dense(op.tensor.get(tuple(key), {}), n)


def unit(i: int, n: int) -> tuple:
    """The dense standard basis vector e_i of length n."""
    return tuple(Q(int(j == i)) for j in range(n))


def dense_rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Oracle for ``exactla.rref``: Gauss-Jordan on dense Fraction rows,
    one column at a time."""
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return RatMatrix(a), tuple(pivots)


def hstack(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The matrix [A | B]."""
    return RatMatrix([ra + rb for ra, rb in zip(a.data, b.data)])


def dense_column_echelon(m: RatMatrix) -> RatMatrix:
    """Oracle for the canonical basis of ``exactla.Subspace``: the nonzero
    rows of the dense rref of the transpose, as columns."""
    r, pivots = dense_rref(mat_transpose(m))
    return RatMatrix.from_columns(r.data[: len(pivots)], rows=m.rows)


def dense_nullspace(a: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.nullspace``: one kernel vector per free column
    of the dense rref, brought to canonical form by ``dense_column_echelon``."""
    r, pivots = dense_rref(a)
    cols = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [Q(0)] * a.cols
        v[fc] = Q(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i, fc]
        cols.append(v)
    return dense_column_echelon(RatMatrix.from_columns(cols, rows=a.cols)) if cols else zeros(a.cols, 0)


def dense_subspace_intersection(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.Subspace.intersect`` on column spaces: A x over
    a dense kernel basis (x, y) of [A | -B]."""
    if a.cols == 0 or b.cols == 0:
        return zeros(a.rows, 0)
    ker = dense_nullspace(hstack(a, b.scale(-1)))
    cols = [matvec(a, ker.column(j)[: a.cols]) for j in range(ker.cols)]
    return dense_column_echelon(RatMatrix.from_columns(cols, rows=a.rows)) if cols else zeros(a.rows, 0)


#: equation rows per block of ``blocked_kernel``
ROWS_PER_BLOCK = 48


def blocked_kernel(nunknowns: int, rows) -> RatMatrix:
    """Oracle for ``exactla.sparse_nullspace``: a basis N of the running
    solution space (sparse rows, at first the identity), cut down by the
    dense kernel of E N for each block E of ``ROWS_PER_BLOCK`` rows."""
    n_rows = [{k: Q(1)} for k in range(nunknowns)]
    width = nunknowns
    rows = iter(rows)
    while width:
        block = list(islice(rows, ROWS_PER_BLOCK))
        if not block:
            break
        small = [combine_rows(row, n_rows) for row in block]
        if not any(small):
            continue
        ker = dense_nullspace(RatMatrix([[line.get(j, Q(0)) for j in range(width)] for line in small]))
        ker_rows = [{j: x for j, x in enumerate(line) if x} for line in ker.data]
        n_rows = [combine_rows(line, ker_rows) for line in n_rows]
        width = ker.cols
    if not width:
        return zeros(nunknowns, 0)
    return dense_column_echelon(RatMatrix([[line.get(j, Q(0)) for j in range(width)] for line in n_rows]))


def dense_ad(a: StructureAlgebra, x) -> RatMatrix:
    """Oracle for ``StructureAlgebra.ad_rows`` and ``ad_matrix`` at a dense
    x: column j is ``dense_apply`` of the bracket on (x, e_j)."""
    n = a.dimension
    return RatMatrix.from_columns([dense_apply(a.binary_op(), [x, unit(j, n)], n) for j in range(n)], rows=n)


def dense_killing_form(a: StructureAlgebra) -> tuple[RatMatrix, bool]:
    """Oracle for ``killing_form``: trace(ad e_i ad e_j) from n^2 products
    of dense ad matrices, and nondegeneracy from a dense rref."""
    n = a.dimension
    ads = [dense_ad(a, unit(i, n)) for i in range(n)]
    gram = RatMatrix([[trace(ads[i] * ads[j]) for j in range(n)] for i in range(n)])
    return gram, len(dense_rref(gram)[1]) == n


def submatrix(m: RatMatrix, row_idx, col_idx) -> RatMatrix:
    return RatMatrix([[m[i, j] for j in col_idx] for i in row_idx])


def per_degree_minimal_polynomial(m: RatMatrix) -> tuple:
    """Oracle for ``exactla.minimal_polynomial``: one solve per degree d,
    asking whether M^d is a combination of I, M, ..., M^(d-1)."""
    n = m.rows
    powers = [RatMatrix.identity(n)]
    for _ in range(n):
        powers.append(m * powers[-1])
    flat = [flatten(p) for p in powers]
    for d in range(1, n + 2):
        a = RatMatrix.from_columns(flat[:d], rows=n * n)
        x = solve(a, column_vector(flat[d]))
        if x is not None:
            return tuple(-c for c in x.column(0)) + (Q(1),)
    raise ValueError("no minimal polynomial of degree <= n")


def poly_eval_matrix(poly, m: RatMatrix) -> RatMatrix:
    acc = zeros(m.rows, m.cols)
    for c in reversed(list(poly)):
        acc = acc * m if not is_zero(acc) else acc
        if c:
            acc = acc + RatMatrix.identity(m.rows).scale(c)
    return acc


def poly_derivative(poly) -> tuple:
    return tuple(Q(k) * poly[k] for k in range(1, len(poly)))


def newton_semisimple_part(m: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.semisimple_part``: Newton iteration
    S <- S - p'(S)^-1 p(S) from S = M on the squarefree polynomial p with
    the roots of the minimal polynomial."""
    roots = rational_roots(per_degree_minimal_polynomial(m))
    if roots is None:
        raise NonSplitError("spectrum is not rational")
    pred = (Q(1),)
    for r in roots:
        pred = tuple(
            (pred[k - 1] if k >= 1 else Q(0)) - r * (pred[k] if k < len(pred) else Q(0))
            for k in range(len(pred) + 1)
        )
    dp = poly_derivative(pred)
    s = m
    for _ in range(m.rows.bit_length() + 1):
        val = poly_eval_matrix(pred, s)
        if is_zero(val):
            return s
        s = s - inverse(poly_eval_matrix(dp, s)) * val
    if not is_zero(poly_eval_matrix(pred, s)):
        raise ValueError("Newton iteration failed to converge")
    return s


def sympy_rational_roots(poly) -> list | None:
    """Oracle for ``exactla.rational_roots``: sympy's factorization over
    Q, None when a factor of degree > 1 is left."""
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


def poly_product(*factors) -> list:
    """The product of polynomials given as coefficient lists, low degree
    first."""
    out = [Q(1)]
    for f in factors:
        acc = [Q(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * Q(b)
        out = acc
    return out


def kernel_eigen_split(basis: RatMatrix, op: RatMatrix) -> list:
    """Oracle for ``exactla._eigen_split``: the kernel of op - lam on the
    space, for each root lam of the restriction's minimal polynomial."""
    restricted = solve(basis, op * basis)
    if restricted is None:
        raise ShapeError("operator does not preserve the space")
    mp = per_degree_minimal_polynomial(restricted)
    roots = rational_roots(mp)
    if roots is None:
        raise NonSplitError("operator has an irrational eigenvalue")
    if len(roots) < len(mp) - 1:
        raise NotDiagonalizableError("minimal polynomial has a repeated root")
    pieces = []
    total = 0
    for lam in roots:
        ker = dense_nullspace(restricted - RatMatrix.identity(restricted.rows).scale(lam))
        if ker.cols:
            pieces.append((lam, dense_column_echelon(basis * ker)))
            total += ker.cols
    if total != basis.cols:
        raise NotDiagonalizableError("eigenspaces do not fill the space")
    return pieces


def e_matrix(n: int, i: int, j: int, c=1) -> RatMatrix:
    return RatMatrix([[c if (r, s) == (i, j) else 0 for s in range(n)] for r in range(n)])


def sl_matrices(n: int) -> list[RatMatrix]:
    """Basis of traceless n x n matrices: E_ij (i != j), then
    E_ii - E_{i+1,i+1}."""
    out = [e_matrix(n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        out.append(e_matrix(n, i, i) + e_matrix(n, i + 1, i + 1, -1))
    return out


def from_matrices(name: str, mats, kind: str = "lie") -> StructureAlgebra:
    """``algebra_from_matrices`` on dense matrices."""
    return algebra_from_matrices(name, [op_rows(m) for m in mats], kind=kind)


def build_sl(n: int) -> StructureAlgebra:
    return from_matrices(f"sl{n}", sl_matrices(n))


def build_sl2_efh() -> StructureAlgebra:
    """sl2 in the basis (e, h, f)."""
    e = RatMatrix([[0, 1], [0, 0]])
    h = RatMatrix([[1, 0], [0, -1]])
    f = RatMatrix([[0, 0], [1, 0]])
    return from_matrices("sl2", [e, h, f])


def build_m2() -> StructureAlgebra:
    mats = [e_matrix(2, i, j) for i in range(2) for j in range(2)]
    return from_matrices("m2", mats, kind="associative")


def build_m2_splitpauli() -> StructureAlgebra:
    """M2(Q) in the basis (1, x, y, z) with x^2 = 1, z^2 = 1, y^2 = -1."""
    one = RatMatrix.identity(2)
    x = RatMatrix([[0, 1], [1, 0]])
    y = RatMatrix([[0, 1], [-1, 0]])
    z = RatMatrix([[1, 0], [0, -1]])
    return from_matrices("m2-pauli", [one, x, y, z], kind="associative")


def build_sl2_plus_sl2() -> StructureAlgebra:
    def emb(m: RatMatrix, pos: int) -> RatMatrix:
        out = [[Q(0)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                out[pos + i][pos + j] = m[i, j]
        return RatMatrix(out)

    e = RatMatrix([[0, 1], [0, 0]])
    h = RatMatrix([[1, 0], [0, -1]])
    f = RatMatrix([[0, 0], [1, 0]])
    mats = [emb(m, 0) for m in (e, h, f)] + [emb(m, 2) for m in (e, h, f)]
    return from_matrices("sl2+sl2", mats)


def build_sl2_plus_sl3() -> StructureAlgebra:
    """sl2 + sl3 as block-diagonal 5 x 5 matrices."""

    def block(m: RatMatrix, pos: int) -> RatMatrix:
        out = [[Q(0)] * 5 for _ in range(5)]
        for i in range(m.rows):
            for j in range(m.cols):
                out[pos + i][pos + j] = m[i, j]
        return RatMatrix(out)

    mats = [block(m, 0) for m in sl_matrices(2)] + [block(m, 2) for m in sl_matrices(3)]
    return from_matrices("sl2+sl3", mats)


def _ideal_closure(a: StructureAlgebra, seed) -> Subspace:
    """Smallest ideal containing the sparse seed vector."""
    n = a.dimension
    span = Subspace.span(n, [seed])
    frontier = [seed]
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                w = a.bracket(a.basis_vector(i), v)
                if w and not span.contains(w):
                    span = span.add(Subspace.span(n, [w]))
                    new_frontier.append(w)
        frontier = new_frontier
    return span


def is_simple_by_ideal_closures(a: StructureAlgebra) -> bool:
    """Oracle for ``is_simple``: not simple when a basis vector generates a
    proper ideal, otherwise simple iff the centroid is one-dimensional."""
    if not killing_form(a)[1]:
        raise ValueError("simplicity test requires a nondegenerate Killing form")
    n = a.dimension
    if any(_ideal_closure(a, a.basis_vector(i)).dim < n for i in range(n)):
        return False
    return centroid_dimension(a) == 1


def dense_apply(op: MultilinearOp, vectors, dim: int) -> tuple:
    """Oracle for ``MultilinearOp.apply``: one pass over every tensor entry,
    whatever the arguments."""
    out = [Q(0)] * dim
    for key, vec in op.tensor.items():
        coeff = Q(1)
        for t, i in enumerate(key):
            coeff *= vectors[t][i]
            if coeff == 0:
                break
        if coeff == 0:
            continue
        for j, c in vec.items():
            out[j] += coeff * c
    return tuple(out)


def dense_verify_lie(self: StructureAlgebra) -> None:
    """Oracle for ``StructureAlgebra._verify_lie``: antisymmetry and Jacobi
    from dense length-n tuples, one ``dense_apply`` per term of each triple."""
    op = self.binary_op()
    n = self.dimension
    for i in range(n):
        for j in range(i, n):
            ij = basis_value(op, (i, j), n)
            ji = basis_value(op, (j, i), n)
            if any(a + b for a, b in zip(ij, ji)):
                raise FlagViolation(
                    f"bracket is not antisymmetric on basis pair ({i}, {j})",
                    witness=(i, j),
                )
    basis = [unit(i, n) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            xy = basis_value(op, (i, j), n)
            for k in range(j + 1, n):
                yz = basis_value(op, (j, k), n)
                zx = basis_value(op, (k, i), n)
                total = [
                    a + b + c
                    for a, b, c in zip(
                        dense_apply(op, [xy, basis[k]], n),
                        dense_apply(op, [yz, basis[i]], n),
                        dense_apply(op, [zx, basis[j]], n),
                    )
                ]
                if any(total):
                    raise FlagViolation(
                        f"Jacobi identity fails on basis triple ({i}, {j}, {k})",
                        witness=(i, j, k),
                    )


def dense_verify_associative(self: StructureAlgebra) -> None:
    """Oracle for ``StructureAlgebra._verify_associative``: both sides of
    each triple as dense length-n tuples from two ``dense_apply`` calls."""
    op = self.binary_op()
    n = self.dimension
    basis = [unit(i, n) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = basis_value(op, (i, j), n)
            for k in range(n):
                jk = basis_value(op, (j, k), n)
                lhs = dense_apply(op, [ij, basis[k]], n)
                rhs = dense_apply(op, [basis[i], jk], n)
                if lhs != rhs:
                    raise FlagViolation(
                        f"associativity fails on basis triple ({i}, {j}, {k})",
                        witness=(i, j, k),
                    )


def dense_rebase(alg: StructureAlgebra, basis: RatMatrix) -> list[dict]:
    """Oracle for ``subalgebra_structure`` and ``Grading.homog_algebra``:
    each operation's tensor in the basis of the columns of ``basis``, from
    ``dense_apply`` on every key and one rational solve per value."""
    n = basis.cols
    tensors = []
    for op in alg.operations:
        tensor = {}
        for key in product(range(n), repeat=op.arity):
            val = dense_apply(op, [basis.column(i) for i in key], alg.dimension)
            vec = {j: c for j, c in enumerate(subspace_coords(basis, val)) if c}
            if vec:
                tensor[key] = vec
        tensors.append(tensor)
    return tensors


@dataclass(frozen=True)
class SolveResult:
    """Affine solution set of A X = B: a particular solution (or None if
    inconsistent) and a canonical basis of the kernel of A."""

    particular: RatMatrix | None
    nullspace: RatMatrix


def rational_solve(a: RatMatrix, b: RatMatrix) -> SolveResult:
    """Oracle for ``exactla.solve``: the full solution description of
    A X = B from an rref of [A | B] and a separate ``nullspace(A)``."""
    if a.rows != b.rows:
        raise ShapeError("A and B must have equal row counts")
    aug, pivots = dense_rref(hstack(a, b))
    ns = dense_nullspace(a)
    # Inconsistent iff some pivot falls in the B block.
    if any(p >= a.cols for p in pivots):
        return SolveResult(None, ns)
    part = [[Q(0)] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        for j in range(b.cols):
            part[p][j] = aug[i, a.cols + j]
    return SolveResult(RatMatrix(part), ns)


def subspace_coords(basis: RatMatrix, vec) -> tuple | None:
    """Oracle for ``Subspace.coords``: coordinates of ``vec`` in the columns
    of ``basis`` by a rational solve, or None if outside their span."""
    if basis.cols == 0:
        return () if all(Q(x) == 0 for x in vec) else None
    res = rational_solve(basis, column_vector(list(vec)))
    if res.particular is None:
        return None
    if res.nullspace.cols:
        raise ShapeError("basis columns are dependent")
    return res.particular.column(0)


def pairwise_matrix_tensor(matrices, kind: str):
    """Oracle for ``algebra_from_matrices``: one rational solve per ordered
    pair.  Returns (tensor, None), or (None, (i, j)) for the first pair
    whose product leaves the span."""
    flat = mat_transpose(RatMatrix([flatten(m) for m in matrices]))
    tensor = {}
    for i, j in product(range(len(matrices)), repeat=2):
        prod_m = matrices[i] * matrices[j]
        if kind == "lie":
            prod_m = prod_m - matrices[j] * matrices[i]
        coords = subspace_coords(flat, flatten(prod_m))
        if coords is None:
            return None, (i, j)
        vec = {t: c for t, c in enumerate(coords) if c}
        if vec:
            tensor[(i, j)] = vec
    return tensor, None


def leibniz_holds(alg: StructureAlgebra, d: RatMatrix) -> bool:
    """Direct basis-by-basis Leibniz check for a candidate derivation."""
    from itertools import product

    n = alg.dimension
    basis = [unit(i, n) for i in range(n)]
    for op in alg.operations:
        for key in product(range(n), repeat=op.arity):
            val = basis_value(op, key, n)
            lhs = matvec(d, val)
            rhs = [Q(0)] * n
            for t in range(op.arity):
                args = [basis[i] for i in key]
                args[t] = matvec(d, args[t])
                term = dense_apply(op, args, n)
                rhs = [a + b for a, b in zip(rhs, term)]
            if list(lhs) != list(rhs):
                return False
    return True


def dense_leibniz_rows(alg: StructureAlgebra):
    """The Leibniz system as dense rows in the n^2 unknowns D[r, c]
    (index r*n + c), built by evaluating both sides on basis keys."""
    n = alg.dimension
    for op in alg.operations:
        for key in product(range(n), repeat=op.arity):
            val = basis_value(op, key, n)
            rhs_terms = []
            for t, it in enumerate(key):
                for b in range(n):
                    key2 = key[:t] + (b,) + key[t + 1 :]
                    if op.tensor.get(key2):
                        rhs_terms.append((b, it, basis_value(op, key2, n)))
            for j in range(n):
                row = [Q(0)] * (n * n)
                for aidx, c in enumerate(val):
                    row[j * n + aidx] += c
                for b, it, vec in rhs_terms:
                    row[b * n + it] -= vec[j]
                if any(row):
                    yield row


def fraction_gauss_jordan(rows, ncols: int) -> dict:
    """Oracle for ``exactla.gauss_jordan``: the same streamed sparse
    elimination on ``Fraction`` rows, each kept row scaled to 1 at its
    pivot as soon as it is kept."""
    reduced = {}
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


def _subtract(target: dict, f, row, skip: int):
    """target -= f * row in place, but for column ``skip``."""
    for c, x in row.items():
        if c != skip:
            if y := target.get(c, 0) - f * x:
                target[c] = y
            else:
                target.pop(c, None)


def fraction_nullspace(ncols: int, rows) -> Subspace:
    """Oracle for ``exactla.sparse_nullspace`` by ``fraction_gauss_jordan``:
    one kernel vector per free column, in canonical form."""
    reduced = fraction_gauss_jordan(rows, ncols)
    kernel = []
    for f in range(ncols):
        if f not in reduced:
            vec = {p: -row[f] for p, row in reduced.items() if f in row}
            vec[f] = Q(1)
            kernel.append(vec)
    return Subspace(ncols, fraction_gauss_jordan(kernel, ncols))


def fraction_derivations(grading: Grading) -> dict:
    """Oracle for ``graded_derivations(grading).by_degree``: for each
    candidate degree g, the kernel in n^2 coordinates of the Leibniz rows
    built on the rational ``op.tensor`` (``dense_leibniz_rows``),
    restricted to the unknowns D[r, c] with deg r = g + deg c, and of a
    unit row for every other unknown, by ``fraction_nullspace``."""
    homog = grading.homog_algebra
    n = homog.dimension
    degrees = grading.degrees
    rows = list(sparse_rows(dense_leibniz_rows(homog)))
    ident = grading.group.identity()
    out = {}
    for g in {s - t for s in grading.support for t in grading.support} | {ident}:
        inside = {r * n + c for r in range(n) for c in range(n) if degrees[r] == g + degrees[c]}
        outside = ({k: Q(1)} for k in range(n * n) if k not in inside)
        restricted = ({k: x for k, x in row.items() if k in inside} for row in rows)
        space = fraction_nullspace(n * n, chain(outside, restricted))
        if space.dim or g == ident:
            out[g] = space
    return out


def dense_graded_derivations(grading: Grading) -> GradedDerivations:
    """Oracle for ``graded_derivations``: for every candidate degree g, the
    kernel of the whole dense Leibniz system restricted to the unknowns
    D[r, c] with deg r = g + deg c."""
    homog = grading.homog_algebra
    n = homog.dimension
    degrees = grading.degrees
    rows = list(dense_leibniz_rows(homog))
    ident = grading.group.identity()
    candidates = sorted(
        {s - t for s in grading.support for t in grading.support} | {ident},
        key=lambda g: g.coords,
    )
    by_degree = {}
    sigma = []
    for g in candidates:
        idx = [r * n + c for r in range(n) for c in range(n) if degrees[r] == g + degrees[c]]
        if not idx:
            if g == ident:
                by_degree[g] = Subspace(n * n, {})
            continue
        system = [sub for sub in ([row[i] for i in idx] for row in rows) if any(sub)]
        kernel = dense_nullspace(RatMatrix(system)) if system else RatMatrix.identity(len(idx))
        embedded = []
        for col in kernel.columns():
            v = [Q(0)] * (n * n)
            for i, x in zip(idx, col):
                v[i] = x
            embedded.append(v)
        space = span_of(n * n, embedded)
        if space.dim or g == ident:
            by_degree[g] = space
        if space.dim:
            sigma.append(g)
    return GradedDerivations(grading, by_degree, by_degree[ident], tuple(sigma))


def graded_parts(gd: GradedDerivations) -> tuple:
    """The fields of graded derivations that reports are computed from."""
    return gd.by_degree, gd.identity_part, gd.sigma


def signed_permutation(grading: Grading, rng: random.Random) -> Grading:
    """The grading in a seeded signed permutation of its homogeneous basis:
    f_pos[i] = sign[i] e_i."""
    homog = grading.homog_algebra
    n = homog.dimension
    pos = list(range(n))
    rng.shuffle(pos)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    ops = []
    for op in homog.operations:
        tensor = {}
        for key, vec in op.tensor.items():
            s = 1
            for i in key:
                s *= sign[i]
            tensor[tuple(pos[i] for i in key)] = {pos[j]: s * sign[j] * c for j, c in vec.items()}
        ops.append(MultilinearOp(op.name, op.arity, tensor))
    degrees = [None] * n
    for i, d in enumerate(grading.degrees):
        degrees[pos[i]] = d
    alg = StructureAlgebra(homog.name, n, ops, homog.flags)
    return Grading(alg, grading.group, degrees)


def random_graded_algebra(rng: random.Random, ternary: bool = False):
    """A random graded algebra with one binary operation, plus a ternary
    one when ``ternary``."""
    n = rng.randint(3, 6)
    style = rng.randrange(3)
    if style == 0:
        group = FgAbGroup(1, ())
        degrees = [group.element([rng.randint(-2, 2)]) for _ in range(n)]
    elif style == 1:
        group = FgAbGroup(0, [rng.choice([2, 3, 4])])
        degrees = [group.element([rng.randrange(4)]) for _ in range(n)]
    else:
        group = FgAbGroup(0, [2, 2])
        degrees = [group.element([rng.randrange(2), rng.randrange(2)]) for _ in range(n)]
    tensor = {}
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        target = degrees[i] + degrees[j]
        ks = [k for k in range(n) if degrees[k] == target]
        if not ks:
            continue
        k = rng.choice(ks)
        c = Q(rng.randint(-2, 2))
        if c:
            tensor.setdefault((i, j), {})[k] = c
    ops = [MultilinearOp("mul", 2, tensor)]
    if ternary:
        triple = {}
        for _ in range(3 * n):
            key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            target = degrees[key[0]] + degrees[key[1]] + degrees[key[2]]
            ks = [k for k in range(n) if degrees[k] == target]
            c = Q(rng.randint(-2, 2))
            if ks and c:
                triple.setdefault(key, {})[rng.choice(ks)] = c
        ops.append(MultilinearOp("triple", 3, triple))
    alg = StructureAlgebra("fuzz", n, ops, [])
    return Grading(alg, group, degrees)


def probed_cartan_number(alpha, beta, phi) -> int | None:
    """Oracle for ``lieroot._cartan_number``: probes all eleven weights
    beta + k alpha, |k| <= 5, and reads the alpha-string off the set of
    k found."""
    c = _proportional(beta, alpha)
    if c is not None:
        n = 2 * c
        return int(n) if n.denominator == 1 else None
    ks = {k for k in range(-5, 6) if _wadd(beta, _wscale(k, alpha)) in phi}
    p = 0
    while -(p + 1) in ks:
        p += 1
    q = 0
    while q + 1 in ks:
        q += 1
    if ks != set(range(-p, q + 1)):
        return None  # broken string
    return p - q


def reflection_closure(simple) -> list[tuple]:
    """The roots generated from ``simple`` by Euclidean reflections
    s_a(b) = b - 2(a, b)/(a, a) a, as Fraction tuples."""
    def ip(a, b):
        return sum(x * y for x, y in zip(a, b))

    simple = [tuple(Q(x) for x in a) for a in simple]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        b = frontier.pop()
        for a in simple:
            c = 2 * ip(a, b) / ip(a, a)
            image = tuple(y - c * x for x, y in zip(a, b))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Classical Lie algebras with two root lengths: so(2r+1), sp(2r) and so(2r)
# with their Cartan gradings, and sl_n graded by an involution
# ---------------------------------------------------------------------------


def antidiagonal_form(n: int, alternating: bool) -> list[list[int]]:
    """The antidiagonal J with J[i][n-1-i] = 1, or -1 on the lower half
    of the rows when ``alternating`` (n even)."""
    return [
        [(-1 if alternating and i >= n // 2 else 1) if j == n - 1 - i else 0 for j in range(n)]
        for i in range(n)
    ]


def classical_cartan_grading(kind: str, r: int) -> Grading:
    """so(2r+1) ("B"), sp(2r) ("C") or so(2r) ("D") as the X with
    X^T J + J X = 0 for the antidiagonal J, graded over Z^r by the weights
    of the diagonal torus diag(t_1, ..., t_r, [0,] -t_r, ..., -t_1).  The
    component of each weight is the kernel of those equations on the
    matrix units of that weight."""
    n = 2 * r + (kind == "B")
    jf = antidiagonal_form(n, alternating=kind == "C")

    def eps(i: int) -> list[int]:
        w = [0] * r
        if i < r:
            w[i] = 1
        elif i >= n - r:
            w[n - 1 - i] = -1
        return w

    classes: dict[tuple, list[tuple[int, int]]] = {}
    for i, j in product(range(n), repeat=2):
        classes.setdefault(tuple(x - y for x, y in zip(eps(i), eps(j))), []).append((i, j))
    group = FgAbGroup(r, ())
    mats, degrees = [], []
    for w, units in sorted(classes.items()):
        index = {u: k for k, u in enumerate(units)}
        rows = []
        for a, b in product(range(n), repeat=2):
            # (X^T J + J X)[a][b] = X[n-1-b][a] J[n-1-b][b] + J[a][n-1-a] X[n-1-a][b]
            row: dict[int, Q] = {}
            for unit, c in (((n - 1 - b, a), jf[n - 1 - b][b]), ((n - 1 - a, b), jf[a][n - 1 - a])):
                if unit in index:
                    row[index[unit]] = row.get(index[unit], Q(0)) + c
            rows.append({k: c for k, c in row.items() if c})
        for v in sparse_nullspace(len(units), rows).sparse_vectors():
            x: list[dict[int, Q]] = [{} for _ in range(n)]
            for k, c in v.items():
                x[units[k][0]][units[k][1]] = c
            mats.append(x)
            degrees.append(group.element(list(w)))
    alg = algebra_from_matrices(f"{'sp' if kind == 'C' else 'so'}{n}", mats)
    return Grading(alg, group, degrees)


def sl_involution_grading(n: int, alternating: bool) -> Grading:
    """sl_n with the Z2-grading by the involution X -> -J X^T J^-1 for the
    antidiagonal J: degree 0 its fixed points, degree 1 its -1 space."""
    jf = antidiagonal_form(n, alternating)
    trace = {i * n + i: Q(1) for i in range(n)}
    group = FgAbGroup(0, (2,))
    mats, degrees = [], []
    for deg, sign in ((0, -1), (1, 1)):
        # row (a, b) of theta(X) + sign X, with
        # theta(X)[a][b] = -J[a][n-1-a] J[b][n-1-b] X[n-1-b][n-1-a]
        rows = [trace]
        for a, b in product(range(n), repeat=2):
            row = {a * n + b: Q(sign)}
            k = (n - 1 - b) * n + n - 1 - a
            row[k] = row.get(k, Q(0)) - jf[a][n - 1 - a] * jf[b][n - 1 - b]
            rows.append({k: c for k, c in row.items() if c})
        for v in sparse_nullspace(n * n, rows).sparse_vectors():
            mats.append(flat_operator(v, n))
            degrees.append(group.element([deg]))
    return Grading(algebra_from_matrices(f"sl{n}", mats), group, degrees)


def twisted_group_grading(k: int, beta) -> Grading:
    """The twisted group algebra Q^beta[Z2^k], e_x e_y = (-1)^(x^T beta y)
    e_(x+y), graded by Z2^k with deg e_x = x (bit i of x is coordinate i)."""
    n = 2**k
    bits = [[(x >> i) & 1 for i in range(k)] for x in range(n)]
    tensor = {}
    for x, y in product(range(n), repeat=2):
        form = sum(bits[x][i] * beta[i][j] * bits[y][j] for i in range(k) for j in range(k))
        tensor[(x, y)] = {x ^ y: Q(-1 if form % 2 else 1)}
    group = FgAbGroup(0, [2] * k)
    alg = StructureAlgebra(f"tga{k}", n, [MultilinearOp("product", 2, tensor)], ["associative"])
    return Grading(alg, group, [group.element(b) for b in bits])


def heisenberg_grading() -> Grading:
    """The Heisenberg Lie algebra [x, y] = z graded by Z^2 with deg x = (1, 0),
    deg y = (0, 1), deg z = (1, 1).  Its derivations form a 6-dimensional
    algebra and only ad x and ad y are inner: the degrees (0, 0), (1, -1)
    and (-1, 1) hold outer derivations and no inner one."""
    tensor = {(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}}
    alg = StructureAlgebra("heisenberg", 3, [MultilinearOp("bracket", 2, tensor)], ["lie"])
    z2 = FgAbGroup(2, ())
    return Grading(alg, z2, [z2.element([1, 0]), z2.element([0, 1]), z2.element([1, 1])])


# ---------------------------------------------------------------------------
# Finite abelian groups: element-set oracles for the HNF enumerations
# ---------------------------------------------------------------------------


def all_abelian_groups_up_to(order: int):
    """Every finite abelian group of order <= ``order``, once each."""

    def partitions(a):
        if a == 0:
            yield ()
            return
        for first in range(a, 0, -1):
            for rest in partitions(a - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    for n in range(1, order + 1):
        factors = {}
        m = n
        p = 2
        while m > 1:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
            p += 1
        combos = [()]
        for p, a in sorted(factors.items()):
            combos = [c + ((p, lam),) for c in combos for lam in partitions(a)]
        for combo in combos:
            depth = max((len(lam) for _, lam in combo), default=0)
            invs = []
            for i in range(depth):
                d = prod(p ** lam[i] for p, lam in combo if i < len(lam))
                invs.append(d)
            # invs is descending-divisible; store ascending
            yield FgAbGroup(0, list(reversed(invs)))


def element_order(x: GroupElement) -> int | None:
    """Order of a group element, None if infinite."""
    r = x.owner.free_rank
    if any(x.coords[:r]):
        return None
    n = 1
    for d, c in zip(x.owner.invariants, x.coords[r:]):
        n = lcm(n, d // gcd(c, d))
    return n


def closure_elements(h: Subgroup) -> list[GroupElement]:
    """Oracle for ``Subgroup.elements``: close the identity under adding
    the lattice columns, breadth first."""
    if not h.is_finite():
        raise ValueError("cannot list an infinite subgroup")
    gens = [h.owner.element(list(c)) for c in h.lattice.columns()]
    seen = {h.owner.identity()}
    frontier = [h.owner.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda e: e.coords)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _subgroups_of_p_component(
    identity: GroupElement, elems: list[GroupElement], p: int
) -> list[frozenset[GroupElement]]:
    """All subgroups (as element sets) of a finite abelian p-group given by
    its full element list.

    BFS by index-p extensions: adjoin only elements x with p*x already in
    the subgroup, so each step is a union of p cosets.  Every subgroup is
    reached this way through a maximal chain.
    """
    owner = identity.owner
    mods = (0,) * owner.free_rank + tuple(owner.invariants)

    def addc(a, b):
        return tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, mods))

    points = [x.coords for x in elems]
    trivial = frozenset([identity.coords])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for x in points:
                if x in sub:
                    continue
                px = x
                for _ in range(p - 1):
                    px = addc(px, x)
                if px not in sub:
                    continue
                new = set(sub)
                coset = sub
                for _ in range(p - 1):
                    coset = [addc(y, x) for y in coset]
                    new.update(coset)
                fs = frozenset(new)
                if fs not in found:
                    found.add(fs)
                    nxt.append(fs)
        frontier = nxt
    return [frozenset(GroupElement(owner, c) for c in fs) for fs in found]


def element_set_subgroups(h: Subgroup) -> list[Subgroup]:
    """Oracle for ``abgroup.enumerate_subgroups``: the subgroups of each
    p-primary component as element sets, multiplied out, turned back into
    lattices and de-duplicated."""
    owner = h.owner
    elems = closure_elements(h)
    per_prime = []
    for p in _prime_factors(h.order()):
        comp = [x for x in elems if _is_p_power(element_order(x), p)]
        per_prime.append(_subgroups_of_p_component(owner.identity(), comp, p))
    out = []
    seen = set()
    for combo in product(*per_prime):
        sub = Subgroup.from_generators(owner, [x for part in combo for x in part])
        if sub.lattice not in seen:
            seen.add(sub.lattice)
            out.append(sub)
    out.sort(key=Subgroup.sort_key)
    return out


def filtered_homs(g: FgAbGroup, h: FgAbGroup) -> list[GroupHom]:
    """Oracle for ``abgroup.enumerate_homs``: list H, keep for each
    generator of order d the elements whose order divides d."""
    elems = h.elements()
    orders = (0,) * g.free_rank + g.invariants
    choices = [[x for x in elems if d % element_order(x) == 0] if d else elems for d in orders]
    return [GroupHom.from_gen_images(g, h, list(images)) for images in product(*choices)]


# ---------------------------------------------------------------------------
# Integer normal forms and solves: the former implementations, as oracles
# ---------------------------------------------------------------------------


def chain_repaired_smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Oracle for ``exactla.smith_normal_form``: (S, U, V) with U M V = S
    from the same main loop followed by a pass that enforces the
    divisibility chain d_i | d_{i+1} on the diagonal."""
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
        q, r = divmod(x, p)
        if 2 * r > p:
            q += 1
        return q

    t = 0
    n = min(rows, cols)
    while t < n:
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
                # fold d_{i+1} into row i and re-reduce the 2x2 block
                add_col(i + 1, i, 1)
                while a[i + 1][i] != 0:
                    q = a[i + 1][i] // a[i][i] if a[i][i] else 0
                    if a[i][i] != 0:
                        add_row(i, i + 1, -q)
                    if a[i + 1][i] != 0:
                        swap_rows(i, i + 1)
                q = a[i][i + 1] // a[i][i]
                add_col(i, i + 1, -q)
                if a[i][i + 1]:
                    raise AxiomFailure("Smith normal form: fill-in left in row")
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return IntMatrix(a), IntMatrix(u), IntMatrix(v)


def rational_section(u: IntMatrix, rows) -> IntMatrix:
    """Oracle for ``Presentation.section_matrix``: the columns ``rows`` of
    the inverse of the unimodular U by the dense rational ``inverse``,
    checked to be integral."""
    uinv = inverse(RatMatrix(u.data))
    cols = []
    for i in rows:
        col = uinv.column(i)
        if any(x.denominator != 1 for x in col):
            raise AxiomFailure("inverse of a unimodular matrix is not integral")
        cols.append([x.numerator for x in col])
    return IntMatrix.from_columns(cols, rows=u.rows)


def single_integer_solve(m: IntMatrix, v) -> list[int] | None:
    """Oracle for ``exactla.integer_solve``: one integer solution x of
    M x = v from a Smith form of M of its own, or None if none exists."""
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


def dense_root_coords(rep) -> dict:
    """Oracle for ``RootSystemReport.root_coords``: when the report has a
    type label, the coordinates of every root in the simple roots by one
    dense ``solve``; {} otherwise or when some root is outside their span."""
    if rep.type_label is None:
        return {}
    dim = len(rep.phi[0])
    sol = solve(
        RatMatrix.from_columns(list(rep.simple_roots), rows=dim),
        RatMatrix.from_columns(list(rep.phi), rows=dim),
    )
    return {} if sol is None else {a: sol.column(k) for k, a in enumerate(rep.phi)}

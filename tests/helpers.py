"""Shared constructions for the test suite."""

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import islice, product

from gradalg.abgroup import FgAbGroup
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    algebra_from_matrices,
    centroid_dimension,
    killing_form,
)
from gradalg.errors import (
    FlagViolation,
    NonSplitError,
    NotDiagonalizableError,
    ShapeError,
)
from gradalg.exactla import (
    RatMatrix,
    column_echelon,
    combine_rows,
    inverse,
    nullspace,
    rational_roots,
    solve,
)
from gradalg.grading import GradedDerivations, Grading


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


def dense_column_echelon(m: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.column_echelon``: the nonzero rows of the dense
    rref of the transpose, as columns."""
    r, pivots = dense_rref(m.transpose())
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
    return dense_column_echelon(RatMatrix.from_columns(cols, rows=a.cols)) if cols else RatMatrix.zeros(a.cols, 0)


def dense_subspace_intersection(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.subspace_intersection``: A x over a dense
    kernel basis (x, y) of [A | -B]."""
    if a.cols == 0 or b.cols == 0:
        return RatMatrix.zeros(a.rows, 0)
    ker = dense_nullspace(a.hstack(b.scale(-1)))
    cols = [a.matvec(ker.column(j)[: a.cols]) for j in range(ker.cols)]
    return dense_column_echelon(RatMatrix.from_columns(cols, rows=a.rows)) if cols else RatMatrix.zeros(a.rows, 0)


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
        return RatMatrix.zeros(nunknowns, 0)
    return dense_column_echelon(RatMatrix([[line.get(j, Q(0)) for j in range(width)] for line in n_rows]))


def dense_ad(a: StructureAlgebra, x) -> RatMatrix:
    """Oracle for ``StructureAlgebra.ad_matrix``: column j is bracket(x, e_j)."""
    n = a.dimension
    return RatMatrix.from_columns([a.bracket(x, a.basis_vector(j)) for j in range(n)], rows=n)


def dense_killing_form(a: StructureAlgebra) -> tuple[RatMatrix, bool]:
    """Oracle for ``killing_form``: trace(ad e_i ad e_j) from n^2 products
    of dense ad matrices, and nondegeneracy from a dense rref."""
    n = a.dimension
    ads = [dense_ad(a, a.basis_vector(i)) for i in range(n)]
    gram = RatMatrix([[(ads[i] * ads[j]).trace() for j in range(n)] for i in range(n)])
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
    flat = [p.flatten() for p in powers]
    for d in range(1, n + 2):
        a = RatMatrix.from_columns(flat[:d], rows=n * n)
        x = solve(a, RatMatrix.column_vector(flat[d]))
        if x is not None:
            return tuple(-c for c in x.column(0)) + (Q(1),)
    raise ValueError("no minimal polynomial of degree <= n")


def poly_eval_matrix(poly, m: RatMatrix) -> RatMatrix:
    acc = RatMatrix.zeros(m.rows, m.cols)
    for c in reversed(list(poly)):
        acc = acc * m if not acc.is_zero() else acc
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
        if val.is_zero():
            return s
        s = s - inverse(poly_eval_matrix(dp, s)) * val
    if not poly_eval_matrix(pred, s).is_zero():
        raise ValueError("Newton iteration failed to converge")
    return s


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
        ker = nullspace(restricted - RatMatrix.identity(restricted.rows).scale(lam))
        if ker.cols:
            pieces.append((lam, column_echelon(basis * ker)))
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


def build_sl(n: int) -> StructureAlgebra:
    return algebra_from_matrices(f"sl{n}", sl_matrices(n), kind="lie")


def build_sl2_efh() -> StructureAlgebra:
    """sl2 in the basis (e, h, f)."""
    e = RatMatrix([[0, 1], [0, 0]])
    h = RatMatrix([[1, 0], [0, -1]])
    f = RatMatrix([[0, 0], [1, 0]])
    return algebra_from_matrices("sl2", [e, h, f], kind="lie")


def build_m2() -> StructureAlgebra:
    mats = [e_matrix(2, i, j) for i in range(2) for j in range(2)]
    return algebra_from_matrices("m2", mats, kind="associative")


def build_m2_splitpauli() -> StructureAlgebra:
    """M2(Q) in the basis (1, x, y, z) with x^2 = 1, z^2 = 1, y^2 = -1."""
    one = RatMatrix.identity(2)
    x = RatMatrix([[0, 1], [1, 0]])
    y = RatMatrix([[0, 1], [-1, 0]])
    z = RatMatrix([[1, 0], [0, -1]])
    return algebra_from_matrices("m2-pauli", [one, x, y, z], kind="associative")


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
    return algebra_from_matrices("sl2+sl2", mats, kind="lie")


def build_sl2_plus_sl3() -> StructureAlgebra:
    """sl2 + sl3 as block-diagonal 5 x 5 matrices."""

    def block(m: RatMatrix, pos: int) -> RatMatrix:
        out = [[Q(0)] * 5 for _ in range(5)]
        for i in range(m.rows):
            for j in range(m.cols):
                out[pos + i][pos + j] = m[i, j]
        return RatMatrix(out)

    mats = [block(m, 0) for m in sl_matrices(2)] + [block(m, 2) for m in sl_matrices(3)]
    return algebra_from_matrices("sl2+sl3", mats, kind="lie")


def _ideal_closure(a: StructureAlgebra, seed) -> Subspace:
    """Smallest ideal containing the seed vector."""
    n = a.dimension
    span = Subspace.from_vectors(n, [list(seed)])
    frontier = [tuple(seed)]
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                w = a.bracket(a.basis_vector(i), v)
                if any(w) and not span.contains(w):
                    span = Subspace(n, span.basis.hstack(RatMatrix.column_vector(list(w))))
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
    from dense length-n tuples, one ``apply`` per term of each triple."""
    op = self.binary_op()
    n = self.dimension
    for i in range(n):
        for j in range(i, n):
            ij = op.basis_value((i, j), n)
            ji = op.basis_value((j, i), n)
            if any(a + b for a, b in zip(ij, ji)):
                raise FlagViolation(
                    f"bracket is not antisymmetric on basis pair ({i}, {j})",
                    witness=(i, j),
                )
    basis = [self.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            xy = op.basis_value((i, j), n)
            for k in range(j + 1, n):
                yz = op.basis_value((j, k), n)
                zx = op.basis_value((k, i), n)
                total = [
                    a + b + c
                    for a, b, c in zip(
                        op.apply([xy, basis[k]], n),
                        op.apply([yz, basis[i]], n),
                        op.apply([zx, basis[j]], n),
                    )
                ]
                if any(total):
                    raise FlagViolation(
                        f"Jacobi identity fails on basis triple ({i}, {j}, {k})",
                        witness=(i, j, k),
                    )


def dense_verify_associative(self: StructureAlgebra) -> None:
    """Oracle for ``StructureAlgebra._verify_associative``: both sides of
    each triple as dense length-n tuples from two ``apply`` calls."""
    op = self.binary_op()
    n = self.dimension
    basis = [self.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = op.basis_value((i, j), n)
            for k in range(n):
                jk = op.basis_value((j, k), n)
                lhs = op.apply([ij, basis[k]], n)
                rhs = op.apply([basis[i], jk], n)
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
    aug, pivots = dense_rref(a.hstack(b))
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
    res = rational_solve(basis, RatMatrix.column_vector(list(vec)))
    if res.particular is None:
        return None
    if res.nullspace.cols:
        raise ShapeError("basis columns are dependent")
    return res.particular.column(0)


def pairwise_matrix_tensor(matrices, kind: str):
    """Oracle for ``algebra_from_matrices``: one rational solve per ordered
    pair.  Returns (tensor, None), or (None, (i, j)) for the first pair
    whose product leaves the span."""
    flat = RatMatrix([m.flatten() for m in matrices]).transpose()
    tensor = {}
    for i, j in product(range(len(matrices)), repeat=2):
        prod_m = matrices[i] * matrices[j]
        if kind == "lie":
            prod_m = prod_m - matrices[j] * matrices[i]
        coords = subspace_coords(flat, prod_m.flatten())
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
    basis = [alg.basis_vector(i) for i in range(n)]
    for op in alg.operations:
        for key in product(range(n), repeat=op.arity):
            val = op.basis_value(key, n)
            lhs = d.matvec(val)
            rhs = [Q(0)] * n
            for t in range(op.arity):
                args = [basis[i] for i in key]
                args[t] = d.matvec(args[t])
                term = op.apply(args, n)
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
            val = op.basis_value(key, n)
            rhs_terms = []
            for t, it in enumerate(key):
                for b in range(n):
                    key2 = key[:t] + (b,) + key[t + 1 :]
                    if op.tensor.get(key2):
                        rhs_terms.append((b, it, op.basis_value(key2, n)))
            for j in range(n):
                row = [Q(0)] * (n * n)
                for aidx, c in enumerate(val):
                    row[j * n + aidx] += c
                for b, it, vec in rhs_terms:
                    row[b * n + it] -= vec[j]
                if any(row):
                    yield row


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
                by_degree[g] = Subspace.from_vectors(n * n, [])
            continue
        system = [sub for sub in ([row[i] for i in idx] for row in rows) if any(sub)]
        kernel = dense_nullspace(RatMatrix(system)) if system else RatMatrix.identity(len(idx))
        vectors = []
        for col in kernel.columns():
            v = [Q(0)] * (n * n)
            for i, x in zip(idx, col):
                v[i] = x
            vectors.append(v)
        space = Subspace.from_vectors(n * n, vectors)
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

"""Shared constructions for the test suite."""

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import reduce
from itertools import chain, islice, permutations, product
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Mapping, Sequence

import sympy

from gradalg.abgroup import FgAbGroup, GroupElement, GroupHom, Subgroup
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    _leibniz_keys,
    _leibniz_row,
    algebra_from_matrices,
    algebra_to_dict,
    centroid_dimension,
    inner_derivations,
    int_field,
    killing_form,
    rational_field,
    subalgebra_structure,
)
from gradalg.cli import grading_to_dict
from gradalg.errors import (
    AxiomFailure,
    FlagViolation,
    GradAlgError,
    NonSplitError,
    NotDiagonalizableError,
    ShapeError,
    VerificationFailure,
)
from gradalg.exactla import (
    IntMatrix,
    RatMatrix,
    Rational,
    _pivot_coords,
    combine_rows,
    coordinate_reader,
    flat_operator,
    flat_vector,
    gauss_jordan,
    inverse,
    poly_normalize,
    qdiv,
    rational_roots,
    solve,
    sparse_nullspace,
    sparse_product,
    sparse_rows,
    transpose,
)
from gradalg.grading import GradedDerivations, Grading, universal_abelian_group
from gradalg.lieroot import _proportional, _wadd, _wscale


#: the cross-product algebra, trivially graded: the compact form of sl2,
#: which has no split torus, so the Lie pipelines exit 2 on it
SU2_WORKSPACE = {
    "algebras": [
        {
            "name": "su2",
            "dimension": 3,
            "flags": {"lie": True},
            "operations": [
                {
                    "name": "bracket",
                    "arity": 2,
                    "entries": [
                        [0, 1, 2, "1"], [1, 0, 2, "-1"],
                        [1, 2, 0, "1"], [2, 1, 0, "-1"],
                        [2, 0, 1, "1"], [0, 2, 1, "-1"],
                    ],
                }
            ],
        }
    ],
    "gradings": [
        {
            "name": "trivial",
            "algebra": "su2",
            "group": {"free_rank": 0, "invariants": []},
            "degrees": [[] for _ in range(3)],
        }
    ],
}


#: catalog entry name -> named algebra automorphisms (original coordinates,
#: as the columns of a dense matrix) realizing equivalences of its grading
CATALOG_ALGEBRA_MAPS = {
    # e <-> f, h -> -h realizes the nontrivial Weyl element
    "cartan-sl2": {"weyl-flip": RatMatrix.from_columns([[0, 1, 0], [1, 0, 0], [0, 0, -1]])},
    # 1 -> 1, x -> z, y -> -y, z -> x (conjugation by the Hadamard matrix)
    "pauli-m2": {"swap-xz": RatMatrix.from_columns([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]])},
}


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


def columns_of(m: RatMatrix) -> list[dict]:
    """The columns of a dense matrix as sparse vectors, the format of a
    ``Grading``'s ``basis_change``."""
    return [sparse(c) for c in m.columns()]


def eager_components(gr: Grading) -> dict:
    """Oracle for ``Grading.component``: every component spanned up front,
    in support order, by the homogeneous columns of its label."""
    return {
        s: Subspace.span(gr.dimension, [c for c, t in zip(gr.basis_change, gr.labels) if t == i])
        for i, s in enumerate(gr.support)
    }


def components(gr: Grading) -> dict:
    """Every component of a grading, in support order, each spanned once
    (``Grading.component``, memoized): the former ``Grading.components``."""
    return {s: gr.component(s) for s in gr.support}


def is_refinement_by_spans(fine: Grading, coarse: Grading) -> bool:
    """Oracle for ``Grading.is_refinement_of`` (a former body): both grade
    the same algebra, and every component of ``fine``, spanned, lies inside
    a spanned component of ``coarse``."""
    a, b = (
        (g.algebra.dimension, [(op.arity, op.tensor) for op in g.algebra.operations]) for g in (fine, coarse)
    )
    outer = eager_components(coarse).values()
    return a == b and all(any(oc.restrict(c) is not None for oc in outer) for c in eager_components(fine).values())


def coarse_labels_by_spans(fine: Grading, coarse: Grading) -> list[int] | None:
    """Oracle for ``Grading.coarse_labels``: None unless
    ``is_refinement_by_spans``, else for each component of ``fine`` the
    support label of the first component of ``coarse`` whose span holds its
    first basis column (the search ``root_graded_structure`` made for delta)."""
    if not is_refinement_by_spans(fine, coarse):
        return None
    firsts = [fine.basis_change[fine.labels.index(t)] for t in range(len(fine.support))]
    return [next(t for t, g in enumerate(coarse.support) if coarse.component(g).contains(c)) for c in firsts]


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


def zeros(rows: int, cols: int, cls=RatMatrix):
    """The rows x cols zero matrix of ``cls``."""
    return cls([[0] * cols for _ in range(rows)], cols)


def column(m, j: int) -> tuple:
    """Column j of a dense matrix."""
    return tuple(row[j] for row in m.data)


def rank(m: RatMatrix) -> int:
    """The rank of a dense matrix: the pivots of one elimination."""
    return len(gauss_jordan(sparse_rows(m.data), m.cols))


def diagonal(entries) -> RatMatrix:
    n = len(entries)
    return RatMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def column_vector(entries) -> RatMatrix:
    return RatMatrix([[x] for x in entries])


def matvec(m: RatMatrix, v) -> tuple:
    """The dense product M v."""
    return tuple(sum((a * Q(b) for a, b in zip(row, v)), Q(0)) for row in m.data)


def mat_add(*ms: RatMatrix) -> RatMatrix:
    """The entrywise sum of dense matrices of one shape."""
    if len({m.shape for m in ms}) != 1:
        raise ShapeError("shape mismatch in addition")
    return RatMatrix([list(map(sum, zip(*rows))) for rows in zip(*(m.data for m in ms))], ms[0].cols)


def mat_scale(m: RatMatrix, c) -> RatMatrix:
    """The dense matrix c M."""
    return RatMatrix([[Q(c) * x for x in row] for row in m.data], m.cols)


def dense_power(m: RatMatrix, k: int) -> RatMatrix:
    """Oracle for ``exactla.sparse_power``: M^k from k dense products ``*``, M^0 = I."""
    return reduce(mul, [m] * k, RatMatrix.identity(m.rows))


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


def is_canonical(x) -> bool:
    """The program's scalar contract: an exact rational is an ``int`` when
    it is integral and a ``Fraction`` with denominator > 1 otherwise."""
    return type(x) is int or (type(x) is Q and x.denominator > 1)


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
        inv = 1 / Q(a[r][c])
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


def bordered_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Oracle for ``Subspace.intersect`` (its former body): A x over the
    x-parts of the kernel of [A | B], A and B the canonical bases, spanned."""
    columns = a.sparse_vectors()
    kernel = sparse_nullspace(a.dim + b.dim, transpose(columns + b.sparse_vectors(), a.dim_ambient))
    parts = ({s: x for s, x in v.items() if s < a.dim} for v in kernel.sparse_vectors())
    return Subspace.span(a.dim_ambient, (combine_rows(x, columns) for x in parts))


def eliminated_annihilator(space: Subspace) -> list[dict]:
    """Oracle for ``Subspace.annihilator`` (its former body): the kernel of
    the canonical basis read as rows."""
    return sparse_nullspace(space.dim_ambient, space.sparse_vectors()).sparse_vectors()


def two_elimination_normalizer(alg: StructureAlgebra, sub: Subspace) -> Subspace:
    """Oracle for the normalizer as one ``Subspace.preimage`` of ``sub`` under
    the adjoints of its basis: the y with q([v, y]) = 0 for v in sub and q in
    an eliminated annihilator of sub."""
    ann = eliminated_annihilator(sub)
    return sparse_nullspace(alg.dimension, (combine_rows(q, alg.ad_rows(v)) for v in sub.sparse_vectors() for q in ann))


def is_closed_subspace(alg: StructureAlgebra, sub: Subspace) -> bool:
    """[x, y] in sub for every pair of basis vectors of sub."""
    vs = sub.sparse_vectors()
    return all(sub.contains(alg.bracket(x, y)) for x in vs for y in vs)


def dim_step_nilpotent(alg: StructureAlgebra, sub: Subspace) -> bool:
    """Oracle for ``afine._is_nilpotent_subalgebra`` on a closed subspace:
    dim sub terms of the lower central series, with no early stop; the
    series of a nilpotent sub falls by at least one dimension a term."""
    vs, current = sub.sparse_vectors(), sub
    for _ in range(sub.dim):
        current = Subspace.span(alg.dimension, (alg.bracket(x, y) for x in vs for y in current.sparse_vectors()))
    return current.dim == 0


def three_part_is_cartan(alg: StructureAlgebra, sub: Subspace) -> bool:
    """Oracle for the Cartan test that every candidate of the search once
    passed: closed under the bracket, nilpotent, and its own normalizer."""
    return is_closed_subspace(alg, sub) and dim_step_nilpotent(alg, sub) and two_elimination_normalizer(alg, sub) == sub


def rebased_is_cartan_in(alg: StructureAlgebra, l_e: Subspace, h: Subspace) -> bool:
    """Oracle for ``lieroot._is_cartan_in`` (its former body): h in L_e, and
    a nonzero Cartan subalgebra of L_e rebased on its canonical basis."""
    if h.dim == 0 or (h_small := l_e.restrict(h)) is None:
        return False
    return three_part_is_cartan(subalgebra_structure(alg, l_e.sparse_vectors(), flags=["lie"]), h_small)


def ad_row_centralizer(alg: StructureAlgebra, s: Subspace) -> Subspace:
    """Oracle for ``algcore.centralizer`` (its former body): the kernel of
    the stacked rows of ad v over v in S."""
    return sparse_nullspace(alg.dimension, (row for v in s.sparse_vectors() for row in alg.ad_rows(v)))


def dense_subspace_intersection(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Oracle for ``exactla.Subspace.intersect`` on column spaces: A x over
    a dense kernel basis (x, y) of [A | -B]."""
    if a.cols == 0 or b.cols == 0:
        return zeros(a.rows, 0)
    ker = dense_nullspace(hstack(a, mat_scale(b, -1)))
    cols = [matvec(a, column(ker, j)[: a.cols]) for j in range(ker.cols)]
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
    """Oracle for ``StructureAlgebra.ad_rows`` at a dense
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


def dense_trace_form(a: StructureAlgebra) -> tuple[RatMatrix, bool]:
    """Oracle for ``trace_form``: trace(L_(e_i e_j)) from the dense left
    multiplication (``dense_ad``) by each product e_i e_j, and
    nondegeneracy from a dense rref."""
    n = a.dimension
    op = a.binary_op()
    products = [[dense_apply(op, [unit(i, n), unit(j, n)], n) for j in range(n)] for i in range(n)]
    gram = RatMatrix([[trace(dense_ad(a, p)) for p in row] for row in products])
    return gram, len(dense_rref(gram)[1]) == n


def block_sum(*blocks) -> list[RatMatrix]:
    """The matrices of each list in ``blocks`` placed on their own diagonal
    block, one list after another: a basis of the direct sum of their spans."""
    total = sum(block[0].rows for block in blocks)
    out, at = [], 0
    for block in blocks:
        size = block[0].rows
        for m in block:
            rows = [[0] * total for _ in range(total)]
            for r, c in product(range(size), repeat=2):
                rows[at + r][at + c] = m[r, c]
            out.append(RatMatrix(rows))
        at += size
    return out


def random_lie_algebra(rng: random.Random) -> StructureAlgebra:
    """The direct sum of sl2 or so3 and a second small Lie algebra drawn
    from those, gl2, the affine line, the Heisenberg algebra, the upper
    triangular 3 x 3 matrices and an abelian one, rewritten in a random
    triangular basis with rational entries: semisimple and degenerate
    sums, with dense and fractional structure constants."""
    pieces = {
        "sl2": sl_matrices(2),
        # the skew-symmetric 3 x 3 matrices: semisimple, not split over Q
        "so3": [mat_add(e_matrix(3, i, j), e_matrix(3, j, i, -1)) for i, j in ((0, 1), (0, 2), (1, 2))],
        "gl2": [e_matrix(2, i, j) for i in range(2) for j in range(2)],
        "aff1": [e_matrix(2, 0, 0), e_matrix(2, 0, 1)],
        "heis": [e_matrix(3, 0, 1), e_matrix(3, 1, 2), e_matrix(3, 0, 2)],
        "b3": [e_matrix(3, i, j) for i in range(3) for j in range(i, 3)],
        "ab2": [e_matrix(2, 0, 0), e_matrix(2, 1, 1)],
    }
    names = [rng.choice(["sl2", "so3"]), rng.choice(sorted(pieces))]
    alg = from_matrices("+".join(names), block_sum(*(pieces[k] for k in names)))
    n = alg.dimension
    columns = []
    for i in range(n):
        col = {i: Q(rng.choice([1, 2, 3]), rng.choice([1, 2]))}
        for j in range(i + 1, n):
            if rng.random() < 0.4 and (x := Q(rng.randint(-2, 2), rng.choice([1, 3]))):
                col[j] = x
        columns.append(col)
    return subalgebra_structure(alg, columns)


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
            return tuple(-c for c in column(x, 0)) + (Q(1),)
    raise ValueError("no minimal polynomial of degree <= n")


def poly_eval_matrix(poly, m: RatMatrix) -> RatMatrix:
    acc = zeros(m.rows, m.cols)
    for c in reversed(list(poly)):
        acc = acc * m if not is_zero(acc) else acc
        if c:
            acc = mat_add(acc, mat_scale(RatMatrix.identity(m.rows), c))
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
        s = mat_add(s, mat_scale(inverse(poly_eval_matrix(dp, s)) * val, -1))
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
        ker = dense_nullspace(mat_add(restricted, mat_scale(RatMatrix.identity(restricted.rows), -lam)))
        if ker.cols:
            pieces.append((lam, dense_column_echelon(basis * ker)))
            total += ker.cols
    if total != basis.cols:
        raise NotDiagonalizableError("eigenspaces do not fill the space")
    return pieces


def kernel_joint_eigenspaces(ops, basis: RatMatrix) -> list:
    """Oracle for ``exactla.simultaneous_eigenspaces`` on the column space
    of ``basis``: ``kernel_eigen_split`` of each dense op in turn on each
    piece so far, as (weight, canonical basis matrix) sorted by weight."""
    pieces = [((), basis)]
    for op in ops:
        pieces = [(w + (lam,), b) for w, piece in pieces for lam, b in kernel_eigen_split(piece, op)]
    return sorted(pieces, key=lambda t: t[0])


def e_matrix(n: int, i: int, j: int, c=1) -> RatMatrix:
    return RatMatrix([[c if (r, s) == (i, j) else 0 for s in range(n)] for r in range(n)])


def sl_matrices(n: int) -> list[RatMatrix]:
    """Basis of traceless n x n matrices: E_ij (i != j), then
    E_ii - E_{i+1,i+1}."""
    out = [e_matrix(n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        out.append(mat_add(e_matrix(n, i, i), e_matrix(n, i + 1, i + 1, -1)))
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
                    span = Subspace.span(n, span.sparse_vectors() + [w])
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
            val = dense_apply(op, [column(basis, i) for i in key], alg.dimension)
            vec = {j: c for j, c in enumerate(subspace_coords(basis, val)) if c}
            if vec:
                tensor[key] = vec
        tensors.append(tensor)
    return tensors


def per_tuple_rebase(a: StructureAlgebra, basis, flags) -> StructureAlgebra:
    """Oracle for ``algcore._rebased``, the re-basing that read every value
    on its own: each stored key and each tuple of integer-scaled columns
    nonzero at its indices add one term to op(s_t1 col_t1, ...) times
    ``op.denominator``, and each summed value is read in coordinates, at
    the pivots of a ``Subspace`` or by ``fraction_coordinate_reader`` on
    columns given as sorted item tuples (ValueError when they are dependent
    or a value leaves their span), then divided by those scales."""
    columns = basis.sparse_vectors() if isinstance(basis, Subspace) else [dict(col) for col in basis]
    coords = basis.coords if isinstance(basis, Subspace) else fraction_coordinate_reader(a.dimension, columns)
    scales = [lcm(*(x.denominator for x in col.values())) for col in columns]
    at: dict[int, list[tuple[int, int]]] = {}
    for t, (col, s) in enumerate(zip(columns, scales)):
        for i, x in col.items():
            at.setdefault(i, []).append((t, x.numerator * (s // x.denominator)))
    ops = []
    for op in a.operations:
        values: dict[tuple[int, ...], dict[int, int]] = {}
        for key, vec in op.int_tensor.items():
            for args in product(*(at.get(i, ()) for i in key)):
                x = prod(y for _, y in args)
                value = values.setdefault(tuple(t for t, _ in args), {})
                for j, c in vec.items():
                    value[j] = value.get(j, 0) + x * c
        tensor = {}
        for ts in sorted(values):
            vec = coords({j: c for j, c in values[ts].items() if c})
            if vec is None:
                raise ValueError("subspace is not closed under an operation")
            if vec:
                d = op.denominator * prod(scales[t] for t in ts)
                tensor[ts] = vec if d == 1 else {j: qdiv(x, d) for j, x in vec.items()}
        ops.append(MultilinearOp(op.name, op.arity, tensor))
    return StructureAlgebra(f"{a.name}-sub", len(columns), ops, flags)


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
    return column(res.particular, 0)


def fraction_coordinate_reader(size: int, vectors):
    """Oracle for ``exactla.coordinate_reader``: the reduced echelon form
    [R | E] of [M | I] over the rationals, E M = R; the coordinates of v
    are E^T y for its coordinates y in the rows of R, or None when v is
    outside their span (ValueError when the vectors are dependent)."""
    augmented = ({**row, size + k: Q(1)} for k, row in enumerate(vectors))
    reduced = gauss_jordan(augmented, size + len(vectors))
    if any(p >= size for p in reduced):
        raise ValueError("the basis vectors are linearly dependent")
    pivots = list(reduced)
    span_rows = [{c: x for c, x in row.items() if c < size} for row in reduced.values()]
    coord_rows = [{c - size: x for c, x in row.items() if c >= size} for row in reduced.values()]

    def coords(vec):
        at_pivots = _pivot_coords(vec, pivots, span_rows)
        return None if at_pivots is None else dict(sorted(combine_rows(at_pivots, coord_rows).items()))

    return coords


def pairwise_matrix_tensor(matrices, kind: str):
    """Oracle for ``algebra_from_matrices``: one rational solve per ordered
    pair.  Returns (tensor, None), or (None, (i, j)) for the first pair
    whose product leaves the span."""
    flat = mat_transpose(RatMatrix([flatten(m) for m in matrices]))
    tensor = {}
    for i, j in product(range(len(matrices)), repeat=2):
        prod_m = matrices[i] * matrices[j]
        if kind == "lie":
            prod_m = mat_add(prod_m, mat_scale(matrices[j] * matrices[i], -1))
        coords = subspace_coords(flat, flatten(prod_m))
        if coords is None:
            return None, (i, j)
        vec = {t: c for t, c in enumerate(coords) if c}
        if vec:
            tensor[(i, j)] = vec
    return tensor, None


def all_pairs_algebra_from_matrices(name: str, matrices, kind: str = "lie", extra_flags=()) -> StructureAlgebra:
    """Oracle for ``algebra_from_matrices``: the same sparse products and
    coordinate reads, over every ordered pair (i, j) of the operators,
    commutators included, in lexicographic order; VerificationFailure with
    the first pair whose product leaves the span."""
    if isinstance(matrices, Subspace):
        size = isqrt(matrices.dim_ambient)
        coords = coordinate_reader(size * size, matrices)
        matrices = [flat_operator(v, size) for v in matrices.sparse_vectors()]
    else:
        coords = coordinate_reader(len(matrices[0]) ** 2 if matrices else 0, [flat_vector(m) for m in matrices])
    n = len(matrices)
    tensor = {}
    for i, j in product(range(n), repeat=2):
        prod_m = flat_vector(sparse_product(matrices[i], matrices[j]))
        if kind == "lie":
            prod_m = combine_rows({0: 1, 1: -1}, [prod_m, flat_vector(sparse_product(matrices[j], matrices[i]))])
        vec = coords(prod_m)
        if vec is None:
            raise VerificationFailure(f"span is not closed under the {kind} product on ({i}, {j})", witness=(i, j))
        if vec:
            tensor[(i, j)] = vec
    flags = [kind] + list(extra_flags)
    return StructureAlgebra(name, n, [MultilinearOp("bracket" if kind == "lie" else "product", 2, tensor)], flags)


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


def _leibniz_rows(a: StructureAlgebra):
    """Nonzero sparse equation rows ``{r*n + c: coefficient}`` in the n^2
    unknowns D[r, c] forcing D to satisfy the Leibniz rule for every
    operation: the equations of ``algcore._leibniz_keys``, key by key and,
    for each key, output index by output index."""
    n = a.dimension
    for val, terms in _leibniz_keys(a):
        for j in range(n):
            if row := _leibniz_row(n, val, terms, j):
                yield row


def _stabilizer_rows(n: int, constraints: Sequence[Subspace]):
    """Nonzero sparse rows forcing D to preserve each constraint subspace."""
    for w in constraints:
        # D preserves W iff q(D w) = 0 for every w in W and q vanishing on W
        for q in w.annihilator():
            for wvec in w.sparse_vectors():
                yield {r * n + c: x * y for r, x in q.items() for c, y in wvec.items()}


@dataclass(frozen=True)
class DerivationAlgebra:
    """Derivations of an algebra (optionally preserving subspaces):
    a subspace of End(A) (n^2 coordinates, row-major) together with its
    own Lie algebra structure under the commutator."""

    space: Subspace
    algebra: StructureAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim


def derivation_space(a: StructureAlgebra, constraints: Sequence[Subspace] = ()) -> Subspace:
    """Oracle for ``grading.graded_derivations``: all derivations of ``a``
    (maps satisfying the k-ary Leibniz rule for every operation) that
    preserve each constraint subspace, as a subspace of End(A) in n^2
    coordinates (row-major), by one full elimination with no known vectors."""
    n = a.dimension
    rows = chain(_leibniz_rows(a), _stabilizer_rows(n, constraints))
    return sparse_nullspace(n * n, rows)


def derivation_algebra(a: StructureAlgebra, constraints: Sequence[Subspace] | None = None) -> DerivationAlgebra:
    """The derivation space of ``a`` (see ``derivation_space``) with its Lie
    structure under the commutator."""
    space = derivation_space(a, constraints or ())
    return DerivationAlgebra(space, algebra_from_matrices(f"Der({a.name})", space))


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
    return GradedDerivations(by_degree, by_degree[ident], tuple(sigma))


def table_derivation_system(grading: Grading, within: Subgroup | None = None):
    """Oracle for ``grading._degree_parts`` on the Leibniz path (not
    certified): the Leibniz system split by degree through integer tables,
    (candidates, unknowns, rows, inner).  ``candidates`` are the possible
    degrees in ``within`` (all of them when it is None), sorted: the
    differences of support elements and the identity.
    For candidate number d, ``unknowns[d]`` lists the flat unknowns r*n + c
    of that degree, increasing; ``rows[d]`` is a generator of its Leibniz
    rows and ``inner[d]`` its inner derivations, both re-indexed to the
    positions in ``unknowns[d]``.  Unknowns, equations and inner
    derivations of degrees outside ``within`` are not filed.

    Degrees are read from integer tables: the support label of each basis
    vector, the |S| x |S| table of the candidate number of s - t (None
    outside ``within``) and the n^2 table of each unknown's candidate
    number.  Only the inner derivations of the basis vectors whose degree
    is a candidate are built.  The equations are filed once, by
    ``_table_filed_equations``.  A row
    is built only when its degree's solve reads it, in the order of
    ``_leibniz_keys`` (key by key, then j), and is checked then: a row
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

    filed = _table_filed_equations(homog, label, diff, degree_of, len(candidates))

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


def _table_filed_equations(homog: StructureAlgebra, label, diff, degree_of, count: int) -> list[list[tuple]]:
    """One pass over the ``_leibniz_keys`` pairs of ``homog``, filing each
    equation (key, j) under its candidate number (``table_derivation_system``'s
    tables): that of D[j, a] for the first index a of op(key), or, when
    op(key) = 0, that of the first right-hand term that hits j.  Candidate
    number d gets [(val, terms, js), ...], the output indices js of each
    pair in increasing order."""
    n = homog.dimension
    members = [[i for i in range(n) if label[i] == s] for s in range(len(diff))]
    filed: list[list[tuple]] = [[] for _ in range(count)]
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
    return filed


def routed_leibniz_rows(grading: Grading) -> dict:
    """Oracle for the per-degree row streams of ``grading._degree_parts``
    on the Leibniz path (and of ``table_derivation_system``): every Leibniz
    row of ``_leibniz_rows`` generated first, then each sent to the degree
    of its first unknown, deg r - deg c for D[r, c] read by group
    arithmetic, and re-indexed to that degree's unknowns in increasing flat
    order.  Candidate degree -> its rows, in generation order; a row whose
    unknowns span two degrees raises AxiomFailure."""
    n = grading.dimension
    degrees = grading.degrees
    ident = grading.group.identity()
    candidates = sorted(
        {s - t for s in grading.support for t in grading.support} | {ident},
        key=lambda g: g.coords,
    )
    where, count = {}, {g: 0 for g in candidates}
    for r in range(n):
        for c in range(n):
            g = degrees[r] - degrees[c]
            where[r * n + c] = (g, count[g])
            count[g] += 1
    out = {g: [] for g in candidates}
    for row in _leibniz_rows(grading.homog_algebra):
        g = where[next(iter(row))][0]
        local = {}
        for idx, x in row.items():
            h, k = where[idx]
            if h != g:
                raise AxiomFailure(f"a Leibniz row mixes the derivation degrees {g.coords} and {h.coords}")
            local[k] = x
        out[g].append(local)
    return out


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


def random_component_basis(grading: Grading, rng: random.Random) -> Grading:
    """The grading in a random homogeneous basis: in each component, a random
    invertible matrix with entries in {-2, ..., 2} over {1, 2, 3}, composed
    with the grading's basis, then the basis vectors shuffled."""
    vectors = []
    for s in grading.support:
        old = [grading.basis_change[i] for i in grading.indices_of_degree(s)]
        k = len(old)
        m = None
        while m is None or rank(m) < k:
            m = RatMatrix([[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)])
        vectors += [(combine_rows(dict(enumerate(column(m, j))), old), s) for j in range(k)]
    rng.shuffle(vectors)
    return Grading(grading.algebra, grading.group, [d for _, d in vectors], [v for v, _ in vectors])


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
# Dynkin types by permutation matching: the former type reader, as an oracle
# ---------------------------------------------------------------------------


def reference_simple_roots(label: str, r: int) -> list[list]:
    """Euclidean simple roots of the connected type ``label``_r (A, B, C,
    D, and E6-E8, F4, G2), so Cartan numbers derived from the inner
    product cannot drift in orientation."""
    def e(i, n):
        v = [0] * n
        v[i] = 1
        return v

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    if label == "A":
        return [sub(e(i, r + 1), e(i + 1, r + 1)) for i in range(r)]
    if label == "B":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [e(r - 1, r)]
    if label == "C":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [[2 * x for x in e(r - 1, r)]]
    if label == "D":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [
            [x + y for x, y in zip(e(r - 2, r), e(r - 1, r))]
        ]
    if label == "G" and r == 2:
        return [[1, -1, 0], [-2, 1, 1]]
    if label == "F" and r == 4:
        return [sub(e(1, 4), e(2, 4)), sub(e(2, 4), e(3, 4)), e(3, 4), [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)]]
    if label == "E" and r in (6, 7, 8):
        a1 = [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)]
        roots = [a1, [1, 1] + [0] * 6]
        for i in range(1, 7):
            v = [0] * 8
            v[i], v[i - 1] = 1, -1
            roots.append(v)
        return roots[:r]
    raise ValueError(label)


def cartan_matrix_of_vectors(vs) -> tuple:
    """Entry (i, j) = 2(v_i, v_j)/(v_i, v_i) for the Euclidean inner product."""
    def ip(a, b):
        return sum(x * y for x, y in zip(a, b))

    return tuple(tuple(qdiv(2 * ip(vi, vj), ip(vi, vi)) for vj in vs) for vi in vs)


def permutation_cartan_type(cm: tuple) -> str | None:
    """Oracle for ``lieroot._dynkin_type`` on a connected reduced type: the
    first reference type whose Cartan matrix equals ``cm`` under some
    simultaneous permutation of rows and columns, tried over all r!
    orderings; None otherwise (and for every reducible matrix)."""
    r = len(cm)
    candidates = ["A"]
    if r >= 2:
        candidates += ["B", "C", "G"]
    if r >= 3:
        candidates += ["D", "F", "E"]
    for label in candidates:
        try:
            ref = cartan_matrix_of_vectors(reference_simple_roots(label, r))
        except ValueError:
            continue
        if sorted(sorted(row) for row in cm) != sorted(sorted(row) for row in ref):
            continue
        for perm in permutations(range(r)):
            if all(cm[perm[i]][perm[j]] == ref[i][j] for i in range(r) for j in range(r)):
                return f"{label}{r}"
    return None


def direct_sum_grading(a: Grading, b: Grading) -> Grading:
    """The direct sum of two gradings by free groups Z^p and Z^q: the
    homogeneous bases side by side, each operation's structure constants
    on its own block, graded by Z^(p+q) with a's degrees in the first p
    coordinates and b's in the last q."""
    if a.group.invariants or b.group.invariants:
        raise ValueError("direct sums are built for free grading groups only")
    p, q, n = a.group.free_rank, b.group.free_rank, a.algebra.dimension
    ops = []
    for x, y in zip(a.homog_algebra.operations, b.homog_algebra.operations, strict=True):
        tensor = dict(x.tensor)
        tensor.update(
            {tuple(n + i for i in key): {n + j: c for j, c in vec.items()} for key, vec in y.tensor.items()}
        )
        ops.append(MultilinearOp(x.name, x.arity, tensor))
    alg = StructureAlgebra(
        f"{a.algebra.name}+{b.algebra.name}", n + b.algebra.dimension, ops, a.algebra.flags & b.algebra.flags
    )
    group = FgAbGroup(p + q, ())
    degrees = [group.element(list(d.coords) + [0] * q) for d in a.degrees]
    degrees += [group.element([0] * p + list(d.coords)) for d in b.degrees]
    return Grading(alg, group, degrees)


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


def z_graded(alg: StructureAlgebra, degrees: list[int]) -> Grading:
    z = FgAbGroup(1, ())
    return Grading(alg, z, [z.element([d]) for d in degrees])


def uncertified_gradings() -> dict[str, Grading]:
    """Gradings of algebras that ``derivations_are_inner`` does not certify,
    by name: the inputs of the Leibniz path of ``graded_derivations``.
    Each is checked in as the workspace ``workspaces/<name>.json``, whose
    reports ``golden.py`` pins beside the catalog's."""
    units = [e_matrix(2, i, j) for i in range(2) for j in range(2)]
    return {
        # outer derivations in three degrees
        "heisenberg": heisenberg_grading(),
        # degenerate Killing form; the outer derivation maps the identity onto the center
        "gl2-z": z_graded(from_matrices("gl2", units), [0, -1, 1, 0]),
        # Q[e], e^2 = 0: commutative, so no inner derivation; e -> e is outer
        "dual-numbers": z_graded(from_matrices("dual", [RatMatrix.identity(2), units[1]], kind="associative"), [0, 1]),
        # upper triangular 2 x 2 matrices: degenerate trace form, every derivation inner
        "t2": z_graded(from_matrices("t2", [units[0], units[1], units[3]], kind="associative"), [0, 1, 0]),
        # a binary and a ternary operation, with derivations in the degrees -3, 0 and 3
        "ternary-48": random_graded_algebra(random.Random(48), ternary=True),
    }


def workspace_of(name: str, gr: Grading) -> dict:
    """The workspace document of one grading named ``name`` and its algebra."""
    return {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict(name, gr.algebra.name, gr)]}


# ---------------------------------------------------------------------------
# Per-entry oracles for a grading's relation table
# ---------------------------------------------------------------------------


def per_entry_incompatibility(homog: StructureAlgebra, degrees) -> tuple | None:
    """Oracle for the compatibility check of ``Grading``: entry by entry of
    the homogeneous structure tensors, the (message, witness) of the first
    entry (key, j) with deg j != the sum of the degrees of key, or None."""
    for op in homog.operations:
        for key, vec in op.tensor.items():
            total = degrees[key[0]]
            for i in key[1:]:
                total = total + degrees[i]
            for j in vec:
                if degrees[j] != total:
                    return (
                        f"operation {op.name} maps degrees "
                        f"{[degrees[i].coords for i in key]} into basis vector {j} "
                        f"of degree {degrees[j].coords} != {total.coords}",
                        (op.name, key, j),
                    )
    return None


def per_entry_relations(grading: Grading) -> IntMatrix:
    """Oracle for the relations that present U(Gamma): one row per nonzero
    entry (key, j), the support counts of key minus the support element of
    j; the distinct nonzero rows, sorted, as the columns of a matrix."""
    index = {s: i for i, s in enumerate(grading.support)}
    degrees = grading.degrees
    relations = set()
    for op in grading.homog_algebra.operations:
        for key, vec in op.tensor.items():
            for j in vec:
                row = [0] * len(index)
                for i in key:
                    row[index[degrees[i]]] += 1
                row[index[degrees[j]]] -= 1
                if any(row):
                    relations.add(tuple(row))
    return IntMatrix.from_columns(sorted(relations), rows=len(index))


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
    if not h.is_finite:
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
    return [from_gen_images(g, h, list(images)) for images in product(*choices)]


def from_gen_images(domain: FgAbGroup, codomain: FgAbGroup, images) -> GroupHom:
    """The hom sending the canonical generators of ``domain`` to the elements
    ``images`` (the former ``GroupHom.from_gen_images``)."""
    if len(images) != domain.ngens:
        raise ShapeError("one image per canonical generator required")
    return GroupHom(domain, codomain, IntMatrix.from_columns([g.coords for g in images], rows=codomain.ngens))


def hom_from_images(g: FgAbGroup, h: FgAbGroup, images) -> GroupHom:
    """The hom G -> H with the given image tuple (as ``enumerate_homs`` yields it)."""
    return GroupHom(g, h, IntMatrix.from_columns(images, rows=h.ngens))


def pointwise_admissible(alpha: GroupHom, uab) -> bool:
    """Oracle for ``afine.is_admissible``, its former body: s -> (alpha(s),
    class of s modulo torsion), evaluated through ``GroupHom.__call__``, is
    injective on the support."""
    r = uab.group.free_rank
    keys = {(alpha(uab.iota[s]).coords, uab.iota[s].coords[:r]) for s in uab.support_order}
    return len(keys) == len(uab.support_order)


@dataclass(frozen=True)
class OracleClassification:
    source: int
    alpha: GroupHom
    grading: Grading
    orbit: int
    orbit_size: int


def grouphom_classify_gradings(catalog, group: FgAbGroup) -> list[OracleClassification]:
    """Oracle for ``afine.classify_gradings``, its former body on
    ``GroupHom``s: every hom U -> G from the element-set listing
    (``filtered_homs``), admissibility through ``GroupHom.__call__``,
    orbits under ``compose`` matched by ``images()``, and each
    representative's grading built by ``Grading`` from pushed-forward
    degrees, whose component dimensions an entry reports."""
    out = []
    for idx, (grading, weyl) in enumerate(catalog):
        uab = universal_abelian_group(grading)
        ugr = uab.universal_grading(grading)
        admissible = [a for a in filtered_homs(uab.group, group) if pointwise_admissible(a, uab)]
        position = {a.images(): i for i, a in enumerate(admissible)}
        placed = [False] * len(admissible)
        orbits = []
        for i, a in enumerate(admissible):
            if placed[i]:
                continue
            placed[i] = True
            orbit, frontier = [a], [a]
            while frontier:
                cur = frontier.pop()
                for w in weyl:
                    j = position.get(compose(cur, w).images())
                    if j is not None and not placed[j]:
                        placed[j] = True
                        orbit.append(admissible[j])
                        frontier.append(admissible[j])
            orbits.append(orbit)
        for orbit_id, orbit in enumerate(orbits):
            rep = orbit[0]
            induced = Grading(ugr.algebra, group, [rep(d) for d in ugr.degrees], ugr.basis_change)
            out.append(OracleClassification(idx, rep, induced, orbit_id, len(orbit)))
    return out


def random_hom(rng: random.Random, g: FgAbGroup, h: FgAbGroup) -> GroupHom:
    """A random hom G -> H: a generator of order d (0 when free) goes to a
    random element of the d-torsion of H, with small free coordinates."""
    cols = []
    for d in (0,) * g.free_rank + g.invariants:
        free = [rng.randint(-2, 2) if d == 0 else 0 for _ in range(h.free_rank)]
        cols.append(free + [rng.randrange(0, e, e // gcd(d, e)) for e in h.invariants])
    return hom_from_images(g, h, cols)


def generatorwise_equal(a: GroupHom, b: GroupHom) -> bool:
    """Oracle for ``GroupHom.__eq__``, its former body: the same groups, and
    the same image, evaluated through ``__call__``, of each canonical generator."""
    return (
        a.domain == b.domain
        and a.codomain == b.codomain
        and all(a(a.domain.generator(i)) == b(b.domain.generator(i)) for i in range(a.domain.ngens))
    )


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
    return IntMatrix(a, cols), IntMatrix(u, rows), IntMatrix(v, cols)


def rational_section(u: IntMatrix, rows) -> IntMatrix:
    """Oracle for ``Presentation.section_matrix``: the columns ``rows`` of
    the inverse of the unimodular U by the dense rational ``inverse``,
    checked to be integral."""
    uinv = inverse(RatMatrix(u.data))
    cols = []
    for i in rows:
        col = column(uinv, i)
        if any(x.denominator != 1 for x in col):
            raise AxiomFailure("inverse of a unimodular matrix is not integral")
        cols.append([x.numerator for x in col])
    return IntMatrix.from_columns(cols, rows=u.rows)


def single_integer_solve(m: IntMatrix, v) -> list[int] | None:
    """One integer solution x of M x = v from a Smith form U M V = S of M
    of its own (the oracle's, which keeps V), or None if none exists."""
    v = [int(x) for x in v]
    if len(v) != m.rows:
        raise ShapeError("vector length mismatch")
    s, u, vm = chain_repaired_smith_normal_form(m)
    uv = u.matvec(v)
    d = [s[i, i] for i in range(min(m.rows, m.cols))]
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
    return list(vm.matvec(z))


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
    return {} if sol is None else {a: column(sol, k) for k, a in enumerate(rep.phi)}


# ---------------------------------------------------------------------------
# Source setup: the former implementations, as oracles
# ---------------------------------------------------------------------------


def entrywise_build_algebra(spec) -> StructureAlgebra:
    """Oracle for ``algcore.build_algebra``, its former body: every index of
    every entry through ``int_field`` and every structure constant through
    ``rational_field``, entry by entry, with no literal read once."""
    name = spec.get("name", "algebra")
    if not isinstance(name, str):
        raise ValueError(f"name {name!r} is not a string")
    dimension = int_field(spec["dimension"], "dimension")
    if dimension < 0:
        raise ValueError(f"dimension {dimension} is negative")
    operations = spec.get("operations", [])
    if not isinstance(operations, list):
        raise ValueError(f"operations {operations!r} is not a list")
    flags = spec.get("flags", {})
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise ValueError(f"flags {flags!r} is not an object of booleans")
    ops = []
    for opspec in operations:
        if not isinstance(opspec, dict):
            raise ValueError(f"operation {opspec!r} is not an object")
        arity = int_field(opspec["arity"], "arity")
        entries = opspec["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"entries {entries!r} is not a list")
        tensor = {}
        for entry in entries:
            if not isinstance(entry, list):
                raise ValueError(f"entry {entry!r} is not a list")
            if len(entry) != arity + 2:
                raise ShapeError(f"entry of length {len(entry)} in an arity-{arity} operation")
            key = tuple(int_field(x, "entry index") for x in entry[:arity])
            j = int_field(entry[arity], "entry index")
            c = rational_field(entry[arity + 1], "structure constant")
            row = tensor.setdefault(key, {})
            row[j] = row[j] + c if j in row else c
        ops.append(MultilinearOp(opspec.get("name", "op"), arity, tensor))
    return StructureAlgebra(name, dimension, ops, [k for k, v in flags.items() if v])


def _left_terms(t):
    """The nonzero terms (a, b, c, m, t[(a, b)][l] t[(l, c)][m]) of
    (e_a e_b) e_c over every stored key (a, b) of the binary tensor t."""
    by_first = {}
    for (l, c), vec in t.items():
        by_first.setdefault(l, []).append((c, vec))
    for (a, b), ab in t.items():
        for l, x in ab.items():
            for c, vec in by_first.get(l, ()):
                for m, y in vec.items():
                    yield a, b, c, m, x * y


def all_keys_verify_lie(self: StructureAlgebra) -> None:
    """Oracle for ``StructureAlgebra._verify_lie``, its former body:
    antisymmetry, then the Jacobi sums from the terms of every stored key,
    keeping those whose (a, b, c) is a cyclic order of its sorted triple."""
    t = self.binary_op().int_tensor
    pairs = [tuple(sorted(key)) for key, vec in t.items() if t.get(key[::-1]) != {l: -c for l, c in vec.items()}]
    if pairs:
        i, j = min(pairs)
        raise FlagViolation(f"bracket is not antisymmetric on basis pair ({i}, {j})", witness=(i, j))
    jacobi = {}
    for a, b, c, m, x in _left_terms(t):
        if a < b < c or b < c < a or c < a < b:
            key = (*sorted((a, b, c)), m)
            jacobi[key] = jacobi.get(key, 0) + x
    if triples := [key[:3] for key, x in jacobi.items() if x]:
        i, j, k = min(triples)
        raise FlagViolation(f"Jacobi identity fails on basis triple ({i}, {j}, {k})", witness=(i, j, k))


def opposite_tensor_verify_associative(self: StructureAlgebra) -> None:
    """Oracle for ``StructureAlgebra._verify_associative``, its former body:
    the left terms of the product minus those of the opposite product,
    built as the reversed tensor."""
    t = self.binary_op().int_tensor
    diff = {}
    for i, j, k, m, x in _left_terms(t):
        diff[i, j, k, m] = diff.get((i, j, k, m), 0) + x
    for k, j, i, m, x in _left_terms({key[::-1]: vec for key, vec in t.items()}):
        diff[i, j, k, m] = diff.get((i, j, k, m), 0) - x
    if triples := [key[:3] for key, x in diff.items() if x]:
        i, j, k = min(triples)
        raise FlagViolation(f"associativity fails on basis triple ({i}, {j}, {k})", witness=(i, j, k))


def generators(g: FgAbGroup) -> list[GroupElement]:
    """The canonical generators of ``g``."""
    return [g.generator(i) for i in range(g.ngens)]


def identity_hom(g: FgAbGroup) -> GroupHom:
    """The identity map of ``g``."""
    return GroupHom(g, g, IntMatrix.identity(g.ngens))


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """``outer`` after ``inner``."""
    if inner.codomain != outer.domain:
        raise ValueError("composition mismatch")
    return GroupHom(inner.domain, outer.codomain, outer.matrix * inner.matrix)


def image(hom: GroupHom) -> Subgroup:
    """The image of ``hom``, generated by the images of the canonical generators."""
    return Subgroup.from_generators(hom.codomain, [hom(x) for x in generators(hom.domain)])


def full_subgroup(g: FgAbGroup) -> Subgroup:
    """The whole group ``g`` as a subgroup of itself."""
    return Subgroup.from_generators(g, generators(g))


def is_injective(hom: GroupHom) -> bool:
    """The kernel of ``hom`` is trivial."""
    return hom.kernel().order() == 1


def image_is_whole_group(hom: GroupHom) -> bool:
    """Oracle for ``GroupHom.is_surjective``, its former body: the image
    subgroup, from the generators' images, equals the whole codomain."""
    return image(hom) == full_subgroup(hom.codomain)


def two_sided_isomorphism(hom: GroupHom) -> bool:
    """Oracle for ``GroupHom.is_isomorphism``, its former body: surjective
    and injective, both tested whatever the groups."""
    return image_is_whole_group(hom) and is_injective(hom)


def project(pres, vec) -> GroupElement:
    """The class in ``pres.group`` of the generator vector ``vec``: its
    projection, reduced (the former ``Presentation.project``)."""
    return pres.group.element(pres.projection_matrix.matvec(vec))


def elementwise_hom_from_support_images(pres, support, codomain: FgAbGroup, images) -> GroupHom:
    """Oracle for ``grading._hom_from_support_images``, its former body on
    ``GroupElement``s: each canonical generator goes to the images summed
    along its section vector, then every support element is checked
    through ``project`` and ``GroupHom.__call__``."""
    u = pres.group
    cols = []
    for i in range(u.ngens):
        img = codomain.identity()
        for s, c in zip(support, pres.section_matrix.matvec(u.generator(i).coords)):
            img = img + c * images[s]
        cols.append(img)
    hom = from_gen_images(u, codomain, cols)
    for idx, s in enumerate(support):
        e_s = [1 if t == idx else 0 for t in range(len(support))]
        if hom(project(pres, e_s)) != images[s]:
            raise ValueError("images do not respect the defining relations")
    return hom


def conjugated_weyl_on_uab(grading: Grading, weyl) -> list[GroupHom]:
    """Oracle for ``grading.weyl_on_uab``, its former body: each Weyl
    generator w becomes alpha^-1 o w o alpha, with alpha^-1 sending each
    canonical generator e of G to the first coordinates of an integer
    solution y of [alpha | relations of G] y = e."""
    alpha = universal_abelian_group(grading).alpha
    m = alpha.matrix.hstack(alpha.codomain.relation_lattice())
    images = []
    for e in IntMatrix.identity(alpha.codomain.ngens).columns():
        y = single_integer_solve(m, e)
        if y is None:
            raise ValueError("alpha is not surjective")
        images.append(alpha.domain.element(y[: alpha.domain.ngens]))
    inv = from_gen_images(alpha.codomain, alpha.domain, images)
    if compose(inv, alpha) != identity_hom(alpha.domain):
        raise ValueError("alpha is not injective")
    return [compose(compose(inv, w), alpha) for w in weyl]


# ---------------------------------------------------------------------------
# Verification of supplied graded maps
# ---------------------------------------------------------------------------


class NotAutomorphism(GradAlgError):
    """A supplied linear map is not an algebra automorphism."""


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

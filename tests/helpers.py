"""Shared constructions for the test suite."""

import random
from fractions import Fraction as Q
from itertools import product

from gradalg.algcore import MultilinearOp, StructureAlgebra, Subspace, algebra_from_matrices
from gradalg.exactla import RatMatrix, nullspace
from gradalg.grading import GradedDerivations, Grading


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
        kernel = nullspace(RatMatrix(system)) if system else RatMatrix.identity(len(idx))
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

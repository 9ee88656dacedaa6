"""Structure algebras: flags, derivations, Killing form, simplicity."""

from fractions import Fraction as Q
from itertools import product

import pytest
import sympy

from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    algebra_from_matrices,
    algebra_to_dict,
    build_algebra,
    centralizer,
    centroid_dimension,
    derivation_algebra,
    is_simple,
    killing_form,
    subalgebra_structure,
)
from gradalg.errors import FlagViolation, ShapeError, VerificationFailure
from gradalg.exactla import RatMatrix, mat_from_flat

from helpers import (
    build_m2,
    build_m2_splitpauli,
    build_sl,
    build_sl2_efh,
    build_sl2_plus_sl2,
    leibniz_holds,
)


def sympy_derivation_dim(alg) -> int:
    """Independent oracle: assemble the full Leibniz system symbolically."""
    n = alg.dimension
    d = sympy.Matrix(sympy.symbols(f"d:{n*n}")).reshape(n, n)
    basis = [sympy.Matrix([1 if k == i else 0 for k in range(n)]) for i in range(n)]
    eqs = []
    for op in alg.operations:
        for key in product(range(n), repeat=op.arity):
            val = sympy.Matrix([sympy.Rational(x) for x in op.basis_value(key, n)])
            lhs = d * val
            rhs = sympy.zeros(n, 1)
            for t in range(op.arity):
                args = [list(basis[i]) for i in key]
                args[t] = list(d * basis[key[t]])
                # evaluate the multilinear op on symbolic vectors
                out = [sympy.Integer(0)] * n
                for tk, vec in op.tensor.items():
                    coeff = sympy.Integer(1)
                    for slot, idx in enumerate(tk):
                        coeff *= args[slot][idx]
                    for j, c in vec.items():
                        out[j] += coeff * sympy.Rational(c)
                rhs += sympy.Matrix(out)
            eqs.extend(lhs - rhs)
    mat, _ = sympy.linear_eq_to_matrix(eqs, list(d))
    return len(mat.nullspace())


class TestBuildAlgebra:
    def test_sl2_lie_flag_verified(self):
        alg = build_sl2_efh()
        assert "lie" in alg.flags
        # [e, f] = h in the (e, h, f) basis
        assert alg.bracket(alg.basis_vector(0), alg.basis_vector(2)) == (0, 1, 0)

    def test_m2_associative_flag(self):
        alg = build_m2()
        assert "associative" in alg.flags

    def test_broken_jacobi_rejected(self):
        alg = build_sl2_efh()
        op = alg.binary_op()
        tensor = {k: dict(v) for k, v in op.tensor.items()}
        # flip one structure-constant sign: [h, e] = 2e becomes -2e
        tensor[(1, 0)] = {0: Q(-2)}
        with pytest.raises(FlagViolation) as exc:
            StructureAlgebra("broken", 3, [MultilinearOp("bracket", 2, tensor)], ["lie"])
        assert exc.value.witness is not None

    def test_broken_associativity_rejected(self):
        alg = build_m2()
        op = alg.binary_op()
        tensor = {k: dict(v) for k, v in op.tensor.items()}
        first = next(iter(tensor))
        j = next(iter(tensor[first]))
        tensor[first][j] += 1
        with pytest.raises(FlagViolation):
            StructureAlgebra("broken", 4, [MultilinearOp("product", 2, tensor)], ["associative"])

    def test_dict_round_trip(self):
        alg = build_sl2_efh()
        spec = algebra_to_dict(alg)
        alg2 = build_algebra(spec)
        assert alg2.dimension == 3
        assert alg2.binary_op().tensor == alg.binary_op().tensor
        assert alg2.flags == alg.flags

    def test_bad_index_rejected(self):
        with pytest.raises(ShapeError):
            build_algebra(
                {
                    "name": "bad",
                    "dimension": 2,
                    "operations": [{"name": "op", "arity": 2, "entries": [[0, 1, 5, "1/1"]]}],
                }
            )


class TestSubspace:
    def test_canonical_and_ops(self):
        a = Subspace.from_vectors(3, [[1, 1, 0], [2, 2, 0], [0, 0, 1]])
        b = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 3]])
        assert a == b
        assert a.dim == 2
        c = Subspace.from_vectors(3, [[0, 1, 0]])
        assert a.intersect(c).dim == 0
        assert a.add(c).dim == 3
        assert a.coords([2, 2, 5]) is not None
        assert a.coords([1, 0, 0]) is None


class TestDerivations:
    def test_sl2_all_inner(self):
        alg = build_sl2_efh()
        der = derivation_algebra(alg)
        assert der.dim == 3
        assert der.dim == sympy_derivation_dim(alg)
        for v in der.space.vectors():
            assert leibniz_holds(alg, mat_from_flat(v, 3, 3))
        # ad of every basis vector lies in the derivation space
        for i in range(3):
            assert der.space.contains(alg.ad_matrix(alg.basis_vector(i)).flatten())
        assert "lie" in der.algebra.flags

    def test_sl2_cartan_constraints(self):
        alg = build_sl2_efh()
        comps = [Subspace.from_vectors(3, [[1, 0, 0]]),
                 Subspace.from_vectors(3, [[0, 1, 0]]),
                 Subspace.from_vectors(3, [[0, 0, 1]])]
        der = derivation_algebra(alg, constraints=comps)
        assert der.dim == 1
        # the surviving derivation is a multiple of ad h
        adh = alg.ad_matrix(alg.basis_vector(1))
        assert der.space.contains(adh.flatten())

    def test_m2_pauli_constraints(self):
        alg = build_m2_splitpauli()
        comps = [Subspace.from_vectors(4, [[1 if i == j else 0 for i in range(4)]]) for j in range(4)]
        der = derivation_algebra(alg, constraints=comps)
        assert der.dim == 0

    def test_m2_derivations_inner(self):
        alg = build_m2()
        der = derivation_algebra(alg)
        assert der.dim == 3
        assert der.dim == sympy_derivation_dim(alg)

    def test_commutator_closure(self):
        alg = build_sl(3)
        der = derivation_algebra(alg)
        assert der.dim == 8
        mats = [mat_from_flat(v, 8, 8) for v in der.space.vectors()]
        for i in range(der.dim):
            for j in range(der.dim):
                comm = mats[i] * mats[j] - mats[j] * mats[i]
                assert der.space.contains(comm.flatten())


class TestCentralizer:
    def test_center_of_sl2(self):
        alg = build_sl2_efh()
        assert centralizer(alg, Subspace.full(3)).dim == 0

    def test_cartan_self_centralizing(self):
        alg = build_sl2_efh()
        h = Subspace.from_vectors(3, [[0, 1, 0]])
        assert centralizer(alg, h) == h

    def test_requires_lie(self):
        with pytest.raises(ValueError):
            centralizer(build_m2(), Subspace.full(4))


class TestKillingForm:
    def test_sl2(self):
        alg = build_sl2_efh()
        gram, nondeg = killing_form(alg)
        assert gram[1, 1] == 8  # K(h, h)
        assert nondeg
        # symmetry and invariance on all basis triples
        n = alg.dimension
        assert gram == gram.transpose()
        basis = [alg.basis_vector(i) for i in range(n)]

        def k(x, y):
            return (alg.ad_matrix(x) * alg.ad_matrix(y)).trace()

        for i in range(n):
            for j in range(n):
                for l in range(n):
                    assert k(alg.bracket(basis[i], basis[j]), basis[l]) == k(
                        basis[i], alg.bracket(basis[j], basis[l])
                    )

    def test_abelian_degenerate(self):
        alg = StructureAlgebra("ab2", 2, [MultilinearOp("bracket", 2, {})], ["lie"])
        gram, nondeg = killing_form(alg)
        assert gram.is_zero() and not nondeg

    def test_sl3_nondegenerate(self):
        _, nondeg = killing_form(build_sl(3))
        assert nondeg


class TestSimplicity:
    def test_sl2_simple(self):
        assert is_simple(build_sl2_efh())

    def test_sl2_plus_sl2_not_simple(self):
        alg = build_sl2_plus_sl2()
        assert not is_simple(alg)
        assert centroid_dimension(alg) == 2

    def test_requires_nondegenerate(self):
        alg = StructureAlgebra("ab2", 2, [MultilinearOp("bracket", 2, {})], ["lie"])
        with pytest.raises(ValueError):
            is_simple(alg)

    def test_mixed_basis_sum(self):
        # basis vectors straddle the two ideals: closure from any basis
        # vector is everything, yet the algebra is not simple
        def emb(m, pos):
            out = [[Q(0)] * 4 for _ in range(4)]
            for i in range(2):
                for j in range(2):
                    out[pos + i][pos + j] = m[i, j]
            return RatMatrix(out)

        e = RatMatrix([[0, 1], [0, 0]])
        h = RatMatrix([[1, 0], [0, -1]])
        f = RatMatrix([[0, 0], [1, 0]])
        a = [emb(m, 0) for m in (e, h, f)]
        b = [emb(m, 2) for m in (e, h, f)]
        mixed = [x + y for x, y in zip(a, b)] + [x - y for x, y in zip(a, b)]
        alg = algebra_from_matrices("mixed", mixed, kind="lie")
        assert not is_simple(alg)


class TestAlgebraFromMatrices:
    def test_span_not_closed(self):
        # e and f alone: [e, f] = h leaves their span
        e = RatMatrix([[0, 1], [0, 0]])
        f = RatMatrix([[0, 0], [1, 0]])
        with pytest.raises(VerificationFailure):
            algebra_from_matrices("e-f", [e, f], kind="lie")


class TestSubalgebraStructure:
    def test_cartan_of_sl3_is_abelian(self):
        alg = build_sl(3)
        # diagonal part: last two basis vectors in sl_matrices order
        h = Subspace.from_vectors(8, [[0] * 6 + [1, 0], [0] * 6 + [0, 1]])
        sub, incl = subalgebra_structure(alg, h, flags=["lie"])
        assert sub.dimension == 2
        assert not sub.binary_op().tensor  # abelian

    def test_not_closed_raises(self):
        alg = build_sl2_efh()
        s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])  # span(e, h)
        sub, _ = subalgebra_structure(alg, s, flags=["lie"])
        assert sub.dimension == 2
        t = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])  # span(e, f)
        with pytest.raises(ValueError):
            subalgebra_structure(alg, t, flags=["lie"])

"""Structure algebras: flags, derivations, Killing form, simplicity."""

import random
from fractions import Fraction as Q
from itertools import product

import pytest
import sympy

from gradalg import catalog
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
from gradalg.exactla import RatMatrix, mat_from_flat, rank

from helpers import (
    build_m2,
    build_m2_splitpauli,
    build_sl,
    build_sl2_efh,
    build_sl2_plus_sl2,
    build_sl2_plus_sl3,
    dense_ad,
    dense_apply,
    dense_killing_form,
    dense_rebase,
    dense_verify_associative,
    dense_verify_lie,
    e_matrix,
    is_simple_by_ideal_closures,
    leibniz_holds,
    pairwise_matrix_tensor,
    sl_matrices,
    subspace_coords,
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

    def test_coords_and_contains_against_solve_oracle(self):
        # coords and contains read the canonical basis; the oracle solves
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(rng.randint(0, n))]
            s = Subspace.from_vectors(n, gens)
            coeffs = [rng.randint(-2, 2) for _ in gens]
            inside = [sum((c * g[i] for c, g in zip(coeffs, gens)), Q(0)) for i in range(n)]
            outside = [rng.randint(-3, 3) for _ in range(n)]
            for vec in (inside, outside, [0] * n, s.vectors()[0] if s.dim else [1] * n):
                expected = subspace_coords(s.basis, vec)
                assert s.coords(vec) == expected
                assert s.contains(vec) == (expected is not None)
                if expected is not None:
                    assert all(type(x) is Q for x in s.coords(vec))
        zero, full = Subspace.from_vectors(3, []), Subspace.full(3)
        assert zero.coords([0, 0, 0]) == () and zero.coords([0, 1, 0]) is None
        assert full.coords([1, Q(1, 2), -3]) == (Q(1), Q(1, 2), Q(-3))
        with pytest.raises(ShapeError):
            full.coords([1, 2])
        with pytest.raises(ShapeError):
            zero.contains([0, 0])


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


def build_gl2() -> StructureAlgebra:
    return algebra_from_matrices("gl2", [e_matrix(2, i, j) for i in range(2) for j in range(2)])


def build_affine_line() -> StructureAlgebra:
    """The two-dimensional Lie algebra [e0, e1] = e1."""
    tensor = {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}}
    return StructureAlgebra("aff1", 2, [MultilinearOp("bracket", 2, tensor)], ["lie"])


LIE_CATALOG = [n for n in catalog.catalog_names() if "lie" in catalog.get_catalog(n).grading.algebra.flags]


class TestKillingFormAgainstDenseProducts:
    """killing_form from the structure constants against trace(ad e_i ad e_j)
    from dense ad matrices, with ad_matrix against brackets of basis vectors."""

    def check(self, alg):
        assert killing_form(alg) == dense_killing_form(alg)
        rng = random.Random(alg.dimension)
        for x in [alg.basis_vector(i) for i in range(alg.dimension)] + [
            [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dimension)]
        ]:
            assert alg.ad_matrix(x) == dense_ad(alg, x)

    @pytest.mark.parametrize("name", LIE_CATALOG)
    def test_catalog(self, name):
        self.check(catalog.get_catalog(name).grading.algebra)

    @pytest.mark.parametrize(
        "build", [build_sl2_plus_sl2, build_sl2_plus_sl3, build_gl2, build_affine_line]
    )
    def test_sums_and_non_semisimple(self, build):
        self.check(build())

    def test_non_semisimple_is_degenerate(self):
        for build in (build_gl2, build_affine_line):
            gram, nondeg = killing_form(build())
            assert not nondeg and not gram.is_zero()


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

    @pytest.mark.parametrize("name", LIE_CATALOG)
    def test_catalog_agrees_with_ideal_closures(self, name):
        alg = catalog.get_catalog(name).grading.algebra
        assert is_simple(alg) == is_simple_by_ideal_closures(alg)

    @pytest.mark.parametrize(
        "build, simple",
        [(build_sl2_efh, True), (build_sl2_plus_sl2, False), (build_sl2_plus_sl3, False)],
    )
    def test_agrees_with_ideal_closures(self, build, simple):
        alg = build()
        assert is_simple(alg) == is_simple_by_ideal_closures(alg) == simple

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


def _rational(rng):
    return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _argument(rng, dim, kind):
    if kind == "zero":
        return tuple(Q(0) for _ in range(dim))
    if kind == "dense":
        return tuple(_rational(rng) for _ in range(dim))
    support = rng.sample(range(dim), rng.randint(1, min(2, dim)))
    return tuple(_rational(rng) if i in support else Q(0) for i in range(dim))


class TestSparseApply:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_agrees_with_whole_tensor_loop(self, arity):
        rng = random.Random(arity)
        for _ in range(40):
            dim = rng.randint(1, 5)
            density = rng.choice((0.1, 0.5, 1.0))
            tensor = {
                key: {j: _rational(rng) for j in rng.sample(range(dim), rng.randint(1, dim))}
                for key in product(range(dim), repeat=arity)
                if rng.random() < density
            }
            op = MultilinearOp("op", arity, tensor)
            for kinds in [(k,) * arity for k in ("sparse", "dense", "zero")] + [
                tuple(rng.choice(("sparse", "dense", "zero")) for _ in range(arity))
            ]:
                args = [_argument(rng, dim, k) for k in kinds]
                assert op.apply(args, dim) == dense_apply(op, args, dim)


def _flag_failure(dim, tensor, flag):
    """(message, witness) of the FlagViolation the flag check raises, or
    None when the flag holds."""
    try:
        StructureAlgebra("broken", dim, [MultilinearOp("op", 2, tensor)], [flag])
    except FlagViolation as exc:
        return str(exc), exc.witness
    return None


def _corrupted(alg, rng, keep_antisymmetry):
    """A copy of alg's binary tensor with one structure constant changed
    (and, to keep antisymmetry, the one at the swapped key as well)."""
    tensor = {k: dict(v) for k, v in alg.binary_op().tensor.items()}
    key = rng.choice(sorted(tensor))
    j = rng.choice(sorted(tensor[key]))
    delta = _rational(rng)
    tensor[key][j] += delta
    if keep_antisymmetry and key[0] != key[1]:
        swapped = tensor.setdefault(key[::-1], {})
        swapped[j] = swapped.get(j, Q(0)) - delta
    return tensor


def build_m(d):
    mats = [e_matrix(d, i, j) for i in range(d) for j in range(d)]
    return algebra_from_matrices(f"m{d}", mats, kind="associative")


class TestFlagChecksAgainstWholeTensorLoop:
    """The flag checks, which contract the nonzero structure constants,
    report the same verdict, message and witness as the dense oracles."""

    @pytest.mark.parametrize(
        "build, flag, keep_antisymmetry",
        [
            (lambda: build_sl(3), "lie", False),
            (lambda: build_sl(3), "lie", True),
            (build_sl2_plus_sl2, "lie", True),
            (build_m2, "associative", False),
            (lambda: build_m(3), "associative", False),
        ],
    )
    def test_same_failure(self, monkeypatch, build, flag, keep_antisymmetry):
        alg = build()
        rng = random.Random(alg.dimension)
        corrupted = [_corrupted(alg, rng, keep_antisymmetry) for _ in range(6)]
        sparse = [_flag_failure(alg.dimension, t, flag) for t in corrupted]
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", dense_verify_lie)
        monkeypatch.setattr(StructureAlgebra, "_verify_associative", dense_verify_associative)
        assert sparse == [_flag_failure(alg.dimension, t, flag) for t in corrupted]
        # a changed constant can leave an isomorphic algebra; most do not
        failures = [f for f in sparse if f is not None]
        assert len(failures) >= 3
        if flag == "lie":
            kind = "Jacobi" if keep_antisymmetry else "antisymmetric"
            assert all(kind in message for message, _ in failures)


def _closed_spans(rng):
    """(name, matrices, kind): closed spans in random bases, each basis
    vector a random combination of a standard basis."""
    def mix(mats):
        m = len(mats)
        while True:
            t = RatMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
            if rank(t) == m:
                break
        return [
            sum((mats[k].scale(t[k, i]) for k in range(1, m)), mats[0].scale(t[0, i]))
            for i in range(m)
        ]

    for d in (2, 3):
        gl = [e_matrix(d, i, j) for i in range(d) for j in range(d)]
        upper = [e_matrix(d, i, j) for i in range(d) for j in range(i, d)]
        yield f"gl{d}", mix(gl), "lie"
        yield f"sl{d}", mix(sl_matrices(d)), "lie"
        yield f"b{d}", mix(upper), "lie"
        yield f"m{d}", mix(gl), "associative"
        yield f"t{d}", mix(upper), "associative"


class TestAlgebraFromMatrices:
    def test_span_not_closed(self):
        # e and f alone: [e, f] = h leaves their span
        e = RatMatrix([[0, 1], [0, 0]])
        f = RatMatrix([[0, 0], [1, 0]])
        with pytest.raises(VerificationFailure) as exc:
            algebra_from_matrices("e-f", [e, f], kind="lie")
        assert exc.value.witness == pairwise_matrix_tensor([e, f], "lie")[1] == (0, 1)

    def test_first_pair_outside_the_span_is_the_witness(self):
        # span(E_00, E_01, E_10): E_01 E_10 = E_00 stays inside, E_10 E_01 = E_11 does not
        mats = [e_matrix(2, 0, 0), e_matrix(2, 0, 1), e_matrix(2, 1, 0)]
        for kind in ("lie", "associative"):
            with pytest.raises(VerificationFailure) as exc:
                algebra_from_matrices("partial", mats, kind=kind)
            assert exc.value.witness == pairwise_matrix_tensor(mats, kind)[1]

    def test_dependent_matrices(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            algebra_from_matrices("dep", [e_matrix(2, 0, 1), e_matrix(2, 0, 1).scale(2)])

    def test_empty(self):
        assert algebra_from_matrices("zero", []).dimension == 0

    def test_random_closed_spans(self):
        for name, mats, kind in _closed_spans(random.Random(7)):
            alg = algebra_from_matrices(name, mats, kind=kind)
            assert alg.binary_op().tensor == pairwise_matrix_tensor(mats, kind)[0], name

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_builders(self, monkeypatch, name):
        calls = []
        real = catalog.algebra_from_matrices

        def recording(alg_name, matrices, kind="lie", extra_flags=()):
            alg = real(alg_name, matrices, kind, extra_flags)
            calls.append((alg, list(matrices), kind))
            return alg

        monkeypatch.setattr(catalog, "algebra_from_matrices", recording)
        catalog._BUILDERS[name]()
        assert calls
        for alg, matrices, kind in calls:
            assert alg.binary_op().tensor == pairwise_matrix_tensor(matrices, kind)[0]


class TestSubalgebraStructure:
    def test_cartan_of_sl3_is_abelian(self):
        alg = build_sl(3)
        # diagonal part: last two basis vectors in sl_matrices order
        h = Subspace.from_vectors(8, [[0] * 6 + [1, 0], [0] * 6 + [0, 1]])
        sub = subalgebra_structure(alg, h.basis, flags=["lie"])
        assert sub.dimension == 2
        assert not sub.binary_op().tensor  # abelian

    def test_not_closed_raises(self):
        alg = build_sl2_efh()
        s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])  # span(e, h)
        sub = subalgebra_structure(alg, s.basis, flags=["lie"])
        assert sub.dimension == 2
        t = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])  # span(e, f)
        with pytest.raises(ValueError):
            subalgebra_structure(alg, t.basis, flags=["lie"])

    def test_non_canonical_bases(self):
        alg = build_sl(3)
        # a Cartan subalgebra (sl_matrices order: E_ij, then the diagonal
        # h1, h2 at 6 and 7), and the Borel subalgebra h + E_01, E_02, E_12
        cartan = RatMatrix.from_columns([[0] * 6 + [1, 1], [0] * 6 + [2, Q(-1, 3)]])
        unit = [alg.basis_vector(i) for i in (0, 1, 3, 6, 7)]
        mix = [[1, 0, 2, 1, 0], [0, 1, 0, -1, 0], [1, 1, 0, 0, Q(1, 2)], [0, 0, 1, 0, 3], [1, 0, 0, 0, 1]]
        borel = RatMatrix.from_columns(
            [[sum(c * u[r] for c, u in zip(row, unit)) for r in range(8)] for row in mix]
        )
        for basis in (cartan, borel):
            sub = subalgebra_structure(alg, basis, flags=["lie"])
            assert sub.dimension == basis.cols
            assert [op.tensor for op in sub.operations] == dense_rebase(alg, basis)
        assert subalgebra_structure(alg, borel, flags=["lie"]).binary_op().tensor

    def test_zero_columns(self):
        alg = build_sl(3)
        sub = subalgebra_structure(alg, RatMatrix.zeros(8, 0), name="zero")
        assert sub.dimension == 0 and sub.name == "zero" and sub.flags == alg.flags
        assert not sub.binary_op().tensor

    def test_memoized_per_basis_with_flags_normalized(self, monkeypatch):
        alg, other = build_sl2_efh(), build_sl2_efh()
        checks = []
        verify = StructureAlgebra._verify_lie
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", lambda a: checks.append(a) or verify(a))
        basis = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]).basis
        sub = subalgebra_structure(alg, basis, flags=["lie"])
        assert sub.flags == frozenset({"lie"})
        assert subalgebra_structure(alg, RatMatrix(basis.data), flags=("lie",)) is sub
        assert checks == [sub]
        assert subalgebra_structure(alg, basis, flags=[]) is not sub
        assert subalgebra_structure(other, basis, flags=["lie"]) is not sub
        assert len(checks) == 2

    def test_dependent_columns(self):
        basis = RatMatrix.from_columns([[1, 0, 0], [2, 0, 0]])
        with pytest.raises(ValueError, match="linearly dependent"):
            subalgebra_structure(build_sl2_efh(), basis)

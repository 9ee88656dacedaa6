"""Structure algebras: flags, derivations, Killing form, simplicity."""

import random
from fractions import Fraction as Q
from itertools import product
from math import lcm, prod

import pytest
import sympy

from gradalg import catalog
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    _leibniz_rows,
    _symmetry,
    algebra_from_matrices,
    algebra_to_dict,
    build_algebra,
    centralizer,
    centroid_dimension,
    derivation_algebra,
    derivation_space,
    is_simple,
    killing_form,
    subalgebra_structure,
)
from gradalg.errors import FlagViolation, ShapeError, VerificationFailure
from gradalg.exactla import RatMatrix, rank, sparse_rows
from gradalg.grading import Grading, graded_derivations

from helpers import (
    build_m2,
    build_m2_splitpauli,
    basis_matrix,
    basis_value,
    build_sl,
    build_sl2_efh,
    build_sl2_plus_sl2,
    build_sl2_plus_sl3,
    dense,
    dense_ad,
    dense_apply,
    dense_killing_form,
    dense_leibniz_rows,
    dense_rebase,
    dense_verify_associative,
    dense_verify_lie,
    e_matrix,
    flatten,
    fraction_derivations,
    fraction_nullspace,
    from_matrices,
    is_simple_by_ideal_closures,
    leibniz_holds,
    mat_from_flat,
    mat_transpose,
    pairwise_matrix_tensor,
    rows_matrix,
    sl_matrices,
    sparse,
    span_of,
    subspace_coords,
    trace,
    unit,
    vectors,
)


def columns_of(m: RatMatrix) -> list[dict]:
    """The columns of a dense matrix as sparse vectors."""
    return [sparse(c) for c in m.columns()]


def sympy_derivation_dim(alg) -> int:
    """Independent oracle: assemble the full Leibniz system symbolically."""
    n = alg.dimension
    d = sympy.Matrix(sympy.symbols(f"d:{n*n}")).reshape(n, n)
    basis = [sympy.Matrix([1 if k == i else 0 for k in range(n)]) for i in range(n)]
    eqs = []
    for op in alg.operations:
        for key in product(range(n), repeat=op.arity):
            val = sympy.Matrix([sympy.Rational(x) for x in basis_value(op, key, n)])
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
        assert alg.bracket(alg.basis_vector(0), alg.basis_vector(2)) == {1: 1}

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
        a = span_of(3, [[1, 1, 0], [2, 2, 0], [0, 0, 1]])
        b = span_of(3, [[1, 1, 0], [0, 0, 3]])
        assert a == b
        assert a.dim == 2
        c = span_of(3, [[0, 1, 0]])
        assert a.intersect(c).dim == 0
        assert a.add(c).dim == 3
        assert a.coords({0: Q(2), 1: Q(2), 2: Q(5)}) == {0: 2, 1: 5}
        assert a.coords({0: Q(1)}) is None

    def test_coords_and_contains_against_solve_oracle(self):
        # coords and contains read the canonical basis; the oracle solves
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(rng.randint(0, n))]
            s = span_of(n, gens)
            coeffs = [rng.randint(-2, 2) for _ in gens]
            inside = [sum((c * g[i] for c, g in zip(coeffs, gens)), Q(0)) for i in range(n)]
            outside = [rng.randint(-3, 3) for _ in range(n)]
            for vec in (inside, outside, [0] * n, vectors(s)[0] if s.dim else [1] * n):
                expected = subspace_coords(basis_matrix(s), vec)
                got = s.coords(sparse(vec))
                assert got == (None if expected is None else sparse(expected))
                assert s.contains(sparse(vec)) == (expected is not None)
                if got is not None:
                    assert all(type(x) is Q for x in got.values())
        zero, full = Subspace(3, {}), Subspace.full(3)
        assert zero.coords({}) == {} and zero.coords({1: Q(1)}) is None
        assert full.coords({0: Q(1), 1: Q(1, 2), 2: Q(-3)}) == {0: Q(1), 1: Q(1, 2), 2: Q(-3)}
        # a coordinate outside the ambient space is outside every subspace
        assert full.coords({3: Q(1)}) is None and not zero.contains({5: Q(2)})


class TestDerivations:
    def test_sl2_all_inner(self):
        alg = build_sl2_efh()
        der = derivation_algebra(alg)
        assert der.dim == 3
        assert der.dim == sympy_derivation_dim(alg)
        for v in vectors(der.space):
            assert leibniz_holds(alg, mat_from_flat(v, 3, 3))
        # ad of every basis vector lies in the derivation space
        for i in range(3):
            assert der.space.contains(sparse(flatten(alg.ad_matrix(alg.basis_vector(i)))))
        assert "lie" in der.algebra.flags

    def test_sl2_cartan_constraints(self):
        alg = build_sl2_efh()
        comps = [span_of(3, [[1, 0, 0]]), span_of(3, [[0, 1, 0]]), span_of(3, [[0, 0, 1]])]
        der = derivation_algebra(alg, constraints=comps)
        assert der.dim == 1
        # the surviving derivation is a multiple of ad h
        adh = alg.ad_matrix(alg.basis_vector(1))
        assert der.space.contains(sparse(flatten(adh)))

    def test_m2_pauli_constraints(self):
        alg = build_m2_splitpauli()
        comps = [span_of(4, [unit(j, 4)]) for j in range(4)]
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
        mats = [mat_from_flat(v, 8, 8) for v in vectors(der.space)]
        for i in range(der.dim):
            for j in range(der.dim):
                comm = mats[i] * mats[j] - mats[j] * mats[i]
                assert der.space.contains(sparse(flatten(comm)))


class TestCentralizer:
    def test_center_of_sl2(self):
        alg = build_sl2_efh()
        assert centralizer(alg, Subspace.full(3)).dim == 0

    def test_cartan_self_centralizing(self):
        alg = build_sl2_efh()
        h = span_of(3, [[0, 1, 0]])
        assert centralizer(alg, h) == h

    def test_requires_lie(self):
        with pytest.raises(ValueError):
            centralizer(build_m2(), Subspace.full(4))


class TestKillingForm:
    def test_sl2(self):
        alg = build_sl2_efh()
        gram, nondeg = killing_form(alg)
        gram = rows_matrix(gram)
        assert gram[1, 1] == 8  # K(h, h)
        assert nondeg
        # symmetry and invariance on all basis triples
        n = alg.dimension
        assert gram == mat_transpose(gram)
        basis = [alg.basis_vector(i) for i in range(n)]

        def k(x, y):
            return trace(alg.ad_matrix(x) * alg.ad_matrix(y))

        for i in range(n):
            for j in range(n):
                for l in range(n):
                    assert k(alg.bracket(basis[i], basis[j]), basis[l]) == k(
                        basis[i], alg.bracket(basis[j], basis[l])
                    )

    def test_abelian_degenerate(self):
        alg = StructureAlgebra("ab2", 2, [MultilinearOp("bracket", 2, {})], ["lie"])
        gram, nondeg = killing_form(alg)
        assert not any(gram) and not nondeg

    def test_sl3_nondegenerate(self):
        _, nondeg = killing_form(build_sl(3))
        assert nondeg


def build_gl2() -> StructureAlgebra:
    return from_matrices("gl2", [e_matrix(2, i, j) for i in range(2) for j in range(2)])


def build_affine_line() -> StructureAlgebra:
    """The two-dimensional Lie algebra [e0, e1] = e1."""
    tensor = {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}}
    return StructureAlgebra("aff1", 2, [MultilinearOp("bracket", 2, tensor)], ["lie"])


LIE_CATALOG = [n for n in catalog.catalog_names() if "lie" in catalog.get_catalog(n).grading.algebra.flags]


class TestKillingFormAgainstDenseProducts:
    """killing_form from the structure constants against trace(ad e_i ad e_j)
    from dense ad matrices, with ad_rows against brackets of basis vectors."""

    def check(self, alg):
        gram, nondeg = killing_form(alg)
        assert (rows_matrix(gram), nondeg) == dense_killing_form(alg)
        rng = random.Random(alg.dimension)
        for x in [unit(i, alg.dimension) for i in range(alg.dimension)] + [
            [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(alg.dimension)]
        ]:
            assert rows_matrix(alg.ad_rows(sparse(x))) == alg.ad_matrix(sparse(x)) == dense_ad(alg, x)

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
            assert not nondeg and any(gram)


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
        alg = from_matrices("mixed", mixed)
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
                out = op.apply([sparse(a) for a in args])
                assert sparse(dense(out, dim)) == out == sparse(dense_apply(op, args, dim))


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
    return from_matrices(f"m{d}", mats, kind="associative")


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


#: diagonal entries, cycled, of the basis changes that make constants non-integral
SCALES = (Q(2, 3), Q(-5, 7), Q(3), Q(-1, 2), Q(7, 5), Q(1))


def _diagonally_rebased(grading: Grading) -> Grading:
    """The grading on its homogeneous algebra rewritten in the basis
    s_i e_i, s_i cycling through SCALES: a constant c of op(e_{i_1}, ...,
    e_{i_k}) at e_j becomes c s_{i_1} ... s_{i_k} / s_j."""
    alg = grading.homog_algebra
    s = [SCALES[i % len(SCALES)] for i in range(alg.dimension)]
    ops = [
        MultilinearOp(
            op.name,
            op.arity,
            {
                key: {j: c * prod(s[i] for i in key) / s[j] for j, c in vec.items()}
                for key, vec in op.tensor.items()
            },
        )
        for op in alg.operations
    ]
    rebased = StructureAlgebra(f"{alg.name}-rebased", alg.dimension, ops, alg.flags)
    return Grading(rebased, grading.group, grading.degrees)


class TestNonIntegralConstants:
    """The flag checks and the Leibniz rows read the integer tensor; on
    catalog algebras with non-integral constants they agree with oracles
    that read the rational one."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_flag_checks_match_dense_oracles(self, monkeypatch, name):
        alg = _diagonally_rebased(catalog.get_catalog(name).grading).algebra
        op = alg.binary_op()
        scale = lcm(*(c.denominator for vec in op.tensor.values() for c in vec.values()))
        assert scale > 1
        assert op.int_tensor == {k: {j: c * scale for j, c in v.items()} for k, v in op.tensor.items()}
        assert all(type(c) is int for v in op.int_tensor.values() for c in v.values())
        flag = "lie" if "lie" in alg.flags else "associative"
        rng = random.Random(name)
        corrupted = [_corrupted(alg, rng, keep_antisymmetry=True) for _ in range(3)]
        sparse = [_flag_failure(alg.dimension, t, flag) for t in [op.tensor, *corrupted]]
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", dense_verify_lie)
        monkeypatch.setattr(StructureAlgebra, "_verify_associative", dense_verify_associative)
        assert sparse == [_flag_failure(alg.dimension, t, flag) for t in [op.tensor, *corrupted]]
        assert sparse[0] is None and any(sparse[1:])

    @pytest.mark.parametrize(
        "name, key, triple",
        [("cartan-sl2", (2, 0), (0, 1, 2)), ("pauli-m2", (3, 3), (1, 2, 3))],
    )
    def test_known_first_failing_triple(self, monkeypatch, name, key, triple):
        """Read before the rebasing, which changes no verdict: cartan-sl2
        (e, f, h) with [h, e] = mu e, mu != 2, breaks Jacobi on its only
        triple; pauli-m2 (1, i, j, k) with k k = (4/3) 1 first breaks
        (e_1 e_2) e_3 = -k k against e_1 (e_2 e_3) = -1, since e_0 = 1 is a
        unit and no earlier triple multiplies k by k."""
        alg = _diagonally_rebased(catalog.get_catalog(name).grading).algebra
        tensor = {k: dict(v) for k, v in alg.binary_op().tensor.items()}
        j, c = next(iter(tensor[key].items()))
        tensor[key][j] = c * Q(4, 3)
        if "lie" in alg.flags:
            tensor[key[::-1]][j] = -c * Q(4, 3)
        flag = "lie" if "lie" in alg.flags else "associative"
        failure = _flag_failure(alg.dimension, tensor, flag)
        assert failure[1] == triple and str(triple) in failure[0]
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", dense_verify_lie)
        monkeypatch.setattr(StructureAlgebra, "_verify_associative", dense_verify_associative)
        assert _flag_failure(alg.dimension, tensor, flag) == failure

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_derivations_match_rational_leibniz_rows(self, name):
        gr = _diagonally_rebased(catalog.get_catalog(name).grading)
        alg = gr.algebra
        n = alg.dimension
        assert all(type(x) is int for row in _leibniz_rows(alg) for x in row.values())
        assert derivation_space(alg) == fraction_nullspace(n * n, sparse_rows(dense_leibniz_rows(alg)))
        assert graded_derivations(gr).by_degree == fraction_derivations(gr)


SIGNS = {"antisymmetric": -1, "symmetric": 1, "general": 0}


class TestHalvedLeibnizKeys:
    """For an antisymmetric or symmetric binary operation ``_leibniz_rows``
    uses the keys i < j or i <= j only; the row space must not change."""

    @staticmethod
    def _random_operation(rng, n, kind):
        sign = SIGNS[kind] or None
        tensor = {}
        for _ in range(2 * n):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            c = Q(rng.randint(-3, 3), rng.randint(1, 2))
            if not c or (sign == -1 and i == j):
                continue
            tensor.setdefault((i, j), {})[k] = c
            if sign is not None:
                tensor.setdefault((j, i), {})[k] = sign * c
        if sign is None:  # one entry that is neither
            tensor[(0, 1)], tensor[(1, 0)] = {0: Q(1)}, {1: Q(1)}
        return StructureAlgebra(kind, n, [MultilinearOp("mul", 2, tensor)])

    @pytest.mark.parametrize("kind", ["antisymmetric", "symmetric", "general"])
    def test_kernel_matches_the_dense_rows(self, kind):
        rng = random.Random(kind)
        for trial in range(40):
            n = rng.randint(2, 5)
            alg = self._random_operation(rng, n, kind)
            assert _symmetry(alg.binary_op().int_tensor) == SIGNS[kind]
            rows = list(_leibniz_rows(alg))
            dense_rows = list(sparse_rows(dense_leibniz_rows(alg)))
            assert fraction_nullspace(n * n, rows) == fraction_nullspace(n * n, dense_rows), f"trial {trial}"
            if kind == "general":  # every one of the n^2 keys
                assert len(rows) == len(dense_rows), f"trial {trial}"
            elif kind == "antisymmetric":  # rows (j, i) = -rows (i, j), rows (i, i) = 0
                assert 2 * len(rows) == len(dense_rows), f"trial {trial}"
            else:
                assert len(rows) <= len(dense_rows), f"trial {trial}"

    def test_zero_tensor_counts_as_antisymmetric(self):
        assert _symmetry({}) == -1
        assert _symmetry({(0, 0): {0: 1}}) == 1
        assert _symmetry({(0, 1): {0: 1}}) == 0


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
            from_matrices("e-f", [e, f])
        assert exc.value.witness == pairwise_matrix_tensor([e, f], "lie")[1] == (0, 1)

    def test_first_pair_outside_the_span_is_the_witness(self):
        # span(E_00, E_01, E_10): E_01 E_10 = E_00 stays inside, E_10 E_01 = E_11 does not
        mats = [e_matrix(2, 0, 0), e_matrix(2, 0, 1), e_matrix(2, 1, 0)]
        for kind in ("lie", "associative"):
            with pytest.raises(VerificationFailure) as exc:
                from_matrices("partial", mats, kind=kind)
            assert exc.value.witness == pairwise_matrix_tensor(mats, kind)[1]

    def test_dependent_matrices(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            from_matrices("dep", [e_matrix(2, 0, 1), e_matrix(2, 0, 1).scale(2)])

    def test_empty(self):
        assert algebra_from_matrices("zero", []).dimension == 0

    def test_random_closed_spans(self):
        for name, mats, kind in _closed_spans(random.Random(7)):
            alg = from_matrices(name, mats, kind=kind)
            assert alg.binary_op().tensor == pairwise_matrix_tensor(mats, kind)[0], name

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_builders(self, monkeypatch, name):
        calls = []
        real = catalog.algebra_from_matrices

        def recording(alg_name, matrices, kind="lie", extra_flags=()):
            alg = real(alg_name, matrices, kind, extra_flags)
            calls.append((alg, [rows_matrix(m) for m in matrices], kind))
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
        h = span_of(8, [[0] * 6 + [1, 0], [0] * 6 + [0, 1]])
        sub = subalgebra_structure(alg, h.sparse_vectors(), flags=["lie"])
        assert sub.dimension == 2
        assert not sub.binary_op().tensor  # abelian

    def test_not_closed_raises(self):
        alg = build_sl2_efh()
        s = span_of(3, [[1, 0, 0], [0, 1, 0]])  # span(e, h)
        sub = subalgebra_structure(alg, s.sparse_vectors(), flags=["lie"])
        assert sub.dimension == 2
        t = span_of(3, [[1, 0, 0], [0, 0, 1]])  # span(e, f)
        with pytest.raises(ValueError):
            subalgebra_structure(alg, t.sparse_vectors(), flags=["lie"])

    def test_non_canonical_bases(self):
        alg = build_sl(3)
        # a Cartan subalgebra (sl_matrices order: E_ij, then the diagonal
        # h1, h2 at 6 and 7), and the Borel subalgebra h + E_01, E_02, E_12
        cartan = RatMatrix.from_columns([[0] * 6 + [1, 1], [0] * 6 + [2, Q(-1, 3)]])
        units = [unit(i, 8) for i in (0, 1, 3, 6, 7)]
        mix = [[1, 0, 2, 1, 0], [0, 1, 0, -1, 0], [1, 1, 0, 0, Q(1, 2)], [0, 0, 1, 0, 3], [1, 0, 0, 0, 1]]
        borel = RatMatrix.from_columns(
            [[sum(c * u[r] for c, u in zip(row, units)) for r in range(8)] for row in mix]
        )
        for basis in (cartan, borel):
            sub = subalgebra_structure(alg, columns_of(basis), flags=["lie"])
            assert sub.dimension == basis.cols
            assert [op.tensor for op in sub.operations] == dense_rebase(alg, basis)
        assert subalgebra_structure(alg, columns_of(borel), flags=["lie"]).binary_op().tensor

    def test_zero_columns(self):
        alg = build_sl(3)
        sub = subalgebra_structure(alg, [], name="zero")
        assert sub.dimension == 0 and sub.name == "zero" and sub.flags == alg.flags
        assert not sub.binary_op().tensor

    def test_memoized_per_basis_with_flags_normalized(self, monkeypatch):
        alg, other = build_sl2_efh(), build_sl2_efh()
        checks = []
        verify = StructureAlgebra._verify_lie
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", lambda a: checks.append(a) or verify(a))
        basis = span_of(3, [[1, 0, 0], [0, 1, 0]]).sparse_vectors()
        sub = subalgebra_structure(alg, basis, flags=["lie"])
        assert sub.flags == frozenset({"lie"})
        assert subalgebra_structure(alg, [dict(reversed(c.items())) for c in basis], flags=("lie",)) is sub
        assert checks == [sub]
        assert subalgebra_structure(alg, basis, flags=[]) is not sub
        assert subalgebra_structure(other, basis, flags=["lie"]) is not sub
        assert len(checks) == 2

    def test_dependent_columns(self):
        basis = RatMatrix.from_columns([[1, 0, 0], [2, 0, 0]])
        with pytest.raises(ValueError, match="linearly dependent"):
            subalgebra_structure(build_sl2_efh(), columns_of(basis))

"""Structure algebras: flags, derivations, Killing form, simplicity."""

import inspect
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from collections import Counter
from itertools import islice, product
from math import lcm, prod

import pytest
import sympy

from gradalg import catalog, cli
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    Subspace,
    _symmetry,
    algebra_from_matrices,
    algebra_to_dict,
    build_algebra,
    centralizer,
    centroid_dimension,
    derivations_are_inner,
    inner_derivations,
    is_simple,
    killing_form,
    memoized,
    rational_field,
    subalgebra_structure,
    trace_form,
)
from gradalg.abgroup import Subgroup
from gradalg.afine import _element_candidates, canonical_refinement, toral_rank
from gradalg.errors import FlagViolation, ShapeError, VerificationFailure
from gradalg.exactla import RatMatrix, Subspace, coordinate_reader, flat_operator, flat_vector, nullspace, sparse_rows
from gradalg.grading import Grading, graded_derivations
from gradalg.lieroot import root_graded_structure, verify_phi_grading

from helpers import (
    op_rows,
    all_pairs_algebra_from_matrices,
    is_canonical,
    build_m2,
    build_m2_splitpauli,
    basis_matrix,
    basis_value,
    block_sum,
    build_sl,
    build_sl2_efh,
    build_sl2_plus_sl2,
    build_sl2_plus_sl3,
    classical_cartan_grading,
    columns_of,
    dense,
    dense_ad,
    dense_apply,
    dense_killing_form,
    dense_trace_form,
    dense_leibniz_rows,
    dense_rebase,
    all_keys_verify_lie,
    dense_verify_associative,
    dense_verify_lie,
    entrywise_build_algebra,
    opposite_tensor_verify_associative,
    e_matrix,
    flatten,
    fraction_derivations,
    fraction_nullspace,
    from_matrices,
    is_simple_by_ideal_closures,
    leibniz_holds,
    dense_power,
    mat_add,
    mat_from_flat,
    mat_scale,
    mat_transpose,
    pairwise_matrix_tensor,
    random_graded_algebra,
    random_lie_algebra,
    rows_matrix,
    sl_involution_grading,
    sl_matrices,
    sparse,
    span_of,
    subspace_coords,
    trace,
    twisted_group_grading,
    unit,
    vectors,
    column,
    rank,
    _leibniz_rows,
    derivation_algebra,
    derivation_space,
)


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

    @pytest.mark.parametrize("key, j", [((0, -1), 0), ((0, 1), -1), ((2, 0), 0), ((0, 0), 2), ((0, 10**30), 0)])
    def test_index_range_read_off_the_least_and_greatest(self, key, j):
        with pytest.raises(ShapeError, match="out of range"):
            StructureAlgebra("bad", 2, [MultilinearOp("op", 2, {(0, 1): {1: Q(1)}, key: {j: Q(1)}})])
        assert StructureAlgebra("empty", 0, [MultilinearOp("op", 2, {})]).dimension == 0

    def test_catalog_specs_match_the_entrywise_oracle(self):
        for name in catalog.catalog_names():
            spec = cli.catalog_workspace(name)["algebras"][0]
            assert _build_outcome(build_algebra, spec) == _build_outcome(entrywise_build_algebra, spec)

    def test_random_specs_match_the_entrywise_oracle(self):
        # constants repeat across entries, one value from several literals; one entry in two
        # specs gets a bad constant or index, which must give the oracle's message
        rng = random.Random(28)
        outcomes = []
        for trial in range(400):
            n = rng.randint(1, 4)
            entries = [
                [rng.randrange(n) for _ in range(3)] + [rng.choice(GOOD_CONSTANTS)] for _ in range(rng.randint(0, 10))
            ]
            if trial % 2 and entries:
                entry = rng.choice(entries)
                if trial % 4 == 1:
                    entry[3] = rng.choice(BAD_CONSTANTS)
                else:
                    entry[rng.randrange(3)] = rng.choice(BAD_INDICES)
            spec = {"name": "t", "dimension": n, "operations": [{"name": "m", "arity": 2, "entries": entries}]}
            outcome = _build_outcome(build_algebra, spec)
            assert outcome == _build_outcome(entrywise_build_algebra, spec)
            outcomes.append(outcome)
        messages = {o[1].split(" ")[0] for o in outcomes if o[0] is ValueError}
        assert messages == {"structure", "entry"} and any(o[0] is not ValueError for o in outcomes)


#: literals of structure constants, several of them with the same value
GOOD_CONSTANTS = (1, -1, 0, 3, "1", "3", "1/1", "1/2", "2/4", "-3/6", "0/5", "+1/1", "007/014", "-0")
#: each equal, as a dict key, to a good literal or rejected by rational_field
BAD_CONSTANTS = (True, False, 1.0, 0.5, "1.0", "1/0", "1/-2", None, [1], "x")
BAD_INDICES = (True, False, 1.0, "1", None)


def _build_outcome(build, spec):
    """What ``build(spec)`` gives: the algebra's parts, or the type and message of its error."""
    try:
        alg = build(spec)
    except Exception as exc:
        return type(exc), str(exc)
    return alg.name, alg.dimension, alg.flags, [(op.name, op.arity, op.tensor) for op in alg.operations]


class TestSubspace:
    def test_canonical_and_ops(self):
        a = span_of(3, [[1, 1, 0], [2, 2, 0], [0, 0, 1]])
        b = span_of(3, [[1, 1, 0], [0, 0, 3]])
        assert a == b
        assert a.dim == 2
        c = span_of(3, [[0, 1, 0]])
        assert a.intersect(c).dim == 0
        assert Subspace.span(3, a.sparse_vectors() + c.sparse_vectors()).dim == 3
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
                    # coordinates are entries of the vector read at the pivots: exact, never a float
                    assert all(type(x) in (int, Q) for x in got.values())
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
            assert der.space.contains(sparse(flatten(rows_matrix(alg.ad_rows(alg.basis_vector(i))))))
        assert "lie" in der.algebra.flags

    def test_sl2_cartan_constraints(self):
        alg = build_sl2_efh()
        comps = [span_of(3, [[1, 0, 0]]), span_of(3, [[0, 1, 0]]), span_of(3, [[0, 0, 1]])]
        der = derivation_algebra(alg, constraints=comps)
        assert der.dim == 1
        # the surviving derivation is a multiple of ad h
        adh = rows_matrix(alg.ad_rows(alg.basis_vector(1)))
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
                comm = mat_add(mats[i] * mats[j], mat_scale(mats[j] * mats[i], -1))
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
            return trace(rows_matrix(alg.ad_rows(x)) * rows_matrix(alg.ad_rows(y)))

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
            assert rows_matrix(alg.ad_rows(sparse(x))) == dense_ad(alg, x)

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

    def test_random_lie_algebras(self):
        rng = random.Random(39)
        verdicts = []
        for _ in range(24):
            alg = random_lie_algebra(rng)
            self.check(alg)
            verdicts.append(killing_form(alg)[1])
        # semisimple and degenerate sums both occur
        assert sorted(set(verdicts)) == [False, True]

    @pytest.mark.parametrize("name", LIE_CATALOG)
    def test_fractional_constants(self, name):
        # the sum is read on the integer tensor and divided by the square of its denominator
        self.check(_diagonally_rebased(catalog.get_catalog(name).grading).algebra)


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
        mixed = [mat_add(x, y) for x, y in zip(a, b)] + [mat_add(x, mat_scale(y, -1)) for x, y in zip(a, b)]
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


def _random_table(rng, n, antisymmetric, diagonal):
    """A random sparse binary tensor on n basis vectors, antisymmetric if
    asked, with a nonzero (i, i) key if ``diagonal``."""
    tensor = {}
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if antisymmetric and i == j:
            continue
        tensor[i, j] = {rng.randrange(n): _rational(rng) for _ in range(rng.randint(1, 2))}
        if antisymmetric:
            tensor[j, i] = {l: -c for l, c in tensor[i, j].items()}
    if diagonal:
        i = rng.randrange(n)
        tensor[i, i] = {rng.randrange(n): _rational(rng)}
    return tensor


def _late_jacobi_failure(rng, n):
    """An antisymmetric table on n >= 8 basis vectors whose only Jacobi
    failure is the triple (n-3, n-2, n-1): [e_(n-3), e_(n-2)] = e_0 and
    [e_0, e_(n-1)] = e_1, next to an sl2 (e, f, h) on three basis
    vectors in between, which satisfies Jacobi with everything."""
    i, j, k = n - 3, n - 2, n - 1
    e, f, h = rng.sample(range(2, n - 3), 3)
    tensor = {}
    for (a, b), vec in {(i, j): {0: Q(3, 2)}, (0, k): {1: Q(-2)}, (e, f): {h: Q(1)}, (h, e): {e: Q(2)}, (h, f): {f: Q(-2)}}.items():
        tensor[a, b] = vec
        tensor[b, a] = {l: -c for l, c in vec.items()}
    return tensor


#: (lie, associative) flag-check oracles: the dense loops over every pair and triple, and the
#: former bodies, Jacobi from every stored key and associativity from the reversed tensor
FLAG_ORACLES = (
    (dense_verify_lie, dense_verify_associative),
    (all_keys_verify_lie, opposite_tensor_verify_associative),
)


class TestFlagChecksOverStoredKeys:
    """The flag checks visit only the stored keys and their contractions,
    and report the same message and witness as the dense oracles, which
    loop over every basis pair and triple."""

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog_with_one_constant_off(self, monkeypatch, name):
        alg = catalog.get_catalog(name).grading.algebra
        flag = "lie" if "lie" in alg.flags else "associative"
        rng = random.Random(name)
        corrupted = [_corrupted(alg, rng, keep_antisymmetry=k % 2 == 0) for k in range(4)]
        sparse_failures = [_flag_failure(alg.dimension, t, flag) for t in corrupted]
        for lie, assoc in FLAG_ORACLES:
            monkeypatch.setattr(StructureAlgebra, "_verify_lie", lie)
            monkeypatch.setattr(StructureAlgebra, "_verify_associative", assoc)
            assert sparse_failures == [_flag_failure(alg.dimension, t, flag) for t in corrupted]
        assert any(sparse_failures)

    @pytest.mark.parametrize("flag", ["lie", "associative"])
    def test_random_sparse_tables(self, monkeypatch, flag):
        rng = random.Random(flag)
        cases = []
        # the dense associativity oracle visits n^3 triples, so fewer tables
        for trial in range(40 if flag == "lie" else 16):
            n = rng.choice((1, 2, 3, 5, 8, 13, 21, 40))
            table = _random_table(rng, n, antisymmetric=trial % 2 == 0, diagonal=trial % 5 == 0)
            cases.append((n, table))
        sparse_failures = [_flag_failure(n, t, flag) for n, t in cases]
        for lie, assoc in FLAG_ORACLES:
            monkeypatch.setattr(StructureAlgebra, "_verify_lie", lie)
            monkeypatch.setattr(StructureAlgebra, "_verify_associative", assoc)
            assert sparse_failures == [_flag_failure(n, t, flag) for n, t in cases]
        failures = [f for f in sparse_failures if f]
        assert None in sparse_failures and len(failures) > 5
        if flag == "lie":
            assert {"antisymmetric" in f[0] for f in failures} == {True, False}
            assert any(f[1][0] == f[1][1] for f in failures)  # a nonzero (i, i) key

    @pytest.mark.parametrize("n", [8, 13, 40])
    def test_only_failure_at_a_late_triple(self, monkeypatch, n):
        table = _late_jacobi_failure(random.Random(n), n)
        failure = _flag_failure(n, table, "lie")
        assert failure == (f"Jacobi identity fails on basis triple ({n - 3}, {n - 2}, {n - 1})", (n - 3, n - 2, n - 1))
        monkeypatch.setattr(StructureAlgebra, "_verify_lie", dense_verify_lie)
        assert _flag_failure(n, table, "lie") == failure

    def test_cost_follows_the_stored_keys(self):
        # sl2's six constants on 10^30 basis vectors: no loop over the dimension
        alg = build_sl2_efh()
        table = alg.binary_op().tensor
        assert StructureAlgebra("big", 10**30, [MultilinearOp("b", 2, table)], ["lie"]).dimension == 10**30
        broken = {**table, (0, 0): {1: Q(1)}}
        assert _flag_failure(10**30, broken, "lie") == (
            "bracket is not antisymmetric on basis pair (0, 0)", (0, 0)
        )
        product_table = build_m2().binary_op().tensor
        StructureAlgebra("big", 10**30, [MultilinearOp("m", 2, product_table)], ["associative"])


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


def _associative_examples():
    """(id, algebra, semisimple) of associative algebras: the catalog's, the
    same with fractional constants, twisted group algebras, and algebras
    of matrices that are not semisimple."""
    units = [e_matrix(2, i, j) for i in range(2) for j in range(2)]
    upper3 = [e_matrix(3, i, j) for i in range(3) for j in range(i, 3)]
    out = []
    for name in ASSOCIATIVE_CATALOG:
        gr = catalog.get_catalog(name).grading
        out += [(name, gr.algebra, True), (f"{name}-rebased", _diagonally_rebased(gr).algebra, True)]
    for k, beta in ((2, [[0, 1], [0, 0]]), (2, [[0, 0], [0, 0]]), (3, [[1, 1, 0], [0, 0, 1], [0, 0, 1]])):
        out.append((f"tga{k}-{beta}", twisted_group_grading(k, beta).algebra, True))
    out += [
        ("m2", build_m2(), True),
        ("dual-numbers", from_matrices("dual", [RatMatrix.identity(2), units[1]], kind="associative"), False),
        ("t2", from_matrices("t2", [units[0], units[1], units[3]], kind="associative"), False),
        ("t3", from_matrices("t3", upper3, kind="associative"), False),
        ("m2+q", from_matrices("m2+q", block_sum(units, [RatMatrix.identity(1)]), "associative"), True),
        ("m2+dual", from_matrices("m2+dual", block_sum(units, [mat_add(units[0], units[3]), units[1]]), "associative"), False),
    ]
    return [pytest.param(alg, semisimple, id=name) for name, alg, semisimple in out]


ASSOCIATIVE_CATALOG = [
    n for n in catalog.catalog_names() if "associative" in catalog.get_catalog(n).grading.algebra.flags
]


class TestTraceForm:
    """trace_form from the structure constants against trace(L_(e_i e_j))
    from dense left multiplications; nondegenerate exactly on the
    semisimple examples."""

    @pytest.mark.parametrize("alg, semisimple", _associative_examples())
    def test_against_dense_left_multiplications(self, alg, semisimple):
        gram, nondeg = trace_form(alg)
        assert (rows_matrix(gram), nondeg) == dense_trace_form(alg)
        assert nondeg == semisimple
        assert all(is_canonical(x) for row in gram for x in row.values())

    def test_requires_the_associative_flag(self):
        with pytest.raises(ValueError, match="associative"):
            trace_form(build_sl2_efh())


class TestDerivationsAreInner:
    """The certificate holds on semisimple Lie and associative algebras
    and on nothing else among the examples; where it holds, the inner
    derivations span the whole derivation space."""

    def check(self, alg, expected):
        assert derivations_are_inner(alg) == expected
        if expected:
            n = alg.dimension
            assert Subspace.span(n * n, inner_derivations(alg, range(n))) == derivation_space(alg)

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_catalog(self, name):
        self.check(catalog.get_catalog(name).grading.algebra, True)

    @pytest.mark.parametrize("alg, semisimple", _associative_examples())
    def test_associative(self, alg, semisimple):
        self.check(alg, semisimple)

    def test_random_lie_algebras(self):
        rng = random.Random(1945)
        for _ in range(12):
            alg = random_lie_algebra(rng)
            self.check(alg, killing_form(alg)[1])

    def test_no_certificate_without_a_single_flagged_binary_operation(self):
        rng = random.Random(5)
        two_ops = random_graded_algebra(rng, ternary=True).algebra
        sl2 = build_sl2_efh()
        unflagged = StructureAlgebra("sl2-unflagged", 3, sl2.operations)
        assert not derivations_are_inner(two_ops) and not derivations_are_inner(unflagged)
        # gl2 and the affine line: degenerate Killing forms
        assert not derivations_are_inner(build_gl2()) and not derivations_are_inner(build_affine_line())

    def test_the_killing_form_is_read_from_its_memo(self):
        alg = build_sl(3)
        gram = killing_form(alg)
        assert derivations_are_inner(alg)
        assert killing_form(alg) is gram and len(alg._memo) == 2


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


def _fraction_inner_derivations(alg: StructureAlgebra) -> list[dict]:
    """The maps x -> e_i x - x e_i read on the rational ``op.tensor``, as
    sparse vectors in n^2 coordinates (row-major), the zero ones dropped."""
    n = alg.dimension
    t = alg.binary_op().tensor
    maps = []
    for i in range(n):
        vec = {}
        for c in range(n):
            for r, x in t.get((i, c), {}).items():
                vec[r * n + c] = vec.get(r * n + c, 0) + x
            for r, x in t.get((c, i), {}).items():
                vec[r * n + c] = vec.get(r * n + c, 0) - x
        if vec := {k: x for k, x in vec.items() if x}:
            maps.append(vec)
    return maps


class TestInnerDerivations:
    """``inner_derivations`` reads the integer tensor: int maps, each the
    rational map times the same positive constant, with the same span."""

    @pytest.mark.parametrize("rebased", [False, True], ids=["catalog", "rebased"])
    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_integer_maps_span_the_rational_ones(self, name, rebased):
        gr = catalog.get_catalog(name).grading
        alg = _diagonally_rebased(gr).algebra if rebased else gr.homog_algebra
        n = alg.dimension
        op = alg.binary_op()
        scale = lcm(*(c.denominator for vec in op.tensor.values() for c in vec.values()))
        assert (scale > 1) == rebased
        maps = inner_derivations(alg, range(n))
        rational = _fraction_inner_derivations(alg)
        assert maps and all(type(x) is int for vec in maps for x in vec.values())
        assert maps == [{k: scale * x for k, x in vec.items()} for vec in rational]
        assert Subspace.span(n * n, maps) == Subspace.span(n * n, rational)

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_among_selects_the_basis_vectors(self, name):
        alg = catalog.get_catalog(name).grading.homog_algebra
        each = [inner_derivations(alg, {i}) for i in range(alg.dimension)]
        assert all(len(maps) <= 1 for maps in each)
        assert [m for maps in each for m in maps] == inner_derivations(alg, range(alg.dimension))
        rng = random.Random(name)
        for _ in range(5):
            among = set(rng.sample(range(alg.dimension), rng.randint(0, alg.dimension)))
            assert inner_derivations(alg, among) == [m for i in sorted(among) for m in each[i]]

    def test_cost_follows_the_stored_constants(self):
        # cartan-sl2's six constants in dimension 10**30: each stored key is read once, so the
        # call returns at once with the maps of dimension 3, the flat index r*n + c re-read for n
        spec = cli.catalog_workspace("cartan-sl2")["algebras"][0]
        small = [sorted(divmod(k, 3) + (x,) for k, x in vec.items()) for vec in inner_derivations(build_algebra(spec), range(3))]
        code = (
            "import json, sys; from gradalg.algcore import build_algebra, inner_derivations; "
            "spec = json.loads(sys.stdin.read()); spec['dimension'] = 10**30; "
            "print(json.dumps([sorted(divmod(k, 10**30) + (x,) for k, x in vec.items()) "
            "for vec in inner_derivations(build_algebra(spec), range(10**30))]))"
        )
        src = str(Path(cli.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps(spec), capture_output=True, text=True, env=env, timeout=5
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[list(t) for t in vec] for vec in small]


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
            mat_add(*(mat_scale(mats[k], t[k, i]) for k in range(m)))
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
            from_matrices("dep", [e_matrix(2, 0, 1), e_matrix(2, 0, 1, 2)])

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


def _table(alg: StructureAlgebra) -> list:
    """The structure constants with the order of their keys and entries."""
    return [(key, list(vec.items())) for key, vec in alg.binary_op().tensor.items()]


class TestHalfPairCommutators:
    """``algebra_from_matrices`` reads a commutator for i < j only; the
    loop over every ordered pair (``helpers.all_pairs_algebra_from_matrices``)
    must give the same tensor, key for key, and the same witness."""

    def check(self, matrices, kind="lie"):
        try:
            want = all_pairs_algebra_from_matrices("oracle", matrices, kind=kind)
        except VerificationFailure as exc:
            with pytest.raises(VerificationFailure) as got:
                algebra_from_matrices("oracle", matrices, kind=kind)
            assert got.value.witness == exc.witness and str(got.value) == str(exc)
            return exc.witness
        got = algebra_from_matrices("oracle", matrices, kind=kind)
        assert _table(got) == _table(want) and got.flags == want.flags
        return None

    @pytest.mark.parametrize("name", catalog.catalog_names())
    def test_d_e_of_every_certified_catalog_grading(self, name):
        gr = catalog.get_catalog(name).grading
        assert derivations_are_inner(gr.algebra)
        # D_e, the algebra toral_rank reads (0 on b2-skew), and the whole derivation algebra
        for within in (Subgroup.from_generators(gr.group, []), None):
            assert self.check(graded_derivations(gr, within).identity_part) is None
        parts = [v for s in graded_derivations(gr).by_degree.values() for v in s.sparse_vectors()]
        n = gr.dimension
        assert self.check(Subspace.span(n * n, parts)) is None

    def test_random_closed_spans(self):
        for name, mats, kind in _closed_spans(random.Random(44)):
            assert self.check([op_rows(m) for m in mats], kind) is None, name

    def test_spans_that_are_not_closed(self):
        rng = random.Random(45)
        witnesses = set()
        for trial in range(60):
            d = rng.choice((2, 3))
            units = [e_matrix(d, i, j) for i in range(d) for j in range(d)]
            mats = rng.sample(units, rng.randint(2, d * d - 1))
            for kind in ("lie", "associative"):
                witness = self.check([op_rows(m) for m in mats], kind)
                if kind == "lie" and witness is not None:
                    # the first ordered pair outside the span is one with i < j
                    assert witness[0] < witness[1]
                    witnesses.add(witness)
        assert len(witnesses) > 3


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
        sub = subalgebra_structure(alg, [])
        assert sub.dimension == 0 and sub.name == f"{alg.name}-sub" and sub.flags == alg.flags
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


def _sparse_invertible(rng, n):
    """A random invertible n x n rational matrix, about half its entries 0."""
    while True:
        m = RatMatrix([[_rational(rng) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)], n)
        if rank(m) == n:
            return m


def _closed_subspace_basis(rng, grading):
    """A random basis, in the coordinates of ``grading.homog_algebra``, of
    the span of the homogeneous basis vectors whose degrees are multiples
    of a random degree g: a subalgebra, since the degree of a value is
    the sum of the degrees of the arguments."""
    n = len(grading.degrees)
    g = rng.choice(grading.degrees)
    multiples = {(k * g).coords for k in range(-20, 21)}
    units = [unit(i, n) for i, d in enumerate(grading.degrees) if d.coords in multiples]
    mix = _sparse_invertible(rng, len(units))
    cols = [[sum(mix[r, t] * u[i] for r, u in enumerate(units)) for i in range(n)] for t in range(len(units))]
    return RatMatrix.from_columns(cols, n)


def _dense_closed(alg, basis):
    """Whether every operation's value on the columns of ``basis`` is in
    their span, by the dense oracle."""
    return all(
        subspace_coords(basis, dense_apply(op, [column(basis, i) for i in key], alg.dimension)) is not None
        for op in alg.operations
        for key in product(range(basis.cols), repeat=op.arity)
    )


def _items(tensor):
    """A tensor as nested item lists, so that key and index order count."""
    return [(key, list(vec.items())) for key, vec in tensor.items()]


class TestRebasedOverStoredEntries:
    """``subalgebra_structure`` builds each value from the stored integer
    entries and integer-scaled columns and reads it with the fraction-free
    ``coordinate_reader``; ``helpers.dense_rebase`` applies each operation
    to every tuple of columns and solves for its coordinates."""

    GRADINGS = ("cartan-sl2", "cartan-sl3", "pauli-m2", "sl3-involution", "b2-skew")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_invertible_bases(self, seed):
        rng = random.Random(seed)
        graded = [random_graded_algebra(rng, ternary=True), catalog.get_catalog(self.GRADINGS[seed % 5]).grading]
        for alg in (gr.homog_algebra for gr in graded):
            basis = _sparse_invertible(rng, alg.dimension)
            sub = subalgebra_structure(alg, columns_of(basis))
            assert [_items(op.tensor) for op in sub.operations] == [_items(t) for t in dense_rebase(alg, basis)]
            assert all(is_canonical(c) for op in sub.operations for v in op.tensor.values() for c in v.values())

    def test_random_subspace_bases(self):
        rng = random.Random(1968)
        seen = set()
        for trial in range(48):
            gr = random_graded_algebra(rng, ternary=True) if trial % 2 else catalog.get_catalog(rng.choice(self.GRADINGS)).grading
            alg = gr.homog_algebra
            n = alg.dimension
            kind = rng.choice(("closed", "random", "dependent"))
            if kind == "closed":
                basis = _closed_subspace_basis(rng, gr)
            else:
                k = rng.randint(1, n - 1)
                cols = [[_rational(rng) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(k)]
                if kind == "dependent":
                    cols.append([x * _rational(rng) + y for x, y in zip(cols[0], cols[-1])] if k > 1 else [0] * n)
                basis = RatMatrix.from_columns(cols, n)
            if rank(basis) < basis.cols:
                seen.add("dependent")
                with pytest.raises(ValueError, match="^the basis vectors are linearly dependent$"):
                    subalgebra_structure(alg, columns_of(basis), flags=[])
            elif not _dense_closed(alg, basis):
                seen.add("not closed")
                with pytest.raises(ValueError, match="^subspace is not closed under an operation$"):
                    subalgebra_structure(alg, columns_of(basis), flags=[])
            else:
                seen.add("closed")
                sub = subalgebra_structure(alg, columns_of(basis), flags=[])
                assert [_items(op.tensor) for op in sub.operations] == [_items(t) for t in dense_rebase(alg, basis)]
                if any(op.tensor for op in sub.operations):
                    seen.add("closed, nonzero product")
        assert seen == {"dependent", "not closed", "closed", "closed, nonzero product"}


def _same_algebra(got: StructureAlgebra, want: StructureAlgebra):
    assert (got.name, got.dimension, got.flags) == (want.name, want.dimension, want.flags)
    assert [(op.name, op.arity, _items(op.tensor)) for op in got.operations] == [
        (op.name, op.arity, _items(op.tensor)) for op in want.operations
    ]


def _rebased_both_ways(alg, space, flags=("lie",)):
    """``subalgebra_structure`` on ``space``, read at its pivots, against its
    oracle: the same canonical basis as columns, read by an elimination."""
    got = subalgebra_structure(alg, space, flags=flags)
    _same_algebra(got, subalgebra_structure(alg, space.sparse_vectors(), flags=flags))
    return got


def _from_operators_both_ways(name, space):
    """``algebra_from_matrices`` on a ``Subspace`` of End in n^2 coordinates
    against its oracle: the canonical basis as operators, read by an elimination."""
    n = math.isqrt(space.dim_ambient)
    got = algebra_from_matrices(name, space)
    _same_algebra(got, algebra_from_matrices(name, [flat_operator(v, n) for v in space.sparse_vectors()]))
    return got


#: Lie gradings with L_e != 0 from outside the catalog: sl4 and sl5 graded
#: by an involution, and the Cartan gradings of so5 and sp6
_MORE_LIE_GRADINGS = {
    "sl4-symplectic": lambda: sl_involution_grading(4, True),
    "sl5-orthogonal": lambda: sl_involution_grading(5, False),
    "so5": lambda: classical_cartan_grading("B", 2),
    "sp6": lambda: classical_cartan_grading("C", 3),
}


class TestSubspaceBasis:
    """A canonical basis goes to the builders as its ``Subspace``, and its
    coordinates are read at the pivots; the columns path, one
    ``coordinate_reader`` elimination of the same basis, is the oracle."""

    @pytest.mark.parametrize("name", ["cartan-sl2", "cartan-sl3", "cartan-sl4", "sl3-involution", *_MORE_LIE_GRADINGS])
    def test_l_e_and_the_grading_subalgebra(self, name):
        gr = _MORE_LIE_GRADINGS[name]() if name in _MORE_LIE_GRADINGS else catalog.get_catalog(name).grading
        l_e = gr.identity_component()
        assert _rebased_both_ways(gr.algebra, l_e).dimension == l_e.dim
        g_sub = root_graded_structure(gr, canonical_refinement(gr).refined).g_sub
        g_alg = _rebased_both_ways(gr.algebra, g_sub)
        # a Cartan grading's g is L: the algebra itself, never a copy
        assert (g_alg is gr.algebra) == (g_sub.dim == gr.dimension)

    def test_engel_subalgebras_and_centralizers(self):
        rng = random.Random(36)
        gradings = [catalog.get_catalog(name).grading for name in catalog.catalog_names()]
        algebras = [gr.algebra for gr in gradings if "lie" in gr.algebra.flags]
        algebras += [classical_cartan_grading(kind, r).algebra for kind, r in (("B", 2), ("C", 2), ("B", 3), ("C", 3))]
        seen = Counter()
        for alg in algebras:
            n = alg.dimension
            for x in islice(_element_candidates(n, rng), 12):
                engel = nullspace(dense_power(rows_matrix(alg.ad_rows(x)), n))
                seen["nonabelian"] += bool(_rebased_both_ways(alg, engel).binary_op().tensor)
                seen["engel"] += 1
            for k in (1, 2):
                s = Subspace.span(n, ({i: rng.randint(-2, 2) or 1} for i in rng.sample(range(n), k)))
                cent = centralizer(alg, s)
                seen["nonabelian"] += bool(_rebased_both_ways(alg, cent, flags=[]).binary_op().tensor)
                seen["centralizer"] += 1
        assert seen["engel"] == 12 * len(algebras) == 6 * seen["centralizer"] and seen["nonabelian"] > 0, seen

    def test_d_e_of_every_catalog_grading(self):
        d_e = {}
        for name in catalog.catalog_names():
            gr = catalog.get_catalog(name).grading
            space = graded_derivations(gr, Subgroup.from_generators(gr.group, [])).identity_part
            d_e[name] = _from_operators_both_ways("commutators", space)
        # D_e = 0 on b2-skew, a torus on cartan-sl4, ad so3 on sl3-involution
        assert [d_e[name].dimension for name in ("b2-skew", "cartan-sl4", "sl3-involution")] == [0, 3, 3]
        assert d_e["sl3-involution"].binary_op().tensor

    def test_derivation_algebras_of_small_algebras(self):
        rng = random.Random(11)
        small = [build_sl2_efh(), build_m2(), build_m2_splitpauli(), build_sl2_plus_sl2()]
        small += [random_graded_algebra(rng, ternary=t % 2 == 1).algebra for t in range(6)]
        for alg in small:
            der = derivation_algebra(alg)
            _same_algebra(der.algebra, _from_operators_both_ways(f"Der({alg.name})", derivation_space(alg)))
            assert der.space.dim == der.algebra.dimension

    def test_a_subspace_that_is_not_closed_keeps_its_error(self):
        alg = build_sl(3)
        # the diagonal, E_01 and E_12 (sl_matrices order: E_01, E_02, E_10, E_12, E_20, E_21, h1, h2)
        h = span_of(8, [unit(6, 8), unit(7, 8)])
        g_sub = span_of(8, [unit(i, 8) for i in (0, 3, 6, 7)])
        for basis in (g_sub, g_sub.sparse_vectors()):
            with pytest.raises(ValueError, match="^subspace is not closed under an operation$"):
                subalgebra_structure(alg, basis, flags=["lie"])
        check = verify_phi_grading(alg, g_sub, h)
        assert not check.ok and check.failures == (("i", "not a subalgebra: subspace is not closed under an operation"),)
        rng = random.Random(5)
        witnesses = set()
        for trial in range(40):
            flat = [{k: c for k in range(9) if (c := rng.randint(-1, 1))} for _ in range(rng.randint(1, 4))]
            space = Subspace.span(9, flat)
            ops = [flat_operator(v, 3) for v in space.sparse_vectors()]
            for kind in ("lie", "associative"):
                try:
                    want = algebra_from_matrices("oracle", ops, kind=kind)
                except VerificationFailure as exc:
                    with pytest.raises(VerificationFailure) as got:
                        algebra_from_matrices("oracle", space, kind=kind)
                    assert got.value.witness == exc.witness == pairwise_matrix_tensor(
                        [rows_matrix(op) for op in ops], kind
                    )[1]
                    witnesses.add(exc.witness)
                else:
                    _same_algebra(algebra_from_matrices("oracle", space, kind=kind), want)
        assert len(witnesses) > 1, witnesses

    def test_a_subspace_of_another_ambient_is_a_shape_error(self):
        alg = build_sl(3)
        for space in (Subspace.full(3), Subspace.full(9), span_of(9, [unit(0, 9)])):
            with pytest.raises(ShapeError):
                subalgebra_structure(alg, space, flags=["lie"])
        for size in (5, 8):
            with pytest.raises(ShapeError):
                algebra_from_matrices("bad", Subspace.full(size))
        with pytest.raises(ShapeError):
            coordinate_reader(4, Subspace.full(3))

    def test_the_full_subspace_is_the_algebra_itself(self):
        alg = catalog.get_catalog("cartan-sl3").grading.algebra
        for flags in (None, [], ["lie"], ("aut_reductive", "lie")):
            assert subalgebra_structure(alg, Subspace.full(alg.dimension), flags=flags) is alg
        unflagged = StructureAlgebra("sl3-unflagged", 8, alg.operations)
        copy = subalgebra_structure(unflagged, Subspace.full(8), flags=["lie"])
        assert copy is not unflagged and copy.flags == {"lie"}
        assert subalgebra_structure(unflagged, Subspace.full(8), flags=["lie"]) is copy

    def test_equal_subspaces_share_one_rebased_copy(self):
        alg = build_sl(3)
        h = subalgebra_structure(alg, span_of(8, [unit(6, 8), unit(7, 8)]), flags=["lie"])
        assert subalgebra_structure(alg, span_of(8, [[0] * 6 + [1, 1], [0] * 6 + [1, -1]]), flags=["lie"]) is h
        assert not h.binary_op().tensor


@pytest.mark.parametrize("literal", ["-0/5", "+3/006", "7", "-12/8", "0", "6/3", "1/2"])
def test_rational_literals_read_as_before(literal):
    # one int() per side of the "/": the value of Fraction(literal), an int when it is integral
    got = rational_field(literal, "structure constant")
    assert is_canonical(got) and got == Q(literal)
    assert (got.numerator, got.denominator) == (Q(literal).numerator, Q(literal).denominator)


def test_rational_fields_are_canonical():
    assert [rational_field(x, "c") for x in ("7", "-0/5", "6/3", "1/2", 7, -3, 0)] == [7, 0, 2, Q(1, 2), 7, -3, 0]
    assert [type(rational_field(x, "c")) for x in ("7", "-0/5", "6/3", "1/2", 7)] == [int, int, int, Q, int]
    for bad in (True, 1.0, "1.5", None):
        with pytest.raises(ValueError, match="is not rational"):
            rational_field(bad, "c")


class TestMemoized:
    """``memoized`` reads the signature once: positional, keyword and
    defaulted calls of the same values share one entry, and a hit is one
    dict lookup."""

    class Holder:
        def __init__(self):
            self._memo = {}

    @staticmethod
    def counted():
        calls = []

        @memoized
        def f(obj, a, b=2, c=3):
            calls.append((a, b, c))
            return a + 10 * b + 100 * c

        return f, calls

    def test_calls_of_the_same_values_share_one_entry(self):
        f, calls = self.counted()
        obj = self.Holder()
        results = [f(obj, 1), f(obj, 1, 2), f(obj, 1, 2, 3), f(obj, 1, c=3), f(obj, a=1), f(obj, b=2, a=1, c=3)]
        assert results == [321] * 6 and calls == [(1, 2, 3)] and len(obj._memo) == 1
        assert f(obj, 1, c=4) == f(obj, 1, 2, 4) == 421 and calls == [(1, 2, 3), (1, 2, 4)]
        assert len(obj._memo) == 2 and f(self.Holder(), 1) == 321 and len(calls) == 3

    def test_good_calls_bind_nothing(self, monkeypatch):
        f, calls = self.counted()
        monkeypatch.setattr(inspect.Signature, "bind", lambda *args, **kwargs: pytest.fail("a good call was bound"))
        obj = self.Holder()
        assert [f(obj, 1), f(obj, 1, c=3), f(obj, a=1, b=2), f(obj, 1, 2, 3)] == [321] * 4 and len(calls) == 1

    def test_bad_calls_raise_type_error_and_store_nothing(self):
        f, calls = self.counted()
        obj = self.Holder()
        for args, kwargs in [((), {}), ((1, 2, 3, 4), {}), ((1,), {"a": 1}), ((1,), {"d": 1}), ((), {"b": 1})]:
            with pytest.raises(TypeError):
                f(obj, *args, **kwargs)
        assert not obj._memo and not calls

    def test_a_hit_hashes_its_arguments_once(self):
        f, _ = self.counted()
        hashes = []

        class Key:
            def __hash__(self):
                hashes.append(self)
                return 7

            def __rmul__(self, other):
                return other

        obj, key = self.Holder(), Key()
        f(obj, 1, key)
        hashes.clear()
        f(obj, 1, key)
        f(obj, 1, b=key)
        assert len(hashes) == 2

    def test_library_calls_share_one_entry(self):
        shared = catalog.get_catalog("cartan-sl3").grading
        gr = Grading(shared.algebra, shared.group, shared.degrees)
        first = toral_rank(gr)
        assert toral_rank(gr, 0) is first and toral_rank(gr, seed=0) is first
        assert sum(key[0].__name__ == "toral_rank" for key in gr._memo) == 1

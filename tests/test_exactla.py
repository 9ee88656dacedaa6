"""Exact linear algebra: echelon forms, solving, normal forms, spectra."""

import ast
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
import sympy

import gradalg

from gradalg.errors import (
    AxiomFailure,
    GradAlgError,
    NonSplitError,
    NotCommutingError,
    NotDiagonalizableError,
    ShapeError,
)
from gradalg import afine, catalog, exactla, grading, lieroot
from gradalg.algcore import StructureAlgebra, algebra_from_matrices, centralizer
from gradalg.exactla import (
    IntMatrix,
    RatMatrix,
    Subspace,
    _eigen_split,
    _integer_row,
    column_hnf,
    combine_rows,
    coordinate_reader,
    coordinate_rows,
    gauss_jordan,
    hnf_solve,
    integer_kernel,
    inverse,
    is_unit_basis,
    minimal_polynomial,
    nullspace,
    qdiv,
    rational,
    rational_roots,
    rref,
    semisimple_part,
    simultaneous_eigenspaces,
    smith_normal_form,
    solve,
    sparse_nullspace,
    sparse_power,
    sparse_rows,
)

from helpers import (
    ROWS_PER_BLOCK,
    basis_matrix,
    blocked_kernel,
    chain_repaired_smith_normal_form,
    classical_cartan_grading,
    column_vector,
    components,
    dense_column_echelon,
    dense_nullspace,
    dense_power,
    dense_rref,
    ad_row_centralizer,
    bordered_intersection,
    build_sl2_plus_sl2,
    dense_subspace_intersection,
    eliminated_annihilator,
    heisenberg_grading,
    two_elimination_normalizer,
    diagonal,
    flatten,
    fraction_coordinate_reader,
    fraction_gauss_jordan,
    fraction_nullspace,
    is_canonical,
    kernel_eigen_split,
    kernel_joint_eigenspaces,
    mat_add,
    mat_from_flat,
    mat_scale,
    mat_transpose,
    newton_semisimple_part,
    op_rows,
    per_degree_minimal_polynomial,
    poly_product,
    rational_solve,
    rows_matrix,
    span_of,
    sparse,
    submatrix,
    sympy_rational_roots,
    vectors,
    sl_involution_grading,
    zeros,
    column,
    rank,
)


def rand_rat_matrix(rng, rows, cols, lo=-20, hi=20):
    return RatMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_int_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m[i, j]))


def rand_independent_columns(rng, rows, cols, lo=-20, hi=20):
    while True:
        a = rand_rat_matrix(rng, rows, cols, lo, hi)
        if rank(a) == cols:
            return a


def in_span(basis, vec):
    return solve(basis, column_vector(list(vec))) is not None


def column_space(m):
    return span_of(m.rows, m.columns())


def semisimple_of(m):
    """``semisimple_part`` of a dense matrix, as a dense matrix."""
    return rows_matrix(semisimple_part(op_rows(m)))


def eigenspaces_of(ops, space=None):
    """``simultaneous_eigenspaces`` of dense matrices, on ``space`` (default: the whole space)."""
    return simultaneous_eigenspaces([op_rows(op) for op in ops], Subspace.full(ops[0].rows) if space is None else space)


def random_ranked_matrix(rng, rows, cols, k=None):
    """A random rational matrix of rank at most k (default: random): a
    product of a rows x k and a k x cols factor, dense or sparse, with
    small or large entries; then maybe a zero row and a repeated row."""
    if k is None:
        k = rng.randint(0, min(rows, cols))
    zero_share = rng.choice((0.0, 0.7))
    large = rng.random() < 0.25

    def entry():
        if rng.random() < zero_share:
            return Q(0)
        if large:
            return Q(rng.randint(-10**25, 10**25), rng.randint(1, 10**15))
        return Q(rng.randint(-5, 5), rng.randint(1, 3))

    if k and cols:
        left = RatMatrix([[entry() for _ in range(k)] for _ in range(rows)])
        right = RatMatrix([[entry() for _ in range(cols)] for _ in range(k)])
        data = [list(r) for r in (left * right).data]
    else:
        data = [[Q(0)] * cols for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        data[rng.randrange(rows)] = [Q(0)] * cols
    if rows > 1 and rng.random() < 0.3:
        data[rng.randrange(rows)] = list(data[rng.randrange(rows)])
    return RatMatrix(data)


class TestRatMatrixBasics:
    def test_arithmetic(self):
        a = RatMatrix([[1, 2], [3, 4]])
        b = RatMatrix([["1/2", 0], [0, "1/2"]])
        assert (a * b) == RatMatrix([["1/2", 1], ["3/2", 2]])

    def test_immutability_and_hash(self):
        a = RatMatrix([[1, 2]])
        with pytest.raises(AttributeError):
            a.rows = 7
        assert hash(a) == hash(RatMatrix([[1, 2]]))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2], [3]])
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2]]) * RatMatrix([[1, 2]])


class TestSparsePower:
    def test_matches_the_dense_power(self):
        # M^k on sparse rows by squaring, against k dense products, for k = 0..5
        assert sparse_power([{0: 1, 1: 1}, {1: 1}], 5) == [{0: 1, 1: 5}, {1: 1}]
        assert sparse_power([{0: 1, 1: 1}, {1: 1}], 0) == [{0: 1}, {1: 1}]
        assert sparse_power([], 3) == []
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 6)
            # sparse, with fractional entries
            entries = [Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else 0 for _ in range(n * n)]
            m = mat_from_flat(entries, n, n)
            rows = op_rows(m)
            for k in range(6):
                power = sparse_power(rows, k)
                assert rows_matrix(power) == dense_power(m, k)
                assert all(all(row.values()) for row in power)
            assert rows == op_rows(m)


class TestDenseShapes:
    """A dense matrix knows its column count, so matrices with no rows or no
    columns have a shape and multiply like any other."""

    @pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
    def test_matrices_with_no_rows_keep_their_columns(self, cls):
        assert zeros(0, 3, cls).shape == (0, 3) and zeros(3, 0, cls).shape == (3, 0)
        assert zeros(0, 3, cls) != zeros(0, 5, cls) and zeros(0, 3, cls) == cls([], 3)
        assert hash(zeros(0, 3, cls)) == hash(cls([], 3))
        assert cls([]).shape == (0, 0) and cls.from_columns([[], []], rows=0).shape == (0, 2)
        assert zeros(0, 3, cls).columns() == [(), (), ()]

    @pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
    def test_products_through_a_zero_dimension(self, cls):
        assert zeros(2, 0, cls) * zeros(0, 3, cls) == zeros(2, 3, cls)
        assert zeros(0, 2, cls) * zeros(2, 3, cls) == zeros(0, 3, cls)
        assert zeros(3, 2, cls) * zeros(2, 0, cls) == zeros(3, 0, cls)
        with pytest.raises(ShapeError):
            zeros(2, 0, cls) * zeros(1, 3, cls)

    def test_hstack_and_smith_form_of_a_matrix_with_no_rows(self):
        assert zeros(0, 2, IntMatrix).hstack(zeros(0, 3, IntMatrix)).shape == (0, 5)
        assert zeros(2, 0, IntMatrix).hstack(IntMatrix.identity(2)) == IntMatrix.identity(2)
        res = smith_normal_form(zeros(0, 4, IntMatrix))
        s, u, v = chain_repaired_smith_normal_form(zeros(0, 4, IntMatrix))
        assert (res.S, res.U) == (s, u)
        assert (res.S.shape, res.U.shape, v.shape, res.U_inv.shape) == ((0, 4), (0, 0), (4, 4), (0, 0))
        assert v == IntMatrix.identity(4) and res.diagonal() == ()
        assert integer_kernel(zeros(0, 3, IntMatrix)) == IntMatrix.identity(3)

    def test_a_rational_matrix_is_not_an_integer_matrix(self):
        assert IntMatrix([[1, 2]]) != RatMatrix([[1, 2]])
        assert (IntMatrix([[1]]).__mul__(RatMatrix([[1]]))) is NotImplemented

    @pytest.mark.parametrize("entry", [1.5, 2.0, Q(1, 2), Q(3), "1"])
    def test_integer_matrices_take_exact_integers_only(self, entry):
        # no truncation and no parsing: 1.5 must not become 1
        with pytest.raises(TypeError):
            IntMatrix([[1, entry]])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([[entry]])

    def test_immutable(self):
        for m in (zeros(0, 2, IntMatrix), RatMatrix.identity(2)):
            with pytest.raises(AttributeError, match="immutable"):
                m.cols = 3


class TestSolving:
    def test_identity_solve(self):
        b = RatMatrix([[3], [5]])
        assert solve(RatMatrix.identity(2), b) == b

    def test_simple_nullspace(self):
        ns = nullspace(RatMatrix([[1, 1]]))
        assert ns.dim == 1
        assert RatMatrix([[1, 1]]) * basis_matrix(ns) == zeros(1, 1)

    def test_inconsistent(self):
        assert solve(RatMatrix([[1], [1]]), RatMatrix([[0], [1]])) is None

    def test_random_solve_multiply_back(self):
        rng = random.Random(5)
        for _ in range(30):
            a = rand_independent_columns(rng, 5, 4)
            x = rand_rat_matrix(rng, 4, 2)
            b = a * x
            assert solve(a, b) == x

    def test_rank_against_sympy(self):
        rng = random.Random(11)
        for _ in range(25):
            a = rand_rat_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(a) == to_sympy(a).rank()

    def test_nullspace_against_sympy(self):
        rng = random.Random(13)
        for _ in range(25):
            a = rand_rat_matrix(rng, 3, 5)
            ours = basis_matrix(nullspace(a))
            theirs = to_sympy(a).nullspace()
            assert ours.cols == len(theirs)
            for v in theirs:
                vec = [Q(int(sympy.numer(x)), int(sympy.denom(x))) for x in v]
                assert in_span(ours, vec)

    def test_inverse_and_det(self):
        rng = random.Random(17)
        for _ in range(15):
            a = rand_independent_columns(rng, 4, 4)
            assert a * inverse(a) == RatMatrix.identity(4)
            assert to_sympy(inverse(a)) == to_sympy(a).inv()

    def test_inverse_of_singular_matrix_raises(self):
        for m in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            with pytest.raises(ShapeError, match="singular"):
                inverse(RatMatrix(m))

    def test_solve_unique(self):
        a = RatMatrix([[2, 0], [0, 3]])
        x = solve(a, RatMatrix([[4], [9]]))
        assert x == RatMatrix([[2], [3]])
        with pytest.raises(ShapeError):
            solve(RatMatrix([[1, 1]]), RatMatrix([[1]]))

    def test_solve_against_oracle(self):
        # solve is one elimination of [A | B]; the oracle adds a separate nullspace(A)
        rng = random.Random(19)
        seen = set()
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_ranked_matrix(rng, rows, cols)
            if rng.random() < 0.5:
                b = a * random_ranked_matrix(rng, cols, rng.randint(1, 3))
            else:
                b = random_ranked_matrix(rng, rows, rng.randint(1, 3))
            expected = rational_solve(a, b)
            dependent = expected.nullspace.cols > 0
            seen.add((dependent, expected.particular is None))
            if dependent:
                with pytest.raises(ShapeError, match="dependent"):
                    solve(a, b)
            else:
                assert solve(a, b) == expected.particular
        # independent or dependent columns, consistent or not
        assert len(seen) == 4


class TestEliminationAgainstDenseOracles:
    """Every elimination entry point, and the canonical basis of every
    Subspace constructor, against the dense oracles in helpers (the dense
    row loop and the 48-row blocked kernel)."""

    def test_random_matrices_of_every_rank(self):
        rng = random.Random(8128)
        ranks = set()
        for trial in range(320):
            k = trial % 8
            m = random_ranked_matrix(rng, rng.randint(max(k, 1), 7), rng.randint(k, 7), k)
            reduced, pivots = dense_rref(m)
            ranks.add(len(pivots))
            assert rref(m) == (reduced, pivots), f"trial {trial}"
            assert rank(m) == len(pivots), f"trial {trial}"
            kernel = dense_nullspace(m)
            assert basis_matrix(nullspace(m)) == kernel, f"trial {trial}"
            assert basis_matrix(sparse_nullspace(m.cols, sparse_rows(m.data))) == kernel, f"trial {trial}"
            assert blocked_kernel(m.cols, sparse_rows(m.data)) == kernel, f"trial {trial}"
            assert basis_matrix(column_space(m)) == dense_column_echelon(m), f"trial {trial}"
        assert ranks == set(range(8))

    def test_tall_streams_span_several_blocks(self):
        rng = random.Random(496)
        for trial in range(40):
            rows = rng.randint(ROWS_PER_BLOCK + 1, 3 * ROWS_PER_BLOCK)
            m = random_ranked_matrix(rng, rows, rng.randint(1, 9))
            expected = blocked_kernel(m.cols, sparse_rows(m.data))
            assert basis_matrix(sparse_nullspace(m.cols, sparse_rows(m.data))) == expected, f"trial {trial}"
            assert basis_matrix(nullspace(m)) == expected == dense_nullspace(m), f"trial {trial}"

    def test_no_rows_and_no_columns(self):
        assert rref(RatMatrix([])) == (RatMatrix([]), ())
        assert basis_matrix(sparse_nullspace(3, [])) == blocked_kernel(3, []) == RatMatrix.identity(3)
        assert sparse_nullspace(3, []) == Subspace.full(3)
        empty = RatMatrix([[], []])
        assert rref(empty) == dense_rref(empty) == (empty, ())
        assert basis_matrix(nullspace(empty)) == dense_nullspace(empty) == zeros(0, 0)
        assert basis_matrix(column_space(empty)) == dense_column_echelon(empty) == zeros(2, 0)

    def test_subspace_intersection(self):
        rng = random.Random(137)
        for trial in range(200):
            rows = rng.randint(1, 6)
            a = random_ranked_matrix(rng, rows, rng.randint(0, 4))
            b = random_ranked_matrix(rng, rows, rng.randint(0, 4))
            meet = column_space(a).intersect(column_space(b))
            assert basis_matrix(meet) == dense_subspace_intersection(a, b), f"trial {trial}"

    def test_streamed_kernel_stops_reading_once_the_kernel_is_zero(self):
        read = []

        def rows():
            for row in ({0: Q(1), 1: Q(2)}, {1: Q(1)}, {0: Q(3)}, {1: Q(1), 2: Q(-1)}):
                read.append(row)
                yield row
            raise AssertionError("read past the row that made the kernel zero")

        assert sparse_nullspace(3, rows()).dim == 0
        assert len(read) == 4
        # graded_derivations solves each degree under this name
        read.clear()
        assert grading._incremental_kernel(3, rows()).cols == 0


class TestKnownKernelStop:
    """``sparse_nullspace`` with vectors known to lie in the kernel stops
    at the rank they leave, and ``gauss_jordan`` at a given pivot count."""

    def test_gauss_jordan_stops_at_max_rank(self):
        rows = [{0: Q(1), 2: Q(1)}, {1: Q(2)}, {2: Q(1)}]
        assert gauss_jordan(iter(rows), 3, 2) == {0: {0: 1, 2: 1}, 1: {1: 1}}
        assert gauss_jordan(iter(rows), 3, 0) == {}
        assert gauss_jordan(iter(rows), 3, 5) == gauss_jordan(rows, 3) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}

    def test_stops_reading_once_the_known_vectors_can_be_the_kernel(self):
        read = []

        def rows():
            for row in ({0: Q(1), 1: Q(1)}, {0: Q(2), 1: Q(2)}, {1: Q(1), 2: Q(1)}):
                read.append(row)
                yield row
            raise AssertionError("read past the row that left the known kernel")

        known = [{0: Q(2), 1: Q(-2), 2: Q(2)}, {0: Q(-1), 1: Q(1), 2: Q(-1)}]
        assert sparse_nullspace(3, rows(), known) == Subspace.span(3, known)
        assert len(read) == 3
        read.clear()
        assert grading._incremental_kernel(3, rows(), known) == basis_matrix(Subspace.span(3, known))

    def test_random_known_subspaces_agree_with_the_full_solve(self):
        rng = random.Random(1729)
        stops = 0
        for trial in range(300):
            m = random_ranked_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            kernel = sparse_nullspace(m.cols, sparse_rows(m.data))
            basis = kernel.sparse_vectors()
            # all of the kernel, part of it or none, in random combinations, with repeats
            take = rng.choice((len(basis), rng.randint(0, len(basis))))
            known = [
                combine_rows({t: rng.randint(-2, 2) for t in range(take)}, basis)
                for _ in range(rng.randint(0, take + 1))
            ]
            known = [v for v in known if v] + basis[:take] * rng.randint(0, 1)
            stops += Subspace.span(m.cols, known) == kernel
            assert sparse_nullspace(m.cols, sparse_rows(m.data), known) == kernel, f"trial {trial}"
        assert stops > 50

    def test_a_wrong_known_vector_is_an_axiom_failure(self):
        # x0 = 0 has kernel span(e1); e0 is not in it
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            sparse_nullspace(2, [{0: Q(1)}], [{0: Q(1)}])
        # a wrong vector next to a right one, caught by the one row read before the stop
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            sparse_nullspace(3, [{2: Q(1)}, {0: Q(1), 1: Q(-1)}], [{0: Q(1), 1: Q(1)}, {2: Q(1)}])

    def test_a_wrong_known_vector_with_fraction_entries_is_an_axiom_failure(self):
        # x0/2 + x1/3 = 0 has kernel span((2, -3)); the check reads the known vectors in integers
        rows = [{0: Q(1, 2), 1: Q(1, 3)}]
        assert sparse_nullspace(2, rows, [{0: Q(2, 7), 1: Q(-3, 7)}]) == Subspace.span(2, [{0: 2, 1: -3}])
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            sparse_nullspace(2, rows, [{0: Q(1, 3), 1: Q(1, 2)}])
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            sparse_nullspace(3, rows, [{2: Q(5, 3)}, {0: Q(-3, 2), 1: Q(1, 3)}])

    def test_dependent_known_vectors_stop_at_the_rank_they_leave(self):
        read = []

        def rows():
            for row in ({0: Q(1)}, {0: Q(2)}, {1: Q(1, 3)}, {2: Q(1), 3: Q(1)}):
                read.append(row)
                yield row
            raise AssertionError("read past the third pivot")

        # the kernel is span((0, 0, 1, -1)); three multiples of it span one dimension, so
        # the elimination stops at 4 - 1 pivots, after the dependent second row
        v = {2: Q(1), 3: Q(-1)}
        known = [v, {2: Q(2), 3: Q(-2)}, {2: Q(-1, 5), 3: Q(1, 5)}]
        assert sparse_nullspace(4, rows(), known) == Subspace.span(4, [v])
        assert len(read) == 4

    def test_random_streams_with_known_kernel_vectors_agree_with_the_fraction_solve(self):
        rng = random.Random(444)
        stops = 0
        for trial in range(300):
            ncols = rng.randint(1, 7)
            stream = random_row_stream(rng, ncols)
            expected = fraction_nullspace(ncols, stream)
            basis = expected.sparse_vectors()
            take = rng.randint(0, len(basis))
            known = [
                combine_rows({t: random_entry(rng) for t in range(take) if rng.random() < 0.7}, basis)
                for _ in range(rng.randint(0, take + 2))
            ]
            known = [v for v in known if v]
            stops += Subspace.span(ncols, known) == expected
            assert sparse_nullspace(ncols, iter(stream), known) == expected, f"trial {trial}"
        assert stops > 30


def random_entry(rng):
    """An int or a Fraction: small, with a denominator up to 12, or near 2^200."""
    sign = rng.choice((-1, 1))
    kind = rng.randrange(5)
    if kind == 0:
        return sign * rng.randint(1, 9)
    if kind == 1:
        return Q(sign * rng.randint(1, 9))
    if kind == 2:
        return Q(sign * rng.randint(1, 30), rng.randint(1, 12))
    if kind == 3:
        return sign * (2**200 + rng.randint(-5, 5))
    return Q(sign * (2**200 + rng.randint(-5, 5)), rng.choice((3, 2**199 + 1, 7**70)))


def random_row_stream(rng, ncols):
    """Sparse rows in ``ncols`` columns: random rows, zero rows (empty or
    with explicit zeros), duplicates and multiples of earlier rows."""
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif rows and kind < 0.3:
            f = Q(rng.randint(-4, 4) or 1, rng.randint(1, 5))
            rows.append({c: f * x for c, x in rng.choice(rows).items()})
        elif kind < 0.4:
            rows.append({c: rng.choice((0, Q(0))) for c in range(ncols) if rng.random() < 0.3})
        else:
            density = rng.choice((0.3, 0.6, 1.0))
            rows.append({c: random_entry(rng) for c in range(ncols) if rng.random() < density})
    return rows


class TestFractionFreeElimination:
    """``gauss_jordan`` eliminates integer rows; ``helpers.fraction_gauss_jordan``
    is the same streamed elimination on Fraction rows."""

    def test_same_result_as_the_fraction_elimination(self, monkeypatch):
        kept = []
        emit = exactla._rational_row
        monkeypatch.setattr(exactla, "_rational_row", lambda row, p: kept.append((row, p)) or emit(row, p))
        rng = random.Random(1968)
        seen = set()
        for trial in range(600):
            ncols = rng.choice((0, 1, 2, 3, 4, 5, 6, 8))
            stream = random_row_stream(rng, ncols)
            before = [dict(row) for row in stream]
            read = []

            def counted(rows):
                for row in rows:
                    read.append(row)
                    yield row

            expected = fraction_gauss_jordan(counted(stream), ncols)
            stop = len(read)

            def guarded():
                yield from stream[:stop]
                if stop < len(stream):
                    pytest.fail(f"trial {trial}: read a row after every column had a pivot")

            read.clear()
            kept.clear()
            got = gauss_jordan(counted(guarded()), ncols)
            assert len(read) == stop, f"trial {trial}"
            assert got == expected and list(got) == list(expected), f"trial {trial}"
            assert [list(row) for row in got.values()] == [list(row) for row in expected.values()], f"trial {trial}"
            assert all(is_canonical(x) for row in got.values() for x in row.values()), f"trial {trial}"
            assert stream == before, f"trial {trial}: an input row changed"
            # every row kept is a primitive integer row, positive at its pivot
            for row, p in kept:
                assert min(row) == p and row[p] > 0, f"trial {trial}"
                assert all(type(x) is int for x in row.values()), f"trial {trial}"
                assert math.gcd(*row.values()) == 1, f"trial {trial}"
            nonzero = [{c: x for c, x in row.items() if x} for row in stream]
            seen.add("no columns" if ncols == 0 else "stopped early" if stop < len(stream) else "read all")
            seen.update(type(x).__name__ for row in stream for x in row.values())
            if any(row and row[min(row)] < 0 for row in nonzero):
                seen.add("negative first entry")
            if any(abs(x) > 2**190 for row in nonzero for x in row.values()):
                seen.add("near 2^200")
            if any(not row for row in nonzero):
                seen.add("zero row")
            if any(row and nonzero.count(row) > 1 for row in nonzero):
                seen.add("duplicate row")
        assert seen >= {
            "no columns", "stopped early", "read all", "int", "Fraction", "negative first entry",
            "near 2^200", "zero row", "duplicate row",
        }

    def test_empty_streams(self):
        assert gauss_jordan([], 0) == gauss_jordan([], 3) == {}
        assert gauss_jordan([{}, {0: 0, 2: Q(0)}], 3) == {}
        assert gauss_jordan(iter([{0: Q(-2, 3), 1: 4}]), 0) == {}


class TestFractionFreeCoordinates:
    """``coordinate_reader`` keeps the integer rows of one elimination of
    [M | I]; ``helpers.fraction_coordinate_reader`` reads the rational
    echelon form of the same matrix."""

    def test_same_coordinates_as_the_fraction_reader(self):
        rng = random.Random(493)
        seen = set()
        for trial in range(400):
            size = rng.choice((0, 1, 2, 3, 4, 6, 8))
            vectors = [{c: x for c, x in row.items() if x} for row in random_row_stream(rng, size)]
            try:
                expected = fraction_coordinate_reader(size, vectors)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    coordinate_reader(size, vectors)
                seen.add("dependent")
                continue
            got = coordinate_reader(size, vectors)
            inside = [combine_rows({k: random_entry(rng) for k in range(len(vectors)) if rng.random() < 0.6}, vectors)]
            outside = [{c: random_entry(rng) for c in range(size) if rng.random() < 0.5}]
            for vec in [{}] + inside + outside + [dict(v) for v in vectors]:
                want = expected(vec)
                have = got(vec)
                assert have == want, f"trial {trial}"
                if want is None:
                    seen.add("outside")
                    continue
                assert list(have) == list(want) and all(map(is_canonical, have.values())), f"trial {trial}"
                seen.add("inside" if want else "zero")
        assert seen == {"dependent", "outside", "inside", "zero"}


    def test_the_rows_read_coordinates_and_a_residual(self):
        # coordinate_rows, the linear map behind coordinate_reader, on columns and on the Subspace
        # they span: integer rows over one scale, a residual that is 0 exactly on the span, and
        # no residual at all for a basis of the whole space
        rng = random.Random(46)
        seen = set()
        for trial in range(300):
            size = rng.choice((0, 1, 2, 3, 4, 6))
            space = Subspace.span(size, random_row_stream(rng, size))
            basis = space.sparse_vectors()
            # another basis of the span: each canonical vector plus a multiple of the next
            vectors = [combine_rows({t: 1, t + 1: random_entry(rng)}, basis + [{}]) for t in range(len(basis))]
            for given, oracle in ((vectors, fraction_coordinate_reader(size, vectors)), (space, space.coords)):
                lcm, rows = coordinate_rows(size, given)
                assert len(rows) == size and all(type(x) is int for row in rows for x in row.values())
                inside = combine_rows({t: random_entry(rng) for t in range(len(basis)) if rng.random() < 0.6}, basis)
                outside = {c: random_entry(rng) for c in range(size) if rng.random() < 0.5}
                for vec in ({}, inside, outside):
                    read, want = combine_rows(vec, rows), oracle(vec)
                    assert (want is None) == any(t >= len(basis) for t in read), f"trial {trial}"
                    if want is not None:
                        assert {t: qdiv(x, lcm) for t, x in sorted(read.items())} == want, f"trial {trial}"
                    seen.add("outside" if want is None else "inside")
                if len(basis) == size:
                    assert all(t < size for row in rows for t in row)
                    seen.add("square")
        assert seen == {"inside", "outside", "square"}

    def test_the_unit_basis(self):
        assert is_unit_basis(3, [{0: 1}, {1: 1}, {2: Q(1)}]) and is_unit_basis(0, []) and is_unit_basis(0, ())
        assert is_unit_basis(3, Subspace.full(3)) and is_unit_basis(2, Subspace.span(2, [{0: 1, 1: 1}, {1: 5}]))
        for other in ([{1: 1}, {0: 1}], [{0: 1}, {1: 2}], [{0: 1}, {1: 1, 0: 0}], [{0: 1}], [{0: 1}, {1: 1}, {2: 1}]):
            assert not is_unit_basis(2, other)
        assert not is_unit_basis(2, Subspace.span(3, [{0: 1}, {1: 1}])) and not is_unit_basis(3, Subspace.full(2))


def old_dense_product(a, b):
    """The dense product as it was summed before ``sum(map(mul, ...))``: a
    generator with a truth test on both factors of each term."""
    bt = list(zip(*b.data)) if b.rows else [()] * b.cols
    return type(a)([[sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a.data], b.cols)


class TestDenseProducts:
    @pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
    def test_same_product_as_the_truth_tested_sum(self, cls):
        rng = random.Random(73)

        def entry():
            if cls is IntMatrix:
                return rng.choice((0, 0, rng.randint(-9, 9)))
            return random_entry(rng) if rng.random() < 0.6 else 0

        shapes = set()
        for _ in range(300):
            n, k, m = (rng.randint(0, 4) for _ in range(3))
            a = cls([[entry() for _ in range(k)] for _ in range(n)], k)
            b = cls([[entry() for _ in range(m)] for _ in range(k)], m)
            got = a * b
            assert got == old_dense_product(a, b) and got.shape == (n, m)
            assert cls is IntMatrix or all(is_canonical(x) for row in got.data for x in row)
            shapes.add("0 x n" if n == 0 else "n x 0" if m == 0 else "through 0" if k == 0 else "full")
        assert shapes == {"0 x n", "n x 0", "through 0", "full"}

    def test_integral_sums_of_fractions_come_out_as_ints(self):
        half = RatMatrix([["1/2", "1/2"]])
        got = half * RatMatrix([[1], [1]])
        assert got == RatMatrix([[1]]) and type(got[0, 0]) is int
        assert type((RatMatrix([["1/3"]]) * RatMatrix([[2]]))[0, 0]) is Q


class TestCanonicalScalars:
    """The scalar contract: wherever the exact layer makes a value, it is an
    ``int`` when it is integral and a ``Fraction`` with denominator > 1
    otherwise (``helpers.is_canonical``), and no float is admitted."""

    def test_rational_and_qdiv(self):
        values = [rational(x) for x in (3, Q(6, 3), Q(1, 2), "4/2", "-0", "-3/9", True)]
        assert values == [3, 2, Q(1, 2), 2, 0, Q(-1, 3), 1] and all(map(is_canonical, values))
        for bad in (1.0, 0.5, None, 1j, [1]):
            with pytest.raises(TypeError):
                rational(bad)
        quotients = [qdiv(6, 3), qdiv(-7, 2), qdiv(Q(1, 2), Q(1, 4)), qdiv(3, Q(3, 2)), qdiv(Q(5, 3), 5), qdiv(0, -4)]
        assert quotients == [2, Q(-7, 2), 2, 2, Q(1, 3), 0] and all(map(is_canonical, quotients))
        for a in (1, Q(1, 2), 0):
            with pytest.raises(ZeroDivisionError):
                qdiv(a, 0)

    def test_rat_matrix_entries(self):
        m = RatMatrix([[Q(4, 2), "1/2", 3], ["6/3", 0, Q(-3, 3)]])
        assert [list(map(type, row)) for row in m.data] == [[int, Q, int], [int, int, int]]
        for bad in (1.0, 2.5):
            with pytest.raises(TypeError):
                RatMatrix([[1, bad]])

    def test_eliminations_kernels_and_coordinates(self):
        rng = random.Random(30)
        seen = set()
        for trial in range(300):
            ncols = rng.choice((1, 2, 3, 4, 6))
            stream = random_row_stream(rng, ncols)
            made = [x for row in gauss_jordan(stream, ncols).values() for x in row.values()]
            space = sparse_nullspace(ncols, stream)
            made += [x for vec in space.sparse_vectors() for x in vec.values()]
            basis = Subspace.span(ncols, stream).sparse_vectors()
            coords = coordinate_reader(ncols, basis)
            for vec in basis:
                made += coords(combine_rows({0: random_entry(rng), 1: 1}, [vec, basis[0]])).values()
            assert all(map(is_canonical, made)), f"trial {trial}"
            seen.update(type(x).__name__ for x in made)
        assert seen == {"int", "Fraction"}
        assert [list(map(type, v.values())) for v in Subspace.full(2).sparse_vectors()] == [[int], [int]]

    def test_polynomials_and_spectra(self):
        roots = rational_roots([Q(-3), Q(-1), Q(2)]) + rational_roots([Q(-4, 9), 0, 1]) + rational_roots([6, -5, 1])
        assert roots == [-1, Q(3, 2), Q(-2, 3), Q(2, 3), 2, 3] and all(map(is_canonical, roots))
        poly = minimal_polynomial(op_rows(diagonal([Q(1, 2), 2, 2])))
        assert poly == (1, Q(-5, 2), 1) and all(map(is_canonical, poly))
        ops = [op_rows(diagonal([1, Q(1, 2), 3])), op_rows(RatMatrix([[2, 1, 0], [0, 2, 0], [0, 0, Q(6, 3)]]))]
        weights = [w for w, _ in simultaneous_eigenspaces(ops[:1], Subspace.full(3))]
        assert weights == [(Q(1, 2),), (1,), (3,)] and all(is_canonical(x) for w in weights for x in w)
        semisimple = semisimple_part(ops[1])
        assert semisimple == [{0: 2}, {1: 2}, {2: 2}]
        assert all(type(x) is int for row in semisimple for x in row.values())

    def test_sparse_sums_products_and_embeddings(self):
        # a sum of Fractions that is integral comes back as an int, through
        # combine_rows and everything that keeps its sums
        got = combine_rows({0: Q(1, 2), 1: Q(1, 2)}, [{0: 1}, {0: 1}])
        assert got == {0: 1} and type(got[0]) is int
        halves = Subspace(3, {0: {0: 1, 2: Q(1, 2)}, 1: {1: 1, 2: Q(1, 2)}})
        image = halves.embed(Subspace(2, {0: {0: 1, 1: 1}}))
        assert image.sparse_vectors() == [{0: 1, 1: 1, 2: 1}]
        assert all(is_canonical(x) for v in image.sparse_vectors() for x in v.values())
        rng = random.Random(44)

        def fraction():
            return Q(rng.randint(-3, 3), rng.choice((1, 2, 3)))

        seen = set()
        for trial in range(300):
            n = rng.randint(2, 6)
            rows = [{c: x for c in range(n) if rng.random() < 0.5 and (x := fraction())} for _ in range(n)]
            made = [x for k in range(6) for row in sparse_power(rows, k) for x in row.values()]
            # a proper subspace with fractional canonical vectors, and a fractional line in it
            space = Subspace.span(n, [sparse([fraction() for _ in range(n)]) for _ in range(rng.randint(1, n - 1))])
            sub = Subspace.span(space.dim, [sparse([fraction() for _ in range(space.dim)])])
            made += [x for v in space.embed(sub).sparse_vectors() for x in v.values()]
            assert all(map(is_canonical, made)), f"trial {trial}"
            seen.update(type(x).__name__ for x in made)
        assert seen == {"int", "Fraction"}


@pytest.fixture
def eliminations(monkeypatch):
    """``eliminations(build)``: the number of integer eliminations
    (``_integer_echelon`` calls) that ``build()`` runs."""
    calls = []
    real = exactla._integer_echelon

    def counting(rows, ncols, *args, **kwargs):
        calls.append(ncols)
        return real(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(exactla, "_integer_echelon", counting)

    def count(build):
        calls.clear()
        build()
        return len(calls)

    return count


class TestSubspaces:
    def test_column_echelon_canonical(self):
        a = RatMatrix.from_columns([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        b = RatMatrix.from_columns([[1, 3, 4], [0, 2, 2]])
        assert column_space(a) == column_space(b)
        assert basis_matrix(column_space(a)) == basis_matrix(column_space(b)) == RatMatrix.from_columns([[1, 0, 1], [0, 1, 1]])

    def test_intersection_and_sum(self):
        a = span_of(3, [[1, 0, 0], [0, 1, 0]])
        b = span_of(3, [[0, 1, 0], [0, 0, 1]])
        inter = a.intersect(b)
        assert inter.dim == 1
        assert in_span(basis_matrix(inter), [0, 1, 0])
        assert Subspace.span(3, a.sparse_vectors() + b.sparse_vectors()) == Subspace.full(3)

    def test_intersection_random(self):
        rng = random.Random(23)
        for _ in range(20):
            a = column_space(rand_rat_matrix(rng, 5, 3))
            b = column_space(rand_rat_matrix(rng, 5, 3))
            inter = a.intersect(b)
            for v in vectors(inter):
                assert in_span(basis_matrix(a), v) and in_span(basis_matrix(b), v)
            # dim(A) + dim(B) = dim(A+B) + dim(A∩B)
            assert a.dim + b.dim == Subspace.span(5, a.sparse_vectors() + b.sparse_vectors()).dim + inter.dim

    def test_embed_and_intersect_against_oracles(self):
        # embed carries a canonical basis to the span of its images with no
        # elimination, and restrict carries it back; intersect, the preimage
        # under the identity, agrees with the dense oracle and with the
        # [A | B] elimination it replaced; the written-down annihilator spans
        # the eliminated one; the zero and full spaces and ambient dimension
        # 0 are drawn on purpose
        rng = random.Random(32)

        def random_subspace(n):
            kind = rng.randrange(5)
            if kind == 0:
                return Subspace(n, {})
            if kind == 1:
                return Subspace.full(n)
            return column_space(random_ranked_matrix(rng, n, rng.randint(0, n + 1)))

        seen = {"zero": 0, "full": 0, "ambient 0": 0, "meet": 0, "inside": 0, "outside": 0}
        for trial in range(300):
            n = rng.randint(0, 6)
            space = random_subspace(n)
            sub = random_subspace(space.dim)
            image = space.embed(sub)
            expected = Subspace.span(n, (combine_rows(v, space.sparse_vectors()) for v in sub.sparse_vectors()))
            assert image == expected and image._pivots == expected._pivots, f"trial {trial}"
            assert all(is_canonical(x) for v in image.sparse_vectors() for x in v.values())
            back = space.restrict(image)
            assert back == sub and back._pivots == sub._pivots and space.embed(back) == image, f"trial {trial}"
            other = random_subspace(n)
            meet = space.intersect(other)
            oracle = dense_subspace_intersection(basis_matrix(space), basis_matrix(other))
            assert basis_matrix(meet) == oracle and meet == bordered_intersection(space, other), f"trial {trial}"
            assert all(is_canonical(x) for v in meet.sparse_vectors() for x in v.values())
            inside = space.restrict(other)
            assert (inside is not None) == (meet == other), f"trial {trial}"
            if inside is not None:
                assert space.embed(inside) == other, f"trial {trial}"
            ann = space.annihilator()
            assert len(ann) == n - space.dim and Subspace.span(n, ann).dim == n - space.dim, f"trial {trial}"
            assert all(sum(x * b.get(r, 0) for r, x in q.items()) == 0 for q in ann for b in space.sparse_vectors())
            assert Subspace.span(n, ann) == Subspace.span(n, eliminated_annihilator(space)), f"trial {trial}"
            seen["zero"] += 0 in (space.dim, sub.dim, other.dim)
            seen["full"] += n > 0 and n in (space.dim, other.dim)
            seen["ambient 0"] += n == 0
            seen["meet"] += 0 < meet.dim < n
            seen["inside"] += inside is not None and other.dim > 0
            seen["outside"] += inside is None
        assert min(seen.values()) >= 20, seen
        with pytest.raises(ShapeError):
            Subspace.full(3).embed(Subspace.full(2))
        with pytest.raises(ShapeError):
            Subspace.full(3).restrict(Subspace.full(2))

    def test_normalizer_and_centralizer_against_oracles(self):
        # both are one preimage under the adjoints of a subspace: of the
        # subspace itself, and of the zero space; against the eliminations
        # they replaced, on random subspaces of Lie algebras, the zero
        # algebra among them.  The normalizer is written as _is_cartan_in
        # writes it, in the whole algebra
        rng = random.Random(34)
        algebras = [
            algebra_from_matrices("zero", []),
            heisenberg_grading().algebra,
            catalog.get_catalog("cartan-sl2").grading.algebra,
            catalog.get_catalog("cartan-sl3").grading.algebra,
            build_sl2_plus_sl2(),
        ]
        seen = {"zero": 0, "full": 0, "proper normalizer": 0, "proper centralizer": 0}
        for trial in range(120):
            alg = algebras[trial % len(algebras)]
            n = alg.dimension
            kind = rng.randrange(4) if n else 0
            if kind == 0:
                sub = Subspace(n, {})
            elif kind == 1:
                sub = Subspace.full(n)
            else:
                sub = Subspace.span(n, (alg.basis_vector(i) for i in rng.sample(range(n), rng.randint(1, n))))
                if kind == 3:  # a random, not coordinate, subspace
                    sub = column_space(random_ranked_matrix(rng, n, rng.randint(1, n)))
            normal = Subspace.full(n).preimage(map(alg.ad_rows, sub.sparse_vectors()), sub)
            central = centralizer(alg, sub)
            assert normal == two_elimination_normalizer(alg, sub), f"trial {trial}"
            assert central == ad_row_centralizer(alg, sub), f"trial {trial}"
            seen["zero"] += sub.dim == 0
            seen["full"] += n > 0 and sub.dim == n
            seen["proper normalizer"] += 0 < normal.dim < n
            seen["proper centralizer"] += 0 < central.dim < n
        assert min(seen.values()) >= 10, seen

    def test_one_elimination_per_canonical_basis(self, eliminations):
        # a canonical basis is the result of one elimination, taken as it is:
        # of spanning vectors, or of a system whose free vectors are its
        # kernel's canonical basis; embed carries one with none
        m = RatMatrix([[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2]])
        a = span_of(4, [[1, 2, 0, 1], [0, 0, 1, 1]])
        b = span_of(4, [[1, 0, 0, 0], [0, 0, 1, 1]])
        assert eliminations(lambda: span_of(4, m.data)) == 1
        assert eliminations(lambda: nullspace(m)) == 1
        assert eliminations(lambda: sparse_nullspace(4, sparse_rows(m.data))) == 1
        # a known kernel vector adds the elimination of its span
        assert eliminations(lambda: sparse_nullspace(4, sparse_rows(m.data), [{0: -2, 1: 1}])) == 2
        # rows of full rank stop at the last pivot: the kernel is the zero space, with no second elimination
        assert eliminations(lambda: sparse_nullspace(2, [{0: Q(1)}, {1: Q(1)}, {0: Q(1)}])) == 1
        assert sparse_nullspace(2, [{0: Q(1)}, {1: Q(1)}]) == Subspace(2, {})
        assert eliminations(lambda: a.intersect(b)) == 1
        assert eliminations(lambda: Subspace.full(4)) == 0
        sub = Subspace.span(2, [{0: 1, 1: 3}])
        assert eliminations(lambda: a.embed(sub)) == 0
        # the annihilator is written down, and restrict reads embed backwards
        assert eliminations(lambda: [s.annihilator() for s in (a, Subspace.full(4), Subspace(4, {}))]) == 0
        assert eliminations(lambda: (a.restrict(a.embed(sub)), a.restrict(b), Subspace.full(4).restrict(a))) == 0
        # every "maps into a subspace" condition is one preimage: one elimination
        alg = catalog.get_catalog("cartan-sl3").grading.algebra
        h = catalog.get_catalog("cartan-sl3").grading.identity_component()
        assert eliminations(lambda: Subspace.full(8).preimage(map(alg.ad_rows, h.sparse_vectors()), h)) == 1
        assert eliminations(lambda: centralizer(alg, h)) == 1
        assert eliminations(lambda: a.preimage([op_rows(RatMatrix.identity(4))] * 2, b)) == 1

    def test_containment_is_read_with_no_elimination(self, eliminations, monkeypatch):
        # a containment test reads the canonical basis at its pivots: the
        # closure test of _is_cartan_in and the bracket check of
        # weight_decomposition eliminate nothing
        a = span_of(4, [[1, 2, 0, 1], [0, 0, 1, 1]])
        assert eliminations(lambda: (a.contains({0: 1, 1: 2, 3: 1}), a.contains({0: 1}), a.coords({2: 1, 3: 1}))) == 0
        alg = catalog.get_catalog("cartan-sl3").grading.algebra
        h = catalog.get_catalog("cartan-sl3").grading.identity_component()
        # h is L_e here: the nilpotency spans and one preimage, the normalizer in L_e
        nilpotent = eliminations(lambda: afine._is_nilpotent_subalgebra(alg, h))
        normalizer = eliminations(lambda: h.preimage(map(alg.ad_rows, h.sparse_vectors()), h))
        assert nilpotent and normalizer == 1
        assert eliminations(lambda: lieroot._is_cartan_in(alg, h, h)) == nilpotent + normalizer
        # h plus E_01 and E_12 is not closed: the closure test alone decides
        open_space = Subspace.span(8, h.sparse_vectors() + [{0: 1}, {3: 1}])
        assert eliminations(lambda: lieroot._is_cartan_in(alg, Subspace.full(8), open_space)) == 0
        ops = [alg.ad_rows(v) for v in h.sparse_vectors()]
        split = eliminations(lambda: simultaneous_eigenspaces(ops, Subspace.full(8)))
        assert eliminations(lambda: lieroot.weight_decomposition.__wrapped__(alg, h)) == split
        # a refinement check reads the fine basis in the coarse one, and spans no component: one
        # elimination in a basis change, none in the unit basis, whose columns are their own coordinates
        entry = catalog.get_catalog("sl3-involution")
        fine = afine.canonical_refinement(entry.grading).refined
        spanning, fresh, coarse = (
            grading.Grading(g.algebra, g.group, g.degrees, g.basis_change) for g in (fine, fine, entry.grading)
        )
        assert is_unit_basis(8, coarse.basis_change) and not is_unit_basis(8, fresh.basis_change)
        assert eliminations(lambda: components(spanning)) == len(fine.support)
        spanned = []
        monkeypatch.setattr(grading.Grading, "component", lambda gr, g: spanned.append(g))
        assert eliminations(lambda: fresh.is_refinement_of(coarse)) == 0
        assert eliminations(lambda: coarse.is_refinement_of(fresh)) == 1
        assert eliminations(lambda: fresh.coarse_labels(coarse)) == 0 and not spanned


class TestPolynomials:
    def test_minimal_polynomial(self):
        assert minimal_polynomial(op_rows(RatMatrix.identity(3))) == (Q(-1), Q(1))
        d = diagonal([1, 1, 2])
        # (x-1)(x-2) = 2 - 3x + x^2
        assert minimal_polynomial(op_rows(d)) == (Q(2), Q(-3), Q(1))

    def test_rational_roots(self):
        # x^2 - 1
        assert rational_roots([Q(-1), Q(0), Q(1)]) == [Q(-1), Q(1)]
        # x^2 - 2 has no rational roots
        assert rational_roots([Q(-2), Q(0), Q(1)]) is None
        # x^2 + 1
        assert rational_roots([Q(1), Q(0), Q(1)]) is None
        assert rational_roots([Q(1)]) == []
        # 2x^2 - x - 3 = (2x - 3)(x + 1), not monic
        assert rational_roots([Q(-3), Q(-1), Q(2)]) == [Q(-1), Q(3, 2)]
        # x^3 - (3/2)x^2 = x^2 (x - 3/2): a double zero root
        assert rational_roots([Q(0), Q(0), Q(-3, 2), Q(1)]) == [Q(0), Q(3, 2)]
        assert rational_roots([Q(0), Q(1)]) == [Q(0)]
        # (x - 1/2)^3 (x + 2/3): repeated non-integer roots
        cubed = poly_product([Q(-1, 2), 1], [Q(-1, 2), 1], [Q(-1, 2), 1], [Q(2, 3), 1])
        assert rational_roots(cubed) == [Q(-2, 3), Q(1, 2)]
        # (x - 1)(x^2 + x + 1) has a rational root but does not split
        assert rational_roots([Q(-1), Q(0), Q(0), Q(1)]) is None

    @staticmethod
    def random_polynomial(rng):
        """A product of random factors: rational linear factors (some
        repeated, some x), irreducible or reducible quadratics and cubics,
        times a random leading coefficient."""
        factors = [[Q(rng.choice([-6, -1, 1, 2, 5]), rng.randint(1, 4))]]
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.45:
                root = Q(rng.randint(-40, 40), rng.randint(1, 12))
                factors += [[-root, 1]] * rng.choice([1, 1, 2])
            elif kind < 0.55:
                factors += [[0, 1]] * rng.randint(1, 2)
            elif kind < 0.65:
                factors.append([-Q(rng.randint(-10**12, 10**12), rng.randint(1, 999)), 1])
            else:
                degree = rng.choice([2, 2, 3])
                factors.append([Q(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(degree)] + [rng.randint(1, 4)])
        return poly_product(*factors)

    def test_rational_roots_against_sympy(self):
        rng = random.Random(2024)
        split = 0
        for _ in range(2000):
            poly = self.random_polynomial(rng)
            roots = rational_roots(poly)
            assert roots == sympy_rational_roots(poly), poly
            split += roots is not None
        # both outcomes are well represented
        assert 400 < split < 1600

    def test_rational_roots_large_coefficients(self):
        # the search is bounded by the bit length of the coefficients, not by
        # their divisors: a search over the divisors of the end coefficients
        # takes minutes here
        big = 2**40 * 3**20
        cases = [
            ([Q(-(big**2)), Q(0), Q(1)], [Q(-big), Q(big)]),
            (poly_product([-(10**30), 1], [7**25, 1], [2, 0, 1]), None),
            (
                poly_product(*([-(r * 10**12 + 7 * r + 1), 1] for r in (-4, -3, -1, 1, 2, 3, 5, 8))),
                sorted(Q(r * 10**12 + 7 * r + 1) for r in (-4, -3, -1, 1, 2, 3, 5, 8)),
            ),
            (
                poly_product(*([Q(-(r * 10**12 + 1), 3 + r % 2), 1] for r in (-7, -2, 0, 1, 4, 6, 9, 11))),
                sorted(Q(r * 10**12 + 1, 3 + r % 2) for r in (-7, -2, 0, 1, 4, 6, 9, 11)),
            ),
        ]
        start = time.perf_counter()
        results = [rational_roots(poly) for poly, _ in cases]
        elapsed = time.perf_counter() - start
        for (poly, expected), roots in zip(cases, results):
            assert roots == expected == sympy_rational_roots(poly)
        assert elapsed < 2.0


class TestSemisimplePart:
    def test_diagonalizable_fixed(self):
        d = diagonal([1, 2, 3])
        assert semisimple_of(d) == d

    def test_nilpotent(self):
        n = RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert semisimple_of(n) == zeros(3, 3)

    def test_jordan_block(self):
        m = RatMatrix([[1, 1], [0, 1]])
        assert semisimple_of(m) == RatMatrix.identity(2)

    def test_random_decomposition(self):
        rng = random.Random(31)
        for _ in range(15):
            # Conjugate a split upper-triangular matrix by a random
            # unimodular matrix so the spectrum stays rational.
            n = 4
            t = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    t[i][j] = rng.randint(-3, 3)
            t = RatMatrix(t)
            p = rand_independent_columns(rng, n, n, -3, 3)
            m = p * t * inverse(p)
            s = semisimple_of(m)
            nilp = mat_add(m, mat_scale(s, -1))
            # s commutes with m, s is diagonalizable, m - s is nilpotent
            assert s * m == m * s
            assert dense_power(nilp, n) == zeros(n, n)
            mp = minimal_polynomial(op_rows(s))
            roots = rational_roots(mp)
            assert roots is not None and len(roots) == len(mp) - 1

    def test_nonsplit_raises(self):
        rot = RatMatrix([[0, -1], [1, 0]])
        with pytest.raises(NonSplitError):
            semisimple_of(rot)


class TestSimultaneousEigenspaces:
    def test_sl3_cartan_action(self):
        # ad of h = diag(1, 0, -1) on the 3x3 traceless matrices:
        # weights are differences of diagonal entries, dims 1,2,2,2,1
        # on eigenvalues -2,-1,0,1,2.
        basis = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    e = [[0] * 3 for _ in range(3)]
                    e[i][j] = 1
                    basis.append(RatMatrix(e))
        basis.append(diagonal([1, -1, 0]))
        basis.append(diagonal([0, 1, -1]))
        h = diagonal([1, 0, -1])
        ad = []
        for b in basis:
            br = mat_add(h * b, mat_scale(b * h, -1))
            coords = solve(
                RatMatrix.from_columns([flatten(x) for x in basis], rows=9),
                column_vector(flatten(br)),
            )
            ad.append(column(coords, 0))
        ad_h = RatMatrix.from_columns(ad, rows=8)
        pieces = eigenspaces_of([ad_h])
        got = {w[0]: b.dim for w, b in pieces}
        assert got == {Q(-2): 1, Q(-1): 2, Q(0): 2, Q(1): 2, Q(2): 1}

    def test_two_commuting(self):
        a = diagonal([1, 1, 2])
        b = diagonal([3, 4, 4])
        pieces = eigenspaces_of([a, b])
        weights = sorted(w for w, _ in pieces)
        assert weights == [(Q(1), Q(3)), (Q(1), Q(4)), (Q(2), Q(4))]
        assert all(sp.dim == 1 for _, sp in pieces)

    def test_noncommuting_raises(self):
        a = RatMatrix([[0, 1], [0, 0]])
        b = RatMatrix([[0, 0], [1, 0]])
        with pytest.raises(NotCommutingError):
            eigenspaces_of([a, b])

    def test_nondiagonalizable_raises(self):
        with pytest.raises(NotDiagonalizableError):
            eigenspaces_of([RatMatrix([[1, 1], [0, 1]])])

    def test_nonsplit_raises(self):
        with pytest.raises(NonSplitError):
            eigenspaces_of([RatMatrix([[0, -1], [1, 0]])])

    def test_no_ops_gives_whole_space(self):
        pieces = simultaneous_eigenspaces([], Subspace.full(3))
        assert pieces == [((), Subspace.full(3))]

    def test_against_sympy_eigenvects(self):
        rng = random.Random(37)
        for _ in range(10):
            d = diagonal([rng.randint(-3, 3) for _ in range(4)])
            p = rand_independent_columns(rng, 4, 4, -3, 3)
            m = p * d * inverse(p)
            pieces = eigenspaces_of([m])
            expected = {
                Q(sympy.Rational(lam)): mult
                for lam, mult, _ in to_sympy(m).eigenvects()
            }
            assert {w[0]: b.dim for w, b in pieces} == expected


EIGENVALUES = (Q(-2), Q(-1), Q(0), Q(1), Q(2), Q(1, 2), Q(-3, 2))
SQRT2 = "sqrt2"  # the 2x2 companion block of x^2 - 2


def jordan_form(blocks) -> RatMatrix:
    """Block-diagonal matrix of Jordan blocks (lam, size) and SQRT2 blocks."""
    n = sum(2 if b == SQRT2 else b[1] for b in blocks)
    rows = [[Q(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        if b == SQRT2:
            rows[at][at + 1], rows[at + 1][at] = Q(2), Q(1)
            at += 2
            continue
        lam, size = b
        for i in range(at, at + size):
            rows[i][i] = lam
            if i + 1 < at + size:
                rows[i][i + 1] = Q(1)
        at += size
    return RatMatrix(rows)


def random_jordan_blocks(rng, size, lams=EIGENVALUES, max_block=6):
    blocks = []
    while size:
        k = rng.randint(1, min(size, max_block))
        blocks.append((rng.choice(lams), k))
        size -= k
    return blocks


def random_spectral_blocks(rng, kind):
    """Blocks of total size 1-6 of one kind of spectrum."""
    if kind == "repeated":
        # (lam, a) + (lam, b) with b < a, and mu of multiplicity 1 < k = a
        lam, mu = rng.sample(EIGENVALUES, 2)
        a = rng.randint(2, 4)
        b = rng.randint(1, min(a - 1, 5 - a))
        return [(lam, a), (lam, b), (mu, 1)]
    if kind == "nilpotent":
        return random_jordan_blocks(rng, rng.randint(1, 6), lams=(Q(0),))
    if kind == "diagonalizable":
        return random_jordan_blocks(rng, rng.randint(1, 6), max_block=1)
    if kind == "irrational":
        return [SQRT2] + random_jordan_blocks(rng, rng.randint(0, 4))
    return random_jordan_blocks(rng, rng.randint(1, 6))


def rand_rational_invertible(rng, n):
    while True:
        p = RatMatrix([[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            return p


def outcome(f, *args):
    """f(*args), or the type and message of the GradAlgError it raised."""
    try:
        return f(*args)
    except GradAlgError as exc:
        return type(exc), str(exc)


def eigen_split_bases(basis, op):
    """``_eigen_split`` of the dense ``op`` on the column space of
    ``basis``, with each piece as its canonical basis matrix, as
    ``kernel_eigen_split`` gives it."""
    return [(lam, basis_matrix(piece)) for lam, piece in _eigen_split(column_space(basis), op_rows(mat_transpose(op)))]


class TestSpectraAgainstOracles:
    """The generalized-eigenspace routine against the per-degree minimal
    polynomial, the Newton semisimple part and the per-root kernel split,
    on random rational conjugates P J P^-1 of Jordan forms J."""

    @pytest.mark.parametrize(
        "seed, kind",
        enumerate(("repeated", "nilpotent", "diagonalizable", "irrational", "mixed")),
    )
    def test_random_conjugated_jordan_forms(self, seed, kind):
        rng = random.Random(61 + seed)
        for _ in range(25):
            j = jordan_form(random_spectral_blocks(rng, kind))
            p = rand_rational_invertible(rng, j.rows)
            m = p * j * inverse(p)
            assert minimal_polynomial(op_rows(m)) == per_degree_minimal_polynomial(m)
            s = outcome(semisimple_of, m)
            assert s == outcome(newton_semisimple_part, m)
            split = outcome(eigen_split_bases, RatMatrix.identity(m.rows), m)
            assert split == outcome(kernel_eigen_split, RatMatrix.identity(m.rows), m)
            assert outcome(eigen_split_bases, p, m) == outcome(kernel_eigen_split, p, m)
            if kind == "repeated":
                assert s != m
                assert split == (NotDiagonalizableError, "minimal polynomial has a repeated root")
            elif kind == "nilpotent":
                assert s == zeros(m.rows, m.rows)
            elif kind == "diagonalizable":
                assert s == m
            elif kind == "irrational":
                assert s == (NonSplitError, "spectrum is not rational")

    def test_zero_by_zero_operators(self):
        assert minimal_polynomial([]) == (Q(1),)
        assert semisimple_part([]) == []
        assert sum(b.dim for _, b in simultaneous_eigenspaces([[]], Subspace.full(0))) == 0


def random_block(rng, kind):
    """One block of a block-diagonal operator: [0] ("zero"), a random
    scalar [a] ("scalar"), or a random rational conjugate P J P^-1 of a
    Jordan form of one kind of ``random_spectral_blocks``."""
    if kind == "zero":
        return RatMatrix([[0]])
    if kind == "scalar":
        return RatMatrix([[rng.choice(EIGENVALUES)]])
    j = jordan_form(random_spectral_blocks(rng, kind))
    p = rand_rational_invertible(rng, j.rows)
    return p * j * inverse(p)


def scattered_blocks(blocks, places) -> RatMatrix:
    """The direct sum of the square ``blocks``, block t on the sorted
    coordinates ``places[t]``."""
    n = sum(b.rows for b in blocks)
    rows = [[Q(0)] * n for _ in range(n)]
    for b, idx in zip(blocks, places):
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                rows[i][j] = b[r, c]
    return RatMatrix(rows)


def random_block_operator(rng, kinds):
    """A block-diagonal operator with one ``random_block`` per kind, under a
    random permutation of the coordinates: (matrix, the blocks'
    coordinates, sorted)."""
    blocks = [random_block(rng, kind) for kind in kinds]
    n = sum(b.rows for b in blocks)
    order = rng.sample(range(n), n)
    places, at = [], 0
    for b in blocks:
        places.append(sorted(order[at : at + b.rows]))
        at += b.rows
    return scattered_blocks(blocks, places), places


def coordinate_basis(n, idx) -> RatMatrix:
    """The unit vectors e_i, i in ``idx``, as the columns of an n-row matrix."""
    return RatMatrix.from_columns([[int(r == i) for r in range(n)] for i in idx], rows=n)


class TestBlocks:
    """The coordinate blocks of an operator, and the spectral routines run
    block by block against the dense oracles."""

    def test_blocks_of_small_operators(self):
        assert exactla._blocks([]) == []
        assert exactla._blocks(op_rows(RatMatrix.identity(3))) == [[0], [1], [2]]
        assert exactla._blocks(op_rows(zeros(2, 2))) == [[0], [1]]
        # one nonzero entry links i and j both ways, and chains merge
        m = [{3: Q(1)}, {}, {4: Q(2)}, {1: Q(-1)}, {}]
        assert exactla._blocks(m) == [[0, 1, 3], [2, 4]]
        assert exactla._blocks([{}, {}, {0: Q(5)}]) == [[0, 2], [1]]
        # a stored zero is no edge
        assert exactla._blocks([{1: Q(0)}, {}]) == [[0], [1]]

    def test_blocks_refine_the_placed_blocks(self):
        rng = random.Random(79)
        for _ in range(30):
            kinds = rng.choices(("zero", "scalar", "nilpotent", "repeated", "diagonalizable", "mixed"), k=rng.randint(1, 4))
            m, places = random_block_operator(rng, kinds)
            found = exactla._blocks(op_rows(m))
            assert sorted(i for b in found for i in b) == list(range(m.rows))
            assert [b[0] for b in found] == sorted(b[0] for b in found)
            assert all(b == sorted(b) and any(set(b) <= set(p) for p in places) for b in found)
            for kind, p in zip(kinds, places):
                if kind in ("zero", "scalar"):
                    assert [p[0]] in found

    @pytest.mark.parametrize(
        "kinds",
        [
            ("zero", "scalar", "zero", "scalar", "scalar"),
            ("zero", "scalar", "diagonalizable", "diagonalizable"),
            ("nilpotent", "zero", "scalar"),
            ("repeated", "scalar", "zero"),
            ("irrational", "scalar", "zero", "diagonalizable"),
            ("irrational", "repeated", "scalar"),
            ("mixed", "mixed", "zero"),
        ],
    )
    def test_block_operators_match_the_oracles(self, kinds):
        rng = random.Random(83 + len(kinds))
        for _ in range(8):
            m, places = random_block_operator(rng, kinds)
            n = m.rows
            s = outcome(semisimple_of, m)
            assert s == outcome(newton_semisimple_part, m)
            split = outcome(eigen_split_bases, RatMatrix.identity(n), m)
            assert split == outcome(kernel_eigen_split, RatMatrix.identity(n), m)
            # a coordinate subspace that m preserves: the span of some blocks
            chosen = sorted(i for p in rng.sample(places, rng.randint(1, len(places))) for i in p)
            basis = coordinate_basis(n, chosen)
            assert outcome(eigen_split_bases, basis, m) == outcome(kernel_eigen_split, basis, m)
            if "irrational" in kinds:
                assert s == (NonSplitError, "spectrum is not rational")
                assert split == (NonSplitError, "operator has an irrational eigenvalue")
            elif "repeated" in kinds:
                assert split == (NotDiagonalizableError, "minimal polynomial has a repeated root")
            elif "nilpotent" in kinds:
                assert s == scattered_blocks(
                    [zeros(len(p), len(p)) if k == "nilpotent" else submatrix(m, p, p) for k, p in zip(kinds, places)],
                    places,
                )
            elif "mixed" not in kinds:
                assert s == m

    @pytest.mark.parametrize("irrational_first", [True, False])
    def test_nonsplit_wins_over_not_diagonalizable(self, irrational_first):
        # a Jordan block and the companion block of x^2 - 2, in either
        # order of least index: every block's spectrum is read before the
        # repeated root is judged
        jordan, sqrt2 = jordan_form([(Q(1), 2)]), jordan_form([SQRT2])
        places = [[0, 2], [1, 3]] if irrational_first else [[1, 3], [0, 2]]
        m = scattered_blocks([sqrt2, jordan], places)
        assert exactla._blocks(op_rows(m)) == [[0, 2], [1, 3]]
        assert outcome(semisimple_of, m) == (NonSplitError, "spectrum is not rational")
        for basis in (RatMatrix.identity(4), coordinate_basis(4, [0, 1, 2, 3])):
            split = outcome(eigen_split_bases, basis, m)
            assert split == (NonSplitError, "operator has an irrational eigenvalue")
            assert split == outcome(kernel_eigen_split, basis, m)
        # without the irrational block the Jordan block is the verdict
        assert outcome(eigen_split_bases, coordinate_basis(4, places[1]), m) == (
            NotDiagonalizableError,
            "minimal polynomial has a repeated root",
        )

    def test_nonsplit_identity_component_of_sl6_symplectic(self):
        # ad x for an integer x in L_e = sp6 of sl6 graded by the symplectic
        # involution preserves L_e (21) and L_1 (14); the sp6 block has an
        # irreducible factor in its minimal polynomial
        gr = sl_involution_grading(6, True)
        l_e = gr.identity_component()
        assert l_e.sparse_vectors() == [{i: Q(1)} for i in range(21)]
        ad = gr.algebra.ad_rows({i: Q(i + 1) for i in range(21)})
        assert [len(b) for b in exactla._blocks(ad)] == [21, 14]
        with pytest.raises(NonSplitError, match="^spectrum is not rational$"):
            semisimple_part(ad)


#: fresh Lie gradings, so no memo hides a spectral call: every catalog
#: Lie entry and the helper gradings of the spectral and root tests
PIPELINE_GRADINGS = {
    **{
        name: lambda name=name: catalog._BUILDERS[name]().grading
        for name in catalog.catalog_names()
        if "lie" in catalog.get_catalog(name).grading.algebra.flags
    },
    "B2": lambda: classical_cartan_grading("B", 2),
    "C3": lambda: classical_cartan_grading("C", 3),
    "sl4-orthogonal": lambda: sl_involution_grading(4, alternating=False),
    "sl4-symplectic": lambda: sl_involution_grading(4, alternating=True),
    "sl5-orthogonal": lambda: sl_involution_grading(5, alternating=False),
}


class TestPipelineOperators:
    """The operators that the canonical refinement (the semisimple parts of
    ``afine._toral_part`` and the joint eigenspaces) and
    ``lieroot.weight_decomposition`` hand to ``exactla``, recorded on real
    gradings, against the dense oracles."""

    @pytest.mark.parametrize("name", sorted(PIPELINE_GRADINGS))
    def test_recorded_operators_match_the_oracles(self, name, monkeypatch):
        semisimple_inputs, joint_inputs = [], []

        def recording_semisimple(m):
            semisimple_inputs.append(m)
            return semisimple_part(m)

        def recording_joint(ops, space):
            joint_inputs.append((ops, space))
            return simultaneous_eigenspaces(ops, space)

        monkeypatch.setattr(afine, "semisimple_part", recording_semisimple)
        monkeypatch.setattr(afine, "simultaneous_eigenspaces", recording_joint)
        monkeypatch.setattr(lieroot, "simultaneous_eigenspaces", recording_joint)
        gr = PIPELINE_GRADINGS[name]()
        afine.canonical_refinement(gr)
        if gr.identity_component().dim:
            lieroot.extract_root_system(gr)
            assert any(space.dim == gr.dimension for _, space in joint_inputs)
        # a grading with D_e = 0 (b2-skew, a3-fine) has no Cartan candidate
        assert bool(semisimple_inputs) == (afine.toral_rank(gr).d_e.dim > 0)
        assert joint_inputs
        for m in semisimple_inputs:
            assert outcome(semisimple_of, rows_matrix(m)) == outcome(newton_semisimple_part, rows_matrix(m))
        for ops, space in joint_inputs:
            dense_ops = [rows_matrix(op) for op in ops]
            got = [(w, basis_matrix(piece)) for w, piece in simultaneous_eigenspaces(ops, space)]
            assert got == kernel_joint_eigenspaces(dense_ops, basis_matrix(space))


class TestSubspaceSplit:
    def test_coordinate_subspace_matches_restricted_split(self):
        # ops = T D_k T^-1 with T preserving span(e_i : i in idx): they
        # commute, are diagonalizable and preserve that coordinate subspace
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(1, 6)
            idx = sorted(rng.sample(range(n), rng.randint(1, n)))
            while True:
                t = RatMatrix(
                    [
                        [0 if i not in idx and j in idx else rng.randint(-3, 3) for j in range(n)]
                        for i in range(n)
                    ]
                )
                if rank(t) == n:
                    break
            ops = [
                t * diagonal([rng.choice((-1, 0, 2)) for _ in range(n)]) * inverse(t)
                for _ in range(rng.randint(0, 3))
            ]
            coords = span_of(n, [[int(i == k) for i in range(n)] for k in idx])
            restricted = [submatrix(op, idx, idx) for op in ops]
            expected = [
                (w, RatMatrix([[b[idx.index(i), j] if i in idx else 0 for j in range(b.cols)] for i in range(n)]))
                for w, b in ((w, basis_matrix(s)) for w, s in eigenspaces_of(restricted, Subspace.full(len(idx))))
            ]
            assert [(w, basis_matrix(s)) for w, s in eigenspaces_of(ops, coords)] == expected

    def test_unpreserved_basis_raises(self):
        op = RatMatrix([[1, 0], [1, 2]])
        with pytest.raises(ShapeError, match="operator does not preserve the space"):
            eigenspaces_of([op], span_of(2, [[1, 0]]))
        line = span_of(2, [[0, 1]])
        assert eigenspaces_of([op], line) == [((Q(2),), line)]

    @staticmethod
    def split_pieces(op, space):
        return [(w, basis_matrix(piece)) for (w,), piece in eigenspaces_of([op], space)]

    def test_invariant_subspaces_match_the_kernel_split(self):
        # m = P D P^-1 preserves the span of any subset of P's columns, a
        # subspace that is in general not a coordinate subspace
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 6)
            p = rand_rational_invertible(rng, n)
            m = p * diagonal([rng.choice(EIGENVALUES) for _ in range(n)]) * inverse(p)
            space = span_of(n, rng.sample(p.columns(), rng.randint(1, n)))
            expected = kernel_eigen_split(basis_matrix(space), m)
            assert self.split_pieces(m, space) == expected
            assert sum(b.cols for _, b in expected) == space.dim

    def test_random_subspaces_raise_exactly_when_the_oracle_does(self):
        rng = random.Random(73)
        preserved = set()
        for _ in range(80):
            j = jordan_form(random_spectral_blocks(rng, rng.choice(("diagonalizable", "mixed"))))
            n = j.rows
            p = rand_rational_invertible(rng, n)
            m = p * j * inverse(p)
            space = span_of(n, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, n))])
            if space.dim == 0:
                continue
            expected = outcome(kernel_eigen_split, basis_matrix(space), m)
            assert outcome(self.split_pieces, m, space) == expected
            preserved.add(expected != (ShapeError, "operator does not preserve the space"))
        assert preserved == {True, False}


class TestSmithNormalForm:
    def check_snf(self, m):
        # V is the oracle's: smith_normal_form does not build it
        res = smith_normal_form(m)
        s, u, v = chain_repaired_smith_normal_form(m)
        assert (res.S, res.U) == (s, u)
        assert res.U * m * v == res.S
        assert res.U * res.U_inv == res.U_inv * res.U == IntMatrix.identity(m.rows)
        assert abs(to_sympy(res.U).det()) == 1
        assert abs(to_sympy(v).det()) == 1
        d = res.diagonal()
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            # off-diagonal must vanish
        for i in range(res.S.rows):
            for j in range(res.S.cols):
                if i != j:
                    assert res.S[i, j] == 0
        return res

    def test_zero(self):
        res = self.check_snf(zeros(2, 3, IntMatrix))
        assert res.diagonal() == (0, 0)

    def test_diag_2_3(self):
        res = self.check_snf(IntMatrix([[2, 0], [0, 3]]))
        assert res.diagonal() == (1, 6)

    def test_2_4_6_8(self):
        res = self.check_snf(IntMatrix([[2, 4], [6, 8]]))
        assert res.diagonal() == (2, 4)

    def test_random_against_sympy(self):
        rng = random.Random(41)
        for _ in range(30):
            m = rand_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            res = self.check_snf(m)
            from sympy.matrices.normalforms import smith_normal_form as sym_snf

            sm = sym_snf(
                sympy.Matrix(m.data), domain=sympy.ZZ
            )
            k = min(m.rows, m.cols)
            theirs = tuple(abs(int(sm[i, i])) for i in range(k))
            assert res.diagonal() == theirs


    @staticmethod
    def snf_input(rng):
        # many zeros, a factor shared by every entry, negative entries, and
        # sometimes a row that repeats a multiple of another
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.choice((1, 1, 2, 3, 4, 6, 12))
        zeros = rng.random()
        data = [[0 if rng.random() < zeros else k * rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            data[-1] = [rng.randint(-3, 3) * x for x in data[0]]
        return IntMatrix(data)

    def test_matches_the_chain_repaired_oracle(self):
        rng = random.Random(2024)
        for trial in range(2000):
            m = self.snf_input(rng)
            res = smith_normal_form(m)
            s, u, v = chain_repaired_smith_normal_form(m)
            assert (res.S, res.U) == (s, u) and u * m * v == s, f"trial {trial}: {m}"
            assert res.U * res.U_inv == res.U_inv * res.U == IntMatrix.identity(m.rows), f"trial {trial}: {m}"


class TestHermite:
    def test_canonical_for_equal_lattices(self):
        a = IntMatrix.from_columns([[2, 0], [0, 3], [2, 3]])
        b = IntMatrix.from_columns([[2, 3], [2, -3], [4, 3]])
        # same lattice: second set generated by the first and vice versa
        ha, hb = column_hnf(a), column_hnf(b)
        assert ha == hb

    def test_membership(self):
        h = column_hnf(IntMatrix.from_columns([[2, 0], [0, 3]]))
        assert hnf_solve(h, [4, -3]) is not None
        assert hnf_solve(h, [1, 0]) is None
        assert hnf_solve(h, [2, 3]) is not None

    def test_random_lattice_props(self):
        rng = random.Random(43)
        for _ in range(25):
            m = rand_int_matrix(rng, 4, rng.randint(1, 5), -9, 9)
            h = column_hnf(m)
            # every generator is in the lattice spanned by the HNF columns
            for c in m.columns():
                assert hnf_solve(h, c) is not None
            # idempotent
            assert column_hnf(h) == h

    def test_integer_kernel(self):
        m = IntMatrix([[2, 4, 6]])
        k = integer_kernel(m)
        assert k.cols == 2
        assert not any(x for row in (m * k).data for x in row)
        # primitive: [2, -1, 0] must be expressible
        assert hnf_solve(k, [2, -1, 0]) is not None
        assert hnf_solve(k, [3, 0, -1]) is not None

    def test_injective_matrix_has_an_empty_kernel(self):
        # the kernel of an injective M is the HNF of no columns: cols x 0
        for m in (IntMatrix([[1, 0], [0, 2], [1, 1]]), IntMatrix([[3]]), IntMatrix.identity(4)):
            assert integer_kernel(m) == zeros(m.cols, 0, IntMatrix)
        assert column_hnf(zeros(3, 0, IntMatrix)) == zeros(3, 0, IntMatrix)
        assert column_hnf(zeros(3, 2, IntMatrix)) == zeros(3, 0, IntMatrix)

    def test_integer_kernel_random(self):
        rng = random.Random(47)
        for _ in range(20):
            m = rand_int_matrix(rng, 2, 4, -6, 6)
            k = integer_kernel(m)
            assert not any(x for row in (m * k).data for x in row)
            assert k.cols == 4 - rank(RatMatrix(m.data))

    def test_integer_kernel_matches_the_kernel_of_a_smith_form(self):
        # the former path: the last cols - rank columns of V, in canonical HNF
        rng = random.Random(53)
        for _ in range(300):
            rows, cols = rng.randint(0, 5), rng.randint(0, 7)
            m = IntMatrix([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)], cols)
            s, _, v = chain_repaired_smith_normal_form(m)
            r = sum(1 for i in range(min(rows, cols)) if s[i, i])
            assert integer_kernel(m) == column_hnf(IntMatrix.from_columns(v.columns()[r:], rows=cols)), m


def test_integer_rows_scale_by_the_lcm_of_the_denominators():
    assert _integer_row({0: 2, 1: 0, 4: -3}) == {0: 2, 4: -3}
    scaled = _integer_row({0: Q(1, 2), 2: Q(-2, 3), 3: 0, 5: 4})
    assert scaled == {0: 3, 2: -4, 5: 24} and all(type(x) is int for x in scaled.values())


def _lcm_integer_row(row):
    """``_integer_row`` with no int shortcut: every row scaled by the lcm of its denominators."""
    scale = math.lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items() if x}


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_integer_rows_match_the_lcm_scaling(kind):
    rng = random.Random(f"integer-row-{kind}")
    entries = {
        "int": lambda: rng.choice((0, rng.randint(-9, 9), rng.randint(-10**20, 10**20))),
        "fraction": lambda: Q(rng.randint(-9, 9), rng.randint(1, 12)),
        "mixed": lambda: rng.choice((0, rng.randint(-9, 9), Q(rng.randint(-9, 9), rng.randint(1, 12)))),
    }[kind]
    for trial in range(300):
        row = {c: entries() for c in rng.sample(range(20), rng.randint(0, 10))}
        before = dict(row)
        got = _integer_row(row)
        assert got == _lcm_integer_row(row) and list(got) == list(_lcm_integer_row(row)), (kind, trial, row)
        assert all(type(x) is int and x for x in got.values())
        # a fresh dict: _integer_echelon reduces it in place
        got[-1] = 1
        assert row == before and -1 not in row


def test_sources_use_no_floating_point():
    # exactness is the contract: no float conversions anywhere in the package
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        text = path.read_text()
        for token in ("**0.5", "float(", "round("):
            assert token not in text, f"{path.name} uses {token}"


def test_sources_divide_only_in_qdiv():
    # "/" on two ints is a float: every true division of program values goes through exactla.qdiv
    found = []
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        helper = set()
        for fn in ast.walk(tree):
            if path.name == "exactla.py" and isinstance(fn, ast.FunctionDef) and fn.name == "qdiv":
                helper = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                assert id(node) in helper, f"{path.name}:{node.lineno} divides with /"
                found.append(path.name)
    assert found == ["exactla.py"]


def test_sources_keep_one_vector_format():
    # vectors are sparse dicts and a Subspace keeps only its sparse columns:
    # no dense basis, no dense vector lists and no flat matrix round trips
    banned_calls = {"from_vectors", "vectors", "flatten"}
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                assert name not in banned_calls, f"{where} calls {name}"
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name")}
            assert "mat_from_flat" not in names, f"{where} uses mat_from_flat"
            assert not (isinstance(node, ast.Attribute) and node.attr == "basis"), f"{where} reads .basis"


def _enclosing_uses(tree: ast.AST, name: str, where: str = "<module>"):
    """The innermost enclosing function or class of each use of ``name``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if name in {getattr(node, attr, None) for attr in ("id", "attr", "name")}:
            yield where
        yield from _enclosing_uses(node, name, inner)


def test_sources_keep_ratmatrix_at_the_edges():
    # a dense RatMatrix only where a matrix enters the program, the CLI's parse of a basis
    # change, and in the two places perfbench's tracer reads one: the d x d matrix of (ad x)^d
    # that the Cartan search hands to nullspace, and the columns of _incremental_kernel
    allowed = {
        "afine.py": {"<module>", "cartan_candidates"},
        "grading.py": {"<module>", "_incremental_kernel"},
        "cli.py": {"<module>", "_basis_columns"},
    }
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        if path.name == "exactla.py":
            continue
        uses = set(_enclosing_uses(ast.parse(path.read_text()), "RatMatrix"))
        assert uses <= allowed.get(path.name, set()), f"{path.name}: RatMatrix in {sorted(uses)}"


def _dense_powers_and_adjoints(tree: ast.AST):
    """The line and name of each ``.power(`` call and each use of ``ad_matrix``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "power":
            yield node.lineno, ".power("
        if "ad_matrix" in {getattr(node, attr, None) for attr in ("id", "attr", "name")}:
            yield node.lineno, "ad_matrix"


def test_sources_take_operator_powers_and_adjoints_on_sparse_rows():
    # one operator format: a power is exactla.sparse_power and an adjoint is ad_rows; the dense
    # matrix ring keeps only its product
    snippet = "def ad_matrix(self, x):\n    pass\nnil = nullspace(alg.ad_matrix(x).power(d))\n"
    assert sorted(_dense_powers_and_adjoints(ast.parse(snippet))) == [(1, "ad_matrix"), (3, ".power("), (3, "ad_matrix")]
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        found = list(_dense_powers_and_adjoints(ast.parse(path.read_text())))
        assert not found, f"{path.name}: {found}"
    for name in ("power", "is_square", "__add__", "__sub__", "__neg__", "scale"):
        assert not hasattr(RatMatrix, name), name
    assert not hasattr(StructureAlgebra, "ad_matrix")


def test_sources_solve_only_in_exactla():
    # the dense rational solves are exactla's API for tests and tracing:
    # every other module solves over Z with the Smith form and over Q with
    # gauss_jordan or coordinate_reader
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        if path.name == "exactla.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                where = f"{path.name}:{node.lineno}"
                if isinstance(node.func, ast.Name):
                    assert node.func.id not in {"solve", "inverse", "rank"}, f"{where} calls {node.func.id}"
                elif isinstance(node.func, ast.Attribute):
                    assert node.func.attr != "to_rational", f"{where} calls to_rational"


#: the builders that read coordinates in a basis, with the position and name of that argument
_BASIS_ARGUMENT = {"coordinate_reader": (1, "vectors"), "coordinate_rows": (1, "vectors"), "subalgebra_structure": (1, "columns"), "algebra_from_matrices": (1, "matrices")}


def _bases_read_off_a_subspace(tree: ast.AST):
    """The line of each call of a builder in ``_BASIS_ARGUMENT`` whose basis
    argument calls ``.sparse_vectors()``: the vectors themselves, or a
    comprehension over them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in _BASIS_ARGUMENT:
                position, keyword = _BASIS_ARGUMENT[name]
                args = node.args[position : position + 1] + [k.value for k in node.keywords if k.arg == keyword]
                inner = (sub for arg in args for sub in ast.walk(arg))
                if any(isinstance(sub, ast.Attribute) and sub.attr == "sparse_vectors" for sub in inner):
                    yield node.lineno


def test_sources_pass_a_canonical_basis_as_its_subspace():
    # a Subspace is read at its pivots; its .sparse_vectors() as columns would be eliminated again
    snippet = """
coordinate_reader(n, space.sparse_vectors())
subalgebra_structure(alg, [dict(v) for v in l_e.sparse_vectors()], flags=["lie"])
algebra_from_matrices("d", matrices=[flat_operator(v, n) for v in d_e.sparse_vectors()])
algcore.subalgebra_structure(alg, columns=g_sub.sparse_vectors())
subalgebra_structure(alg, l_e, flags=["lie"])
algebra_from_matrices("d", d_e)
coordinate_reader(16, [flat_vector(m) for m in mats])
bracket_span(alg, h.sparse_vectors(), h.sparse_vectors())
"""
    assert list(_bases_read_off_a_subspace(ast.parse(snippet))) == [2, 3, 4, 5]
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        lines = list(_bases_read_off_a_subspace(ast.parse(path.read_text())))
        assert not lines, f"{path.name}:{lines} passes .sparse_vectors() as a basis"


def _unread_imports(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds in ``tree`` (``__future__`` aside) that no
    expression reads, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name: line for name, line in bound.items() if name not in read}


def test_sources_read_every_name_they_import():
    snippet = """
from __future__ import annotations
import os.path
import math as m
from .exactla import Subspace, flat_operator, nullspace as kernel
def f(x: Subspace) -> int:
    return m.isqrt(kernel(x).dim)
"""
    assert _unread_imports(ast.parse(snippet)) == {"os": 3, "flat_operator": 5}
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        assert not _unread_imports(ast.parse(path.read_text())), f"{path.name} imports names it never reads"


def test_cli_imports_without_sympy():
    # sympy is a test oracle only; a fresh interpreter shows transitive
    # imports that a scan of the sources would miss
    src = str(Path(gradalg.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import gradalg.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sources_use_no_bare_asserts():
    # cross-checks raise GradAlgError subclasses, so `python -O` keeps them
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "AssertionError" not in text, f"{path.name} uses AssertionError"
        tree = ast.parse(text)
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name

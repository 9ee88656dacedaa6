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
from gradalg import exactla, grading
from gradalg.exactla import (
    IntMatrix,
    RatMatrix,
    Subspace,
    _eigen_split,
    column_hnf,
    combine_rows,
    gauss_jordan,
    hnf_solve,
    integer_kernel,
    integer_solve,
    inverse,
    minimal_polynomial,
    nullspace,
    rank,
    rational_roots,
    rref,
    semisimple_part,
    simultaneous_eigenspaces,
    smith_normal_form,
    solve,
    sparse_nullspace,
    sparse_rows,
)

from helpers import (
    ROWS_PER_BLOCK,
    basis_matrix,
    blocked_kernel,
    chain_repaired_smith_normal_form,
    column_vector,
    dense_column_echelon,
    dense_nullspace,
    dense_rref,
    dense_subspace_intersection,
    diagonal,
    flatten,
    fraction_gauss_jordan,
    kernel_eigen_split,
    mat_transpose,
    newton_semisimple_part,
    op_rows,
    per_degree_minimal_polynomial,
    poly_product,
    rational_solve,
    rows_matrix,
    single_integer_solve,
    span_of,
    submatrix,
    sympy_rational_roots,
    vectors,
    zeros,
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
    """``simultaneous_eigenspaces`` of dense matrices."""
    return simultaneous_eigenspaces([op_rows(op) for op in ops], space)


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
        assert (a + a) == a.scale(2)
        assert a - a == zeros(2, 2) == a.scale(0)
        assert -a == a.scale(-1)

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

    def test_power(self):
        a = RatMatrix([[1, 1], [0, 1]])
        assert a.power(5) == RatMatrix([[1, 5], [0, 1]])
        assert a.power(0) == RatMatrix.identity(2)


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
            assert all(type(x) is Q for row in got.values() for x in row.values()), f"trial {trial}"
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
        assert a.add(b) == Subspace.full(3)

    def test_intersection_random(self):
        rng = random.Random(23)
        for _ in range(20):
            a = column_space(rand_rat_matrix(rng, 5, 3))
            b = column_space(rand_rat_matrix(rng, 5, 3))
            inter = a.intersect(b)
            for v in vectors(inter):
                assert in_span(basis_matrix(a), v) and in_span(basis_matrix(b), v)
            # dim(A) + dim(B) = dim(A+B) + dim(A∩B)
            assert a.dim + b.dim == a.add(b).dim + inter.dim

    def test_one_elimination_per_canonical_basis(self, monkeypatch):
        # a canonical basis is the result of one gauss_jordan, taken as it is;
        # a kernel adds one elimination of its system
        calls = []
        real = exactla.gauss_jordan

        def counting(rows, ncols, max_rank=None):
            calls.append(ncols)
            return real(rows, ncols, max_rank)

        monkeypatch.setattr(exactla, "gauss_jordan", counting)
        m = RatMatrix([[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2]])

        def eliminations(build):
            calls.clear()
            build()
            return len(calls)

        a = span_of(4, [[1, 2, 0, 1], [0, 0, 1, 1]])
        b = span_of(4, [[1, 0, 0, 0], [0, 0, 1, 1]])
        assert eliminations(lambda: span_of(4, m.data)) == 1
        assert eliminations(lambda: a.add(b)) == 1
        assert eliminations(lambda: nullspace(m)) == 2
        assert eliminations(lambda: sparse_nullspace(4, sparse_rows(m.data))) == 2
        # rows of full rank stop at the last pivot: the kernel is the zero space, with no second elimination
        assert eliminations(lambda: sparse_nullspace(2, [{0: Q(1)}, {1: Q(1)}, {0: Q(1)}])) == 1
        assert sparse_nullspace(2, [{0: Q(1)}, {1: Q(1)}]) == Subspace(2, {})
        assert eliminations(lambda: a.intersect(b)) == 2
        assert eliminations(lambda: Subspace.full(4)) == 0


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
            nilp = m - s
            # s commutes with m, s is diagonalizable, m - s is nilpotent
            assert s * m == m * s
            assert nilp.power(n) == zeros(n, n)
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
            br = h * b - b * h
            coords = solve(
                RatMatrix.from_columns([flatten(x) for x in basis], rows=9),
                column_vector(flatten(br)),
            )
            ad.append(coords.column(0))
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
        with pytest.raises(ShapeError):
            simultaneous_eigenspaces([])

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
        for space in (None, Subspace.full(0)):
            assert sum(b.dim for _, b in simultaneous_eigenspaces([[]], space)) == 0


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
        res = smith_normal_form(m)
        assert res.U * m * res.V == res.S
        assert res.U * res.U_inv == res.U_inv * res.U == IntMatrix.identity(m.rows)
        assert abs(to_sympy(res.U).det()) == 1
        assert abs(to_sympy(res.V).det()) == 1
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
        res = self.check_snf(IntMatrix.zeros(2, 3))
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
            assert (res.S, res.U, res.V) == chain_repaired_smith_normal_form(m), f"trial {trial}: {m}"
            assert res.U * res.U_inv == res.U_inv * res.U == IntMatrix.identity(m.rows), f"trial {trial}: {m}"


class TestIntegerSolve:
    def test_one_smith_form_matches_one_solve_per_vector(self, monkeypatch):
        rng = random.Random(53)
        calls = []
        monkeypatch.setattr(exactla, "smith_normal_form", lambda a: calls.append(a) or smith_normal_form(a))
        unsolvable = 0
        for trial in range(200):
            m = TestSmithNormalForm.snf_input(rng)
            vs = [m.matvec([rng.randint(-3, 3) for _ in range(m.cols)]) for _ in range(2)]
            vs += [[rng.randint(-5, 5) for _ in range(m.rows)] for _ in range(2)]
            expected = [single_integer_solve(m, v) for v in vs]
            assert integer_solve(m, vs) == expected, f"trial {trial}: {m}"
            assert all(x is None or m.matvec(x) == tuple(v) for v, x in zip(vs, expected))
            unsolvable += expected.count(None)
        assert len(calls) == 200
        assert unsolvable > 0

    def test_vector_length_is_checked(self):
        with pytest.raises(ShapeError):
            integer_solve(IntMatrix([[1, 2]]), [[1], [1, 2]])


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
            assert integer_kernel(m) == IntMatrix.zeros(m.cols, 0)
        assert column_hnf(IntMatrix.zeros(3, 0)) == IntMatrix.zeros(3, 0)
        assert column_hnf(IntMatrix.zeros(3, 2)) == IntMatrix.zeros(3, 0)

    def test_integer_kernel_random(self):
        rng = random.Random(47)
        for _ in range(20):
            m = rand_int_matrix(rng, 2, 4, -6, 6)
            k = integer_kernel(m)
            assert not any(x for row in (m * k).data for x in row)
            assert k.cols == 4 - rank(RatMatrix(m.data))


def test_sources_use_no_floating_point():
    # exactness is the contract: no float conversions anywhere in the package
    for path in Path(gradalg.__file__).parent.glob("*.py"):
        text = path.read_text()
        for token in ("**0.5", "float(", "round("):
            assert token not in text, f"{path.name} uses {token}"


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

"""Randomized property suites (deterministic seeds, >= 200 trials each).

Each suite checks a library computation against an independent
reimplementation or a structural invariant on a stream of small random
instances.
"""

import random
from fractions import Fraction as Q

import sympy

from gradalg.abgroup import FgAbGroup, enumerate_subgroups
from gradalg.afine import canonical_refinement, is_almost_fine, toral_rank
from gradalg.algcore import StructureAlgebra, MultilinearOp, derivation_algebra
from gradalg.catalog import catalog_names, get_catalog
from gradalg.exactla import IntMatrix, RatMatrix, smith_normal_form
from gradalg.grading import Grading, graded_derivations, universal_abelian_group

from helpers import (
    all_abelian_groups_up_to,
    build_sl2_efh,
    chain_repaired_smith_normal_form,
    dense_graded_derivations,
    dense_nullspace,
    full_subgroup,
    graded_parts,
    random_graded_algebra,
    sparse,
)


class TestSmithNormalForm:
    def test_random_matrices(self):
        rng = random.Random(20240501)
        for trial in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = IntMatrix(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            )
            # V is the oracle's: smith_normal_form does not build it
            res = smith_normal_form(m)
            s, u, v = chain_repaired_smith_normal_form(m)
            assert (res.S, res.U) == (s, u), f"trial {trial}"
            assert res.U * m * v == res.S, f"trial {trial}"
            assert abs(_det(res.U)) == 1 and abs(_det(v)) == 1
            d = res.diagonal()
            assert all(x >= 0 for x in d)
            for a, b in zip(d, d[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0


def _det(m: IntMatrix) -> int:
    return sympy.Matrix(m.data).det()


def _random_algebra(rng: random.Random, n: int) -> StructureAlgebra:
    tensor = {}
    for _ in range(rng.randint(1, 2 * n)):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        c = Q(rng.randint(-3, 3))
        if c:
            tensor.setdefault((i, j), {})
            tensor[(i, j)][k] = tensor[(i, j)].get(k, Q(0)) + c
    tensor = {
        key: {k: c for k, c in vec.items() if c} for key, vec in tensor.items()
    }
    tensor = {key: vec for key, vec in tensor.items() if vec}
    return StructureAlgebra("random", n, [MultilinearOp("mul", 2, tensor)], [])


def _dense_derivations(alg: StructureAlgebra) -> RatMatrix:
    """Independent oracle: nullspace of the fully materialized Leibniz
    system, unknowns = flattened endomorphism."""
    n = alg.dimension
    rows = []
    for i in range(n):
        ei = alg.basis_vector(i)
        for j in range(n):
            ej = alg.basis_vector(j)
            cij = alg.bracket(ei, ej)
            for r in range(n):
                row = [Q(0)] * (n * n)
                # (D c_ij)_r
                for c in range(n):
                    row[r * n + c] += cij.get(c, 0)
                # -(D e_i . e_j)_r - (e_i . D e_j)_r
                for s in range(n):
                    es = alg.basis_vector(s)
                    left = alg.bracket(es, ej)
                    row[s * n + i] -= left.get(r, 0)
                    right = alg.bracket(ei, es)
                    row[s * n + j] -= right.get(r, 0)
                rows.append(row)
    return dense_nullspace(RatMatrix(rows))


class TestDerivationsOracle:
    def test_random_algebras(self):
        rng = random.Random(987)
        for trial in range(200):
            n = rng.randint(3, 5)
            alg = _random_algebra(rng, n)
            computed = derivation_algebra(alg).space
            oracle = _dense_derivations(alg)
            assert computed.dim == oracle.cols, f"trial {trial}"
            for j in range(oracle.cols):
                assert computed.contains(sparse(oracle.column(j))), f"trial {trial}"


class TestUniversalGroupSection:
    def test_alpha_iota_is_inclusion(self):
        # alpha is the hom from support images that sends each s to itself
        rng = random.Random(13)
        gradings = [get_catalog(name).grading for name in catalog_names()]
        trials = 0
        for gr in gradings:
            u = universal_abelian_group(gr)
            assert u.alpha == u.hom_from_support_images(gr.group, {s: s for s in gr.support})
            for s in gr.support:
                assert u.alpha(u.iota[s]) == s
                trials += 1
        while trials < 200:
            gr = random_graded_algebra(rng)
            u = universal_abelian_group(gr)
            assert u.alpha == u.hom_from_support_images(gr.group, {s: s for s in gr.support})
            for s in gr.support:
                assert u.alpha(u.iota[s]) == s
                trials += 1
        assert trials >= 200


class TestRoutedDerivationsOracle:
    """graded_derivations against the dense per-degree solve."""

    def test_random_gradings(self):
        rng = random.Random(2718)
        for trial in range(200):
            gr = random_graded_algebra(rng)
            assert graded_parts(graded_derivations(gr)) == graded_parts(
                dense_graded_derivations(gr)
            ), f"trial {trial}"

    def test_random_gradings_with_a_ternary_operation(self):
        rng = random.Random(31415)
        for trial in range(60):
            gr = random_graded_algebra(rng, ternary=True)
            assert graded_parts(graded_derivations(gr)) == graded_parts(
                dense_graded_derivations(gr)
            ), f"trial {trial}"


class TestAlmostFineStability:
    def test_refinements_preserve_almost_fine(self):
        # every refinement of an almost fine grading is almost fine with
        # the same toral rank
        b2 = get_catalog("b2-skew")
        pairs = [
            (get_catalog("cartan-sl2").grading, None),
            (get_catalog("pauli-m2").grading, None),
            (b2.grading, b2.companions["fine"]),
        ]
        trials = 0
        for base, refinement in pairs:
            base_trank = toral_rank(base).trank
            if refinement is None:
                refinement = canonical_refinement(base).refined
            for seed in range(67):
                cert = is_almost_fine(refinement, seed=seed)
                assert cert.almost_fine
                assert cert.trank == base_trank
                trials += 1
        assert trials >= 200


class TestCanonicalRefinementTorusIndependence:
    def test_two_seeds_agree(self):
        # different generic tori give the same component data and group
        sl2 = build_sl2_efh()
        z2 = FgAbGroup(0, [2])
        parity = Grading(
            sl2,
            z2,
            [z2.element([0]), z2.element([1]), z2.element([1])],
            [sparse(c) for c in ([0, 1, 0], [1, 0, 1], [1, 0, -1])],
        )
        inv = get_catalog("sl3-involution").grading
        rng = random.Random(5)
        trials = 0
        for gr, budget in ((parity, 190), (inv, 12)):
            baseline = None
            for _ in range(budget):
                seed = rng.randrange(10**6)
                res = canonical_refinement(gr, seed=seed)
                data = sorted(
                    (c.dim, res.coarsening(g).coords)
                    for g, c in res.refined.components().items()
                )
                key = (res.refined.group, data,
                       universal_abelian_group(res.refined).group)
                if baseline is None:
                    baseline = key
                assert key == baseline
                trials += 1
        assert trials >= 200


def _brute_force_subgroup_count(g: FgAbGroup) -> int:
    elems = [e.coords for e in g.elements()]
    index = {c: i for i, c in enumerate(elems)}
    add = [
        [index[(g.element(list(a)) + g.element(list(b))).coords] for b in elems]
        for a in elems
    ]
    zero = index[g.identity().coords]
    cyclic = []
    for i in range(len(elems)):
        mask, cur = 1 << zero, i
        while not (mask >> cur) & 1:
            mask |= 1 << cur
            cur = add[cur][i]
        cyclic.append((i, mask))
    subgroups = {1 << zero}
    frontier = [1 << zero]
    while frontier:
        h = frontier.pop()
        for i, cmask in cyclic:
            if (h >> i) & 1:
                continue
            # the join of two subgroups of an abelian group is the sumset
            j = 0
            hx = h
            while hx:
                a = (hx & -hx).bit_length() - 1
                hx &= hx - 1
                cx = cmask
                while cx:
                    b = (cx & -cx).bit_length() - 1
                    cx &= cx - 1
                    j |= 1 << add[a][b]
            if j not in subgroups:
                subgroups.add(j)
                frontier.append(j)
    return len(subgroups)


class TestSubgroupEnumeration:
    def test_all_orders_up_to_64(self):
        count = 0
        for g in all_abelian_groups_up_to(64):
            expected = _brute_force_subgroup_count(g)
            got = len(enumerate_subgroups(full_subgroup(g), cap=10**5))
            assert got == expected, f"{g}"
            count += 1
        assert count >= 100  # every abelian group of order <= 64

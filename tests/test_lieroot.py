"""Root-system extraction and root-graded decompositions."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction as Q
from itertools import islice, product

import pytest
import sympy

from gradalg import algcore, cli, lieroot
from gradalg.abgroup import FgAbGroup
from gradalg.afine import canonical_refinement, cartan_candidates
from gradalg.algcore import Subspace, algebra_to_dict
from gradalg.catalog import catalog_names, get_catalog
from gradalg.cli import catalog_workspace, grading_to_dict, main, parse_workspace
from gradalg.errors import (
    IdentityComponentNotCartan,
    SectionInvalid,
    VerificationFailure,
)
from gradalg.exactla import nullspace
from gradalg.grading import Grading, universal_abelian_group
from gradalg.lieroot import (
    _dynkin_type,
    _proportional,
    _wscale,
    analyze_root_system,
    extract_root_system,
    is_non_special,
    root_graded_structure,
    verify_phi_grading,
    weight_decomposition,
)

from helpers import (
    cartan_matrix_of_vectors,
    classical_cartan_grading,
    coarse_labels_by_spans,
    dense_ad,
    dense_power,
    dense_root_coords,
    dim_step_nilpotent,
    direct_sum_grading,
    is_canonical,
    is_closed_subspace,
    permutation_cartan_type,
    probed_cartan_number,
    rebased_is_cartan_in,
    reference_simple_roots,
    reflection_closure,
    rows_matrix,
    signed_permutation,
    sl_involution_grading,
    sparse,
    span_of,
    vectors,
)
from test_lie_pins import INPUTS as LIE_PIN_INPUTS


def test_weight_ratios_and_scalings_are_canonical():
    # exact quotients: an int when integral, never a float
    ratios = [_proportional((2, -4, 0), (1, -2, 0)), _proportional((1, 0), (2, 0)), _proportional((-3,), (Q(3, 2),))]
    assert ratios == [2, Q(1, 2), -2] and all(map(is_canonical, ratios))
    assert _proportional((1, 1), (1, 2)) is None and _proportional((1, 0), (0, 1)) is None
    halved = _wscale(Q(1, 2), (2, -2, 0, 1)) + _wscale(2, (Q(1, 2), 3))
    assert halved == (1, -1, 0, Q(1, 2), 1, 6) and all(map(is_canonical, halved))


def trivial_grading(alg):
    g = FgAbGroup(0, ())
    return Grading(alg, g, [g.identity()] * alg.dimension)


class TestNonSpecial:
    def test_cartan_gradings(self):
        assert is_non_special(get_catalog("cartan-sl3").grading)
        assert is_non_special(get_catalog("cartan-sl2").grading)

    def test_involution(self):
        assert is_non_special(get_catalog("sl3-involution").grading)

    def test_special_examples(self):
        assert not is_non_special(get_catalog("b2-skew").grading)
        assert not is_non_special(get_catalog("a3-fine").grading)


class TestAnalyzeRootSystem:
    def test_a2(self):
        phi = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
        rep = analyze_root_system([tuple(map(Q, a)) for a in phi])
        assert rep.type_label == "A2"
        assert rep.reduced and rep.irreducible
        assert rep.reflection_closure and rep.integral_cartan
        assert len(rep.simple_roots) == 2

    def test_b2(self):
        phi = [(1, 0), (0, 1), (1, 1), (1, 2)]
        phi = phi + [tuple(-x for x in a) for a in phi]
        rep = analyze_root_system([tuple(map(Q, a)) for a in phi])
        assert rep.type_label == "B2"

    def test_g2(self):
        phi = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        phi = phi + [tuple(-x for x in a) for a in phi]
        rep = analyze_root_system([tuple(map(Q, a)) for a in phi])
        assert rep.type_label == "G2"

    def test_bc1_and_bc2(self):
        rep = analyze_root_system([(Q(1),), (Q(-1),), (Q(2),), (Q(-2),)])
        assert rep.type_label == "BC1" and not rep.reduced
        phi = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)]
        phi = phi + [tuple(-x for x in a) for a in phi]
        rep2 = analyze_root_system([tuple(map(Q, a)) for a in phi])
        assert rep2.type_label == "BC2"

    def test_not_reflection_closed(self):
        rep = analyze_root_system([(Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1))])
        assert not rep.reflection_closure
        assert rep.type_label is None

    def test_reducible(self):
        phi = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        rep = analyze_root_system([tuple(map(Q, a)) for a in phi])
        assert not rep.irreducible and rep.type_label == "A1+A1"
        assert rep.root_coords and rep.root_coords == dense_root_coords(rep)

    def test_reducible_with_a_doubled_component(self):
        # BC1 on the first coordinate, A1 on the second, and B2 beside BC1
        phi = [(1, 0), (2, 0), (0, 1)]
        rep = analyze_root_system([tuple(Q(s * x) for x in a) for a in phi for s in (1, -1)])
        assert not rep.irreducible and not rep.reduced and rep.type_label == "A1+BC1"
        phi = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (0, 0, 2)]
        rep = analyze_root_system([tuple(Q(s * x) for x in a) for a in phi for s in (1, -1)])
        assert rep.type_label == "BC1+B2" and rep.rank == 3
        assert rep.root_coords == dense_root_coords(rep)

    def test_root_coords_of_random_linear_images(self):
        # A2, B2, G2 and BC2 under seeded injective maps Q^2 -> Q^2 or Q^3
        rng = random.Random(11)
        systems = [
            [(1, 0), (0, 1), (1, 1)],
            [(1, 0), (0, 1), (1, 1), (1, 2)],
            [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)],
            [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)],
        ]
        labelled = 0
        for _ in range(40):
            positive = rng.choice(systems)
            dim = rng.choice((2, 3))
            while True:
                rows = [(Q(rng.randint(-3, 3), rng.randint(1, 3)), Q(rng.randint(-3, 3))) for _ in range(dim)]
                if any(r[0] * s[1] != r[1] * s[0] for r in rows for s in rows):
                    break
            phi = [tuple(sg * (x * a + y * b) for x, y in rows) for a, b in positive for sg in (1, -1)]
            rep = analyze_root_system(phi, seed=rng.randrange(100))
            labelled += rep.type_label is not None
            assert rep.root_coords == dense_root_coords(rep)
        assert labelled == 40

    def test_dependent_simple_roots(self):
        # A3 under a linear map Q^3 -> Q^2 that keeps every root string:
        # the strings give the A3 Cartan matrix, but its three simple roots
        # are dependent, so the weights are not a root system in their span
        positive = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
        phi = [(Q(s * (a + 7 * c)), Q(s * (b + 3 * c))) for a, b, c in positive for s in (1, -1)]
        rep = analyze_root_system(phi)
        assert rep.integral_cartan and rep.reflection_closure and len(rep.simple_roots) == 3
        assert rep.type_label is None
        assert rep.root_coords == {} and rep.short_roots == ()

    @pytest.mark.parametrize(
        "label", ["A3", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2", "E6"]
    )
    def test_short_roots_are_the_least_euclidean_length(self, label):
        # the roots by reflection closure of the reference simple roots,
        # their lengths by the Euclidean inner product
        phi = reflection_closure(reference_simple_roots(label[0], int(label[1:])))
        rep = analyze_root_system(phi)
        assert rep.type_label == label
        lengths = {a: sum(x * x for x in a) for a in phi}
        least = min(lengths.values())
        expected = {a for a in phi if lengths[a] == least} if len(set(lengths.values())) == 2 else set()
        assert set(rep.short_roots) == expected
        assert len(rep.short_roots) == len(set(rep.short_roots))


def bonded(r: int, bonds) -> tuple:
    """The r x r matrix with 2 on the diagonal and, for each (i, j, a, b)
    in ``bonds``, entries (i, j) = -a and (j, i) = -b."""
    cm = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, a, b in bonds:
        cm[i][j], cm[j][i] = -a, -b
    return tuple(map(tuple, cm))


def chain(*nodes) -> list:
    """Simple bonds along the path through ``nodes``."""
    return [(i, j, 1, 1) for i, j in zip(nodes, nodes[1:])]


def shuffled(cm: tuple, perm) -> tuple:
    return tuple(tuple(cm[i][j] for j in perm) for i in perm)


def block_sum(*cms) -> tuple:
    r = sum(map(len, cms))
    out, at = [[0] * r for _ in range(r)], 0
    for cm in cms:
        for i, row in enumerate(cm):
            out[at + i][at : at + len(row)] = row
        at += len(cm)
    return tuple(map(tuple, out))


def reference_cartan(label: str) -> tuple:
    return cartan_matrix_of_vectors(reference_simple_roots(label[0], int(label[1:])))


FINITE_TYPES = (
    [f"A{r}" for r in range(1, 10)]
    + [f"B{r}" for r in range(2, 10)]
    + [f"C{r}" for r in range(3, 10)]
    + [f"D{r}" for r in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class TestDynkinReader:
    """``_dynkin_type`` against the permutation matcher it replaced, on
    every connected type under seeded shuffles of the simple roots, and on
    matrices of no finite type."""

    @pytest.mark.parametrize("label", FINITE_TYPES)
    def test_matches_the_permutation_oracle_under_shuffles(self, label):
        cm = reference_cartan(label)
        assert permutation_cartan_type(cm) == label
        r, rng = len(cm), random.Random(label)
        for _ in range(3):
            perm = rng.sample(range(r), r)
            assert _dynkin_type(shuffled(cm, perm), set()) == label
            if r <= 5:  # the oracle tries all r! orderings
                assert permutation_cartan_type(shuffled(cm, perm)) == label

    @pytest.mark.parametrize(
        "cm",
        [
            bonded(3, chain(0, 1, 2, 0)),
            bonded(5, chain(1, 0, 2) + chain(3, 0, 4)),
            bonded(7, chain(1, 2, 0, 3, 4) + chain(0, 5, 6)),
            bonded(9, chain(1, 0, 2, 3) + chain(0, 4, 5, 6, 7, 8)),
            bonded(5, chain(0, 1) + [(1, 2, 2, 1)] + chain(2, 3, 4)),
            bonded(3, [(0, 1, 3, 1)] + chain(1, 2)),
            bonded(2, [(0, 1, -1, -1)]),
            bonded(2, [(0, 1, 1, 0)]),
            bonded(2, [(0, 1, 2, 2)]),
            bonded(2, [(0, 1, 4, 1)]),
            bonded(4, chain(0, 1) + [(1, 2, 2, 1), (2, 3, 2, 1)]),
            bonded(4, [(0, 1, 2, 1)] + chain(1, 2) + chain(1, 3)),
            ((3, -1), (-1, 2)),
        ],
        ids=[
            "A2-cycle", "D4-four-arms", "arms-2-2-2", "arms-1-2-5", "double-bond-inside-5-path",
            "triple-bond-rank-3", "positive-entry", "asymmetric-zero", "bond-2-2", "bond-4-1",
            "two-double-bonds", "double-bond-and-branch", "diagonal-3",
        ],
    )
    def test_no_finite_type(self, cm):
        assert _dynkin_type(cm, set()) is None
        assert _dynkin_type(block_sum(reference_cartan("A1"), cm), set()) is None

    def test_doubled_components(self):
        # BC_r is B_r or A1 with doubled roots; any other doubled type is none
        b3, c3, a1, a2 = (reference_cartan(x) for x in ("B3", "C3", "A1", "A2"))
        assert _dynkin_type(b3, {0}) == "BC3" and _dynkin_type(a1, {0}) == "BC1"
        assert _dynkin_type(c3, {2}) is None and _dynkin_type(a2, {1}) is None
        assert _dynkin_type(block_sum(a2, b3), {4}) == "A2+BC3"
        assert _dynkin_type(block_sum(a2, b3), {0}) is None

    def test_reducible_labels_are_sorted_by_rank_then_letter(self):
        rng = random.Random(31)
        for parts, label in [
            (("B2", "A2"), "A2+B2"),
            (("A2", "A1"), "A1+A2"),
            (("G2", "A1", "E6", "B2", "A2", "A1"), "A1+A1+A2+B2+G2+E6"),
            (("D4", "C3", "F4", "B3"), "B3+C3+D4+F4"),
        ]:
            cm = block_sum(*map(reference_cartan, parts))
            for _ in range(3):
                perm = rng.sample(range(len(cm)), len(cm))
                assert _dynkin_type(shuffled(cm, perm), set()) == label


class TestExtractRootSystem:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cartan_sln(self, n):
        wd, rep = extract_root_system(get_catalog(f"cartan-sl{n}").grading)
        assert rep.type_label == f"A{n-1}"
        assert len(rep.phi) == n * (n - 1)
        assert all(wd.spaces[a].dim == 1 for a in rep.phi)
        assert wd.zero_space().dim == n - 1

    def test_sl3_involution_bc1(self):
        entry = get_catalog("sl3-involution")
        wd, rep = extract_root_system(entry.grading)
        assert rep.type_label == "BC1"
        dims = sorted(wd.spaces[a].dim for a in rep.phi)
        assert dims == [1, 1, 2, 2]
        assert wd.zero_space().dim == 2

    def test_sl3_involution_spectrum_oracle(self):
        # independent check: the weights and multiplicities must agree with
        # the spectrum of ad diag(1,0,-1), whose eigenvalues on sl3 are the
        # entry differences
        entry = get_catalog("sl3-involution")
        alg = entry.grading.algebra
        h = [0, 0, 1, 0, 0, 0, 0, 0]  # third basis vector is diag(1,0,-1)
        ad = sympy.Matrix(
            [[sympy.Rational(x) for x in row] for row in dense_ad(alg, h).data]
        )
        spectrum = {}
        for ev, mult in ad.eigenvals().items():
            spectrum[sympy.Rational(ev)] = mult
        assert spectrum == {0: 2, 1: 2, -1: 2, 2: 1, -2: 1}
        wd, _ = extract_root_system(entry.grading)
        computed = sorted((w[0], wd.spaces[w].dim) for w in wd.phi)
        # weights are reported up to a scaling of the toral generator, so
        # compare the multiplicity pattern by proportion
        scale = Q(max(abs(w) for w, _ in computed), 2)
        assert sorted((w / scale, d) for w, d in computed) == [
            (-2, 1),
            (-1, 2),
            (1, 2),
            (2, 1),
        ]

    def test_b2_full_cartan(self):
        # Cartan grading of the 10-dim algebra, built from the weight
        # decomposition under the split torus span(E11 x i, E22 x i)
        alg = get_catalog("b2-skew").grading.algebra
        h = span_of(10, [[1] + [0] * 9, [0, 0, 0, 1] + [0] * 6])
        wd = weight_decomposition(alg, h)
        z2 = FgAbGroup(2, ())
        cols, degrees = [], []
        for w in wd.weights:
            for v in vectors(wd.spaces[w]):
                cols.append(sparse(v))
                degrees.append(z2.element([int(x) for x in w]))
        gr = Grading(alg, z2, degrees, cols)
        wd2, rep = extract_root_system(gr)
        assert rep.type_label == "B2"
        assert len(rep.phi) == 8
        assert all(wd2.spaces[a].dim == 1 for a in rep.phi)

    def test_trivial_grading_probes_split_cartan(self):
        # a generic Cartan element of the whole algebra has an irrational
        # spectrum; the candidate stream keeps probing until it reaches a
        # split Cartan subalgebra (here span(E11 x i, E22 x i))
        alg = get_catalog("b2-skew").grading.algebra
        wd, rep = extract_root_system(trivial_grading(alg))
        assert rep.type_label == "B2"
        assert len(rep.phi) == 8

    def test_special_is_refused(self):
        with pytest.raises(VerificationFailure):
            extract_root_system(get_catalog("a3-fine").grading)


class TestVerifyPhiGrading:
    def test_sl3_self(self):
        gr = get_catalog("cartan-sl3").grading
        alg = gr.algebra
        h = gr.identity_component()
        check = verify_phi_grading(alg, Subspace.full(8), h)
        assert check.ok
        assert check.phi == check.phi_prime

    def test_involution_even_part(self):
        gr = get_catalog("sl3-involution").grading
        alg = gr.algebra
        even = gr.identity_component()
        h = span_of(8, [[0, 0, 1, 0, 0, 0, 0, 0]])
        check = verify_phi_grading(alg, even, h)
        assert check.ok
        assert len(check.phi_prime) == 2 and len(check.phi) == 4

    def test_non_simple_subalgebra(self):
        gr = get_catalog("cartan-sl3").grading
        h = gr.identity_component()
        check = verify_phi_grading(gr.algebra, h, h)  # abelian: not simple
        assert not check.ok
        assert check.failures[0][0] == "i"

    def test_not_closed_subspace(self):
        gr = get_catalog("cartan-sl3").grading
        h = gr.identity_component()
        # [E_01, E_12] = E_02 leaves h + span(E_01, E_12)
        g_sub = Subspace.span(8, h.sparse_vectors() + [{0: 1}, {3: 1}])
        check = verify_phi_grading(gr.algebra, g_sub, h)
        assert not check.ok
        assert check.failures == (
            ("i", "not a subalgebra: subspace is not closed under an operation"),
        )


class TestRootGradedStructure:
    def test_sl3_self(self):
        gr = get_catalog("cartan-sl3").grading
        res = root_graded_structure(gr, gr)
        assert res.dims == ((8, 1), (0, 0), (0, 0))
        assert res.pieces[3].dim == 0
        (dg, da), (ds, db), (dw, dc) = res.dims
        assert dg * da + ds * db + dw * dc + res.pieces[3].dim == res.g_sub.dim_ambient
        assert len(res.tables["A"]) == 1 and res.tables["A"][0][1] == 1

    def test_involution_bc1(self):
        gr = get_catalog("sl3-involution").grading
        refined = canonical_refinement(gr).refined
        res = root_graded_structure(gr, refined)
        (dg, da), (ds, db), (dw, dc) = res.dims
        assert (dg, ds) == (3, 5)
        assert dg * da + ds * db + dw * dc + res.pieces[3].dim == 8
        assert res.c_merged_into_b
        assert res.report.type_label == "BC1"
        # identity component of the coordinate space is one line
        id_dim = sum(
            dim
            for tab in res.tables.values()
            for u, dim, _ in tab
            if not any(u)
        )
        assert id_dim == 1

    def test_involution_even_section(self):
        # forcing the section into the even part makes the grading
        # subalgebra the even part itself
        gr = get_catalog("sl3-involution").grading
        refined = canonical_refinement(gr).refined
        even = gr.identity_component()
        uab = universal_abelian_group(refined)
        candidates = [
            uab.iota[s]
            for s in refined.support
            if even.restrict(refined.component(s)) is not None
            and refined.component(s).intersect(refined.identity_component()).dim == 0
        ]
        assert len(candidates) == 2
        hits = []
        for u in candidates:
            try:
                hits.append(root_graded_structure(gr, refined, section=[u]))
            except SectionInvalid:
                pass
        assert len(hits) == 1
        res = hits[0]
        assert res.g_sub == even
        assert res.dims[0] == (3, 1) and res.dims[1] == (5, 1)

    def test_identity_component_must_be_cartan(self):
        gr = get_catalog("sl3-involution").grading
        with pytest.raises(IdentityComponentNotCartan):
            root_graded_structure(gr, gr)  # L_e itself is not a Cartan

    def test_a_supplied_h_is_tested_in_l_as_the_rebased_oracle_tests_it(self):
        # h = 0, h outside L_e, h not closed, not nilpotent, not self-normalizing, and Cartan subalgebras
        rng = random.Random(35)
        cases = []
        for gr in (
            get_catalog("cartan-sl3").grading,
            get_catalog("sl3-involution").grading,
            get_catalog("cartan-sl4").grading,
            sl_involution_grading(4, alternating=True),
            sl_involution_grading(5, alternating=False),
        ):
            l_e = gr.identity_component()
            small = algcore.subalgebra_structure(gr.algebra, l_e.sparse_vectors(), flags=["lie"])
            cartans = [l_e.embed(h) for h in islice(cartan_candidates(small, random.Random(0)), 4)]
            cases.append((gr.algebra, l_e, small, cartans))
        seen = Counter()
        for trial in range(175):
            alg, l_e, small, cartans = cases[trial % len(cases)]
            n, basis = alg.dimension, l_e.sparse_vectors()
            kind = rng.randrange(7)
            if kind == 0:
                h = Subspace(n, {})
            elif kind == 1:
                h = rng.choice(cartans)
            elif kind == 2:  # a random subspace of L_e
                combos = ({j: rng.randint(-2, 2) for j in range(len(basis))} for _ in range(rng.randint(1, len(basis))))
                h = l_e.embed(Subspace.span(len(basis), combos))
            elif kind == 3:  # a Cartan subalgebra and one vector of L outside L_e
                h = Subspace.span(n, rng.choice(cartans).sparse_vectors() + [{rng.randrange(n): 1}])
            elif kind == 4:
                h = Subspace.span(n, [rng.choice(basis)])
            elif kind == 5:  # an Engel subalgebra of L_e: closed and self-normalizing
                x = {j: rng.randint(-1, 1) for j in range(len(basis))}
                h = l_e.embed(nullspace(dense_power(rows_matrix(small.ad_rows(x)), small.dimension)))
            else:
                h = l_e
            verdict = lieroot._is_cartan_in(alg, l_e, h)
            assert verdict == rebased_is_cartan_in(alg, l_e, h), f"trial {trial}"
            if h.dim == 0:
                seen["zero"] += 1
            elif l_e.restrict(h) is None:
                seen["outside"] += 1
            elif not is_closed_subspace(alg, h):
                seen["open"] += 1
            elif not dim_step_nilpotent(alg, h):
                seen["not nilpotent"] += 1
            else:
                seen["cartan" if verdict else "not self-normalizing"] += 1
        assert min(seen.values()) >= 8 and len(seen) == 6, seen

    def test_special_grading_refused(self):
        gr = get_catalog("a3-fine").grading
        with pytest.raises(VerificationFailure):
            root_graded_structure(gr, gr)

    def test_bad_section_rejected(self):
        gr = get_catalog("sl3-involution").grading
        refined = canonical_refinement(gr).refined
        uab = universal_abelian_group(refined)
        ident = uab.group.identity()
        with pytest.raises(SectionInvalid):
            root_graded_structure(gr, refined, section=[ident])


class TestWholeGradingSubalgebra:
    def test_cartan_grading_checks_simplicity_and_roots_once(self, monkeypatch):
        # on a Cartan grading g_sub is all of L: verify_phi_grading reuses L
        # itself, its memoized is_simple and its root-system report
        calls = []

        def counted(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        counted(algcore, "centroid_dimension")
        counted(lieroot, "analyze_root_system")
        gr = classical_cartan_grading("B", 3)
        res = root_graded_structure(gr, canonical_refinement(gr).refined)
        assert res.g_algebra is gr.algebra and res.report.type_label == "B3"
        assert sorted(calls) == ["analyze_root_system", "centroid_dimension"]


class TestTwoRootLengths:
    """``rootsys`` and ``root-graded`` on the Cartan gradings of so(2r+1),
    sp(2r) and so(2r), and on sl_n graded by an involution, through the CLI.
    The highest short root heads the s-isotypic piece."""

    @pytest.mark.parametrize(
        "build, label, dims",
        [
            (lambda: classical_cartan_grading("B", 2), "B2", (10, 1, 0, 0, 0, 0, 0)),
            (lambda: classical_cartan_grading("C", 2), "B2", (10, 1, 0, 0, 0, 0, 0)),
            (lambda: classical_cartan_grading("B", 3), "B3", (21, 1, 0, 0, 0, 0, 0)),
            (lambda: classical_cartan_grading("C", 3), "C3", (21, 1, 0, 0, 0, 0, 0)),
            (lambda: classical_cartan_grading("D", 4), "D4", (28, 1, 0, 0, 0, 0, 0)),
            (lambda: sl_involution_grading(4, alternating=True), "B2", (10, 1, 5, 1, 0, 0, 0)),
            (lambda: sl_involution_grading(4, alternating=False), "B2", (10, 1, 5, 1, 0, 0, 0)),
            (lambda: sl_involution_grading(5, alternating=False), "BC2", (10, 1, 14, 1, 0, 0, 0)),
        ],
        ids=["so5", "sp4", "so7", "sp6", "so8", "sl4-symplectic", "sl4-orthogonal", "sl5-orthogonal"],
    )
    def test_rootsys_and_root_graded(self, build, label, dims, tmp_path, capsys):
        gr = build()
        doc = {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict("gr", gr.algebra.name, gr)]}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        assert main(["rootsys", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == label
        assert main(["root-graded", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == label
        assert tuple(report["dims"][k] for k in ("g", "A", "s", "B", "W", "C", "D")) == dims


def workspace_of(tmp_path, gr) -> str:
    doc = {"algebras": [algebra_to_dict(gr.algebra)], "gradings": [grading_to_dict("gr", gr.algebra.name, gr)]}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestReducibleRootSystems:
    """``rootsys`` on a semisimple algebra that is not simple: the Cartan
    grading of a direct sum has a reducible Phi, labelled by its
    components."""

    @pytest.mark.parametrize(
        "parts, label, rank, roots",
        [
            (("cartan-sl2", "cartan-sl3"), "A1+A2", 3, 8),
            (("cartan-sl2", "cartan-sl2"), "A1+A1", 2, 4),
            (("so5", "cartan-sl3"), "A2+B2", 4, 14),
        ],
        ids=["sl2+sl3", "sl2+sl2", "so5+sl3"],
    )
    def test_rootsys_labels_the_components(self, parts, label, rank, roots, tmp_path, capsys):
        summands = [classical_cartan_grading("B", 2) if p == "so5" else get_catalog(p).grading for p in parts]
        gr = direct_sum_grading(*summands)
        for variant in (gr, signed_permutation(gr, random.Random(label))):
            path = workspace_of(tmp_path, variant)
            for seed in ("0", "1"):
                assert main(["rootsys", path, "--json", "--seed", seed]) == 0
                report = json.loads(capsys.readouterr().out)
                assert (report["type"], report["rank"], len(report["roots"])) == (label, rank, roots)
                assert report["flags"] == {"reflection_closure": True, "integral_cartan": True, "irreducible": False}
                assert report["zero_weight_dim"] == rank

    def test_reducible_phi_on_a_simple_algebra_is_4(self, tmp_path, capsys, monkeypatch):
        # a Phi that reads as reducible on a simple algebra fails a cross-check
        real = lieroot.analyze_root_system

        def reducible(phi, seed):
            return dataclasses.replace(real(phi, seed), type_label="A1+A1")

        monkeypatch.setattr(lieroot, "analyze_root_system", reducible)
        path = workspace_of(tmp_path, get_catalog("cartan-sl3").grading)
        assert main(["rootsys", path]) == 4
        assert capsys.readouterr().err == "internal consistency failure: reducible root system on a simple algebra\n"


class TestClassicalPipelines:
    """``der``, ``trank``, ``almost-fine``, ``ugroup`` and
    ``refine-canonical`` on the Cartan gradings of so(2r+1), sp(2r) and
    so(2r) against theory: every derivation is inner, the toral rank is
    r, U(Gamma) = Z^r, the grading is almost fine, and its canonical
    refinement keeps the components."""

    @pytest.mark.parametrize("kind, r, dim", [("B", 3, 21), ("C", 3, 21), ("D", 4, 28), ("B", 4, 36)])
    def test_against_theory(self, kind, r, dim, tmp_path, capsys):
        gr = classical_cartan_grading(kind, r)
        path = workspace_of(tmp_path, gr)

        def report(command):
            assert main([command, path, "--json"]) == 0
            return json.loads(capsys.readouterr().out)

        der = report("der")
        assert der["total_dim"] == dim and der["identity_dim"] == r
        assert report("trank")["trank"] == r
        af = report("almost-fine")
        assert af["almost_fine"] and af["trank"] == af["rank_uab"] == r
        assert report("ugroup")["universal_group"] == {"free_rank": r, "invariants": []}
        refined = report("refine-canonical")
        assert refined["trank"] == r
        assert sorted(c["dim"] for c in der["components"]) == sorted(
            Counter(map(tuple, refined["refined"]["degrees"])).values()
        )


class TestWeightDecomposition:
    def test_each_algebra_and_h_decomposed_once(self, monkeypatch):
        # the grading subalgebra of a Cartan grading is all of L, so
        # verify_phi_grading asks again for the decomposition of L under the
        # h that root_graded_structure has just split, and finds it memoized
        runs = []
        split = lieroot.simultaneous_eigenspaces

        def counting(ops, space=None):
            runs.append(len(ops))
            return split(ops, space)

        monkeypatch.setattr(lieroot, "simultaneous_eigenspaces", counting)
        gr = parse_workspace([catalog_workspace("cartan-sl4")]).gradings["cartan-sl4"]
        refined = canonical_refinement(gr).refined
        root_graded_structure(gr, refined)
        assert len(runs) == 1

    def test_bracket_compatibility_is_enforced(self):
        gr = get_catalog("cartan-sl3").grading
        wd = weight_decomposition(gr.algebra, gr.identity_component())
        assert sum(s.dim for s in wd.spaces.values()) == 8
        for a in wd.phi:
            assert tuple(-x for x in a) in set(wd.phi)


class TestCartanNumbers:
    """The outward string walk of ``_cartan_number`` against the oracle
    that probes every beta + k alpha, |k| <= 5."""

    @staticmethod
    def assert_all_pairs_agree(phi, betas=None):
        phiset = frozenset(phi)
        for a in phi:
            for b in phi if betas is None else betas:
                assert lieroot._cartan_number(a, b, phiset) == probed_cartan_number(a, b, phiset), (a, b)

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if "root_system" in get_catalog(n).expected]
    )
    def test_catalog_root_systems(self, name):
        _, rep = extract_root_system(get_catalog(name).grading)
        assert rep.type_label == get_catalog(name).expected["root_system"]
        self.assert_all_pairs_agree(rep.phi)
        assert rep.root_coords and rep.root_coords == dense_root_coords(rep)

    @pytest.mark.parametrize(
        "positive",
        [
            [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)],  # BC2
            [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)],  # G2
        ],
    )
    def test_bc2_and_g2(self, positive):
        phi = [tuple(map(Q, a)) for a in positive]
        phi += [tuple(-x for x in a) for a in phi]
        self.assert_all_pairs_agree(phi)
        rep = analyze_root_system(phi)
        assert rep.root_coords and rep.root_coords == dense_root_coords(rep)

    def test_random_weight_sets(self):
        # broken and long strings, and beta outside the set
        rng = random.Random(5)
        lattice = [tuple(map(Q, w)) for w in product(range(-4, 5), repeat=2) if any(w)]
        for _ in range(40):
            phi = rng.sample(lattice, rng.randint(2, 24))
            self.assert_all_pairs_agree(phi, betas=phi + rng.sample(lattice, 8))
            rep = analyze_root_system(phi)
            assert rep.root_coords == dense_root_coords(rep)


@pytest.mark.parametrize("name", [*catalog_names(), *sorted(LIE_PIN_INPUTS)])
def test_delta_is_the_coarse_component_the_spans_find(name, tmp_path, capsys, monkeypatch):
    """On every input of the golden table and the Lie pins, at both seeds,
    ``root-graded``'s delta sends the class of each refined degree to the
    coarse degree whose spanned component holds that refined component."""
    real, checked = lieroot.root_graded_structure, []

    def compared(gr, refined, *args, **kwargs):
        res = real(gr, refined, *args, **kwargs)
        iota = universal_abelian_group(refined).iota
        searched = coarse_labels_by_spans(refined, gr)
        assert [res.delta(iota[s]) for s in refined.support] == [gr.support[t] for t in searched]
        checked.append(res)
        return res

    monkeypatch.setattr(cli, "root_graded_structure", compared)
    if name in LIE_PIN_INPUTS:
        path = workspace_of(tmp_path, LIE_PIN_INPUTS[name]())
    else:
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(catalog_workspace(name)))
    codes = [main(["root-graded", str(path), "--json", "--seed", str(seed)]) for seed in (0, 7)]
    capsys.readouterr()
    assert len(checked) == codes.count(0)

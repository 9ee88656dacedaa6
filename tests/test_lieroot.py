"""Root-system extraction and root-graded decompositions."""

import json
import random
from fractions import Fraction as Q
from itertools import product

import pytest
import sympy

from gradalg import algcore, lieroot
from gradalg.abgroup import FgAbGroup
from gradalg.afine import canonical_refinement
from gradalg.algcore import Subspace, algebra_to_dict
from gradalg.catalog import catalog_names, get_catalog
from gradalg.cli import catalog_workspace, grading_to_dict, main, parse_workspace
from gradalg.errors import (
    IdentityComponentNotCartan,
    SectionInvalid,
    VerificationFailure,
)
from gradalg.grading import Grading, universal_abelian_group
from gradalg.lieroot import (
    analyze_root_system,
    extract_root_system,
    is_non_special,
    root_graded_structure,
    verify_phi_grading,
    weight_decomposition,
)

from helpers import (
    classical_cartan_grading,
    dense_root_coords,
    probed_cartan_number,
    reflection_closure,
    sl_involution_grading,
    sparse,
    span_of,
    vectors,
)


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
        assert not rep.irreducible  # A1 x A1

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
        phi = reflection_closure(lieroot._reference_simple_roots(label[0], int(label[1:])))
        rep = analyze_root_system(phi)
        assert rep.type_label == label
        lengths = {a: sum(x * x for x in a) for a in phi}
        least = min(lengths.values())
        expected = {a for a in phi if lengths[a] == least} if len(set(lengths.values())) == 2 else set()
        assert set(rep.short_roots) == expected
        assert len(rep.short_roots) == len(set(rep.short_roots))


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
            [[sympy.Rational(x) for x in row] for row in alg.ad_matrix(sparse(h)).data]
        )
        spectrum = {}
        for ev, mult in ad.eigenvals().items():
            spectrum[sympy.Rational(ev)] = mult
        assert spectrum == {0: 2, 1: 2, -1: 2, 2: 1, -2: 1}
        wd, _ = extract_root_system(entry.grading)
        computed = sorted((w[0], wd.spaces[w].dim) for w in wd.phi)
        # weights are reported up to a scaling of the toral generator, so
        # compare the multiplicity pattern by proportion
        scale = max(abs(w) for w, _ in computed) / 2
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
                cols.append(list(v))
                degrees.append(z2.element([int(x) for x in w]))
        from gradalg.exactla import RatMatrix

        gr = Grading(
            alg, z2, degrees, RatMatrix.from_columns(cols, rows=10)
        )
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
        g_sub = h.add(span_of(8, [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]))
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
        assert res.dimension_identity()
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
            if even.contains_subspace(refined.component(s))
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

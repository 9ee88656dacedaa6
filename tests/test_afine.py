"""Toral rank, almost-fine certificates, canonical refinement, coarsening
enumeration, and classification."""

from collections import Counter
from fractions import Fraction as Q
from functools import partial
from itertools import islice
from math import prod

import pytest

from gradalg.abgroup import DEFAULT_CAP, FgAbGroup, GroupHom, Subgroup, torsion_and_free
from gradalg import afine
from gradalg import grading as grading_module
from gradalg.afine import (
    _element_candidates,
    _is_nilpotent_subalgebra,
    canonical_refinement,
    cartan_candidates,
    classify_gradings,
    enumerate_af_coarsenings,
    is_admissible,
    is_almost_fine,
    toral_rank,
    ToralData,
)
from gradalg.algcore import algebra_from_matrices, subalgebra_structure
from gradalg.catalog import catalog_names, get_catalog
from gradalg.errors import AxiomFailure, CapExceeded, NonSplitError
from gradalg.exactla import IntMatrix, RatMatrix, Subspace, nullspace
from gradalg.grading import Grading, graded_derivations, induce, universal_abelian_group, weyl_on_uab

from helpers import (
    all_abelian_groups_up_to,
    build_m2_splitpauli,
    build_sl2_efh,
    components,
    dense_power,
    element_order,
    grouphom_classify_gradings,
    identity_hom,
    is_closed_subspace,
    matvec,
    pointwise_admissible,
    random_component_basis,
    random_graded_algebra,
    random_hom,
    random_lie_algebra,
    rows_matrix,
    sl_involution_grading,
    sparse,
    three_part_is_cartan,
    twisted_group_grading,
    two_elimination_normalizer,
    vectors,
)

import random


def cartan_sl2():
    alg = build_sl2_efh()
    z = FgAbGroup(1, ())
    return Grading(alg, z, [z.element([1]), z.element([0]), z.element([-1])])


def pauli_m2():
    alg = build_m2_splitpauli()
    g = FgAbGroup(0, [2, 2])
    degrees = [g.element([0, 0]), g.element([1, 0]), g.element([1, 1]), g.element([0, 1])]
    return Grading(alg, g, degrees)


def parity_sl2():
    return induce(cartan_sl2(), GroupHom(FgAbGroup(1, ()), FgAbGroup(0, [2]), IntMatrix([[1]])))


class TestCartanSubalgebra:
    def test_sl2(self):
        alg = build_sl2_efh()
        h = next(iter(cartan_candidates(alg, random.Random(0))))
        assert h.dim == 1
        # self-centralizing inside sl2: brackets with h-basis land outside
        (v,) = h.sparse_vectors()
        assert any(alg.bracket(v, b) for b in ({0: Q(1)}, {2: Q(1)}))

    def test_seed_independent_dimension(self):
        alg = build_sl2_efh()
        dims = {next(iter(cartan_candidates(alg, random.Random(s)))).dim for s in range(5)}
        assert dims == {1}


def engel_algebras() -> dict:
    """The algebras the Cartan search runs on: the Lie catalog algebras, L_e
    of those with L_e != 0 and D_e of every catalog grading, rebased as the
    search sees them, and L_e of three involution gradings of sl_n, where
    E(x) is not nilpotent for nearly every candidate x."""
    out = {}
    for name in catalog_names():
        gr = get_catalog(name).grading
        l_e = gr.identity_component()
        if "lie" in gr.algebra.flags:
            out[name] = gr.algebra
            if l_e.dim:
                out[f"{name}/L_e"] = subalgebra_structure(gr.algebra, l_e, flags=["lie"])
        d_e = graded_derivations(gr, Subgroup.from_generators(gr.group, [])).identity_part
        out[f"{name}/D_e"] = algebra_from_matrices("commutators", d_e)
    for name, n, alternating in (("sl4-symplectic", 4, True), ("sl5-orthogonal", 5, False), ("sl6-symplectic", 6, True)):
        gr = sl_involution_grading(n, alternating)
        out[f"{name}/L_e"] = subalgebra_structure(gr.algebra, gr.identity_component(), flags=["lie"])
    return out


def engel_subalgebra(alg, x) -> Subspace:
    return nullspace(dense_power(rows_matrix(alg.ad_rows(x)), alg.dimension))


class TestEngelCriterion:
    """The search accepts E(x) = ker (ad x)^d on nilpotency alone, since an
    Engel subalgebra is closed and self-normalizing (Humphreys 15.1, Lemma A)."""

    def test_every_engel_subalgebra_is_closed_and_self_normalizing(self):
        seen = Counter()
        for name, alg in engel_algebras().items():
            for x in islice(_element_candidates(alg.dimension, random.Random(0)), 120):
                e = engel_subalgebra(alg, x)
                assert is_closed_subspace(alg, e), (name, x)
                assert two_elimination_normalizer(alg, e) == e, (name, x)
                seen[_is_nilpotent_subalgebra(alg, e)] += 1
            seen["algebras"] += 1
        # accepted and rejected candidates both
        assert seen["algebras"] == 21 and seen[True] >= 500 and seen[False] >= 500, seen

    def test_first_accepted_candidate_is_the_oracles(self):
        # cartan-sl4 and sl6-symplectic/L_e reach their first Cartan subalgebra
        # only after 326 and 651 candidates, seconds of search per seed; the
        # test above holds the lemma on their first 120
        algebras = engel_algebras()
        del algebras["cartan-sl4"], algebras["sl6-symplectic/L_e"]
        for name, alg in algebras.items():
            for seed in range(5):
                first = next(
                    e
                    for e in map(partial(engel_subalgebra, alg), _element_candidates(alg.dimension, random.Random(seed)))
                    if three_part_is_cartan(alg, e)
                )
                assert next(cartan_candidates(alg, random.Random(seed))) == first, (name, seed)

    def test_every_candidates_engel_subalgebra_is_the_dense_powers(self, monkeypatch):
        # with every subspace passed as nilpotent, the search yields E(x) for each candidate x in
        # turn: (ad x)^d on sparse rows against d dense products, on the 21- and 10-dimensional
        # D_e of two involution gradings, on random Lie algebras and in dimension 0
        monkeypatch.setattr(afine, "_is_nilpotent_subalgebra", lambda alg, basis: True)
        algebras = {"zero": algebra_from_matrices("zero", [])}
        for n, alternating in ((6, True), (5, False)):
            gr = sl_involution_grading(n, alternating)
            d_e = graded_derivations(gr, Subgroup.from_generators(gr.group, [])).identity_part
            algebras[f"sl{n}/D_e"] = algebra_from_matrices("commutators", d_e)
        algebras.update((f"random-{seed}", random_lie_algebra(random.Random(seed))) for seed in range(4))
        assert [algebras[k].dimension for k in ("zero", "sl6/D_e", "sl5/D_e")] == [0, 21, 10]
        for name, alg in algebras.items():
            xs = list(islice(_element_candidates(alg.dimension, random.Random(0)), 150))
            found = list(islice(cartan_candidates(alg, random.Random(0)), 150))
            assert found == [engel_subalgebra(alg, x) for x in xs], name


class TestToralRank:
    def test_cartan_sl2(self):
        td = toral_rank(cartan_sl2())
        assert td.trank == 1
        assert td.d_e.dim == 1

    def test_pauli(self):
        td = toral_rank(pauli_m2())
        assert td.trank == 0
        assert td.d_e.dim == 0

    def test_parity_sl2(self):
        # only ad h preserves the parity split, and it is semisimple
        td = toral_rank(parity_sl2())
        assert td.d_e.dim == 1
        assert td.trank == 1

    def test_sl3_involution(self):
        td = toral_rank(get_catalog("sl3-involution").grading)
        assert td.trank == 1

    def test_sl3_involution_in_a_random_basis_keeps_its_group_invariants(self):
        gr = get_catalog("sl3-involution").grading
        rebased = random_component_basis(gr, random.Random(0))
        assert rebased.basis_change != gr.basis_change
        assert universal_abelian_group(rebased).group == FgAbGroup(0, [2])
        assert rebased.component_dims() == gr.component_dims()
        assert graded_derivations(rebased).total_dim() == 8

    @pytest.mark.xfail(strict=True, raises=NonSplitError, reason="ROADMAP item 2")
    def test_sl3_involution_in_a_random_basis_has_toral_rank_1(self):
        # the catalog basis's value; the candidate stream finds no split Cartan subalgebra in this basis
        rebased = random_component_basis(get_catalog("sl3-involution").grading, random.Random(0))
        assert toral_rank(rebased).trank == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: get_catalog("b2-skew").grading,
            lambda: get_catalog("a3-fine").grading,
            lambda: twisted_group_grading(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        ],
        ids=["b2-skew", "a3-fine", "tga3"],
    )
    def test_zero_d_e_takes_the_general_path(self, build):
        # D_e = 0: the Cartan search yields the zero subalgebra, whose toral part is zero
        gr = build()
        td = toral_rank(gr)
        empty = Subspace(gr.dimension**2, {})
        assert td == ToralData(gr.dimension, empty, empty, empty, 0)
        # the toral rank solves D_e alone; the solve of every degree gives the same D_e
        assert td.d_e == graded_derivations(gr).identity_part
        assert td.toral_matrices() == []

    @pytest.mark.parametrize(
        "toral, message",
        [(lambda d_e: Subspace.full(d_e.dim_ambient), "left the derivation algebra"), (lambda d_e: d_e, "not commutative")],
        ids=["outside-d_e", "not-commutative"],
    )
    def test_a_wrong_toral_part_is_an_axiom_failure(self, monkeypatch, toral, message):
        # D_e of sl3 graded by the orthogonal involution is ad so3, which does not commute;
        # t is read in D_e's coordinates and its brackets in D_e's structure constants
        monkeypatch.setattr(afine, "split_cartan", lambda lie, d_e, seed, split: (d_e, toral(d_e)))
        with pytest.raises(AxiomFailure, match=message):
            toral_rank(sl_involution_grading(3, alternating=False))

    def test_toral_matrices_commute_and_preserve_components(self):
        gr = parity_sl2()
        td = toral_rank(gr)
        mats = [rows_matrix(m) for m in td.toral_matrices()]
        for i, m in enumerate(mats):
            assert all(m * other == other * m for other in mats[i + 1 :])
            for g in gr.support:
                comp = gr.component(g)
                for v in vectors(comp):
                    assert comp.contains(sparse(matvec(m, v)))


class TestAlmostFine:
    def test_cartan_sl2(self):
        cert = is_almost_fine(cartan_sl2())
        assert cert.almost_fine and cert.rank_uab == 1 == cert.trank
        # the catalog copy carries the reductive flag: shortcut engaged
        cert2 = is_almost_fine(get_catalog("cartan-sl2").grading)
        assert cert2.dim_d_e == 1

    def test_pauli(self):
        cert = is_almost_fine(pauli_m2())
        assert cert.almost_fine and cert.rank_uab == 0 == cert.trank

    def test_parity_sl2_not_almost_fine(self):
        # U = Z2 has free rank 0 but the toral rank is 1
        cert = is_almost_fine(parity_sl2())
        assert not cert.almost_fine
        assert cert.rank_uab == 0 and cert.trank == 1

    def test_sl3_involution_not_almost_fine(self):
        cert = is_almost_fine(get_catalog("sl3-involution").grading)
        assert not cert.almost_fine
        assert (cert.rank_uab, cert.trank) == (0, 1)


class TestCanonicalRefinement:
    def test_parity_sl2(self):
        res = canonical_refinement(parity_sl2())
        assert res.refined.group == FgAbGroup(1, (2,))
        assert len(res.refined.support) == 3
        assert all(c.dim == 1 for c in components(res.refined).values())
        assert res.refined.is_refinement_of(res.original)
        back = induce(res.refined, res.coarsening)
        assert back.component_dims() == res.original.component_dims()
        assert res.certificate.almost_fine

    def test_sl3_involution(self):
        res = canonical_refinement(get_catalog("sl3-involution").grading)
        assert res.refined.group == FgAbGroup(1, (2,))
        assert len(res.refined.support) == 8
        assert all(c.dim == 1 for c in components(res.refined).values())
        # the odd part carries five distinct weights, the even part three
        parities = {}
        for deg in res.refined.support:
            p = res.coarsening(deg).coords[0]
            parities.setdefault(p, []).append(res.weights[deg])
        assert len(parities[0]) == 3 and len(parities[1]) == 5

    def test_seed_independence(self):
        for gr in (parity_sl2(), get_catalog("sl3-involution").grading):
            a = canonical_refinement(gr, seed=0)
            b = canonical_refinement(gr, seed=17)
            assert a.refined.group == b.refined.group
            assert sorted(c.dim for c in components(a.refined).values()) == sorted(
                c.dim for c in components(b.refined).values()
            )

    def test_already_almost_fine_is_stable(self):
        # toral rank 0: the weight lattice is 0 x 0 and every weight () has coordinates ()
        gr = pauli_m2()
        res = canonical_refinement(gr)
        assert res.toral.trank == 0
        assert len(res.refined.support) == len(gr.support)
        assert res.refined.group == FgAbGroup(0, (2, 2))
        assert res.refined.component_dims() == gr.component_dims()
        assert res.coarsening == identity_hom(gr.group)
        assert set(res.weights.values()) == {()}


class TestEnumerateCoarsenings:
    def test_pauli_only_trivial(self):
        # every nonzero class of Z2 x Z2 supports a derivation, so only the
        # trivial subgroup survives
        entries = enumerate_af_coarsenings(pauli_m2())
        assert len(entries) == 1
        assert entries[0].subgroup.order() == 1
        assert entries[0].certificate == "per-candidate"
        reductive = enumerate_af_coarsenings(get_catalog("pauli-m2").grading)
        assert [e.certificate for e in reductive] == ["reductive"]
        entries_u = enumerate_af_coarsenings(pauli_m2(), universal_only=True)
        assert len(entries_u) == 1

    def test_cartan_sl2_only_trivial(self):
        # torsion-free universal group: no finite subgroup to kill
        entries = enumerate_af_coarsenings(cartan_sl2())
        assert len(entries) == 1
        assert entries[0].grading.component_dims() == cartan_sl2().component_dims()

    def test_b2_fine_has_six(self):
        entry = get_catalog("b2-skew")
        fine = entry.companions["fine"]
        results = enumerate_af_coarsenings(fine)
        assert len(results) == 6
        orders = sorted(r.subgroup.order() for r in results)
        assert orders == [1, 2, 2, 2, 2, 2]
        # one order-2 quotient reproduces the coarse Z2^3 grading
        coarse_dims = sorted(c.dim for c in components(entry.grading).values())
        matches = [
            r
            for r in results
            if r.subgroup.order() == 2
            and sorted(c.dim for c in components(r.grading).values()) == coarse_dims
        ]
        assert matches

    def test_a3_fine_orbits(self):
        entry = get_catalog("a3-fine")
        uab = universal_abelian_group(entry.grading)
        weyl = weyl_on_uab(entry.grading, entry.weyl_on_group)
        results = enumerate_af_coarsenings(entry.grading, weyl_generators=weyl)
        assert len(results) == 3
        nontrivial = [r for r in results if r.subgroup.order() == 2]
        assert len(nontrivial) == 2
        # the group symmetry swaps the two missing degrees, fusing the orbits
        assert nontrivial[0].orbit == nontrivial[1].orbit
        assert results[0].orbit != nontrivial[0].orbit or results[0].subgroup.order() == 2


class TestAdmissibility:
    def test_free_part_separates(self):
        # sl2 Cartan grading: distinct degrees stay distinct modulo torsion,
        # so every homomorphism is admissible
        uab = universal_abelian_group(cartan_sl2())
        g = FgAbGroup(0, [2, 2])
        zero = GroupHom(uab.group, g, IntMatrix.from_columns([[0, 0]], rows=2))
        assert is_admissible(zero.images(), g, uab)

    def test_torsion_collision_rejected(self):
        uab = universal_abelian_group(pauli_m2())
        g = FgAbGroup(0, [2])
        alpha = GroupHom(uab.group, g, IntMatrix([[1, 0]]))
        assert not is_admissible(alpha.images(), g, uab)
        iso = identity_hom(uab.group)
        assert is_admissible(iso.images(), uab.group, uab)

    @pytest.mark.parametrize("name", catalog_names())
    def test_against_the_pointwise_oracle(self, name):
        # into finite targets, a free one and one with both parts
        uab = universal_abelian_group(get_catalog(name).grading)
        rng = random.Random(name)
        for target in (FgAbGroup(0, [2]), FgAbGroup(0, [2, 2]), FgAbGroup(0, [3, 6]), FgAbGroup(1, ()), FgAbGroup(1, [2])):
            for _ in range(40):
                alpha = random_hom(rng, uab.group, target)
                assert is_admissible(alpha.images(), target, uab) == pointwise_admissible(alpha, uab)

    def test_random_algebras_against_the_pointwise_oracle(self):
        # universal groups that are free, finite, mixed and trivial
        rng = random.Random(26)
        kinds, verdicts = set(), set()
        for trial in range(60):
            uab = universal_abelian_group(random_graded_algebra(rng, ternary=trial % 2 == 1))
            kinds.add((uab.group.free_rank > 0, bool(uab.group.invariants)))
            for target in (FgAbGroup(0, [2]), FgAbGroup(0, [2, 4]), FgAbGroup(1, ()), FgAbGroup(1, [3])):
                for _ in range(10):
                    alpha = random_hom(rng, uab.group, target)
                    verdict = is_admissible(alpha.images(), target, uab)
                    assert verdict == pointwise_admissible(alpha, uab)
                    verdicts.add(verdict)
        assert kinds == {(False, False), (False, True), (True, False), (True, True)} and verdicts == {False, True}


def _hom_count(u: FgAbGroup, g: FgAbGroup) -> int:
    """|Hom(U, G)| for finite G, counted on G's element list: a generator of
    order d (0 when free) goes to any element whose order divides d."""
    orders = [element_order(x) for x in g.elements()]
    return prod(sum(1 for o in orders if d % o == 0) for d in (0,) * u.free_rank + u.invariants)


class TestClassification:
    @pytest.mark.parametrize("name", catalog_names())
    def test_against_the_grouphom_oracle(self, name):
        """Every target of order <= 16 within the cap, the entry with its Weyl
        generators and each companion without: entries equal field by field."""
        entry = get_catalog(name)
        sources = [(entry.grading, weyl_on_uab(entry.grading, entry.weyl_on_group))]
        sources += [(gr, []) for _, gr in sorted(entry.companions.items())]
        uabs = [universal_abelian_group(gr).group for gr, _ in sources]
        compared = 0
        for target in all_abelian_groups_up_to(16):
            if any(_hom_count(u, target) > DEFAULT_CAP for u in uabs):
                with pytest.raises(CapExceeded):
                    classify_gradings(sources, target)
                continue
            got, want = classify_gradings(sources, target), grouphom_classify_gradings(sources, target)
            # component dimensions compared as item lists: the report prints them in this order
            assert [(e.source, e.alpha.matrix, e.orbit, e.orbit_size, list(e.component_dims.items())) for e in got] == [
                (e.source, e.alpha.matrix, e.orbit, e.orbit_size, list(e.grading.component_dims().items())) for e in want
            ], target
            compared += 1
        assert compared >= 20
    def test_pauli_into_z2z2(self):
        entry = get_catalog("pauli-m2")
        uab = universal_abelian_group(entry.grading)
        weyl = weyl_on_uab(entry.grading, entry.weyl_on_group)
        g = FgAbGroup(0, [2, 2])
        results = classify_gradings([(entry.grading, weyl)], g)
        # admissible maps are exactly the 6 automorphisms of Z2 x Z2
        assert sum(r.orbit_size for r in results) == 6
        assert all(r.source == 0 for r in results)
        assert all(is_admissible(r.alpha.images(), g, uab) for r in results)
        no_weyl = classify_gradings([(entry.grading, [])], g)
        assert len(no_weyl) == 6
        assert sum(r.orbit_size for r in no_weyl) == 6
        assert len(results) < 6

    def test_sl2_into_z2z2(self):
        gr = cartan_sl2()
        g = FgAbGroup(0, [2, 2])
        results = classify_gradings([(gr, [])], g)
        # Z -> Z2 x Z2: all 4 homomorphisms admissible (free part separates)
        assert len(results) == 4
        ugr = universal_abelian_group(gr).universal_grading(gr)
        for r in results:
            induced = induce(ugr, r.alpha)
            assert induced.group == g
            assert sum(c.dim for c in components(induced).values()) == 3
            assert r.component_dims == induced.component_dims()

    def test_builds_one_universal_grading_per_source_and_no_induced_grading(self, monkeypatch):
        """cartan-sl4 into Z2 x Z4 x Z4 with its three Weyl generators: the
        component dimensions are counted on the image tuples, so the only
        regraded grading is the source's universal grading, and no Grading
        is constructed."""
        entry = get_catalog("cartan-sl4")
        sources = [(entry.grading, weyl_on_uab(entry.grading, entry.weyl_on_group))]
        assert len(sources[0][1]) == 3
        regraded, constructed = [], []
        regrade, init = grading_module._regraded, Grading.__init__
        monkeypatch.setattr(grading_module, "_regraded", lambda *args: regraded.append(args) or regrade(*args))
        monkeypatch.setattr(Grading, "__init__", lambda self, *args: constructed.append(args) or init(self, *args))
        entries = classify_gradings(sources, FgAbGroup(0, [2, 4, 4]), cap=100000)
        assert len(entries) == 1672
        assert len(regraded) == len(sources) and constructed == []

    def test_weyl_orbit_fuses_sl2(self):
        entry = get_catalog("cartan-sl2")
        uab = universal_abelian_group(entry.grading)
        weyl = weyl_on_uab(entry.grading, entry.weyl_on_group)
        g = FgAbGroup(0, [4])
        with_weyl = classify_gradings([(entry.grading, weyl)], g)
        without = classify_gradings([(entry.grading, [])], g)
        # negation on Z identifies the maps 1 -> k and 1 -> -k
        assert len(without) == 4
        assert len(with_weyl) == 3
        assert sorted(r.orbit_size for r in with_weyl) == [1, 1, 2]

"""Toral rank, almost-fine certificates, canonical refinement, coarsening
enumeration, and classification."""

from fractions import Fraction as Q

import pytest

from gradalg.abgroup import FgAbGroup, GroupHom, Subgroup, torsion_and_free
from gradalg.afine import (
    canonical_refinement,
    cartan_candidates,
    classify_gradings,
    enumerate_af_coarsenings,
    is_admissible,
    is_almost_fine,
    toral_rank,
)
from gradalg.catalog import get_catalog
from gradalg.exactla import IntMatrix, RatMatrix
from gradalg.grading import Grading, induce, universal_abelian_group, weyl_on_uab

from helpers import build_m2_splitpauli, build_sl2_efh, matvec, rows_matrix, sparse, vectors

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
        assert all(c.dim == 1 for c in res.refined.components().values())
        assert res.refined.is_refinement_of(res.original)
        back = induce(res.refined, res.coarsening)
        assert back.component_dims() == res.original.component_dims()
        assert res.certificate.almost_fine

    def test_sl3_involution(self):
        res = canonical_refinement(get_catalog("sl3-involution").grading)
        assert res.refined.group == FgAbGroup(1, (2,))
        assert len(res.refined.support) == 8
        assert all(c.dim == 1 for c in res.refined.components().values())
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
            assert sorted(c.dim for c in a.refined.components().values()) == sorted(
                c.dim for c in b.refined.components().values()
            )

    def test_already_almost_fine_is_stable(self):
        # toral rank 0: the weight lattice is 0 x 0 and every weight () has coordinates ()
        gr = pauli_m2()
        res = canonical_refinement(gr)
        assert res.toral.trank == 0
        assert len(res.refined.support) == len(gr.support)
        assert res.refined.group == FgAbGroup(0, (2, 2))
        assert res.refined.component_dims() == gr.component_dims()
        assert res.coarsening == GroupHom.identity(gr.group)
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
        coarse_dims = sorted(c.dim for c in entry.grading.components().values())
        matches = [
            r
            for r in results
            if r.subgroup.order() == 2
            and sorted(c.dim for c in r.grading.components().values()) == coarse_dims
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
        assert is_admissible(zero, uab)

    def test_torsion_collision_rejected(self):
        uab = universal_abelian_group(pauli_m2())
        g = FgAbGroup(0, [2])
        alpha = GroupHom(uab.group, g, IntMatrix([[1, 0]]))
        assert not is_admissible(alpha, uab)
        iso = GroupHom.identity(uab.group)
        assert is_admissible(iso, uab)


class TestClassification:
    def test_pauli_into_z2z2(self):
        entry = get_catalog("pauli-m2")
        uab = universal_abelian_group(entry.grading)
        weyl = weyl_on_uab(entry.grading, entry.weyl_on_group)
        g = FgAbGroup(0, [2, 2])
        results = classify_gradings([(entry.grading, weyl)], g)
        # admissible maps are exactly the 6 automorphisms of Z2 x Z2
        assert sum(r.orbit_size for r in results) == 6
        assert all(r.source == 0 for r in results)
        assert all(is_admissible(r.alpha, uab) for r in results)
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
        for r in results:
            assert r.grading.group == g
            assert sum(c.dim for c in r.grading.components().values()) == 3

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

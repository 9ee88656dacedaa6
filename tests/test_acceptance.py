"""End-to-end acceptance checks.

Each test replays one headline scenario and prints a single PASS/FAIL
line (run pytest with -s to see them).  Tolerances are exact: every
comparison is over integers or rationals.
"""

import contextlib

from gradalg.abgroup import FgAbGroup
from gradalg.afine import (
    canonical_refinement,
    classify_gradings,
    enumerate_af_coarsenings,
    is_admissible,
    is_almost_fine,
    toral_rank,
)
from gradalg.algcore import is_simple, killing_form
from gradalg.catalog import get_catalog
from gradalg.grading import universal_abelian_group, weyl_on_uab
from gradalg.lieroot import (
    extract_root_system,
    is_non_special,
    root_graded_structure,
    verify_phi_grading,
)

from helpers import components


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_b2_replay():
    with criterion("1: B2 replay (special almost-fine grading, proper refinement)"):
        entry = get_catalog("b2-skew")
        gr = entry.grading
        assert gr.algebra.dimension == 10
        _, nondeg = killing_form(gr.algebra)
        assert nondeg and is_simple(gr.algebra)
        assert gr.group == FgAbGroup(0, (2, 2, 2))
        assert gr.identity_component().dim == 0
        cert = is_almost_fine(gr)
        assert cert.trank == 0 and cert.almost_fine
        fine = entry.companions["fine"]
        assert fine.group == FgAbGroup(0, (2, 2, 2, 2))
        assert fine.is_refinement_of(gr)
        # proper: the Z2^4 grading has strictly more components
        assert len(fine.support) > len(gr.support)


def test_criterion_2_a3_replay():
    with criterion("2: A3 replay (two order-2 coarsenings, one Weyl orbit)"):
        entry = get_catalog("a3-fine")
        gr = entry.grading
        uab = universal_abelian_group(gr)
        assert uab.group == FgAbGroup(0, (2, 2, 2, 2))
        assert gr.identity_component().dim == 0
        weyl = weyl_on_uab(gr, entry.weyl_on_group)
        results = enumerate_af_coarsenings(gr, weyl_generators=weyl)
        nontrivial = [r for r in results if r.subgroup.order() == 2]
        assert len(nontrivial) == 2
        kernels = set()
        for r in nontrivial:
            (gen,) = [u for u in r.subgroup.elements() if any(u.coords)]
            kernels.add(uab.alpha(gen).coords)
        # both generators project to the class of (1,1,1,1) in the
        # epsilon basis, i.e. v1 + v3, with either parity marker
        assert kernels == {(0, 1, 0, 1), (1, 1, 0, 1)}
        assert nontrivial[0].orbit == nontrivial[1].orbit


def test_criterion_3_cartan_gradings():
    with criterion("3: Cartan gradings of sl_n give A_{n-1}"):
        for n in (2, 3, 4):
            gr = get_catalog(f"cartan-sl{n}").grading
            uab = universal_abelian_group(gr)
            assert uab.group == FgAbGroup(n - 1, ())
            td = toral_rank(gr)
            assert td.d_e.dim == n - 1 and td.trank == n - 1
            assert is_almost_fine(gr).almost_fine
            wd, rep = extract_root_system(gr)
            assert rep.type_label == f"A{n - 1}"
            assert len(rep.phi) == n * (n - 1)
            assert all(wd.spaces[a].dim == 1 for a in rep.phi)


def test_criterion_4_bc1_extraction():
    with criterion("4: sl3 involution is BC1 with dims (2,2,1,1)"):
        gr = get_catalog("sl3-involution").grading
        assert is_non_special(gr)
        cert = is_almost_fine(gr)
        assert not cert.almost_fine
        assert cert.rank_uab == 0 and cert.trank == 1
        res = canonical_refinement(gr)
        assert res.refined.group == FgAbGroup(1, (2,))
        comps = components(res.refined)
        assert len(comps) == 8 and all(c.dim == 1 for c in comps.values())
        wd, rep = extract_root_system(gr)
        assert rep.type_label == "BC1" and not rep.reduced
        assert sorted(wd.spaces[a].dim for a in rep.phi) == [1, 1, 2, 2]


def test_criterion_5_root_graded_structure():
    with criterion("5: root-graded decomposition of the sl3 involution"):
        gr = get_catalog("sl3-involution").grading
        refined = canonical_refinement(gr).refined
        res = root_graded_structure(gr, refined)
        # conditions (i)-(iii) hold for the grading subalgebra
        check = verify_phi_grading(
            gr.algebra, res.g_sub, refined.identity_component()
        )
        assert check.ok and not check.failures
        # g is of type B1: a rank-1 simple subalgebra with two roots
        assert len(res.phi_prime) == 2
        (dg, da), (ds, db), (dw, dc) = res.dims
        assert dg * da + ds * db + dw * dc + res.pieces[3].dim == res.g_sub.dim_ambient == 8
        id_dim = sum(
            dim
            for tab in res.tables.values()
            for u, dim, _ in tab
            if not any(u)
        )
        assert id_dim == 1


def test_criterion_7_classification_smoke():
    with criterion("7: classification over {cartan-sl2, pauli-m2} into Z2, Z2^2"):
        sources = []
        uabs = []
        for name in ("cartan-sl2", "pauli-m2"):
            entry = get_catalog(name)
            uab = universal_abelian_group(entry.grading)
            sources.append((entry.grading, weyl_on_uab(entry.grading, entry.weyl_on_group)))
            uabs.append(uab)
        for invariants in ([2], [2, 2]):
            g = FgAbGroup(0, invariants)
            results = classify_gradings(sources, g)
            assert results
            for r in results:
                assert is_admissible(r.alpha.images(), g, uabs[r.source])
            assert len({(r.source, r.orbit) for r in results}) == len(results)

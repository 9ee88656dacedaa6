"""Built-in catalog: recorded facts are recomputed from scratch."""

import pytest

from gradalg.abgroup import FgAbGroup
from gradalg.afine import is_almost_fine, toral_rank
from gradalg.algcore import is_simple
from gradalg.catalog import catalog_names, get_catalog
from gradalg.errors import UnknownCatalogEntry
from gradalg.grading import universal_abelian_group, weyl_on_uab

from helpers import CATALOG_ALGEBRA_MAPS, check_graded_map


def test_names_and_unknown():
    names = catalog_names()
    assert "cartan-sl2" in names and "b2-skew" in names
    with pytest.raises(UnknownCatalogEntry):
        get_catalog("nope")


@pytest.mark.parametrize("name", catalog_names())
def test_expected_group_facts(name):
    entry = get_catalog(name)
    exp = entry.expected
    assert entry.grading.dimension == exp["dimension"]
    uab = universal_abelian_group(entry.grading)
    if "uab_free_rank" in exp:
        assert uab.group.free_rank == exp["uab_free_rank"]
    if "uab_invariants" in exp:
        assert uab.group.invariants == tuple(exp["uab_invariants"])
    if "support_size" in exp:
        assert len(entry.grading.support) == exp["support_size"]
    if "identity_component_dim" in exp:
        assert entry.grading.identity_component().dim == exp["identity_component_dim"]


@pytest.mark.parametrize(
    "name",
    [n for n in catalog_names() if "trank" in get_catalog(n).expected],
)
def test_expected_toral_facts(name):
    entry = get_catalog(name)
    td = toral_rank(entry.grading)
    assert td.trank == entry.expected["trank"]
    cert = is_almost_fine(entry.grading)
    assert cert.almost_fine == entry.expected["almost_fine"]


def test_b2_simple():
    entry = get_catalog("b2-skew")
    assert is_simple(entry.grading.algebra)


def test_b2_companion_is_refinement():
    entry = get_catalog("b2-skew")
    fine = entry.companions["fine"]
    assert fine.is_refinement_of(entry.grading)
    assert universal_abelian_group(fine).group == FgAbGroup(0, [2, 2, 2, 2])


def test_a3_missing_degrees():
    entry = get_catalog("a3-fine")
    present = {g.coords for g in entry.grading.support}
    for d in entry.expected["missing_degrees"]:
        assert d not in present
    assert len(present) == 13


@pytest.mark.parametrize("name", sorted(CATALOG_ALGEBRA_MAPS))
def test_algebra_maps_are_equivalences(name):
    entry = get_catalog(name)
    for phi in CATALOG_ALGEBRA_MAPS[name].values():
        report = check_graded_map(phi, entry.grading, entry.grading)
        assert report.kind in ("isomorphism", "equivalence")


def test_sl2_algebra_map_matches_weyl_generator():
    entry = get_catalog("cartan-sl2")
    report = check_graded_map(
        CATALOG_ALGEBRA_MAPS["cartan-sl2"]["weyl-flip"], entry.grading, entry.grading
    )
    uab = universal_abelian_group(entry.grading)
    (w,) = weyl_on_uab(entry.grading, entry.weyl_on_group)
    for s in uab.support_order:
        assert report.uab_map(uab.iota[s]) == w(uab.iota[s])


def test_weyl_generators_are_automorphisms():
    for name in catalog_names():
        entry = get_catalog(name)
        for w in entry.weyl_on_group:
            assert w.is_isomorphism()
        for w in weyl_on_uab(entry.grading, entry.weyl_on_group):
            assert w.is_isomorphism()

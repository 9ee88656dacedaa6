"""Gradings: validation, universal groups, induced gradings, derivations,
graded-map verification."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction as Q
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sym_snf

from gradalg import abgroup, exactla, grading
from gradalg.abgroup import FgAbGroup, GroupHom, Subgroup, enumerate_homs, torsion_and_free
from gradalg.afine import canonical_refinement, toral_rank
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    build_algebra,
    derivations_are_inner,
    inner_derivations,
    subalgebra_structure,
)
from gradalg.catalog import catalog_names, get_catalog
from gradalg.cli import parse_workspace
from gradalg.errors import AxiomFailure, IncompatibleDegrees, ShapeError, ValidationError
from gradalg.exactla import IntMatrix, RatMatrix, Subspace, inverse
from gradalg.grading import (
    Grading,
    graded_derivations,
    induce,
    universal_abelian_group,
    weyl_on_uab,
    weyl_permutation,
)

from helpers import (
    build_m2_splitpauli,
    build_sl2_efh,
    classical_cartan_grading,
    coarse_labels_by_spans,
    columns_of,
    components,
    conjugated_weyl_on_uab,
    dense_graded_derivations,
    dense_rebase,
    direct_sum_grading,
    e_matrix,
    eager_components,
    elementwise_hom_from_support_images,
    flatten,
    from_matrices,
    graded_parts,
    mat_add,
    mat_from_flat,
    mat_scale,
    heisenberg_grading,
    hom_from_images,
    is_refinement_by_spans,
    per_entry_incompatibility,
    per_entry_relations,
    project,
    random_component_basis,
    random_graded_algebra,
    random_hom,
    routed_leibniz_rows,
    signed_permutation,
    sl_involution_grading,
    sparse,
    span_of,
    twisted_group_grading,
    unit,
    vectors,
    zeros,
    rank,
    generators,
    identity_hom,
    derivation_algebra,
    derivation_space,
    check_graded_map,
    NotAutomorphism,
    compose,
)


def cartan_sl2():
    alg = build_sl2_efh()
    z = FgAbGroup(1, ())
    degrees = [z.element([1]), z.element([0]), z.element([-1])]
    return Grading(alg, z, degrees)


def pauli_m2():
    alg = build_m2_splitpauli()
    g = FgAbGroup(0, [2, 2])
    degrees = [g.element([0, 0]), g.element([1, 0]), g.element([1, 1]), g.element([0, 1])]
    return Grading(alg, g, degrees)


class TestValidate:
    def test_cartan_sl2_valid(self):
        gr = cartan_sl2()
        assert [g.coords for g in gr.support] == [(-1,), (0,), (1,)]
        assert gr.identity_component().dim == 1

    def test_bad_degrees_rejected(self):
        alg = build_sl2_efh()
        z = FgAbGroup(1, ())
        with pytest.raises(IncompatibleDegrees) as exc:
            Grading(alg, z, [z.element([1]), z.element([1]), z.element([-1])])
        assert exc.value.witness is not None

    def test_pauli_valid(self):
        gr = pauli_m2()
        assert len(gr.support) == 4
        assert all(c.dim == 1 for c in components(gr).values())

    def test_basis_change_z2_grading(self):
        alg = build_sl2_efh()
        z2 = FgAbGroup(0, [2])
        # homogeneous basis: h (even), e+f, e-f (odd)
        c = columns_of(RatMatrix.from_columns([[0, 1, 0], [1, 0, 1], [1, 0, -1]]))
        gr = Grading(
            alg, z2, [z2.element([0]), z2.element([1]), z2.element([1])], basis_change=c
        )
        assert gr.component(z2.element([0])).dim == 1
        assert gr.component(z2.element([1])).dim == 2
        assert gr.component(z2.element([1])).contains({0: Q(1), 2: Q(1)})
        # inconsistent parity assignment must fail
        with pytest.raises(IncompatibleDegrees):
            Grading(
                alg, z2, [z2.element([1]), z2.element([0]), z2.element([0])], basis_change=c
            )

    def test_noninvertible_basis_change_rejected(self):
        alg = build_sl2_efh()
        z = FgAbGroup(1, ())
        c = columns_of(RatMatrix.from_columns([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
        with pytest.raises(ShapeError, match="invertible n x n"):
            Grading(alg, z, [z.element([1]), z.element([0]), z.element([-1])], c)


def _tensors(alg):
    return [op.tensor for op in alg.operations]


def _random_basis_change(rng, n):
    """An invertible n x n rational matrix that is not a signed permutation."""
    while True:
        c = RatMatrix([[rng.choice([-1, 0, 0, 1, Q(1, 2)]) for _ in range(n)] for _ in range(n)])
        if rank(c) == n and any(sum(1 for x in row if x) > 1 for row in c.data):
            return c


def _regraded(gr, c):
    """The grading with homogeneous basis the columns of c: the algebra is
    gr's homogeneous algebra rewritten in the basis of the columns of c^-1."""
    homog = gr.homog_algebra
    ops = [
        MultilinearOp(op.name, op.arity, t)
        for op, t in zip(homog.operations, dense_rebase(homog, inverse(c)))
    ]
    alg = StructureAlgebra(homog.name, homog.dimension, ops, homog.flags)
    return Grading(alg, gr.group, gr.degrees, columns_of(c))


class TestSparseRebasing:
    """The homogeneous tensors equal the dense re-basing: every key through
    the whole-tensor loop and a rational solve per value."""

    def test_b2_skew_fine(self):
        fine = get_catalog("b2-skew").companions["fine"]
        assert fine.basis_change != columns_of(RatMatrix.identity(fine.dimension))
        basis = RatMatrix.from_sparse_columns(fine.basis_change, fine.dimension)
        assert _tensors(fine.homog_algebra) == dense_rebase(fine.algebra, basis)

    @pytest.mark.parametrize("name", ["cartan-sl2", "cartan-sl3", "pauli-m2", "sl3-involution"])
    def test_random_basis_changes_of_catalog_gradings(self, name):
        gr = get_catalog(name).grading
        rng = random.Random(name)
        for _ in range(3):
            c = _random_basis_change(rng, gr.dimension)
            regraded = _regraded(gr, c)
            assert _tensors(regraded.homog_algebra) == dense_rebase(regraded.algebra, c)
            assert _tensors(regraded.homog_algebra) == _tensors(gr.homog_algebra)

    def test_random_basis_changes_with_a_ternary_operation(self):
        rng = random.Random(41)
        for _ in range(5):
            gr = random_graded_algebra(rng, ternary=True)
            c = _random_basis_change(rng, gr.dimension)
            regraded = _regraded(gr, c)
            assert _tensors(regraded.homog_algebra) == dense_rebase(regraded.algebra, c)
            assert _tensors(regraded.homog_algebra) == _tensors(gr.homog_algebra)

    def test_not_square_basis_change_rejected(self):
        alg = build_sl2_efh()
        z = FgAbGroup(1, ())
        degrees = [z.element([1]), z.element([0]), z.element([-1])]
        with pytest.raises(ShapeError, match="invertible n x n"):
            Grading(alg, z, degrees, columns_of(RatMatrix.identity(2)))


class TestSharedRebasing:
    """Gradings on one algebra and one basis change share the re-based,
    flag-checked homogeneous algebra."""

    def test_induce(self):
        gr = cartan_sl2()
        z2 = FgAbGroup(0, [2])
        parity = GroupHom(gr.group, z2, IntMatrix([[1]]))
        assert induce(gr, parity).homog_algebra is gr.homog_algebra

    def test_universal_grading(self):
        for gr in (cartan_sl2(), get_catalog("b2-skew").companions["fine"]):
            uab = universal_abelian_group(gr)
            assert uab.universal_grading(gr).homog_algebra is gr.homog_algebra

    def test_identity_basis_change_reuses_the_algebra(self):
        gr = cartan_sl2()
        units = [{i: Q(1)} for i in range(3)]
        assert gr.basis_change == tuple(units)
        assert gr.homog_algebra is gr.algebra
        assert Grading(gr.algebra, gr.group, gr.degrees, units).homog_algebra is gr.algebra
        # flags among the verified ones reuse the algebra; another flag gives a re-based, checked copy
        for flags in ((), ["lie"]):
            assert subalgebra_structure(gr.algebra, units, flags=flags) is gr.algebra
        unflagged = StructureAlgebra("unflagged", 3, gr.algebra.operations)
        copy = subalgebra_structure(unflagged, units, flags=["lie"])
        assert copy is not unflagged and copy.flags == {"lie"} and _tensors(copy) == _tensors(unflagged)

    def test_distinct_basis_changes_are_not_shared(self):
        gr = cartan_sl2()
        c = RatMatrix.from_columns([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        other = Grading(gr.algebra, gr.group, gr.degrees, columns_of(c))
        assert other.homog_algebra is not gr.homog_algebra
        assert _tensors(other.homog_algebra) == dense_rebase(gr.algebra, c)


class TestUniversalGroup:
    def test_cartan_sl2(self):
        gr = cartan_sl2()
        u = universal_abelian_group(gr)
        assert u.group == FgAbGroup(1, ())
        one = gr.group.element([1])
        # iota(1) generates: its coords must be primitive
        assert abs(u.iota[one].coords[0]) == 1
        # SNF oracle on the explicit relation matrix (s0=0, s1+s-1=s0)
        sm = sym_snf(sympy.Matrix([[0, 1], [1, -1], [0, 1]]), domain=sympy.ZZ)
        diag = [abs(int(sm[i, i])) for i in range(2)]
        assert sorted(diag) == [1, 1]  # rank 2 relations on 3 generators -> Z

    def test_alpha_iota_is_inclusion(self):
        for gr in (cartan_sl2(), pauli_m2()):
            u = universal_abelian_group(gr)
            for s in gr.support:
                assert u.alpha(u.iota[s]) == s

    def test_pauli(self):
        u = universal_abelian_group(pauli_m2())
        assert u.group == FgAbGroup(0, [2, 2])

    def test_universal_grading_round_trip(self):
        gr = pauli_m2()
        u = universal_abelian_group(gr)
        ugr = u.universal_grading(gr)
        assert len(ugr.support) == len(gr.support)
        # inducing back along alpha recovers the original degrees
        back = induce(ugr, u.alpha)
        assert back.degrees == gr.degrees

    @pytest.mark.parametrize("name", catalog_names())
    def test_universal_grading_is_the_grading_relabelled_by_iota(self, name):
        entry = get_catalog(name)
        for gr in (entry.grading, *entry.companions.values()):
            u = universal_abelian_group(gr)
            ugr = u.universal_grading(gr)
            assert ugr.group == u.group
            assert ugr.degrees == tuple(u.iota[d] for d in gr.degrees)
            # iota is injective on the support, so the labels and relation rows are those of gr,
            # with support element s renumbered to the place of iota(s) in the new support
            place = [ugr.support.index(u.iota[s]) for s in gr.support]
            assert ugr.labels == tuple(place[t] for t in gr.labels)
            moved = []
            for row in gr.relations:
                new = [0] * len(place)
                for t, c in enumerate(row):
                    new[place[t]] = c
                moved.append(tuple(new))
            assert ugr.relations == tuple(sorted(moved))

    def test_coarse_grading_universal_group(self):
        # grade sl2 by parity: [e, f] = h forces 2*s(odd) = 0, so the
        # universal group of the coarsening is Z2 itself
        gr = cartan_sl2()
        z2 = FgAbGroup(0, [2])
        alpha = GroupHom(gr.group, z2, IntMatrix([[1]]))
        coarse = induce(gr, alpha)
        u = universal_abelian_group(coarse)
        assert u.group == FgAbGroup(0, [2])
        assert u.alpha.is_isomorphism()


def _hom_outcome(build):
    """The images and matrix of the hom ``build()`` gives, or the type and message of its error."""
    try:
        hom = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return hom.images(), hom.matrix


def _check_against_elementwise(gr: Grading, rng: random.Random) -> None:
    """``universal_abelian_group(gr)`` reads iota off the projection matrix and builds alpha
    as one integer product: both must be what ``helpers.project`` and the GroupElement path give
    (``helpers.elementwise_hom_from_support_images``), as must ``hom_from_support_images`` on
    the images of a random hom out of ``gr.group`` and on random images, which mostly break a
    relation."""
    u = universal_abelian_group(gr)
    pres, support = u.presentation, u.support_order
    unit = [[1 if t == i else 0 for t in range(len(support))] for i in range(len(support))]
    assert u.iota == {s: project(pres, e) for s, e in zip(support, unit)}
    oracle = elementwise_hom_from_support_images(pres, support, gr.group, {s: s for s in support})
    assert (u.alpha.images(), u.alpha.matrix) == (oracle.images(), oracle.matrix)
    for target in INDUCE_TARGETS:
        phi = random_hom(rng, gr.group, target)
        if target.is_finite:
            elements = target.elements()
        else:
            elements = [target.element([rng.randint(-2, 2) for _ in range(target.ngens)]) for _ in range(4)]
        for images in ({s: phi(s) for s in support}, {s: rng.choice(elements) for s in support}):
            assert _hom_outcome(lambda: u.hom_from_support_images(target, images)) == _hom_outcome(
                lambda: elementwise_hom_from_support_images(pres, support, target, images)
            )


#: every catalog grading and companion, and the helper generators' gradings
TABLE_GRADINGS = {
    **{name: lambda name=name: get_catalog(name).grading for name in catalog_names()},
    "b2-skew-fine": lambda: get_catalog("b2-skew").companions["fine"],
    "B2": lambda: classical_cartan_grading("B", 2),
    "C3": lambda: classical_cartan_grading("C", 3),
    "D3": lambda: classical_cartan_grading("D", 3),
    "sl4-orthogonal": lambda: sl_involution_grading(4, alternating=False),
    "sl4-symplectic": lambda: sl_involution_grading(4, alternating=True),
    "tga2": lambda: twisted_group_grading(2, [[0, 1], [0, 0]]),
    "tga3": lambda: twisted_group_grading(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    "heisenberg": heisenberg_grading,
}


#: targets of the random homs that induced gradings are checked along
INDUCE_TARGETS = [
    FgAbGroup(0, ()), FgAbGroup(0, [2]), FgAbGroup(0, [3]), FgAbGroup(0, [2, 2]), FgAbGroup(0, [2, 4]),
    FgAbGroup(1, ()), FgAbGroup(1, [2]), FgAbGroup(2, ()),
]


def _check_induce_against_construction(gr: Grading, alpha: GroupHom):
    """``induce`` (merged relation rows) gives the table of the grading that
    ``Grading`` builds from the pushed-forward degrees, and shares the
    source's algebra, re-based copy and basis."""
    got = induce(gr, alpha)
    want = Grading(gr.algebra, alpha.codomain, [alpha(d) for d in gr.degrees], gr.basis_change)
    assert (got.group, got.support, got.labels, got.degrees, got.relations) == (
        want.group, want.support, want.labels, want.degrees, want.relations
    )
    assert got.algebra is gr.algebra and got.homog_algebra is gr.homog_algebra
    assert got.basis_change is gr.basis_change


class TestInduce:
    @pytest.mark.parametrize("name", list(TABLE_GRADINGS))
    def test_against_construction_on_table_gradings(self, name):
        gr = TABLE_GRADINGS[name]()
        uab = universal_abelian_group(gr)
        ugr = uab.universal_grading(gr)
        _check_induce_against_construction(gr, identity_hom(gr.group))
        _check_induce_against_construction(ugr, uab.alpha)
        rng = random.Random(name)
        for target in INDUCE_TARGETS:
            for _ in range(3):
                _check_induce_against_construction(ugr, random_hom(rng, uab.group, target))
            _check_induce_against_construction(gr, random_hom(rng, gr.group, target))

    def test_against_construction_on_random_algebras(self):
        rng = random.Random(26)
        for trial in range(40):
            gr = random_graded_algebra(rng, ternary=trial % 2 == 1)
            uab = universal_abelian_group(gr)
            for target in rng.sample(INDUCE_TARGETS, 4):
                _check_induce_against_construction(gr, random_hom(rng, gr.group, target))
                _check_induce_against_construction(uab.universal_grading(gr), random_hom(rng, uab.group, target))

    def test_degrees_that_break_a_relation_are_rejected(self):
        # every degree of sl2 sent to 1 in Z2: [e, f] = h gives 1 + 1 != 1
        gr = cartan_sl2()
        z2 = FgAbGroup(0, [2])
        with pytest.raises(IncompatibleDegrees, match="relation row"):
            grading._regraded(gr, z2, lambda s: z2.element([1]))

    def test_identity(self):
        gr = cartan_sl2()
        same = induce(gr, identity_hom(gr.group))
        assert same.degrees == gr.degrees

    def test_parity(self):
        gr = cartan_sl2()
        z2 = FgAbGroup(0, [2])
        alpha = GroupHom(gr.group, z2, IntMatrix([[1]]))
        coarse = induce(gr, alpha)
        assert coarse.component(z2.element([0])).dim == 1
        assert coarse.component(z2.element([1])).dim == 2

    def test_support_and_dims(self):
        gr = pauli_m2()
        z2 = FgAbGroup(0, [2])
        alpha = GroupHom(gr.group, z2, IntMatrix([[1, 0]]))
        coarse = induce(gr, alpha)
        assert {g.coords for g in coarse.support} == {(0,), (1,)}
        for h in coarse.support:
            expected = sum(
                gr.component(g).dim for g in gr.support if alpha(g) == h
            )
            assert coarse.component(h).dim == expected


class TestUniversalGroupByOneProduct:
    """iota read off the projection matrix and alpha as one integer product,
    against the GroupElement path they replace."""

    @pytest.mark.parametrize("name", sorted(TABLE_GRADINGS))
    def test_one_product_matches_the_elementwise_path(self, name):
        source = TABLE_GRADINGS[name]()
        rng = random.Random(name)
        for gr in (source, universal_abelian_group(source).universal_grading(source)):
            _check_against_elementwise(_fresh(gr), rng)

    def test_random_gradings_match_the_elementwise_path(self):
        rng = random.Random(28)
        for trial in range(20):
            _check_against_elementwise(random_graded_algebra(rng, ternary=trial % 4 == 3), rng)

    def test_images_breaking_a_relation_are_value_error(self):
        # [e, f] = h: the degree-(+1) and (-1) images must sum to the degree-0 image, and 2 != 1
        gr = cartan_sl2()
        u = universal_abelian_group(gr)
        images = {s: s + gr.group.element([1]) for s in gr.support}
        oracle = lambda h, im: elementwise_hom_from_support_images(u.presentation, u.support_order, h, im)
        for build in (u.hom_from_support_images, oracle):
            with pytest.raises(ValueError, match="^images do not respect the defining relations$"):
                build(gr.group, images)


BENCHMARK_CATALOG = sorted((Path(__file__).parents[1] / "perfbench" / "catalog").glob("*.json"))


def _same_transport(gr: Grading, weyl) -> None:
    """weyl_on_uab carries each generator to the map alpha^-1 o w o alpha."""
    assert [w.images() for w in weyl_on_uab(gr, weyl)] == [w.images() for w in conjugated_weyl_on_uab(gr, weyl)]


class TestWeylOnUab:
    """A Weyl generator carried to U(Gamma) through its permutation of the
    support, iota(s) -> iota(w(s)), against alpha^-1 o w o alpha."""

    @pytest.mark.parametrize("name", [n for n in catalog_names() if get_catalog(n).weyl_on_group])
    def test_catalog_generators_match_the_conjugation(self, name):
        entry = get_catalog(name)
        _same_transport(entry.grading, entry.weyl_on_group)

    @pytest.mark.parametrize("path", BENCHMARK_CATALOG, ids=lambda p: p.stem)
    def test_benchmark_catalog_generators_match_the_conjugation(self, path):
        ws = parse_workspace([json.loads(path.read_text())])
        for name, weyl in ws.weyl.items():
            _same_transport(ws.gradings[name], weyl)

    def test_every_automorphism_of_z2_squared_on_pauli_m2(self):
        gr = get_catalog("pauli-m2").grading
        g = gr.group
        autos = [f for f in (hom_from_images(g, g, t) for t in enumerate_homs(g, g)) if f.is_isomorphism()]
        assert len(autos) == 6
        _same_transport(gr, autos)

    @pytest.mark.parametrize("name", ["cartan-sl3", "cartan-sl4"])
    def test_products_of_up_to_three_generators(self, name):
        entry = get_catalog(name)
        gens = entry.weyl_on_group
        words = [w for k in (1, 2, 3) for w in product(gens, repeat=k)]
        _same_transport(entry.grading, [reduce(compose, w) for w in words])

    def test_no_smith_form_once_the_universal_group_is_known(self, monkeypatch):
        entry = get_catalog("cartan-sl4")
        universal_abelian_group(entry.grading)

        def refuse(m):
            raise AssertionError("a Smith form was computed")

        monkeypatch.setattr(exactla, "smith_normal_form", refuse)
        monkeypatch.setattr(abgroup, "smith_normal_form", refuse)
        assert len(weyl_on_uab(entry.grading, entry.weyl_on_group)) == len(entry.weyl_on_group)

    def test_shear_on_cartan_sl3_is_rejected(self):
        gr = get_catalog("cartan-sl3").grading
        shear = GroupHom(gr.group, gr.group, IntMatrix([[1, 1], [0, 1]]))
        message = (
            "matrix [[1, 1], [0, 1]] is not in the Weyl group: "
            "it maps degree [-1, -1] (dimension 1) to [-2, -1] outside the support"
        )
        for call in (weyl_permutation, lambda g, w: weyl_on_uab(g, [w])):
            with pytest.raises(ValidationError) as err:
                call(gr, shear)
            assert str(err.value) == message

    def test_permutation_of_the_sl2_flip(self):
        gr = cartan_sl2()
        flip = GroupHom(gr.group, gr.group, IntMatrix([[-1]]))
        assert [s.coords for s in gr.support] == [(-1,), (0,), (1,)]
        assert weyl_permutation(gr, flip) == (2, 1, 0)

    def test_a_map_folding_the_support_is_not_an_automorphism(self):
        # e0 e0 = e0 and e1 e1 = e0, graded by its universal group Z2: the zero map keeps both
        # dimensions but sends both degrees to 0
        alg = build_algebra(
            {"name": "fold", "dimension": 2, "operations": [{"name": "m", "arity": 2, "entries": [[0, 0, 0, 1], [1, 1, 0, 1]]}]}
        )
        g = FgAbGroup(0, [2])
        gr = Grading(alg, g, [g.element([0]), g.element([1])])
        assert universal_abelian_group(gr).alpha.is_isomorphism()
        with pytest.raises(ValidationError, match="^matrix is not an automorphism$"):
            weyl_on_uab(gr, [GroupHom(g, g, IntMatrix([[0]]))])

    def test_a_generator_of_another_group_is_a_shape_error(self):
        gr = cartan_sl2()
        z2 = FgAbGroup(2, ())
        with pytest.raises(ShapeError):
            weyl_permutation(gr, identity_hom(z2))


class TestRelationTable:
    """The one table ``Grading`` reads from its structure constants, against
    the per-entry loops it replaces."""

    @pytest.mark.parametrize("name", sorted(TABLE_GRADINGS))
    def test_incompatibility_matches_the_per_entry_loop(self, name):
        gr = TABLE_GRADINGS[name]()
        assert per_entry_incompatibility(gr.homog_algebra, gr.degrees) is None
        rejected = 0
        for i in range(gr.dimension):
            degrees = list(gr.degrees)
            degrees[i] = degrees[i] + gr.group.generator(0)
            expected = per_entry_incompatibility(gr.homog_algebra, degrees)
            try:
                Grading(gr.algebra, gr.group, degrees, gr.basis_change)
                got = None
            except IncompatibleDegrees as exc:
                got = (str(exc), exc.witness)
            assert got == expected
            rejected += got is not None
        assert rejected

    @pytest.mark.parametrize("name", sorted(TABLE_GRADINGS))
    def test_relations_match_the_per_entry_set(self, name, monkeypatch):
        gr = _fresh(TABLE_GRADINGS[name]())
        presented = []
        real = grading.group_from_presentation
        monkeypatch.setattr(grading, "group_from_presentation", lambda n, rel: presented.append(rel) or real(n, rel))
        universal_abelian_group(gr)
        assert presented == [per_entry_relations(gr)]

    def test_labels_index_the_support(self):
        for make in TABLE_GRADINGS.values():
            gr = make()
            assert [gr.support[s] for s in gr.labels] == list(gr.degrees)

    def test_induce_maps_each_support_element_once(self, monkeypatch):
        gr = get_catalog("sl3-involution").grading
        alpha = GroupHom(gr.group, FgAbGroup(0, [2]), IntMatrix([[1]]))
        calls = []
        real = GroupHom.__call__
        monkeypatch.setattr(GroupHom, "__call__", lambda self, g: calls.append(g) or real(self, g))
        coarse = induce(gr, alpha)
        assert calls == list(gr.support) and len(calls) < gr.dimension
        assert coarse.degrees == gr.degrees

    def test_universal_grading_maps_each_support_element_once(self):
        gr = get_catalog("sl3-involution").grading
        u = universal_abelian_group(gr)
        lookups = []

        class CountingIota(dict):
            def __getitem__(self, s):
                lookups.append(s)
                return super().__getitem__(s)

        ugr = dataclasses.replace(u, iota=CountingIota(u.iota)).universal_grading(gr)
        assert lookups == list(gr.support) and len(lookups) < gr.dimension
        assert ugr.degrees == tuple(u.iota[d] for d in gr.degrees)

    def test_refinement_needs_the_same_algebra(self):
        gr = get_catalog("cartan-sl3").grading
        abelian = StructureAlgebra("ab8", 8, [MultilinearOp("bracket", 2, {})], ["lie"])
        fake = Grading(abelian, gr.group, gr.degrees)
        assert gr.is_refinement_of(gr) and fake.is_refinement_of(fake)
        assert not fake.is_refinement_of(gr) and not gr.is_refinement_of(fake)


def _refinement_pairs():
    """(kind, fine, coarse) for each kind of input of ``coarse_labels``."""
    catalog = [get_catalog(name) for name in catalog_names()]
    for entry in catalog:
        yield "refinement", canonical_refinement(entry.grading).refined, entry.grading
        for companion in entry.companions.values():
            yield "refinement", companion, entry.grading
    # h even, e + f and e - f odd: the Cartan grading of sl2 refines it on another basis
    z2 = FgAbGroup(0, [2])
    c = columns_of(RatMatrix.from_columns([[0, 1, 0], [1, 0, 1], [1, 0, -1]]))
    yield "refinement", cartan_sl2(), Grading(build_sl2_efh(), z2, [z2.element([x]) for x in (0, 1, 1)], c)
    rng = random.Random(43)
    for entry in catalog:
        gr = entry.grading
        # the same components: the grading by its universal group, and a random basis of each component
        universal = universal_abelian_group(gr).universal_grading(gr)
        yield "same components", universal, gr
        yield "same components", random_component_basis(gr, rng), gr
        # coarsenings of both: the degrees mod 2 in each generator, and all in one degree
        for source in (gr, universal):
            g = source.group
            for target in (FgAbGroup(0, [2] * g.ngens), FgAbGroup(0, ())):
                images = [[int(i == j) for i in range(target.ngens)] for j in range(g.ngens)]
                yield "coarsening", source, induce(source, hom_from_images(g, target, images))
    # another basis: exp(ad e) shears h into h - 2e, so its components are not the Cartan grading's
    sl2 = cartan_sl2()
    phi = columns_of(RatMatrix.from_columns([[1, 0, 0], [-2, 1, 0], [-1, 1, 1]]))
    yield "another basis", Grading(sl2.algebra, sl2.group, sl2.degrees, phi), sl2
    gr = get_catalog("cartan-sl3").grading
    abelian = StructureAlgebra("ab8", 8, [MultilinearOp("bracket", 2, {})], ["lie"])
    yield "another algebra", Grading(abelian, gr.group, gr.degrees), gr
    zero = StructureAlgebra("zero", 0, [MultilinearOp("bracket", 2, {})], ["lie"])
    trivial = FgAbGroup(0, ())
    yield "dimension 0", Grading(zero, trivial, []), Grading(zero, FgAbGroup(1, ()), [])
    yield "another algebra", Grading(zero, trivial, []), Grading(StructureAlgebra("one", 1, [MultilinearOp("bracket", 2, {})], ["lie"]), trivial, [trivial.identity()])


class TestRefinementReadsColumns:
    """``Grading.coarse_labels`` reads the finer grading's basis columns in
    the coarser one's basis; ``helpers.coarse_labels_by_spans`` spans every
    component of both and searches the coarse ones."""

    def test_agrees_with_the_spanning_oracle(self):
        kinds = Counter()
        # whether fine refines coarse, and whether coarse refines fine where the kind fixes it
        expected = {
            "refinement": (True,),
            "coarsening": (True,),
            "same components": (True, True),
            "dimension 0": (True, True),
            "another basis": (False, False),
            "another algebra": (False, False),
        }
        for kind, fine, coarse in _refinement_pairs():
            for a, b in ((fine, coarse), (coarse, fine), (fine, fine)):
                labels = a.coarse_labels(b)
                assert labels == coarse_labels_by_spans(a, b), (kind, a, b)
                assert a.is_refinement_of(b) == (labels is not None) == is_refinement_by_spans(a, b), (kind, a, b)
            assert fine.coarse_labels(fine) == list(range(len(fine.support)))
            both = (fine.is_refinement_of(coarse), coarse.is_refinement_of(fine))
            assert both[: len(expected[kind])] == expected[kind], kind
            kinds[kind, both] += 1
        # the swapped order of a proper refinement or coarsening refines nothing
        assert kinds["refinement", (True, False)] >= 4 and kinds["coarsening", (True, False)] >= 20, kinds
        assert kinds["same components", (True, True)] >= 16, kinds
        assert {kind for kind, _ in kinds} == set(expected)


def _components_checked(gr: Grading):
    """Compare the components read lazily with the eager spans of ``helpers.eager_components``."""
    eager = eager_components(gr)
    assert gr.component_dims() == {s.coords: c.dim for s, c in eager.items()}
    assert all(gr.component(s) == c for s, c in eager.items())
    assert list(components(gr).items()) == list(eager.items())
    off = [g for g in (gr.group.identity(), *generators(gr.group)) if g not in gr.support]
    assert all(gr.component(g) == Subspace(gr.dimension, {}) for g in off)


def _inductions(gr: Grading) -> list[Grading]:
    """The universal grading of ``gr``, its induction back along alpha, and the
    induction of ``gr`` onto the trivial group (one component)."""
    uab = universal_abelian_group(gr)
    trivial = FgAbGroup(0, ())
    collapse = GroupHom(gr.group, trivial, IntMatrix([], gr.group.ngens))
    return [uab.universal_grading(gr), induce(uab.universal_grading(gr), uab.alpha), induce(gr, collapse)]


class TestLazyComponents:
    """A grading spans each component when it is first read; the spans equal
    those built up front, and ``component_dims`` reads the labels only."""

    @pytest.mark.parametrize("name", list(TABLE_GRADINGS))
    def test_against_eager_spans(self, name):
        gr = TABLE_GRADINGS[name]()
        for g in [_fresh(gr), *_inductions(gr)]:
            _components_checked(g)

    @pytest.mark.parametrize("name", ["cartan-sl2", "cartan-sl3", "pauli-m2", "sl3-involution"])
    def test_random_basis_changes(self, name):
        gr = get_catalog(name).grading
        rng = random.Random(name)
        for _ in range(2):
            regraded = _regraded(gr, _random_basis_change(rng, gr.dimension))
            for g in [regraded, *_inductions(regraded)]:
                _components_checked(g)

    def test_no_matrix_and_no_span_until_a_component_is_read(self, monkeypatch):
        entry = get_catalog("b2-skew")
        sources = [entry.grading, entry.companions["fine"], _regraded(cartan_sl2(), _random_basis_change(random.Random(3), 3))]
        uabs = [universal_abelian_group(gr) for gr in sources]
        matrices, spans = [], []
        init, span = exactla._DenseMatrix.__init__, Subspace.span.__func__

        def counting_init(self, *args, **kwargs):
            matrices.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(exactla._DenseMatrix, "__init__", counting_init)
        monkeypatch.setattr(Subspace, "span", classmethod(lambda cls, *args: spans.append(1) or span(cls, *args)))
        built = []
        for gr, uab in zip(sources, uabs):
            built.append(Grading(gr.algebra, gr.group, gr.degrees, None if gr.homog_algebra is gr.algebra else gr.basis_change))
            built.append(uab.universal_grading(gr))
            built.append(induce(built[-1], uab.alpha))
            built[-1].component_dims()
        assert RatMatrix not in matrices and spans == []
        for gr in built:
            gr.identity_component()
        assert RatMatrix not in matrices and len(spans) == len(built)


class TestGradedDerivations:
    def test_cartan_sl2(self):
        gd = graded_derivations(cartan_sl2())
        assert gd.identity_part.dim == 1
        assert [g.coords for g in gd.sigma] == [(-1,), (0,), (1,)]
        assert gd.total_dim() == derivation_algebra(cartan_sl2().algebra).dim

    def test_pauli_m2(self):
        gd = graded_derivations(pauli_m2())
        assert gd.identity_part.dim == 0
        assert len(gd.sigma) == 3
        assert all(not g.is_identity() for g in gd.sigma)
        assert gd.total_dim() == 3

    @pytest.mark.parametrize("group", [FgAbGroup(0, ()), FgAbGroup(1, ()), FgAbGroup(0, [2])], ids=str)
    def test_zero_algebra(self, group):
        # the identity is the only candidate degree; its 0 x 0 kernel takes the general path
        zero = build_algebra({"name": "zero", "dimension": 0, "operations": [{"name": "m", "arity": 2, "entries": []}]})
        gd = graded_derivations(Grading(zero, group, []))
        assert gd.by_degree == {group.identity(): Subspace(0, {})}
        assert gd.identity_part == Subspace(0, {}) and gd.identity_part.dim_ambient == 0
        assert gd.sigma == () and gd.total_dim() == 0

    def test_identity_part_matches_constraint_derivations(self):
        gr = cartan_sl2()
        gd = graded_derivations(gr)
        constrained = derivation_algebra(
            gr.homog_algebra, constraints=list(components(gr).values())
        )
        assert gd.identity_part == constrained.space

    def test_bracket_respects_degrees(self):
        gr = cartan_sl2()
        gd = graded_derivations(gr)
        n = gr.dimension
        items = list(gd.by_degree.items())
        for g, sg in items:
            for h, sh in items:
                target = gd.by_degree.get(g + h)
                for a in vectors(sg):
                    ma = mat_from_flat(a, n, n)
                    for b in vectors(sh):
                        mb = mat_from_flat(b, n, n)
                        comm = sparse(flatten(mat_add(ma * mb, mat_scale(mb * ma, -1))))
                        if comm:
                            assert target is not None and target.contains(comm)


class TestRoutedDerivations:
    """graded_derivations solves each degree on its own unknowns; it must
    agree with the dense per-degree solve and with oracles that use
    neither."""

    @pytest.mark.parametrize(
        "name", ["cartan-sl2", "cartan-sl3", "sl3-involution", "b2-skew", "pauli-m2"]
    )
    def test_agrees_with_dense_path_under_basis_permutations(self, name):
        rng = random.Random(name)
        base = get_catalog(name).grading
        for trial in range(11):
            gr = signed_permutation(base, rng) if trial else base
            assert graded_parts(graded_derivations(gr)) == graded_parts(
                dense_graded_derivations(gr)
            ), f"{name} trial {trial}"

    @pytest.mark.parametrize(
        "name",
        [
            "cartan-sl2", "cartan-sl3", "cartan-sl4", "pauli-m2", "b2-skew",
            "a3-fine", "sl3-involution", "b2-skew-assoc", "C3", "D4", "sl4-involution",
        ],
    )
    def test_catalog_against_whole_derivation_space(self, name):
        # derivation_space routes nothing and knows no kernel vectors, so it
        # checks the routing and the inner-derivation stop of graded_derivations
        generated = {
            "C3": lambda: classical_cartan_grading("C", 3),
            "D4": lambda: classical_cartan_grading("D", 4),
            "sl4-involution": lambda: sl_involution_grading(4, alternating=False),
        }
        gr = generated[name]() if name in generated else get_catalog(name).grading
        homog = gr.homog_algebra
        n = gr.dimension
        gd = graded_derivations(gr)
        der = derivation_space(homog)
        # the D_g span Der(A) and their dimensions add up: a direct sum
        parts = [v for s in gd.by_degree.values() for v in vectors(s)]
        assert gd.total_dim() == der.dim
        assert span_of(n * n, parts) == der
        # D_e: the derivations preserving every component
        components = [span_of(n, [unit(i, n) for i in gr.indices_of_degree(g)]) for g in gr.support]
        assert gd.identity_part == derivation_space(homog, components)
        # D_g maps A_h into A_{g+h}: only entries (r, c) with deg r = g + deg c
        for g, space in gd.by_degree.items():
            for v in vectors(space):
                for idx, x in enumerate(v):
                    r, c = divmod(idx, n)
                    assert not x or gr.degrees[r] == g + gr.degrees[c]

    def test_row_mixing_degrees_is_axiom_failure(self, monkeypatch):
        gr = cartan_sl2()
        # one key with op(key) = e and one right-hand term D[0, 1] e (b = 0 in a slot holding
        # i_t = 1): its row for j = 0 is D[0, 0] - D[0, 1], filed under the degree 0 of
        # D[0, 0], but D[0, 1] has degree deg e - deg h = 1
        monkeypatch.setattr(grading, "_leibniz_keys", lambda a: iter([({0: 1}, [(1, [(0, {0: 1})])])]))
        candidates, _, rows, _ = grading._derivation_system(gr)
        ident = candidates.index(gr.group.identity())
        with pytest.raises(AxiomFailure, match="mixes"):
            next(rows[ident])
        # it heads the stream of degree 0, whose solve reads it; with no known vectors the
        # rows D[j, 0] = 0 of the other degrees are solved without complaint first.  sl2 is
        # semisimple, so the Leibniz path is forced: certified, no row would be read
        monkeypatch.setattr(grading, "inner_derivations", lambda a, among: [])
        monkeypatch.setattr(grading, "derivations_are_inner", lambda a: False)
        with pytest.raises(AxiomFailure, match="mixes"):
            graded_derivations(gr)


def _restricted_sources():
    """(id, builder) of every catalog grading and of the helpers' generated ones."""
    generated = {
        "B2": lambda: classical_cartan_grading("B", 2),
        "C3": lambda: classical_cartan_grading("C", 3),
        "D4": lambda: classical_cartan_grading("D", 4),
        "sl3-orth": lambda: sl_involution_grading(3, alternating=False),
        "sl4-symp": lambda: sl_involution_grading(4, alternating=True),
        "tga3": lambda: twisted_group_grading(3, [[1, 1, 0], [0, 0, 1], [0, 0, 1]]),
        "heisenberg": heisenberg_grading,
        # graded by Z2 x Z: torsion and free parts both present
        "sl3-involution-refined": lambda: canonical_refinement(get_catalog("sl3-involution").grading).refined,
    }
    generated.update(
        (f"random-{seed}", lambda seed=seed: random_graded_algebra(random.Random(seed), ternary=seed % 2 == 1))
        for seed in range(12)
    )
    catalog = {name: lambda name=name: _fresh(get_catalog(name).grading) for name in catalog_names()}
    return list({**catalog, **generated}.items())


class TestSolvesWithin:
    """``graded_derivations(gr, within)`` solves only the degrees in the
    subgroup ``within``; each part must be that of the solve of every
    degree, restricted to ``within``."""

    @pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _restricted_sources()])
    def test_parts_are_the_full_parts_restricted(self, build):
        source = build()
        # the universal grading too: its group mixes free and torsion parts where U does
        for gr in (source, universal_abelian_group(source).universal_grading(source)):
            full = graded_derivations(gr)
            for within in _subgroups(gr):
                part = graded_derivations(_fresh(gr), within)
                inside = (lambda g: True) if within is None else within.contains
                assert part.by_degree == {g: space for g, space in full.by_degree.items() if inside(g)}
                assert part.identity_part == full.identity_part
                assert part.sigma == tuple(g for g in full.sigma if inside(g))
                assert graded_derivations(gr, within) == part

    @pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _restricted_sources()])
    def test_parts_match_the_leibniz_oracle(self, build):
        # on a semisimple source each part is read off the inner derivations, on the others solved
        source = build()
        for gr in (source, universal_abelian_group(source).universal_grading(source)):
            for within in _subgroups(gr):
                assert graded_parts(graded_derivations(_fresh(gr), within)) == graded_parts(_leibniz_oracle(gr, within))

    def test_toral_rank_solves_d_e_alone(self, monkeypatch):
        solves = []
        real = grading._incremental_kernel
        monkeypatch.setattr(grading, "_incremental_kernel", lambda *args: solves.append(args[0]) or real(*args))
        gr = _fresh(get_catalog("cartan-sl3").grading)
        assert toral_rank(gr).trank == 2
        # one solve, of the identity degree: the unknowns D[r, c] with deg r = deg c
        assert solves == [sum(d * d for d in gr.component_dims().values())] == [10]

    def test_subgroup_of_another_group_is_shape_error(self):
        gr = _fresh(get_catalog("cartan-sl2").grading)
        with pytest.raises(ShapeError, match="different group"):
            graded_derivations(gr, Subgroup.from_generators(FgAbGroup(0, [2]), []))


def _subgroups(gr: Grading) -> tuple:
    """The subgroups graded_derivations is restricted to in these tests: the
    trivial one, the torsion, the cyclic subgroup of one support element (a
    proper subgroup on most of these groups), and None, the whole group."""
    torsion, _ = torsion_and_free(gr.group)
    return Subgroup.from_generators(gr.group, []), torsion, Subgroup.from_generators(gr.group, gr.support[-1:]), None


def _fresh(gr: Grading) -> Grading:
    """A new Grading equal to ``gr``, with nothing memoized on it yet."""
    return Grading(gr.algebra, gr.group, gr.degrees, gr.basis_change)


def _solves(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Record each per-degree kernel solve of graded_derivations as (rows
    routed, rows read, dim span of the known vectors, kernel dim)."""
    log = []
    real = grading.sparse_nullspace

    def recording(ncols, rows, known=()):
        rows, read = list(rows), []

        def stream():
            for row in rows:
                read.append(row)
                yield row

        kernel = real(ncols, stream(), known)
        log.append((len(rows), len(read), Subspace.span(ncols, known).dim, kernel.dim))
        return kernel

    monkeypatch.setattr(grading, "sparse_nullspace", recording)
    return log


def _leibniz_walks(monkeypatch) -> list:
    """Record each algebra whose ``_leibniz_keys`` pairs graded_derivations walks."""
    walks = []
    real = grading._leibniz_keys
    monkeypatch.setattr(grading, "_leibniz_keys", lambda a: walks.append(a) or real(a))
    return walks


def _leibniz_oracle(gr: Grading, within: Subgroup | None = None):
    """graded_derivations of ``gr`` from the Leibniz rows alone: the dense
    oracle up to dimension 10 (all degrees), above it or within a subgroup
    the sparse Leibniz path with the certificate and the inner derivations
    taken away, on a fresh grading (the dense oracle pins that path on the
    smaller algebras)."""
    if gr.dimension <= 10 and within is None:
        return dense_graded_derivations(gr)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grading, "derivations_are_inner", lambda a: False)
        patch.setattr(grading, "inner_derivations", lambda a, among: [])
        return graded_derivations(_fresh(gr), within)


#: semisimple gradings beyond the catalog, each certified: every derivation is inner
#: (sl2+sl3 is not simple)
SEMISIMPLE_BUILDS = [
    lambda: classical_cartan_grading("B", 2),
    lambda: classical_cartan_grading("C", 3),
    lambda: classical_cartan_grading("D", 4),
    lambda: sl_involution_grading(3, alternating=False),
    lambda: sl_involution_grading(4, alternating=False),
    lambda: twisted_group_grading(3, [[1, 1, 0], [0, 0, 1], [0, 0, 1]]),
    lambda: _fresh(get_catalog("pauli-m2").grading),
    lambda: direct_sum_grading(get_catalog("cartan-sl2").grading, get_catalog("cartan-sl3").grading),
]
SEMISIMPLE_IDS = ["B2", "C3", "D4", "sl3-involution", "sl4-involution", "tga3", "pauli-m2", "sl2+sl3"]


class TestInnerDerivationStop:
    """On the Leibniz path each degree's solve stops once its inner
    derivations can be the whole kernel; on a certified (semisimple)
    algebra the inner derivations are the kernel and nothing is solved.
    The result must not change."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_under_a_basis_permutation(self, name, monkeypatch):
        gr = signed_permutation(get_catalog(name).grading, random.Random(f"stop-{name}"))
        # every catalog algebra is semisimple: no Leibniz equation is filed, built or solved
        assert derivations_are_inner(gr.algebra)
        walks, log = _leibniz_walks(monkeypatch), _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        assert walks == [] and log == []
        assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))

    @pytest.mark.parametrize("build", SEMISIMPLE_BUILDS, ids=SEMISIMPLE_IDS)
    def test_inner_derivations_are_the_kernel(self, build, monkeypatch):
        gr = build()
        # every one is certified; the Leibniz path is forced to test its stop
        assert derivations_are_inner(gr.algebra)
        monkeypatch.setattr(grading, "derivations_are_inner", lambda a: False)
        log = _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        assert graded_parts(gd) == graded_parts(_leibniz_oracle(gr))
        # simple (or central simple associative): every derivation is inner,
        # so each degree's kernel is its known span, read off before the rows run out
        assert all(dim == known for _, _, known, dim in log)
        assert sum(read for _, read, _, _ in log) < sum(routed for routed, _, _, _ in log)

    @pytest.mark.parametrize("build", SEMISIMPLE_BUILDS, ids=SEMISIMPLE_IDS)
    def test_certified_reads_no_row(self, build, monkeypatch):
        gr = build()
        walks = _leibniz_walks(monkeypatch)
        log = _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        assert graded_parts(gd) == graded_parts(_leibniz_oracle(gr))
        # every derivation is inner: each D_g is read off the inner derivations, and no
        # Leibniz equation is filed, built or solved
        assert walks == [] and log == []

    def test_outer_derivations_read_every_row(self, monkeypatch):
        gr = heisenberg_grading()
        log = _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))
        assert gd.total_dim() == 6 and len(inner_derivations(gr.homog_algebra, range(gr.algebra.dimension))) == 2
        outer = [(routed, read) for routed, read, known, dim in log if dim > known]
        assert len(outer) == 3 and all(routed == read for routed, read in outer)

    def test_no_known_vectors(self, monkeypatch):
        z2 = FgAbGroup(0, [2])
        abelian = StructureAlgebra("ab3", 3, [MultilinearOp("bracket", 2, {})], ["lie"])
        gradings = [Grading(abelian, z2, [z2.element([0]), z2.element([1]), z2.element([1])])]
        rng = random.Random(161)
        gradings += [random_graded_algebra(rng, ternary=True) for _ in range(20)]
        for gr in gradings:
            # no inner maps: the abelian ones vanish, and two operations take no shortcut
            assert inner_derivations(gr.homog_algebra, range(gr.algebra.dimension)) == []
            log = _solves(monkeypatch)
            gd = graded_derivations(gr)
            monkeypatch.undo()
            assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))
            assert all(known == 0 for _, _, known, _ in log)
        assert graded_derivations(gradings[0]).total_dim() == 9

    def test_only_candidate_degrees_build_inner_maps(self, monkeypatch):
        built = []
        record = lambda a, among: built.append(set(among)) or inner_derivations(a, among)
        monkeypatch.setattr(grading, "inner_derivations", record)
        gr = _fresh(get_catalog("cartan-sl3").grading)
        assert toral_rank(gr).trank == 2
        # D_e alone: the maps of the two basis vectors of degree 0, those of the Cartan subalgebra
        assert built == [set(gr.indices_of_degree(gr.group.identity()))] and len(built[0]) == 2
        built.clear()
        graded_derivations(gr)
        assert built == [set(range(gr.dimension))]

    def test_wrong_known_vector_is_axiom_failure(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl3").grading)
        n = gr.dimension
        # the identity is not a derivation of a Lie algebra: D[x, y] = [x, y] != 2 [x, y]
        identity = {i * n + i: Q(1) for i in range(n)}
        monkeypatch.setattr(grading, "inner_derivations", lambda a, among: inner_derivations(a, among) + [identity])
        # certified, the span of the known vectors exceeds dim A_e, which ad maps injectively
        with pytest.raises(AxiomFailure, match="ad is injective"):
            graded_derivations(gr)
        # on the Leibniz path (sl3 is semisimple, so it is forced) the rows read reject it
        monkeypatch.setattr(grading, "derivations_are_inner", lambda a: False)
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            graded_derivations(_fresh(gr))

    def test_a_missing_inner_derivation_fails_the_dimension_check(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl3").grading)
        monkeypatch.setattr(grading, "inner_derivations", lambda a, among: inner_derivations(a, among)[:-1])
        with pytest.raises(AxiomFailure, match="ad is injective"):
            graded_derivations(gr)


def _table_path(gr: Grading, within: Subgroup | None = None):
    """graded_derivations of a fresh copy of ``gr`` with the certificate
    taken away: the degree tables of ``_derivation_system``, the inner
    derivations passed as known kernel vectors to each degree's solve."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grading, "derivations_are_inner", lambda a: False)
        return graded_derivations(_fresh(gr), within)


def _per_label_sources():
    """(id, builder) of certified gradings: every catalog grading, a random
    homogeneous basis of each, sl_n with an involution, and sl2 + sl3."""
    sources = {name: lambda name=name: _fresh(get_catalog(name).grading) for name in catalog_names()}
    sources.update(
        (f"{name}-random-basis", lambda name=name: random_component_basis(get_catalog(name).grading, random.Random(name)))
        for name in catalog_names()
    )
    sources.update(
        {
            "sl3-orth": lambda: sl_involution_grading(3, alternating=False),
            "sl4-orth": lambda: sl_involution_grading(4, alternating=False),
            "sl4-symp": lambda: sl_involution_grading(4, alternating=True),
            "sl2+sl3": lambda: direct_sum_grading(get_catalog("cartan-sl2").grading, get_catalog("cartan-sl3").grading),
        }
    )
    return list(sources.items())


class TestPerLabelDerivations:
    """On a certified algebra ``graded_derivations`` reads each D_g per
    support label (``_inner_parts``), with no degree table; it must give
    what the table path gives, order included, for every subgroup."""

    @pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _per_label_sources()])
    def test_against_the_table_path(self, build, monkeypatch):
        source = build()
        assert derivations_are_inner(source.algebra)
        for gr in (source, universal_abelian_group(source).universal_grading(source)):
            for within in _subgroups(gr):
                want = _table_path(gr, within)
                with monkeypatch.context() as patch:
                    patch.setattr(grading, "_derivation_system", None)
                    patch.setattr(grading, "_filed_equations", None)
                    got = graded_derivations(_fresh(gr), within)
                assert list(got.by_degree.items()) == list(want.by_degree.items())
                assert got.sigma == want.sigma and got.identity_part == want.identity_part

    def test_a_zero_d_e_off_the_support(self):
        # b2-skew has no identity component: D_e = 0 heads by_degree and is not in sigma
        gr = _fresh(get_catalog("b2-skew").grading)
        gd = graded_derivations(gr)
        ident = gr.group.identity()
        assert ident not in gr.support and next(iter(gd.by_degree)) == ident
        assert gd.identity_part == Subspace(gr.dimension ** 2, {}) and ident not in gd.sigma
        assert list(gd.by_degree)[1:] == list(gd.sigma) == list(gr.support)

    def test_unknowns_are_read_per_label(self, monkeypatch):
        # one span per support degree, each on the unknowns (r, c) with deg r = g + deg c
        gr = _fresh(get_catalog("cartan-sl3").grading)
        sizes = []
        real = grading._incremental_kernel
        monkeypatch.setattr(grading, "_incremental_kernel", lambda *args: sizes.append(args[0]) or real(*args))
        graded_derivations(gr)
        dims = gr.component_dims()
        want = [
            sum(dims[h.coords] * dims.get(gr.group.reduce([x + y for x, y in zip(g.coords, h.coords)]), 0) for h in gr.support)
            for g in gr.support
        ]
        assert sizes == want

    def test_an_inner_map_mixing_degrees_is_axiom_failure(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl3").grading)
        n = gr.dimension
        r, c = next((r, c) for r in range(n) for c in range(n) if gr.labels[r] != gr.labels[c])
        e = gr.indices_of_degree(gr.group.identity())[0]
        # first entry of degree 0, then one of another degree
        mixed = {e * n + e: 1, r * n + c: 1}
        monkeypatch.setattr(grading, "inner_derivations", lambda a, among: inner_derivations(a, among) + [mixed])
        with pytest.raises(AxiomFailure, match="mixes the derivation degrees"):
            graded_derivations(gr)

    def test_an_inner_map_off_the_subgroup_is_axiom_failure(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl3").grading)
        n = gr.dimension
        r, c = next((r, c) for r in range(n) for c in range(n) if gr.labels[r] != gr.labels[c])
        monkeypatch.setattr(grading, "inner_derivations", lambda a, among: inner_derivations(a, among) + [{r * n + c: 1}])
        with pytest.raises(AxiomFailure, match="no support degree in the subgroup"):
            graded_derivations(gr, Subgroup.from_generators(gr.group, []))


def _streams(gr: Grading) -> dict:
    """Each candidate degree's Leibniz rows from ``_derivation_system``, drained."""
    candidates, _, rows, _ = grading._derivation_system(gr)
    return {g: list(stream) for g, stream in zip(candidates, rows)}


class TestLazyLeibnizRows:
    """Each degree's rows are filed in one pass and built only when its
    solve reads them; drained, each stream is the list that generating
    every row and routing it gives (``helpers.routed_leibniz_rows``), row
    for row and in order."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_under_a_basis_permutation(self, name):
        gr = signed_permutation(get_catalog(name).grading, random.Random(f"lazy-{name}"))
        assert _streams(gr) == routed_leibniz_rows(gr)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: classical_cartan_grading("B", 2),
            lambda: classical_cartan_grading("C", 3),
            lambda: classical_cartan_grading("D", 4),
            lambda: sl_involution_grading(4, alternating=False),
            lambda: twisted_group_grading(3, [[1, 1, 0], [0, 0, 1], [0, 0, 1]]),
            heisenberg_grading,
        ],
        ids=["B2", "C3", "D4", "sl4-involution", "tga3", "heisenberg"],
    )
    def test_generated_gradings(self, build):
        gr = build()
        assert _streams(gr) == routed_leibniz_rows(gr)

    def test_random_gradings_with_a_ternary_operation(self):
        rng = random.Random(2020)
        for trial in range(20):
            gr = random_graded_algebra(rng, ternary=True)
            assert _streams(gr) == routed_leibniz_rows(gr), f"trial {trial}"

    def test_rows_built_are_the_rows_read(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl4").grading)
        routed = routed_leibniz_rows(gr)
        candidates, unknowns, _, _ = grading._derivation_system(gr)
        solved = [g for g, idxs in zip(candidates, unknowns) if idxs]
        built, read = [], []
        real_row, real_solve = grading._leibniz_row, grading.sparse_nullspace

        def building(*args):
            row = real_row(*args)
            built.append(bool(row))
            return row

        def reading(ncols, rows, known=()):
            rows, pulled = iter(rows), []

            def stream():
                for row in rows:
                    pulled.append(row)
                    yield row

            before = sum(built)
            kernel = real_solve(ncols, stream(), known)
            # a nonzero row is built exactly when the solve reads it
            assert sum(built) - before == len(pulled)
            read.append(len(pulled))
            # the rows left are built only now, in the order the solve would have read them
            assert pulled + list(rows) == routed[solved[len(read) - 1]]
            return kernel

        monkeypatch.setattr(grading, "_leibniz_row", building)
        monkeypatch.setattr(grading, "sparse_nullspace", reading)
        # sl4 is semisimple: the Leibniz path is forced, else no row is read
        monkeypatch.setattr(grading, "derivations_are_inner", lambda a: False)
        graded_derivations(gr)
        monkeypatch.undo()
        assert len(read) == len(solved)
        # generating every row before the solves would build all 1320; they read 262
        assert sum(len(rows) for rows in routed.values()) == sum(built) == 1320
        assert sum(read) == 262


def _z_graded(alg: StructureAlgebra, degrees: list[int]) -> Grading:
    z = FgAbGroup(1, ())
    return Grading(alg, z, [z.element([d]) for d in degrees])


def _uncertified_sources():
    """(grading, dim Der, dim span of the inner derivations) of algebras
    that are not semisimple: no certificate, though T2 has only inner
    derivations (the certificate is sufficient, not necessary)."""
    units = [e_matrix(2, i, j) for i in range(2) for j in range(2)]
    gl2 = from_matrices("gl2", units)
    dual = from_matrices("dual", [RatMatrix.identity(2), units[1]], kind="associative")
    t2 = from_matrices("t2", [units[0], units[1], units[3]], kind="associative")
    return [
        # outer derivations in three degrees
        pytest.param(heisenberg_grading(), 6, 2, id="heisenberg"),
        # degenerate Killing form; the outer derivation maps the identity onto the center
        pytest.param(_z_graded(gl2, [0, -1, 1, 0]), 4, 3, id="gl2"),
        # Q[e], e^2 = 0: commutative, so no inner derivation; e -> e is outer
        pytest.param(_z_graded(dual, [0, 1]), 1, 0, id="dual-numbers"),
        # upper triangular 2 x 2 matrices: degenerate trace form, every derivation inner
        pytest.param(_z_graded(t2, [0, 1, 0]), 2, 2, id="t2"),
    ]


class TestUncertifiedDerivations:
    """An algebra that ``derivations_are_inner`` does not certify keeps the
    Leibniz path and its results."""

    @pytest.mark.parametrize("gr, der_dim, inner_dim", _uncertified_sources())
    def test_uncertified_algebras_take_the_leibniz_path(self, gr, der_dim, inner_dim, monkeypatch):
        alg = gr.homog_algebra
        n = alg.dimension
        assert not derivations_are_inner(gr.algebra)
        walks, log = _leibniz_walks(monkeypatch), _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        # one pass files the equations, and every candidate degree is solved from its rows
        assert walks == [alg] and len(log) == len(grading._derivation_system(gr)[0])
        assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))
        assert gd.total_dim() == der_dim == derivation_space(alg).dim
        assert Subspace.span(n * n, inner_derivations(alg, range(n))).dim == inner_dim


class TestCheckGradedMap:
    def test_identity_isomorphism(self):
        gr = cartan_sl2()
        report = check_graded_map(RatMatrix.identity(3), gr, gr)
        assert report.kind == "isomorphism"

    def test_sl2_weyl_flip(self):
        gr = cartan_sl2()
        phi = RatMatrix.from_columns([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
        report = check_graded_map(phi, gr, gr)
        assert report.kind == "equivalence"
        for s, t in report.gamma.items():
            assert t == -s
        # induced universal automorphism is negation on Z
        u = universal_abelian_group(gr)
        one = u.group.element([1])
        assert report.uab_map(one) == -one

    def test_not_automorphism(self):
        gr = cartan_sl2()
        with pytest.raises(NotAutomorphism):
            check_graded_map(mat_scale(RatMatrix.identity(3), 2), gr, gr)
        with pytest.raises(NotAutomorphism):
            check_graded_map(zeros(3, 3), gr, gr)

    def test_neither(self):
        # exp(ad e) is an automorphism but shears h into h - 2e: the image
        # of the degree-0 component is in no single component
        gr = cartan_sl2()
        phi = RatMatrix.from_columns([[1, 0, 0], [-2, 1, 0], [-1, 1, 1]])
        report = check_graded_map(phi, gr, gr)
        assert report.kind == "neither"

    def test_uab_map_contract(self):
        gr = pauli_m2()
        # swap x and z components: conjugation-like symmetry of the table
        phi = RatMatrix.from_columns(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]]
        )
        report = check_graded_map(phi, gr, gr)
        assert report.kind == "equivalence"
        u_src = universal_abelian_group(gr)
        for s in u_src.support_order:
            assert report.uab_map(u_src.iota[s]) == u_src.iota[report.gamma[s]]

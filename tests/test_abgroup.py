"""Finitely generated abelian groups: canonical forms, subgroups, homs."""

import itertools
import random
from math import gcd, prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sym_snf

from gradalg.abgroup import (
    FgAbGroup,
    GroupHom,
    Subgroup,
    enumerate_homs,
    enumerate_subgroups,
    group_from_presentation,
    quotient_by,
    torsion_and_free,
)
from gradalg.catalog import get_catalog
from gradalg.errors import CapExceeded, ShapeError
from gradalg.exactla import IntMatrix, hnf_solve, smith_normal_form

from helpers import (
    all_abelian_groups_up_to,
    closure_elements,
    element_order,
    element_set_subgroups,
    filtered_homs,
    from_gen_images,
    full_subgroup,
    generatorwise_equal,
    hom_from_images,
    image_is_whole_group,
    project,
    rational_section,
    two_sided_isomorphism,
)


def brute_force_subgroup_count(g: FgAbGroup) -> int:
    """Independent oracle: grow subgroups as closed element sets."""
    ident = g.identity()
    elems = g.elements()
    found = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        nxt = []
        for sub in frontier:
            for x in elems:
                if x in sub:
                    continue
                closed = set(sub)
                todo = [x]
                while todo:
                    y = todo.pop()
                    if y in closed:
                        continue
                    closed.add(y)
                    todo.extend(y + s for s in list(closed))
                fs = frozenset(closed)
                if fs not in found:
                    found.add(fs)
                    nxt.append(fs)
        frontier = nxt
    return len(found)


def subset_closure_count(g: FgAbGroup) -> int:
    """Second oracle for tiny groups: test every subset for closure."""
    elems = g.elements()
    ident = g.identity()
    count = 0
    for size in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, size):
            s = set(subset)
            if ident not in s:
                continue
            if all((a + b) in s and (-a) in s for a in s for b in s):
                count += 1
    return count


class TestGroupBasics:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, [1])
        with pytest.raises(ValueError):
            FgAbGroup(0, [4, 2])
        g = FgAbGroup(1, [2, 4])
        assert g.ngens == 3
        assert not g.is_finite
        assert FgAbGroup(0, [2, 4]).order() == 8

    def test_element_arithmetic(self):
        g = FgAbGroup(1, [3])
        a = g.element([2, 2])
        b = g.element([1, 2])
        assert (a + b).coords == (3, 1)
        assert (a - b).coords == (1, 0)
        assert (-a).coords == (-2, 1)
        assert (3 * b).coords == (3, 0)

    def test_elements_listing(self):
        assert len(FgAbGroup(0, [6]).elements()) == 6
        assert len(FgAbGroup(0, [2, 4]).elements()) == 8


class TestPresentation:
    def test_single_relation_z2(self):
        pres = group_from_presentation(1, IntMatrix([[2]]))
        assert pres.group == FgAbGroup(0, [2])

    def test_sl2_cartan_relations(self):
        # generators s_{-1}, s_0, s_1 with relations s_0 = 0 and
        # s_1 + s_{-1} = s_0: quotient is infinite cyclic
        rel = IntMatrix.from_columns([[0, 1, 0], [1, -1, 1]])
        pres = group_from_presentation(3, rel)
        assert pres.group == FgAbGroup(1, ())
        # check against the SNF diagonal of the relation matrix
        sm = sym_snf(sympy.Matrix(rel.data), domain=sympy.ZZ)
        nonzero = [abs(int(sm[i, i])) for i in range(2) if sm[i, i] != 0]
        assert all(d == 1 for d in nonzero)

    def test_z2_to_4_presentation(self):
        rel = IntMatrix.from_columns(
            [[2 if i == j else 0 for i in range(4)] for j in range(4)]
        )
        pres = group_from_presentation(4, rel)
        assert pres.group == FgAbGroup(0, [2, 2, 2, 2])

    def test_projection_kernel_is_relation_lattice(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rel = IntMatrix([[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
            pres = group_from_presentation(n, rel)
            # every relation column projects to zero
            for j in range(rel.cols):
                assert project(pres, rel.column(j)).is_identity()
            # the section is a right inverse of the projection
            for i in range(pres.group.ngens):
                gen = pres.group.generator(i)
                assert project(pres, pres.section_matrix.matvec(gen.coords)) == gen
            # surjectivity: canonical generators are hit
            hom = GroupHom(
                FgAbGroup(n, ()),
                pres.group,
                pres.projection_matrix,
            )
            assert hom.is_surjective()


    @staticmethod
    def assert_section_matches_rational_section(n, rel):
        pres = group_from_presentation(n, rel)
        snf = smith_normal_form(rel)
        diag = list(snf.diagonal()) + [0] * (n - min(rel.rows, rel.cols))
        rows = [i for i in range(n) if diag[i] == 0] + [i for i in range(n) if diag[i] >= 2]
        assert pres.section_matrix == rational_section(snf.U, rows)

    def test_section_matches_the_rational_section(self):
        rng = random.Random(17)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.choice((1, 2, 3, 6))
            rel = IntMatrix([[k * rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
            self.assert_section_matches_rational_section(n, rel)

    def test_section_matches_the_rational_section_on_every_small_group(self):
        # each group of order <= 64, presented on generators mixed by a
        # seeded unimodular change of basis and with a redundant relation
        rng = random.Random(19)
        for g in all_abelian_groups_up_to(64):
            n = g.ngens
            if n == 0:
                continue
            rows = [list(r) for r in g.relation_lattice().data]
            for _ in range(3 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            rel = IntMatrix([r + [sum(r)] for r in rows])
            self.assert_section_matches_rational_section(n, rel)
            assert group_from_presentation(n, rel).group == g


class TestEmptyInputs:
    """A lattice with no columns goes down the general path: no relations,
    no generators, no kernel."""

    GROUPS = [FgAbGroup(0, ()), FgAbGroup(2, ()), FgAbGroup(0, [2, 4]), FgAbGroup(1, [3])]

    @pytest.mark.parametrize("n", range(4))
    def test_presentation_without_relations_is_free(self, n):
        # an n x 0 Smith form has U = U^-1 = I: Z^n with identity projection and section
        pres = group_from_presentation(n, IntMatrix.zeros(n, 0))
        assert pres.group == FgAbGroup(n, ())
        assert pres.projection_matrix == pres.section_matrix == IntMatrix.identity(n)
        # IntMatrix([]) is 0 x 0: relations on no generators, not on n of them
        if n:
            with pytest.raises(ShapeError, match="one row per generator"):
                group_from_presentation(n, IntMatrix([]))

    def test_relation_lattice_of_a_free_group_has_no_columns(self):
        for g in self.GROUPS:
            assert g.relation_lattice().shape == (g.ngens, len(g.invariants))

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_subgroup_with_no_generators_is_trivial(self, g):
        trivial = Subgroup.from_generators(g, [])
        assert trivial.order() == 1 and trivial.elements() == [g.identity()]
        assert trivial.lattice == IntMatrix.from_columns(g.relation_lattice().columns(), rows=g.ngens)
        assert full_subgroup(g).order() == g.order()

    def test_hom_from_the_trivial_group(self):
        for h in self.GROUPS:
            f = from_gen_images(FgAbGroup(0, ()), h, [])
            assert f.matrix == IntMatrix.zeros(h.ngens, 0)
            assert f.image().order() == 1

    def test_compositions_through_the_trivial_group(self):
        # Z -> 0 is 0 x 1 and 0 -> Z is 1 x 0, so both composites have a shape
        z, trivial = FgAbGroup(1, ()), FgAbGroup(0, ())
        to_zero = GroupHom(z, trivial, IntMatrix.zeros(0, 1))
        from_zero = from_gen_images(trivial, z, [])
        assert from_zero.compose(to_zero).matrix == IntMatrix([[0]])
        assert from_zero.compose(to_zero) == GroupHom(z, z, IntMatrix([[0]]))
        assert to_zero.compose(from_zero) == GroupHom.identity(trivial)
        assert to_zero.compose(from_zero).matrix == IntMatrix.identity(0)

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_maps_into_the_trivial_group(self, g):
        trivial = FgAbGroup(0, ())
        f = GroupHom(g, trivial, IntMatrix.zeros(0, g.ngens))
        assert all(f(x) == trivial.identity() for x in g.generators())
        assert f.kernel() == full_subgroup(g) and f.image() == full_subgroup(trivial)
        assert f.image().order() == 1 and f.is_surjective()
        with pytest.raises(ShapeError, match="shape mismatch"):
            GroupHom(g, trivial, IntMatrix.zeros(0, g.ngens + 1))
        # a presentation whose relations kill every generator projects onto 0
        pres = group_from_presentation(2, IntMatrix.identity(2))
        assert pres.group == trivial and pres.projection_matrix.shape == (0, 2)
        assert project(pres, [3, -1]) == trivial.identity()
        assert pres.section_matrix.shape == (2, 0) and pres.section_matrix.matvec(()) == (0, 0)

    @pytest.mark.parametrize("name", ["cartan-sl3", "cartan-sl4"])
    def test_kernel_and_inverse_into_a_free_codomain(self, name):
        # the Weyl reflections of a Cartan grading act on Z^r, whose relation lattice is empty
        entry = get_catalog(name)
        g = entry.grading.group
        assert g.relation_lattice() == IntMatrix.zeros(g.ngens, 0) and entry.weyl_on_group
        for w in entry.weyl_on_group:
            assert w.kernel().lattice == IntMatrix.zeros(g.ngens, 0) and w.kernel().order() == 1
        z = FgAbGroup(1, ())
        assert GroupHom(z, z, IntMatrix([[2]])).kernel().order() == 1


class TestTorsionAndQuotient:
    def test_free_group(self):
        g = FgAbGroup(2, ())
        t, proj = torsion_and_free(g)
        assert t.order() == 1
        assert proj.is_isomorphism()

    def test_mixed(self):
        g = FgAbGroup(1, [6])
        t, proj = torsion_and_free(g)
        assert t.order() == 6
        assert proj.codomain == FgAbGroup(1, ())
        assert proj.kernel() == t

    def test_quotient_z_by_2z(self):
        g = FgAbGroup(1, ())
        e = Subgroup.from_generators(g, [g.element([2])])
        q, hom = quotient_by(g, e)
        assert q == FgAbGroup(0, [2])
        assert hom.is_surjective()
        assert hom.kernel() == e

    def test_quotient_z2_4_by_order2(self):
        g = FgAbGroup(0, [2, 2, 2, 2])
        e = Subgroup.from_generators(g, [g.element([1, 1, 1, 1])])
        q, hom = quotient_by(g, e)
        assert q == FgAbGroup(0, [2, 2, 2])
        assert hom.kernel() == e

    def test_quotient_z_plus_z4(self):
        g = FgAbGroup(1, [4])
        e = Subgroup.from_generators(g, [g.element([0, 2])])
        q, hom = quotient_by(g, e)
        assert q == FgAbGroup(1, [2])
        # SNF oracle on the combined lattice
        sm = sym_snf(sympy.Matrix([[0, 0], [2, 4]]), domain=sympy.ZZ)
        diag = sorted(abs(int(sm[i, i])) for i in range(2))
        assert diag == [0, 2]

    def test_order_multiplicativity(self):
        rng = random.Random(9)
        for _ in range(20):
            g = FgAbGroup(0, rng.choice([[2, 4], [2, 2, 2], [3, 3], [2, 6], [8]]))
            elems = g.elements()
            gens = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
            e = Subgroup.from_generators(g, gens)
            q, _ = quotient_by(g, e)
            assert e.order() * q.order() == g.order()


class TestSubgroups:
    def test_membership_and_canonical_form(self):
        g = FgAbGroup(0, [2, 2])
        e1 = Subgroup.from_generators(g, [g.element([1, 0])])
        e2 = Subgroup.from_generators(g, [g.element([1, 0]), g.element([1, 0])])
        assert e1 == e2
        assert e1.contains(g.element([1, 0]))
        assert not e1.contains(g.element([0, 1]))
        assert e1.order() == 2

    def test_elements_of_subgroup(self):
        g = FgAbGroup(0, [4])
        e = Subgroup.from_generators(g, [g.element([2])])
        assert [x.coords for x in e.elements()] == [(0,), (2,)]

    def test_infinite_subgroup(self):
        g = FgAbGroup(1, [2])
        e = Subgroup.from_generators(g, [g.element([3, 0])])
        assert not e.is_finite
        assert e.order() is None

    def test_order_counts_elements(self):
        # order() reads the HNF diagonal; elements() walks the HNF columns
        for invs in [[2, 2, 2], [2, 4], [3, 9], [2, 2, 4]]:
            g = FgAbGroup(0, invs)
            for s in enumerate_subgroups(full_subgroup(g)):
                assert s.order() == len(s.elements()), (invs, s)
        rng = random.Random(7)
        for free, invs in [(1, [2, 6]), (2, [2, 2, 4])]:
            g = FgAbGroup(free, invs)
            for _ in range(20):
                gens = [
                    g.element([0] * free + [rng.randrange(d) for d in invs])
                    for _ in range(rng.randint(0, 3))
                ]
                s = Subgroup.from_generators(g, gens)
                assert s.order() == len(s.elements()), (free, invs, gens)


class TestEnumerateSubgroups:
    def test_z2(self):
        g = FgAbGroup(0, [2])
        subs = enumerate_subgroups(full_subgroup(g))
        assert len(subs) == 2

    def test_z2_squared(self):
        g = FgAbGroup(0, [2, 2])
        subs = enumerate_subgroups(full_subgroup(g))
        assert len(subs) == 5
        assert subset_closure_count(g) == 5

    def test_z2_to_4(self):
        g = FgAbGroup(0, [2, 2, 2, 2])
        subs = enumerate_subgroups(full_subgroup(g))
        assert len(subs) == 67
        assert brute_force_subgroup_count(g) == 67

    def test_mixed_orders_against_oracle(self):
        for invs in [[6], [2, 4], [12], [2, 6], [3, 3], [2, 2, 2]]:
            g = FgAbGroup(0, invs)
            subs = enumerate_subgroups(full_subgroup(g))
            assert len(subs) == brute_force_subgroup_count(g), invs
            assert len(subs) == len(set(subs))
            # sorted by order
            orders = [s.order() for s in subs]
            assert orders == sorted(orders)

    def test_predicate_and_cap(self):
        g = FgAbGroup(0, [2, 2])
        subs = [s for s in enumerate_subgroups(full_subgroup(g)) if s.order() <= 2]
        assert len(subs) == 4
        with pytest.raises(CapExceeded):
            enumerate_subgroups(full_subgroup(FgAbGroup(0, [3] * 9)))

    def test_proper_subgroup_of_owner(self):
        g = FgAbGroup(0, [2, 4])
        h = Subgroup.from_generators(g, [g.element([0, 2]), g.element([1, 0])])
        subs = enumerate_subgroups(h)
        assert all(hnf_solve(h.lattice, list(c)) is not None for s in subs for c in s.lattice.columns())
        # h is Z2 x Z2: five subgroups
        assert len(subs) == 5


class TestAgainstElementSetOracles:
    """The HNF enumerations return the same lists, in the same order, as
    the element-set searches they replaced."""

    @staticmethod
    def check_subgroups(h: Subgroup):
        subs = enumerate_subgroups(h, cap=10**5)
        assert [s.lattice for s in subs] == [s.lattice for s in element_set_subgroups(h)], h
        for s in subs:
            assert s.elements() == closure_elements(s), s

    def test_every_group_up_to_order_32(self):
        for g in all_abelian_groups_up_to(32):
            self.check_subgroups(full_subgroup(g))

    def test_seeded_subgroups_with_free_rank(self):
        rng = random.Random(13)
        proper = 0
        for _ in range(120):
            free = rng.randint(0, 2)
            invs = rng.choice(
                [[], [2], [6], [2, 2], [2, 4], [3, 9], [2, 6], [2, 2, 2], [2, 2, 4], [4, 8]]
            )
            g = FgAbGroup(free, invs)
            gens = [
                g.element([0] * free + [rng.randrange(d) for d in invs])
                for _ in range(rng.randint(0, 3))
            ]
            h = Subgroup.from_generators(g, gens)
            proper += h.order() < prod(invs)
            self.check_subgroups(h)
        assert proper >= 60

    def test_homs_from_free_and_torsion_generators(self):
        domains = [
            (0, []), (1, []), (2, []), (0, [2]), (0, [4]), (1, [2]), (0, [2, 4]), (1, [3]), (2, [2]),
            (0, [6]),
        ]
        codomains = [[], [2], [4], [2, 2], [2, 4], [6], [3, 3], [2, 8]]
        for free, invs in domains:
            g = FgAbGroup(free, invs)
            for hinvs in codomains:
                h = FgAbGroup(0, hinvs)
                got = enumerate_homs(g, h)
                oracle = filtered_homs(g, h)
                assert got == [f.images() for f in oracle], (g, h)
                # each image tuple is a well-defined hom with the oracle's matrix
                assert [hom_from_images(g, h, t).matrix for t in got] == [f.matrix for f in oracle], (g, h)


class TestHoms:
    def test_counts(self):
        z = FgAbGroup(1, ())
        z2 = FgAbGroup(0, [2])
        z3 = FgAbGroup(0, [3])
        assert len(enumerate_homs(z, z2)) == 2
        assert len(enumerate_homs(z2, z3)) == 1
        v4 = FgAbGroup(0, [2, 2])
        assert len(enumerate_homs(v4, v4)) == 16

    def test_well_definedness_rejected(self):
        z2 = FgAbGroup(0, [2])
        z4 = FgAbGroup(0, [4])
        with pytest.raises(ValueError):
            GroupHom(z2, z4, IntMatrix([[1]]))
        # 2 times any image must vanish: image of order <= 2 is fine
        GroupHom(z2, z4, IntMatrix([[2]]))

    def test_brute_force_hom_count(self):
        g = FgAbGroup(0, [2, 4])
        h = FgAbGroup(0, [4])
        ours = enumerate_homs(g, h)
        # brute force: all matrices with the well-definedness property
        count = 0
        for a in range(4):
            for b in range(4):
                if (2 * a) % 4 == 0 and (4 * b) % 4 == 0:
                    count += 1
        assert len(ours) == count
        assert len(set(ours)) == len(ours)

    def test_kernel_image(self):
        z = FgAbGroup(1, ())
        z4 = FgAbGroup(0, [4])
        f = GroupHom(z, z4, IntMatrix([[2]]))
        assert f.image().order() == 2
        assert f.kernel().contains(z.element([2]))
        assert not f.kernel().contains(z.element([1]))

    def test_compose_and_identity(self):
        g = FgAbGroup(0, [2, 2])
        i = GroupHom.identity(g)
        f = GroupHom(g, g, IntMatrix([[0, 1], [1, 0]]))
        assert f.compose(i) == f
        assert f.compose(f) == i
        assert f.is_isomorphism()

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_homs(FgAbGroup(5, ()), FgAbGroup(0, [8, 8]), cap=100)

    @pytest.mark.parametrize(
        "g, h, cap, total",
        [
            (FgAbGroup(1, ()), FgAbGroup(0, [300000]), 10**4, 300000),
            (FgAbGroup(5, ()), FgAbGroup(0, [8, 8]), 100, 4096),
            (FgAbGroup(1, [2, 4]), FgAbGroup(0, [4, 8]), 100, 128),
            (FgAbGroup(0, [2, 4]), FgAbGroup(0, [4, 10**12]), 10, 64),
        ],
    )
    def test_cap_is_checked_before_listing_the_target(self, monkeypatch, g, h, cap, total):
        listed = FgAbGroup.elements

        def elements(group):
            assert group.order() <= cap, "listed a target larger than the cap"
            return listed(group)

        monkeypatch.setattr(FgAbGroup, "elements", elements)
        with pytest.raises(CapExceeded, match=rf"^{total}\+ homomorphisms exceeds cap {cap}$"):
            enumerate_homs(g, h, cap=cap)


#: small groups with and without free and torsion parts
_SMALL = [
    FgAbGroup(0, ()),
    FgAbGroup(1, ()),
    FgAbGroup(2, ()),
    FgAbGroup(0, [2]),
    FgAbGroup(0, [2, 2]),
    FgAbGroup(0, [2, 4]),
    FgAbGroup(1, [3]),
    FgAbGroup(1, [2, 6]),
]


def _random_hom(rng: random.Random, g: FgAbGroup, h: FgAbGroup) -> GroupHom:
    """A hom G -> H whose torsion rows hold random multiples of the
    invariants on top of the image, so its matrix is rarely reduced."""
    columns = []
    for i in range(g.ngens):
        d = g.invariants[i - g.free_rank] if i >= g.free_rank else 0
        free = [0 if d else rng.randint(-5, 5) for _ in range(h.free_rank)]
        # d x must vanish modulo e: x a multiple of e / gcd(d, e)
        torsion = [rng.randrange(0, e, e // gcd(d, e)) + e * rng.randint(-3, 3) for e in h.invariants]
        columns.append(free + torsion)
    return GroupHom(g, h, IntMatrix.from_columns(columns, rows=h.ngens))


def _random_hom_like(rng: random.Random, a: GroupHom) -> GroupHom:
    """The map ``a`` with random multiples of the invariants added to its torsion rows."""
    h, r = a.codomain, a.codomain.free_rank
    rows = [
        [x + (h.invariants[t - r] * rng.randint(-3, 3) if t >= r else 0) for x in row]
        for t, row in enumerate(a.matrix.data)
    ]
    return GroupHom(a.domain, h, IntMatrix(rows, a.domain.ngens))


class TestHomEquality:
    """``==`` and ``hash`` read the reduced generator images, which agree
    with evaluating each canonical generator through ``__call__``."""

    def assert_agrees(self, homs):
        for a in homs:
            assert a.images() == tuple(a(x).coords for x in a.domain.generators())
            for b in homs:
                assert (a == b) == generatorwise_equal(a, b)
                if a == b:
                    assert hash(a) == hash(b)

    def test_random_homs_between_small_groups(self):
        rng = random.Random(25)
        for g, h in itertools.product(_SMALL, repeat=2):
            homs = [_random_hom(rng, g, h) for _ in range(6)]
            # the same maps written with other multiples of the invariants
            homs += [_random_hom_like(rng, a) for a in homs]
            self.assert_agrees(homs)
            assert len(set(homs)) == len({a.images() for a in homs})

    def test_homs_between_different_groups_differ(self):
        z2, z4 = FgAbGroup(0, [2]), FgAbGroup(0, [4])
        homs = [
            GroupHom(z2, z2, IntMatrix([[1]])),
            GroupHom(z2, z4, IntMatrix([[2]])),
            GroupHom(FgAbGroup(1, ()), z2, IntMatrix([[1]])),
            GroupHom(FgAbGroup(1, ()), z4, IntMatrix([[2]])),
        ]
        self.assert_agrees(homs)
        assert len(set(homs)) == 4

    def test_compositions(self):
        rng = random.Random(26)
        for _ in range(40):
            g, h, k = (rng.choice(_SMALL) for _ in range(3))
            inner, outer = _random_hom(rng, g, h), _random_hom(rng, h, k)
            composite = outer.compose(inner)
            by_images = from_gen_images(g, k, [outer(inner(x)) for x in g.generators()])
            self.assert_agrees([composite, by_images, _random_hom(rng, g, k)])
            assert composite == by_images and hash(composite) == hash(by_images)

    def test_compositions_with_entries_beyond_the_invariants(self):
        z2 = FgAbGroup(0, [2])
        swap = GroupHom(FgAbGroup(0, [2, 2]), FgAbGroup(0, [2, 2]), IntMatrix([[2, 1], [1, 2]]))
        square = swap.compose(swap)
        assert square.matrix == IntMatrix([[5, 4], [4, 5]])
        identity = GroupHom.identity(swap.domain)
        assert square == identity and hash(square) == hash(identity)
        triple = GroupHom(z2, z2, IntMatrix([[3]]))
        assert triple.compose(triple).matrix == IntMatrix([[9]])
        self.assert_agrees([triple, triple.compose(triple), GroupHom.identity(z2), GroupHom(z2, z2, IntMatrix([[2]]))])

    def test_literals_into_z2(self):
        z, z2 = FgAbGroup(1, ()), FgAbGroup(0, [2])
        homs = [GroupHom(d, z2, IntMatrix([[c]])) for d in (z, z2) for c in (-2, -1, 0, 1, 2, 3)]
        self.assert_agrees(homs)
        assert GroupHom(z2, z2, IntMatrix([[3]])) == GroupHom.identity(z2)
        assert GroupHom(z2, z2, IntMatrix([[3]])).images() == ((1,),)
        assert GroupHom(z, z2, IntMatrix([[-2]])) == GroupHom(z, z2, IntMatrix([[0]]))
        assert len(set(homs)) == 4

    def test_images_are_reduced_once(self, monkeypatch):
        # hashing, comparing and reading a hom reduce its columns on the first read only
        rng = random.Random(74)
        a = _random_hom(rng, FgAbGroup(1, [2, 4]), FgAbGroup(1, [2, 6]))
        b = _random_hom_like(rng, a)
        reduced = []
        reduce = FgAbGroup.reduce
        monkeypatch.setattr(FgAbGroup, "reduce", lambda g, v: reduced.append(v) or reduce(g, v))
        assert hash(a) == hash(b) and a == b and a.images() == b.images()
        assert len(reduced) == 2 * a.domain.ngens
        assert hash(a) == hash(b) and a == b and {a: 1}[b] == 1
        assert len(reduced) == 2 * a.domain.ngens

    def test_quotient_projections(self):
        for g in _SMALL:
            for e in enumerate_subgroups(torsion_and_free(g)[0]):
                q, proj = quotient_by(g, e)
                by_images = from_gen_images(g, q, [proj(x) for x in g.generators()])
                self.assert_agrees([proj, by_images])
                assert proj == by_images and hash(proj) == hash(by_images)


class TestRoundTrip:
    def test_presentation_of_hom_kernel_reproduces_image(self):
        rng = random.Random(21)
        for _ in range(15):
            g = FgAbGroup(rng.randint(0, 2), rng.choice([[], [2], [2, 4], [3]]))
            h = FgAbGroup(0, rng.choice([[4], [2, 2], [6], [2, 8]]))
            if g.ngens == 0:
                continue
            elems = h.elements()
            images = []
            ok = True
            for i in range(g.ngens):
                if i < g.free_rank:
                    images.append(rng.choice(elems))
                else:
                    d = g.invariants[i - g.free_rank]
                    opts = [x for x in elems if d % element_order(x) == 0]
                    images.append(rng.choice(opts))
            f = from_gen_images(g, h, images)
            # Z^{ngens} -> G -> H; presenting by the kernel of the composite
            # reproduces the image of f
            pres = group_from_presentation(g.ngens, f.kernel().lattice)
            img = f.image()
            q = pres.group
            assert q.order() == img.order()


class TestHopfianIsomorphism:
    """``is_isomorphism`` tests an endomorphism for surjectivity alone, a
    finitely generated abelian group being Hopfian; it must agree with the
    former two-sided test (``helpers.two_sided_isomorphism``), and
    ``is_surjective``, one Hermite form compared with the identity, with
    the former image comparison (``helpers.image_is_whole_group``)."""

    def test_every_endomorphism_up_to_order_8(self):
        automorphisms = {}
        for g in all_abelian_groups_up_to(8):
            homs = [hom_from_images(g, g, t) for t in enumerate_homs(g, g)]
            verdicts = [f.is_isomorphism() for f in homs]
            assert verdicts == [two_sided_isomorphism(f) for f in homs]
            assert [f.is_surjective() for f in homs] == [image_is_whole_group(f) for f in homs]
            automorphisms[g.invariants] = sum(verdicts)
        # |Aut| of Z_n is phi(n); GL(2, 2) has 6 elements, GL(3, 2) 168; |Aut(Z_2 + Z_4)| = 8
        assert automorphisms[(8,)] == 4 and automorphisms[(7,)] == 6
        assert automorphisms[(2, 2)] == 6 and automorphisms[(2, 2, 2)] == 168 and automorphisms[(2, 4)] == 8

    @pytest.mark.parametrize(
        "g", [FgAbGroup(2, ()), FgAbGroup(1, [2, 4]), FgAbGroup(0, [2, 4, 8])], ids=repr
    )
    def test_random_matrices_shifted_by_the_invariants(self, g):
        rng = random.Random(repr(g))
        homs = [_random_hom(rng, g, g) for _ in range(300)]
        verdicts = [f.is_isomorphism() for f in homs]
        assert verdicts == [two_sided_isomorphism(f) for f in homs]
        assert [f.is_surjective() for f in homs] == [image_is_whole_group(f) for f in homs]
        assert True in verdicts and False in verdicts

    def test_unequal_groups_are_never_isomorphic(self):
        z4, z2, z2z2 = FgAbGroup(0, [4]), FgAbGroup(0, [2]), FgAbGroup(0, [2, 2])
        pairs = [(z4, z2z2), (z4, z2), (FgAbGroup(1, ()), z2), (FgAbGroup(1, [2]), FgAbGroup(1, ()))]
        rng = random.Random(44)
        surjective = 0
        for g, h in pairs:
            for f in (_random_hom(rng, g, h) for _ in range(40)):
                # groups in canonical form are isomorphic only when equal
                assert f.is_isomorphism() is False and two_sided_isomorphism(f) is False
                assert f.is_surjective() == image_is_whole_group(f)
                surjective += f.is_surjective()
        assert surjective

"""Finitely generated abelian groups: canonical forms, subgroups, homs."""

import itertools
import random
from math import prod

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
from gradalg import exactla
from gradalg.exactla import IntMatrix, hnf_solve, smith_normal_form

from helpers import (
    all_abelian_groups_up_to,
    closure_elements,
    element_order,
    element_set_subgroups,
    filtered_homs,
    rational_section,
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
                assert pres.project(rel.column(j)).is_identity()
            # the section is a right inverse of the projection
            for i in range(pres.group.ngens):
                gen = pres.group.generator(i)
                assert pres.project(pres.section(gen)) == gen
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
        for rel in (IntMatrix.zeros(n, 0), IntMatrix([])):
            pres = group_from_presentation(n, rel)
            assert pres.group == FgAbGroup(n, ())
            assert pres.projection_matrix == pres.section_matrix == IntMatrix.identity(n)

    def test_relation_lattice_of_a_free_group_has_no_columns(self):
        for g in self.GROUPS:
            assert g.relation_lattice().shape == (g.ngens, len(g.invariants))

    @pytest.mark.parametrize("g", GROUPS, ids=str)
    def test_subgroup_with_no_generators_is_trivial(self, g):
        trivial = Subgroup.from_generators(g, [])
        assert trivial.order() == 1 and trivial.elements() == [g.identity()]
        assert trivial.lattice == IntMatrix.from_columns(g.relation_lattice().columns(), rows=g.ngens)
        assert g.full_subgroup().order() == g.order()

    def test_hom_from_the_trivial_group(self):
        for h in self.GROUPS:
            f = GroupHom.from_gen_images(FgAbGroup(0, ()), h, [])
            assert f.matrix == IntMatrix.zeros(h.ngens, 0)
            assert f.image().order() == 1

    @pytest.mark.parametrize("name", ["cartan-sl3", "cartan-sl4"])
    def test_kernel_and_inverse_into_a_free_codomain(self, name):
        # the Weyl reflections of a Cartan grading act on Z^r, whose relation lattice is empty
        entry = get_catalog(name)
        g = entry.grading.group
        assert g.relation_lattice() == IntMatrix.zeros(g.ngens, 0) and entry.weyl_on_group
        for w in entry.weyl_on_group:
            assert w.kernel().lattice == IntMatrix.zeros(g.ngens, 0) and w.kernel().order() == 1
            inv = w.inverse()
            assert inv.compose(w) == w.compose(inv) == GroupHom.identity(g)
        z = FgAbGroup(1, ())
        assert GroupHom(z, z, IntMatrix([[2]])).kernel().order() == 1
        with pytest.raises(ValueError, match="not surjective"):
            GroupHom(z, z, IntMatrix([[2]])).inverse()


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
        assert not e.is_finite()
        assert e.order() is None

    def test_order_counts_elements(self):
        # order() reads the HNF diagonal; elements() walks the HNF columns
        for invs in [[2, 2, 2], [2, 4], [3, 9], [2, 2, 4]]:
            g = FgAbGroup(0, invs)
            for s in enumerate_subgroups(g.full_subgroup()):
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
        subs = enumerate_subgroups(g.full_subgroup())
        assert len(subs) == 2

    def test_z2_squared(self):
        g = FgAbGroup(0, [2, 2])
        subs = enumerate_subgroups(g.full_subgroup())
        assert len(subs) == 5
        assert subset_closure_count(g) == 5

    def test_z2_to_4(self):
        g = FgAbGroup(0, [2, 2, 2, 2])
        subs = enumerate_subgroups(g.full_subgroup())
        assert len(subs) == 67
        assert brute_force_subgroup_count(g) == 67

    def test_mixed_orders_against_oracle(self):
        for invs in [[6], [2, 4], [12], [2, 6], [3, 3], [2, 2, 2]]:
            g = FgAbGroup(0, invs)
            subs = enumerate_subgroups(g.full_subgroup())
            assert len(subs) == brute_force_subgroup_count(g), invs
            assert len(subs) == len(set(subs))
            # sorted by order
            orders = [s.order() for s in subs]
            assert orders == sorted(orders)

    def test_predicate_and_cap(self):
        g = FgAbGroup(0, [2, 2])
        subs = [s for s in enumerate_subgroups(g.full_subgroup()) if s.order() <= 2]
        assert len(subs) == 4
        with pytest.raises(CapExceeded):
            enumerate_subgroups(FgAbGroup(0, [3] * 9).full_subgroup())

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
            self.check_subgroups(g.full_subgroup())

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
                got = [f.matrix for f in enumerate_homs(g, h)]
                assert got == [f.matrix for f in filtered_homs(g, h)], (g, h)


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

    def test_inverse_takes_one_smith_form(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exactla, "smith_normal_form", lambda m: calls.append(m) or smith_normal_form(m))
        autos = [f for g in (FgAbGroup(0, [2, 4]), FgAbGroup(0, [3, 3])) for f in enumerate_homs(g, g) if f.is_isomorphism()]
        g = FgAbGroup(2, [2])
        autos.append(GroupHom(g, g, IntMatrix([[2, 1, 0], [1, 1, 0], [1, 0, 1]])))
        assert len(autos) == 8 + 48 + 1
        for f in autos:
            calls.clear()
            inv = f.inverse()
            assert len(calls) == 1
            assert inv.compose(f) == GroupHom.identity(f.domain) and f.compose(inv) == GroupHom.identity(f.codomain)
        z = FgAbGroup(1, ())
        with pytest.raises(ValueError, match="not surjective"):
            GroupHom(z, z, IntMatrix([[2]])).inverse()

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
            f = GroupHom.from_gen_images(g, h, images)
            # Z^{ngens} -> G -> H; presenting by the kernel of the composite
            # reproduces the image of f
            pres = group_from_presentation(g.ngens, f.kernel().lattice)
            img = f.image()
            q = pres.group
            assert q.order() == img.order()

"""Gradings: validation, universal groups, induced gradings, derivations,
graded-map verification."""

import random
from fractions import Fraction as Q

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sym_snf

from gradalg import grading
from gradalg.abgroup import FgAbGroup, GroupHom
from gradalg.algcore import (
    MultilinearOp,
    StructureAlgebra,
    derivation_algebra,
    derivation_space,
    inner_derivations,
    subalgebra_structure,
)
from gradalg.catalog import catalog_names, get_catalog
from gradalg.errors import AxiomFailure, IncompatibleDegrees, NotAutomorphism, ShapeError
from gradalg.exactla import IntMatrix, RatMatrix, Subspace, inverse, rank
from gradalg.grading import (
    Grading,
    check_graded_map,
    graded_derivations,
    induce,
    universal_abelian_group,
)

from helpers import (
    build_m2_splitpauli,
    build_sl2_efh,
    classical_cartan_grading,
    dense_graded_derivations,
    dense_rebase,
    flatten,
    graded_parts,
    mat_from_flat,
    heisenberg_grading,
    random_graded_algebra,
    signed_permutation,
    sl_involution_grading,
    sparse,
    span_of,
    twisted_group_grading,
    unit,
    vectors,
    zeros,
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
        assert all(c.dim == 1 for c in gr.components().values())

    def test_basis_change_z2_grading(self):
        alg = build_sl2_efh()
        z2 = FgAbGroup(0, [2])
        # homogeneous basis: h (even), e+f, e-f (odd)
        c = RatMatrix.from_columns([[0, 1, 0], [1, 0, 1], [1, 0, -1]])
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
        c = RatMatrix.from_columns([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
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
    return Grading(alg, gr.group, gr.degrees, c)


class TestSparseRebasing:
    """The homogeneous tensors equal the dense re-basing: every key through
    the whole-tensor loop and a rational solve per value."""

    def test_b2_skew_fine(self):
        fine = get_catalog("b2-skew").companions["fine"]
        assert fine.basis_change != RatMatrix.identity(fine.dimension)
        assert _tensors(fine.homog_algebra) == dense_rebase(fine.algebra, fine.basis_change)

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
            Grading(alg, z, degrees, RatMatrix.identity(2))


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
            assert uab.universal_grading().homog_algebra is gr.homog_algebra

    def test_identity_basis_change_reuses_the_algebra(self):
        gr = cartan_sl2()
        assert gr.homog_algebra is gr.algebra
        assert Grading(gr.algebra, gr.group, gr.degrees, RatMatrix.identity(3)).homog_algebra is gr.algebra
        # another name or other flags still give a re-based, checked copy
        for kwargs in ({"name": "other"}, {"flags": ()}):
            copy = subalgebra_structure(gr.algebra, [{i: Q(1)} for i in range(3)], **kwargs)
            assert copy is not gr.algebra and _tensors(copy) == _tensors(gr.algebra)

    def test_distinct_basis_changes_are_not_shared(self):
        gr = cartan_sl2()
        c = RatMatrix.from_columns([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        other = Grading(gr.algebra, gr.group, gr.degrees, c)
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
        ugr = u.universal_grading()
        assert len(ugr.support) == len(gr.support)
        # inducing back along alpha recovers the original degrees
        back = induce(ugr, u.alpha)
        assert back.degrees == gr.degrees

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


class TestInduce:
    def test_identity(self):
        gr = cartan_sl2()
        same = induce(gr, GroupHom.identity(gr.group))
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

    def test_identity_part_matches_constraint_derivations(self):
        gr = cartan_sl2()
        gd = graded_derivations(gr)
        constrained = derivation_algebra(
            gr.homog_algebra, constraints=list(gr.components().values())
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
                        comm = sparse(flatten(ma * mb - mb * ma))
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
        # D[0, 0] has degree 0 and D[0, 1] has degree deg e - deg h = 1
        monkeypatch.setattr(grading, "_leibniz_rows", lambda a: iter([{0: Q(1), 1: Q(1)}]))
        with pytest.raises(AxiomFailure, match="mixes"):
            graded_derivations(gr)


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


class TestInnerDerivationStop:
    """Each degree's solve stops once its inner derivations can be the
    whole kernel; the result must not change."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_under_a_basis_permutation(self, name):
        gr = signed_permutation(get_catalog(name).grading, random.Random(f"stop-{name}"))
        assert graded_parts(graded_derivations(gr)) == graded_parts(dense_graded_derivations(gr))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: classical_cartan_grading("B", 2),
            lambda: classical_cartan_grading("C", 3),
            lambda: classical_cartan_grading("D", 4),
            lambda: sl_involution_grading(3, alternating=False),
            lambda: sl_involution_grading(4, alternating=False),
            lambda: twisted_group_grading(3, [[1, 1, 0], [0, 0, 1], [0, 0, 1]]),
            lambda: _fresh(get_catalog("pauli-m2").grading),
        ],
        ids=["B2", "C3", "D4", "sl3-involution", "sl4-involution", "tga3", "pauli-m2"],
    )
    def test_inner_derivations_are_the_kernel(self, build, monkeypatch):
        gr = build()
        log = _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        if gr.dimension <= 10:
            expected = dense_graded_derivations(gr)
        else:
            # the solve that reads every row, which the dense oracle pins on the smaller algebras
            monkeypatch.setattr(grading, "inner_derivations", lambda a: [])
            expected = graded_derivations(_fresh(gr))
            monkeypatch.undo()
        assert graded_parts(gd) == graded_parts(expected)
        # simple (or central simple associative): every derivation is inner,
        # so each degree's kernel is its known span, read off before the rows run out
        assert all(dim == known for _, _, known, dim in log)
        assert sum(read for _, read, _, _ in log) < sum(routed for routed, _, _, _ in log)

    def test_outer_derivations_read_every_row(self, monkeypatch):
        gr = heisenberg_grading()
        log = _solves(monkeypatch)
        gd = graded_derivations(gr)
        monkeypatch.undo()
        assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))
        assert gd.total_dim() == 6 and len(inner_derivations(gr.homog_algebra)) == 2
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
            assert inner_derivations(gr.homog_algebra) == []
            log = _solves(monkeypatch)
            gd = graded_derivations(gr)
            monkeypatch.undo()
            assert graded_parts(gd) == graded_parts(dense_graded_derivations(gr))
            assert all(known == 0 for _, _, known, _ in log)
        assert graded_derivations(gradings[0]).total_dim() == 9

    def test_wrong_known_vector_is_axiom_failure(self, monkeypatch):
        gr = _fresh(get_catalog("cartan-sl3").grading)
        n = gr.dimension
        # the identity is not a derivation of a Lie algebra: D[x, y] = [x, y] != 2 [x, y]
        identity = {i * n + i: Q(1) for i in range(n)}
        monkeypatch.setattr(grading, "inner_derivations", lambda a: inner_derivations(a) + [identity])
        with pytest.raises(AxiomFailure, match="known kernel vector"):
            graded_derivations(gr)


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
            check_graded_map(RatMatrix.identity(3).scale(2), gr, gr)
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

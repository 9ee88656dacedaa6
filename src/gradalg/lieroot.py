"""Root systems attached to non-special gradings on semisimple Lie algebras.

A non-special grading has a nonzero identity component L_e; a Cartan
subalgebra H of L_e acts on L with a weight space decomposition whose
nonzero weights form a (possibly nonreduced) root system Phi.  Given a
fine refinement whose identity component is H, the whole algebra becomes
graded by Phi, with a simple grading subalgebra g and an isotypic
decomposition L = (g x A) + (s x B) + (W x C) + D under the adjoint
action of g.  All root-system axioms are verified combinatorially via
root strings, so no invariant bilinear form is needed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .abgroup import FgAbGroup, GroupElement, GroupHom, Subgroup, torsion_and_free
from .afine import DEFAULT_SEED, _MAX_GENERIC_RETRIES, _is_cartan, split_cartan, toral_rank
from .algcore import (
    StructureAlgebra,
    Subspace,
    bracket_span,
    centralizer,
    is_simple,
    killing_form,
    memoized,
    subalgebra_structure,
)
from .errors import (
    AxiomFailure,
    DegenerateRetryExhausted,
    IdentityComponentNotCartan,
    NotARefinement,
    SectionInvalid,
    VerificationFailure,
)
from .exactla import RatMatrix, simultaneous_eigenspaces, solve
from .grading import Grading, universal_abelian_group

Q = Fraction

Weight = tuple[Fraction, ...]


def _wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _wscale(c, a: Weight) -> Weight:
    return tuple(Q(c) * x for x in a)


def _wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# Weight decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightDecomposition:
    """Joint eigenspace decomposition of L under ad H, H abelian."""

    cartan: Subspace
    weights: tuple[Weight, ...]
    spaces: Mapping[Weight, Subspace]
    #: nonzero weights
    phi: tuple[Weight, ...]

    def zero_space(self) -> Subspace:
        zero = tuple([Q(0)] * self.cartan.dim)
        return self.spaces.get(zero, Subspace(self.cartan.dim_ambient, {}))


@memoized
def weight_decomposition(alg: StructureAlgebra, h: Subspace) -> WeightDecomposition:
    """Decompose the algebra under the adjoint action of an abelian
    subspace h (NonSplitError when a spectrum is irrational); memoized on
    the algebra per h."""
    ops = [alg.ad_rows(v) for v in h.sparse_vectors()]
    spaces = dict(simultaneous_eigenspaces(ops, Subspace.full(alg.dimension)))
    weights = tuple(sorted(spaces))
    phi = tuple(w for w in weights if any(w))
    # bracket-weight compatibility is part of the contract: check it
    for a in weights:
        for b in weights:
            target = spaces.get(_wadd(a, b))
            span = bracket_span(alg, spaces[a].sparse_vectors(), spaces[b].sparse_vectors())
            if span.dim and (target is None or not target.contains_subspace(span)):
                raise AxiomFailure(f"[L({a}), L({b})] escapes L({_wadd(a, b)})")
    return WeightDecomposition(h, weights, spaces, phi)


# ---------------------------------------------------------------------------
# Root-system combinatorics (root strings, no bilinear form)
# ---------------------------------------------------------------------------


def _proportional(beta: Weight, alpha: Weight) -> Fraction | None:
    c = None
    for x, y in zip(beta, alpha):
        if y == 0:
            if x != 0:
                return None
            continue
        r = x / y
        if c is None:
            c = r
        elif c != r:
            return None
    return c


def _cartan_number(alpha: Weight, beta: Weight, phi: frozenset) -> int | None:
    """<beta, alpha> from the alpha-string through beta; None when the
    string is broken or the number is not an integer."""
    c = _proportional(beta, alpha)
    if c is not None:
        n = 2 * c
        return int(n) if n.denominator == 1 else None
    ks = {k for k in range(-5, 6) if _wadd(beta, _wscale(k, alpha)) in phi}
    p = 0
    while -(p + 1) in ks:
        p += 1
    q = 0
    while q + 1 in ks:
        q += 1
    if ks != set(range(-p, q + 1)):
        return None  # broken string
    return p - q


@dataclass(frozen=True)
class RootSystemReport:
    """The root-system facts of a finite set of nonzero weights, each
    computed once by ``analyze_root_system``."""

    phi: tuple[Weight, ...]
    reflection_closure: bool
    integral_cartan: bool
    irreducible: bool
    reduced: bool
    #: present only when every axiom was verified
    type_label: str | None
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    #: (alpha, beta) -> <beta, alpha> from root strings, for every pair
    #: whose number is an integer
    numbers: Mapping[tuple[Weight, Weight], int]
    #: root -> its coordinates in the simple roots; filled only when
    #: type_label is set (and then for every root)
    root_coords: Mapping[Weight, tuple[Fraction, ...]]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)


def _generic_functional(phi: Sequence[Weight], seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    dim = len(phi[0])
    for attempt in range(_MAX_GENERIC_RETRIES):
        f = [Q(rng.randint(-10 - attempt, 10 + attempt)) for _ in range(dim)]
        vals = [sum(c * x for c, x in zip(f, a)) for a in phi]
        if all(vals):
            return f
    raise DegenerateRetryExhausted("no functional separates the roots from zero")


# reference simple-root realizations; Cartan numbers are derived from the
# Euclidean inner product, so orientation conventions cannot drift
def _reference_simple_roots(label: str, r: int) -> list[list[Fraction]]:
    def e(i, n):
        v = [Q(0)] * n
        v[i] = Q(1)
        return v

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    if label == "A":
        return [sub(e(i, r + 1), e(i + 1, r + 1)) for i in range(r)]
    if label == "B":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [e(r - 1, r)]
    if label == "C":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [
            [2 * x for x in e(r - 1, r)]
        ]
    if label == "D":
        return [sub(e(i, r), e(i + 1, r)) for i in range(r - 1)] + [
            [x + y for x, y in zip(e(r - 2, r), e(r - 1, r))]
        ]
    if label == "G" and r == 2:
        return [[Q(1), Q(-1), Q(0)], [Q(-2), Q(1), Q(1)]]
    if label == "F" and r == 4:
        return [
            sub(e(1, 4), e(2, 4)),
            sub(e(2, 4), e(3, 4)),
            e(3, 4),
            [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)],
        ]
    if label == "E" and r in (6, 7, 8):
        a1 = [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)]
        roots = [a1, [Q(1), Q(1)] + [Q(0)] * 6]
        for i in range(1, 7):
            v = [Q(0)] * 8
            v[i], v[i - 1] = Q(1), Q(-1)
            roots.append(v)
        return roots[: r]
    raise ValueError(label)


def _cartan_matrix_of_vectors(vs: Sequence[Sequence[Fraction]]) -> tuple:
    def ip(a, b):
        return sum(x * y for x, y in zip(a, b))

    return tuple(
        tuple(2 * ip(vi, vj) / ip(vi, vi) for vj in vs) for vi in vs
    )


def _match_cartan_matrix(cm: tuple) -> str | None:
    r = len(cm)
    candidates = ["A"]
    if r >= 2:
        candidates += ["B", "C", "G"]
    if r >= 3:
        candidates += ["D", "F", "E"]
    for label in candidates:
        try:
            ref = _cartan_matrix_of_vectors(_reference_simple_roots(label, r))
        except ValueError:
            continue
        rows = sorted(sorted(row) for row in cm)
        if rows != sorted(sorted(row) for row in ref):
            continue
        for perm in itertools.permutations(range(r)):
            if all(
                cm[perm[i]][perm[j]] == ref[i][j] for i in range(r) for j in range(r)
            ):
                if label == "B" and r == 1:
                    return "A1"
                return f"{label}{r}"
    return None


def analyze_root_system(
    phi: Sequence[Weight], seed: int = DEFAULT_SEED
) -> RootSystemReport:
    """Verify the root-system axioms for a finite set of nonzero weights
    and classify its type (X_r, or BC_r when some root doubles)."""
    phi = tuple(sorted(set(phi)))
    phiset = frozenset(phi)
    numbers: dict[tuple[Weight, Weight], int] = {}
    integral = True
    reflective = True
    for a in phi:
        for b in phi:
            n = _cartan_number(a, b, phiset)
            if n is None:
                integral = False
                continue
            numbers[(a, b)] = n
            if _wadd(b, _wscale(-n, a)) not in phiset:
                reflective = False
    reduced = all(_wscale(2, a) not in phiset for a in phi)
    # irreducibility: connectivity under nonzero pairing
    seen = {phi[0]}
    frontier = [phi[0]]
    while frontier:
        a = frontier.pop()
        for b in phi:
            if b not in seen and numbers.get((a, b), 0) != 0:
                seen.add(b)
                frontier.append(b)
    irreducible = len(seen) == len(phi)
    f = _generic_functional(phi, seed)
    positive = tuple(
        a for a in phi if sum(c * x for c, x in zip(f, a)) > 0
    )
    simple = tuple(
        a
        for a in positive
        if not any(_wadd(b, c) == a for b in positive for c in positive)
    )
    label = None
    if integral and reflective:
        base = _match_cartan_matrix(_cartan_matrix_from_numbers(simple, numbers))
        r = len(simple)
        if reduced:
            label = base
        elif base == ("A1" if r == 1 else f"B{r}"):
            # the non-doubled roots form B_r (A1 when r = 1)
            label = f"BC{r}"
    root_coords = {}
    if label is not None:
        dim = len(phi[0])
        sol = solve(
            RatMatrix.from_columns(list(simple), rows=dim),
            RatMatrix.from_columns(list(phi), rows=dim),
        )
        if sol is not None:
            root_coords = {a: sol.column(k) for k, a in enumerate(phi)}
    return RootSystemReport(
        phi, reflective, integral, irreducible, reduced, label, simple, positive,
        numbers, root_coords,
    )


def _cartan_matrix_from_numbers(simple, numbers) -> tuple:
    # entry (i, j) = <alpha_j, alpha_i> = 2(a_i, a_j)/(a_i, a_i)
    return tuple(
        tuple(numbers[(ai, aj)] for aj in simple) for ai in simple
    )


# ---------------------------------------------------------------------------
# Non-special gradings and root extraction
# ---------------------------------------------------------------------------


def _require_semisimple(alg: StructureAlgebra) -> None:
    if not killing_form(alg)[1]:
        raise VerificationFailure("Killing form is degenerate: not semisimple")


def is_non_special(grading: Grading, seed: int = DEFAULT_SEED) -> bool:
    """True when the identity component is nonzero; cross-checked against
    the toral rank, which is positive exactly then (semisimple, char 0)."""
    _require_semisimple(grading.algebra)
    nonzero = grading.identity_component().dim > 0
    trank = toral_rank(grading, seed=seed).trank
    if nonzero != (trank >= 1):
        raise AxiomFailure(
            f"identity component dim {grading.identity_component().dim} "
            f"inconsistent with toral rank {trank}"
        )
    return nonzero


def extract_root_system(
    grading: Grading, seed: int = DEFAULT_SEED
) -> tuple[WeightDecomposition, RootSystemReport]:
    """Weight decomposition of a non-special grading under a Cartan
    subalgebra H of L_e, with the verified root system of the nonzero
    weights."""
    if not is_non_special(grading, seed=seed):
        raise VerificationFailure(
            "the grading is special (zero identity component): no root system"
        )
    alg = grading.algebra
    l_e = grading.identity_component()
    small = subalgebra_structure(alg, l_e.sparse_vectors(), name="identity-part", flags=["lie"])
    h, wd = split_cartan(small, l_e, seed, lambda h: weight_decomposition(alg, h))
    # the zero weight space must meet L_e exactly in H
    meet = wd.zero_space().intersect(l_e)
    if meet != h:
        raise AxiomFailure("L_e meets L(0) in more than the Cartan subalgebra")
    report = analyze_root_system(wd.phi, seed=seed)
    if report.type_label is None or not report.irreducible and is_simple(alg):
        if report.type_label is None:
            raise AxiomFailure("nonzero weights fail the root-system axioms")
        raise AxiomFailure("reducible root system on a simple algebra")
    return wd, report


# ---------------------------------------------------------------------------
# Phi-graded verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiGradingCheck:
    """The verdict of ``verify_phi_grading``, with the root-system report
    of Phi' (the weights of the grading subalgebra) when condition (i) got
    as far as building it."""

    ok: bool
    #: (condition name, human-readable witness) for each failure
    failures: tuple[tuple[str, str], ...]
    phi_prime: tuple[Weight, ...]
    phi: tuple[Weight, ...]
    report: RootSystemReport | None = None


def verify_phi_grading(
    alg: StructureAlgebra, g_sub: Subspace, h: Subspace, seed: int = DEFAULT_SEED
) -> PhiGradingCheck:
    """Check the defining conditions of a Phi-graded Lie algebra with
    grading subalgebra g_sub and Cartan h: (i) g_sub is simple with a
    verified root system relative to h; (ii) L splits into h-weight
    spaces with nonzero weights in Phi' or its doubles; (iii)
    L(0) = sum of [L(a), L(-a)] over nonzero weights."""
    failures: list[tuple[str, str]] = []
    phi_prime: tuple[Weight, ...] = ()
    phi: tuple[Weight, ...] = ()
    rep: RootSystemReport | None = None
    n = alg.dimension
    if not g_sub.contains_subspace(h):
        return PhiGradingCheck(False, (("i", "h is not inside the subalgebra"),), (), ())
    try:
        g_alg = subalgebra_structure(alg, g_sub.sparse_vectors(), name="grading-subalgebra", flags=["lie"])
    except ValueError as exc:  # not closed under the bracket
        return PhiGradingCheck(False, (("i", f"not a subalgebra: {exc}"),), (), ())
    try:
        simple = is_simple(g_alg)
    except ValueError:  # degenerate Killing form
        simple = False
    if not simple:
        failures.append(("i", "grading subalgebra is not simple"))
    else:
        h_small = Subspace.span(g_sub.dim, (g_sub.coords(v) for v in h.sparse_vectors()))
        wd_g = weight_decomposition(g_alg, h_small)
        phi_prime = wd_g.phi
        if wd_g.zero_space() != h_small:
            failures.append(("i", "h is not self-centralizing in the subalgebra"))
        rep = analyze_root_system(phi_prime, seed=seed) if phi_prime else None
        if rep is None or rep.type_label is None:
            failures.append(("i", "subalgebra weights are not a root system"))
    if not failures:
        wd = weight_decomposition(alg, h)
        phi = wd.phi
        allowed = set(phi_prime) | {_wscale(2, a) for a in phi_prime}
        for w in phi:
            if w not in allowed:
                failures.append(("ii", f"weight {w} outside Phi' and its doubles"))
        # (iii) L(0) = sum over nonzero weights of [L(a), L(-a)]
        total = Subspace(n, {})
        for a in phi:
            if _wneg(a) in wd.spaces:
                total = total.add(
                    bracket_span(alg, wd.spaces[a].sparse_vectors(), wd.spaces[_wneg(a)].sparse_vectors())
                )
        if total != wd.zero_space():
            failures.append(
                ("iii", f"sum of [L(a), L(-a)] has dim {total.dim}, "
                        f"L(0) has dim {wd.zero_space().dim}")
            )
    return PhiGradingCheck(not failures, tuple(failures), phi_prime, phi, rep)


# ---------------------------------------------------------------------------
# Root-graded structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootGradedDecomposition:
    weight_dec: WeightDecomposition
    report: RootSystemReport
    #: U(Gamma') -> Z Phi (coordinates in the simple basis)
    pi: GroupHom
    #: U(Gamma') -> G (degrees of the coarse grading)
    delta: GroupHom
    section: tuple[GroupElement, ...]
    g_sub: Subspace
    g_algebra: StructureAlgebra
    phi_prime: tuple[Weight, ...]
    #: isotypic pieces: (g x A, s x B, W x C or None, D)
    pieces: tuple[Subspace, Subspace | None, Subspace | None, Subspace]
    #: (dim g, dim A), (dim s, dim B), (dim W, dim C)
    dims: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    #: multiplicity degree tables: name -> list of (u coords, dim, G-degree coords)
    tables: Mapping[str, tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]]
    c_merged_into_b: bool

    def dimension_identity(self) -> bool:
        (dg, da), (ds, db), (dw, dc) = self.dims
        return dg * da + ds * db + dw * dc + self.pieces[3].dim == self.g_sub.dim_ambient


def _module_under(alg: StructureAlgebra, g_sub: Subspace, seed_space: Subspace) -> Subspace:
    """g_sub-submodule generated by seed_space."""
    cur = seed_space
    while True:
        nxt = cur.add(bracket_span(alg, g_sub.sparse_vectors(), cur.sparse_vectors()))
        if nxt == cur:
            return cur
        cur = nxt


def _length_classes(
    phi: Sequence[Weight], numbers: Mapping[tuple[Weight, Weight], int]
) -> dict[Weight, Fraction]:
    lengths = {phi[0]: Q(1)}
    frontier = [phi[0]]
    while frontier:
        a = frontier.pop()
        for b in phi:
            if b in lengths:
                continue
            nab, nba = numbers.get((a, b)), numbers.get((b, a))
            if nab and nba:
                # n(b,a)/n(a,b) = |b|^2 / |a|^2
                lengths[b] = lengths[a] * Q(nba, nab)
                frontier.append(b)
    return lengths


def root_graded_structure(
    grading: Grading,
    refined: Grading,
    section: Sequence[GroupElement] | None = None,
    seed: int = DEFAULT_SEED,
) -> RootGradedDecomposition:
    """Isotypic decomposition of a simple graded Lie algebra relative to
    the grading subalgebra built from a fine refinement.

    ``refined`` must refine ``grading`` and have a Cartan subalgebra of
    L_e as its identity component.  ``section`` optionally picks, for
    each simple root, a support class of the refinement's universal
    group mapping onto it under pi.
    """
    alg = grading.algebra
    n = alg.dimension
    _require_semisimple(alg)
    if not is_simple(alg):
        raise VerificationFailure("the ambient algebra is not simple")
    if not refined.is_refinement_of(grading):
        raise NotARefinement("second grading does not refine the first")
    if not is_non_special(grading, seed=seed):
        raise VerificationFailure("the grading is special: no grading subalgebra")
    l_e = grading.identity_component()
    h = refined.identity_component()
    if not _is_cartan_in(alg, l_e, h):
        raise IdentityComponentNotCartan(
            "refinement's identity component is not a Cartan subalgebra of L_e"
        )
    wd = weight_decomposition(alg, h)
    if wd.zero_space().intersect(l_e) != h:
        raise AxiomFailure("L_e meets L(0) in more than H")
    report = analyze_root_system(wd.phi, seed=seed)
    if report.type_label is None:
        raise AxiomFailure("weights of the refinement do not form a root system")
    delta_basis = report.simple_roots
    r = len(delta_basis)
    uab = universal_abelian_group(refined)
    # pi: each refined component lies in a single weight space
    zphi = FgAbGroup(r, ())
    pi_images: dict[GroupElement, GroupElement] = {}
    for s in refined.support:
        comp = refined.component(s)
        hit = [w for w in wd.weights if wd.spaces[w].contains_subspace(comp)]
        if len(hit) != 1:
            raise VerificationFailure(
                f"component of degree {s.coords} is not inside one weight space"
            )
        w = hit[0]
        coords = report.root_coords.get(w) if any(w) else (Q(0),) * r
        if coords is None:
            raise VerificationFailure(f"weight {w} outside the root lattice")
        if any(c.denominator != 1 for c in coords):
            raise VerificationFailure(f"weight {w} has non-integral root coordinates")
        pi_images[s] = zphi.element([int(c) for c in coords])
    pi = uab.hom_from_support_images(zphi, pi_images)
    if not pi.is_surjective():
        raise VerificationFailure("pi is not surjective onto the root lattice")
    t_u, _ = torsion_and_free(uab.group)
    if pi.kernel().lattice != t_u.lattice:
        raise VerificationFailure("kernel of pi differs from the torsion of U")
    # degrees in the coarse group
    delta_images: dict[GroupElement, GroupElement] = {}
    for s in refined.support:
        comp = refined.component(s)
        outer = [g for g in grading.support if grading.component(g).contains_subspace(comp)]
        delta_images[s] = outer[0]
    delta = uab.hom_from_support_images(grading.group, delta_images)
    # section over the simple roots
    support_classes = {uab.iota[s]: s for s in refined.support}
    if section is None:
        section = []
        for i, a in enumerate(delta_basis):
            fiber = sorted(
                (u for u in support_classes if pi(u) == zphi.generator(i)),
                key=lambda u: u.coords,
            )
            if not fiber:
                raise SectionInvalid(f"no support class over simple root {a}")
            section.append(fiber[0])
    else:
        section = list(section)
        if len(section) != r:
            raise SectionInvalid("section must pick one class per simple root")
        for i, u in enumerate(section):
            if u not in support_classes:
                raise SectionInvalid(f"section element {u.coords} has no component")
            if pi(u) != zphi.generator(i):
                raise SectionInvalid(
                    f"section element {u.coords} does not lie over simple root {i}"
                )
    u_prime = Subgroup.from_generators(uab.group, section)
    g_parts = (refined.component(s) for u, s in support_classes.items() if u_prime.contains(u))
    g_sub = Subspace.span(n, (w for part in g_parts for w in part.sparse_vectors()))
    check = verify_phi_grading(alg, g_sub, h, seed=seed)
    if not check.ok:
        raise VerificationFailure(
            "grading subalgebra fails the Phi-graded conditions: "
            + "; ".join(f"({c}) {w}" for c, w in check.failures)
        )
    phi_prime = check.phi_prime
    # consistency of Phi' with the ambient root system
    doubled = {a for a in report.phi if _wscale(Q(1, 2), a) in set(report.phi)}
    expected_prime = tuple(sorted(set(report.phi) - doubled))
    if tuple(sorted(phi_prime)) != expected_prime:
        raise VerificationFailure(
            "grading subalgebra roots differ from the non-doubled part of Phi"
        )
    g_alg = subalgebra_structure(alg, g_sub.sparse_vectors(), name="grading-subalgebra", flags=["lie"])
    pos_prime = [a for a in report.positive_roots if a in set(phi_prime)]
    g_plus = Subspace.span(n, (w for a in pos_prime for w in wd.spaces[a].intersect(g_sub).sparse_vectors()))

    def dominance(a: Weight) -> tuple:
        # dominance proxy: coordinates in the simple basis
        return sum(report.root_coords[a]), report.root_coords[a]

    lam_a = max(phi_prime, key=dominance)
    lam_b: Weight | None = None
    lam_c: Weight | None = None
    merged = False
    if doubled:
        lam_b = max(doubled, key=dominance)
        if r == 1:
            merged = True  # the natural module is the adjoint one: C joins B
        else:
            lam_c = _wscale(Q(1, 2), lam_b)
    else:
        lengths = _length_classes(phi_prime, check.report.numbers)
        if len(set(lengths.values())) > 1:
            short = min(set(lengths.values()))
            lam_b = max(
                (a for a in phi_prime if lengths[a] == short),
                key=dominance,
            )
    # highest-weight vectors: {x in L(lam) : [g_plus, x] = 0}
    top = centralizer(alg, g_plus)
    m_a = top.intersect(wd.spaces[lam_a])
    piece_a = _module_under(alg, g_sub, m_a)
    dim_a = m_a.dim
    if dim_a == 0 or piece_a.dim % dim_a:
        raise VerificationFailure("adjoint isotypic piece has inconsistent dimension")
    dim_g = piece_a.dim // dim_a
    if dim_g != g_sub.dim:
        raise VerificationFailure(
            f"adjoint copies have dim {dim_g}, grading subalgebra has {g_sub.dim}"
        )
    piece_b = piece_c = None
    dim_s = dim_b = dim_w = dim_c = 0
    if lam_b is not None:
        m_b = top.intersect(wd.spaces[lam_b])
        if m_b.dim:
            piece_b = _module_under(alg, g_sub, m_b)
            dim_b = m_b.dim
            if piece_b.dim % dim_b:
                raise VerificationFailure("s-isotypic piece has inconsistent dimension")
            dim_s = piece_b.dim // dim_b
    if lam_c is not None:
        m_c = top.intersect(wd.spaces[lam_c])
        # highest-weight vectors of weight lam_c inside the adjoint piece
        # belong to g x A; keep only the complement
        m_c = Subspace.span(n, (v for v in m_c.sparse_vectors() if not piece_a.contains(v)))
        if m_c.dim:
            piece_c = _module_under(alg, g_sub, m_c)
            dim_c = m_c.dim
            if piece_c.dim % dim_c:
                raise VerificationFailure("W-isotypic piece has inconsistent dimension")
            dim_w = piece_c.dim // dim_c
    d = centralizer(alg, g_sub)
    total = piece_a
    for p in (piece_b, piece_c, d):
        if p is not None:
            total = total.add(p)
    used = piece_a.dim + (piece_b.dim if piece_b else 0) + (piece_c.dim if piece_c else 0) + d.dim
    if total.dim != used or total.dim != n:
        raise VerificationFailure(
            f"isotypic pieces are not a direct sum filling L "
            f"(span {total.dim}, dims add to {used}, dim L = {n})"
        )
    # multiplicity degree tables over the torsion of U
    def table_for(lam: Weight, m_space: Subspace):
        # u_lam from the section, extended linearly over Z Phi
        coords = report.root_coords[lam]
        u_lam = uab.group.identity()
        for c, u in zip(coords, section):
            u_lam = u_lam + int(c) * u
        rows = []
        identity_dim = 0
        for t in t_u.elements():
            cls = u_lam + t
            s = support_classes.get(cls)
            if s is None:
                continue
            part = m_space.intersect(refined.component(s))
            if part.dim:
                rows.append((t.coords, part.dim, delta(cls).coords))
                if all(c == 0 for c in t.coords):
                    identity_dim += part.dim
        if sum(dim for _, dim, _ in rows) != m_space.dim:
            raise VerificationFailure(
                "multiplicity space does not split along the torsion classes"
            )
        return tuple(rows), identity_dim
    tables: dict[str, tuple] = {}
    tab_a, id_a = table_for(lam_a, m_a)
    tables["A"] = tab_a
    id_b = id_c = 0
    if piece_b is not None:
        tab_b, id_b = table_for(lam_b, m_b)
        tables["B"] = tab_b
    if piece_c is not None:
        tab_c, id_c = table_for(lam_c, m_c)
        tables["C"] = tab_c
    if id_a + id_b + id_c != 1:
        raise VerificationFailure(
            f"identity component of the coordinate space has dim {id_a + id_b + id_c}"
        )
    # coordinate-space and L(0) supports sit in torsion cosets of G
    free_rank = grading.group.free_rank
    if free_rank:
        _, pi_g = torsion_and_free(grading.group)
        for name, tab in tables.items():
            cosets = {pi_g(grading.group.element(list(gdeg))).coords for _, _, gdeg in tab}
            if len(cosets) > 1:
                raise VerificationFailure(
                    f"G-degrees of {name} spread over several torsion cosets"
                )
    # induced gradings on D and [L(0), L(0)] are special
    if d.intersect(h).dim:
        raise VerificationFailure("centralizer of the grading subalgebra meets H")
    zero = wd.zero_space()
    derived0 = bracket_span(alg, zero.sparse_vectors(), zero.sparse_vectors())
    if derived0.intersect(h).dim:
        raise VerificationFailure("[L(0), L(0)] meets H: induced grading not special")
    return RootGradedDecomposition(
        wd,
        report,
        pi,
        delta,
        tuple(section),
        g_sub,
        g_alg,
        phi_prime,
        (piece_a, piece_b, piece_c, d),
        ((g_sub.dim, dim_a), (dim_s, dim_b), (dim_w, dim_c)),
        tables,
        merged,
    )


def _is_cartan_in(alg: StructureAlgebra, l_e: Subspace, h: Subspace) -> bool:
    if h.dim == 0 or not l_e.contains_subspace(h):
        return False
    small = subalgebra_structure(alg, l_e.sparse_vectors(), name="identity-part", flags=["lie"])
    h_small = Subspace.span(l_e.dim, (l_e.coords(v) for v in h.sparse_vectors()))
    return _is_cartan(small, h_small)

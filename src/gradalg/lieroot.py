"""Root systems attached to non-special gradings on semisimple Lie algebras.

A non-special grading has a nonzero identity component L_e; a Cartan
subalgebra H of L_e acts on L with a weight space decomposition whose
nonzero weights form a (possibly nonreduced) root system Phi.  Given a
fine refinement whose identity component is H, the whole algebra becomes
graded by Phi, with a simple grading subalgebra g and an isotypic
decomposition L = (g x A) + (s x B) + (W x C) + D under the adjoint
action of g.  All root-system axioms are verified combinatorially via
root strings, so no invariant bilinear form is needed, and the type is
read off the Cartan matrix of the simple roots, component by component:
Phi is reducible when the algebra is semisimple and not simple, and its
label is then its components', joined by '+'.  Both pipelines read Phi at
(L_e, H) in one routine, and test containment vector by vector: no subspace
is spanned only to be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .abgroup import FgAbGroup, GroupElement, GroupHom, Subgroup, torsion_and_free
from .afine import DEFAULT_SEED, _MAX_GENERIC_RETRIES, _is_nilpotent_subalgebra, split_cartan, toral_rank
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
from .exactla import Rational, coordinate_reader, qdiv, rational, simultaneous_eigenspaces, sparse_rows
from .grading import Grading, universal_abelian_group

Weight = tuple[Rational, ...]


def _wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _wscale(c, a: Weight) -> Weight:
    return tuple(rational(c * x) for x in a)


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
    #: invariants computed from the decomposition (``_root_report``)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def zero_space(self) -> Subspace:
        zero = (0,) * self.cartan.dim
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
    # bracket-weight compatibility is part of the contract: check it, bracket by bracket
    zero = Subspace(alg.dimension, {})
    for a in weights:
        for b in weights:
            target = spaces.get(_wadd(a, b), zero)
            ys = spaces[b].sparse_vectors()
            if not all(target.contains(alg.bracket(x, y)) for x in spaces[a].sparse_vectors() for y in ys):
                raise AxiomFailure(f"[L({a}), L({b})] escapes L({_wadd(a, b)})")
    return WeightDecomposition(h, weights, spaces, phi)


# ---------------------------------------------------------------------------
# Root-system combinatorics (root strings, no bilinear form)
# ---------------------------------------------------------------------------


def _proportional(beta: Weight, alpha: Weight) -> Rational | None:
    c = None
    for x, y in zip(beta, alpha):
        if y == 0:
            if x != 0:
                return None
            continue
        r = qdiv(x, y)
        if c is None:
            c = r
        elif c != r:
            return None
    return c


#: how far an alpha-string is read on each side of beta
_STRING_REACH = 5


def _cartan_number(alpha: Weight, beta: Weight, phi: frozenset) -> int | None:
    """<beta, alpha> = p - q from the alpha-string beta - p alpha, ...,
    beta + q alpha, read up to _STRING_REACH steps each way; None when the
    number is not an integer or the string is broken (beta not in phi, or
    a root beyond a gap).  Each side is walked outward from beta; past the
    gap it is read only until a root shows the string broken."""
    c = _proportional(beta, alpha)
    if c is not None:
        n = 2 * c
        return int(n) if n.denominator == 1 else None
    if beta not in phi:
        return None
    ends = []
    for step in (_wneg(alpha), alpha):
        w, k = beta, 0
        while k < _STRING_REACH and (w := _wadd(w, step)) in phi:
            k += 1
        for _ in range(k + 1, _STRING_REACH):
            w = _wadd(w, step)
            if w in phi:
                return None  # broken string
        ends.append(k)
    p, q = ends
    return p - q


@dataclass(frozen=True)
class RootSystemReport:
    """The root-system facts of a finite set of nonzero weights, each
    computed once by ``analyze_root_system``.  Relative root lengths are
    read off the Cartan numbers, so no bilinear form is needed; weights
    whose simple roots are linearly dependent are not a root system."""

    phi: tuple[Weight, ...]
    reflection_closure: bool
    integral_cartan: bool
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
    root_coords: Mapping[Weight, tuple[Rational, ...]]
    #: the roots shorter than some other root, filled only when type_label
    #: is set: the short roots when Phi is reduced with two lengths, empty
    #: when all roots have one length
    short_roots: tuple[Weight, ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def irreducible(self) -> bool:
        """Phi has a type of one component (its label has no '+')."""
        return self.type_label is not None and "+" not in self.type_label


def _generic_functional(phi: Sequence[Weight], seed: int) -> list[Rational]:
    rng = random.Random(seed)
    dim = len(phi[0])
    for attempt in range(_MAX_GENERIC_RETRIES):
        f = [rng.randint(-10 - attempt, 10 + attempt) for _ in range(dim)]
        vals = [sum(c * x for c, x in zip(f, a)) for a in phi]
        if all(vals):
            return f
    raise DegenerateRetryExhausted("no functional separates the roots from zero")


#: Dynkin bonds as (-<a_j, a_i>, -<a_i, a_j>): simple, double and triple
_BONDS = {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)}


def _connected_type(cm: tuple, nodes: list[int]) -> str | None:
    """X_r for one connected component of a Cartan matrix of Dynkin bonds
    (Humphreys 11.4): a tree, a path when it has a multiple bond, else at
    most one branch node with three arms; None when of no finite type."""
    r = len(nodes)
    nbrs = {i: [j for j in nodes if j != i and cm[i][j]] for i in nodes}
    multiple = [(i, j) for i in nodes for j in nbrs[i] if i < j and cm[i][j] * cm[j][i] > 1]
    branches = [i for i in nodes if len(nbrs[i]) > 2]
    if sum(map(len, nbrs.values())) != 2 * r - 2 or len(multiple) + len(branches) > 1:
        return None
    if branches:
        b = branches[0]

        def arm(prev: int, k: int) -> int:
            return 1 if len(nbrs[k]) == 1 else 1 + arm(k, next(x for x in nbrs[k] if x != prev))

        arms = tuple(sorted(arm(b, k) for k in nbrs[b]))
        if len(arms) == 3 and arms[:2] == (1, 1):
            return f"D{r}"
        return f"E{r}" if arms in ((1, 2, 2), (1, 2, 3), (1, 2, 4)) else None
    if not multiple:
        return f"A{r}"
    (i, j), = multiple
    if r == 2:
        return "G2" if cm[i][j] * cm[j][i] == 3 else "B2"
    if cm[i][j] * cm[j][i] == 3:
        return None
    # <a_j, a_i> = -2 makes a_i the short root of the double bond
    short, long = (i, j) if cm[i][j] == -2 else (j, i)
    if len(nbrs[short]) == 1:
        return f"B{r}"
    if len(nbrs[long]) == 1:
        return f"C{r}"
    return "F4" if r == 4 else None


def _dynkin_type(cm: tuple, doubled: set[int]) -> str | None:
    """The type of a Cartan matrix read off its Dynkin diagram in O(r^2),
    or None when it is of no finite type: X_r for each connected component,
    or BC_r when the component holds a node of ``doubled`` (a simple root
    of a component with doubled roots) and reads B_r or A1; the components
    joined by '+', sorted by rank and then letter."""
    r = len(cm)
    if any(cm[i][i] != 2 for i in range(r)) or any(
        (-cm[i][j], -cm[j][i]) not in _BONDS for i in range(r) for j in range(i) if cm[i][j] or cm[j][i]
    ):
        return None
    labels, seen = [], [False] * r
    for s in range(r):
        if seen[s]:
            continue
        comp, seen[s] = [s], True
        for i in comp:  # grows while it is read
            for j in range(r):
                if cm[i][j] and not seen[j]:
                    comp.append(j)
                    seen[j] = True
        label = _connected_type(cm, sorted(comp))
        if label is not None and doubled.intersection(comp):
            label = f"BC{len(comp)}" if label in ("A1", f"B{len(comp)}") else None
        if label is None:
            return None
        labels.append(label)
    return "+".join(sorted(labels, key=lambda x: (int(x.lstrip("ABCDEFG")), x)))


def analyze_root_system(
    phi: Sequence[Weight], seed: int = DEFAULT_SEED
) -> RootSystemReport:
    """Verify the root-system axioms for a finite set of nonzero weights
    and read its type off the Dynkin diagram of its simple roots: X_r, or
    BC_r when some root doubles, and the components joined by '+' (A1+A2)
    when Phi is reducible.

    Since <beta, alpha> = 2(alpha, beta)/(alpha, alpha), a pair with
    |<beta, alpha>| > |<alpha, beta>| has |alpha| < |beta|: the short roots
    are read off the Cartan numbers.  When the simple roots are linearly
    dependent the weights are not a root system in their span, and the
    report has no type label and no root coordinates."""
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
    f = _generic_functional(phi, seed)
    positive = tuple(
        a for a in phi if sum(c * x for c, x in zip(f, a)) > 0
    )
    sums = {_wadd(b, c) for b in positive for c in positive}
    simple = tuple(a for a in positive if a not in sums)
    label = None
    if integral and reflective:
        # a doubled root pairs nonzero with the simple roots of its component
        doubled = {i for a in phi if _wscale(2, a) in phiset for i, s in enumerate(simple) if numbers[(s, a)]}
        label = _dynkin_type(_cartan_matrix_from_numbers(simple, numbers), doubled)
    root_coords = {}
    short: tuple[Weight, ...] = ()
    if label is not None:
        try:
            coords = coordinate_reader(len(phi[0]), list(sparse_rows(simple)))
        except ValueError:  # dependent simple roots
            label = None
    if label is not None:
        sol = [coords(v) for v in sparse_rows(phi)]
        if None not in sol:
            root_coords = {a: tuple(x.get(t, 0) for t in range(len(simple))) for a, x in zip(phi, sol)}
        short = tuple(a for a in phi if any(abs(numbers[(a, b)]) > abs(numbers[(b, a)]) for b in phi))
    return RootSystemReport(
        phi, reflective, integral, reduced, label, simple, positive,
        numbers, root_coords, short,
    )


@memoized
def _root_report(wd: WeightDecomposition, seed: int) -> RootSystemReport:
    """``analyze_root_system`` of the nonzero weights of ``wd``, memoized on
    the decomposition, itself memoized per (algebra, h)."""
    return analyze_root_system(wd.phi, seed=seed)


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


def _root_system_at(
    alg: StructureAlgebra, l_e: Subspace, h: Subspace, seed: int
) -> tuple[WeightDecomposition, RootSystemReport]:
    """Phi at (L_e, h) for both root-system pipelines: the weight decomposition
    under h, whose zero weight space must meet L_e in h exactly, and the report
    of its nonzero weights, which must have a type (AxiomFailure otherwise)."""
    wd = weight_decomposition(alg, h)
    if wd.zero_space().intersect(l_e) != h:
        raise AxiomFailure("L_e meets L(0) in more than the Cartan subalgebra")
    report = _root_report(wd, seed)
    if report.type_label is None:
        raise AxiomFailure("nonzero weights fail the root-system axioms")
    return wd, report


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
    small = subalgebra_structure(alg, l_e, flags=["lie"])
    _, (wd, report) = split_cartan(small, l_e, seed, lambda h: _root_system_at(alg, l_e, h, seed))
    if not report.irreducible and is_simple(alg):
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
    if (h_small := g_sub.restrict(h)) is None:
        return PhiGradingCheck(False, (("i", "h is not inside the subalgebra"),), (), ())
    try:
        g_alg = subalgebra_structure(alg, g_sub, flags=["lie"])
    except ValueError as exc:  # not closed under the bracket
        return PhiGradingCheck(False, (("i", f"not a subalgebra: {exc}"),), (), ())
    try:
        simple = is_simple(g_alg)
    except ValueError:  # degenerate Killing form
        simple = False
    if not simple:
        failures.append(("i", "grading subalgebra is not simple"))
    else:
        wd_g = weight_decomposition(g_alg, h_small)
        phi_prime = wd_g.phi
        if wd_g.zero_space() != h_small:
            failures.append(("i", "h is not self-centralizing in the subalgebra"))
        rep = _root_report(wd_g, seed) if phi_prime else None
        if rep is None or rep.type_label is None:
            failures.append(("i", "subalgebra weights are not a root system"))
    if not failures:
        wd = weight_decomposition(alg, h)
        phi = wd.phi
        allowed = set(phi_prime) | {_wscale(2, a) for a in phi_prime}
        for w in phi:
            if w not in allowed:
                failures.append(("ii", f"weight {w} outside Phi' and its doubles"))
        # (iii) L(0) = sum over nonzero weights of [L(a), L(-a)], spanned at once
        pairs = [(wd.spaces[a], wd.spaces[_wneg(a)]) for a in phi if _wneg(a) in wd.spaces]
        brackets = (alg.bracket(x, y) for p, q in pairs for x in p.sparse_vectors() for y in q.sparse_vectors())
        total = Subspace.span(n, brackets)
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


def _module_under(alg: StructureAlgebra, g_sub: Subspace, seed_space: Subspace) -> Subspace:
    """g_sub-submodule generated by seed_space, one span per step."""
    cur = seed_space
    while True:
        vecs = cur.sparse_vectors()
        nxt = Subspace.span(alg.dimension, vecs + [alg.bracket(x, y) for x in g_sub.sparse_vectors() for y in vecs])
        if nxt == cur:
            return cur
        cur = nxt


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
    coarse = refined.coarse_labels(grading)
    if coarse is None:
        raise NotARefinement("second grading does not refine the first")
    if not is_non_special(grading, seed=seed):
        raise VerificationFailure("the grading is special: no grading subalgebra")
    l_e = grading.identity_component()
    h = refined.identity_component()
    if not _is_cartan_in(alg, l_e, h):
        raise IdentityComponentNotCartan(
            "refinement's identity component is not a Cartan subalgebra of L_e"
        )
    wd, report = _root_system_at(alg, l_e, h, seed)
    delta_basis = report.simple_roots
    r = len(delta_basis)
    uab = universal_abelian_group(refined)
    # pi: each refined component lies in a single weight space; its basis columns are read
    columns = {s: [refined.basis_change[i] for i in refined.indices_of_degree(s)] for s in refined.support}
    zphi = FgAbGroup(r, ())
    pi_images: dict[GroupElement, GroupElement] = {}
    weight_of: dict[GroupElement, Weight] = {}
    for s, cols in columns.items():
        hit = [w for w in wd.weights if all(wd.spaces[w].contains(c) for c in cols)]
        if len(hit) != 1:
            raise VerificationFailure(
                f"component of degree {s.coords} is not inside one weight space"
            )
        w = weight_of[s] = hit[0]
        coords = report.root_coords.get(w) if any(w) else (0,) * r
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
    # degrees in the coarse group: the coarse label of each refined component, read with the check
    delta = uab.hom_from_support_images(grading.group, {s: grading.support[t] for s, t in zip(refined.support, coarse)})
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
    in_sub = [s for s in columns if u_prime.contains(uab.iota[s])]
    g_sub = Subspace.span(n, (col for s in in_sub for col in columns[s]))
    check = verify_phi_grading(alg, g_sub, h, seed=seed)
    if not check.ok:
        raise VerificationFailure(
            "grading subalgebra fails the Phi-graded conditions: "
            + "; ".join(f"({c}) {w}" for c, w in check.failures)
        )
    phi_prime = check.phi_prime
    # consistency of Phi' with the ambient root system
    doubled = {a for a in report.phi if _wscale(Fraction(1, 2), a) in set(report.phi)}
    expected_prime = tuple(sorted(set(report.phi) - doubled))
    if tuple(sorted(phi_prime)) != expected_prime:
        raise VerificationFailure(
            "grading subalgebra roots differ from the non-doubled part of Phi"
        )
    g_alg = subalgebra_structure(alg, g_sub, flags=["lie"])
    # g_sub is spanned by refined columns, each in one weight space: its root spaces are spans of its columns
    pos_prime = set(report.positive_roots) & set(phi_prime)
    g_plus = Subspace.span(n, (col for s in in_sub if weight_of[s] in pos_prime for col in columns[s]))

    def dominance(a: Weight) -> tuple:
        # dominance proxy: coordinates in the simple basis
        return sum(report.root_coords[a]), report.root_coords[a]

    # highest weight of each isotypic type: adjoint (A), s (B), W (C)
    highest = {"A": max(phi_prime, key=dominance)}
    merged = False
    if doubled:
        highest["B"] = max(doubled, key=dominance)
        if r == 1:
            merged = True  # the natural module is the adjoint one: C joins B
        else:
            highest["C"] = _wscale(Fraction(1, 2), highest["B"])
    elif check.report.short_roots:
        highest["B"] = max(check.report.short_roots, key=dominance)
    # highest-weight vectors: {x in L(lam) : [g_plus, x] = 0}
    ad_plus = [alg.ad_rows(v) for v in g_plus.sparse_vectors()]
    pieces: dict[str, Subspace] = {}
    mults: dict[str, Subspace] = {}
    for name, lam in highest.items():
        m = wd.spaces[lam].preimage(ad_plus, Subspace(n, {}))
        if name == "C":
            # highest-weight vectors of weight lam_c inside the adjoint piece
            # belong to g x A; keep only the complement
            m = Subspace.span(n, (v for v in m.sparse_vectors() if not pieces["A"].contains(v)))
        if not m.dim and name != "A":
            continue
        piece = _module_under(alg, g_sub, m)
        if not m.dim or piece.dim % m.dim:
            kind = {"A": "adjoint isotypic", "B": "s-isotypic", "C": "W-isotypic"}[name]
            raise VerificationFailure(f"{kind} piece has inconsistent dimension")
        if name == "A" and piece.dim // m.dim != g_sub.dim:
            raise VerificationFailure(
                f"adjoint copies have dim {piece.dim // m.dim}, grading subalgebra has {g_sub.dim}"
            )
        pieces[name], mults[name] = piece, m
    d = centralizer(alg, g_sub)
    total = Subspace.span(n, (v for p in (d, *pieces.values()) for v in p.sparse_vectors()))
    used = sum(p.dim for p in pieces.values()) + d.dim
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
        for t in t_u.elements():
            cls = u_lam + t
            s = support_classes.get(cls)
            if s is None:
                continue
            part = m_space.intersect(refined.component(s))
            if part.dim:
                rows.append((t.coords, part.dim, delta(cls).coords))
        if sum(dim for _, dim, _ in rows) != m_space.dim:
            raise VerificationFailure(
                "multiplicity space does not split along the torsion classes"
            )
        return tuple(rows)
    tables = {name: table_for(highest[name], m) for name, m in mults.items()}
    identity_dim = sum(dim for tab in tables.values() for t, dim, _ in tab if not any(t))
    if identity_dim != 1:
        raise VerificationFailure(
            f"identity component of the coordinate space has dim {identity_dim}"
        )
    # coordinate-space and L(0) supports sit in torsion cosets of G
    free_rank = grading.group.free_rank
    if free_rank:
        for name, tab in tables.items():
            cosets = {gdeg[:free_rank] for _, _, gdeg in tab}
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
        (pieces["A"], pieces.get("B"), pieces.get("C"), d),
        tuple((pieces[k].dim // mults[k].dim, mults[k].dim) if k in pieces else (0, 0) for k in "ABC"),
        tables,
        merged,
    )


def _is_cartan_in(alg: StructureAlgebra, l_e: Subspace, h: Subspace) -> bool:
    """h is inside L_e, closed, nilpotent and its own normalizer in L_e."""
    vs = h.sparse_vectors()
    if l_e.restrict(h) is None or not all(h.contains(alg.bracket(x, y)) for x in vs for y in vs):
        return False
    return _is_nilpotent_subalgebra(alg, h) and l_e.preimage(map(alg.ad_rows, vs), h) == h

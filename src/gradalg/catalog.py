"""Built-in example algebras and gradings.

Entries:

* ``cartan-sl2`` / ``cartan-sl3`` / ``cartan-sl4`` — sl_n with its root
  decomposition, graded by the root lattice Z^{n-1}.
* ``pauli-m2`` — M_2(Q) with the Z_2 x Z_2 grading on the split Pauli
  basis (1, x, y, z).
* ``b2-skew`` — the 10-dimensional simple Lie algebra of skew elements of
  M_2(H) (H the split quaternions, i^2 = j^2 = 1, ij = -ji = k) under
  X -> conjugate-transpose, with its Z_2^3 grading and a finer Z_2^4
  grading as companion.
* ``b2-skew-assoc`` — the full 16-dimensional associative M_2(H) with the
  same Z_2^3 grading.
* ``a3-fine`` — sl_4 with the Z_2^4 grading deg(E_ij - E_ji) = (0, v),
  deg(E_ij + E_ji) = (1, v), v the class of eps_i + eps_j in the
  even-weight subgroup of Z_2^4, diagonal in degree (1, 0); plus the
  order-2 group symmetry exchanging the two degrees with zero component.
* ``sl3-involution`` — sl_3 with the Z_2 grading by the involution
  X -> -S X^T S^{-1}, S antidiagonal.

Weyl generators are given as automorphisms of the grading group G; where
a rational algebra realization exists it is recorded in ``algebra_maps``
and verified in the test suite.  For ``a3-fine`` the generator swapping
the two zero-component degrees has no rational realization (it requires
a fourth root of unity), so it is supplied as a group-level assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .abgroup import FgAbGroup, GroupHom
from .algcore import algebra_from_matrices
from .errors import AxiomFailure, UnknownCatalogEntry
from .exactla import IntMatrix, RatMatrix, Rational, coordinate_reader, flat_vector, sparse_rows
from .grading import Grading


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    grading: Grading
    #: automorphisms of the grading group generating (part of) the Weyl action
    weyl_on_group: tuple[GroupHom, ...] = ()
    #: user assertion that the supplied generators give complete Weyl orbits
    weyl_complete: bool = False
    #: named companion gradings on the same algebra (e.g. a finer grading)
    companions: Mapping[str, Grading] = field(default_factory=dict)
    #: named algebra automorphisms (original coordinates) realizing
    #: equivalences; verified against the grading in the tests
    algebra_maps: Mapping[str, RatMatrix] = field(default_factory=dict)
    #: recorded expected facts, re-checked by the test suite
    expected: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------


def _e(n: int, i: int, j: int, c=1) -> RatMatrix:
    return RatMatrix([[c if (r, s) == (i, j) else 0 for s in range(n)] for r in range(n)])


def _kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[0] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = a[i, j] * b[k, l]
    return RatMatrix(out)


def _operators(mats: list[RatMatrix]) -> list[list[dict[int, Rational]]]:
    """The matrix realizations as the sparse rows the algebra layer works on."""
    return [list(sparse_rows(m.data)) for m in mats]


# split quaternions, realized inside M_2(Q)
_QUAT = {
    "1": RatMatrix.identity(2),
    "i": RatMatrix([[1, 0], [0, -1]]),
    "j": RatMatrix([[0, 1], [1, 0]]),
    "k": RatMatrix([[0, 1], [-1, 0]]),  # k = ij
}
_QUAT_DEG = {"1": (0, 0), "i": (1, 0), "j": (0, 1), "k": (1, 1)}
_QUAT_CONJ_SIGN = {"1": 1, "i": -1, "j": -1, "k": -1}


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------


def _cartan_sl(n: int) -> CatalogEntry:
    mats = [_e(n, i, j) for i in range(n) for j in range(n) if i != j]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        mats.append(_e(n, i, i) + _e(n, i + 1, i + 1, -1))
    alg = algebra_from_matrices(f"sl{n}", _operators(mats), kind="lie", extra_flags=["aut_reductive"])
    g = FgAbGroup(n - 1, ())

    def root_coords(i: int, j: int) -> list[int]:
        # eps_i - eps_j in simple-root coordinates
        c = [0] * (n - 1)
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        for k in range(lo, hi):
            c[k] = sign
        return c

    degrees = [g.element(root_coords(i, j)) for i, j in pairs]
    degrees += [g.identity()] * (n - 1)
    grading = Grading(alg, g, degrees)
    # simple reflections on the root lattice: s_k(a_j) = a_j - <a_j, a_k> a_k
    weyl = []
    for k in range(n - 1):
        cols = []
        for j in range(n - 1):
            col = [0] * (n - 1)
            col[j] += 1
            a = 2 if j == k else (-1 if abs(j - k) == 1 else 0)
            col[k] -= a
            cols.append(col)
        weyl.append(GroupHom(g, g, IntMatrix.from_columns(cols, rows=n - 1)))
    maps = {}
    if n == 2:
        # e <-> f, h -> -h realizes the nontrivial Weyl element
        maps["weyl-flip"] = RatMatrix.from_columns([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    return CatalogEntry(
        f"cartan-sl{n}",
        grading,
        tuple(weyl),
        weyl_complete=(n == 2),
        algebra_maps=maps,
        expected={
            "dimension": n * n - 1,
            "uab_free_rank": n - 1,
            "uab_invariants": (),
            "trank": n - 1,
            "almost_fine": True,
            "root_system": f"A{n-1}",
            "num_roots": n * (n - 1),
        },
    )


def _pauli_m2() -> CatalogEntry:
    mats = [_QUAT["1"], _QUAT["j"], _QUAT["k"], _QUAT["i"]]  # 1, x, y, z
    alg = algebra_from_matrices(
        "pauli-m2", _operators(mats), kind="associative", extra_flags=["aut_reductive"]
    )
    g = FgAbGroup(0, [2, 2])
    degrees = [g.element([0, 0]), g.element([1, 0]), g.element([1, 1]), g.element([0, 1])]
    grading = Grading(alg, g, degrees)
    swap = GroupHom(g, g, IntMatrix([[0, 1], [1, 0]]))
    maps = {
        # 1 -> 1, x -> z, y -> -y, z -> x (conjugation by the Hadamard matrix)
        "swap-xz": RatMatrix.from_columns(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]]
        )
    }
    return CatalogEntry(
        "pauli-m2",
        grading,
        (swap,),
        weyl_complete=False,
        algebra_maps=maps,
        expected={
            "dimension": 4,
            "uab_free_rank": 0,
            "uab_invariants": (2, 2),
            "trank": 0,
            "almost_fine": True,
        },
    )


def _b2_bases():
    """Matrix bases (inside M_4(Q)) for the skew algebra of M_2(H):
    the Z_2^3-homogeneous basis, its degrees, the Z_2^4-homogeneous
    basis, and its degrees."""
    e11, e22 = _e(2, 0, 0), _e(2, 1, 1)
    e12, e21 = _e(2, 0, 1), _e(2, 1, 0)
    coarse: list[RatMatrix] = []
    coarse_deg: list[tuple[int, int, int]] = []
    for pos, posmat in ((0, e11), (1, e22)):
        for q in ("i", "j", "k"):
            coarse.append(_kron(posmat, _QUAT[q]))
            coarse_deg.append((0, *_QUAT_DEG[q]))
    for d in ("1", "i", "j", "k"):
        m = _kron(e12, _QUAT[d]) - _kron(e21, _QUAT[d]).scale(_QUAT_CONJ_SIGN[d])
        coarse.append(m)
        coarse_deg.append((1, *_QUAT_DEG[d]))
    # finer basis: symmetric position matrices tensor imaginary units,
    # plus the antisymmetric position matrix tensor 1
    eye, x = RatMatrix.identity(2), RatMatrix([[0, 1], [1, 0]])
    y, z = RatMatrix([[0, 1], [-1, 0]]), RatMatrix([[1, 0], [0, -1]])
    pos_deg = {"I": (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}
    fine: list[RatMatrix] = []
    fine_deg: list[tuple[int, int, int, int]] = []
    for pname, p in (("I", eye), ("x", x), ("z", z)):
        for q in ("i", "j", "k"):
            fine.append(_kron(p, _QUAT[q]))
            fine_deg.append((*pos_deg[pname], *_QUAT_DEG[q]))
    fine.append(_kron(y, _QUAT["1"]))
    fine_deg.append((*pos_deg["y"], *_QUAT_DEG["1"]))
    return coarse, coarse_deg, fine, fine_deg


def _b2_skew() -> CatalogEntry:
    coarse, coarse_deg, fine, fine_deg = _b2_bases()
    alg = algebra_from_matrices(
        "b2-skew", _operators(coarse), kind="lie", extra_flags=["aut_reductive"]
    )
    g3 = FgAbGroup(0, [2, 2, 2])
    grading = Grading(alg, g3, [g3.element(list(d)) for d in coarse_deg])
    # express the finer basis in the abstract coordinates
    coords = coordinate_reader(16, [flat_vector(m) for m in _operators(coarse)])
    cols = [coords(flat_vector(m)) for m in _operators(fine)]
    if None in cols:
        raise AxiomFailure("b2-skew: the fine basis is not in the span of the coarse one")
    g4 = FgAbGroup(0, [2, 2, 2, 2])
    refinement = Grading(alg, g4, [g4.element(list(d)) for d in fine_deg], cols)
    return CatalogEntry(
        "b2-skew",
        grading,
        companions={"fine": refinement},
        expected={
            "dimension": 10,
            "simple": True,
            "identity_component_dim": 0,
            "uab_free_rank": 0,
            "trank": 0,
            "almost_fine": True,
            "support_size": 7,
        },
    )


def _b2_skew_assoc() -> CatalogEntry:
    mats = []
    degs = []
    for i in range(2):
        for j in range(2):
            for d in ("1", "i", "j", "k"):
                mats.append(_kron(_e(2, i, j), _QUAT[d]))
                degs.append(((i - j) % 2, *_QUAT_DEG[d]))
    alg = algebra_from_matrices("b2-skew-assoc", _operators(mats), kind="associative")
    g3 = FgAbGroup(0, [2, 2, 2])
    grading = Grading(alg, g3, [g3.element(list(d)) for d in degs])
    return CatalogEntry(
        "b2-skew-assoc",
        grading,
        expected={"dimension": 16, "uab_free_rank": 0, "support_size": 8},
    )


def _a3_fine() -> CatalogEntry:
    n = 4
    mats: list[RatMatrix] = []
    degs: list[list[int]] = []

    def vclass(i: int, j: int) -> list[int]:
        # eps_i + eps_j (i < j) in the basis v_k = eps_k + eps_{k+1}
        return [1 if i <= k < j else 0 for k in range(3)]

    for i in range(n):
        for j in range(i + 1, n):
            mats.append(_e(n, i, j) - _e(n, j, i))
            degs.append([0] + vclass(i, j))
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(_e(n, i, j) + _e(n, j, i))
            degs.append([1] + vclass(i, j))
    for i in range(n - 1):
        mats.append(_e(n, i, i) + _e(n, i + 1, i + 1, -1))
        degs.append([1, 0, 0, 0])
    alg = algebra_from_matrices(
        "a3-fine", _operators(mats), kind="lie", extra_flags=["aut_reductive"]
    )
    g = FgAbGroup(0, [2, 2, 2, 2])
    grading = Grading(alg, g, [g.element(d) for d in degs])
    # (a, b1, b2, b3) -> (a + b1, b1, b2, b3): fixes the support pointwise
    # up to permutation and swaps the two degrees with zero component
    w = GroupHom(
        g,
        g,
        IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    )
    return CatalogEntry(
        "a3-fine",
        grading,
        (w,),
        weyl_complete=False,
        expected={
            "dimension": 15,
            "uab_invariants": (2, 2, 2, 2),
            "uab_free_rank": 0,
            "identity_component_dim": 0,
            "trank": 0,
            "almost_fine": True,
            "missing_degrees": ((0, 1, 0, 1), (1, 1, 0, 1)),
        },
    )


def _sl3_involution() -> CatalogEntry:
    # fixed/anti-fixed basis of sl3 for X -> -S X^T S^{-1}, S antidiagonal
    even = [
        _e(3, 0, 1) - _e(3, 1, 2),
        _e(3, 1, 0) - _e(3, 2, 1),
        _e(3, 0, 0) + _e(3, 2, 2, -1),
    ]
    odd = [
        _e(3, 0, 1) + _e(3, 1, 2),
        _e(3, 1, 0) + _e(3, 2, 1),
        _e(3, 0, 2),
        _e(3, 2, 0),
        _e(3, 0, 0) + _e(3, 1, 1, -2) + _e(3, 2, 2),
    ]
    alg = algebra_from_matrices(
        "sl3-involution", _operators(even + odd), kind="lie", extra_flags=["aut_reductive"]
    )
    g = FgAbGroup(0, [2])
    degrees = [g.element([0])] * 3 + [g.element([1])] * 5
    grading = Grading(alg, g, degrees)
    return CatalogEntry(
        "sl3-involution",
        grading,
        expected={
            "dimension": 8,
            "uab_free_rank": 0,
            "uab_invariants": (2,),
            "trank": 1,
            "almost_fine": False,
            "non_special": True,
            "root_system": "BC1",
        },
    )


_BUILDERS = {
    "cartan-sl2": lambda: _cartan_sl(2),
    "cartan-sl3": lambda: _cartan_sl(3),
    "cartan-sl4": lambda: _cartan_sl(4),
    "pauli-m2": _pauli_m2,
    "b2-skew": _b2_skew,
    "b2-skew-assoc": _b2_skew_assoc,
    "a3-fine": _a3_fine,
    "sl3-involution": _sl3_involution,
}

_CACHE: dict[str, CatalogEntry] = {}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def get_catalog(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]

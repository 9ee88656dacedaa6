"""Finite-dimensional algebras given by structure tensors.

An algebra is a rational vector space with any number of multilinear
operations, each stored as a sparse structure tensor.  Asserted flags
(lie, associative) are verified exactly at construction time.  On top of
this: derivation algebras (optionally preserving a family of subspaces),
bracket spans, centralizers, the Killing form, and a simplicity test.
Subspaces are ``exactla.Subspace``, re-exported here: each canonical basis
is the result of one ``gauss_jordan``.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import chain, combinations, combinations_with_replacement, product
from typing import Iterable, Mapping, Sequence

from .errors import FlagViolation, ShapeError, VerificationFailure
from .exactla import (
    RatMatrix,
    Subspace,
    combine_rows,
    coordinate_reader,
    flat_operator,
    flat_vector,
    gauss_jordan,
    sparse_nullspace,
    sparse_product,
)

Q = Fraction


def memoized(fn):
    """Compute ``fn(obj, ...)`` once per immutable ``obj`` and argument
    values; the result is kept in ``obj._memo`` under (fn, arguments)."""
    signature = inspect.signature(fn)

    @wraps(fn)
    def cached(obj, *args, **kwargs):
        bound = signature.bind(obj, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, *tuple(bound.arguments.values())[1:])
        if key not in obj._memo:
            obj._memo[key] = fn(obj, *args, **kwargs)
        return obj._memo[key]

    return cached


class MultilinearOp:
    """A k-ary multilinear operation as a sparse structure tensor:
    (i_1, ..., i_k) -> {j: coefficient} with
    op(e_{i_1}, ..., e_{i_k}) = sum_j c_j e_j.

    ``int_tensor`` is the same tensor times its common denominator (the
    lcm of the denominators of its constants), with ``int`` entries.  The
    flag checks and the Leibniz rows read it: both sides of Jacobi and of
    associativity are homogeneous of degree 2 in the constants and each
    Leibniz row is linear in them, so every verdict, witness and row space
    is that of ``tensor``."""

    __slots__ = ("name", "arity", "tensor", "int_tensor")

    def __init__(self, name: str, arity: int, tensor: Mapping[tuple[int, ...], Mapping[int, Fraction]]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for key, vec in tensor.items():
            key = tuple(int(i) for i in key)
            if len(key) != arity:
                raise ShapeError("tensor key arity mismatch")
            v = {int(j): Q(c) for j, c in vec.items() if c}
            if v:
                clean[key] = v
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(self, "tensor", clean)
        scale = math.lcm(*(c.denominator for vec in clean.values() for c in vec.values()))
        object.__setattr__(
            self,
            "int_tensor",
            {
                key: {j: c.numerator * (scale // c.denominator) for j, c in vec.items()}
                for key, vec in clean.items()
            },
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearOp is immutable")

    def apply(self, vectors: Sequence[Mapping[int, Fraction]]) -> dict[int, Fraction]:
        """Evaluate the operation on sparse coordinate vectors.

        One tensor lookup per tuple of nonzero argument coordinates: the
        cost is the product of the arguments' nonzero counts, independent
        of the number of tensor entries (on basis vectors, a single
        lookup)."""
        if len(vectors) != self.arity:
            raise ShapeError("wrong number of arguments")
        out: dict[int, Fraction] = {}
        for args in product(*(v.items() for v in vectors)):
            vec = self.tensor.get(tuple(i for i, _ in args))
            if vec is None:
                continue
            coeff = Q(1)
            for _, x in args:
                coeff *= x
            for j, c in vec.items():
                out[j] = out.get(j, 0) + coeff * c
        return {j: x for j, x in out.items() if x}


class StructureAlgebra:
    """A finite-dimensional algebra over Q with verified flags."""

    __slots__ = ("name", "dimension", "operations", "flags", "_memo")

    def __init__(
        self,
        name: str,
        dimension: int,
        operations: Sequence[MultilinearOp],
        flags: Iterable[str] = (),
    ):
        flags = frozenset(flags)
        unknown = flags - {"lie", "associative", "aut_reductive"}
        if unknown:
            raise ValueError(f"unknown flags {sorted(unknown)}")
        operations = tuple(operations)
        for op in operations:
            for key, vec in op.tensor.items():
                if any(not 0 <= i < dimension for i in key) or any(
                    not 0 <= j < dimension for j in vec
                ):
                    raise ShapeError("structure-tensor index out of range")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "operations", operations)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "_memo", {})
        if "lie" in flags:
            self._verify_lie()
        if "associative" in flags:
            self._verify_associative()

    def __setattr__(self, name, value):
        raise AttributeError("StructureAlgebra is immutable")

    def __repr__(self) -> str:
        return f"StructureAlgebra({self.name!r}, dim={self.dimension})"

    # -- products -----------------------------------------------------------

    def binary_op(self) -> MultilinearOp:
        """The unique binary operation (bracket or product)."""
        binops = [op for op in self.operations if op.arity == 2]
        if len(binops) != 1:
            raise ValueError(
                f"expected exactly one binary operation, found {len(binops)}"
            )
        return binops[0]

    def bracket(self, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> dict[int, Fraction]:
        return self.binary_op().apply([x, y])

    def basis_vector(self, i: int) -> dict[int, Fraction]:
        return {i: Q(1)}

    def ad_rows(self, x: Mapping[int, Fraction]) -> list[dict[int, Fraction]]:
        """The sparse rows of y -> bracket(x, y) for a sparse x: row j holds
        the coefficient of y_i in bracket(x, y)_j, from the nonzero
        structure constants."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.dimension)]
        for (k, i), vec in self.binary_op().tensor.items():
            if k in x:
                for j, c in vec.items():
                    rows[j][i] = rows[j].get(i, 0) + x[k] * c
        return [{i: c for i, c in row.items() if c} for row in rows]

    def ad_matrix(self, x: Mapping[int, Fraction]) -> RatMatrix:
        """Matrix of y -> bracket(x, y) on the basis."""
        n = self.dimension
        return RatMatrix([[row.get(i, 0) for i in range(n)] for row in self.ad_rows(x)])

    # -- flag verification --------------------------------------------------

    def _verify_lie(self):
        t = self.binary_op().int_tensor
        n = self.dimension
        for i in range(n):
            for j in range(i, n):
                if t.get((i, j), {}) != {l: -c for l, c in t.get((j, i), {}).items()}:
                    raise FlagViolation(
                        f"bracket is not antisymmetric on basis pair ({i}, {j})",
                        witness=(i, j),
                    )
        # right[k][l] = [e_l, e_k], so [[e_i, e_j], e_k] = combine_rows(t[(i, j)], right[k])
        right = [[t.get((l, k), {}) for l in range(n)] for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    terms = [
                        combine_rows(t.get(key, {}), right[c])
                        for key, c in (((i, j), k), ((j, k), i), ((k, i), j))
                    ]
                    # the Jacobi sum: terms[0] + terms[1] + terms[2]
                    if combine_rows({0: 1, 1: 1, 2: 1}, terms):
                        raise FlagViolation(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})",
                            witness=(i, j, k),
                        )

    def _verify_associative(self):
        t = self.binary_op().int_tensor
        n = self.dimension
        # (e_i e_j) e_k = combine_rows(t[(i, j)], right[k]) and
        # e_i (e_j e_k) = combine_rows(t[(j, k)], left[i])
        right = [[t.get((l, k), {}) for l in range(n)] for k in range(n)]
        left = [[t.get((i, l), {}) for l in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                ij = t.get((i, j), {})
                for k in range(n):
                    if combine_rows(ij, right[k]) != combine_rows(t.get((j, k), {}), left[i]):
                        raise FlagViolation(
                            f"associativity fails on basis triple ({i}, {j}, {k})",
                            witness=(i, j, k),
                        )


# ---------------------------------------------------------------------------
# Construction from a plain description
# ---------------------------------------------------------------------------


#: an exact rational literal in a JSON document: "p" or "p/q"
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def int_field(x, field: str) -> int:
    """An integer field of a JSON document: a JSON integer, never a bool
    or a float (ValueError naming the field otherwise)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{field} {x!r} is not a JSON integer")
    return x


def rational_field(x, field: str) -> Fraction:
    """A rational field of a JSON document: a JSON integer or a "p/q"
    string with q > 0 (ValueError naming the field otherwise)."""
    if isinstance(x, str) and _RATIONAL_LITERAL.fullmatch(x):
        return Q(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    raise ValueError(
        f"{field} {x!r} is not rational: give a JSON integer or a \"p/q\" string, q > 0"
    )


def build_algebra(spec: Mapping) -> StructureAlgebra:
    """Build a StructureAlgebra from a plain dict:
    { "name", "dimension", "flags": {...}, "operations":
      [ {"name", "arity", "entries": [[i_1, ..., i_k, j, "p/q"], ...]}, ...] }.
    The name must be a string, the dimension a nonnegative integer, the
    flags an object of booleans, the operations a list of objects, their
    entries a list of lists, arity and indices integers, structure
    constants integers or "p/q" strings (ValueError naming the field
    otherwise).  Asserted lie / associative flags are verified
    (FlagViolation on failure)."""
    name = spec.get("name", "algebra")
    if not isinstance(name, str):
        raise ValueError(f"name {name!r} is not a string")
    dimension = int_field(spec["dimension"], "dimension")
    if dimension < 0:
        raise ValueError(f"dimension {dimension} is negative")
    operations = spec.get("operations", [])
    if not isinstance(operations, list):
        raise ValueError(f"operations {operations!r} is not a list")
    flags = spec.get("flags", {})
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise ValueError(f"flags {flags!r} is not an object of booleans")
    ops = []
    for opspec in operations:
        if not isinstance(opspec, dict):
            raise ValueError(f"operation {opspec!r} is not an object")
        arity = int_field(opspec["arity"], "arity")
        entries = opspec["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"entries {entries!r} is not a list")
        tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for entry in entries:
            if not isinstance(entry, list):
                raise ValueError(f"entry {entry!r} is not a list")
            if len(entry) != arity + 2:
                raise ShapeError(
                    f"entry of length {len(entry)} in an arity-{arity} operation"
                )
            key = tuple(int_field(x, "entry index") for x in entry[:arity])
            j = int_field(entry[arity], "entry index")
            c = rational_field(entry[arity + 1], "structure constant")
            tensor.setdefault(key, {})
            tensor[key][j] = tensor[key].get(j, Q(0)) + c
        ops.append(MultilinearOp(opspec.get("name", "op"), arity, tensor))
    return StructureAlgebra(name, dimension, ops, [k for k, v in flags.items() if v])


def algebra_to_dict(a: StructureAlgebra) -> dict:
    """Inverse of build_algebra (entries sorted for stable output)."""
    ops = []
    for op in a.operations:
        entries = []
        for key in sorted(op.tensor):
            for j in sorted(op.tensor[key]):
                c = op.tensor[key][j]
                entries.append(list(key) + [j, f"{c.numerator}/{c.denominator}"])
        ops.append({"name": op.name, "arity": op.arity, "entries": entries})
    return {
        "name": a.name,
        "dimension": a.dimension,
        "flags": {f: True for f in sorted(a.flags)},
        "operations": ops,
    }


def algebra_from_matrices(
    name: str,
    matrices: Sequence[Sequence[Mapping[int, Fraction]]],
    kind: str = "lie",
    extra_flags: Iterable[str] = (),
) -> StructureAlgebra:
    """Abstract algebra from a faithful realization by square operators,
    each given by its sparse rows: structure constants of the commutator
    (kind="lie") or product (kind="associative") expressed in the span of
    ``matrices`` (VerificationFailure when the span is not closed).  One
    elimination, in ``coordinate_reader`` on the flat vectors, serves
    every product."""
    n = len(matrices)
    size = len(matrices[0]) ** 2 if matrices else 0
    coords = coordinate_reader(size, [flat_vector(m) for m in matrices])
    tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(n):
            prod_m = flat_vector(sparse_product(matrices[i], matrices[j]))
            if kind == "lie":
                prod_m = combine_rows({0: 1, 1: -1}, [prod_m, flat_vector(sparse_product(matrices[j], matrices[i]))])
            vec = coords(prod_m)
            if vec is None:
                raise VerificationFailure(
                    f"span is not closed under the {kind} product on ({i}, {j})", witness=(i, j)
                )
            if vec:
                tensor[(i, j)] = vec
    flags = [kind] + list(extra_flags)
    return StructureAlgebra(name, n, [MultilinearOp("bracket" if kind == "lie" else "product", 2, tensor)], flags)


def subalgebra_structure(
    a: StructureAlgebra,
    columns: Sequence[Mapping[int, Fraction]],
    name: str | None = None,
    flags: Iterable[str] | None = None,
) -> StructureAlgebra:
    """The algebra ``a`` re-based on the sparse vectors ``columns``: the
    canonical basis of a subspace, or the columns of an invertible basis
    change.  Its structure constants are each operation on every tuple of
    basis vectors, read in coordinates of those vectors (ValueError when
    they are linearly dependent or their span is not closed under an
    operation).  The flags (default: those of ``a``) are verified on the
    result.

    The identity basis with the name and flags of ``a`` gives ``a``
    itself.  Any other result is memoized on ``a`` per (basis, name,
    flags), so the gradings, inductions and coarsenings sharing an algebra
    and a basis share one re-based, flag-checked copy."""
    use_flags = a.flags if flags is None else frozenset(flags)
    use_name = name or f"{a.name}-sub"
    frozen = tuple(tuple(sorted(col.items())) for col in columns)
    identity = len(frozen) == a.dimension and all(col == ((i, 1),) for i, col in enumerate(frozen))
    if (use_name, use_flags) == (a.name, a.flags) and identity:
        return a
    return _rebased(a, frozen, use_name, use_flags)


@memoized
def _rebased(a: StructureAlgebra, frozen: tuple, name: str, flags: frozenset) -> StructureAlgebra:
    """``subalgebra_structure`` on the columns ``frozen`` as sorted item tuples."""
    if any(not 0 <= i < a.dimension for col in frozen for i, _ in col):
        raise ShapeError("basis entries must lie in the algebra's dimension")
    cols = [dict(col) for col in frozen]
    coords = coordinate_reader(a.dimension, cols)
    ops = []
    for op in a.operations:
        tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for key in product(range(len(cols)), repeat=op.arity):
            vec = coords(op.apply([cols[i] for i in key]))
            if vec is None:
                raise ValueError("subspace is not closed under an operation")
            if vec:
                tensor[key] = vec
        ops.append(MultilinearOp(op.name, op.arity, tensor))
    return StructureAlgebra(name, len(cols), ops, flags)


# ---------------------------------------------------------------------------
# Equation rows
# ---------------------------------------------------------------------------


def _symmetry(tensor: Mapping[tuple[int, int], Mapping[int, int]]) -> int:
    """-1 if the binary tensor is antisymmetric (the zero tensor is), 1 if
    it is symmetric, 0 otherwise."""
    for sign in (-1, 1):
        if all(tensor.get((j, i)) == {l: sign * c for l, c in vec.items()} for (i, j), vec in tensor.items()):
            return sign
    return 0


def _leibniz_rows(a: StructureAlgebra):
    """Nonzero sparse equation rows ``{r*n + c: coefficient}`` in the n^2
    unknowns D[r, c] forcing D to satisfy the Leibniz rule for every
    operation: one row per basis key (i_1, ..., i_k) and output index j,

        sum_a D[j, a] op(key)_a - sum_t sum_b D[b, i_t] op(key, e_b in slot t)_j = 0.

    The rows are built on ``op.int_tensor``, so their coefficients are
    ints: each is the row of ``op.tensor`` times a positive constant.  For
    a binary operation that is antisymmetric or symmetric, row (j, i) is
    -row (i, j) or row (i, j), and antisymmetry makes row (i, i) zero; so
    only the keys i < j, or i <= j, are used.
    """
    n = a.dimension
    for op in a.operations:
        keys = product(range(n), repeat=op.arity)
        if op.arity == 2 and (sign := _symmetry(op.int_tensor)):
            keys = combinations(range(n), 2) if sign < 0 else combinations_with_replacement(range(n), 2)
        # slot t, the key without slot t -> [(b, op(key with e_b in slot t))]
        by_slot: list[dict[tuple[int, ...], list[tuple[int, Mapping[int, int]]]]] = [
            {} for _ in range(op.arity)
        ]
        tensor = op.int_tensor
        for key2, vec in tensor.items():
            for t in range(op.arity):
                by_slot[t].setdefault(key2[:t] + key2[t + 1 :], []).append((key2[t], vec))
        for key in keys:
            val = tensor.get(key, {})
            rhs_terms = [
                (b * n + it, vec)
                for t, it in enumerate(key)
                for b, vec in by_slot[t].get(key[:t] + key[t + 1 :], ())
            ]
            if not val and not rhs_terms:
                continue
            for j in range(n):
                row: dict[int, int] = {j * n + aidx: c for aidx, c in val.items()}
                for idx, vec in rhs_terms:
                    if j in vec:
                        row[idx] = row.get(idx, 0) - vec[j]
                row = {k: c for k, c in row.items() if c}
                if row:
                    yield row


def _stabilizer_rows(n: int, constraints: Sequence[Subspace]):
    """Nonzero sparse rows forcing D to preserve each constraint subspace."""
    for w in constraints:
        # D preserves W iff q(D w) = 0 for every w in W and q vanishing on W
        for q in w.annihilator():
            for wvec in w.sparse_vectors():
                yield {r * n + c: x * y for r, x in q.items() for c, y in wvec.items()}


@dataclass(frozen=True)
class DerivationAlgebra:
    """Derivations of an algebra (optionally preserving subspaces):
    a subspace of End(A) (n^2 coordinates, row-major) together with its
    own Lie algebra structure under the commutator."""

    space: Subspace
    algebra: StructureAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim


def inner_derivations(a: StructureAlgebra) -> list[dict[int, Fraction]]:
    """The nonzero maps x -> e_i x - x e_i over the basis vectors e_i, as
    sparse vectors of End(A) in n^2 coordinates (row-major), when they are
    derivations: ``a`` has a single operation, binary, with a verified
    lie or associative flag (for a Lie bracket the map is 2 ad e_i).
    Otherwise the empty list."""
    if len(a.operations) != 1 or a.operations[0].arity != 2 or not a.flags & {"lie", "associative"}:
        return []
    n = a.dimension
    t = a.operations[0].tensor
    maps = []
    for i in range(n):
        vec: dict[int, Fraction] = {}
        for c in range(n):
            for r, x in t.get((i, c), {}).items():
                vec[r * n + c] = vec.get(r * n + c, 0) + x
            for r, x in t.get((c, i), {}).items():
                vec[r * n + c] = vec.get(r * n + c, 0) - x
        if vec := {k: x for k, x in vec.items() if x}:
            maps.append(vec)
    return maps


def derivation_space(a: StructureAlgebra, constraints: Sequence[Subspace] = ()) -> Subspace:
    """All derivations of ``a`` (maps satisfying the k-ary Leibniz rule for
    every operation) that preserve each constraint subspace, as a subspace
    of End(A) in n^2 coordinates (row-major)."""
    n = a.dimension
    rows = chain(_leibniz_rows(a), _stabilizer_rows(n, constraints))
    return sparse_nullspace(n * n, rows)


def derivation_algebra(
    a: StructureAlgebra, constraints: Sequence[Subspace] | None = None
) -> DerivationAlgebra:
    """The derivation space of ``a`` (see ``derivation_space``) with its Lie
    structure under the commutator."""
    n = a.dimension
    space = derivation_space(a, constraints or ())
    mats = [flat_operator(v, n) for v in space.sparse_vectors()]
    return DerivationAlgebra(space, algebra_from_matrices(f"Der({a.name})", mats))


# ---------------------------------------------------------------------------
# Centralizer, Killing form, simplicity
# ---------------------------------------------------------------------------


def _require_lie(a: StructureAlgebra):
    if "lie" not in a.flags:
        raise ValueError("operation requires the lie flag")


def bracket_span(
    a: StructureAlgebra, xs: Iterable[Mapping[int, Fraction]], ys: Iterable[Mapping[int, Fraction]]
) -> Subspace:
    """The span of [x, y] for sparse x in ``xs`` and y in ``ys``."""
    ys = list(ys)
    return Subspace.span(a.dimension, (a.bracket(x, y) for x in xs for y in ys))


def centralizer(a: StructureAlgebra, s: Subspace) -> Subspace:
    """{x in A : [x, v] = 0 for all v in S}."""
    _require_lie(a)
    # [x, v] = -(ad v) x = 0
    rows = (row for v in s.sparse_vectors() for row in a.ad_rows(v))
    return sparse_nullspace(a.dimension, rows)


@memoized
def killing_form(a: StructureAlgebra) -> tuple[list[dict[int, Fraction]], bool]:
    """Gram matrix K(e_i, e_j) = trace(ad e_i ad e_j) as sparse rows;
    returns (gram, is_nondegenerate), which in characteristic 0 is also
    whether the algebra is semisimple.  The trace is summed over the sparse
    ``ad_rows`` of the basis, that is over the nonzero structure constants:
    K(e_i, e_j) = sum over k, l of c_ik^l c_jl^k."""
    _require_lie(a)
    n = a.dimension
    ads = [a.ad_rows(a.basis_vector(i)) for i in range(n)]

    def trace(adi, adj):  # of ad e_i ad e_j: ad_i[l][k] ad_j[k][l] over ad_i[l][k] != 0
        return sum(x * adj[k].get(l, 0) for l, row in enumerate(adi) for k, x in row.items())

    gram = [{j: x for j, adj in enumerate(ads) if (x := trace(adi, adj))} for adi in ads]
    return gram, len(gauss_jordan(gram, n)) == n


def centroid_dimension(a: StructureAlgebra) -> int:
    """Dimension of {C in End(A) : C[x, y] = [x, Cy] for all x, y}.  The
    identity is always in the centroid, so the rows have rank at most
    n^2 - 1 and the elimination stops there."""
    _require_lie(a)
    n = a.dimension

    def rows():
        for i in range(n):
            ad = a.ad_rows(a.basis_vector(i))
            # C ad - ad C = 0, row (j, c): sum over t of C[j, t] ad[t][c] - ad[j][t] C[t, c]
            for j in range(n):
                for c in range(n):
                    row = {j * n + t: ad[t][c] for t in range(n) if c in ad[t]}
                    for t, x in ad[j].items():
                        row[t * n + c] = row.get(t * n + c, 0) - x
                    yield row

    # the kernel dimension: unknowns minus rank
    return n * n - len(gauss_jordan(rows(), n * n, n * n - 1))


@memoized
def is_simple(a: StructureAlgebra) -> bool:
    """Simplicity of a Lie algebra with nondegenerate Killing form.

    The centroid decides: a semisimple split algebra is simple iff its
    centroid is one-dimensional, since a proper ideal I and its
    complement I^perp give the two projections as independent centroid
    elements (Jacobson, Lie Algebras, ch. X).  Memoized on the algebra.
    """
    _require_lie(a)
    _, nondeg = killing_form(a)
    if not nondeg:
        raise ValueError("simplicity test requires a nondegenerate Killing form")
    return centroid_dimension(a) == 1

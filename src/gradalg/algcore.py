"""Finite-dimensional algebras given by structure tensors.

An algebra is a rational vector space with any number of multilinear
operations, each stored as a sparse structure tensor.  Asserted flags
(lie, associative) are verified exactly at construction time.  On top of
this: the Leibniz equations and inner derivations behind graded derivations,
bracket spans, centralizers, the Killing and trace forms, a certificate
that every derivation is inner, and a simplicity test.
Subspaces are ``exactla.Subspace``, re-exported here; a centralizer is the
``Subspace.preimage`` of the zero space under the adjoints, one elimination.
"""

from __future__ import annotations

import inspect
import math
import re
from functools import wraps
from itertools import combinations, combinations_with_replacement, product
from typing import Container, Iterable, Mapping, Sequence

from .errors import FlagViolation, ShapeError, VerificationFailure
from .exactla import (
    Rational,
    Subspace,
    combine_rows,
    coordinate_reader,
    coordinate_rows,
    flat_operator,
    flat_vector,
    gauss_jordan,
    is_unit_basis,
    qdiv,
    rational,
    sparse_product,
)

_MISSING = object()


def memoized(fn):
    """Compute ``fn(obj, ...)`` once per immutable ``obj`` and argument
    values; the result is kept in ``obj._memo`` under (fn, arguments).
    The parameter names and defaults are read once, when ``fn`` is
    decorated: a call's key is its positional arguments, then the
    defaults with its keywords put in, so positional, keyword and
    defaulted calls of the same values share one key, and a hit is one
    dict lookup.  Only a bad call is bound to the signature, which raises
    the TypeError of that call.  A result never refers to ``obj``: then
    obj, its memo and its results form no reference cycle, and reference
    counting frees them with the last outside reference to obj."""
    signature = inspect.signature(fn)
    params = list(signature.parameters.values())[1:]
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError("memoized takes positional-or-keyword parameters only")
    index = {p.name: i for i, p in enumerate(params)}
    defaults = tuple(p.default for p in params)
    required = sum(p.default is p.empty for p in params)

    @wraps(fn)
    def cached(obj, *args, **kwargs):
        if kwargs or not required <= len(args) <= len(defaults):
            values = [*args, *defaults[len(args) :]]
            for name, value in kwargs.items():
                if index.get(name, -1) < len(args):  # unknown, or given positionally too
                    signature.bind(obj, *args, **kwargs)
                values[index[name]] = value
            if len(values) != len(defaults) or any(v is inspect.Parameter.empty for v in values):
                signature.bind(obj, *args, **kwargs)
            args = values
        key = (fn, *args, *defaults[len(args) :])
        memo = obj._memo
        if (result := memo.get(key, _MISSING)) is _MISSING:
            result = memo[key] = fn(obj, *key[1:])
        return result

    return cached


class MultilinearOp:
    """A k-ary multilinear operation as a sparse structure tensor:
    (i_1, ..., i_k) -> {j: coefficient} with
    op(e_{i_1}, ..., e_{i_k}) = sum_j c_j e_j.

    Each constant is kept in canonical form (``exactla.rational``): an
    ``int`` when it is integral.  ``int_tensor`` is the same tensor times
    ``denominator``, the lcm of the denominators of its constants, with
    ``int`` entries: ``tensor`` itself when that is 1.
    The flag checks, the Leibniz rows and the re-basing read it: both
    sides of Jacobi and of associativity are homogeneous of degree 2 in the
    constants and each Leibniz row is linear in them, so every verdict,
    witness and row space is that of ``tensor``."""

    __slots__ = ("name", "arity", "tensor", "denominator", "int_tensor")

    def __init__(self, name: str, arity: int, tensor: Mapping[tuple[int, ...], Mapping[int, Rational]]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean: dict[tuple[int, ...], dict[int, Rational]] = {}
        scale = 1
        for key, vec in tensor.items():
            key = tuple(map(int, key))
            if len(key) != arity:
                raise ShapeError("tensor key arity mismatch")
            v = {}
            for j, c in vec.items():
                if c:
                    if type(c) is not int and type(c := rational(c)) is not int:
                        scale = math.lcm(scale, c.denominator)
                    v[int(j)] = c
            if v:
                clean[key] = v
        int_tensor = clean if scale == 1 else {
            key: {j: c.numerator * (scale // c.denominator) for j, c in vec.items()} for key, vec in clean.items()
        }
        for slot, value in zip(self.__slots__, (str(name), int(arity), clean, scale, int_tensor)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearOp is immutable")

    def apply(self, vectors: Sequence[Mapping[int, Rational]]) -> dict[int, Rational]:
        """Evaluate the operation on sparse coordinate vectors.

        One tensor lookup per tuple of nonzero argument coordinates: the
        cost is the product of the arguments' nonzero counts, independent
        of the number of tensor entries (on basis vectors, a single
        lookup)."""
        if len(vectors) != self.arity:
            raise ShapeError("wrong number of arguments")
        out: dict[int, Rational] = {}
        for args in product(*(v.items() for v in vectors)):
            vec = self.tensor.get(tuple(i for i, _ in args))
            if vec is None:
                continue
            coeff = 1
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
        # every index of every key and output, as one set, checked by its least and greatest
        indices = set().union(*(i for op in operations for item in op.tensor.items() for i in item))
        if indices and (min(indices) < 0 or max(indices) >= dimension):
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

    def bracket(self, x: Mapping[int, Rational], y: Mapping[int, Rational]) -> dict[int, Rational]:
        return self.binary_op().apply([x, y])

    def basis_vector(self, i: int) -> dict[int, Rational]:
        return {i: 1}

    def ad_rows(self, x: Mapping[int, Rational]) -> list[dict[int, Rational]]:
        """The sparse rows of y -> bracket(x, y) for a sparse x: row j holds
        the coefficient of y_i in bracket(x, y)_j, from the nonzero
        structure constants."""
        rows: list[dict[int, Rational]] = [{} for _ in range(self.dimension)]
        for (k, i), vec in self.binary_op().tensor.items():
            if k in x:
                for j, c in vec.items():
                    rows[j][i] = rows[j].get(i, 0) + x[k] * c
        return [{i: c for i, c in row.items() if c} for row in rows]

    # -- flag verification --------------------------------------------------

    def _verify_lie(self):
        """Antisymmetry, then Jacobi, over the stored keys: a basis pair can
        fail only if one of its keys is stored, and a triple i < j < k only
        if one of its cyclic products [[e_a, e_b], e_c] has a term.  Once the
        bracket is antisymmetric, [[e_b, e_a], e_c] = -[[e_a, e_b], e_c], so
        only the stored keys a < b are walked, each term l of [e_a, e_b]
        meeting the keys (l, c): with c outside {a, b}, the term goes to the
        sorted triple of a, b, c with the sign of the cyclic order (a, b, c).
        The least failing pair or triple is reported, the first one in
        lexicographic order."""
        t = self.binary_op().int_tensor
        pairs = [tuple(sorted(key)) for key, vec in t.items() if t.get(key[::-1]) != {l: -c for l, c in vec.items()}]
        if pairs:
            i, j = min(pairs)
            raise FlagViolation(f"bracket is not antisymmetric on basis pair ({i}, {j})", witness=(i, j))
        by_first = _keys_by_slot(t, 0)
        jacobi: dict[tuple[int, int, int, int], int] = {}
        for (a, b), ab in t.items():
            if a > b:
                continue
            for l, x in ab.items():
                for c, vec in by_first.get(l, ()):
                    # (a, b, c) is a cyclic order when c > b or c < a, and (a, c, b) is when a < c < b
                    if c > b:
                        triple, sign = (a, b, c), x
                    elif c < a:
                        triple, sign = (c, a, b), x
                    elif a < c < b:
                        triple, sign = (a, c, b), -x
                    else:
                        continue
                    for m, y in vec.items():
                        key = (*triple, m)
                        jacobi[key] = jacobi.get(key, 0) + sign * y
        if triples := [key[:3] for key, x in jacobi.items() if x]:
            i, j, k = min(triples)
            raise FlagViolation(f"Jacobi identity fails on basis triple ({i}, {j}, {k})", witness=(i, j, k))

    def _verify_associative(self):
        """(e_i e_j) e_k - e_i (e_j e_k) summed in one pass over the stored
        keys (a, b): each term l of e_a e_b meets the keys (l, c), a term of
        (e_a e_b) e_c, and the keys (c, l), a term of e_c (e_a e_b).  The
        least failing triple is reported."""
        t = self.binary_op().int_tensor
        by_first, by_second = _keys_by_slot(t, 0), _keys_by_slot(t, 1)
        diff: dict[tuple[int, int, int, int], int] = {}
        for (a, b), ab in t.items():
            for l, x in ab.items():
                for c, vec in by_first.get(l, ()):
                    for m, y in vec.items():
                        key = (a, b, c, m)
                        diff[key] = diff.get(key, 0) + x * y
                for c, vec in by_second.get(l, ()):
                    for m, y in vec.items():
                        key = (c, a, b, m)
                        diff[key] = diff.get(key, 0) - x * y
        if triples := [key[:3] for key, x in diff.items() if x]:
            i, j, k = min(triples)
            raise FlagViolation(f"associativity fails on basis triple ({i}, {j}, {k})", witness=(i, j, k))


def _keys_by_slot(t: Mapping[tuple[int, int], Mapping[int, int]], slot: int) -> dict:
    """The stored keys of the binary tensor t by their index in ``slot``:
    index -> [(the other index, t[key]), ...]."""
    out: dict[int, list[tuple[int, Mapping[int, int]]]] = {}
    for key, vec in t.items():
        out.setdefault(key[slot], []).append((key[1 - slot], vec))
    return out


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


def rational_field(x, field: str) -> Rational:
    """A rational field of a JSON document: a JSON integer or a "p/q"
    string with q > 0 (ValueError naming the field otherwise), as an
    ``int`` when it is integral and a ``Fraction`` otherwise."""
    if isinstance(x, str) and _RATIONAL_LITERAL.fullmatch(x):
        p, _, q = x.partition("/")
        return qdiv(int(p), int(q or 1))
    if isinstance(x, int) and not isinstance(x, bool):
        return x
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
    otherwise, from ``int_field`` and ``rational_field``).  Each distinct
    constant literal, a JSON integer or a string, is read once per call:
    a dict maps it to its rational (a "p/q" string that passes the
    literal check becomes the exact quotient of ``int(p)`` by ``int(q)``),
    and only literals that ``rational_field`` accepted enter it, so a
    JSON ``true`` or a float, which compare equal to integers, never
    reaches it.  Entries repeating a key and output index are summed.
    Asserted lie / associative flags are verified over the stored entries
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
    constants: dict[str | int, Rational] = {}
    ops = []
    for opspec in operations:
        if not isinstance(opspec, dict):
            raise ValueError(f"operation {opspec!r} is not an object")
        arity = int_field(opspec["arity"], "arity")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        entries = opspec["entries"]
        if not isinstance(entries, list):
            raise ValueError(f"entries {entries!r} is not a list")
        tensor: dict[tuple[int, ...], dict[int, Rational]] = {}
        for entry in entries:
            if not isinstance(entry, list):
                raise ValueError(f"entry {entry!r} is not a list")
            if len(entry) != arity + 2:
                raise ShapeError(
                    f"entry of length {len(entry)} in an arity-{arity} operation"
                )
            key, j, c = tuple(entry[:arity]), entry[arity], entry[arity + 1]
            if type(j) is not int or not all(type(x) is int for x in key):
                for x in (*key, j):
                    int_field(x, "entry index")
            if (type(c) is not str and type(c) is not int) or (value := constants.get(c)) is None:
                value = constants[c] = rational_field(c, "structure constant")
            row = tensor.setdefault(key, {})
            row[j] = row[j] + value if j in row else value
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
    matrices: Subspace | Sequence[Sequence[Mapping[int, Rational]]],
    kind: str = "lie",
    extra_flags: Iterable[str] = (),
) -> StructureAlgebra:
    """Abstract algebra from a faithful realization by square operators: a
    ``Subspace`` of End(Q^n) in n^2 coordinates, row-major, or operators by
    their sparse rows.  The commutator (kind="lie") or product
    (kind="associative") of two of them is read in their span by one
    ``coordinate_reader``, at the pivots of a ``Subspace`` or by one
    elimination (VerificationFailure with witness (i, j), the first such
    ordered pair, when not closed).  A commutator is read for i < j only
    and [b_j, b_i] stored as -[b_i, b_j]."""
    if isinstance(matrices, Subspace):
        size = math.isqrt(matrices.dim_ambient)
        coords = coordinate_reader(size * size, matrices)  # ShapeError unless the ambient is a square
        matrices = [flat_operator(v, size) for v in matrices.sparse_vectors()]
    else:
        coords = coordinate_reader(len(matrices[0]) ** 2 if matrices else 0, [flat_vector(m) for m in matrices])
    n = len(matrices)
    products: dict[tuple[int, int], dict[int, Rational]] = {}
    for i in range(n):
        # a commutator is antisymmetric: [b_i, b_i] = 0 and [b_j, b_i] = -[b_i, b_j], so only
        # i < j is computed; the first pair that leaves the span is then still the first in order
        for j in range(i + 1, n) if kind == "lie" else range(n):
            prod_m = flat_vector(sparse_product(matrices[i], matrices[j]))
            if kind == "lie":
                prod_m = combine_rows({0: 1, 1: -1}, [prod_m, flat_vector(sparse_product(matrices[j], matrices[i]))])
            vec = coords(prod_m)
            if vec is None:
                raise VerificationFailure(
                    f"span is not closed under the {kind} product on ({i}, {j})", witness=(i, j)
                )
            if vec:
                products[(i, j)] = vec
    tensor = products
    if kind == "lie":
        # (j, i) stored as the negative of (i, j), the keys in the order of the loop over every ordered pair
        tensor = {
            (i, j): products[(i, j)] if i < j else {k: -x for k, x in products[(j, i)].items()}
            for i, j in sorted([*products, *((j, i) for i, j in products)])
        }
    flags = [kind] + list(extra_flags)
    return StructureAlgebra(name, n, [MultilinearOp("bracket" if kind == "lie" else "product", 2, tensor)], flags)


def subalgebra_structure(
    a: StructureAlgebra,
    columns: Subspace | Sequence[Mapping[int, Rational]],
    flags: Iterable[str] | None = None,
) -> StructureAlgebra:
    """The algebra ``a`` re-based on ``columns``: a ``Subspace``, on its
    canonical basis, or the sparse columns of an invertible basis change.
    Its structure constants are built by ``_rebased`` from the stored
    entries, each read once in coordinates by ``coordinate_rows``: at the
    pivots of a ``Subspace``, or through one elimination of the columns,
    which for an invertible basis is B^-1 (ValueError when the columns are
    dependent or their span is not closed under an operation).  The flags
    (default: those of ``a``) are verified.

    The full subspace or the unit basis (``is_unit_basis``) gives ``a``
    itself when the flags are among the verified flags of ``a``.  Any
    other result is memoized on ``a`` per (basis, flags), so the gradings,
    inductions and coarsenings sharing an algebra and a basis share one
    re-based copy."""
    use_flags = a.flags if flags is None else frozenset(flags)
    if is_unit_basis(a.dimension, columns) and use_flags <= a.flags:
        return a
    if not isinstance(columns, Subspace):
        columns = tuple(tuple(sorted(col.items())) for col in columns)
    return _rebased(a, columns, use_flags)


@memoized
def _rebased(a: StructureAlgebra, basis: Subspace | tuple, flags: frozenset) -> StructureAlgebra:
    """``subalgebra_structure`` on ``basis``, a ``Subspace`` or the columns as
    sorted item tuples.  Column t times the lcm s_t of its denominators is
    an integer column, indexed by coordinate.  Reading is linear, so each
    stored entry's value op(e_key), in integers times ``op.denominator``,
    is read once by ``coordinate_rows`` (coordinates and residual times
    L), and that read, times the product w of the integer columns' entries
    at the key's indices, is added to op(s_t1 col_t1, ...) for each tuple
    of columns nonzero there; tuples that no stored key reaches have the
    value 0.  A value's residual must be 0 (it always is for an
    invertible basis, which has none); its coordinates are divided by L,
    ``op.denominator`` and the scales once."""
    columns = basis.sparse_vectors() if isinstance(basis, Subspace) else [dict(col) for col in basis]
    if any(not 0 <= i < a.dimension for col in columns for i in col):
        raise ShapeError("basis entries must lie in the algebra's dimension")
    k = len(columns)
    lcm, rows = coordinate_rows(a.dimension, basis if isinstance(basis, Subspace) else columns)
    scales = [math.lcm(*(x.denominator for x in col.values())) for col in columns]
    at: dict[int, list[tuple[int, int]]] = {}
    for t, (col, s) in enumerate(zip(columns, scales)):
        for i, x in col.items():
            at.setdefault(i, []).append((t, x.numerator * (s // x.denominator)))
    ops = []
    for op in a.operations:
        values: dict[tuple[int, ...], dict[int, int]] = {}
        for key, vec in op.int_tensor.items():
            read = combine_rows(vec, rows)
            reached = [((), 1)]
            for i in key:
                reached = [(ts + (t,), w * x) for ts, w in reached for t, x in at.get(i, ())]
            for ts, w in reached:
                value = values.setdefault(ts, {})
                for t, y in read.items():
                    value[t] = value.get(t, 0) + w * y
        tensor: dict[tuple[int, ...], dict[int, Rational]] = {}
        for ts in sorted(values):
            value = values[ts]
            if k < a.dimension and any(value[c] for c in value if c >= k):
                raise ValueError("subspace is not closed under an operation")
            d = op.denominator * lcm
            for t in ts:
                d *= scales[t]
            vec = {t: x if d == 1 else qdiv(x, d) for t, x in sorted(value.items()) if x}
            if vec:
                tensor[ts] = vec
        ops.append(MultilinearOp(op.name, op.arity, tensor))
    return StructureAlgebra(f"{a.name}-sub", k, ops, flags)


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


def _leibniz_keys(a: StructureAlgebra):
    """The Leibniz system key by key: for each operation and basis key
    (i_1, ..., i_k) that has an equation, the pair (val, terms) of
    val = op(key) and, for each slot t, terms[t] = (i_t, [(b, op(key with
    e_b in slot t)), ...]) over the b where that is nonzero, read on
    ``op.int_tensor``.  Its equation for output index j (``_leibniz_row``)
    has int coefficients, each that of ``op.tensor`` times a positive
    constant.  For a binary operation that is antisymmetric or symmetric,
    the equations of key (j, i) are minus or equal to those of (i, j), and
    antisymmetry makes those of (i, i) zero; so only the keys i < j, or
    i <= j, are used.
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
            terms = [(it, by_slot[t].get(key[:t] + key[t + 1 :], ())) for t, it in enumerate(key)]
            if val or any(entries for _, entries in terms):
                yield val, terms


def _leibniz_row(n: int, val: Mapping[int, int], terms, j: int) -> dict[int, int]:
    """The nonzero entries {r*n + c: coefficient} of the equation for
    output index j of a ``_leibniz_keys`` pair (val, terms),

        sum_a D[j, a] op(key)_a - sum_t sum_b D[b, i_t] op(key, e_b in slot t)_j = 0."""
    row: dict[int, int] = {j * n + aidx: c for aidx, c in val.items()}
    for it, entries in terms:
        for b, vec in entries:
            if j in vec:
                idx = b * n + it
                row[idx] = row.get(idx, 0) - vec[j]
    return {k: c for k, c in row.items() if c}


def _has_inner_derivations(a: StructureAlgebra) -> bool:
    """``a`` has a single operation, binary, with a verified lie or associative
    flag: then each map x -> e_i x - x e_i is a derivation."""
    return len(a.operations) == 1 and a.operations[0].arity == 2 and bool(a.flags & {"lie", "associative"})


def inner_derivations(a: StructureAlgebra, among: Container[int]) -> list[dict[int, int]]:
    """The nonzero maps x -> e_i x - x e_i over the basis vectors e_i, i in
    ``among``, as sparse vectors of End(A) in n^2
    coordinates (row-major), when they are derivations: ``a`` has a single
    operation, binary, with a verified lie or associative flag.  Otherwise
    the empty list.  They are read on ``op.int_tensor``, each stored key
    once (the work follows the table, not the dimension), so each is the
    map of ``op.tensor`` times the same positive constant c, with int
    entries, and they span the same space (for a Lie bracket the map of
    e_i is 2c ad e_i)."""
    if not _has_inner_derivations(a):
        return []
    n = a.dimension
    by_basis: dict[int, dict[int, int]] = {}
    for (i, c), vec in a.operations[0].int_tensor.items():
        # each stored key read once: e_i e_c is column c of the map of e_i, and minus column i of that of e_c
        for m, col, sign in ((i, c, 1), (c, i, -1)):
            if m in among:
                out = by_basis.setdefault(m, {})
                for r, x in vec.items():
                    out[r * n + col] = out.get(r * n + col, 0) + sign * x
    maps = []
    for i in sorted(by_basis):
        if vec := {k: x for k, x in by_basis[i].items() if x}:
            maps.append(vec)
    return maps


# ---------------------------------------------------------------------------
# Centralizer, Killing form, simplicity
# ---------------------------------------------------------------------------


def _require_lie(a: StructureAlgebra):
    if "lie" not in a.flags:
        raise ValueError("operation requires the lie flag")


def bracket_span(
    a: StructureAlgebra, xs: Iterable[Mapping[int, Rational]], ys: Iterable[Mapping[int, Rational]]
) -> Subspace:
    """The span of [x, y] for sparse x in ``xs`` and y in ``ys``."""
    ys = list(ys)
    return Subspace.span(a.dimension, (a.bracket(x, y) for x in xs for y in ys))


def centralizer(a: StructureAlgebra, s: Subspace) -> Subspace:
    """{x in A : [x, v] = 0 for all v in S}."""
    _require_lie(a)
    # [x, v] = -(ad v) x, so (ad v) x must lie in the zero space
    return Subspace.full(a.dimension).preimage(map(a.ad_rows, s.sparse_vectors()), Subspace(a.dimension, {}))


@memoized
def killing_form(a: StructureAlgebra) -> tuple[list[dict[int, Rational]], bool]:
    """Gram matrix K(e_i, e_j) = trace(ad e_i ad e_j) as sparse rows;
    returns (gram, is_nondegenerate), which in characteristic 0 is also
    whether the algebra is semisimple.  K(e_i, e_j) = sum over k, l of
    c_ik^l c_jl^k, summed over the stored structure constants: each term l
    of a stored key (i, k) meets the stored keys (j, l) with a term k,
    indexed by (l, k), so the work follows the table, not n^2 pairs of ad
    matrices.  Read on ``op.int_tensor`` and divided by the square of its
    ``denominator``."""
    _require_lie(a)
    op = a.binary_op()
    t = op.int_tensor
    # (l, k) -> [(j, c_jl^k)] over the stored keys (j, l) with a term k
    meets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (j, l), vec in t.items():
        for k, y in vec.items():
            meets.setdefault((l, k), []).append((j, y))
    sums: list[dict[int, int]] = [{} for _ in range(a.dimension)]
    for (i, k), vec in t.items():
        row = sums[i]
        for l, x in vec.items():
            for j, y in meets.get((l, k), ()):
                row[j] = row.get(j, 0) + x * y
    return _gram(sums, op.denominator**2)


def _gram(sums: list[dict[int, int]], scale: int) -> tuple[list[dict[int, Rational]], bool]:
    """(gram, is_nondegenerate) of the bilinear form with the integer rows
    ``sums`` divided by ``scale``: sparse rows, sorted, canonical entries."""
    gram = [{j: x if scale == 1 else qdiv(x, scale) for j, x in sorted(row.items()) if x} for row in sums]
    return gram, len(gauss_jordan(gram, len(gram))) == len(gram)


def trace_form(a: StructureAlgebra) -> tuple[list[dict[int, Rational]], bool]:
    """Gram matrix T(e_i, e_j) = trace(L_(e_i e_j)) of an associative algebra
    as sparse rows, L_x the left multiplication by x; returns (gram,
    is_nondegenerate).  T(e_i, e_j) = sum over k of c_ij^k t_k, with
    t_k = trace L_(e_k) = sum over l of c_kl^l, over the stored structure
    constants.  In characteristic 0 the radical of T holds the Jacobson
    radical, a nilpotent ideal (x in it makes L_(xy) nilpotent, so
    traceless): a nondegenerate T makes the algebra semisimple."""
    if "associative" not in a.flags:
        raise ValueError("operation requires the associative flag")
    op = a.binary_op()
    t = op.int_tensor
    traces: dict[int, int] = {}
    for (k, l), vec in t.items():
        if l in vec:
            traces[k] = traces.get(k, 0) + vec[l]
    sums: list[dict[int, int]] = [{} for _ in range(a.dimension)]
    for (i, j), vec in t.items():
        sums[i][j] = sum(c * traces.get(k, 0) for k, c in vec.items())
    return _gram(sums, op.denominator**2)


@memoized
def derivations_are_inner(a: StructureAlgebra) -> bool:
    """A certificate that every derivation of ``a`` is inner, a combination
    of the maps of ``inner_derivations``: ``a`` has them, and either its
    lie flag is verified and its Killing form is nondegenerate (a semisimple
    Lie algebra in characteristic 0: Der L = ad L, Humphreys, Introduction
    to Lie Algebras, 5.3), or its associative flag is and its trace form is
    (a semisimple associative algebra over Q, separable, with only inner
    derivations: Hochschild, Ann. of Math. 46, 1945).  False says nothing:
    the certificate is sufficient, not necessary.  Memoized on the algebra,
    sharing the Killing form's memo with ``lieroot``."""
    if not _has_inner_derivations(a):
        return False
    return (killing_form if "lie" in a.flags else trace_form)(a)[1]


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

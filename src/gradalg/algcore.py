"""Finite-dimensional algebras given by structure tensors.

An algebra is a rational vector space with any number of multilinear
operations, each stored as a sparse structure tensor.  Asserted flags
(lie, associative) are verified exactly at construction time.  On top of
this: derivation algebras (optionally preserving a family of subspaces),
centralizers, the Killing form, and a simplicity test.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import chain, islice, product
from typing import Iterable, Mapping, Sequence

from .errors import FlagViolation, ShapeError, VerificationFailure
from .exactla import (
    RatMatrix,
    column_echelon,
    mat_from_flat,
    nullspace,
    rank,
    subspace_contains,
    subspace_coords,
    subspace_intersection,
    subspace_sum,
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
    op(e_{i_1}, ..., e_{i_k}) = sum_j c_j e_j."""

    __slots__ = ("name", "arity", "tensor")

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

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearOp is immutable")

    def basis_value(self, key: tuple[int, ...], dim: int) -> tuple[Fraction, ...]:
        out = [Q(0)] * dim
        for j, c in self.tensor.get(tuple(key), {}).items():
            out[j] = c
        return tuple(out)

    def apply(self, vectors: Sequence[Sequence[Fraction]], dim: int) -> tuple[Fraction, ...]:
        """Evaluate the operation on coordinate vectors."""
        if len(vectors) != self.arity:
            raise ShapeError("wrong number of arguments")
        out = [Q(0)] * dim
        for key, vec in self.tensor.items():
            coeff = Q(1)
            for t, i in enumerate(key):
                coeff *= vectors[t][i]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            for j, c in vec.items():
                out[j] += coeff * c
        return tuple(out)


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

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return self.binary_op().apply([x, y], self.dimension)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Q(1) if j == i else Q(0) for j in range(self.dimension))

    def ad_matrix(self, x: Sequence[Fraction]) -> RatMatrix:
        """Matrix of y -> bracket(x, y) on the basis."""
        n = self.dimension
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(n)]
        return RatMatrix.from_columns(cols, rows=n)

    # -- flag verification --------------------------------------------------

    def _verify_lie(self):
        op = self.binary_op()
        n = self.dimension
        for i in range(n):
            for j in range(i, n):
                ij = op.basis_value((i, j), n)
                ji = op.basis_value((j, i), n)
                if any(a + b for a, b in zip(ij, ji)):
                    raise FlagViolation(
                        f"bracket is not antisymmetric on basis pair ({i}, {j})",
                        witness=(i, j),
                    )
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                xy = op.basis_value((i, j), n)
                for k in range(j + 1, n):
                    yz = op.basis_value((j, k), n)
                    zx = op.basis_value((k, i), n)
                    total = [
                        a + b + c
                        for a, b, c in zip(
                            op.apply([xy, basis[k]], n),
                            op.apply([yz, basis[i]], n),
                            op.apply([zx, basis[j]], n),
                        )
                    ]
                    if any(total):
                        raise FlagViolation(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})",
                            witness=(i, j, k),
                        )

    def _verify_associative(self):
        op = self.binary_op()
        n = self.dimension
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                ij = op.basis_value((i, j), n)
                for k in range(n):
                    jk = op.basis_value((j, k), n)
                    lhs = op.apply([ij, basis[k]], n)
                    rhs = op.apply([basis[i], jk], n)
                    if lhs != rhs:
                        raise FlagViolation(
                            f"associativity fails on basis triple ({i}, {j}, {k})",
                            witness=(i, j, k),
                        )


class Subspace:
    """Subspace of an algebra's underlying space, canonical column basis."""

    __slots__ = ("dim_ambient", "basis")

    def __init__(self, dim_ambient: int, basis: RatMatrix):
        if basis.rows != dim_ambient:
            raise ShapeError("basis rows must equal the ambient dimension")
        basis = column_echelon(basis) if basis.cols else RatMatrix.zeros(dim_ambient, 0)
        object.__setattr__(self, "dim_ambient", dim_ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, dim_ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        if not vectors:
            return cls(dim_ambient, RatMatrix.zeros(dim_ambient, 0))
        return cls(dim_ambient, RatMatrix.from_columns(list(vectors), rows=dim_ambient))

    @classmethod
    def full(cls, dim_ambient: int) -> "Subspace":
        return cls(dim_ambient, RatMatrix.identity(dim_ambient))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return self.basis.columns()

    def contains(self, vec: Sequence) -> bool:
        return subspace_contains(self.basis, vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.vectors())

    def coords(self, vec: Sequence) -> tuple[Fraction, ...] | None:
        return subspace_coords(self.basis, vec)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim_ambient != other.dim_ambient:
            raise ShapeError("ambient mismatch")
        return Subspace(self.dim_ambient, subspace_intersection(self.basis, other.basis))

    def add(self, other: "Subspace") -> "Subspace":
        if self.dim_ambient != other.dim_ambient:
            raise ShapeError("ambient mismatch")
        return Subspace(self.dim_ambient, subspace_sum(self.basis, other.basis))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.dim_ambient == other.dim_ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.dim_ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.dim_ambient}, dim={self.dim})"


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
    Flags given as a mapping of flag name to boolean.  Dimension, arity and
    indices must be integers, structure constants integers or "p/q"
    strings (ValueError otherwise).  Asserted lie / associative flags are
    verified (FlagViolation on failure)."""
    name = spec.get("name", "algebra")
    dimension = int_field(spec["dimension"], "dimension")
    flags = [k for k, v in dict(spec.get("flags", {})).items() if v]
    ops = []
    for opspec in spec.get("operations", []):
        arity = int_field(opspec["arity"], "arity")
        tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for entry in opspec["entries"]:
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
    return StructureAlgebra(name, dimension, ops, flags)


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
    matrices: Sequence[RatMatrix],
    kind: str = "lie",
    extra_flags: Iterable[str] = (),
) -> StructureAlgebra:
    """Abstract algebra from a faithful matrix realization: structure
    constants of the commutator (kind="lie") or matrix product
    (kind="associative") expressed in the span of ``matrices``
    (VerificationFailure when the span is not closed)."""
    n = len(matrices)
    flat = RatMatrix([m.flatten() for m in matrices]).transpose()
    if rank(flat) != n:
        raise ValueError("matrices are linearly dependent")
    tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(n):
            if kind == "lie":
                prod_m = matrices[i] * matrices[j] - matrices[j] * matrices[i]
            else:
                prod_m = matrices[i] * matrices[j]
            coords = subspace_coords(flat, prod_m.flatten())
            if coords is None:
                raise VerificationFailure(
                    f"span is not closed under the {kind} product on ({i}, {j})", witness=(i, j)
                )
            vec = {t: c for t, c in enumerate(coords) if c}
            if vec:
                tensor[(i, j)] = vec
    flags = [kind] + list(extra_flags)
    return StructureAlgebra(name, n, [MultilinearOp("bracket" if kind == "lie" else "product", 2, tensor)], flags)


def subalgebra_structure(
    a: StructureAlgebra, s: Subspace, name: str | None = None, flags: Iterable[str] | None = None
) -> tuple[StructureAlgebra, RatMatrix]:
    """Induced algebra on a subspace closed under all operations.

    Returns the abstract algebra on the subspace basis together with the
    inclusion matrix (columns = subspace basis in ambient coordinates).
    """
    basis = s.basis
    m = basis.cols
    ops = []
    for op in a.operations:
        tensor: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for key in product(range(m), repeat=op.arity):
            val = op.apply([basis.column(i) for i in key], a.dimension)
            if not any(val):
                continue
            coords = s.coords(val)
            if coords is None:
                raise ValueError("subspace is not closed under an operation")
            vec = {t: c for t, c in enumerate(coords) if c}
            if vec:
                tensor[key] = vec
        ops.append(MultilinearOp(op.name, op.arity, tensor))
    use_flags = a.flags if flags is None else frozenset(flags)
    return StructureAlgebra(name or f"{a.name}-sub", m, ops, use_flags), basis


# ---------------------------------------------------------------------------
# Kernel machinery: intersect a large homogeneous system incrementally
# ---------------------------------------------------------------------------


#: equation rows per block of an incremental kernel computation
_ROWS_PER_BLOCK = 48


def _combine_rows(
    coeffs: Mapping[int, Fraction], rows: Sequence[Mapping[int, Fraction]]
) -> dict[int, Fraction]:
    """The sparse row sum over k of coeffs[k] * rows[k]."""
    out: dict[int, Fraction] = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _incremental_kernel(nunknowns: int, rows: Iterable[Mapping[int, Fraction]]) -> RatMatrix:
    """Kernel of a tall system given by sparse rows ``{unknown index:
    coefficient}``, one block of rows at a time.

    Maintains a basis N of the running solution space (at first the whole
    space; kept as sparse rows) and replaces each block E of rows by the
    small system E*N, so the cost tracks the row sparsity and the
    shrinking solution dimension instead of the full unknown count.  The
    result is in canonical column echelon form.
    """
    n_rows: list[dict[int, Fraction]] = [{k: Q(1)} for k in range(nunknowns)]
    width = nunknowns
    rows = iter(rows)
    while width:
        block = list(islice(rows, _ROWS_PER_BLOCK))
        if not block:
            break
        small = [_combine_rows(row, n_rows) for row in block]
        if not any(small):
            continue
        ker = nullspace(RatMatrix([[line.get(j, Q(0)) for j in range(width)] for line in small]))
        ker_rows = [{j: x for j, x in enumerate(line) if x} for line in ker.data]
        n_rows = [_combine_rows(line, ker_rows) for line in n_rows]
        width = ker.cols
    if not width:
        return RatMatrix.zeros(nunknowns, 0)
    return column_echelon(RatMatrix([[line.get(j, Q(0)) for j in range(width)] for line in n_rows]))


def _leibniz_rows(a: StructureAlgebra):
    """Nonzero sparse equation rows ``{r*n + c: coefficient}`` in the n^2
    unknowns D[r, c] forcing D to satisfy the Leibniz rule for every
    operation: one row per basis key (i_1, ..., i_k) and output index j,

        sum_a D[j, a] op(key)_a - sum_t sum_b D[b, i_t] op(key, e_b in slot t)_j = 0.
    """
    n = a.dimension
    for op in a.operations:
        # slot t, the key without slot t -> [(b, op(key with e_b in slot t))]
        by_slot: list[dict[tuple[int, ...], list[tuple[int, Mapping[int, Fraction]]]]] = [
            {} for _ in range(op.arity)
        ]
        for key2, vec in op.tensor.items():
            for t in range(op.arity):
                by_slot[t].setdefault(key2[:t] + key2[t + 1 :], []).append((key2[t], vec))
        for key in product(range(n), repeat=op.arity):
            val = op.tensor.get(key, {})
            rhs_terms = [
                (b * n + it, vec)
                for t, it in enumerate(key)
                for b, vec in by_slot[t].get(key[:t] + key[t + 1 :], ())
            ]
            if not val and not rhs_terms:
                continue
            for j in range(n):
                row: dict[int, Fraction] = {j * n + aidx: c for aidx, c in val.items()}
                for idx, vec in rhs_terms:
                    if j in vec:
                        row[idx] = row.get(idx, 0) - vec[j]
                row = {k: c for k, c in row.items() if c}
                if row:
                    yield row


def _stabilizer_rows(n: int, constraints: Sequence[Subspace]):
    """Nonzero sparse rows forcing D to preserve each constraint subspace."""
    for w in constraints:
        if w.dim == 0 or w.dim == n:
            continue
        # rows of ann annihilate the subspace: ann * basis = 0
        ann = nullspace(w.basis.transpose())  # columns q with basis^T q = 0
        for qj in range(ann.cols):
            qvec = ann.column(qj)
            for cj in range(w.basis.cols):
                wvec = w.basis.column(cj)
                row = {
                    r * n + c: qvec[r] * wvec[c]
                    for r in range(n)
                    if qvec[r]
                    for c in range(n)
                    if wvec[c]
                }
                if row:
                    yield row


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


def derivation_space(a: StructureAlgebra, constraints: Sequence[Subspace] = ()) -> Subspace:
    """All derivations of ``a`` (maps satisfying the k-ary Leibniz rule for
    every operation) that preserve each constraint subspace, as a subspace
    of End(A) in n^2 coordinates (row-major)."""
    n = a.dimension
    rows = chain(_leibniz_rows(a), _stabilizer_rows(n, constraints))
    return Subspace(n * n, _incremental_kernel(n * n, rows))


def derivation_algebra(
    a: StructureAlgebra, constraints: Sequence[Subspace] | None = None
) -> DerivationAlgebra:
    """The derivation space of ``a`` (see ``derivation_space``) with its Lie
    structure under the commutator."""
    n = a.dimension
    space = derivation_space(a, constraints or ())
    mats = [mat_from_flat(list(v), n, n) for v in space.vectors()]
    return DerivationAlgebra(space, algebra_from_matrices(f"Der({a.name})", mats))


# ---------------------------------------------------------------------------
# Centralizer, Killing form, simplicity
# ---------------------------------------------------------------------------


def _require_lie(a: StructureAlgebra):
    if "lie" not in a.flags:
        raise ValueError("operation requires the lie flag")


def centralizer(a: StructureAlgebra, s: Subspace) -> Subspace:
    """{x in A : [x, v] = 0 for all v in S}."""
    _require_lie(a)
    n = a.dimension
    rows = []
    for v in s.vectors():
        adv = a.ad_matrix(v)
        # [x, v] = -adv x = 0
        rows.extend(adv.data)
    if not rows:
        return Subspace.full(n)
    return Subspace(n, nullspace(RatMatrix(rows)))


@memoized
def killing_form(a: StructureAlgebra) -> tuple[RatMatrix, bool]:
    """Gram matrix K(e_i, e_j) = trace(ad e_i ad e_j); returns
    (gram, is_nondegenerate), which in characteristic 0 is also whether
    the algebra is semisimple."""
    _require_lie(a)
    n = a.dimension
    ads = [a.ad_matrix(a.basis_vector(i)) for i in range(n)]
    gram = RatMatrix([[(ads[i] * ads[j]).trace() for j in range(n)] for i in range(n)])
    return gram, rank(gram) == n


def _ideal_closure(a: StructureAlgebra, seed: Sequence[Fraction]) -> Subspace:
    """Smallest ideal containing the seed vector."""
    n = a.dimension
    span = Subspace.from_vectors(n, [list(seed)])
    frontier = [tuple(seed)]
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                w = a.bracket(a.basis_vector(i), v)
                if any(w) and not span.contains(w):
                    span = Subspace(n, span.basis.hstack(RatMatrix.column_vector(list(w))))
                    new_frontier.append(w)
        frontier = new_frontier
    return span


def centroid_dimension(a: StructureAlgebra) -> int:
    """Dimension of {C in End(A) : C[x, y] = [x, Cy] for all x, y}."""
    _require_lie(a)
    n = a.dimension

    def rows():
        for i in range(n):
            adi = a.ad_matrix(a.basis_vector(i))
            # C * adi - adi * C = 0, row (j, c): sum over a of
            # C[j,a] adi[a,c] - adi[j,a] C[a,c] = 0
            for j in range(n):
                for c in range(n):
                    row: dict[int, Fraction] = {}
                    for t in range(n):
                        if adi[t, c]:
                            row[j * n + t] = row.get(j * n + t, 0) + adi[t, c]
                        if adi[j, t]:
                            row[t * n + c] = row.get(t * n + c, 0) - adi[j, t]
                    row = {k: v for k, v in row.items() if v}
                    if row:
                        yield row

    return _incremental_kernel(n * n, rows()).cols


def is_simple(a: StructureAlgebra) -> bool:
    """Simplicity of a Lie algebra with nondegenerate Killing form.

    Fast negative path: if a basis vector generates a proper ideal the
    algebra is not simple.  Otherwise the centroid decides: a semisimple
    split algebra is simple iff its centroid is one-dimensional.
    """
    _require_lie(a)
    _, nondeg = killing_form(a)
    if not nondeg:
        raise ValueError("simplicity test requires a nondegenerate Killing form")
    n = a.dimension
    for i in range(n):
        if _ideal_closure(a, a.basis_vector(i)).dim < n:
            return False
    return centroid_dimension(a) == 1

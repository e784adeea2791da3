"""Arbitrary-precision integer matrix arithmetic for unitriangular representations.

Dense, immutable matrices over Python ints (so entries never overflow or
round).  Only what the word-evaluation homomorphisms need: elementary
matrices, products, inverses of unitriangular matrices, and evaluation of
free-group words under a generator -> matrix assignment.

A unitriangular matrix also has a sparse form: the dict ``{(i, j): c}`` of
its nonzero entries above the diagonal (1-based, ``i < j``), so the identity
is ``{}`` and ``e(a; i, j)`` is ``{(i, j): a}``.  :func:`sparse_mul`,
:func:`sparse_inverse` and :func:`sparse_commutator` compute on that form in
time proportional to the entries they touch, whatever the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .words import Word, support


class DimensionMismatchError(ValueError):
    """Operands have different dimensions."""


@dataclass(frozen=True)
class IntMatrix:
    dim: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if len(self.rows) != self.dim or any(len(r) != self.dim for r in self.rows):
            raise ValueError(f"rows do not form a {self.dim}x{self.dim} matrix")

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return matmul(self, other)

    def __pow__(self, k: int) -> "IntMatrix":
        """Power by repeated squaring; a negative ``k`` inverts once."""
        base = self if k >= 0 else unitriangular_inverse(self)
        out = identity(self.dim)
        k = abs(k)
        while k:
            if k & 1:
                out = matmul(out, base)
            k >>= 1
            if k:
                base = matmul(base, base)
        return out

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def is_unitriangular(self) -> bool:
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.dim) for j in range(i + 1))

    def to_json_dict(self) -> dict:
        """JSON form {dim, rows} with decimal-string entries (keeps precision)."""
        return {
            "dim": self.dim,
            "rows": [[str(e) for e in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntMatrix":
        rows = tuple(tuple(int(e) for e in row) for row in data["rows"])
        return cls(int(data["dim"]), rows)


def identity(dim: int) -> IntMatrix:
    return IntMatrix(
        dim, tuple(tuple(1 if i == j else 0 for j in range(dim))
                   for i in range(dim)))


def elementary(a: int, i: int, j: int, dim: int) -> IntMatrix:
    """The matrix with 1s on the diagonal and ``a`` in slot (i, j), 1-based."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise IndexError(f"indices ({i},{j}) outside dimension {dim}")
    if i == j:
        raise IndexError("off-diagonal slot required (i != j)")
    rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    rows[i - 1][j - 1] = a
    return IntMatrix(dim, tuple(tuple(r) for r in rows))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"cannot multiply {a.dim}x{a.dim} by {b.dim}x{b.dim}")
    n = a.dim
    bt = tuple(zip(*b.rows))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a.rows)
    return IntMatrix(n, rows)


def unitriangular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of an upper unitriangular matrix by back-substitution."""
    if not a.is_unitriangular():
        raise ValueError("matrix is not upper unitriangular")
    n = a.dim
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # Solve a * inv = I column by column, bottom row upward.
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = sum(a.rows[i][k] * inv[k][col] for k in range(i + 1, n))
            inv[i][col] = (1 if i == col else 0) - s
    return IntMatrix(n, tuple(tuple(r) for r in inv))


Sparse = dict[tuple[int, int], int]


def from_entries(dim: int,
                 entries: Iterable[tuple[tuple[int, int], int]]) -> IntMatrix:
    """The dense unitriangular matrix with the given ``((i, j), c)`` entries
    above the diagonal, e.g. ``from_entries(dim, sparse.items())``."""
    rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    for (i, j), c in entries:
        if not 1 <= i < j <= dim:
            raise IndexError(
                f"slot ({i},{j}) is not above the diagonal of dimension {dim}")
        rows[i - 1][j - 1] = c
    return IntMatrix(dim, tuple(tuple(r) for r in rows))


def _nil_mul(x: Sparse, y: Sparse) -> Sparse:
    """The product XY of two strictly upper triangular sparse matrices;
    entries that sum to zero are kept."""
    y_rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), c in y.items():
        y_rows.setdefault(k, []).append((j, c))
    out: Sparse = {}
    for (i, k), c in x.items():
        for j, d in y_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + c * d
    return out


def _add(x: Sparse, y: Sparse, sign: int = 1) -> Sparse:
    """X + sign * Y without zero entries."""
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def sparse_mul(a: Sparse, b: Sparse) -> Sparse:
    """Product of two sparse unitriangular matrices:
    ``(I + A)(I + B) = I + A + B + AB``."""
    return _add(a, _add(b, _nil_mul(a, b)))


def sparse_inverse(a: Sparse) -> Sparse:
    """Inverse of a sparse unitriangular matrix ``I + N``.

    The inverse ``I + M`` satisfies ``M = -N - N M``, so row i of M is
    ``-N[i] - sum_k N[i][k] M[k]`` over k > i: rows are solved bottom up.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), c in a.items():
        rows.setdefault(i, {})[j] = c
    inv: dict[int, dict[int, int]] = {}
    for i in sorted(rows, reverse=True):
        row = {j: -c for j, c in rows[i].items()}
        for k, c in rows[i].items():
            for j, d in inv.get(k, {}).items():
                row[j] = row.get(j, 0) - c * d
        inv[i] = {j: c for j, c in row.items() if c}
    return {(i, j): c for i, row in inv.items() for j, c in row.items()}


def sparse_commutator(a: Sparse, b: Sparse) -> Sparse:
    """``[a, b] = a^-1 b^-1 a b = (ba)^-1 (ab) = I + (ba)^-1 (ab - ba)``.

    For ``a = I + A`` and ``b = I + B``, ``ab - ba = AB - BA =: D``, so
    commuting matrices cost two products of their off-diagonal parts.
    Otherwise, with ``(ba)^-1 = I + M``, the bracket is ``I + D + M D``.
    """
    d = _add(_nil_mul(a, b), _nil_mul(b, a), -1)
    if not d:
        return d
    return _add(d, _nil_mul(sparse_inverse(sparse_mul(b, a)), d))


def as_elementary(m: IntMatrix) -> Optional[tuple[int, int, int]]:
    """Recognize ``m`` as elementary(a, i, j); returns (a, i, j) or None.

    The identity matrix is reported as (0, 1, 2) when dim >= 2.
    """
    n = m.dim
    hit = None
    for i in range(n):
        for j in range(n):
            expected = 1 if i == j else 0
            if m.rows[i][j] != expected:
                if hit is not None or i == j:
                    return None
                hit = (m.rows[i][j], i + 1, j + 1)
    if hit is None:
        return (0, 1, 2) if n >= 2 else None
    return hit


def evaluate_word(assignment: Mapping[int, IntMatrix], w: Word) -> IntMatrix:
    """Evaluate a word under a generator -> matrix assignment.

    The assigned matrices must share one dimension and be unitriangular.
    Such an ``m`` is the product of the column operations
    ``col_j += m[i][j] * col_i`` taken with j descending (each reads only
    columns not yet changed), so every letter is applied to the running
    product as those operations; an inverse letter applies them in reverse
    order with negated coefficients.  An elementary image is one operation.
    """
    ops: dict[int, tuple[tuple[int, int, int], ...]] = {}
    dim = None
    for gen in sorted(support(w)):
        if gen not in assignment:
            raise ValueError(f"generator {gen} has no assigned matrix")
        m = assignment[gen]
        if dim is None:
            dim = m.dim
        elif m.dim != dim:
            raise DimensionMismatchError(
                f"assigned matrices mix dimensions {dim} and {m.dim}")
        if not m.is_unitriangular():
            raise ValueError(f"matrix for generator {gen} is not unitriangular")
        ops[gen] = tuple((i, j, m.rows[i][j]) for j in range(dim - 1, 0, -1)
                         for i in range(j) if m.rows[i][j])
        ops[-gen] = tuple((i, j, -c) for i, j, c in reversed(ops[gen]))
    if dim is None:
        dim = next(iter(assignment.values())).dim if assignment else 1
        return identity(dim)

    rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    for let in w.letters:
        for i, j, c in ops[let]:
            for row in rows:
                row[j] += c * row[i]
    return IntMatrix(dim, tuple(tuple(r) for r in rows))

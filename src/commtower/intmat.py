"""Arbitrary-precision integer matrix arithmetic for unitriangular representations.

Dense, immutable matrices over Python ints (so entries never overflow or
round).  Only what the word-evaluation homomorphisms need: elementary
matrices, products, inverses of unitriangular matrices, evaluation of
free-group words under a generator -> matrix assignment, and the bracket of
two elementary matrices in sparse form.
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


# The sparse form of a unitriangular matrix: its nonzero entries above the
# diagonal, 1-based, so the identity is {} and e(a; i, j) is {(i, j): a}
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


def elementary_commutator(a: Sparse, b: Sparse) -> Sparse:
    """The bracket ``[a, b] = a^-1 b^-1 a b`` of two sparse images with at
    most one entry each, by the Steinberg relations (Milnor, *Introduction
    to Algebraic K-Theory*, section 5).

    ``[e(s; i, j), e(t; k, l)]`` is ``e(st; i, l)`` if ``j == k``,
    ``e(-st; k, j)`` if ``l == i``, and the identity otherwise; both cases
    cannot hold at once, since ``i < j = k < l = i`` is impossible.  An
    empty image (the identity) brackets to ``{}``.  So images with at most
    one entry are closed under the bracket, and it costs O(1) whatever the
    dimension.  An image with two or more entries raises ``ValueError``.
    """
    if len(a) > 1 or len(b) > 1:
        raise ValueError(
            "the bracket needs images with at most one entry, got "
            f"{len(a)} and {len(b)}")
    if not a or not b:
        return {}
    (((i, j), s),) = a.items()
    (((k, l), t),) = b.items()
    if j == k:
        return {(i, l): s * t}
    if l == i:
        return {(k, j): -s * t}
    return {}


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

"""The commutator tower and its matrix-representation checks.

Level ``n`` is the free group on ``2^n`` generators.  The doubling map into
level ``n+1`` sends generator ``i`` to the commutator of its two children,
``[x(2i-1), x(2i)]``, so the image of the level-0 generator (the *seed word*)
quadruples in length at every level and abelianizes to zero from level 1 on.

Two families of presentations are built on top of the tower: one that makes
the seed word commute with every generator of its level, and the one-relator
quotient that kills the seed word outright.  The superdiagonal assignment
``x(i) -> elementary(1, i, i+1)`` realizes the former family in the group of
unitriangular integer matrices; :func:`verify_representation` checks all of
its defining relations by exact arithmetic and checks that the seed image is
exactly the elementary matrix ``e(+-1; 1, 2^n+1)``, which has infinite order
by the additive law ``e(a; 1, d) e(b; 1, d) = e(a+b; 1, d)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import freeprod
# matmul stays imported because perfbench/spans.py patches tower.matmul
from .intmat import IntMatrix, elementary, evaluate_word, identity, matmul
from .words import (
    RankMismatchError,
    Word,
    commutator,
    exponent_sum,
    generator,
    shift_index,
    word_str,
)


def level_rank(n: int) -> int:
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    return 2 ** n


@functools.lru_cache(maxsize=None)
def _blocks(i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = 2 * i - 1, 2 * i
    pos = (-a, -b, a, b)          # [x(2i-1), x(2i)]
    neg = (-b, -a, b, a)          # its inverse
    return pos, neg


def doubling_map(n: int, w: Word) -> Word:
    """Apply the level-n structure map letter by letter.

    No free cancellation can occur between adjacent blocks (the block of a
    letter ends in an even/odd index its successor cannot undo), so the image
    of a reduced word has exactly four times its length.
    """
    if w.rank != level_rank(n):
        raise RankMismatchError(
            f"expected a word of rank {level_rank(n)} at level {n}, got rank {w.rank}")
    letters: list[int] = []
    for let in w.letters:
        pos, neg = _blocks(abs(let))
        letters.extend(pos if let > 0 else neg)
    return Word(level_rank(n + 1), tuple(letters))


@functools.lru_cache(maxsize=None)
def seed_word(n: int) -> Word:
    """The image of the level-0 generator at level n; length exactly 4^n."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if n == 0:
        return generator(1, 1)
    return doubling_map(n - 1, seed_word(n - 1))


@dataclass(frozen=True)
class TowerLevel:
    n: int
    rank: int
    seed: Word

    @classmethod
    def build(cls, n: int) -> "TowerLevel":
        return cls(n=n, rank=level_rank(n), seed=seed_word(n))


@dataclass(frozen=True)
class Presentation:
    rank: int
    relators: tuple[Word, ...]

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "relators": [word_str(r) for r in self.relators],
        }


def central_presentation(n: int) -> Presentation:
    """Level-n presentation whose relators make the seed word central."""
    rank = level_rank(n)
    seed = seed_word(n)
    relators = tuple(
        commutator(seed, generator(rank, i)) for i in range(1, rank + 1))
    return Presentation(rank=rank, relators=relators)


def one_relator_presentation(n: int) -> Presentation:
    """Level-n quotient killing the seed word; a single-relator presentation."""
    if n < 1:
        raise ValueError("level 0 collapses to the trivial group; need n >= 1")
    return Presentation(rank=level_rank(n), relators=(seed_word(n),))


def superdiagonal_assignment(n: int) -> dict[int, IntMatrix]:
    """Generator i -> elementary(1, i, i+1) in dimension 2^n + 1 (n >= 1)."""
    if n < 1:
        raise ValueError("the superdiagonal assignment is defined for n >= 1")
    dim = level_rank(n) + 1
    return {i: elementary(1, i, i + 1, dim) for i in range(1, dim)}


@dataclass(frozen=True)
class RepresentationReport:
    n: int
    rank: int
    x01_length: int
    relations_ok: bool
    seed_image: IntMatrix
    sign: int | None
    order_witness_ok: bool
    order_checked_to: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.relations_ok and self.sign is not None and self.order_witness_ok

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "x01_length": self.x01_length,
            "relations_ok": self.relations_ok,
            "sign": self.sign,
            "order_checked_to": self.order_checked_to,
        }


def verify_representation(n: int, order_powers: int = 100) -> RepresentationReport:
    """Check the superdiagonal assignment against the level-n relations.

    Verifies that (a) every relator ``[seed, x(i)]`` of
    :func:`central_presentation` maps to the identity matrix, checked through
    the homomorphism: evaluation is a homomorphism from the free group, so a
    relator's image is the commutator of the seed image with the image of
    ``x(i)``, and the literal ``2*4^n + 2``-letter relators are never built;
    (b) the seed word maps to elementary(+-1, 1, 2^n+1) with the sign
    recorded; and (c) that image has infinite order.  (c) follows from (b):
    ``E_(1,d)^2 = 0``, so the k-th power of ``e(s; 1, d)`` is ``e(sk; 1, d)``,
    which differs from the identity for every k != 0.  ``order_checked_to``
    echoes ``order_powers`` once (b) holds, and is 0 otherwise.
    """
    if n < 1:
        raise ValueError("representation checks need n >= 1")
    if order_powers < 0:
        raise ValueError(f"order_powers must be nonnegative, got {order_powers}")
    rank = level_rank(n)
    dim = rank + 1
    assignment = superdiagonal_assignment(n)
    failures: list[str] = []

    ident = identity(dim)
    seed = seed_word(n)
    image = evaluate_word(assignment, seed)
    bracket = commutator(generator(2, 1), generator(2, 2))
    for i in range(1, rank + 1):
        if evaluate_word({1: image, 2: assignment[i]}, bracket) != ident:
            failures.append(f"relator {i} does not map to the identity")
    relations_ok = not failures

    sign: int | None = None
    for s in (1, -1):
        if image == elementary(s, 1, dim, dim):
            sign = s
    if sign is None:
        failures.append("seed image is not an elementary matrix at (1, dim)")

    return RepresentationReport(
        n=n,
        rank=rank,
        x01_length=len(seed),
        relations_ok=relations_ok,
        seed_image=image,
        sign=sign,
        order_witness_ok=sign is not None,
        order_checked_to=order_powers if sign is not None else 0,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class PerfectnessReport:
    n: int
    ok: bool
    nonzero_generators: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "nonzero_generators": list(self.nonzero_generators),
        }


def perfectness_witness(n: int) -> PerfectnessReport:
    """Every level-n generator becomes a commutator one level up: its image
    under the doubling map abelianizes to the zero vector."""
    rank = level_rank(n)
    bad = tuple(
        i for i in range(1, rank + 1)
        if any(exponent_sum(doubling_map(n, generator(rank, i)))))
    return PerfectnessReport(n=n, ok=not bad, nonzero_generators=bad)


def heisenberg_nf(w: Word) -> tuple[int, int, int]:
    """Normal form (i, j, k) of a rank-2 word in the free class-2 nilpotent
    group: w = x1^i x2^j c^k with c = [x1, x2] central.

    Collected letter by letter; moving x1^s past x2^j costs c^(-j*s).
    Two rank-2 words are equal in that group iff their triples agree.
    """
    if w.rank != 2:
        raise RankMismatchError(f"normal form needs a rank-2 word, got rank {w.rank}")
    i = j = k = 0
    for let in w.letters:
        s = 1 if let > 0 else -1
        if abs(let) == 1:
            k -= j * s
            i += s
        else:
            j += s
    return (i, j, k)


class SplitError(ValueError):
    """The level relator does not split as expected."""


def split_context(n: int) -> freeprod.GContext:
    """Split the level-n one-relator quotient over two free factors (n >= 2).

    The first half of the generators spans factor one, the second half factor
    two; both halves carry a copy of the level-(n-1) seed word, and the level-n
    seed word is exactly the commutator of the two copies.  Primitivity of the
    halves is enforced by the context constructor.
    """
    if n < 2:
        raise ValueError("splitting needs n >= 2")
    half = level_rank(n - 1)
    u = seed_word(n - 1)
    ctx = freeprod.GContext(rank1=half, rank2=half, u1=u, u2=u)

    emb1 = shift_index(u, 0, level_rank(n))
    emb2 = shift_index(u, half, level_rank(n))
    if commutator(emb1, emb2) != seed_word(n):
        raise SplitError(
            f"level-{n} relator is not the commutator of the two half words")
    return ctx

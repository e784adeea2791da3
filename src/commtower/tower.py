"""The commutator tower and its matrix-representation checks.

Level ``n`` is the free group on ``2^n`` generators.  The doubling map into
level ``n+1`` sends generator ``i`` to the commutator of its two children,
``[x(2i-1), x(2i)]``, so the image of the level-0 generator (the *seed word*)
quadruples in length at every level and abelianizes to zero from level 1 on.
The length law ``|seed_word(n)| = 4^n`` is certified by a finite check on
the doubling map's letter blocks (:func:`doubling_is_cancellation_free`), so
:func:`seed_length` never builds the word.

Two families of presentations are built on top of the tower: one that makes
the seed word central, and the one-relator quotient that kills the seed word
outright.  The superdiagonal assignment ``x(i) -> e(1; i, i+1)`` realizes
the former family in the group of unitriangular integer matrices.
:func:`verify_representation` checks it by exact arithmetic on sparse
images, never on the ``4^n``-letter seed word: evaluation is a homomorphism,
so the images of one level pull back to the level below as brackets
(:func:`pull_back`), and the level-0 image is the seed image ``S``.  Every
image is a single-entry elementary matrix, so each bracket is the closed
form of the Steinberg relations.  It checks that ``S`` is exactly
``e(+-1; 1, 2^n+1)``, which has infinite order by the additive law
``e(a; 1, d) e(b; 1, d) = e(a+b; 1, d)``, and that every relator bracket
``[S, x(i)]`` maps to the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from . import freeprod
from .intmat import IntMatrix, Sparse, elementary_commutator, from_entries
# tower.py calls neither, but perfbench/spans.py patches tower.matmul and
# tower.evaluate_word by name
from .intmat import evaluate_word, matmul
from .words import (
    RankMismatchError,
    Word,
    commutator,
    generator,
    shift_index,
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

    No free cancellation can occur between adjacent blocks (distinct
    generators have disjoint children alphabets, and each block starts with
    an inverse letter and ends with a positive one, so it does not cancel
    against itself), so the image of a reduced word has exactly four times
    its length; :func:`doubling_is_cancellation_free` checks this per level.
    """
    if w.rank != level_rank(n):
        raise RankMismatchError(
            f"expected a word of rank {level_rank(n)} at level {n}, got rank {w.rank}")
    letters: list[int] = []
    for let in w.letters:
        pos, neg = _blocks(abs(let))
        letters.extend(pos if let > 0 else neg)
    return Word(level_rank(n + 1), tuple(letters))


def doubling_is_cancellation_free(n: int) -> bool:
    """Certify the no-cancellation lemma of :func:`doubling_map` at level n.

    The image of a word concatenates the blocks of its letters, so it is
    freely reduced with four times the length of every reduced word if each
    generator ``x(i)`` passes on its own: both its blocks are reduced
    4-letter words over ``+-(2i-1), +-2i``, and neither cancels against
    itself at the junction (its last letter is not the inverse of its
    first), which covers ``x(i) x(i)`` and ``x(i)^-1 x(i)^-1``.  The
    children alphabets of distinct generators are disjoint, so no other
    junction can cancel, and ``x(i) x(i)^-1`` never occurs in a reduced
    word: the condition is sufficient.  It is stricter than the lemma
    needs, since it also fixes each block's alphabet.  O(2^n).
    """
    for i in range(1, level_rank(n) + 1):
        alphabet = {2 * i - 1, 1 - 2 * i, 2 * i, -2 * i}
        for block in _blocks(i):
            if len(block) != 4 or not alphabet.issuperset(block) \
                    or block[0] == -block[1] or block[1] == -block[2] \
                    or block[2] == -block[3] or block[3] == -block[0]:
                return False
    return True


def seed_length(n: int) -> int | None:
    """``len(seed_word(n))`` by the length law, without building the word.

    ``seed_word(0) = x1`` has length 1 and each doubling map multiplies the
    length of a reduced word by 4 once it is certified cancellation-free, so
    the length is ``4^n`` when levels ``0..n-1`` pass
    :func:`doubling_is_cancellation_free`; otherwise the law is not
    certified and the result is None.  A letter's block does not depend on
    the level and each level's alphabet contains the one below, so the
    check at level ``n-1`` covers every lower level.
    """
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if n == 0 or doubling_is_cancellation_free(n - 1):
        return 4 ** n
    return None


@functools.lru_cache(maxsize=None)
def seed_word(n: int) -> Word:
    """The image of the level-0 generator at level n; length exactly 4^n."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    if n == 0:
        return generator(1, 1)
    return doubling_map(n - 1, seed_word(n - 1))


@dataclass(frozen=True)
class Presentation:
    rank: int
    relators: tuple[Word, ...]


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


def superdiagonal_images(n: int) -> dict[int, Sparse]:
    """Generator i -> e(1; i, i+1) in sparse form, dimension 2^n + 1 (n >= 1)."""
    if n < 1:
        raise ValueError("the superdiagonal assignment is defined for n >= 1")
    return {i: {(i, i + 1): 1} for i in range(1, level_rank(n) + 1)}


def superdiagonal_assignment(n: int) -> dict[int, IntMatrix]:
    """The dense view of :func:`superdiagonal_images`."""
    images = superdiagonal_images(n)
    dim = len(images) + 1
    return {i: from_entries(dim, m.items()) for i, m in images.items()}


def pull_back(images: Mapping[int, Sparse]) -> dict[int, Sparse]:
    """The generator images of level m from those of level m+1.

    Evaluation is a homomorphism, so evaluating ``doubling_map(m, w)`` under
    an assignment A equals evaluating w under ``A o D_m``, which sends
    ``x(i)`` to the bracket of the images of ``x(2i-1)`` and ``x(2i)``.  The
    images have at most one entry each, so every bracket is the closed form
    :func:`~commtower.intmat.elementary_commutator`, in O(1); an image with
    more entries raises ``ValueError``.
    """
    return {i: elementary_commutator(images[2 * i - 1], images[2 * i])
            for i in range(1, len(images) // 2 + 1)}


@dataclass(frozen=True)
class RepresentationReport:
    n: int
    rank: int
    x01_length: int | None
    relations_ok: bool
    seed_entries: tuple[tuple[tuple[int, int], int], ...]
    sign: int | None
    order_checked_to: int
    failures: tuple[str, ...] = ()

    @property
    def order_witness_ok(self) -> bool:
        """S is ``e(+-1; 1, 2^n+1)``, whose k-th power is ``e(+-k; 1, 2^n+1)``."""
        return self.sign is not None

    @property
    def ok(self) -> bool:
        return self.relations_ok and self.order_witness_ok

    @property
    def seed_image(self) -> IntMatrix:
        """The dense seed image (side 2^n + 1), built from its sparse entries."""
        return from_entries(self.rank + 1, self.seed_entries)

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

    The seed image S is found without the ``4^n``-letter seed word:
    :func:`pull_back` applied n times to :func:`superdiagonal_images` gives
    the image of the level-0 generator, since the seed word is that
    generator pushed up through the doubling maps.  Verifies that (a) every
    relator ``[seed, x(i)]`` of :func:`central_presentation` maps to the
    identity, i.e. the Steinberg bracket
    :func:`~commtower.intmat.elementary_commutator` of S with the image of
    ``x(i)`` is empty (evaluation is a homomorphism, so the literal
    ``2*4^n + 2``-letter relators are never built); (b) S is exactly
    ``e(+-1; 1, 2^n+1)``, with the sign recorded; and (c) S has infinite
    order.  (c) follows from (b): ``E_(1,d)^2 = 0``, so the k-th power of
    ``e(s; 1, d)`` is ``e(sk; 1, d)``, which differs from the identity for
    every k != 0.  ``order_checked_to``
    echoes ``order_powers`` once (b) holds, and is 0 otherwise.
    ``x01_length`` is :func:`seed_length`.  The cost is O(2^n) brackets of
    single-entry images, O(1) each.
    """
    if n < 1:
        raise ValueError("representation checks need n >= 1")
    if order_powers < 0:
        raise ValueError(f"order_powers must be nonnegative, got {order_powers}")
    rank = level_rank(n)
    dim = rank + 1
    top = superdiagonal_images(n)
    images = top
    for _ in range(n):
        images = pull_back(images)
    seed = images[1]

    failures = [f"relator {i} does not map to the identity"
                for i, image in top.items() if elementary_commutator(seed, image)]
    relations_ok = not failures

    sign: int | None = None
    for s in (1, -1):
        if seed == {(1, dim): s}:
            sign = s
    if sign is None:
        failures.append("seed image is not an elementary matrix at (1, dim)")

    return RepresentationReport(
        n=n,
        rank=rank,
        x01_length=seed_length(n),
        relations_ok=relations_ok,
        seed_entries=tuple(sorted(seed.items())),
        sign=sign,
        order_checked_to=order_powers if sign is not None else 0,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class PerfectnessReport:
    n: int
    ok: bool
    nonzero_generators: tuple[int, ...] = ()

    def at_level(self, m: int) -> "PerfectnessReport":
        """The report of level ``m <= n``, read off this one: a generator's
        block does not depend on the level, so level m keeps the failures
        among its own generators."""
        bad = tuple(i for i in self.nonzero_generators if i <= level_rank(m))
        return PerfectnessReport(n=m, ok=not bad, nonzero_generators=bad)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "nonzero_generators": list(self.nonzero_generators),
        }


def _abelianizes_to_zero(letters: tuple[int, ...]) -> bool:
    sums: dict[int, int] = {}
    for let in letters:
        sums[abs(let)] = sums.get(abs(let), 0) + (1 if let > 0 else -1)
    return not any(sums.values())


def perfectness_witness(n: int) -> PerfectnessReport:
    """Every level-n generator becomes a commutator one level up: its image
    under the doubling map abelianizes to the zero vector.

    That image is the 4-letter block of ``x(i)``, so it is abelianized over
    its own letters, in O(1) per generator.
    """
    rank = level_rank(n)
    bad = tuple(i for i in range(1, rank + 1)
                if not _abelianizes_to_zero(_blocks(i)[0]))
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

"""Exact word calculus in finitely generated free groups.

A letter is a nonzero signed integer: ``+i`` is the i-th generator of the
alphabet, ``-i`` its inverse.  A :class:`Word` is a freely reduced tuple of
letters over a declared alphabet rank.  Words are immutable values and every
operation returns a fresh word, so everything here is safe to share between
threads.

Words are validated at the boundary only: ``Word(...)``, :func:`reduce_word`
and :func:`parse_word` check the alphabet and free reduction, while the
words this module computes from valid words (products, inverses, powers,
cyclic cores, enumerated and sampled words) are built by
:func:`_trusted_word`, which skips the checks.

The commutator convention throughout is ``[a, b] = a^-1 b^-1 a b``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class AlphabetError(ValueError):
    """A letter refers to a generator outside the declared alphabet."""


class RankMismatchError(ValueError):
    """Operands live over free groups of different ranks."""


def _check_rank(rank: int) -> None:
    if rank < 0:
        raise AlphabetError(f"rank must be nonnegative, got {rank}")


_new = object.__new__
_setattr = object.__setattr__


def _trusted_word(rank: int, letters: tuple[int, ...]) -> "Word":
    """A :class:`Word` from letters already freely reduced over the alphabet
    of ``rank``; skips the checks of ``Word.__post_init__``."""
    w = _new(Word)
    _setattr(w, "rank", rank)
    _setattr(w, "letters", letters)
    return w


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of reduced letter tuples: they cancel at the junction."""
    n = len(a)
    i, stop = 0, min(n, len(b))
    while i < stop and a[n - 1 - i] == -b[i]:
        i += 1
    return a[:n - i] + b[i:]


@dataclass(frozen=True)
class Word:
    """A freely reduced word over the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        for let in self.letters:
            if let == 0 or abs(let) > self.rank:
                raise AlphabetError(
                    f"letter {let} outside alphabet of rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"letters {self.letters} are not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise RankMismatchError(
                f"cannot multiply words of rank {self.rank} and {other.rank}")
        return _trusted_word(self.rank, _join(self.letters, other.letters))

    def inverse(self) -> "Word":
        return _trusted_word(
            self.rank, tuple([-let for let in reversed(self.letters)]))

    def __pow__(self, k: int) -> "Word":
        """``self ** k`` built through the cyclic core.

        With ``base = conj^-1 core conj`` (``base`` is ``self`` or its
        inverse, by the sign of k) and the core cyclically reduced,
        ``core^|k|`` is reduced, and so is ``conj^-1 core^|k| conj`` because
        ``base`` is; the power is their concatenation, with no reduction
        pass.
        """
        if k == 0:
            return _trusted_word(self.rank, ())
        base = self if k > 0 else self.inverse()
        core, conj = cyclic_reduce(base)
        letters, i = base.letters, len(conj)
        return _trusted_word(self.rank, letters[:i] + core.letters * abs(k)
                             + letters[len(letters) - i:])

    def __str__(self) -> str:
        return word_str(self)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {word_str(self)!r})"


def generator(rank: int, index: int) -> Word:
    """The one-letter word for generator ``index`` (1-based)."""
    if not 1 <= index <= rank:
        raise AlphabetError(f"generator {index} outside alphabet of rank {rank}")
    return Word(rank, (index,))


def reduce_word(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    out: list[int] = []
    for let in letters:
        if let == 0 or abs(let) > rank:
            raise AlphabetError(f"letter {let} outside alphabet of rank {rank}")
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return Word(rank, tuple(out))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b."""
    if a.rank != b.rank:
        raise RankMismatchError(
            f"cannot form commutator across ranks {a.rank} and {b.rank}")
    return a.inverse() * b.inverse() * a * b


def conjugate(w: Word, g: Word) -> Word:
    """g^-1 w g."""
    return g.inverse() * w * g


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) == 0 or w.letters[0] != -w.letters[-1]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conjugator^-1 * core * conjugator`` with cyclically reduced core.

    The core is empty iff ``w`` is empty (a reduced word can never peel away
    completely).
    """
    letters = w.letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    core = _trusted_word(w.rank, letters[i:j + 1])
    prefix = _trusted_word(w.rank, letters[:i])
    return core, prefix.inverse()


def is_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy in the free group: cyclic reduction + rotation matching."""
    if u.rank != v.rank:
        raise RankMismatchError(
            f"cannot compare words of rank {u.rank} and {v.rank}")
    cu, _ = cyclic_reduce(u)
    cv, _ = cyclic_reduce(v)
    if len(cu) != len(cv):
        return False
    if len(cu) == 0:
        return True
    a, b = cu.letters, cv.letters
    return any(a[i:] + a[:i] == b for i in range(len(a)))


def primitive_root(w: Word) -> tuple[Word, int]:
    """Write ``w = root^exponent`` with the root not a proper power.

    Cyclically reduce, find the shortest period of the core by rotation
    equality over the divisors of its length, then conjugate back.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no primitive root")
    core, conj = cyclic_reduce(w)
    n = len(core)
    for d in range(1, n + 1):
        if n % d:
            continue
        block = core.letters[:d]
        if block * (n // d) == core.letters:
            root_core = Word(w.rank, block)
            root = conj.inverse() * root_core * conj
            return root, n // d
    raise AssertionError("unreachable: every word has period equal to its length")


def support(w: Word) -> frozenset[int]:
    """The set of generator indices occurring in ``w`` (either sign)."""
    return frozenset(abs(let) for let in w.letters)


def exponent_sum(w: Word) -> tuple[int, ...]:
    """Abelianization vector: signed letter count per generator."""
    sums = [0] * w.rank
    for let in w.letters:
        sums[abs(let) - 1] += 1 if let > 0 else -1
    return tuple(sums)


def cyclic_subgroup_exponent(u: Word, v: Word) -> int | None:
    """Return k with ``v = u^k`` if one exists, else None.

    With ``u = conj^-1 core conj`` and the core cyclically reduced, ``core^k``
    is reduced of length |k|*|core|, so ``v = u^k`` iff ``t = conj v conj^-1``
    equals ``core^k``; that pins |k| to |t| / |core| and leaves two signs to
    test.
    """
    if u.rank != v.rank:
        raise RankMismatchError(
            f"cannot compare words of rank {u.rank} and {v.rank}")
    if len(u) == 0:
        raise ValueError("u must be nonempty")
    if len(v) == 0:
        return 0
    core, conj = cyclic_reduce(u)
    t = conj * v * conj.inverse()
    n, rest = divmod(len(t), len(core))
    if rest == 0:
        for k in (n, -n):
            if core ** k == t:
                return k
    return None


def shortlex_key(letters: tuple[int, ...]) -> tuple:
    # length, then by letter: lower generator index, then positive first
    return (len(letters), [(abs(let), let < 0) for let in letters])


def coset_rep(u: Word, w: Word) -> Word:
    """Canonical (shortlex-minimal) representative of the right coset <u>w.

    Write ``u = conj^-1 core conj`` with the core cyclically reduced, so
    ``u^k w = conj^-1 core^k v`` with ``v = conj w``.  Let p be the length
    of the agreement of v with ``(core^-1)^oo`` (sign s = +1) or with
    ``core^oo`` (s = -1); at most one is nonzero, since the core's first
    letter is not the inverse of its last.  With ``t = s p / |core|``,

        |u^k w| = |conj| + |v| - p + |core| |k - t|   for every k != t,

    and at an integer t the word can only be shorter.  Proof sketch:
    ``core^k`` is reduced and cancels against v by exactly
    ``min(p, |k| |core|)`` letters when k has sign s, and not at all
    otherwise.  Unless k = t, what is left of ``core^k v`` is nonempty and
    begins with the first letter of ``core`` or of ``core^-1`` (either what
    remains of ``core^k``, or the next period of v).  Neither cancels
    against the last letter a of ``conj^-1``, because ``conj^-1 core conj``
    is reduced: the core's first letter does not cancel a, and its last
    letter is not a, since ``conj`` starts with ``a^-1``.  So the three
    parts meet without further cancellation.  Only at k = t is ``core^k``
    used up exactly against v, and only there can the rest of v cancel
    against ``conj^-1``.

    The minimum length is therefore at the integer nearest t, or at both
    neighbours when t is a half-integer, and shortlex breaks that tie.  The
    words u^k w are pairwise distinct (free groups are torsion-free), so the
    minimum is unique.  In particular the representative of <u> itself is
    the empty word.  The cost is O(|u| + |w|).

    :func:`_coset_rep` works on letters, from the core, the conjugator and
    their inverses, which this computes per call and GContext once.
    """
    if u.rank != w.rank:
        raise RankMismatchError(
            f"cannot form coset across ranks {u.rank} and {w.rank}")
    if len(u) == 0:
        raise ValueError("u must be nonempty")
    return _trusted_word(w.rank, _coset_rep(_coset_core(u), w.letters))


def _coset_core(u: Word) -> tuple[tuple[int, ...], ...]:
    """The letters of conj, conj^-1, core and core^-1 for nonempty u."""
    core, conj = cyclic_reduce(u)
    return conj.letters, conj.inverse().letters, core.letters, core.inverse().letters


def _coset_rep(cu: tuple, w: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`coset_rep` on letters, ``cu = _coset_core(u)``, s and p as there.
    With ``p = q |core| + r``, ``power = core^s`` cancels q periods of v in
    ``core^(s q)``, and ``core^(s (q + 1))`` leaves ``power[:|core| - r]``."""
    conj, conj_inv, core, core_inv = cu
    v = _join(conj, w)
    period, power = (core, core_inv) if v[:1] == core[:1] else (core_inv, core)
    # p: whole periods of the matched prefix by slices, then the rest
    m, p = len(period), 0
    while v[p:p + m] == period:
        p += m
    for a, b in zip(v[p:], period):
        if a != b:
            break
        p += 1
    r = p % m
    if 2 * r == m:
        # a tie: both candidates are conj^-1 followed by an uncancelled word
        # of the same length, and those first differ at period[0] against
        # power[0], so shortlex_key's letter order decides
        a, b = period[0], power[0]
        whole_periods = (abs(a), a < 0) < (abs(b), b < 0)
    else:
        whole_periods = 2 * r < m
    # whether core^(s q) is the cancelling power, or core^(s (q + 1))
    if whole_periods:
        return _join(conj_inv, v[p - r:])
    return _join(conj_inv, power[:m - r] + v[p:])


def shift_index(w: Word, offset: int, rank: int) -> Word:
    """Relabel generators i -> i + offset into an alphabet of the given rank."""
    letters = tuple(
        let + offset if let > 0 else let - offset for let in w.letters)
    return Word(rank, letters)


_TOKEN_RE = re.compile(r"^([xX])([0-9]+)$")


def parse_word(text: str, rank: int) -> Word:
    """Parse the word grammar: tokens ``x<i>`` / ``X<i>``, the sole token ``e``
    for the empty word.  Rejects index 0 and indices above the rank."""
    tokens = text.split()
    if tokens == ["e"]:
        return Word(rank)
    letters = []
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        index = int(m.group(2))
        if index == 0 or index > rank:
            raise AlphabetError(
                f"token {tok!r} outside alphabet of rank {rank}")
        letters.append(index if m.group(1) == "x" else -index)
    return reduce_word(letters, rank)


def word_str(w: Word) -> str:
    """Inverse of :func:`parse_word` on reduced words."""
    if not w.letters:
        return "e"
    return " ".join(
        f"x{let}" if let > 0 else f"X{-let}" for let in w.letters)


def reduced_words(rank: int, max_len: int) -> Iterator[Word]:
    """All freely reduced words of length <= max_len, in graded shortlex order."""
    alphabet = [let for i in range(1, rank + 1) for let in (i, -i)]

    def exact(prefix: list[int], remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for let in alphabet:
            if prefix and prefix[-1] == -let:
                continue
            prefix.append(let)
            yield from exact(prefix, remaining - 1)
            prefix.pop()

    _check_rank(rank)
    for length in range(max_len + 1):
        for letters in exact([], length):
            yield _trusted_word(rank, letters)


def random_reduced_word(rng, rank: int, length: int) -> Word:
    """A uniformly chosen freely reduced word of exactly the given length."""
    _check_rank(rank)
    # index a of x1, X1, x2, X2, ... is inverse to a ^ 1; rng.choice draws
    # from a range just as from the list of the allowed letters in order
    n = skip = 2 * rank  # skip: the index of the last letter's inverse
    letters: list[int] = []
    for _ in range(length):
        a = rng.choice(range(n - (skip < n)))
        a += a >= skip
        letters.append(-(a // 2 + 1) if a & 1 else a // 2 + 1)
        skip = a ^ 1
    return _trusted_word(rank, tuple(letters))

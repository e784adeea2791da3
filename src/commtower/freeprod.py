"""Free products of two free groups and the commuting-relator quotient.

``F1 * F2`` is free on the disjoint union of the two bases, so its syllable
normal forms are exactly its reduced words over those rank1 + rank2 letters
(Lyndon–Schupp IV.1): an element is one freely reduced letter tuple, and its
syllables are the runs of one factor's letters.  Quotienting by the normal
closure of ``[u1, u2]`` (one designated word per factor, neither a proper
power) gives the group G studied here.

Equality in G is decided through the kernel K of the projection
``G -> F1 (+) F2``:

* a syllable word with trivial projection is collected, in one
  left-to-right pass over its letters, into a product of honest
  commutators ``[v1, v2]`` (the free basis of the kernel before the relator
  is imposed);
* each such commutator is rewritten into the surviving free basis of K via
  ``[w1, w2] = [w1, s2][s2, s1][s1, w2]``, ``s_i`` the representative of
  the coset ``<u_i> w_i``, in one pass over letter tuples that reduces the
  symbol keys on one stack (free reduction is confluent); only survivors
  become symbols, and none survive iff the element is trivial in G.

Soundness of the decision needs nothing beyond the rewriting identities,
which hold in G outright; completeness rests on K being free on the stated
symbols.  A seeded homomorphism onto a symmetric group is kept alongside as
an independent refutation oracle, and :func:`commutation_scan` uses the
whole apparatus to hunt for pairs that commute with their commutator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .words import (
    RankMismatchError,
    Word,
    _coset_core,
    _coset_rep,
    _join,
    _trusted_word,
    coset_rep,
    is_cyclically_reduced,
    primitive_root,
    random_reduced_word,
    reduced_words,
    shortlex_key,
    support,
    word_str,
)


class VerificationError(AssertionError):
    """A computation that should certify an identity failed to do so."""


# ---------------------------------------------------------------------------
# syllable words


class SyllableWord:
    """An element of F1 * F2 as one freely reduced letter tuple.

    Factor-one generator j is the letter j, factor-two generator j the letter
    ``j + rank1``, and ``syllables`` reads the runs of one factor's letters
    back as ``(factor, Word)`` pairs.  The constructor takes syllables and
    checks that they are tagged, ranked, nonempty and alternating.
    """

    __slots__ = ("rank1", "rank2", "letters")

    def __init__(self, rank1: int, rank2: int,
                 syllables: Iterable[tuple[int, Word]] = ()) -> None:
        syllables = tuple(syllables)
        if any(w.is_identity for _, w in syllables) or any(
                f == g for (f, _), (g, _) in zip(syllables, syllables[1:])):
            raise ValueError("syllables must be nonempty and alternate")
        # so sp_reduce only checks their tags and ranks, and cancels nothing
        object.__setattr__(self, "rank1", rank1)
        object.__setattr__(self, "rank2", rank2)
        object.__setattr__(
            self, "letters", sp_reduce(rank1, rank2, syllables).letters)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SyllableWord is immutable: {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _sp, (self.rank1, self.rank2, self.letters)

    def __eq__(self, other):
        if other.__class__ is not SyllableWord:
            return NotImplemented
        return (self.letters == other.letters and self.rank1 == other.rank1
                and self.rank2 == other.rank2)

    def __hash__(self) -> int:
        return hash((self.rank1, self.rank2, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @property
    def syllables(self) -> tuple[tuple[int, Word], ...]:
        ranks = (None, self.rank1, self.rank2)
        return tuple([(factor, _trusted_word(ranks[factor], run))
                      for factor, run in _runs(self)])

    def __mul__(self, other: "SyllableWord") -> "SyllableWord":
        return sp_multiply(self, other)

    def inverse(self) -> "SyllableWord":
        return sp_invert(self)

    def __str__(self) -> str:
        return syllable_str(self)

    def __repr__(self) -> str:
        return f"SyllableWord({self.rank1}, {self.rank2}, {syllable_str(self)!r})"


def _sp(rank1: int, rank2: int, letters: tuple[int, ...],
        _new=object.__new__, _setattr=object.__setattr__) -> SyllableWord:
    """A :class:`SyllableWord` from freely reduced letters, unchecked."""
    w = _new(SyllableWord)
    _setattr(w, "rank1", rank1)
    _setattr(w, "rank2", rank2)
    _setattr(w, "letters", letters)
    return w


def _runs(w: SyllableWord) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(factor, letters within that factor)`` for each syllable of ``w``."""
    rank1 = w.rank1
    for one, run in itertools.groupby(w.letters, lambda let: -rank1 <= let <= rank1):
        yield (1, tuple(run)) if one else (2, tuple(
            [let - rank1 if let > 0 else let + rank1 for let in run]))


def _push(stack: list[int], letters: Sequence[int]) -> None:
    """Multiply the reduced ``stack`` by the reduced ``letters`` in place."""
    i, n = 0, len(letters)
    while i < n and stack and stack[-1] == -letters[i]:
        stack.pop()
        i += 1
    stack.extend(letters[i:])


def _product(rank1: int, rank2: int,
             parts: Iterable[Sequence[int]]) -> SyllableWord:
    """The product of reduced letter tuples, pushed on one stack."""
    out: list[int] = []
    for part in parts:
        _push(out, part)
    return _sp(rank1, rank2, tuple(out))


def _inv(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple([-let for let in reversed(letters)])


def _comm(x: Sequence[int], y: Sequence[int]) -> list[Sequence[int]]:
    """The parts x^-1, y^-1, x, y of the commutator [x, y]."""
    return [_inv(x), _inv(y), x, y]


def _letters(rank1: int, rank2: int, factor: int, w: Word) -> Sequence[int]:
    """The letters of syllable ``w`` in F1 * F2, its tag and rank checked."""
    if factor != 1 and factor != 2:
        raise ValueError(f"factor tag must be 1 or 2, got {factor}")
    rank = rank1 if factor == 1 else rank2
    if w.rank != rank:
        raise RankMismatchError(
            f"factor-{factor} syllable has rank {w.rank}, expected {rank}")
    return w.letters if factor == 1 else tuple(
        [let + rank1 if let > 0 else let - rank1 for let in w.letters])


def sp_empty(rank1: int, rank2: int) -> SyllableWord:
    return _sp(rank1, rank2, ())


def sp_reduce(rank1: int, rank2: int,
              raw: Iterable[tuple[int, Word]]) -> SyllableWord:
    """Multiply out raw syllables, which may be empty or share a factor with
    their neighbour: one free reduction of their letters, once each raw
    syllable's factor tag and rank are checked."""
    return _product(rank1, rank2, [_letters(rank1, rank2, factor, w)
                                   for factor, w in raw])


def _check_ranks(x: SyllableWord, y: SyllableWord) -> None:
    if x.rank1 != y.rank1 or x.rank2 != y.rank2:
        raise RankMismatchError(
            f"mixed free-product ranks: {(x.rank1, x.rank2)} and "
            f"{(y.rank1, y.rank2)}")


def sp_multiply(*ws: SyllableWord) -> SyllableWord:
    """The product, cancelling at each junction only."""
    first, out = ws[0], ws[0].letters
    for w in ws[1:]:
        _check_ranks(first, w)
        out = _join(out, w.letters)
    return _sp(first.rank1, first.rank2, out)


def sp_invert(w: SyllableWord) -> SyllableWord:
    return _sp(w.rank1, w.rank2, _inv(w.letters))


def sp_commutator(x: SyllableWord, y: SyllableWord) -> SyllableWord:
    """[x, y] = x^-1 y^-1 x y."""
    _check_ranks(x, y)
    return _product(x.rank1, x.rank2, _comm(x.letters, y.letters))


def sp_conjugate(w: SyllableWord, g: SyllableWord) -> SyllableWord:
    """g^-1 w g."""
    _check_ranks(g, w)
    return _product(g.rank1, g.rank2, [_inv(g.letters), w.letters, g.letters])


def _projections(letters: Sequence[int],
                 rank1: int) -> tuple[list[int], list[int]]:
    """Each factor's letters of ``letters`` in order, freely reduced on its
    own stack; factor two's keep their letters in F1 * F2."""
    p1, p2 = [], []
    for let in letters:
        stack = p1 if -rank1 <= let <= rank1 else p2
        if stack and stack[-1] == -let:
            stack.pop()
        else:
            stack.append(let)
    return p1, p2


def h_map(w: SyllableWord) -> tuple[Word, Word]:
    """Project onto F1 (+) F2: each factor's letters in order, freely reduced."""
    rank1 = w.rank1
    p1, p2 = _projections(w.letters, rank1)
    return _trusted_word(rank1, tuple(p1)), _trusted_word(w.rank2, tuple(
        [let - rank1 if let > 0 else let + rank1 for let in p2]))


# ---------------------------------------------------------------------------
# the quotient context


@dataclass(frozen=True)
class GContext:
    """The data defining G: two free factors and the commuting pair u1, u2."""

    rank1: int
    rank2: int
    u1: Word
    u2: Word
    # fresh per instance, so dataclasses.replace never carries the old
    # context's coset representatives over
    _reps1: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _reps2: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _cores: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.u1.rank != self.rank1 or self.u2.rank != self.rank2:
            raise RankMismatchError("u1/u2 ranks disagree with the declared factors")
        for name, u in (("u1", self.u1), ("u2", self.u2)):
            if u.is_identity:
                raise ValueError(f"{name} must be nonempty")
            _, exp = primitive_root(u)
            if exp != 1:
                raise ValueError(f"{name} is a proper power (exponent {exp})")
        object.__setattr__(
            self, "_cores", (_coset_core(self.u1), _coset_core(self.u2)))

    def rep1(self, w: Word) -> Word:
        """Canonical representative of <u1> w, through k_image's cache."""
        if w.letters not in self._reps1 or w.rank != self.rank1:
            self._reps1[w.letters] = coset_rep(self.u1, w).letters
        return _trusted_word(self.rank1, self._reps1[w.letters])

    def rep2(self, w: Word) -> Word:
        if w.letters not in self._reps2 or w.rank != self.rank2:
            self._reps2[w.letters] = coset_rep(self.u2, w).letters
        return _trusted_word(self.rank2, self._reps2[w.letters])

    def empty(self) -> SyllableWord:
        return sp_empty(self.rank1, self.rank2)

    def embed(self, factor: int, w: Word) -> SyllableWord:
        return sp_reduce(self.rank1, self.rank2, [(factor, w)])

    def relator(self) -> SyllableWord:
        return sp_commutator(self.embed(1, self.u1), self.embed(2, self.u2))

    def to_json_dict(self) -> dict:
        return {
            "rank1": self.rank1,
            "rank2": self.rank2,
            "u1": word_str(self.u1),
            "u2": word_str(self.u2),
        }


# ---------------------------------------------------------------------------
# the kernel of h and its commutator bases


def cartesian_basis_express(
        w: SyllableWord) -> tuple[tuple[tuple[Word, Word], int], ...]:
    """Express a kernel element as a product of commutators [v1, v2].

    One left-to-right pass keeps the invariant ``prefix = c · P · Q``: c in K
    is the product of the factors emitted so far, and P in F1, Q in F2 are the
    projections of the prefix read.  A factor-two syllable only extends Q.  A
    factor-one syllable s moves left past a nontrivial Q by

        P Q s = [P^-1, Q^-1] [(Ps)^-1, Q^-1]^-1 · Ps Q,

    emitting each of the two factors whose F1 component is nontrivial, and
    then P becomes Ps.  At the end P and Q are the projections of ``w``, which
    are trivial exactly when ``w`` is in the kernel, and then the returned
    factors multiply out to ``w`` exactly (in F1 * F2).
    """
    return tuple([((_trusted_word(w.rank1, v1), _trusted_word(w.rank2, v2)), s)
                  for (v1, v2), s in _express(w.letters, w.rank1)])


def _express(letters: Sequence[int], rank1: int) -> Iterator[tuple]:
    """The factors of :func:`cartesian_basis_express` as letter tuples, in
    one pass over the letters.  The first letter of a factor-one syllable
    read while Q is nontrivial fixes ``q_inv`` and emits the +1 factor; the
    next factor-two letter emits the -1 factor."""
    neg_p, neg_q = [], []  # P and Q negated: P^-1 is neg_p read backwards
    q_inv = None  # Q^-1 while inside a syllable s that moves past Q
    for let in letters:
        if -rank1 <= let <= rank1:
            if q_inv is None and neg_q:
                q_inv = tuple(neg_q[::-1])
                if neg_p:
                    yield (tuple(neg_p[::-1]), q_inv), 1
            if neg_p and neg_p[-1] == let:
                neg_p.pop()
            else:
                neg_p.append(-let)
            continue
        if q_inv is not None:
            if neg_p:
                yield (tuple(neg_p[::-1]), q_inv), -1
            q_inv = None
        let = let - rank1 if let > 0 else let + rank1
        if neg_q and neg_q[-1] == let:
            neg_q.pop()
        else:
            neg_q.append(-let)
    # a word that ends inside a syllable moving past Q ends with Q
    # nontrivial, so it raises here and needs no last -1 factor
    if neg_p or neg_q:
        raise ValueError("word is not in the kernel of the direct-sum projection")


def expand_basis_product(
        rank1: int, rank2: int,
        factors: Iterable[tuple[tuple[Word, Word], int]]) -> SyllableWord:
    """Multiply out a list of ((v1, v2), sign) commutator factors."""
    parts: list[Sequence[int]] = []
    for (v1, v2), sign in factors:
        pair = [(1, v1), (2, v2)] if sign >= 0 else [(2, v2), (1, v1)]
        parts += _comm(*[_letters(rank1, rank2, f, v) for f, v in pair])
    return _product(rank1, rank2, parts)


@dataclass(frozen=True)
class KBasisSymbol:
    """A surviving basis commutator [v1, v2] of the kernel in G.

    Kind "A": v1 is the canonical representative of a nontrivial <u1>-coset
    and v2 is any nontrivial word; kind "B" is the mirror image.  A pair
    qualifying for both is classified "A".  So in one context the kind
    follows from (v1, v2): it is "A" iff v1 is its own representative.
    :func:`k_image` reduces symbols by the key ``(v1.letters, v2.letters)``.
    """

    v1: Word
    v2: Word
    kind: str


@dataclass(frozen=True)
class KWord:
    """A freely reduced word over kernel-basis symbols."""

    symbols: tuple[tuple[KBasisSymbol, int], ...] = ()

    def __post_init__(self) -> None:
        for (s, e), (t, f) in zip(self.symbols, self.symbols[1:]):
            if e == -f and s.v1.letters == t.v1.letters \
                    and s.v2.letters == t.v2.letters:
                raise ValueError("symbol word is not freely reduced")

    @property
    def is_identity(self) -> bool:
        return not self.symbols

    def inverse(self) -> "KWord":
        return KWord(tuple((s, -e) for s, e in reversed(self.symbols)))


def rewrite_commutator(ctx: GContext, w1: Word, w2: Word) -> KWord:
    """Rewrite [w1, w2] into basis symbols: the :func:`k_image` of the
    commutator, one factor for :func:`cartesian_basis_express`."""
    if w1.is_identity or w2.is_identity:
        raise ValueError("rewrite needs nontrivial w1, w2")
    return k_image(ctx, sp_commutator(ctx.embed(1, w1), ctx.embed(2, w2)))


def kword_expand(kw: KWord, rank1: int, rank2: int) -> SyllableWord:
    """Multiply a symbol word back out to a syllable word."""
    return expand_basis_product(
        rank1, rank2, (((sym.v1, sym.v2), e) for sym, e in kw.symbols))


def k_image(ctx: GContext, w: SyllableWord) -> KWord:
    """The image of a kernel element in the surviving free basis of K.

    Empty iff ``w`` is trivial in G (completeness granted the freeness of K
    on the basis; emptiness certifying triviality needs only the rewriting
    identities, which hold in G unconditionally).

    Each factor ``[w1, w2]^sign`` of :func:`cartesian_basis_express` is
    ``([w1, s2] [s1, s2]^-1 [s1, w2])^sign`` less the symbols with an empty
    component, ``s_i`` the representative of ``<u_i> w_i``: keys
    ``(v1, v2, e)``, read backwards for sign -1, pushed on one stack (free
    reduction is confluent).  Only survivors become symbols; v1 is a w1 or
    an s1, so it is its own representative (kind "A") iff the cache maps it
    to itself or lacks it.
    """
    reps1, reps2 = ctx._reps1, ctx._reps2
    stack: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    for (w1, w2), sign in _express(w.letters, w.rank1):
        s1 = reps1.get(w1)
        if s1 is None:
            s1 = reps1[w1] = _coset_rep(ctx._cores[0], w1)
        s2 = reps2.get(w2)
        if s2 is None:
            s2 = reps2[w2] = _coset_rep(ctx._cores[1], w2)
        for v1, v2, e in ((w1, s2, sign), (s1, s2, -sign), (s1, w2, sign))[::sign]:
            if stack and stack[-1] == (v1, v2, -e):
                stack.pop()
            elif v1 and v2:
                stack.append((v1, v2, e))
    return KWord(tuple([(KBasisSymbol(
        _trusted_word(ctx.rank1, v1), _trusted_word(ctx.rank2, v2),
        "A" if reps1.get(v1, v1) == v1 else "B"), e) for v1, v2, e in stack]))


def eq_in_G(ctx: GContext, x: SyllableWord, y: SyllableWord) -> bool:
    """Equality in G: x y^-1 has trivial direct-sum projection (h is a
    homomorphism, so that is h(x) = h(y)) and trivial kernel part."""
    if (x.rank1, x.rank2) != (ctx.rank1, ctx.rank2) or \
       (y.rank1, y.rank2) != (ctx.rank1, ctx.rank2):
        raise RankMismatchError("syllable words do not match the context ranks")
    w = _join(x.letters, _inv(y.letters))
    if any(_projections(w, ctx.rank1)):
        return False
    return k_image(ctx, _sp(ctx.rank1, ctx.rank2, w)).is_identity


def is_trivial_in_G(ctx: GContext, w: SyllableWord) -> bool:
    return eq_in_G(ctx, w, ctx.empty())


# ---------------------------------------------------------------------------
# identity checks from the quotient analysis


def relation_check(ctx: GContext, w1: Word, w2: Word,
                   oracles: Sequence["FiniteQuotientOracle"] = ()) -> dict:
    """Certify [u1 w1, u2 w2] = [u1 w1, w2] [w2, w1] [w1, u2 w2] in G.

    Raises :class:`VerificationError` if the equality decision rejects the
    identity or any supplied oracle refutes it; returns a small report
    otherwise.
    """
    lhs, rhs = _relation_sides(ctx, w1, w2)
    if not eq_in_G(ctx, lhs, rhs):
        raise VerificationError(
            f"imposed relation fails at w1={word_str(w1)}, w2={word_str(w2)}")
    for oracle in oracles:
        if oracle.apply(lhs) != oracle.apply(rhs):
            raise VerificationError(
                f"oracle (seed {oracle.seed}) refutes the imposed relation at "
                f"w1={word_str(w1)}, w2={word_str(w2)}")
    return {
        "w1": word_str(w1),
        "w2": word_str(w2),
        "holds": True,
        "oracles_checked": len(oracles),
    }


def _relation_sides(ctx: GContext, w1: Word,
                    w2: Word) -> tuple[SyllableWord, SyllableWord]:
    """[u1 w1, u2 w2] and [u1 w1, w2] [w2, w1] [w1, u2 w2] in F1 * F2."""
    rank1, rank2 = ctx.rank1, ctx.rank2
    e1, e2 = _letters(rank1, rank2, 1, w1), _letters(rank1, rank2, 2, w2)
    a = _join(ctx.u1.letters, e1)
    b = _join(_letters(rank1, rank2, 2, ctx.u2), e2)
    return (_product(rank1, rank2, _comm(a, b)), _product(
        rank1, rank2, _comm(a, e2) + _comm(e2, e1) + _comm(e1, b)))


def conj_expansion_check(rank1: int, rank2: int, x1: Word, x2: Word,
                         factors: Sequence[tuple[tuple[Word, Word], int]],
                         n: int) -> bool:
    """Check the conjugation-expansion identity in F1 * F2 itself.

    x2^-n x1^-n (prod_j [c_j, d_j]^(d_j)) x1^n x2^n
      = prod_j ([x2^n, c_j x1^n] [c_j x1^n, d_j x2^n] [d_j x2^n, x1^n]
                [x1^n, x2^n])^(d_j)

    Both sides are expanded to syllable words and compared after free
    reduction, so no quotient relation is consulted.
    """
    if n < 0:
        raise ValueError("the conjugation depth n must be nonnegative")
    for (c, d), _ in factors:
        if c.is_identity or d.is_identity:
            raise ValueError("commutator factors need nontrivial components")
    lhs, rhs = _conj_expansion_sides(rank1, rank2, x1, x2, factors, n)
    return lhs == rhs


def _conj_expansion_sides(rank1: int, rank2: int, x1: Word, x2: Word, factors,
                          n: int) -> tuple[SyllableWord, SyllableWord]:
    """The two sides of :func:`conj_expansion_check`'s identity."""
    a = _letters(rank1, rank2, 1, x1 ** n)
    b = _letters(rank1, rank2, 2, x2 ** n)
    middle = expand_basis_product(rank1, rank2, factors).letters
    rhs: list[Sequence[int]] = []
    for (c, d), delta in factors:
        ca = _join(_letters(rank1, rank2, 1, c), a)
        db = _join(_letters(rank1, rank2, 2, d), b)
        block = [(b, ca), (ca, db), (db, a), (a, b)]
        if delta < 0:  # the inverse: each [x, y] as [y, x], in reverse order
            block = [(y, x) for x, y in reversed(block)]
        rhs += [part for x, y in block for part in _comm(x, y)]
    return (_product(rank1, rank2, [_inv(b), _inv(a), middle, a, b]),
            _product(rank1, rank2, rhs))


def conj_support_check(w: Word, g: Word) -> bool:
    """Generators of a cyclically reduced word survive in every conjugate."""
    if not is_cyclically_reduced(w):
        raise ValueError("w must be cyclically reduced")
    conj = g.inverse() * w * g
    return support(w) <= support(conj)


# ---------------------------------------------------------------------------
# finite-quotient refutation oracle


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[i] for i in p)


def _perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _random_perm(rng: random.Random, m: int) -> tuple[int, ...]:
    items = list(range(m))
    rng.shuffle(items)
    return tuple(items)


def _eval_word_perms(images: Sequence[tuple[int, ...]], w: Word,
                     m: int) -> tuple[int, ...]:
    out = tuple(range(m))
    for let in w.letters:
        p = images[abs(let) - 1]
        out = _perm_mul(out, p if let > 0 else _perm_inv(p))
    return out


def _cycles_by_length(p: tuple[int, ...]) -> dict[int, list[list[int]]]:
    """The cycles of ``p``, each listed from its least point in the order
    ``i, p[i], p[p[i]], ...``, grouped by length."""
    groups: dict[int, list[list[int]]] = {}
    seen: set[int] = set()
    for start in range(len(p)):
        if start not in seen:
            cycle = [start]
            while p[cycle[-1]] != start:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            groups.setdefault(len(cycle), []).append(cycle)
    return groups


def _centralizer_perm(groups: dict[int, list[list[int]]],
                      rng: random.Random) -> tuple[int, ...]:
    """A uniform random element of the centralizer of the permutation whose
    cycles, grouped by length, are ``groups``: the cycles of each length go
    onto a random permutation of themselves, each with a random rotation."""
    out = [0] * sum(length * len(cycles) for length, cycles in groups.items())
    for length, cycles in groups.items():
        for src, dst in zip(cycles, rng.sample(cycles, len(cycles))):
            turn = rng.randrange(length)
            for k, point in enumerate(src):
                out[point] = dst[(k + turn) % length]
    return tuple(out)


def _closed_blocks(perms: Sequence[tuple[int, ...]],
                   degree: int) -> list[range]:
    """The points 0..degree-1 as runs of at most 256 consecutive points that
    every permutation of ``perms`` maps onto itself.  The finest such runs
    end after each point i that no permutation sends a point <= i beyond;
    they are packed greedily.

    Raises ``ValueError`` if one of the finest runs is longer than 256.
    """
    blocks, first, cut = [], 0, 0
    # zipped with the identity, so every point counts even with no images
    for i, top in enumerate(itertools.accumulate(
            map(max, zip(range(degree), *perms)), max)):
        if top == i:
            if i + 1 - cut > 256:
                raise ValueError(
                    f"oracle images move points {cut}..{i} as one run of more "
                    "than 256 points")
            if i + 1 - first > 256:
                blocks.append(range(first, cut))
                first = cut
            cut = i + 1
    blocks.append(range(first, degree))
    return blocks


@dataclass(frozen=True)
class FiniteQuotientOracle:
    """A seeded homomorphism G -> Sym(degree) used to refute equalities.

    Factor-one generators get uniform random permutations.  Factor-two
    generators are drawn uniformly from the centralizer C(σ) of σ, the image
    of u1, which is the product over cycle lengths ℓ of Z_ℓ ≀ S_(m_ℓ), m_ℓ
    the number of ℓ-cycles of σ: a permutation commutes with σ exactly when
    it carries each cycle of σ onto a cycle of the same length, preserving
    the cyclic order.  Every such draw gives a homomorphism of G: free
    factors take any generator images, and the image of u2 lies in the
    subgroup C(σ), so the defining commutator [u1, u2] dies and words equal
    in G have equal images.
    """

    degree: int
    seed: int
    images1: tuple[tuple[int, ...], ...]
    images2: tuple[tuple[int, ...], ...]
    # always 0: read only by the benchmark tracer (perfbench/spans.py)
    resamples: int = 0
    # per block of points (_closed_blocks): its points, the bytes 0..size-1,
    # and per signed letter of F1 * F2, as in SyllableWord, the 256-byte
    # bytes.translate table of its permutation on the block, shifted to 0
    _blocks: tuple[tuple, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 2:
            # Sym(1) is trivial, so an oracle of degree 1 refutes nothing
            raise ValueError("oracle degree must be at least 2")
        images = self.images1 + self.images2
        perms = dict(enumerate(images, 1))
        perms.update({-i: _perm_inv(p) for i, p in perms.items()})
        blocks = []
        for points in _closed_blocks(images, self.degree):
            start, stop = points.start, points.stop
            blocks.append((tuple(points), bytes(range(stop - start)), {
                let: bytes(x - start for x in p[start:stop]).ljust(256, b"\0")
                for let, p in perms.items()}))
        object.__setattr__(self, "_blocks", tuple(blocks))

    @classmethod
    def build(cls, ctx: GContext, degree: int, seed: int,
              # ignored: read only by the benchmark tracer (perfbench/spans.py)
              max_resamples: int = 8) -> "FiniteQuotientOracle":
        """The oracle of ``seed`` on ``degree`` points, drawn as the class
        docstring says.  It is applied in blocks of at most 256 points that
        every image maps onto itself, so a degree above 256 raises
        ``ValueError`` unless the images happen to split, which random ones
        almost never do."""
        rng = random.Random(1_000_003 * seed + 7 * degree)
        images1 = tuple(_random_perm(rng, degree) for _ in range(ctx.rank1))
        groups = _cycles_by_length(_eval_word_perms(images1, ctx.u1, degree))
        images2 = tuple(_centralizer_perm(groups, rng) for _ in range(ctx.rank2))
        return cls(degree=degree, seed=seed, images1=images1, images2=images2)

    @classmethod
    def product(cls, oracles: Sequence["FiniteQuotientOracle"]
                ) -> "FiniteQuotientOracle":
        """The direct product of ``oracles``: one homomorphism into
        Sym(d_1) x ... x Sym(d_k), acting on the disjoint union of their
        points, where factor j's point i becomes i + d_1 + ... + d_(j-1).

        Its images are the shifted factor images concatenated per generator,
        so its ``apply`` is the concatenation of the shifted factor applies,
        and it distinguishes x from y exactly when some factor does.  Its
        ``seed`` is the first factor's seed.  The factors must share their
        ranks.
        """
        if not oracles:
            raise ValueError("a product needs at least one oracle")
        offsets = tuple(itertools.accumulate(
            (o.degree for o in oracles), initial=0))

        def joined(factor_images):
            return tuple(
                tuple(point + offset
                      for perm, offset in zip(perms, offsets) for point in perm)
                for perms in zip(*factor_images, strict=True))

        return cls(degree=offsets[-1], seed=oracles[0].seed,
                   images1=joined([o.images1 for o in oracles]),
                   images2=joined([o.images2 for o in oracles]))

    def apply(self, w: SyllableWord) -> tuple[int, ...]:
        """The image of ``w``, as the tuple of the images of 0..degree-1.

        Each block's points start as the bytes 0..size-1 and the letters are
        read left to right, each one a single C-level ``bytes.translate``
        call: ``b.translate(t)[i] = t[b[i]]``, so after the letters
        p_1 ... p_n byte i is ``p_n[...p_1[i]]``, the same as folding
        ``_perm_mul`` left to right.  Shifted back by the block's first
        point, the blocks' bytes concatenate to the tuple.
        """
        letters = w.letters
        out: list[int] = []
        for points, b, tables in self._blocks:
            for let in letters:
                b = b.translate(tables[let])
            out += b if points[0] == 0 else map(points.__getitem__, b)
        return tuple(out)

    def distinguishes(self, x: SyllableWord, y: SyllableWord) -> bool:
        return self.apply(x) != self.apply(y)


# ---------------------------------------------------------------------------
# enumeration, sampling, and the commutation scan


def enumerate_syllable_words(rank1: int, rank2: int,
                             max_len: int) -> Iterator[SyllableWord]:
    """All syllable words of total letter length <= max_len, graded by length
    (:func:`commutation_scan` relies on that), each grade in the order of
    :func:`reduced_words` on the letters of factor one followed by those of
    factor two."""
    for w in reduced_words(rank1 + rank2, max_len):
        yield _sp(rank1, rank2, w.letters)


def random_syllable_word(rng: random.Random, rank1: int, rank2: int,
                         max_len: int) -> SyllableWord:
    """Uniform length in [0, max_len], then :func:`random_reduced_word` over the
    letters of both factors."""
    w = random_reduced_word(rng, rank1 + rank2, rng.randint(0, max_len))
    return _sp(rank1, rank2, w.letters)


def random_kernel_word(rng: random.Random, rank1: int, rank2: int,
                       max_len: int) -> SyllableWord:
    """A random product of conjugated commutators: trivial projection by
    construction, total length capped by regeneration: at max-len 24 about a
    third of the drafts are drawn again.  A draft is drawn to its end even when
    already too long, so that the next one starts at the same point of ``rng``.
    """
    while True:
        parts: list[Sequence[int]] = []
        for _ in range(rng.randint(1, 3)):
            v1 = random_reduced_word(rng, rank1, rng.randint(1, 3))
            v2 = random_reduced_word(rng, rank2, rng.randint(1, 3))
            x, y = v1.letters, _letters(rank1, rank2, 2, v2)
            if rng.random() < 0.5:  # [v1, v2]^-1 = [v2, v1]
                x, y = y, x
            g = random_syllable_word(rng, rank1, rank2, 3).letters
            parts += [_inv(g), *_comm(x, y), g]
        w = _product(rank1, rank2, parts)
        if len(w) <= max_len:
            return w


@dataclass(frozen=True)
class ScanReport:
    ctx: GContext
    max_len: int
    budget: int
    seed: int
    pairs_tested: int
    commuting_pairs_found: int
    counterexamples: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "ctx": self.ctx.to_json_dict(),
            "max_len": self.max_len,
            "budget": self.budget,
            "seed": self.seed,
            "pairs_tested": self.pairs_tested,
            "commuting_pairs_found": self.commuting_pairs_found,
            "counterexamples": list(self.counterexamples),
        }


def commutation_scan(ctx: GContext, max_len: int, budget: int,
                       seed: int) -> ScanReport:
    """Hunt for pairs x, y that commute with [x, y] but have [x, y] != 1.

    Exhausts all pairs with |x| + |y| <= max_len, then draws ``budget``
    seeded random pairs of length <= 2 * max_len each.  Any pair where both
    x and y commute with c = [x, y] must satisfy c = 1 in G; violations are
    collected as counterexamples (none are expected).

    The exhaustive phase tests one pair per orbit of the group of order 8
    generated by (x, y) -> (y, x), x -> x^-1 and y -> y^-1, and counts the
    pair once per orbit member.  These maps keep |x| + |y|, so the pair set
    is a union of orbits, and the outcome is the same on the whole orbit:
    swapping turns c into c^-1, and [x^-1, y] = x c^-1 x^-1 is a conjugate
    of c^-1, which x commutes with iff it commutes with c, and which then
    equals c^-1.  In shortlex order, nonempty (x, y) is least in its orbit
    iff x <= y and both are "firsts", before their inverses; the orbit has
    4 members if y = x, else 8.  The 2N - 1 pairs with x = e or y = e (N
    words of length <= max_len) have c = 1 and are counted by formula, so
    only the firsts shorter than max_len are stored.  A counterexample orbit
    is listed member by member in shortlex order of (x, y), the order of the
    full double loop over the enumerated words.
    """
    if max_len < 0 or budget < 0:
        raise ValueError(f"max_len {max_len} and budget {budget} must be >= 0")
    r = 2 * (ctx.rank1 + ctx.rank2)  # letters
    n_words = 1 + sum(r * (r - 1) ** k for k in range(max_len))  # N
    pairs_tested = commuting = 2 * n_words - 1

    def consider(x: SyllableWord, y: SyllableWord, weight: int = 1) -> bool:
        """Count the pair ``weight`` times; True if it is a counterexample."""
        nonlocal pairs_tested, commuting
        pairs_tested += weight
        c = sp_commutator(x, y)
        if c.is_identity:
            commuting += weight
            return False
        if not eq_in_G(ctx, sp_multiply(x, c), sp_multiply(c, x)):
            return False
        if not eq_in_G(ctx, sp_multiply(y, c), sp_multiply(c, y)):
            return False
        commuting += weight
        return not is_trivial_in_G(ctx, c)

    firsts = [w for w in enumerate_syllable_words(
                  ctx.rank1, ctx.rank2, max_len - 1)
              if shortlex_key(w.letters) < shortlex_key(_inv(w.letters))]
    found: set[tuple[SyllableWord, SyllableWord]] = set()
    for i, x in enumerate(firsts):
        if 2 * len(x) > max_len:
            break
        for y in itertools.islice(firsts, i, None):
            if len(x) + len(y) > max_len:
                break
            if consider(x, y, 4 if y is x else 8):
                xs, ys = (x, sp_invert(x)), (y, sp_invert(y))
                found.update(itertools.product(xs, ys), itertools.product(ys, xs))
    counterexamples = [{"x": syllable_str(x), "y": syllable_str(y)}
                       for x, y in sorted(found, key=lambda p: [
                           shortlex_key(w.letters) for w in p])]

    rng = random.Random(seed)
    for _ in range(budget):
        x = random_syllable_word(rng, ctx.rank1, ctx.rank2, 2 * max_len)
        y = random_syllable_word(rng, ctx.rank1, ctx.rank2, 2 * max_len)
        if consider(x, y):
            counterexamples.append(
                {"x": syllable_str(x), "y": syllable_str(y)})

    return ScanReport(
        ctx=ctx, max_len=max_len, budget=budget, seed=seed,
        pairs_tested=pairs_tested, commuting_pairs_found=commuting,
        counterexamples=tuple(counterexamples))


# ---------------------------------------------------------------------------
# text form


_SUGAR = {
    "a": (1, 1), "b": (1, 2), "c": (2, 1), "d": (2, 2),
    "A": (1, -1), "B": (1, -2), "C": (2, -1), "D": (2, -2),
}


def parse_syllable_word(text: str, rank1: int, rank2: int) -> SyllableWord:
    """Parse the two-factor grammar.

    Tokens ``a<i>``/``A<i>`` are factor-one letters, ``b<i>``/``B<i>``
    factor-two letters; ``|`` separates syllables (and may appear between any
    two tokens).  The bare letters a, b / c, d (and their upper-case
    inverses) abbreviate the first two generators of factor one / factor two.
    The whole word ``e`` is the identity.
    """
    stripped = text.strip()
    if stripped == "e":
        return sp_empty(rank1, rank2)
    parts: list[tuple[int, Word]] = []
    for segment in stripped.split("|"):
        tokens = segment.split()
        if not tokens:
            raise ValueError("empty syllable segment")
        for tok in tokens:
            if tok in _SUGAR:
                factor, let = _SUGAR[tok]
            elif len(tok) >= 2 and tok[0] in "aAbB" and tok[1:].isdigit():
                index = int(tok[1:])
                if index == 0:
                    raise ValueError(f"bad letter index in token {tok!r}")
                factor = 1 if tok[0] in "aA" else 2
                let = index if tok[0].islower() else -index
            else:
                raise ValueError(f"bad free-product token {tok!r}")
            rank = rank1 if factor == 1 else rank2
            if abs(let) > rank:
                raise ValueError(
                    f"token {tok!r} outside factor-{factor} alphabet of rank {rank}")
            parts.append((factor, Word(rank, (let,))))
    return sp_reduce(rank1, rank2, parts)


def syllable_str(w: SyllableWord) -> str:
    """Inverse of :func:`parse_syllable_word`, one segment per syllable."""
    segments = []
    for factor, run in _runs(w):
        prefix = ("a", "A") if factor == 1 else ("b", "B")
        segments.append(" ".join(
            f"{prefix[0]}{let}" if let > 0 else f"{prefix[1]}{-let}"
            for let in run))
    return " | ".join(segments) or "e"

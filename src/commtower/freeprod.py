"""Free products of two free groups and the commuting-relator quotient.

Elements of ``F1 * F2`` are syllable words: alternating nonempty reduced
words drawn from the two factors.  Quotienting by the normal closure of
``[u1, u2]`` (one designated word per factor, neither a proper power) gives
the group G studied here.

Equality in G is decided through the kernel K of the projection
``G -> F1 (+) F2``:

* a syllable word with trivial projection is collected, in one
  left-to-right pass over its syllables, into a product of honest
  commutators ``[v1, v2]`` (the free basis of the kernel before the relator
  is imposed);
* each such commutator is rewritten into the surviving free basis of K via
  ``[w1, w2] = [w1, s2][s2, s1][s1, w2]`` where ``s_i`` is the canonical
  representative of the coset ``<u_i> w_i``;
* the result reduces freely over the basis symbols, and is empty iff the
  element is trivial in G.

Soundness of the decision needs nothing beyond the rewriting identities,
which hold in G outright; completeness rests on K being free on the stated
symbols.  A seeded homomorphism onto a symmetric group is kept alongside as
an independent refutation oracle, and :func:`commutation_scan` uses the
whole apparatus to hunt for pairs that commute with their commutator.  Its
words are those of :mod:`.words` over the letters of both factors, split
into syllables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .words import (
    RankMismatchError,
    Word,
    _trusted_word,
    coset_rep,
    is_cyclically_reduced,
    primitive_root,
    random_reduced_word,
    reduced_words,
    support,
    word_str,
)


class VerificationError(AssertionError):
    """A computation that should certify an identity failed to do so."""


# ---------------------------------------------------------------------------
# syllable words


@dataclass(frozen=True)
class SyllableWord:
    """Normal form of an element of F1 * F2: alternating nonempty syllables."""

    rank1: int
    rank2: int
    syllables: tuple[tuple[int, Word], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for factor, w in self.syllables:
            if factor not in (1, 2):
                raise ValueError(f"factor tag must be 1 or 2, got {factor}")
            if w.is_identity:
                raise ValueError("syllables must be nonempty")
            expected = self.rank1 if factor == 1 else self.rank2
            if w.rank != expected:
                raise RankMismatchError(
                    f"factor-{factor} syllable has rank {w.rank}, expected {expected}")
            if prev == factor:
                raise ValueError("adjacent syllables share a factor")
            prev = factor

    def __len__(self) -> int:
        return sum(len(w) for _, w in self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "SyllableWord") -> "SyllableWord":
        return sp_multiply(self, other)

    def inverse(self) -> "SyllableWord":
        return sp_invert(self)

    def __str__(self) -> str:
        return syllable_str(self)

    def __repr__(self) -> str:
        return f"SyllableWord({self.rank1}, {self.rank2}, {syllable_str(self)!r})"


_new = object.__new__
_setattr = object.__setattr__


def _trusted_syllables(rank1: int, rank2: int,
                       syllables: tuple[tuple[int, Word], ...]) -> SyllableWord:
    """A :class:`SyllableWord` from syllables already tagged and ranked for
    their factor, nonempty and alternating; skips the checks of
    ``SyllableWord.__post_init__``."""
    w = _new(SyllableWord)
    _setattr(w, "rank1", rank1)
    _setattr(w, "rank2", rank2)
    _setattr(w, "syllables", syllables)
    return w


def sp_empty(rank1: int, rank2: int) -> SyllableWord:
    return SyllableWord(rank1, rank2)


def sp_reduce(rank1: int, rank2: int,
              raw: Iterable[tuple[int, Word]]) -> SyllableWord:
    """Merge adjacent same-factor syllables and drop the empty ones.

    Each raw syllable's factor tag and rank are checked; the merged result
    alternates and has no empty syllable by construction.
    """
    ranks = (None, rank1, rank2)
    stack: list[tuple[int, Word]] = []
    for factor, w in raw:
        if factor != 1 and factor != 2:
            raise ValueError(f"factor tag must be 1 or 2, got {factor}")
        if w.rank != ranks[factor]:
            raise RankMismatchError(
                f"factor-{factor} syllable has rank {w.rank}, "
                f"expected {ranks[factor]}")
        if not w.letters:
            continue
        if stack and stack[-1][0] == factor:
            merged = stack.pop()[1] * w
            if merged.letters:
                stack.append((factor, merged))
        else:
            stack.append((factor, w))
    return _trusted_syllables(rank1, rank2, tuple(stack))


def sp_from_word(rank1: int, rank2: int, factor: int, w: Word) -> SyllableWord:
    """Embed a single-factor word."""
    return sp_reduce(rank1, rank2, [(factor, w)])


def _check_same_ranks(words: Sequence[SyllableWord]) -> tuple[int, int]:
    ranks = {(w.rank1, w.rank2) for w in words}
    if len(ranks) > 1:
        raise RankMismatchError(f"mixed free-product ranks: {sorted(ranks)}")
    return words[0].rank1, words[0].rank2


def sp_multiply(*ws: SyllableWord) -> SyllableWord:
    rank1, rank2 = _check_same_ranks(ws)
    return sp_reduce(rank1, rank2,
                     itertools.chain.from_iterable(w.syllables for w in ws))


def sp_invert(w: SyllableWord) -> SyllableWord:
    return _trusted_syllables(
        w.rank1, w.rank2,
        tuple([(f, s.inverse()) for f, s in reversed(w.syllables)]))


def sp_commutator(x: SyllableWord, y: SyllableWord) -> SyllableWord:
    """[x, y] = x^-1 y^-1 x y."""
    return sp_multiply(sp_invert(x), sp_invert(y), x, y)


def sp_conjugate(w: SyllableWord, g: SyllableWord) -> SyllableWord:
    return sp_multiply(sp_invert(g), w, g)


def h_map(w: SyllableWord) -> tuple[Word, Word]:
    """Project onto F1 (+) F2: multiply out each factor's syllables in order."""
    p1 = _trusted_word(w.rank1, ())
    p2 = _trusted_word(w.rank2, ())
    for factor, s in w.syllables:
        if factor == 1:
            p1 = p1 * s
        else:
            p2 = p2 * s
    return p1, p2


# ---------------------------------------------------------------------------
# the quotient context


@dataclass(frozen=True)
class GContext:
    """The data defining G: two free factors and the commuting pair u1, u2."""

    rank1: int
    rank2: int
    u1: Word
    u2: Word
    _reps1: dict = field(default_factory=dict, compare=False, repr=False)
    _reps2: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.u1.rank != self.rank1 or self.u2.rank != self.rank2:
            raise RankMismatchError("u1/u2 ranks disagree with the declared factors")
        for name, u in (("u1", self.u1), ("u2", self.u2)):
            if u.is_identity:
                raise ValueError(f"{name} must be nonempty")
            _, exp = primitive_root(u)
            if exp != 1:
                raise ValueError(f"{name} is a proper power (exponent {exp})")

    def rep1(self, w: Word) -> Word:
        """Cached canonical representative of <u1> w."""
        hit = self._reps1.get(w)
        if hit is None:
            hit = coset_rep(self.u1, w)
            self._reps1[w] = hit
        return hit

    def rep2(self, w: Word) -> Word:
        hit = self._reps2.get(w)
        if hit is None:
            hit = coset_rep(self.u2, w)
            self._reps2[w] = hit
        return hit

    def empty(self) -> SyllableWord:
        return sp_empty(self.rank1, self.rank2)

    def embed(self, factor: int, w: Word) -> SyllableWord:
        return sp_from_word(self.rank1, self.rank2, factor, w)

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
    p = _trusted_word(w.rank1, ())
    q = _trusted_word(w.rank2, ())
    emitted: list[tuple[tuple[Word, Word], int]] = []
    for factor, s in w.syllables:
        if factor == 2:
            q = q * s
            continue
        ps = p * s
        if not q.is_identity:
            q_inv = q.inverse()
            if not p.is_identity:
                emitted.append(((p.inverse(), q_inv), 1))
            if not ps.is_identity:
                emitted.append(((ps.inverse(), q_inv), -1))
        p = ps
    if not (p.is_identity and q.is_identity):
        raise ValueError("word is not in the kernel of the direct-sum projection")
    return tuple(emitted)


def expand_basis_product(
        rank1: int, rank2: int,
        factors: Iterable[tuple[tuple[Word, Word], int]]) -> SyllableWord:
    """Multiply out a list of ((v1, v2), sign) commutator factors."""
    parts: list[tuple[int, Word]] = []
    for (v1, v2), sign in factors:
        if sign >= 0:
            parts.extend([(1, v1.inverse()), (2, v2.inverse()), (1, v1), (2, v2)])
        else:
            parts.extend([(2, v2.inverse()), (1, v1.inverse()), (2, v2), (1, v1)])
    return sp_reduce(rank1, rank2, parts)


@dataclass(frozen=True)
class KBasisSymbol:
    """A surviving basis commutator [v1, v2] of the kernel in G.

    Kind "A": v1 is the canonical representative of a nontrivial <u1>-coset
    and v2 is any nontrivial word; kind "B" is the mirror image.  A pair
    qualifying for both is classified "A".
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
            if s == t and e == -f:
                raise ValueError("symbol word is not freely reduced")

    @property
    def is_identity(self) -> bool:
        return not self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def inverse(self) -> "KWord":
        return KWord(tuple((s, -e) for s, e in reversed(self.symbols)))


def kword_reduce(items: Iterable[tuple[KBasisSymbol, int]]) -> KWord:
    stack: list[tuple[KBasisSymbol, int]] = []
    for sym, e in items:
        if stack and stack[-1][0] == sym and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((sym, e))
    return KWord(tuple(stack))


def rewrite_commutator(ctx: GContext, w1: Word, w2: Word) -> KWord:
    """Rewrite [w1, w2] into basis symbols:
    [w1, w2] = [w1, s2] [s2, s1] [s1, w2], s_i the coset representative of
    <u_i> w_i; factors with a trivial s-component vanish and are dropped.

    The kinds follow from ``coset_rep`` being idempotent: [s1, s2] and
    [s1, w2] are kind "A", and [w1, s2] is kind "A" iff w1 is its own
    representative s1, and kind "B" otherwise."""
    if w1.is_identity or w2.is_identity:
        raise ValueError("rewrite needs nontrivial w1, w2")
    s1 = ctx.rep1(w1)
    s2 = ctx.rep2(w2)
    out: list[tuple[KBasisSymbol, int]] = []
    if not s2.is_identity:
        out.append((KBasisSymbol(w1, s2, "A" if s1 == w1 else "B"), 1))
    if not s1.is_identity:
        if not s2.is_identity:
            out.append((KBasisSymbol(s1, s2, "A"), -1))  # [s2, s1] = [s1, s2]^-1
        out.append((KBasisSymbol(s1, w2, "A"), 1))
    return kword_reduce(out)


def kword_expand(kw: KWord, rank1: int, rank2: int) -> SyllableWord:
    """Multiply a symbol word back out to a syllable word."""
    return expand_basis_product(
        rank1, rank2, (((sym.v1, sym.v2), e) for sym, e in kw.symbols))


def k_image(ctx: GContext, w: SyllableWord) -> KWord:
    """The image of a kernel element in the surviving free basis of K.

    Empty iff ``w`` is trivial in G (completeness granted the freeness of K
    on the basis; emptiness certifying triviality needs only the rewriting
    identities, which hold in G unconditionally).
    """
    items: list[tuple[KBasisSymbol, int]] = []
    for (v1, v2), sign in cartesian_basis_express(w):
        symbols = rewrite_commutator(ctx, v1, v2).symbols
        items.extend(symbols if sign >= 0 else
                     [(sym, -e) for sym, e in reversed(symbols)])
    return kword_reduce(items)


def eq_in_G(ctx: GContext, x: SyllableWord, y: SyllableWord) -> bool:
    """Equality in G: equal direct-sum projections and trivial kernel part."""
    if (x.rank1, x.rank2) != (ctx.rank1, ctx.rank2) or \
       (y.rank1, y.rank2) != (ctx.rank1, ctx.rank2):
        raise RankMismatchError("syllable words do not match the context ranks")
    if h_map(x) != h_map(y):
        return False
    return k_image(ctx, sp_multiply(x, sp_invert(y))).is_identity


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
    a = ctx.embed(1, ctx.u1 * w1)
    b = ctx.embed(2, ctx.u2 * w2)
    e1 = ctx.embed(1, w1)
    e2 = ctx.embed(2, w2)
    lhs = sp_commutator(a, b)
    rhs = sp_multiply(
        sp_commutator(a, e2),
        sp_commutator(e2, e1),
        sp_commutator(e1, b),
    )
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
    a = x1 ** n
    b = x2 ** n
    sp_a = sp_from_word(rank1, rank2, 1, a)
    sp_b = sp_from_word(rank1, rank2, 2, b)
    middle = expand_basis_product(rank1, rank2, factors)
    lhs = sp_multiply(sp_invert(sp_b), sp_invert(sp_a), middle, sp_a, sp_b)

    rhs = sp_empty(rank1, rank2)
    for (c, d), delta in factors:
        ca = sp_from_word(rank1, rank2, 1, c * a)
        db = sp_from_word(rank1, rank2, 2, d * b)
        block = sp_multiply(
            sp_commutator(sp_b, ca),
            sp_commutator(ca, db),
            sp_commutator(db, sp_a),
            sp_commutator(sp_a, sp_b),
        )
        rhs = sp_multiply(rhs, block if delta >= 0 else sp_invert(block))
    return lhs == rhs


def conj_support_check(w: Word, g: Word) -> bool:
    """Generators of a cyclically reduced word survive in every conjugate."""
    if not is_cyclically_reduced(w):
        raise ValueError("w must be cyclically reduced")
    conj = g.inverse() * w * g
    return support(w) <= support(conj)


# ---------------------------------------------------------------------------
# finite-quotient refutation oracle


def _perm_identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


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
    out = _perm_identity(m)
    for let in w.letters:
        p = images[abs(let) - 1]
        out = _perm_mul(out, p if let > 0 else _perm_inv(p))
    return out


def _letter_table(images: Sequence[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Signed letter -> its permutation, inverse letters included."""
    table = dict(enumerate(images, 1))
    table.update({-i: _perm_inv(p) for i, p in table.items()})
    return table


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
    _letter_images: tuple[dict[int, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_letter_images", (
            _letter_table(self.images1), _letter_table(self.images2)))

    @classmethod
    def build(cls, ctx: GContext, degree: int, seed: int,
              # ignored: read only by the benchmark tracer (perfbench/spans.py)
              max_resamples: int = 8) -> "FiniteQuotientOracle":
        if degree < 2:
            raise ValueError("oracle degree must be at least 2")
        rng = random.Random(1_000_003 * seed + 7 * degree)
        images1 = tuple(_random_perm(rng, degree) for _ in range(ctx.rank1))
        groups = _cycles_by_length(_eval_word_perms(images1, ctx.u1, degree))
        images2 = tuple(_centralizer_perm(groups, rng) for _ in range(ctx.rank2))
        return cls(degree=degree, seed=seed, images1=images1, images2=images2)

    def apply(self, w: SyllableWord) -> tuple[int, ...]:
        out = _perm_identity(self.degree)
        for factor, s in w.syllables:
            table = self._letter_images[factor - 1]
            for let in s.letters:
                out = _perm_mul(out, table[let])
        return out

    def distinguishes(self, x: SyllableWord, y: SyllableWord) -> bool:
        return self.apply(x) != self.apply(y)


# ---------------------------------------------------------------------------
# enumeration, sampling, and the commutation scan


def _split_factors(rank1: int, rank2: int, w: Word) -> SyllableWord:
    # a letter of w above rank1 is the factor-two generator of index minus rank1
    syllables = []
    runs = itertools.groupby(w.letters, key=lambda let: abs(let) > rank1)
    for two, run in runs:
        if two:
            syllables.append((2, _trusted_word(rank2, tuple([
                let - rank1 if let > 0 else let + rank1 for let in run]))))
        else:
            syllables.append((1, _trusted_word(rank1, tuple(run))))
    return _trusted_syllables(rank1, rank2, tuple(syllables))


def enumerate_syllable_words(rank1: int, rank2: int,
                             max_len: int) -> Iterator[SyllableWord]:
    """All syllable words of total letter length <= max_len, graded by length
    (:func:`commutation_scan` relies on that), each grade in the order of
    :func:`reduced_words` on the letters of factor one followed by those of
    factor two."""
    for w in reduced_words(rank1 + rank2, max_len):
        yield _split_factors(rank1, rank2, w)


def random_syllable_word(rng: random.Random, rank1: int, rank2: int,
                         max_len: int) -> SyllableWord:
    """Uniform length in [0, max_len], then :func:`random_reduced_word` over the
    letters of both factors."""
    length = rng.randint(0, max_len)
    return _split_factors(
        rank1, rank2, random_reduced_word(rng, rank1 + rank2, length))


def random_kernel_word(rng: random.Random, rank1: int, rank2: int,
                       max_len: int) -> SyllableWord:
    """A random product of conjugated commutators: trivial projection by
    construction, total length capped by regeneration."""
    while True:
        w = sp_empty(rank1, rank2)
        for _ in range(rng.randint(1, 3)):
            v1 = random_reduced_word(rng, rank1, rng.randint(1, 3))
            v2 = random_reduced_word(rng, rank2, rng.randint(1, 3))
            comm = sp_commutator(
                sp_from_word(rank1, rank2, 1, v1),
                sp_from_word(rank1, rank2, 2, v2))
            if rng.random() < 0.5:
                comm = sp_invert(comm)
            g = random_syllable_word(rng, rank1, rank2, 3)
            w = sp_multiply(w, sp_conjugate(comm, g))
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
    equals c^-1.  A counterexample orbit is listed member by member, in the
    order of the full double loop over the enumerated words.  The pair set
    relies on :func:`enumerate_syllable_words` being graded by length: once
    |x| + |y| exceeds max_len, no later y fits with this x.
    """
    pairs_tested = 0
    commuting = 0

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

    words = list(enumerate_syllable_words(ctx.rank1, ctx.rank2, max_len))
    index = {w: i for i, w in enumerate(words)}
    inv = [index[sp_invert(w)] for w in words]
    found: list[tuple[int, int]] = []
    for i, x in enumerate(words):
        # (inv[i], j), (j, i) and (inv[j], i) share the orbit of (i, j), so
        # (i, j) is its least member only if i <= inv[i], j, inv[j]
        if inv[i] < i:
            continue
        if 2 * len(x) > max_len:
            break
        for j in range(i, len(words)):
            y = words[j]
            if len(x) + len(y) > max_len:
                break
            if inv[j] < i:
                continue
            orbit = {(i, j), (inv[i], j), (i, inv[j]), (inv[i], inv[j])}
            orbit.update([(b, a) for a, b in orbit])
            if min(orbit) == (i, j) and consider(x, y, len(orbit)):
                found.extend(orbit)
    counterexamples = [{"x": syllable_str(words[i]), "y": syllable_str(words[j])}
                       for i, j in sorted(found)]

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
    if w.is_identity:
        return "e"
    segments = []
    for factor, s in w.syllables:
        prefix = ("a", "A") if factor == 1 else ("b", "B")
        segments.append(" ".join(
            f"{prefix[0]}{let}" if let > 0 else f"{prefix[1]}{-let}"
            for let in s.letters))
    return " | ".join(segments)

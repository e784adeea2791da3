import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commtower import freeprod
from commtower.freeprod import (
    FiniteQuotientOracle,
    GContext,
    KBasisSymbol,
    KWord,
    ScanReport,
    SyllableWord,
    _centralizer_perm,
    _cycles_by_length,
    _eval_word_perms,
    _perm_mul,
    cartesian_basis_express,
    commutation_scan,
    conj_expansion_check,
    conj_support_check,
    enumerate_syllable_words,
    eq_in_G,
    expand_basis_product,
    h_map,
    k_image,
    kword_expand,
    parse_syllable_word,
    random_kernel_word,
    random_syllable_word,
    relation_check,
    rewrite_commutator,
    sp_commutator,
    sp_conjugate,
    sp_empty,
    sp_invert,
    sp_multiply,
    sp_reduce,
    syllable_str,
)
from commtower.tower import split_context
from commtower.words import (
    RankMismatchError,
    Word,
    coset_rep,
    cyclic_reduce,
    parse_word,
    random_reduced_word,
    reduced_words,
    word_str,
)


def fw(text, rank=2):
    return parse_word(text, rank)


def ctx_single():
    # u1 = a inside F(a, b); u2 = c inside F(c, d)
    return GContext(2, 2, fw("x1"), fw("x1"))


def ctx_double():
    # u1 = ab, u2 = cd
    return GContext(2, 2, fw("x1 x2"), fw("x1 x2"))


def ctx_31():
    return GContext(3, 1, fw("x1 x3", 3), fw("x1", 1))


def sw(text, rank1=2, rank2=2):
    return parse_syllable_word(text, rank1, rank2)


# --- syllable normal form -------------------------------------------------------

def test_sp_reduce_examples():
    cancel = sp_multiply(sw("a"), sw("A"))
    assert cancel.is_identity

    three = sp_reduce(2, 2, [(1, fw("x1")), (2, fw("x1")), (1, fw("x1"))])
    assert len(three.syllables) == 3

    merged = sp_reduce(
        2, 2, [(1, fw("x1")), (2, fw("x1")), (2, fw("X1 x2"))])
    assert merged == sp_reduce(2, 2, [(1, fw("x1")), (2, fw("x2"))])
    assert len(merged.syllables) == 2


def test_syllable_word_validation():
    with pytest.raises(ValueError):
        SyllableWord(2, 2, ((1, Word(2)),))
    with pytest.raises(ValueError):
        SyllableWord(2, 2, ((1, fw("x1")), (1, fw("x2"))))
    with pytest.raises(ValueError):
        SyllableWord(2, 2, ((3, fw("x1")),))
    with pytest.raises(RankMismatchError):
        SyllableWord(2, 3, ((2, fw("x1", 2)),))
    a, b = fw("x1"), fw("x2")
    for syllables in (((0, a),), ((-1, a),), ((1, a), (3, b)),   # tags
                      ((1, a), (2, Word(2)), (1, b)),              # empty
                      ((1, a), (2, b), (2, a)),                    # adjacent
                      ((2, a), (1, b), (1, a))):
        with pytest.raises(ValueError):
            SyllableWord(2, 2, syllables)
    for rank1, rank2, syllables in ((3, 2, ((1, a),)), (2, 3, ((1, a), (2, b))),
                                    (2, 2, ((2, fw("x1", 3)),))):
        with pytest.raises(RankMismatchError):
            SyllableWord(rank1, rank2, syllables)
    w = SyllableWord(2, 3, ((2, fw("X3", 3)), (1, fw("x1 x2"))))
    assert w.letters == (-5, 1, 2)
    assert w.syllables == ((2, fw("X3", 3)), (1, fw("x1 x2")))
    assert SyllableWord(2, 3) == sp_empty(2, 3) != sp_empty(3, 2)


def test_sp_reduce_checks_each_raw_syllable():
    with pytest.raises(ValueError):
        sp_reduce(2, 2, [(3, fw("x1")), (3, fw("X1"))])
    with pytest.raises(ValueError):
        sp_reduce(2, 2, [(0, Word(2))])
    with pytest.raises(RankMismatchError):
        sp_reduce(2, 3, [(2, fw("x1", 2))])
    with pytest.raises(RankMismatchError):
        sp_reduce(2, 3, [(2, fw("x1", 3)), (1, fw("x1", 3))])


def _validated(w):
    """``w`` rebuilt through the checking constructors."""
    return SyllableWord(w.rank1, w.rank2, tuple(
        (f, Word(s.rank, s.letters)) for f, s in w.syllables))


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_trusted_syllable_words_equal_validated_reconstruction(seed):
    rng = random.Random(seed)
    rank1, rank2 = rng.randint(1, 3), rng.randint(1, 3)
    x = random_syllable_word(rng, rank1, rank2, 12)
    y = random_syllable_word(rng, rank1, rank2, 12)
    flat = random_reduced_word(rng, rank1 + rank2, rng.randint(0, 12))
    built = [x, y, sp_multiply(x, y), sp_invert(x), sp_commutator(x, y),
             freeprod._sp(rank1, rank2, flat.letters),
             sp_reduce(rank1, rank2, x.syllables + sp_invert(y).syllables)]
    for w in built:
        assert _validated(w) == w
    assert sp_multiply(x, y) == sp_reduce(
        rank1, rank2, x.syllables + y.syllables)


def test_sp_group_laws():
    rng = random.Random(4)
    for _ in range(100):
        x = random_syllable_word(rng, 2, 2, 8)
        y = random_syllable_word(rng, 2, 2, 8)
        z = random_syllable_word(rng, 2, 2, 8)
        assert sp_multiply(sp_multiply(x, y), z) == sp_multiply(x, sp_multiply(y, z))
        assert sp_multiply(x, sp_invert(x)).is_identity


def test_sp_rank_mismatch():
    with pytest.raises(RankMismatchError):
        sp_multiply(sp_empty(2, 2), sp_empty(2, 3))


@st.composite
def _ranked_syllable_words(draw, count):
    """``count`` syllable words of at most 12 letters over one pair of ranks
    in 1..3."""
    rank1, rank2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    letters = [(f, Word(rank, (s * i,))) for f, rank in ((1, rank1), (2, rank2))
               for i in range(1, rank + 1) for s in (1, -1)]
    return [sp_reduce(rank1, rank2, draw(st.lists(st.sampled_from(letters),
                                                  max_size=12)))
            for _ in range(count)]


@given(_ranked_syllable_words(3))
def test_commutator_and_conjugate_match_chained_products(words):
    # the literal constructions: two inverted words, then junction joins
    x, y, g = words
    assert sp_commutator(x, y) == sp_multiply(sp_invert(x), sp_invert(y), x, y)
    assert sp_conjugate(x, g) == sp_multiply(sp_invert(g), x, g)


def test_commutator_and_conjugate_reject_mixed_ranks():
    x, y = sw("a"), sw("a", 3, 2)
    for build, message in ((sp_commutator, "(2, 2) and (3, 2)"),
                           (sp_conjugate, "(3, 2) and (2, 2)")):
        with pytest.raises(RankMismatchError) as exc:
            build(x, y)
        assert str(exc.value) == f"mixed free-product ranks: {message}"


def test_syllable_words_are_immutable_values():
    w = sw("a c B")
    for name in ("letters", "rank1", "syllables", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, ())
    with pytest.raises(AttributeError):
        del w.letters
    assert w.letters == (1, 3, -2)
    assert copy.copy(w) == w == pickle.loads(pickle.dumps(w))
    assert w != w.letters and w != syllable_str(w)


# --- the syllable implementation, kept as the reference ----------------------
# A value here is its tuple of syllables ((factor, Word), ...).

def _ref_reduce(raw):
    """Merge adjacent same-factor syllables in their factor and drop the
    empty ones."""
    stack = []
    for factor, w in raw:
        if w.is_identity:
            continue
        if stack and stack[-1][0] == factor:
            merged = stack.pop()[1] * w
            if not merged.is_identity:
                stack.append((factor, merged))
        else:
            stack.append((factor, w))
    return tuple(stack)


def _ref_invert(syllables):
    return tuple((f, s.inverse()) for f, s in reversed(syllables))


def _ref_h_map(rank1, rank2, syllables):
    p = {1: Word(rank1), 2: Word(rank2)}
    for f, s in syllables:
        p[f] = p[f] * s
    return p[1], p[2]


def _ref_express(rank1, rank2, syllables):
    p, q = Word(rank1), Word(rank2)
    emitted = []
    for f, s in syllables:
        if f == 2:
            q = q * s
            continue
        ps = p * s
        if not q.is_identity:
            if not p.is_identity:
                emitted.append(((p.inverse(), q.inverse()), 1))
            if not ps.is_identity:
                emitted.append(((ps.inverse(), q.inverse()), -1))
        p = ps
    assert p.is_identity and q.is_identity
    return tuple(emitted)


def _ref_split(rank1, rank2, letters):
    """The syllables of a word over the rank1 + rank2 letters."""
    syllables = []
    for two, run in itertools.groupby(letters, key=lambda let: abs(let) > rank1):
        run = tuple(run)
        if two:
            syllables.append((2, Word(rank2, tuple(
                let - rank1 if let > 0 else let + rank1 for let in run))))
        else:
            syllables.append((1, Word(rank1, run)))
    return tuple(syllables)


def _ref_apply(oracle, syllables):
    out = tuple(range(oracle.degree))
    for f, s in syllables:
        images = oracle.images1 if f == 1 else oracle.images2
        out = _perm_mul(out, _eval_word_perms(images, s, oracle.degree))
    return out


def _raw_syllables(rng, rank1, rank2, count):
    """Raw syllables, possibly empty or sharing a factor with a neighbour;
    rank-1 factors make long cancellations likely."""
    ranks = (None, rank1, rank2)
    out = []
    for _ in range(count):
        f = rng.choice((1, 2))
        out.append((f, random_reduced_word(rng, ranks[f], rng.randint(0, 4))))
    return out


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_letter_tuples_match_syllable_reference(seed):
    rng = random.Random(seed)
    rank1, rank2 = rng.randint(1, 3), rng.randint(1, 3)
    raws = [_raw_syllables(rng, rank1, rank2, rng.randint(0, 9)) for _ in range(3)]
    (x, y, z) = [sp_reduce(rank1, rank2, raw) for raw in raws]
    (rx, ry, rz) = [_ref_reduce(raw) for raw in raws]
    assert (x.syllables, y.syllables, z.syllables) == (rx, ry, rz)
    assert SyllableWord(rank1, rank2, rx) == x
    assert len(x) == sum(len(s) for _, s in rx)

    assert sp_multiply(x, y, z).syllables == _ref_reduce(rx + ry + rz)
    assert (y * x).syllables == _ref_reduce(ry + rx)
    assert sp_invert(x).syllables == _ref_invert(rx)
    comm = _ref_reduce(_ref_invert(rx) + _ref_invert(ry) + rx + ry)
    assert sp_commutator(x, y).syllables == comm
    assert h_map(x) == _ref_h_map(rank1, rank2, rx)

    # x y z times the inverse of its projection is in the kernel
    xyz = sp_multiply(x, y, z)
    p1, p2 = h_map(xyz)
    kernel = sp_multiply(xyz, sp_invert(sp_reduce(rank1, rank2, [(1, p1), (2, p2)])))
    assert cartesian_basis_express(kernel) == _ref_express(
        rank1, rank2, kernel.syllables)

    # equal iff the same syllables and ranks, and then the same hash
    for a, ra in ((x, rx), (y, ry), (sp_multiply(x, y, sp_invert(y)), rx)):
        for b, rb in ((x, rx), (z, rz)):
            assert (a == b) == (ra == rb)
            assert (a != b) == (ra != rb)
            if a == b:
                assert hash(a) == hash(b)
    assert freeprod._sp(rank1, rank2 + 1, x.letters) != x

    ctx = GContext(rank1, rank2, fw("x1", rank1), fw("x1", rank2))
    oracle = FiniteQuotientOracle.build(ctx, rng.randint(2, 9), seed)
    for w, rw in ((x, rx), (kernel, kernel.syllables)):
        assert oracle.apply(w) == _ref_apply(oracle, rw)


def test_enumeration_and_sampling_match_syllable_split():
    for rank1, rank2, max_len in ((1, 1, 5), (2, 1, 4), (2, 2, 3), (1, 3, 3)):
        assert [w.syllables for w in enumerate_syllable_words(
            rank1, rank2, max_len)] == [
            _ref_split(rank1, rank2, w.letters)
            for w in reduced_words(rank1 + rank2, max_len)]
        ours, theirs = random.Random(max_len), random.Random(max_len)
        for _ in range(60):
            w = random_syllable_word(ours, rank1, rank2, 10)
            flat = random_reduced_word(theirs, rank1 + rank2, theirs.randint(0, 10))
            assert w.syllables == _ref_split(rank1, rank2, flat.letters)


# --- projection to the direct sum --------------------------------------------------

def test_h_map_examples():
    assert h_map(sw("A C a c")) == (Word(2), Word(2))
    assert h_map(sw("a c b")) == (fw("x1 x2"), fw("x1"))


def test_h_map_homomorphism():
    rng = random.Random(8)
    for _ in range(100):
        x = random_syllable_word(rng, 2, 2, 8)
        y = random_syllable_word(rng, 2, 2, 8)
        hx, hy = h_map(x), h_map(y)
        assert h_map(sp_multiply(x, y)) == (hx[0] * hy[0], hx[1] * hy[1])


# --- kernel basis expression ---------------------------------------------------------

def test_express_single_commutator():
    comm = sp_commutator(sw("a"), sw("c"))
    assert cartesian_basis_express(comm) == (((fw("x1"), fw("x1")), 1),)
    assert cartesian_basis_express(sp_invert(comm)) == (((fw("x1"), fw("x1")), -1),)


def test_express_requires_kernel():
    with pytest.raises(ValueError):
        cartesian_basis_express(sw("a"))


def test_express_round_trip_seeded():
    rng = random.Random(21)
    for _ in range(300):
        w = random_kernel_word(rng, 2, 2, 24)
        expr = cartesian_basis_express(w)
        assert all(not v1.is_identity and not v2.is_identity
                   for (v1, v2), _ in expr)
        assert expand_basis_product(2, 2, expr) == w


def _bubble_express(w):
    # the literal collection from the right: swap the last two syllables,
    # emitting the commutator that the swap costs, until nothing is left
    syl = list(w.syllables)
    emitted = []
    while syl:
        assert len(syl) >= 4
        (f_pen, pen), (f_last, last) = syl[-2], syl[-1]
        if f_pen == 1 and f_last == 2:
            emitted.append(((pen, last), 1))
        else:
            emitted.append(((last, pen), -1))
        swapped = syl[:-2] + [syl[-1], syl[-2]]
        syl = list(sp_reduce(w.rank1, w.rank2, swapped).syllables)
    return tuple(reversed(emitted))


def test_express_matches_bubble_collection():
    for rank1, rank2, seed in ((2, 2, 5), (1, 1, 6), (2, 3, 7)):
        rng = random.Random(seed)
        for _ in range(200):
            w = random_kernel_word(rng, rank1, rank2, 40)
            assert cartesian_basis_express(w) == _bubble_express(w)


def test_expand_basis_product_signs():
    factors = (((fw("x1"), fw("x2")), -1),)
    assert expand_basis_product(2, 2, factors) == sp_invert(
        sp_commutator(sw("a"), sw("d")))


# --- symbol classification and rewriting ----------------------------------------------

def test_rewrite_relator_components_vanish():
    ctx = ctx_single()
    assert rewrite_commutator(ctx, fw("x1"), fw("x1")).is_identity


def test_rewrite_single_symbol_cases():
    ctx = ctx_single()
    kw = rewrite_commutator(ctx, fw("x2"), fw("x2"))  # [b, d]
    assert [(word_str(s.v1), word_str(s.v2), s.kind, e) for s, e in kw.symbols] \
        == [("x2", "x2", "A", 1)]

    kw = rewrite_commutator(ctx, fw("x1 x2"), fw("x2"))  # [ab, d]
    assert [(word_str(s.v1), word_str(s.v2), s.kind, e) for s, e in kw.symbols] \
        == [("x1 x2", "x2", "B", 1)]


def test_rewrite_requires_nontrivial():
    with pytest.raises(ValueError):
        rewrite_commutator(ctx_single(), Word(2), fw("x2"))


def test_rewrite_symbols_satisfy_kind_invariants():
    ctx = ctx_double()
    rng = random.Random(31)
    from commtower.words import random_reduced_word

    for _ in range(200):
        w1 = random_reduced_word(rng, 2, rng.randint(1, 6))
        w2 = random_reduced_word(rng, 2, rng.randint(1, 6))
        for sym, _ in rewrite_commutator(ctx, w1, w2).symbols:
            assert not sym.v1.is_identity and not sym.v2.is_identity
            if sym.kind == "A":
                assert ctx.rep1(sym.v1) == sym.v1
            else:
                assert ctx.rep2(sym.v2) == sym.v2


def test_symbol_kind_follows_from_v1():
    # k_image compares symbols by (v1.letters, v2.letters), which is enough
    # because within one context the kind is "A" exactly when v1 is its own
    # coset representative
    rng = random.Random(32)
    for ctx in (ctx_single(), ctx_double(), ctx_31(), split_context(2)):
        for _ in range(150):
            w1 = random_reduced_word(rng, ctx.rank1, rng.randint(1, 6))
            w2 = random_reduced_word(rng, ctx.rank2, rng.randint(1, 6))
            for sym, _ in rewrite_commutator(ctx, w1, w2).symbols:
                assert sym.kind == ("A" if ctx.rep1(sym.v1) == sym.v1 else "B")


def test_rewrite_equals_commutator_in_G():
    ctx = ctx_double()
    rng = random.Random(77)
    from commtower.words import random_reduced_word

    for _ in range(150):
        w1 = random_reduced_word(rng, 2, rng.randint(1, 6))
        w2 = random_reduced_word(rng, 2, rng.randint(1, 6))
        comm = sp_commutator(ctx.embed(1, w1), ctx.embed(2, w2))
        expansion = kword_expand(rewrite_commutator(ctx, w1, w2), 2, 2)
        assert eq_in_G(ctx, comm, expansion)


# --- the image in K and equality in G ---------------------------------------------------

def test_k_image_of_relator_is_empty():
    for ctx in (ctx_single(), ctx_double()):
        assert k_image(ctx, ctx.relator()).is_identity


def test_k_image_of_relator_conjugates_is_empty():
    rng = random.Random(5)
    for ctx in (ctx_single(), ctx_double()):
        for _ in range(100):
            g = random_syllable_word(rng, 2, 2, 6)
            sign = rng.choice((1, -1))
            conj = sp_conjugate(
                ctx.relator() if sign > 0 else sp_invert(ctx.relator()), g)
            assert k_image(ctx, conj).is_identity


def test_k_image_nonempty_example():
    ctx = ctx_single()
    assert not k_image(ctx, sp_commutator(sw("b"), sw("d"))).is_identity


def test_k_image_invariant_under_relator_insertion():
    ctx = ctx_double()
    rng = random.Random(12)
    for _ in range(200):
        left = random_kernel_word(rng, 2, 2, 16)
        right = random_kernel_word(rng, 2, 2, 16)
        g = random_syllable_word(rng, 2, 2, 5)
        noise = sp_conjugate(
            ctx.relator() if rng.random() < 0.5 else sp_invert(ctx.relator()), g)
        plain = sp_multiply(left, right)
        dressed = sp_multiply(left, noise, right)
        assert k_image(ctx, plain) == k_image(ctx, dressed)


def _classify_literal(ctx, v1, v2):
    if ctx.rep1(v1) == v1:
        return KBasisSymbol(v1, v2, "A")
    if ctx.rep2(v2) == v2:
        return KBasisSymbol(v1, v2, "B")
    raise AssertionError("not a basis symbol")


def _k_image_literal(ctx, w):
    """The image in K with every symbol classified by coset lookups and a
    symbol word built, inverted and concatenated per commutator."""
    pieces = []
    for (w1, w2), sign in cartesian_basis_express(w):
        s1, s2 = ctx.rep1(w1), ctx.rep2(w2)
        out = []
        if not s2.is_identity:
            out.append((_classify_literal(ctx, w1, s2), 1))
        if not (s1.is_identity or s2.is_identity):
            out.append((_classify_literal(ctx, s1, s2), -1))
        if not s1.is_identity:
            out.append((_classify_literal(ctx, s1, w2), 1))
        kw = _reduce_by_equality(out)
        pieces.append(kw if sign >= 0 else kw.inverse())
    return _reduce_by_equality(
        itertools.chain.from_iterable(kw.symbols for kw in pieces))


def _reduce_by_equality(items):
    # free reduction by symbol equality, kinds included
    stack = []
    for sym, e in items:
        if stack and stack[-1] == (sym, -e):
            stack.pop()
        else:
            stack.append((sym, e))
    return KWord(tuple(stack))


def test_k_image_reduces_by_key_like_symbol_equality():
    # w n w^-1, n a conjugated relator, has an empty image, so the stack
    # cancels every symbol of the factors of w against those of w^-1
    for seed, ctx in enumerate((ctx_single(), ctx_double(), ctx_31())):
        rng = random.Random(60 + seed)
        for _ in range(150):
            w = random_kernel_word(rng, ctx.rank1, ctx.rank2, 24)
            k = random_kernel_word(rng, ctx.rank1, ctx.rank2, 24)
            n = sp_conjugate(ctx.relator(), random_syllable_word(
                rng, ctx.rank1, ctx.rank2, 4))
            hidden = sp_multiply(w, n, sp_invert(w))
            assert k_image(ctx, hidden).is_identity
            for x in (sp_multiply(w, k), sp_multiply(w, n, k, sp_invert(w)),
                      hidden):
                assert k_image(ctx, x) == _k_image_literal(ctx, x)


def _eq_long_shaped(rng, ctx, length, commutator=None):
    # (x, y) for y = x t, t a product of conjugated relators of about
    # length / 2 letters, with one conjugated commutator [v1, v2] inserted
    # if ``commutator`` (None: on a coin flip), as perfbench's eq_pair draws
    x = random_syllable_word(rng, ctx.rank1, ctx.rank2, length // 2)
    factors = []
    while sum(len(f) for f in factors) < length // 2:
        g = random_syllable_word(rng, ctx.rank1, ctx.rank2, 8)
        core = ctx.relator() if rng.random() < 0.5 else sp_invert(ctx.relator())
        factors.append(sp_conjugate(core, g))
    if commutator is None:
        commutator = rng.random() < 0.5
    if commutator:
        v1 = random_reduced_word(rng, ctx.rank1, rng.randint(1, 3))
        v2 = random_reduced_word(rng, ctx.rank2, rng.randint(1, 3))
        factors.append(sp_conjugate(
            sp_commutator(ctx.embed(1, v1), ctx.embed(2, v2)),
            random_syllable_word(rng, ctx.rank1, ctx.rank2, 8)))
    rng.shuffle(factors)
    return x, sp_multiply(x, *factors)


def test_k_image_matches_literal_pipeline():
    for seed, ctx in enumerate((ctx_single(), ctx_double(), ctx_31())):
        rng = random.Random(900 + seed)
        for _ in range(700):
            w = random_kernel_word(rng, ctx.rank1, ctx.rank2, 40)
            assert k_image(ctx, w) == _k_image_literal(ctx, w)
    # the eq_long contexts (u = x1 x2 ties often) on words of about 256
    # letters, each context's cache shared across its words
    for seed, ctx in enumerate((ctx_double(), ctx_single(), split_context(2))):
        rng = random.Random(950 + seed)
        for _ in range(12):
            x, y = _eq_long_shaped(rng, ctx, 256)
            w = sp_multiply(x, sp_invert(y))
            assert k_image(ctx, w) == _k_image_literal(ctx, w)


def test_rep_wrappers_agree_with_coset_rep_through_the_cache():
    rng = random.Random(34)
    for ctx in (ctx_single(), ctx_double(), ctx_31(), split_context(2)):
        for _ in range(50):
            k_image(ctx, random_kernel_word(rng, ctx.rank1, ctx.rank2, 24))
        assert ctx._reps1 and ctx._reps2
        for reps, u, rep, rank in ((ctx._reps1, ctx.u1, ctx.rep1, ctx.rank1),
                                   (ctx._reps2, ctx.u2, ctx.rep2, ctx.rank2)):
            for letters, hit in list(reps.items()):
                w = Word(rank, letters)
                assert hit == coset_rep(u, w).letters == rep(w).letters
            fresh = random_reduced_word(rng, rank, 9)
            assert rep(fresh) == coset_rep(u, fresh)
            assert reps[fresh.letters] == rep(fresh).letters
            with pytest.raises(RankMismatchError):
                rep(Word(rank + 1, next(iter(reps))))


def test_eq_examples():
    ctx = ctx_single()
    assert eq_in_G(ctx, sw("a c"), sw("c a"))
    assert not eq_in_G(ctx, sw("b d"), sw("d b"))
    assert eq_in_G(ctx, ctx.relator(), ctx.empty())


def test_eq_relator_powers_commute():
    ctx = ctx_double()
    for k in (1, 2, 3):
        for m in (1, 2):
            x = ctx.embed(1, ctx.u1 ** k)
            y = ctx.embed(2, ctx.u2 ** m)
            assert eq_in_G(ctx, sp_commutator(x, y), ctx.empty())


def test_eq_is_congruence():
    ctx = ctx_double()
    rng = random.Random(65)
    for _ in range(100):
        x = random_syllable_word(rng, 2, 2, 6)
        g = random_syllable_word(rng, 2, 2, 4)
        h = random_syllable_word(rng, 2, 2, 4)
        noise = sp_conjugate(ctx.relator(), random_syllable_word(rng, 2, 2, 4))
        y = sp_multiply(x, noise)
        assert eq_in_G(ctx, x, y)
        assert eq_in_G(ctx, sp_multiply(g, x, h), sp_multiply(g, y, h))


def test_eq_rank_mismatch():
    with pytest.raises(RankMismatchError):
        eq_in_G(ctx_single(), sp_empty(2, 3), sp_empty(2, 3))


def _eq_literal(ctx, x, y):
    """The decision on syllable words: projections compared, then the
    literal kernel image of x y^-1."""
    if h_map(x) != h_map(y):
        return False
    return _k_image_literal(ctx, sp_multiply(x, sp_invert(y))).is_identity


@pytest.mark.parametrize("make_ctx", [ctx_single, ctx_double])
def test_eq_matches_literal_decision_exhaustively(make_ctx):
    # every pair with |x| + |y| <= 4, so x y^-1 reaches the commutators
    ctx = make_ctx()
    words = list(enumerate_syllable_words(2, 2, 4))
    verdicts = {True: 0, False: 0}
    for x in words:
        for y in words:
            if len(x) + len(y) > 4:
                break
            got = eq_in_G(ctx, x, y)
            assert got == _eq_literal(ctx, x, y), (x, y)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def _conjugated_context(rng, rank1, rank2):
    """A context whose u1 is a conjugate g^-1 c g of a cyclically reduced
    c that is no proper power."""
    while True:
        c, _ = cyclic_reduce(random_reduced_word(rng, rank1, rng.randint(1, 4)))
        g = random_reduced_word(rng, rank1, rng.randint(1, 3))
        u2 = random_reduced_word(rng, rank2, rng.randint(1, 3))
        try:
            return GContext(rank1, rank2, g.inverse() * c * g, u2)
        except ValueError:  # an empty or proper-power u
            continue


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_eq_matches_literal_decision_on_mixed_pairs(seed):
    rng = random.Random(seed)
    rank1, rank2 = rng.sample(range(1, 4), 2)
    ctx = _conjugated_context(rng, rank1, rank2)
    length = rng.randint(2, 40)
    x, y = _eq_long_shaped(rng, ctx, length, commutator=False)
    assert eq_in_G(ctx, x, y) and _eq_literal(ctx, x, y)
    # equal projections, unequal in G unless [v1, v2] dies
    x, y = _eq_long_shaped(rng, ctx, length, commutator=True)
    assert eq_in_G(ctx, x, y) == _eq_literal(ctx, x, y)
    # unequal projections
    factor = rng.choice((1, 2))
    letter = Word((rank1, rank2)[factor - 1], (rng.choice((1, -1)),))
    z = sp_multiply(y, ctx.embed(factor, letter))
    assert not eq_in_G(ctx, x, z) and not _eq_literal(ctx, x, z)


def test_eq_decision_reads_no_syllables(monkeypatch):
    makers = (ctx_single, ctx_double, ctx_31, lambda: split_context(2))
    rng = random.Random(71)
    cases = []
    for make_ctx in makers:
        ctx = make_ctx()
        for commutator in (False, True, True):
            x, y = _eq_long_shaped(rng, ctx, 64, commutator)
            w = sp_multiply(x, sp_invert(y))
            cases.append((make_ctx, x, y, _eq_literal(ctx, x, y),
                          _k_image_literal(ctx, w)))
        z = sp_multiply(y, ctx.embed(2, ctx.u2))
        cases.append((make_ctx, x, z, False, None))

    def refuse(*args):
        raise AssertionError("the decision read a syllable view")

    monkeypatch.setattr(freeprod, "_runs", refuse)
    monkeypatch.setattr(freeprod, "h_map", refuse)
    verdicts = set()
    for make_ctx, x, y, verdict, image in cases:
        ctx = make_ctx()  # cold coset caches
        assert eq_in_G(ctx, x, y) is verdict
        if image is not None:
            assert k_image(ctx, sp_multiply(x, sp_invert(y))) == image
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make_ctx", [
    ctx_double, ctx_single, lambda: split_context(2), lambda: split_context(3)],
    ids=["x1x2", "x1", "split2", "split3"])
def test_eq_rejects_pairs_a_finite_quotient_separates(make_ctx):
    # every oracle is a homomorphism of G, so a pair it separates is unequal
    # in G; this needs no freeness of K
    ctx = make_ctx()
    oracle = FiniteQuotientOracle.product(
        [FiniteQuotientOracle.build(ctx, 8, seed) for seed in range(20)])
    rng = random.Random(ctx.rank1 + len(ctx.u1))
    drawn = kept = 0
    for length in (32, 128, 256):
        for _ in range(16):
            x, y = _eq_long_shaped(rng, ctx, length, commutator=True)
            drawn += 1
            if oracle.distinguishes(x, y):
                kept += 1
                assert not eq_in_G(ctx, x, y), (syllable_str(x), syllable_str(y))
    assert 2 * kept >= drawn


# --- the imposed relation and the conjugation expansion ---------------------------------

def test_relation_check_trivial_and_small():
    ctx = ctx_single()
    relation_check(ctx, Word(2), Word(2))
    relation_check(ctx, fw("x2"), fw("x2"))


def test_relation_check_batch():
    ctx = ctx_double()
    rng = random.Random(50)
    from commtower.words import random_reduced_word

    for _ in range(200):
        w1 = random_reduced_word(rng, 2, rng.randint(0, 5))
        w2 = random_reduced_word(rng, 2, rng.randint(0, 5))
        report = relation_check(ctx, w1, w2)
        assert report["holds"]


def test_conj_expansion_degenerate_depth():
    factors = [((fw("x2"), fw("x2")), 1), ((fw("x1"), fw("x2 x1")), -1)]
    assert conj_expansion_check(2, 2, fw("x1"), fw("x1"), factors, 0)


def test_conj_expansion_single_factor():
    factors = [((fw("x2"), fw("x2")), 1)]
    assert conj_expansion_check(2, 2, fw("x1"), fw("x1"), factors, 2)


def test_conj_expansion_batch():
    rng = random.Random(71)
    from commtower.words import random_reduced_word

    for _ in range(150):
        x1 = random_reduced_word(rng, 2, rng.randint(0, 2))
        x2 = random_reduced_word(rng, 2, rng.randint(0, 2))
        factors = []
        for _ in range(rng.randint(1, 3)):
            c = random_reduced_word(rng, 2, rng.randint(1, 2))
            d = random_reduced_word(rng, 2, rng.randint(1, 2))
            factors.append(((c, d), rng.choice((1, -1))))
        assert conj_expansion_check(2, 2, x1, x2, factors, rng.randint(0, 4))


def test_conj_expansion_rejects_trivial_factor():
    with pytest.raises(ValueError):
        conj_expansion_check(2, 2, fw("x1"), fw("x1"),
                             [((Word(2), fw("x1")), 1)], 1)


def test_relation_check_rank_mismatch():
    with pytest.raises(RankMismatchError):
        relation_check(ctx_single(), fw("x1", 3), fw("x1"))
    with pytest.raises(RankMismatchError):
        relation_check(ctx_single(), fw("x1"), fw("x1", 3))


# --- stacked constructions against the syllable-word products they replace ------


def _literal_expand(rank1, rank2, factors):
    parts = []
    for (v1, v2), sign in factors:
        pair = [(1, v1), (2, v2)] if sign >= 0 else [(2, v2), (1, v1)]
        parts += [(f, v.inverse()) for f, v in pair] + pair
    return sp_reduce(rank1, rank2, parts)


def _literal_kernel_word(rng, rank1, rank2, max_len):
    while True:
        w = sp_empty(rank1, rank2)
        for _ in range(rng.randint(1, 3)):
            v1 = random_reduced_word(rng, rank1, rng.randint(1, 3))
            v2 = random_reduced_word(rng, rank2, rng.randint(1, 3))
            comm = _literal_expand(
                rank1, rank2, [((v1, v2), -1 if rng.random() < 0.5 else 1)])
            g = random_syllable_word(rng, rank1, rank2, 3)
            w = sp_multiply(w, sp_conjugate(comm, g))
        if len(w) <= max_len:
            return w


def _literal_relation_sides(ctx, w1, w2):
    a = ctx.embed(1, ctx.u1 * w1)
    b = ctx.embed(2, ctx.u2 * w2)
    e1 = ctx.embed(1, w1)
    e2 = ctx.embed(2, w2)
    return sp_commutator(a, b), sp_multiply(
        sp_commutator(a, e2), sp_commutator(e2, e1), sp_commutator(e1, b))


def _literal_conj_expansion_sides(rank1, rank2, x1, x2, factors, n):
    a = x1 ** n
    b = x2 ** n
    sp_a = sp_reduce(rank1, rank2, [(1, a)])
    sp_b = sp_reduce(rank1, rank2, [(2, b)])
    middle = _literal_expand(rank1, rank2, factors)
    lhs = sp_multiply(sp_invert(sp_b), sp_invert(sp_a), middle, sp_a, sp_b)
    rhs = sp_empty(rank1, rank2)
    for (c, d), delta in factors:
        ca = sp_reduce(rank1, rank2, [(1, c * a)])
        db = sp_reduce(rank1, rank2, [(2, d * b)])
        block = sp_multiply(
            sp_commutator(sp_b, ca),
            sp_commutator(ca, db),
            sp_commutator(db, sp_a),
            sp_commutator(sp_a, sp_b),
        )
        rhs = sp_multiply(rhs, block if delta >= 0 else sp_invert(block))
    return lhs, rhs


RANK_PAIRS = ((1, 1), (2, 2), (2, 3), (3, 1))


@pytest.mark.parametrize("rank1, rank2", RANK_PAIRS)
def test_random_kernel_word_draws_like_literal(rank1, rank2):
    # the same words from the same random stream; at max-len 4 a draw takes
    # about a hundred drafts, so it gets fewer draws
    for max_len, draws in ((4, 20), (16, 160), (24, 160), (40, 160)):
        fast = random.Random(100 * rank1 + 10 * rank2 + max_len)
        literal = random.Random(100 * rank1 + 10 * rank2 + max_len)
        for _ in range(draws):
            w = random_kernel_word(fast, rank1, rank2, max_len)
            assert w == _literal_kernel_word(literal, rank1, rank2, max_len)
            assert fast.getstate() == literal.getstate()
            assert len(w) <= max_len and h_map(w) == (
                Word(rank1), Word(rank2))


def _random_factors(rng, rank1, rank2, count, min_len):
    return [((random_reduced_word(rng, rank1, rng.randint(min_len, 3)),
              random_reduced_word(rng, rank2, rng.randint(min_len, 3))),
             rng.choice((1, -1))) for _ in range(count)]


def test_expand_basis_product_like_literal():
    rng = random.Random(33)
    for rank1, rank2 in RANK_PAIRS:
        for _ in range(300):
            factors = _random_factors(rng, rank1, rank2, rng.randint(0, 4), 0)
            assert expand_basis_product(rank1, rank2, factors) == \
                _literal_expand(rank1, rank2, factors)
        assert expand_basis_product(rank1, rank2, []) == sp_empty(rank1, rank2)
    # a factor of the wrong rank after a good one, in either order of a pair
    good = ((fw("x1"), fw("x2")), 1)
    for bad in (((fw("x1", 3), fw("x1")), 1), ((fw("x1"), fw("x1", 3)), -1)):
        for expand in (expand_basis_product, _literal_expand):
            with pytest.raises(RankMismatchError):
                expand(2, 2, [good, bad])


def test_relation_sides_like_literal():
    rng = random.Random(34)
    for ctx in (ctx_single(), ctx_double(), ctx_31(),
                GContext(2, 3, fw("x1 X2"), fw("x2 x3", 3))):
        pairs = [(ctx.u1.inverse(), ctx.u2.inverse()),
                 (ctx.u1.inverse(), Word(ctx.rank2)),
                 (Word(ctx.rank1), ctx.u2 * ctx.u2)]
        pairs += [(random_reduced_word(rng, ctx.rank1, rng.randint(0, 6)),
                   random_reduced_word(rng, ctx.rank2, rng.randint(0, 6)))
                  for _ in range(200)]
        for w1, w2 in pairs:
            lhs, rhs = freeprod._relation_sides(ctx, w1, w2)
            literal_lhs, literal_rhs = _literal_relation_sides(ctx, w1, w2)
            assert lhs == literal_lhs
            assert rhs == literal_rhs


def test_conj_expansion_sides_like_literal():
    rng = random.Random(35)
    for rank1, rank2 in RANK_PAIRS:
        for _ in range(200):
            x1 = random_reduced_word(rng, rank1, rng.randint(0, 2))
            x2 = random_reduced_word(rng, rank2, rng.randint(0, 2))
            factors = _random_factors(rng, rank1, rank2, rng.randint(1, 3), 1)
            args = (rank1, rank2, x1, x2, factors, rng.randint(0, 4))
            lhs, rhs = freeprod._conj_expansion_sides(*args)
            literal_lhs, literal_rhs = _literal_conj_expansion_sides(*args)
            assert lhs == literal_lhs
            assert rhs == literal_rhs


def test_conj_support_check():
    assert conj_support_check(fw("x1 x2"), fw("x2"))
    assert conj_support_check(fw("x1"), fw("x2"))
    with pytest.raises(ValueError):
        conj_support_check(fw("x1 x2 X1"), fw("x2"))


# --- the finite quotient oracle -----------------------------------------------------------

def test_oracle_deterministic():
    ctx = ctx_single()
    a = FiniteQuotientOracle.build(ctx, 8, 17)
    b = FiniteQuotientOracle.build(ctx, 8, 17)
    assert a == b


def test_oracle_kills_relator():
    ctx = ctx_double()
    for seed in range(10):
        oracle = FiniteQuotientOracle.build(ctx, 8, seed)
        assert oracle.apply(ctx.relator()) == tuple(range(8))


def test_oracle_distinguishes_bd_from_db():
    ctx = ctx_single()
    assert any(
        FiniteQuotientOracle.build(ctx, 8, seed).distinguishes(sw("b d"), sw("d b"))
        for seed in range(200))


def test_oracle_never_refutes_equalities():
    ctx = ctx_double()
    oracles = [FiniteQuotientOracle.build(ctx, 8, 300 + i) for i in range(10)]
    rng = random.Random(23)
    for _ in range(100):
        x = random_syllable_word(rng, 2, 2, 6)
        noise = sp_conjugate(ctx.relator(), random_syllable_word(rng, 2, 2, 4))
        y = sp_multiply(x, noise)
        assert eq_in_G(ctx, x, y)
        assert not any(o.distinguishes(x, y) for o in oracles)


def test_oracle_is_homomorphism_on_samples():
    ctx = ctx_double()
    oracle = FiniteQuotientOracle.build(ctx, 8, 2)
    rng = random.Random(3)
    for _ in range(50):
        x = random_syllable_word(rng, 2, 2, 6)
        y = random_syllable_word(rng, 2, 2, 6)
        from commtower.freeprod import _perm_mul

        assert oracle.apply(sp_multiply(x, y)) == _perm_mul(
            oracle.apply(x), oracle.apply(y))


def _literal_apply(oracle, x):
    out = tuple(range(oracle.degree))
    for factor, s in x.syllables:
        images = oracle.images1 if factor == 1 else oracle.images2
        out = _perm_mul(out, _eval_word_perms(images, s, oracle.degree))
    return out


def test_oracle_apply_matches_literal_fold():
    rng = random.Random(29)
    for ctx in (ctx_single(), ctx_double(), ctx_31()):
        oracles = [FiniteQuotientOracle.build(ctx, degree, seed)
                   for degree, seed in ((5, 1), (6, 2), (8, 3))]
        # 64 x 20 = 1280 points in five blocks
        oracles.append(FiniteQuotientOracle.product(
            [FiniteQuotientOracle.build(ctx, 64, 20 + i) for i in range(20)]))
        for oracle in oracles:
            for _ in range(40):
                x = random_syllable_word(rng, ctx.rank1, ctx.rank2, 16)
                assert oracle.apply(x) == _literal_apply(oracle, x)


def _u1_image(oracle, ctx):
    return _eval_word_perms(oracle.images1, ctx.u1, oracle.degree)


@pytest.mark.parametrize("degree", [2, 3, 8, 11, 16, 64])
def test_oracle_images_centralize_u1_image(degree):
    for ctx in (ctx_double(), ctx_single(), ctx_31()):
        for seed in range(6):
            oracle = FiniteQuotientOracle.build(ctx, degree, seed)
            sigma = _u1_image(oracle, ctx)
            assert len(oracle.images2) == ctx.rank2
            for image in oracle.images2:
                assert sorted(image) == list(range(degree))
                assert _perm_mul(image, sigma) == _perm_mul(sigma, image)
            assert oracle.apply(ctx.relator()) == tuple(range(degree))


def test_centralizer_draws_cover_exactly_the_centralizer():
    s4 = list(itertools.permutations(range(4)))
    # one permutation of each cycle type of S_4: 1^4, 2 1^2, 2^2, 3 1, 4
    for sigma in ((0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 3, 2), (1, 2, 0, 3),
                  (1, 2, 3, 0)):
        centralizer = {t for t in s4 if _perm_mul(t, sigma) == _perm_mul(sigma, t)}
        groups = _cycles_by_length(sigma)
        drawn = {_centralizer_perm(groups, random.Random(seed))
                 for seed in range(2000)}
        assert drawn == centralizer


def test_oracle_images_are_not_all_powers_of_u1_image():
    # an oracle whose factor-two images are all powers of sigma is weak
    ctx = ctx_double()
    strong = False
    for seed in range(3):
        oracle = FiniteQuotientOracle.build(ctx, 16, seed)
        sigma = _u1_image(oracle, ctx)
        powers = {tuple(range(16))}
        p = sigma
        while p not in powers:
            powers.add(p)
            p = _perm_mul(p, sigma)
        strong = strong or any(image not in powers for image in oracle.images2)
    assert strong


def test_oracle_build_draws_one_random_perm_per_factor_one_generator(monkeypatch):
    honest = freeprod._random_perm
    calls = []

    def counting(rng, m):
        calls.append(m)
        return honest(rng, m)

    monkeypatch.setattr(freeprod, "_random_perm", counting)
    for ctx in (ctx_double(), ctx_31()):
        calls.clear()
        oracle = FiniteQuotientOracle.build(ctx, 64, 3)
        assert calls == [64] * ctx.rank1
        assert oracle.resamples == 0
        # factor-one images come first off the seeded stream
        rng = random.Random(1_000_003 * 3 + 7 * 64)
        assert oracle.images1 == tuple(honest(rng, 64) for _ in range(ctx.rank1))


def _rank_context(rank1, rank2):
    return GContext(rank1, rank2, fw("x1", rank1), fw("x1", rank2))


def _free_oracle(rng, degree, seed, rank1, rank2):
    """An oracle whose factor-two images are uniform permutations: usually no
    homomorphism of G, so it refutes equalities that hold in G."""
    def perms(n):
        return tuple(freeprod._random_perm(rng, degree) for _ in range(n))
    return FiniteQuotientOracle(degree, seed, perms(rank1), perms(rank2))


def _shifted_concat(oracles, w):
    out, offset = [], 0
    for o in oracles:
        out += [point + offset for point in o.apply(w)]
        offset += o.degree
    return tuple(out)


@given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
def test_product_apply_is_shifted_concatenation(seed, many):
    # many: 5-40 factors of odd degrees, so the product's 256-point blocks
    # end off multiples of 256
    rng = random.Random(seed)
    rank1, rank2 = rng.randint(1, 3), rng.randint(1, 3)
    ctx = _rank_context(rank1, rank2)
    oracles = []
    for i in range(rng.randint(5, 40) if many else rng.randint(1, 5)):
        degree = rng.randrange(3, 65, 2) if many else rng.randint(2, 11)
        oracles.append(
            FiniteQuotientOracle.build(ctx, degree, seed + i)
            if rng.random() < 0.5 else
            _free_oracle(rng, degree, seed + i, rank1, rank2))
    product = FiniteQuotientOracle.product(oracles)
    assert product.degree == sum(o.degree for o in oracles)
    assert product.seed == oracles[0].seed
    for _ in range(5):
        x = random_syllable_word(rng, rank1, rank2, 16)
        assert product.apply(x) == _shifted_concat(oracles, x)


def test_oracle_needs_blocks_of_at_most_256_points():
    cycle = tuple(range(1, 300)) + (0,)
    with pytest.raises(ValueError, match="more than 256 points"):
        FiniteQuotientOracle(300, 0, (cycle,), (tuple(range(300)),))
    # two 150-cycles, and a reflection of each half: two blocks
    cycles = tuple(range(1, 150)) + (0,) + tuple(range(151, 300)) + (150,)
    flips = tuple(range(149, -1, -1)) + tuple(range(299, 149, -1))
    oracle = FiniteQuotientOracle(300, 0, (cycles,), (flips,))
    x = sw("a a C a", 1, 1)
    assert oracle.apply(x) == _literal_apply(oracle, x)


def test_product_distinguishes_exactly_when_some_factor_does():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    equal_in_G_refuted = 0
    for trial in range(300):
        rank1, rank2 = rng.randint(1, 3), rng.randint(1, 3)
        ctx = _rank_context(rank1, rank2)
        oracles = [FiniteQuotientOracle.build(ctx, rng.randint(2, 11), trial)
                   for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            oracles.insert(rng.randrange(len(oracles) + 1), _free_oracle(
                rng, rng.randint(2, 11), trial, rank1, rank2))
        product = FiniteQuotientOracle.product(oracles)
        x = random_syllable_word(rng, rank1, rank2, 8)
        noise = sp_conjugate(ctx.relator(),
                             random_syllable_word(rng, rank1, rank2, 4))
        y = sp_multiply(x, noise)                      # equal to x in G
        z = random_syllable_word(rng, rank1, rank2, 8)
        for a, b in ((x, y), (x, z), (x, x)):
            refuted = any(o.distinguishes(a, b) for o in oracles)
            assert product.distinguishes(a, b) == refuted
            seen[refuted] += 1
            equal_in_G_refuted += refuted and b is y
    assert seen[True] > 50 and seen[False] > 50
    assert equal_in_G_refuted > 10                     # only a free factor can


def test_product_rejects_no_factors_and_mixed_ranks():
    with pytest.raises(ValueError):
        FiniteQuotientOracle.product([])
    with pytest.raises(ValueError):
        FiniteQuotientOracle.product([
            FiniteQuotientOracle.build(ctx_double(), 4, 1),
            FiniteQuotientOracle.build(ctx_31(), 4, 1)])
    with pytest.raises(ValueError):
        FiniteQuotientOracle(1, 0, ((0,),), ((0,),))


# --- enumeration and the commutation scan ----------------------------------------------------

def test_enumerate_counts_rank22():
    words = list(enumerate_syllable_words(2, 2, 2))
    assert len(words) == 1 + 8 + 56
    assert len(set(words)) == len(words)


def test_scan_abelian_context():
    # one generator per factor: the quotient is free abelian of rank 2
    ctx = GContext(1, 1, parse_word("x1", 1), parse_word("x1", 1))
    report = commutation_scan(ctx, max_len=3, budget=200, seed=9)
    assert report.counterexamples == ()
    assert report.commuting_pairs_found == report.pairs_tested


def test_scan_double_context_small():
    report = commutation_scan(ctx_double(), max_len=2, budget=300, seed=9)
    assert report.counterexamples == ()
    assert report.commuting_pairs_found >= 50
    assert report.pairs_tested > 300


def test_scan_deterministic():
    a = commutation_scan(ctx_double(), max_len=2, budget=100, seed=41)
    b = commutation_scan(ctx_double(), max_len=2, budget=100, seed=41)
    assert a.to_json_dict() == b.to_json_dict()


def test_scan_counts_pinned():
    report = commutation_scan(ctx_double(), max_len=2, budget=100, seed=41)
    assert report.pairs_tested == 293
    assert report.commuting_pairs_found == 180


def test_enumeration_is_graded():
    lengths = [len(w) for w in enumerate_syllable_words(2, 2, 3)]
    assert lengths == sorted(lengths)
    assert lengths[-1] == 3


def test_random_syllable_word_stream_pinned():
    rng = random.Random(7)
    assert [syllable_str(random_syllable_word(rng, 2, 2, 8))
            for _ in range(3)] == [
        "a2 | b1 b2 | a1 a1",
        "A1 A2 | B1 | a1 | B1 | A1 A1 A1",
        "b2 | a1 a2 a1 | B1 | A2",
    ]


def test_scan_report_schema():
    report = commutation_scan(ctx_single(), max_len=1, budget=10, seed=1)
    assert list(report.to_json_dict()) == [
        "ctx", "max_len", "budget", "seed", "pairs_tested",
        "commuting_pairs_found", "counterexamples"]


def _scan_literal(ctx, max_len, budget, seed):
    """The commutation scan as the full double loop over the enumerated
    words, each pair tested on its own."""
    pairs_tested = commuting = 0
    counterexamples = []

    def consider(x, y):
        nonlocal pairs_tested, commuting
        pairs_tested += 1
        c = sp_commutator(x, y)
        if c.is_identity:
            commuting += 1
            return
        if not freeprod.eq_in_G(ctx, sp_multiply(x, c), sp_multiply(c, x)):
            return
        if not freeprod.eq_in_G(ctx, sp_multiply(y, c), sp_multiply(c, y)):
            return
        commuting += 1
        if not freeprod.is_trivial_in_G(ctx, c):
            counterexamples.append({"x": syllable_str(x), "y": syllable_str(y)})

    words = list(enumerate_syllable_words(ctx.rank1, ctx.rank2, max_len))
    for x in words:
        for y in words:
            if len(x) + len(y) > max_len:
                break  # the enumeration is graded by length
            consider(x, y)
    rng = random.Random(seed)
    for _ in range(budget):
        x = random_syllable_word(rng, ctx.rank1, ctx.rank2, 2 * max_len)
        y = random_syllable_word(rng, ctx.rank1, ctx.rank2, 2 * max_len)
        consider(x, y)
    return ScanReport(ctx, max_len, budget, seed, pairs_tested, commuting,
                      tuple(counterexamples))


def ctx_12():
    return GContext(1, 2, fw("x1", 1), fw("x1 x2"))


def ctx_31_long():
    return GContext(3, 1, fw("x1 x2 X3", 3), fw("x1", 1))


@pytest.mark.parametrize("make_ctx, max_len", [
    (ctx_double, 4), (ctx_single, 3), (lambda: split_context(2), 3),
    (ctx_31_long, 3), (ctx_12, 4)])
def test_orbit_scan_matches_literal_scan(make_ctx, max_len):
    # unequal ranks pin the letter count in the (e, y), (y, e) pair count
    for n in range(max_len + 1):
        ctx = make_ctx()
        assert commutation_scan(ctx, n, 25, n) == _scan_literal(ctx, n, 25, n)


def test_orbit_scan_lists_counterexamples_like_literal_scan(monkeypatch):
    # Declare commutators nontrivial by a key that conjugation and inversion
    # in F1 * F2 keep (the cyclically reduced length over both factors'
    # letters), so the forced counterexamples are unions of orbits.
    raw_is_trivial = freeprod.is_trivial_in_G

    def cyclic_length(c):
        letters = tuple(let if f == 1 else let + (c.rank1 if let > 0 else -c.rank1)
                        for f, s in c.syllables for let in s.letters)
        return len(cyclic_reduce(Word(c.rank1 + c.rank2, letters))[0])

    def forced(ctx, c):
        return cyclic_length(c) not in (4, 8) and raw_is_trivial(ctx, c)

    monkeypatch.setattr(freeprod, "is_trivial_in_G", forced)
    for ctx in (ctx_single(), GContext(1, 1, fw("x1", 1), fw("x1", 1)),
                ctx_12()):
        orbit = commutation_scan(ctx, 4, 60, 3)
        literal = _scan_literal(ctx, 4, 60, 3)
        assert orbit == literal
        assert 0 < len(orbit.counterexamples) < orbit.commuting_pairs_found


@pytest.mark.parametrize("max_len, budget", [(-1, 0), (0, -1)])
def test_scan_refuses_negative_bounds(max_len, budget):
    with pytest.raises(ValueError, match="must be >= 0"):
        commutation_scan(ctx_double(), max_len, budget, 1)


def test_split_context_scans_clean():
    report = commutation_scan(split_context(2), max_len=2, budget=200, seed=6)
    assert report.counterexamples == ()


# --- text form --------------------------------------------------------------------------------

def test_parse_syllable_word_forms():
    assert sw("e").is_identity
    digit = sw("a1 | b1 | A1")
    assert digit.syllables == (
        (1, fw("x1")), (2, fw("x1")), (1, fw("X1")))
    assert sw("a c A") == digit
    assert sw("a1 b1 A1") == digit  # the separator is optional


def test_parse_syllable_word_rejects():
    with pytest.raises(ValueError):
        sw("z9")
    with pytest.raises(ValueError):
        sw("a0")
    with pytest.raises(ValueError):
        sw("a3")  # rank 2 factors
    with pytest.raises(ValueError):
        sw("a1 | | b1")


def test_syllable_str_round_trip():
    rng = random.Random(14)
    for _ in range(100):
        w = random_syllable_word(rng, 2, 2, 8)
        assert parse_syllable_word(syllable_str(w), 2, 2) == w


def test_kword_validation():
    sym = KBasisSymbol(fw("x2"), fw("x2"), "A")
    with pytest.raises(ValueError):
        KWord(((sym, 1), (sym, -1)))


# --- context validation -----------------------------------------------------------------------

def test_context_rejects_proper_powers():
    with pytest.raises(ValueError):
        GContext(2, 2, parse_word("x1 x1", 2), parse_word("x1", 2))
    with pytest.raises(ValueError):
        GContext(2, 2, Word(2), parse_word("x1", 2))


def test_context_json():
    assert ctx_double().to_json_dict() == {
        "rank1": 2, "rank2": 2, "u1": "x1 x2", "u2": "x1 x2"}


def test_replaced_context_starts_with_empty_coset_caches():
    x1, x2 = fw("x1"), fw("x2")
    ctx = GContext(2, 2, x1, x1)
    assert eq_in_G(ctx, sw("a c A"), sw("c"))       # caches A -> e for <a>
    moved = dataclasses.replace(ctx, u1=x2)
    assert not eq_in_G(moved, sw("a c A"), sw("c"))
    assert not eq_in_G(GContext(2, 2, x2, x1), sw("a c A"), sw("c"))
    with pytest.raises(TypeError):
        GContext(2, 2, x1, x1, {})

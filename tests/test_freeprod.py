import itertools
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
    _split_factors,
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
    kword_reduce,
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
    cyclic_reduce,
    parse_word,
    random_reduced_word,
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
             _split_factors(rank1, rank2, flat),
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
        kw = kword_reduce(out)
        pieces.append(kw if sign >= 0 else kw.inverse())
    return kword_reduce(itertools.chain.from_iterable(kw.symbols for kw in pieces))


def test_k_image_matches_literal_pipeline():
    for seed, ctx in enumerate((ctx_single(), ctx_double(), ctx_31())):
        rng = random.Random(900 + seed)
        for _ in range(700):
            w = random_kernel_word(rng, ctx.rank1, ctx.rank2, 40)
            assert k_image(ctx, w) == _k_image_literal(ctx, w)


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


def test_oracle_apply_matches_literal_fold():
    from commtower.freeprod import _eval_word_perms, _perm_mul

    rng = random.Random(29)
    ctx_31 = GContext(3, 1, fw("x1 x3", 3), fw("x1", 1))
    for ctx in (ctx_single(), ctx_double(), ctx_31):
        for degree, seed in ((5, 1), (6, 2), (8, 3)):
            oracle = FiniteQuotientOracle.build(ctx, degree, seed)
            for _ in range(40):
                x = random_syllable_word(rng, ctx.rank1, ctx.rank2, 16)
                out = tuple(range(degree))
                for factor, s in x.syllables:
                    images = oracle.images1 if factor == 1 else oracle.images2
                    out = _perm_mul(out, _eval_word_perms(images, s, degree))
                assert oracle.apply(x) == out


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


@pytest.mark.parametrize("make_ctx, max_len", [
    (ctx_double, 4), (ctx_single, 3), (lambda: split_context(2), 3)])
def test_orbit_scan_matches_literal_scan(make_ctx, max_len):
    for n in range(1, max_len + 1):
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
    for ctx in (ctx_single(), GContext(1, 1, fw("x1", 1), fw("x1", 1))):
        orbit = commutation_scan(ctx, 4, 60, 3)
        literal = _scan_literal(ctx, 4, 60, 3)
        assert orbit == literal
        assert 0 < len(orbit.counterexamples) < orbit.commuting_pairs_found


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

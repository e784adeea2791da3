import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commtower import words
from commtower.words import (
    AlphabetError,
    RankMismatchError,
    Word,
    commutator,
    conjugate,
    coset_rep,
    cyclic_reduce,
    cyclic_subgroup_exponent,
    exponent_sum,
    is_conjugate,
    is_cyclically_reduced,
    parse_word,
    primitive_root,
    random_reduced_word,
    reduce_word,
    reduced_words,
    shortlex_key,
    support,
    word_str,
)


def w(text, rank=2):
    return parse_word(text, rank)


def letters_st(rank, max_len):
    return st.lists(
        st.integers(min_value=-rank, max_value=rank).filter(bool),
        max_size=max_len)


def words_st(rank, max_len):
    return letters_st(rank, max_len).map(lambda ls: reduce_word(ls, rank))


# --- reduction -------------------------------------------------------------

def test_reduce_examples():
    assert reduce_word([1, -1], 2).letters == ()
    assert reduce_word([1, 2, -2, 1, -1], 2).letters == (1,)
    assert reduce_word([1, 2], 2).letters == (1, 2)


@given(letters_st(3, 30))
def test_reduce_idempotent(raw):
    once = reduce_word(raw, 3)
    assert reduce_word(once.letters, 3) == once


def test_reduce_rejects_bad_letters():
    with pytest.raises(AlphabetError):
        reduce_word([0], 2)
    with pytest.raises(AlphabetError):
        reduce_word([3], 2)
    with pytest.raises(AlphabetError):
        reduce_word([-5], 4)


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


# --- multiplication and inversion -------------------------------------------

def test_multiply_examples():
    a = w("x1")
    assert (a * a.inverse()).is_identity


def test_multiply_interior_cancellation():
    # (ab)(b^-1 c) = ac over rank 3
    u = parse_word("x1 x2", 3)
    v = parse_word("X2 x3", 3)
    assert word_str(u * v) == "x1 x3"


def test_invert_example():
    assert word_str(parse_word("x1 x2", 2).inverse()) == "X2 X1"


def test_multiply_rank_mismatch():
    with pytest.raises(RankMismatchError):
        parse_word("x1", 2) * parse_word("x1", 3)


@given(words_st(2, 20), words_st(2, 20), words_st(2, 20))
def test_group_laws(u, v, z):
    assert (u * v) * z == u * (v * z)
    assert (u * u.inverse()).is_identity
    assert (u.inverse().inverse()) == u


@given(words_st(2, 12), st.integers(min_value=-4, max_value=4))
def test_pow_matches_repeated_multiplication(u, k):
    expected = Word(2)
    base = u if k >= 0 else u.inverse()
    for _ in range(abs(k)):
        expected = expected * base
    assert u ** k == expected


@given(words_st(3, 6), words_st(3, 4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-50, max_value=50))
def test_pow_through_core_matches_reduction(core, g, e, k):
    # conjugated and proper-power bases, whose powers cancel at every seam
    power = reduce_word(core.letters * e, 3)
    for base in (core, conjugate(core, g), power, conjugate(power, g)):
        inverse = tuple(-let for let in reversed(base.letters))
        expected = reduce_word(
            (base.letters if k >= 0 else inverse) * abs(k), 3).letters
        assert (base ** k).letters == expected


# --- commutator --------------------------------------------------------------

def test_commutator_definition():
    a, b = w("x1"), w("x2")
    assert word_str(commutator(a, b)) == "X1 X2 x1 x2"
    assert commutator(a, a).is_identity


def test_commutator_derived_example():
    # [ab, c] expands to b^-1 a^-1 c^-1 a b c
    ab = parse_word("x1 x2", 3)
    c = parse_word("x3", 3)
    assert word_str(commutator(ab, c)) == "X2 X1 X3 x1 x2 x3"


def test_commutator_rank_mismatch():
    with pytest.raises(RankMismatchError):
        commutator(parse_word("x1", 2), parse_word("x1", 3))


# --- cyclic reduction and conjugacy ------------------------------------------

def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(w("x1 x2 X1"))
    assert (word_str(core), word_str(conj)) == ("x2", "X1")
    core, conj = cyclic_reduce(w("x1 x2"))
    assert (word_str(core), word_str(conj)) == ("x1 x2", "e")
    core, conj = cyclic_reduce(w("X1 x2 x1"))
    assert (word_str(core), word_str(conj)) == ("x2", "x1")


@given(words_st(3, 24))
def test_cyclic_reduce_reassembles(u):
    core, conj = cyclic_reduce(u)
    assert conj.inverse() * core * conj == u
    assert is_cyclically_reduced(core)
    assert core.is_identity == u.is_identity


def _rotations(word):
    ls = word.letters
    return {ls[i:] + ls[:i] for i in range(max(1, len(ls)))}


def test_is_conjugate_examples():
    assert is_conjugate(w("x1 x2"), w("x2 x1"))
    assert not is_conjugate(w("x1"), w("x2"))


def test_is_conjugate_rotation_oracle():
    # Both candidates are cyclically reduced, so conjugacy is exactly
    # rotation equality of the letter tuples; check against that directly.
    u = w("x1 x2 X1 X2")
    rot = w("x2 X1 X2 x1")          # a genuine rotation of u
    inv = u.inverse()               # reversed-and-negated, NOT a rotation
    assert rot.letters in _rotations(u)
    assert inv.letters not in _rotations(u)
    assert is_conjugate(u, rot)
    assert not is_conjugate(u, inv)


@given(words_st(2, 12), words_st(2, 12), words_st(2, 8))
def test_is_conjugate_properties(u, v, g):
    assert is_conjugate(u, u)
    assert is_conjugate(u, v) == is_conjugate(v, u)
    assert is_conjugate(u, g.inverse() * u * g)


@given(words_st(2, 10), words_st(2, 6), words_st(2, 6))
def test_is_conjugate_transitive_on_conjugates(u, g, h):
    v = g.inverse() * u * g
    w = h.inverse() * v * h
    assert is_conjugate(u, v) and is_conjugate(v, w) and is_conjugate(u, w)


@given(words_st(2, 10), words_st(2, 10))
def test_conjugate_support_grows(core, g):
    # generators of a cyclically reduced word survive conjugation
    cr, _ = cyclic_reduce(core)
    conj = g.inverse() * cr * g
    assert support(cr) <= support(conj)


# --- primitive roots ---------------------------------------------------------

def test_primitive_root_examples():
    root, exp = primitive_root(w("x1 x2 x1 x2"))
    assert (word_str(root), exp) == ("x1 x2", 2)
    root, exp = primitive_root(w("x1"))
    assert (word_str(root), exp) == ("x1", 1)
    cube = parse_word("x1 x1 x2", 2) ** 3
    root, exp = primitive_root(cube)
    assert (word_str(root), exp) == ("x1 x1 x2", 3)


def test_primitive_root_empty_raises():
    with pytest.raises(ValueError):
        primitive_root(Word(2))


@given(words_st(2, 8), st.integers(min_value=1, max_value=4))
def test_primitive_root_reconstructs(base, k):
    word = base ** k
    if word.is_identity:
        return
    root, exp = primitive_root(word)
    assert root ** exp == word
    assert primitive_root(root)[1] == 1


# --- support and exponent sums ----------------------------------------------

def test_support_examples():
    assert support(w("X1 X2 x1 x2")) == {1, 2}
    assert support(Word(2)) == frozenset()
    assert support(parse_word("x1 x3 X1", 3)) == {1, 3}


def test_exponent_sum_examples():
    assert exponent_sum(w("X1 X2 x1 x2")) == (0, 0)
    assert exponent_sum(w("x1 x1 x2 X1")) == (1, 1)
    assert exponent_sum(Word(2)) == (0, 0)


@given(words_st(3, 16), words_st(3, 16))
def test_exponent_sum_homomorphism(u, v):
    total = exponent_sum(u * v)
    assert total == tuple(
        a + b for a, b in zip(exponent_sum(u), exponent_sum(v)))


# --- cyclic subgroup membership ----------------------------------------------

def test_cyclic_subgroup_exponent_examples():
    aa = w("x1 x1")
    assert cyclic_subgroup_exponent(aa, w("x1 x1 x1 x1")) == 2
    assert cyclic_subgroup_exponent(w("x1"), w("x2")) is None
    ab = w("x1 x2")
    assert cyclic_subgroup_exponent(ab, ab ** -3) == -3
    with pytest.raises(ValueError):
        cyclic_subgroup_exponent(Word(2), w("x1"))


@given(words_st(2, 6), st.integers(min_value=-5, max_value=5))
def test_cyclic_subgroup_exponent_roundtrip(u, k):
    if u.is_identity:
        return
    found = cyclic_subgroup_exponent(u, u ** k)
    assert found is not None
    assert u ** found == u ** k


def _seeded_pairs(seed, count, max_len):
    # (u, w) over ranks 1-3 with |u| <= 6: plain random u, conjugated short
    # cores (not cyclically reduced) and proper powers; half of the w are
    # premultiplied by a power of u so that their coset minimum lies inside
    rng = random.Random(seed)
    for i in range(count):
        rank = rng.randint(1, 3)
        kind = i % 3
        if kind == 0:
            u = random_reduced_word(rng, rank, rng.randint(1, 6))
        elif kind == 1:
            u = conjugate(random_reduced_word(rng, rank, rng.randint(1, 2)),
                          random_reduced_word(rng, rank, rng.randint(1, 2)))
        else:
            u = random_reduced_word(rng, rank, rng.randint(1, 3)) ** 2
        word = random_reduced_word(rng, rank, rng.randint(0, max_len))
        if i % 2:
            word = u ** rng.randint(-6, 6) * word
        yield u, word


def _cyclic_subgroup_exponent_literal(u, v):
    # the multiply-and-compare search over |k| <= 2|v|/|core(u)| + 2
    if len(v) == 0:
        return 0
    core, _ = cyclic_reduce(u)
    bound = 2 * len(v) // len(core) + 2
    acc = u ** (-bound)
    for k in range(-bound, bound + 1):
        if acc == v:
            return k
        acc = acc * u
    return None


def test_cyclic_subgroup_exponent_matches_literal_search():
    rng = random.Random(7)
    members = 0
    for u, word in _seeded_pairs(41, 3000, 12):
        v = u ** rng.randint(-7, 7) if rng.random() < 0.5 else word
        found = cyclic_subgroup_exponent(u, v)
        assert found == _cyclic_subgroup_exponent_literal(u, v)
        members += found is not None
    assert members > 1000


# --- coset representatives ---------------------------------------------------

def _coset_min_brute(u, word, rank):
    # enumerate candidates in shortlex order; the first coset member wins
    for cand in reduced_words(rank, len(word)):
        diff = cand * word.inverse()
        if diff.is_identity:
            return cand
        if not u.is_identity and cyclic_subgroup_exponent(u, diff) is not None:
            return cand
    return word


def _coset_window(u, word):
    # every candidate u^k w of the window, multiplied out
    core, conj = cyclic_reduce(u)
    bound = (2 * len(word) + 2 * len(conj)) // len(core) + 2
    acc = u ** (-bound)
    for _ in range(-bound, bound + 1):
        yield acc * word
        acc = acc * u


def _coset_rep_literal(u, word):
    # the window's shortlex minimum
    return min(_coset_window(u, word), key=lambda c: shortlex_key(c.letters))


def test_coset_rep_examples():
    aa = w("x1 x1")
    target = w("x1 x1 x2")
    assert word_str(coset_rep(aa, target)) == "x2"
    assert _coset_min_brute(aa, target, 2) == coset_rep(aa, target)
    assert coset_rep(w("x1"), w("x1") ** 5).is_identity
    assert word_str(coset_rep(w("x1"), w("x2"))) == "x2"


def test_coset_rep_empty_u_raises():
    with pytest.raises(ValueError):
        coset_rep(Word(2), w("x1"))


@given(words_st(2, 5), words_st(2, 8), st.integers(min_value=-5, max_value=5))
def test_coset_rep_stable_on_coset(u, word, k):
    if u.is_identity:
        return
    assert coset_rep(u, (u ** k) * word) == coset_rep(u, word)


@given(words_st(3, 6), words_st(3, 12))
def test_coset_rep_idempotent(u, word):
    # the kernel rewriting reads symbol kinds off this
    if u.is_identity:
        return
    rep = coset_rep(u, word)
    assert coset_rep(u, rep) == rep


@given(words_st(2, 4), words_st(2, 6))
def test_coset_rep_matches_brute_force(u, word):
    if u.is_identity:
        return
    assert coset_rep(u, word) == _coset_min_brute(u, word, 2)


def test_coset_rep_matches_literal_window():
    for u, word in _seeded_pairs(5, 2000, 60):
        assert coset_rep(u, word) == _coset_rep_literal(u, word)


def _v_law(u, word):
    # (|conj| + |v| - p, |core|, t) of the coset_rep lemma, with v = conj w
    # matched letter by letter against (core^-1)^oo, then core^oo
    core, conj = cyclic_reduce(u)
    v = (conj * word).letters
    m = len(core)
    for s, period in ((1, core.inverse().letters), (-1, core.letters)):
        p = 0
        while p < len(v) and v[p] == period[p % m]:
            p += 1
        if p:
            break
    return len(conj) + len(v) - p, m, Fraction(s * p, m)


def _long_prefix_pairs(seed, count):
    # w = u^k w' with |k| <= 40 and |w'| <= 300, so the matched prefix of
    # v = conj w spans many periods of the core
    rng = random.Random(seed)
    for u, tail in _seeded_pairs(seed, count, 300):
        yield u, u ** rng.randint(-40, 40) * tail


def test_coset_lengths_follow_the_v_law():
    for u, word in _seeded_pairs(17, 600, 30):
        base, m, t = _v_law(u, word)
        core, conj = cyclic_reduce(u)
        bound = (2 * len(word) + 2 * len(conj)) // len(core) + 2
        for k in range(-bound, bound + 1):
            length = len(u ** k * word)
            if k == t:
                assert length <= base
            else:
                assert length == base + m * abs(k - t)


def test_coset_rep_matches_literal_window_on_long_prefixes():
    ties = 0
    for u, word in _long_prefix_pairs(29, 100):
        assert coset_rep(u, word) == _coset_rep_literal(u, word)
        ties += _v_law(u, word)[2].denominator == 2
    assert ties > 0


def test_coset_rep_builds_one_candidate(monkeypatch):
    # one junction gives v = conj w, and one more builds the representative
    # conj^-1 core^k v: a tie is settled by the two candidates' first
    # differing letters, so its other candidate is never built
    joins = []
    raw_join = words._join

    def counting_join(a, b):
        joins.append(b)
        return raw_join(a, b)

    monkeypatch.setattr(words, "_join", counting_join)
    ties = 0
    for u, word in _seeded_pairs(23, 600, 60):
        joins.clear()
        rep = coset_rep(u, word)
        assert len(joins) == 2
        # a tie: two shortest candidates of equal length in the window
        shortest = sorted(len(c) for c in _coset_window(u, word))[:2]
        if shortest[0] == shortest[1]:
            ties += 1
            assert rep == _coset_rep_literal(u, word)
    assert ties > 0


def test_coset_rep_multiplies_linearly(monkeypatch):
    # letters through the junctions stay linear in |w|; the literal window
    # passes about 1.6 * 10^6 through Word.__mul__ at |w| = 512
    word = random_reduced_word(random.Random(512), 2, 512)
    passed = []
    raw_join = words._join

    def counting_join(a, b):
        passed.append(len(a) + len(b))
        return raw_join(a, b)

    monkeypatch.setattr(words, "_join", counting_join)
    coset_rep(w("x1 x2"), word)
    assert sum(passed) <= 8 * len(word)


@given(st.sampled_from(["x2 x1 x1 X2", "X1 x2 x1", "x1 x2 x1 X2 X1",
                        "x2 x1 x2 X1 X2", "x1 x2", "x1"]), words_st(2, 40),
       st.integers(min_value=-4, max_value=4))
def test_coset_rep_on_letters_matches_literal_window(text, word, k):
    # u not cyclically reduced, so the core and the conjugator both count
    u = w(text)
    for v in (word, u ** k * word):
        assert coset_rep(u, v) == _coset_rep_literal(u, v)
        assert words._coset_rep(words._coset_core(u), v.letters) \
            == _coset_rep_literal(u, v).letters


def test_shortlex_letter_order():
    # length first; on equal length, lower index first, positive before negative
    ranked = sorted(
        [w("x2"), w("X1"), w("x1"), w("X2"), w("x1 x1"), Word(2)],
        key=lambda v: shortlex_key(v.letters))
    assert [word_str(v) for v in ranked] == ["e", "x1", "X1", "x2", "X2", "x1 x1"]


# --- grammar ------------------------------------------------------------------

def test_parse_examples():
    assert parse_word("X1 X2 x1 x2", 2).letters == (-1, -2, 1, 2)
    assert parse_word("e", 2).is_identity
    assert parse_word("x1 X1", 2).is_identity


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_word("y1", 2)
    with pytest.raises(AlphabetError):
        parse_word("x0", 2)
    with pytest.raises(AlphabetError):
        parse_word("x3", 2)
    with pytest.raises(ValueError):
        parse_word("x", 2)


@given(words_st(3, 20))
def test_grammar_round_trip(u):
    assert parse_word(word_str(u), 3) == u


def test_reduced_words_enumeration_counts():
    # 1 + 4 + 12 + 36 words of length <= 3 over two generators
    words = list(reduced_words(2, 3))
    assert len(words) == 53
    assert len(set(words)) == 53
    assert all(len(v) <= 3 for v in words)


@given(words_st(3, 16), words_st(3, 16), st.integers(min_value=-5, max_value=5))
def test_trusted_results_equal_validated_reconstruction(u, v, k):
    # every library-built word is a valid Word equal to the one the checked
    # path gives
    inverse = tuple(-let for let in reversed(u.letters))
    core, conj = cyclic_reduce(u)
    conj_inverse = tuple(-let for let in reversed(conj.letters))
    built = [
        (u * v, reduce_word(u.letters + v.letters, 3)),
        (u.inverse(), reduce_word(inverse, 3)),
        (u ** k, reduce_word((u.letters if k >= 0 else inverse) * abs(k), 3)),
        (core, reduce_word(conj.letters + u.letters + conj_inverse, 3)),
        (conj, conj),
    ]
    if u.letters:
        rep = coset_rep(u, v)
        built.append((rep, rep))
    for result, expected in built:
        assert Word(result.rank, result.letters) == result == expected


def test_trusted_enumerated_and_sampled_words_are_valid():
    for v in reduced_words(3, 3):
        assert Word(v.rank, v.letters) == v
    rng = random.Random(8)
    for _ in range(200):
        v = random_reduced_word(rng, 3, rng.randint(0, 12))
        assert Word(v.rank, v.letters) == v
    with pytest.raises(AlphabetError):
        next(reduced_words(-1, 2))
    with pytest.raises(AlphabetError):
        random_reduced_word(rng, -1, 0)


def _random_reduced_word_literal(rng, rank, length):
    # the whole alphabet filtered again for every letter drawn
    letters = []
    for _ in range(length):
        choices = [
            let for i in range(1, rank + 1) for let in (i, -i)
            if not letters or letters[-1] != -let]
        letters.append(rng.choice(choices))
    return tuple(letters)


def test_random_reduced_word_matches_list_building_draw():
    for rank in range(1, 9):
        for seed in range(6):
            ours, theirs = random.Random(seed), random.Random(seed)
            for length in (0, 1, 2, 7, 40):
                assert random_reduced_word(ours, rank, length).letters == \
                    _random_reduced_word_literal(theirs, rank, length)
            assert ours.random() == theirs.random()


def test_random_reduced_word_is_reduced():
    rng = random.Random(5)
    from commtower.words import random_reduced_word
    for _ in range(50):
        v = random_reduced_word(rng, 3, 12)
        assert len(v) == 12
        assert reduce_word(v.letters, 3) == v

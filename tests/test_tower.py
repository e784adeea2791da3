import pytest
from hypothesis import given
from hypothesis import strategies as st

from commtower import tower
from commtower.intmat import (
    elementary,
    elementary_commutator,
    evaluate_word,
    from_entries,
    identity,
    matmul,
)
from commtower.tower import (
    central_presentation,
    doubling_is_cancellation_free,
    doubling_map,
    heisenberg_nf,
    level_rank,
    one_relator_presentation,
    perfectness_witness,
    pull_back,
    seed_length,
    seed_word,
    split_context,
    superdiagonal_assignment,
    superdiagonal_images,
    verify_representation,
)
from commtower.words import (
    RankMismatchError,
    Word,
    commutator,
    exponent_sum,
    generator,
    parse_word,
    primitive_root,
    reduce_word,
    reduced_words,
    shift_index,
    word_str,
)


# --- doubling map -----------------------------------------------------------

def test_doubling_examples():
    assert word_str(doubling_map(0, parse_word("x1", 1))) == "X1 X2 x1 x2"
    assert doubling_map(0, Word(1)).is_identity
    assert word_str(doubling_map(1, parse_word("x2", 2))) == "X3 X4 x3 x4"


def test_doubling_rank_check():
    with pytest.raises(RankMismatchError):
        doubling_map(1, parse_word("x1", 1))


def letters_st(rank, max_len):
    return st.lists(
        st.integers(min_value=-rank, max_value=rank).filter(bool),
        max_size=max_len)


@given(st.integers(min_value=0, max_value=2), st.data())
def test_doubling_is_cancellation_free(n, data):
    rank = level_rank(n)
    w = reduce_word(data.draw(letters_st(rank, 64)), rank)
    assert len(doubling_map(n, w)) == 4 * len(w)


@given(st.data())
def test_doubling_is_homomorphism(data):
    u = reduce_word(data.draw(letters_st(2, 20)), 2)
    v = reduce_word(data.draw(letters_st(2, 20)), 2)
    assert doubling_map(1, u * v) == doubling_map(1, u) * doubling_map(1, v)


# --- seed words ---------------------------------------------------------------

def test_seed_word_small_levels():
    assert word_str(seed_word(0)) == "x1"
    assert word_str(seed_word(1)) == "X1 X2 x1 x2"
    expected2 = commutator(
        shift_index(seed_word(1), 0, 4), shift_index(seed_word(1), 2, 4))
    assert seed_word(2) == expected2
    assert len(seed_word(2)) == 16


def test_seed_word_lengths():
    # the literal length check behind seed_length's law
    for n in range(9):
        assert len(seed_word(n)) == 4 ** n
        assert seed_length(n) == 4 ** n


def test_length_law_is_certified():
    for n in range(11):
        assert doubling_is_cancellation_free(n)
    with pytest.raises(ValueError):
        seed_length(-1)


def test_length_law_fails_when_blocks_cancel(monkeypatch):
    # every generator -> [x1, x2]: the block of x1 ends in x2, and the block
    # of X2 starts with X2, so x1 X2 doubles with a cancellation
    monkeypatch.setattr(tower, "_blocks", lambda i: ((-1, -2, 1, 2),
                                                     (-2, -1, 2, 1)))
    assert doubling_is_cancellation_free(0)
    assert not doubling_is_cancellation_free(1)
    assert [seed_length(n) for n in range(4)] == [1, 4, None, None]
    # a block that is not a reduced 4-letter word fails at every level
    for block in ((-1, 1, -2, -3), (-1, -2, 2, -3), (-1, -2, -3, 3),
                  (-1, -2, 1), (-1, -2, 1, 2, 3)):
        monkeypatch.setattr(tower, "_blocks",
                            lambda i, block=block: (block, (-2, -1, 2, 1)))
        assert not doubling_is_cancellation_free(0)


def test_length_law_checks_each_generator_on_its_own(monkeypatch):
    honest = ((-1, -2, 1, 2), (-2, -1, 2, 1))
    # blocks that break one condition each, in either position: not reduced
    # at each inner junction, the wrong length, a letter outside x1's children
    for block in ((1, -1, 2, 2), (-1, -2, 2, 2), (-1, -2, 1, -1), (-1, -2, -1),
                  (-1, -2, 1, 2, 2), (-1, -2, 1, 3)):
        for blocks in ((block, honest[1]), (honest[0], block)):
            monkeypatch.setattr(tower, "_blocks", lambda i, b=blocks: b)
            assert not doubling_is_cancellation_free(0)
    # a reduced block over the right alphabet that cancels against itself:
    # x1 x1 (or X1 X1) doubles to ... x2 X1 x1 x2 ...
    for blocks in (((1, 2, 2, -1), honest[1]), (honest[0], (1, 2, 2, -1))):
        monkeypatch.setattr(tower, "_blocks", lambda i, b=blocks: b)
        assert not doubling_is_cancellation_free(0)
    with pytest.raises(ValueError, match="not freely reduced"):
        doubling_map(0, parse_word("X1 X1", 1))


def test_seed_word_abelianizes_to_zero():
    for n in range(1, 7):
        assert not any(exponent_sum(seed_word(n)))


# --- presentations --------------------------------------------------------------

def test_central_presentation_level0():
    pres = central_presentation(0)
    assert pres.rank == 1
    assert [r.is_identity for r in pres.relators] == [True]


def test_central_presentation_level1():
    pres = central_presentation(1)
    seed = seed_word(1)
    assert pres.rank == 2
    assert pres.relators == (
        commutator(seed, generator(2, 1)), commutator(seed, generator(2, 2)))


def test_central_presentation_level2_lengths():
    pres = central_presentation(2)
    assert pres.rank == 4
    assert len(pres.relators) == 4
    assert all(len(r) <= 2 * 16 + 2 for r in pres.relators)


def test_one_relator_presentation():
    pres = one_relator_presentation(1)
    assert pres.rank == 2
    assert pres.relators == (parse_word("X1 X2 x1 x2", 2),)
    assert len(one_relator_presentation(2).relators[0]) == 16
    with pytest.raises(ValueError):
        one_relator_presentation(0)


def test_one_relator_relator_is_primitive():
    for n in range(1, 7):
        _, exp = primitive_root(one_relator_presentation(n).relators[0])
        assert exp == 1


def test_presentation_json():
    pres = one_relator_presentation(1)
    assert (pres.rank, [word_str(r) for r in pres.relators]) == (2, ["X1 X2 x1 x2"])


# --- matrix representation ---------------------------------------------------------

def test_sparse_and_dense_assignments_agree():
    for n in range(1, 7):
        dim = level_rank(n) + 1
        images = superdiagonal_images(n)
        assignment = superdiagonal_assignment(n)
        assert list(images) == list(assignment) == list(range(1, dim))
        for i, m in assignment.items():
            assert m == elementary(1, i, i + 1, dim)
            for r in range(1, dim + 1):
                for c in range(1, dim + 1):
                    expected = 1 if r == c else images[i].get((r, c), 0)
                    assert m.entry(r, c) == expected
    with pytest.raises(ValueError):
        superdiagonal_images(0)


def test_superdiagonal_assignment_level1():
    assignment = superdiagonal_assignment(1)
    assert assignment[1] == elementary(1, 1, 2, 3)
    assert assignment[2] == elementary(1, 2, 3, 3)
    assert all(m.is_unitriangular() for m in assignment.values())
    with pytest.raises(ValueError):
        superdiagonal_assignment(0)


def test_verify_representation_level1():
    report = verify_representation(1)
    assert report.ok
    assert report.relations_ok
    assert report.sign == 1
    assert report.seed_image.rows == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert report.order_witness_ok
    assert report.order_checked_to == 100
    assert report.x01_length == 4


def test_verify_representation_levels_2_to_4():
    for n in (2, 3, 4):
        report = verify_representation(n, order_powers=20)
        assert report.ok, report.failures
        # the two half images carry the same sign and the commutator
        # multiplies them, so the sign stays +1 all the way up
        assert report.sign == 1
        assert report.x01_length == 4 ** n


def _order_literal(n, order_powers):
    """The dense power loop the additive law replaced: multiply the seed
    image out power by power against ``e(sign*k; 1, dim)``.  Returns
    ``(order_witness_ok, order_checked_to)``."""
    dim = level_rank(n) + 1
    image = evaluate_word(superdiagonal_assignment(n), seed_word(n))
    signs = [s for s in (1, -1) if image == elementary(s, 1, dim, dim)]
    if not signs:
        return False, 0
    acc = identity(dim)
    for k in range(1, order_powers + 1):
        acc = matmul(acc, image)
        if acc != elementary(signs[0] * k, 1, dim, dim):
            return False, 0
    return True, order_powers


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_order_certificate_matches_power_loop(n):
    for order_powers in (0, 1, 7, 100):
        report = verify_representation(n, order_powers=order_powers)
        assert (report.order_witness_ok, report.order_checked_to) == \
            _order_literal(n, order_powers)
        assert report.ok


def test_order_certificate_fails_without_elementary_seed_image(monkeypatch):
    honest = tower.superdiagonal_images

    def skewed(n):
        images = dict(honest(n))
        images[1] = {(1, 2): 2}
        return images

    monkeypatch.setattr(tower, "superdiagonal_images", skewed)
    for n in (1, 2, 3):
        report = verify_representation(n)
        assert report.sign is None
        assert not report.order_witness_ok
        assert report.order_checked_to == 0
        assert not report.ok
        assert report.relations_ok
        assert report.failures == (
            "seed image is not an elementary matrix at (1, dim)",)


def test_negative_seed_sign_is_recorded(monkeypatch):
    honest = tower.superdiagonal_images

    def flipped(n):
        images = dict(honest(n))
        images[1] = {(1, 2): -1}
        return images

    monkeypatch.setattr(tower, "superdiagonal_images", flipped)
    for n in (1, 2, 3):
        report = verify_representation(n)
        assert report.ok, report.failures
        assert report.sign == -1
        assert report.seed_image == elementary(-1, 1, level_rank(n) + 1,
                                               level_rank(n) + 1)


def test_relator_failures_are_reported(monkeypatch):
    # a seed image e(1; 1, 2) fails to commute with x(2) -> e(1; 2, 3) only
    honest = tower.pull_back

    def skewed(images):
        return {1: {(1, 2): 1}} if len(images) == 2 else honest(images)

    monkeypatch.setattr(tower, "pull_back", skewed)
    report = verify_representation(2)
    assert not report.relations_ok
    assert report.sign is None
    assert report.failures == (
        "relator 2 does not map to the identity",
        "seed image is not an elementary matrix at (1, dim)")


def test_order_powers_must_be_nonnegative():
    for order_powers in (-1, -5):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_representation(1, order_powers)
    report = verify_representation(1, 0)
    assert report.ok
    assert report.order_checked_to == 0


def test_seed_image_matches_literal_evaluation():
    # the 4^n-letter evaluation the pull-back replaced
    for n in range(1, 7):
        report = verify_representation(n)
        literal = evaluate_word(superdiagonal_assignment(n), seed_word(n))
        assert report.seed_image == literal
        assert report.x01_length == len(seed_word(n))


def test_sparse_relator_brackets_match_dense_brackets():
    bracket = commutator(generator(2, 1), generator(2, 2))
    for n in range(1, 6):
        dim = level_rank(n) + 1
        images = superdiagonal_images(n)
        assignment = superdiagonal_assignment(n)
        seed = images
        for _ in range(n):
            seed = pull_back(seed)
        # the seed image, and the non-central image of level n-1's x(1)
        for s in (seed[1], pull_back(images)[1]):
            dense_s = from_entries(dim, s.items())
            for i, image in images.items():
                dense = evaluate_word({1: dense_s, 2: assignment[i]}, bracket)
                assert from_entries(dim, elementary_commutator(s, image).items()) == dense


def test_brackets_reject_images_with_two_entries():
    two = {(1, 2): 1, (2, 3): 1}
    for a, b in ((two, {(2, 3): 1}), ({(1, 2): 1}, two), (two, {})):
        with pytest.raises(ValueError, match="at most one entry"):
            elementary_commutator(a, b)
    with pytest.raises(ValueError, match="at most one entry"):
        pull_back({1: two, 2: {(3, 4): 1}})


def test_pull_back_follows_the_steinberg_relation():
    # level n-k generator i pulls back to e(+-1; (i-1) 2^k + 1, i 2^k + 1)
    for n in range(1, 11):
        images = superdiagonal_images(n)
        for k in range(n + 1):
            assert len(images) == 2 ** (n - k)
            for i, image in images.items():
                ((slot, c),) = image.items()
                assert slot == ((i - 1) * 2 ** k + 1, i * 2 ** k + 1)
                assert c in (1, -1)
            if k < n:
                images = pull_back(images)


def test_literal_relators_map_to_identity():
    for n in (1, 2, 3, 4):
        assignment = superdiagonal_assignment(n)
        ident = identity(level_rank(n) + 1)
        for relator in central_presentation(n).relators:
            assert evaluate_word(assignment, relator) == ident


def test_verify_representation_report_schema():
    data = verify_representation(1).to_json_dict()
    assert list(data) == [
        "n", "rank", "x01_length", "relations_ok", "sign", "order_checked_to"]


def test_verify_representation_needs_positive_level():
    with pytest.raises(ValueError):
        verify_representation(0)


# --- perfectness witness -------------------------------------------------------------

def test_perfectness_witness():
    for n in range(4):
        report = perfectness_witness(n)
        assert report.ok
        assert report.nonzero_generators == ()


def _perfectness_literal(n):
    """The abelianization by full exponent-sum vectors that the per-block
    count replaced."""
    rank = level_rank(n)
    return tuple(i for i in range(1, rank + 1)
                 if any(exponent_sum(doubling_map(n, generator(rank, i)))))


def test_perfectness_matches_exponent_sums(monkeypatch):
    for n in range(9):
        assert perfectness_witness(n).nonzero_generators == ()
        assert _perfectness_literal(n) == ()
    honest = tower._blocks

    def skewed(i):
        # every third generator maps to x(2i-1)^-1 x(2i)^-1 x(2i-1)^2
        if i % 3:
            return honest(i)
        a, b = 2 * i - 1, 2 * i
        return (-a, -b, a, a), (-a, -a, b, a)

    monkeypatch.setattr(tower, "_blocks", skewed)
    for n in range(9):
        report = perfectness_witness(n)
        assert report.nonzero_generators == _perfectness_literal(n)
        assert report.ok == (level_rank(n) < 3)


# --- the rank-2 nilpotent model ------------------------------------------------------

def test_heisenberg_examples():
    assert heisenberg_nf(parse_word("X1 X2 x1 x2", 2)) == (0, 0, 1)
    assert heisenberg_nf(parse_word("x1", 2)) == (1, 0, 0)
    assert heisenberg_nf(parse_word("x2 x1", 2)) == (1, 1, -1)
    assert heisenberg_nf(Word(2)) == (0, 0, 0)


def test_heisenberg_needs_rank2():
    with pytest.raises(RankMismatchError):
        heisenberg_nf(parse_word("x1", 3))


def test_heisenberg_matches_matrix_model_small():
    assignment = superdiagonal_assignment(1)
    by_nf = {}
    by_mat = {}
    for w in reduced_words(2, 4):
        nf = heisenberg_nf(w)
        mat = evaluate_word(assignment, w)
        assert by_nf.setdefault(nf, mat) == mat
        assert by_mat.setdefault(mat, nf) == nf


# --- splitting the one-relator level --------------------------------------------------

def test_split_context_level2():
    ctx = split_context(2)
    assert (ctx.rank1, ctx.rank2) == (2, 2)
    assert ctx.u1 == seed_word(1)
    assert ctx.u2 == seed_word(1)
    emb1 = shift_index(ctx.u1, 0, 4)
    emb2 = shift_index(ctx.u2, 2, 4)
    assert commutator(emb1, emb2) == seed_word(2)


def test_split_context_level3():
    ctx = split_context(3)
    assert (ctx.rank1, ctx.rank2) == (4, 4)
    assert primitive_root(ctx.u1)[1] == 1


def test_split_context_needs_level_2():
    with pytest.raises(ValueError):
        split_context(1)

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commtower.intmat import (
    DimensionMismatchError,
    IntMatrix,
    as_elementary,
    elementary,
    elementary_commutator,
    evaluate_word,
    from_entries,
    identity,
    matmul,
    unitriangular_inverse,
)
from commtower.words import parse_word, reduce_word


def psi1():
    return {1: elementary(1, 1, 2, 3), 2: elementary(1, 2, 3, 3)}


# --- constructors --------------------------------------------------------------

def test_elementary_examples():
    assert elementary(1, 1, 2, 3).rows == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert elementary(0, 1, 2, 3) == identity(3)
    m = elementary(-5, 2, 4, 5)
    assert m.entry(2, 4) == -5
    assert sum(abs(e) for row in m.rows for e in row) == 5 + 5


def test_elementary_rejects_bad_indices():
    with pytest.raises(IndexError):
        elementary(1, 2, 2, 3)
    with pytest.raises(IndexError):
        elementary(1, 0, 2, 3)
    with pytest.raises(IndexError):
        elementary(1, 1, 4, 3)


def test_as_elementary_recognizes():
    assert as_elementary(elementary(7, 2, 3, 4)) == (7, 2, 3)
    assert as_elementary(identity(3)) == (0, 1, 2)
    dense = matmul(elementary(1, 1, 2, 3), elementary(1, 2, 3, 3))
    assert as_elementary(dense) is None


# --- products -------------------------------------------------------------------

def test_matmul_examples():
    e12 = elementary(1, 1, 2, 3)
    assert matmul(e12, e12) == elementary(2, 1, 2, 3)
    a = matmul(e12, elementary(3, 2, 3, 3))
    assert matmul(a, identity(3)) == a
    assert matmul(e12, elementary(1, 2, 3, 3)).rows == (
        (1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_matmul_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        matmul(identity(3), identity(4))


@given(st.integers(min_value=-(2 ** 64), max_value=2 ** 64))
def test_elementary_power_law(k):
    e = elementary(1, 1, 3, 3)
    assert e ** k == elementary(k, 1, 3, 3)


def test_no_overflow_beyond_64_bits():
    big = 2 ** 33
    prod = matmul(elementary(big, 1, 2, 3), elementary(big, 2, 3, 3))
    assert prod.entry(1, 3) == 2 ** 66
    assert (prod ** 2).entry(1, 3) == 2 ** 67 + 2 ** 66


# --- inverses --------------------------------------------------------------------

def test_unitriangular_inverse_examples():
    e = elementary(9, 1, 3, 4)
    assert unitriangular_inverse(e) == elementary(-9, 1, 3, 4)
    assert unitriangular_inverse(identity(5)) == identity(5)
    a = matmul(elementary(1, 1, 2, 3), elementary(1, 2, 3, 3))
    inv = unitriangular_inverse(a)
    assert inv.rows == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
    assert matmul(a, inv) == identity(3)


def test_unitriangular_inverse_rejects():
    lower = IntMatrix(2, ((1, 0), (3, 1)))
    with pytest.raises(ValueError):
        unitriangular_inverse(lower)


def random_unitriangular_st(dim):
    n_entries = dim * (dim - 1) // 2
    return st.lists(
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        min_size=n_entries, max_size=n_entries,
    ).map(lambda vals: _fill_upper(dim, vals))


def _fill_upper(dim, vals):
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    it = iter(vals)
    for i in range(dim):
        for j in range(i + 1, dim):
            rows[i][j] = next(it)
    return IntMatrix(dim, tuple(tuple(r) for r in rows))


@given(random_unitriangular_st(5))
def test_inverse_round_trip(a):
    inv = unitriangular_inverse(a)
    assert inv.is_unitriangular()
    assert matmul(a, inv) == identity(5)
    assert matmul(inv, a) == identity(5)


@given(random_unitriangular_st(4), random_unitriangular_st(4))
def test_unitriangular_closed_under_product(a, b):
    assert matmul(a, b).is_unitriangular()


# --- sparse form ---------------------------------------------------------------------

def _sparse(m):
    return {(i + 1, j + 1): m.rows[i][j]
            for i in range(m.dim) for j in range(i + 1, m.dim) if m.rows[i][j]}


COEFFICIENT_ST = st.builds(lambda m, s: m * s,
                           st.sampled_from([1, 2, 3, 2 ** 70]),
                           st.sampled_from([1, -1]))


@given(st.data())
def test_elementary_commutator_matches_dense(data):
    dim = data.draw(st.integers(min_value=2, max_value=8))
    every = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    ka = data.draw(st.sampled_from(every))
    # the second slot is often one that meets the first (a shared row or
    # column, or an end at the other's start), where the bracket is not
    # simply the identity
    near = [k for k in every if k != ka and set(k) & set(ka)]
    kb = data.draw(st.one_of(st.sampled_from(near or [ka]), st.sampled_from(every)))
    sa, sb = {ka: data.draw(COEFFICIENT_ST)}, {kb: data.draw(COEFFICIENT_ST)}
    a, b = from_entries(dim, sa.items()), from_entries(dim, sb.items())
    assert _sparse(a) == sa
    inv_a, inv_b = unitriangular_inverse(a), unitriangular_inverse(b)
    # both orders, so each meeting pair is met as j == k and as l == i
    assert elementary_commutator(sa, sb) == \
        _sparse(matmul(matmul(inv_a, inv_b), matmul(a, b)))
    assert elementary_commutator(sb, sa) == \
        _sparse(matmul(matmul(inv_b, inv_a), matmul(b, a)))
    assert elementary_commutator(sa, {}) == elementary_commutator({}, sb) == {}


def test_from_entries_rejects_slots_off_the_upper_triangle():
    for slot in ((2, 1), (2, 2), (0, 1), (1, 4)):
        with pytest.raises(IndexError):
            from_entries(3, [(slot, 5)])


# --- word evaluation ---------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate_word(psi1(), parse_word("e", 2)) == identity(3)
    assert evaluate_word(psi1(), parse_word("x1", 2)) == elementary(1, 1, 2, 3)
    img = evaluate_word(psi1(), parse_word("X1 X2 x1 x2", 2))
    assert img == elementary(1, 1, 3, 3)
    assert img.rows == ((1, 0, 1), (0, 1, 0), (0, 0, 1))


def test_evaluate_rejects_unassigned():
    with pytest.raises(ValueError):
        evaluate_word({1: elementary(1, 1, 2, 3)}, parse_word("x2", 2))


def test_evaluate_rejects_mixed_dims():
    bad = {1: elementary(1, 1, 2, 3), 2: elementary(1, 1, 2, 4)}
    with pytest.raises(DimensionMismatchError):
        evaluate_word(bad, parse_word("x1 x2", 2))


def test_evaluate_rejects_non_unitriangular():
    bad = {1: IntMatrix(2, ((1, 0), (3, 1)))}
    with pytest.raises(ValueError):
        evaluate_word(bad, parse_word("x1", 1))


def _evaluate_naive(assignment, word):
    # reference path: plain matmul over letters, inverses by back-substitution
    dim = next(iter(assignment.values())).dim
    out = identity(dim)
    for let in word.letters:
        m = assignment[abs(let)]
        out = matmul(out, m if let > 0 else unitriangular_inverse(m))
    return out


def letters_st(rank, max_len):
    return st.lists(
        st.integers(min_value=-rank, max_value=rank).filter(bool),
        max_size=max_len)


@given(letters_st(2, 16), letters_st(2, 16))
def test_evaluate_is_homomorphism(raw_u, raw_v):
    u = reduce_word(raw_u, 2)
    v = reduce_word(raw_v, 2)
    lhs = evaluate_word(psi1(), u * v)
    rhs = matmul(evaluate_word(psi1(), u), evaluate_word(psi1(), v))
    assert lhs == rhs


@given(letters_st(2, 16))
def test_fast_path_matches_naive_fold(raw):
    word = reduce_word(raw, 2)
    assert evaluate_word(psi1(), word) == _evaluate_naive(psi1(), word)


@given(st.integers(min_value=2, max_value=3), st.data())
def test_dense_assignment_matches_naive_fold(rank, data):
    # dense images take several column operations per letter, and inverse
    # letters replay them reversed and negated
    assignment = {g: data.draw(random_unitriangular_st(4))
                  for g in range(1, rank + 1)}
    word = reduce_word(data.draw(letters_st(rank, 12)), rank)
    assert evaluate_word(assignment, word) == _evaluate_naive(assignment, word)


def test_evaluate_exact_on_long_products():
    # a 64-letter evaluation (4^3 elementary factors) stays exact
    from commtower.tower import seed_word, superdiagonal_assignment

    image = evaluate_word(superdiagonal_assignment(3), seed_word(3))
    assert image == elementary(1, 1, 9, 9)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_relators_map_like_their_brackets(n, data):
    # verify_representation evaluates [S, image of x(i)], S the seed image,
    # in place of the literal relator [seed, x(i)]; under any assignment the
    # two agree
    from commtower.tower import central_presentation, seed_word

    assignment = {g: data.draw(random_unitriangular_st(4))
                  for g in range(1, 2 ** n + 1)}
    seed_image = evaluate_word(assignment, seed_word(n))
    bracket = parse_word("X1 X2 x1 x2", 2)
    for i, relator in enumerate(central_presentation(n).relators, start=1):
        assert _evaluate_naive(assignment, relator) == evaluate_word(
            {1: seed_image, 2: assignment[i]}, bracket)


def test_non_elementary_assignment_falls_back():
    dense = matmul(elementary(1, 1, 2, 3), elementary(1, 2, 3, 3))
    assignment = {1: dense, 2: elementary(1, 2, 3, 3)}
    word = parse_word("x1 x2 X1", 2)
    assert evaluate_word(assignment, word) == _evaluate_naive(assignment, word)

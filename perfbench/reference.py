"""Reference computations for the benchmark, independent of ``commtower``.

Nothing here imports the package under test, so a change to the package
(its oracles, its reduction routines, its tower code) cannot change the
benchmark's inputs or the answers it checks against.

Letters are nonzero signed integers.  In the free product ``F1 * F2`` the
factor-two generator ``i`` is encoded as ``rank1 + i``; free reduction in the
free product is then plain free reduction on ``rank1 + rank2`` generators.
"""

from __future__ import annotations

import random
from typing import Sequence

Letters = tuple[int, ...]
Perm = tuple[int, ...]


def free_reduce(letters) -> Letters:
    out: list[int] = []
    for let in letters:
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def inverse(letters: Sequence[int]) -> Letters:
    return tuple(-let for let in reversed(letters))


def commutator(a: Sequence[int], b: Sequence[int]) -> Letters:
    """[a, b] = a^-1 b^-1 a b."""
    return free_reduce(inverse(a) + inverse(b) + tuple(a) + tuple(b))


def random_reduced(rng: random.Random, rank: int, length: int,
                   offset: int = 0) -> Letters:
    """A uniformly chosen reduced word of exactly ``length`` letters over
    generators ``offset + 1 .. offset + rank``."""
    alphabet = [s * (offset + i) for i in range(1, rank + 1) for s in (1, -1)]
    out: list[int] = []
    while len(out) < length:
        let = rng.choice(alphabet)
        if not out or out[-1] != -let:
            out.append(let)
    return tuple(out)


def reduced_words(rank: int, max_len: int):
    """Every reduced word of length <= max_len over ``rank`` generators."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    layer: list[Letters] = [()]
    yield ()
    for _ in range(max_len):
        layer = [w + (let,) for w in layer for let in alphabet
                 if not w or w[-1] != -let]
        yield from layer


def exhaustive_pair_count(rank: int, max_len: int) -> int:
    """Pairs (x, y) of reduced words with |x| + |y| <= max_len."""
    counts = [0] * (max_len + 1)
    for w in reduced_words(rank, max_len):
        counts[len(w)] += 1
    return sum(counts[a] * counts[b]
               for a in range(max_len + 1) for b in range(max_len + 1 - a))


# ---------------------------------------------------------------------------
# permutation quotients of G = F1 * F2 / <<[u1, u2]>>


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_eval(images: dict[int, Perm], letters: Sequence[int],
              degree: int) -> Perm:
    out = tuple(range(degree))
    for let in letters:
        p = images[abs(let)]
        out = perm_mul(out, p if let > 0 else perm_inv(p))
    return out


def _perm_pow(p: Perm, k: int) -> Perm:
    out = tuple(range(len(p)))
    for _ in range(k):
        out = perm_mul(out, p)
    return out


def _perm_order(p: Perm) -> int:
    k, acc, ident = 1, p, tuple(range(len(p)))
    while acc != ident:
        acc = perm_mul(acc, p)
        k += 1
    return k


def perm_quotient(rng: random.Random, rank1: int, rank2: int,
                  u1: Letters, u2: Letters, degree: int) -> dict[int, Perm]:
    """A homomorphism G -> Sym(degree) that kills u1 or u2 outright.

    One factor, chosen at random, maps into a cyclic group <p> with exponents
    solving ``exponent_sum(u) . e = 0 (mod order p)``, so its designated word
    maps to the identity and the relator [u1, u2] dies; the other factor maps
    to uniform random permutations.  Such a map still sees most of the kernel
    of G -> F1 (+) F2, which is what certifying inequality needs.
    """
    killed = rng.choice((1, 2))
    ranks = {1: rank1, 2: rank2}
    offsets = {1: 0, 2: rank1}
    images: dict[int, Perm] = {}
    for factor in (1, 2):
        gens = [offsets[factor] + i for i in range(1, ranks[factor] + 1)]
        if factor != killed:
            for g in gens:
                images[g] = tuple(rng.sample(range(degree), degree))
            continue
        u = u1 if factor == 1 else u2
        sums = {g: 0 for g in gens}
        for let in u:
            sums[abs(let)] += 1 if let > 0 else -1
        p = tuple(rng.sample(range(degree), degree))
        order = _perm_order(p)
        for _ in range(1000):
            exps = {g: rng.randrange(order) for g in gens}
            if sum(sums[g] * exps[g] for g in gens) % order == 0:
                break
        else:
            raise RuntimeError("no exponent vector kills the designated word")
        for g in gens:
            images[g] = _perm_pow(p, exps[g])
    relator = commutator(u1, u2)
    if perm_eval(images, relator, degree) != tuple(range(degree)):
        raise AssertionError("permutation quotient does not kill the relator")
    return images


def certify_nontrivial(rng: random.Random, rank1: int, rank2: int,
                       u1: Letters, u2: Letters, letters: Letters,
                       degree: int = 7, tries: int = 12) -> bool:
    """True if some seeded permutation quotient maps ``letters`` to a
    non-identity permutation, which proves it nontrivial in G."""
    ident = tuple(range(degree))
    for _ in range(tries):
        images = perm_quotient(rng, rank1, rank2, u1, u2, degree)
        if perm_eval(images, letters, degree) != ident:
            return True
    return False


# ---------------------------------------------------------------------------
# the commutator tower


def doubling(letters: Sequence[int]) -> Letters:
    """Generator i -> [x(2i-1), x(2i)] one level up; never cancels."""
    out: list[int] = []
    for let in letters:
        a, b = 2 * abs(let) - 1, 2 * abs(let)
        out.extend((-a, -b, a, b) if let > 0 else (-b, -a, b, a))
    return tuple(out)


def seed_word(n: int) -> Letters:
    w: Letters = (1,)
    for _ in range(n):
        w = doubling(w)
    return w


def seed_sign(n: int) -> int:
    """Sign s with seed_word(n) -> elementary(s, 1, 2^n + 1) under
    x(i) -> elementary(1, i, i + 1), by column operations on the identity."""
    dim = 2 ** n + 1
    rows = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for let in seed_word(n):
        i = abs(let) - 1
        s = 1 if let > 0 else -1
        for row in rows:
            row[i + 1] += s * row[i]
    off = [(r, c, rows[r][c]) for r in range(dim) for c in range(dim)
           if rows[r][c] != int(r == c)]
    if len(off) != 1 or off[0][:2] != (0, dim - 1) or abs(off[0][2]) != 1:
        raise AssertionError(f"level-{n} seed image is not elementary at (1, dim)")
    return off[0][2]

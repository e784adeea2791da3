"""The benchmark's workloads.

Each workload generates its inputs from the workload seed in ``setup`` and
hands the program only those inputs.  ``op(state, i)`` returns the timed call
for op ``i`` and an untimed check that compares the call's result with an
answer computed by :mod:`reference`, never by the function under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import reference as ref
from commtower import cli, freeprod, localization, tower
from commtower.words import Word


def clear_caches() -> int:
    """Clear every process-lifetime cache on the ``commtower`` modules.

    A CLI user pays for these caches on every run, so cold-start workloads
    clear them before each op.  They are found by looking for ``cache_clear``
    on module and class attributes, so a cache added later is cleared too.
    """
    cleared: list = []
    for name, mod in list(sys.modules.items()):
        if name != "commtower" and not name.startswith("commtower."):
            continue
        values = list(vars(mod).values())
        values += [v for c in values if isinstance(c, type)
                   and c.__module__ == name for v in vars(c).values()]
        for value in values:
            clear = getattr(value, "cache_clear", None)
            cache = getattr(clear, "__self__", clear)
            if callable(clear) and not any(c is cache for c in cleared):
                cleared.append(cache)
                clear()
    return len(cleared)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


def cli_report(result) -> dict | None:
    code, text = result
    return json.loads(text) if code == 0 else None


# ---------------------------------------------------------------------------
# tower: verify tower through the CLI, then a localized multiply


def tower_report(max_level: int) -> dict:
    """The exact `verify tower --format json` report the paper predicts."""
    return {
        "command": "verify tower",
        "config": {"max_level": max_level, "order_powers": 100},
        "levels": [
            {"n": n, "rank": 2 ** n, "x01_length": 4 ** n,
             "relations_ok": True, "sign": ref.seed_sign(n),
             "order_checked_to": 100}
            for n in range(1, max_level + 1)],
        "perfectness": [{"n": n, "ok": True, "nonzero_generators": []}
                        for n in range(max_level + 1)],
        "x01_lengths": [{"n": n, "length": 4 ** n, "ok": True}
                        for n in range(max_level + 1)],
        "ok": True,
    }


class Tower:
    """Each op is ``verify tower --max-level 5`` through the CLI, then a
    level-3 localized multiply-and-normalize with integer part about 128.

    It is the only workload that runs ``tower``, ``intmat`` and
    ``localization``; every package cache is cleared before each op.
    """

    name = "tower"
    cycle = 1
    traced_ops = 4
    max_level = 5
    pool = 16

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        cases = []
        for _ in range(self.pool):
            wa = ref.random_reduced(rng, 8, rng.randint(8, 24))
            wb = ref.random_reduced(rng, 4, rng.randint(4, 12))
            ra = rng.randint(60, 68) + Fraction(rng.randrange(97), 97)
            den = rng.randint(2, 96)
            rb = rng.randint(60, 68) + Fraction(rng.randrange(den), den)
            total = ra + rb
            m = total.numerator // total.denominator
            word = ref.free_reduce(ref.seed_word(3) * m + wa + ref.doubling(wb))
            cases.append({
                "a": localization.lp_element(3, Word(8, wa), ra),
                "b": localization.lp_element(2, Word(4, wb), rb),
                "word": word, "rational": total - m, "qz": total % 1,
            })
        return {"cases": cases,
                "reports": {n: tower_report(n)
                            for n in range(3, self.max_level + 1)}}

    def _op(self, state: dict, case: dict, level: int):
        def call():
            return (run_cli(["verify", "tower", "--max-level", str(level)]),
                    localization.lp_multiply(case["a"], case["b"]))

        def check(result) -> bool:
            report, lp = result
            return (cli_report(report) == state["reports"][level]
                    and lp.level == 3 and lp.word.letters == case["word"]
                    and lp.rational == case["rational"]
                    and localization.lp_qz_image(lp) == case["qz"])
        clear_caches()
        return call, check

    def op(self, state: dict, i: int):
        return self._op(state, state["cases"][i % self.pool], self.max_level)

    def scale_ops(self, state: dict):
        """(label, op factory) at each level up to the workload's own."""
        return [(f"tower_n{n}",
                 lambda n=n: self._op(state, state["cases"][0], n))
                for n in range(3, self.max_level + 1)]


# ---------------------------------------------------------------------------
# eq_long: single eq_in_G decisions on long generated pairs


# (u1, u2) per context as letters over the tagged alphabet of rank 2 + 2
EQ_CONTEXTS = (
    ("x1 x2", (1, 2), (3, 4)),
    ("x1", (1,), (3,)),
    ("split_context(2)", ref.seed_word(1), tuple(
        let + 2 if let > 0 else let - 2 for let in ref.seed_word(1))),
)


def untag(let: int) -> tuple[int, int]:
    """(factor, letter within that factor) for a tagged letter."""
    if abs(let) <= 2:
        return 1, let
    return 2, let - 2 if let > 0 else let + 2


def syllable_word(letters) -> freeprod.SyllableWord:
    """Tagged letters as a program input."""
    syllables: list[tuple[int, tuple[int, ...]]] = []
    for let in letters:
        factor, local = untag(let)
        if syllables and syllables[-1][0] == factor:
            syllables[-1] = (factor, syllables[-1][1] + (local,))
        else:
            syllables.append((factor, (local,)))
    return freeprod.SyllableWord(
        2, 2, tuple((f, Word(2, ls)) for f, ls in syllables))


def eq_pair(rng: random.Random, u1, u2, length: int, equal: bool):
    """Letters (x, y) with |x| = length / 2 and |y| about ``length``.

    y = x t, where t is a product of conjugated relators [u1, u2]^+-1, so
    x = y in G.  For an unequal pair one conjugated commutator [v1, v2] is
    inserted among them and a permutation quotient from :mod:`reference`
    certifies t != 1 in G; uncertified draws are redrawn.
    """
    relator = ref.commutator(u1, u2)
    x = ref.random_reduced(rng, 4, length // 2)
    while True:
        factors = []
        while sum(len(f) for f in factors) < length // 2:
            g = ref.random_reduced(rng, 4, rng.randint(1, 8))
            core = relator if rng.random() < 0.5 else ref.inverse(relator)
            factors.append(ref.inverse(g) + core + g)
        if not equal:
            v = ref.commutator(ref.random_reduced(rng, 2, rng.randint(1, 3)),
                               ref.random_reduced(rng, 2, rng.randint(1, 3), 2))
            g = ref.random_reduced(rng, 4, rng.randint(1, 8))
            factors.insert(rng.randrange(len(factors) + 1),
                           ref.inverse(g) + v + g)
        t = ref.free_reduce(sum(factors, ()))
        if equal or ref.certify_nontrivial(rng, 2, 2, u1, u2, t):
            return x, ref.free_reduce(x + t)


class EqLong:
    """Each op is one ``eq_in_G`` decision on a pair of length about 256,
    cycling through three contexts, equal then unequal.

    Fresh contexts are built at every pass over the pool, so each decision
    sees a mostly cold coset cache that only its own pass has filled.
    """

    name = "eq_long"
    cycle = 2 * len(EQ_CONTEXTS)
    traced_ops = 12
    length = 256
    per_category = 12

    def contexts(self) -> list[freeprod.GContext]:
        out = []
        for label, u1, u2 in EQ_CONTEXTS:
            w1, w2 = Word(2, u1), Word(2, tuple(untag(let)[1] for let in u2))
            if label == "split_context(2)":
                ctx = tower.split_context(2)
                if (ctx.u1, ctx.u2) != (w1, w2):
                    raise AssertionError("split_context(2) has unexpected words")
            else:
                ctx = freeprod.GContext(2, 2, w1, w2)
            out.append(ctx)
        return out

    def pairs(self, rng: random.Random, length: int, count: int):
        """``count`` pairs per category, category = (context, equal)."""
        return [[(syllable_word(x), syllable_word(y), equal)
                 for x, y in (eq_pair(rng, u1, u2, length, equal)
                              for _ in range(count))]
                for _, u1, u2 in EQ_CONTEXTS for equal in (True, False)]

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        _, u1, u2 = EQ_CONTEXTS[0]
        scale = {}
        for n in (64, 128):
            x, y = eq_pair(rng, u1, u2, n, True)
            scale[n] = (syllable_word(x), syllable_word(y), True)
        return {"pairs": self.pairs(rng, self.length, self.per_category),
                "scale": scale, "contexts": self.contexts()}

    @staticmethod
    def _op(ctx, x, y, equal):
        return (lambda: freeprod.eq_in_G(ctx, x, y)), (lambda got: got is equal)

    def op(self, state: dict, i: int):
        category = i % self.cycle
        index = i // self.cycle
        if i and index % self.per_category == 0 and category == 0:
            state["contexts"] = self.contexts()
        x, y, equal = state["pairs"][category][index % self.per_category]
        return self._op(state["contexts"][category // 2], x, y, equal)

    def scale_ops(self, state: dict):
        sizes = {**state["scale"], self.length: state["pairs"][0][0]}
        return [(f"eq_L{n}",
                 lambda n=n: self._op(self.contexts()[0], *sizes[n]))
                for n in sorted(sizes)]


# ---------------------------------------------------------------------------
# scan_short and kernel_battery: CLI batteries with seeds from the workload


class ScanShort:
    """Each op is ``scan commute --u1 "x1 x2" --u2 "x1 x2" --max-len 3
    --budget 500`` through the CLI: thousands of tiny decisions on a warm
    per-context coset cache."""

    name = "scan_short"
    cycle = 1
    traced_ops = 4
    max_len = 3
    budget = 500

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"seeds": [rng.randrange(2 ** 31) for _ in range(64)],
                "pairs": ref.exhaustive_pair_count(4, self.max_len) + self.budget}

    def op(self, state: dict, i: int):
        seed = state["seeds"][i % len(state["seeds"])]
        argv = ["scan", "commute", "--u1", "x1 x2", "--u2", "x1 x2",
                "--max-len", str(self.max_len), "--budget", str(self.budget),
                "--seed", str(seed)]

        def check(result) -> bool:
            report = cli_report(result)
            return (report is not None and report["ok"] is True
                    and report["report"]["pairs_tested"] == state["pairs"]
                    and report["report"]["counterexamples"] == [])
        return (lambda: run_cli(argv)), check

    def scale_ops(self, state: dict):
        return []


class KernelBattery:
    """Each op is ``verify kernel`` with the ``run_all_checks.py``
    parameters, alternating the contexts (x1 x2, x1 x2) and (x1, x1).

    It is the only workload that builds and applies the finite-quotient
    oracle.  Every identity it samples holds in G, so the expected report
    has zero failures and zero refutations.
    """

    name = "kernel_battery"
    cycle = 2
    traced_ops = 4
    samples = 200

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"seeds": [rng.randrange(2 ** 31) for _ in range(64)]}

    def op(self, state: dict, i: int):
        u = ("x1 x2", "x1")[i % 2]
        seed = state["seeds"][i % len(state["seeds"])]
        argv = ["verify", "kernel", "--u1", u, "--u2", u,
                "--samples", str(self.samples), "--max-len", "24",
                "--seed", str(seed)]

        def check(result) -> bool:
            report = cli_report(result)
            if report is None or report["ok"] is not True:
                return False
            sections = ("round_trip", "commutator_rewrite",
                        "imposed_relation", "conjugation_expansion")
            return (all(report[s] == {"samples": self.samples, "failures": 0}
                        for s in sections)
                    and report["oracle"]["refutations"] == 0)
        return (lambda: run_cli(argv)), check

    def scale_ops(self, state: dict):
        return []


WORKLOADS = {w.name: w for w in (Tower(), EqLong(), ScanShort(), KernelBattery())}

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from commtower import cli, freeprod, tower
from commtower.cli import main
from commtower.freeprod import (
    FiniteQuotientOracle,
    GContext,
    SyllableWord,
    _eval_word_perms,
    _perm_mul,
    eq_in_G,
    kword_expand,
    rewrite_commutator,
    sp_commutator,
    sp_multiply,
)
from commtower.words import Word, parse_word, random_reduced_word


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_verify_tower(capsys):
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "2"])
    assert code == 0
    assert report["ok"] is True
    assert [lvl["n"] for lvl in report["levels"]] == [1, 2]
    assert list(report["levels"][0]) == [
        "n", "rank", "x01_length", "relations_ok", "sign", "order_checked_to"]
    assert report["levels"][0]["sign"] == 1
    assert [entry["length"] for entry in report["x01_lengths"]] == [1, 4, 16]
    assert report["config"] == {"max_level": 2, "order_powers": 100}


def test_verify_tower_order_count_costs_nothing(capsys):
    # the additive law certifies any count without multiplying a power out
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "3",
                                     "--order-powers", "1000000000"])
    assert code == 0
    assert [lvl["order_checked_to"] for lvl in report["levels"]] == \
        [1_000_000_000] * 3


def test_verify_tower_builds_no_long_seed_word(capsys, monkeypatch):
    honest = tower.seed_word

    def guarded(n):
        if n > 8:
            raise AssertionError(f"built the 4^{n}-letter seed word")
        return honest(n)

    monkeypatch.setattr(tower, "seed_word", guarded)
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "12"])
    assert code == 0
    assert [lvl["sign"] for lvl in report["levels"]] == [1] * 12
    assert [entry["length"] for entry in report["x01_lengths"]] == \
        [4 ** n for n in range(13)]


def test_verify_tower_length_law_mutation(capsys, monkeypatch):
    # blocks that cancel across a junction (x1 X2 -> ... x2 X2 ...) leave
    # the length law uncertified from level 2 on
    monkeypatch.setattr(tower, "_blocks", lambda i: ((-1, -2, 1, 2),
                                                     (-2, -1, 2, 1)))
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "3"])
    assert code == 1
    assert report["ok"] is False
    assert report["x01_lengths"] == [
        {"n": 0, "length": 1, "ok": True}, {"n": 1, "length": 4, "ok": True},
        {"n": 2, "length": None, "ok": False},
        {"n": 3, "length": None, "ok": False}]


def test_verify_tower_walks_the_top_level_blocks_once(capsys, monkeypatch):
    calls = []
    honest = tower._abelianizes_to_zero

    def counting(letters):
        calls.append(letters)
        return honest(letters)

    monkeypatch.setattr(tower, "_abelianizes_to_zero", counting)
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "6"])
    assert code == 0
    assert len(calls) == 2 ** 6
    assert report["perfectness"] == [
        {"n": n, "ok": True, "nonzero_generators": []} for n in range(7)]


def test_verify_tower_perfectness_slices_match_each_level(capsys, monkeypatch):
    honest = tower._blocks

    def skewed(i):
        # every third generator maps to x(2i-1)^-1 x(2i)^-1 x(2i-1)^2
        if i % 3:
            return honest(i)
        a, b = 2 * i - 1, 2 * i
        return (-a, -b, a, a), (-a, -a, b, a)

    monkeypatch.setattr(tower, "_blocks", skewed)
    code, report = run_json(capsys, ["verify", "tower", "--max-level", "5"])
    assert code == 1
    assert report["perfectness"] == [
        tower.perfectness_witness(m).to_json_dict() for m in range(6)]
    assert [entry["ok"] for entry in report["perfectness"]] == \
        [True, True, False, False, False, False]


def test_verify_kernel(capsys):
    argv = ["verify", "kernel", "--u1", "x1 x2", "--u2", "x1 x2",
            "--samples", "20", "--max-len", "20", "--seed", "3",
            "--oracle-seeds", "4"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["ok"] is True
    assert report["round_trip"] == {"samples": 20, "failures": 0}
    assert report["oracle"]["refutations"] == 0
    assert report["config"]["seed"] == 3


def test_scan_commute(capsys):
    argv = ["scan", "commute", "--u1", "x1 x2", "--u2", "x1 x2",
            "--max-len", "2", "--budget", "50", "--seed", "5"]
    code, report = run_json(capsys, argv)
    assert code == 0
    inner = report["report"]
    assert list(inner) == ["ctx", "max_len", "budget", "seed", "pairs_tested",
                           "commuting_pairs_found", "counterexamples"]
    assert inner["counterexamples"] == []
    assert inner["ctx"] == {"rank1": 2, "rank2": 2, "u1": "x1 x2", "u2": "x1 x2"}


def test_check_rn_split(capsys):
    code, report = run_json(capsys, ["check", "rn-split", "--level", "2"])
    assert code == 0
    assert report["relator_matches"] is True
    assert report["relator_length"] == 16
    assert report["ctx"]["u1"] == "X1 X2 x1 x2"

    for level in ("1", "0", "-1"):                     # a report, not exit 2
        code, report = run_json(capsys, ["check", "rn-split", "--level", level])
        assert code == 1
        assert report["ok"] is False
        assert report["error"] == "splitting needs n >= 2"


def test_lp_demo(capsys):
    code, report = run_json(capsys, ["lp", "demo"])
    assert code == 0
    assert report["half_image"] == "1/2"
    assert report["commutator_image_zero"] is True
    assert report["half_plus_half"] == {
        "level": 0, "word": "x1", "rational": "0"}


def test_eq_true_and_false(capsys):
    base = ["eq", "--u1", "x1", "--u2", "x1"]
    code, report = run_json(capsys, base + ["--lhs", "a c", "--rhs", "c a"])
    assert code == 0
    assert report["equal"] is True

    code, report = run_json(capsys, base + ["--lhs", "b d", "--rhs", "d b"])
    assert code == 1
    assert report["equal"] is False


def test_eq_digit_grammar(capsys):
    base = ["eq", "--u1", "x1", "--u2", "x1"]
    code, report = run_json(
        capsys, base + ["--lhs", "a1 | b1", "--rhs", "b1 | a1"])
    assert code == 0
    assert report["equal"] is True


def test_usage_errors(capsys):
    assert main(["verify"]) == 2                       # missing subcommand
    capsys.readouterr()
    assert main(["eq", "--u1", "x1", "--u2", "x1",
                 "--lhs", "z1", "--rhs", "e"]) == 2    # bad token
    capsys.readouterr()
    assert main(["verify", "kernel", "--u1", "x1", "--u2", "x1",
                 "--samples", "1", "--max-len", "8"]) == 2  # seed is mandatory
    capsys.readouterr()
    assert main(["eq", "--u1", "x0", "--u2", "x1",
                 "--lhs", "e", "--rhs", "e"]) == 2     # index 0 rejected
    capsys.readouterr()
    assert main(["eq", "--u1", "x1 x1", "--u2", "x1",
                 "--lhs", "e", "--rhs", "e"]) == 2     # u1 is a proper power
    capsys.readouterr()
    assert main(["verify", "tower", "--max-level", "0"]) == 2  # bounds positive
    capsys.readouterr()
    assert main(["verify", "tower", "--max-level", "18"]) == 2  # 2^18 images
    assert "at most 17" in capsys.readouterr().err
    assert main(["check", "rn-split", "--level", "20"]) == 2
    assert "at most 11" in capsys.readouterr().err
    for max_len in ("7", "1000000000"):                # 10^6+ enumerated words
        assert main(["scan", "commute", "--u1", "x1", "--u2", "x1",
                     "--max-len", max_len, "--budget", "0", "--seed", "1"]) == 2
        assert "more than 200000 words" in capsys.readouterr().err
    assert main(["scan", "commute", "--u1", "x1", "--u2", "x1", "--rank1", "1",
                 "--rank2", "1", "--max-len", "11", "--budget", "0",
                 "--seed", "1"]) == 2                 # 354,293 words at 1+1
    capsys.readouterr()
    assert main(["verify", "kernel", "--u1", "x1", "--u2", "x1",
                 "--samples", "2", "--max-len", "8", "--seed", "1",
                 "--oracle-degree", "1"]) == 2
    capsys.readouterr()
    for max_len in ("1", "3"):                         # shortest kernel word: 4
        assert main(["verify", "kernel", "--u1", "x1", "--u2", "x1",
                     "--samples", "2", "--max-len", max_len,
                     "--seed", "1"]) == 2
        assert "at least 4" in capsys.readouterr().err
    for degree in ("65", "100000000"):                 # no oracle is built
        assert main(["verify", "kernel", "--u1", "x1", "--u2", "x1",
                     "--samples", "2", "--max-len", "8", "--seed", "1",
                     "--oracle-degree", degree]) == 2
        assert "at most 64" in capsys.readouterr().err
    for flag, cap in (("--oracle-seeds", 200), ("--pair-len", 1024)):
        for value in (cap + 1, 1_000_000_000):         # nothing is drawn
            assert main(["verify", "kernel", "--u1", "x1", "--u2", "x1",
                         "--samples", "2", "--max-len", "8", "--seed", "1",
                         flag, str(value)]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: must be at most {cap}, got {value}" in err


# Integer options with no cap in cli._CAPS, each with what it costs.
UNCAPPED = {
    # picks the random stream only
    "seed",
    # verify kernel: linear in time, flat in memory (--u1 x1 --u2 x1
    # --max-len 24 --seed 7, 200: 0.15-0.24 s, 2000: 0.7 s, both at 18 MB
    # peak RSS, process start included)
    "samples",
    # scan commute: linear in time, flat in memory (--max-len 3, 5,000:
    # 0.29 s, 50,000: 2.8 s, both at 18 MB peak RSS)
    "budget",
    # scan commute: bounded by cli._SCAN_WORDS_CAP instead; verify kernel:
    # only an upper bound on words whose length is bounded by construction
    # (--max-len 1000000: 0.15-0.21 s, 18 MB, the same as at 24)
    "max_len",
    # verify tower: echoed, since infinite order is proven by the additive
    # law (--max-level 8 at 10^9: 0.02 s, 18 MB, the same as at 100)
    "order_powers",
}

# a short accepted command line of each leaf command with an int option
BASE_ARGV = {
    ("verify", "tower"): ["--max-level", "1"],
    ("verify", "kernel"): ["--u1", "x1", "--u2", "x1", "--samples", "1",
                           "--max-len", "8", "--seed", "1"],
    ("scan", "commute"): ["--u1", "x1", "--u2", "x1", "--max-len", "1",
                          "--budget", "0", "--seed", "1"],
    ("check", "rn-split"): ["--level", "1"],
    ("eq",): ["--u1", "x1", "--u2", "x1", "--lhs", "e", "--rhs", "e"],
}


def _int_options(parser, path=()):
    """(command path, option string, dest, lower bound, upper bound) of every
    integer option, with None for a missing bound."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _int_options(sub, path + (name,))
        elif action.type is int:
            yield path, action.option_strings[0], action.dest, None, None
        elif isinstance(action.type, cli._Bounded):
            yield (path, action.option_strings[0], action.dest,
                   action.type.low, action.type.high)


@pytest.fixture
def no_handlers(monkeypatch):
    """Fail the test if any command runs."""
    def refuse(args):
        pytest.fail(f"a command ran for {args}")
    monkeypatch.setattr(cli, "_HANDLERS", {key: refuse for key in cli._HANDLERS})


def test_every_int_option_is_capped_or_allowed(capsys, no_handlers):
    options = list(_int_options(cli.build_parser()))
    assert {option[0] for option in options} <= set(BASE_ARGV)
    assert {option[2] for option in options} >= set(cli._CAPS)
    for path, flag, dest, _, cap in options:
        if dest in UNCAPPED:
            assert dest not in cli._CAPS and cap is None
            continue
        assert dest in cli._CAPS, f"{' '.join(path)} {flag} has no cap"
        assert cap == cli._CAPS[dest]
        for value in (cap + 1, 10 ** 9):
            assert main([*path, *BASE_ARGV[path], flag, str(value)]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: must be at most {cap}, got {value}" in err


def test_oracle_degree_cap_fits_one_translate_table():
    # each seed's points must fit one 256-byte bytes.translate table: its
    # random images keep no shorter run of points onto itself
    assert cli._CAPS["oracle_degree"] <= 256


# Lower bound of each bounded option; check rn-split --level has none, since
# levels below 2 get a report saying why they do not split.
LOWER_BOUNDS = {
    ("verify", "tower"): {"--max-level": 1, "--order-powers": 1},
    ("verify", "kernel"): {"--rank1": 1, "--rank2": 1, "--samples": 1,
                           "--max-len": 4, "--pair-len": 1,
                           "--oracle-degree": 2, "--oracle-seeds": 1},
    ("scan", "commute"): {"--rank1": 1, "--rank2": 1, "--max-len": 1,
                          "--budget": 0},
    ("eq",): {"--rank1": 1, "--rank2": 1},
}


def test_every_lower_bound_is_a_usage_error(capsys, no_handlers):
    found = {}
    for path, flag, _, low, _ in _int_options(cli.build_parser()):
        if low is not None:
            found.setdefault(path, {})[flag] = low
    assert found == LOWER_BOUNDS
    for path, bounds in LOWER_BOUNDS.items():
        for flag, low in bounds.items():
            assert main([*path, *BASE_ARGV[path], flag, str(low - 1)]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: must be at least {low}, got {low - 1}" \
                in err


def test_non_integer_text_is_an_invalid_int(capsys, no_handlers):
    for path, flag, _, _, _ in _int_options(cli.build_parser()):
        assert main([*path, *BASE_ARGV[path], flag, "abc"]) == 2
        assert f"argument {flag}: invalid int value: 'abc'" in \
            capsys.readouterr().err


def test_eq_rejects_long_words_before_parsing(capsys, no_handlers):
    cap = cli._EQ_LETTERS_CAP
    for flag, text in (("--lhs", " ".join(["a c"] * (cap // 2)) + " | a"),
                       ("--rhs", "z9 " * (cap + 1))):
        assert main(["eq", *BASE_ARGV[("eq",)], flag, text]) == 2
        assert f"argument {flag}: must have at most {cap} letters, got " \
            f"{cap + 1}" in capsys.readouterr().err


def _build_with_one_free_seed(bad_seed):
    """``FiniteQuotientOracle.build``, except that seed ``bad_seed`` gets
    factor-two images that do not all centralize the image of u1: that
    oracle is no homomorphism of G, so it refutes identities of G."""
    honest = FiniteQuotientOracle.build

    def build(cls, ctx, degree, seed, max_resamples=8):
        oracle = honest(ctx, degree, seed)
        if seed != bad_seed:
            return oracle
        sigma = _eval_word_perms(oracle.images1, ctx.u1, degree)
        rng = random.Random(seed)
        while True:
            images2 = tuple(freeprod._random_perm(rng, degree)
                            for _ in range(ctx.rank2))
            if any(_perm_mul(p, sigma) != _perm_mul(sigma, p) for p in images2):
                return cls(degree, seed, oracle.images1, images2)
    return classmethod(build)


def _per_oracle_counts(ctx, oracles, samples, max_len, seed, pair_len=6):
    """verify kernel's oracle refutations and imposed-relation failures,
    with every oracle applied on its own (the literal reference).  The
    imposed relation holds in G, so only an oracle can refute it."""
    rng = random.Random(seed)
    for _ in range(samples):                           # the round-trip draws
        freeprod.random_kernel_word(rng, ctx.rank1, ctx.rank2, max_len)
    refutations = failures = 0
    for _ in range(samples):
        w1 = random_reduced_word(rng, ctx.rank1, rng.randint(1, pair_len))
        w2 = random_reduced_word(rng, ctx.rank2, rng.randint(1, pair_len))
        comm = sp_commutator(ctx.embed(1, w1), ctx.embed(2, w2))
        expansion = kword_expand(
            rewrite_commutator(ctx, w1, w2), ctx.rank1, ctx.rank2)
        if not eq_in_G(ctx, comm, expansion):
            continue
        if any(o.distinguishes(comm, expansion) for o in oracles):
            refutations += 1
        a, b = ctx.embed(1, ctx.u1 * w1), ctx.embed(2, ctx.u2 * w2)
        e1, e2 = ctx.embed(1, w1), ctx.embed(2, w2)
        lhs = sp_commutator(a, b)               # [u1 w1, u2 w2]
        rhs = sp_multiply(sp_commutator(a, e2), sp_commutator(e2, e1),
                          sp_commutator(e1, b))
        if any(o.apply(lhs) != o.apply(rhs) for o in oracles):
            failures += 1
    return refutations, failures


def test_verify_kernel_counts_forced_refutations_like_each_oracle(
        monkeypatch, capsys):
    # at degree 64 the product's blocks hold 4 seeds each, so the free seed
    # 17 is in its fifth and last block
    for u, seed, degree, seeds, free in (("x1 x2", 7, 8, 5, 2),
                                         ("x1", 12, 8, 5, 2),
                                         ("x1 x2", 7, 64, 20, 17)):
        monkeypatch.setattr(FiniteQuotientOracle, "build",
                            _build_with_one_free_seed(seed + free))
        code, report = run_json(capsys, [
            "verify", "kernel", "--u1", u, "--u2", u, "--samples", "40",
            "--max-len", "16", "--seed", str(seed),
            "--oracle-degree", str(degree), "--oracle-seeds", str(seeds)])
        ctx = GContext(2, 2, parse_word(u, 2), parse_word(u, 2))
        oracles = [FiniteQuotientOracle.build(ctx, degree, seed + i)
                   for i in range(seeds)]
        refutations, failures = _per_oracle_counts(ctx, oracles, 40, 16, seed)
        assert refutations > 0 and failures > 0
        assert code == 1
        assert report["oracle"]["refutations"] == refutations
        assert report["imposed_relation"]["failures"] == failures


def _times_a(w):
    """``w`` times the first factor-one generator: a different element."""
    a = SyllableWord(w.rank1, w.rank2, [(1, Word(w.rank1, (1,)))])
    return sp_multiply(w, a)


KERNEL_SECTIONS = ("round_trip", "commutator_rewrite", "imposed_relation",
                   "conjugation_expansion")


@pytest.mark.parametrize("section, owner, name, spoil", [
    ("round_trip", cli, "expand_basis_product", _times_a),
    ("commutator_rewrite", cli, "rewrite_commutator", lambda kw: kw.inverse()),
    ("conjugation_expansion", freeprod, "_conj_expansion_sides",
     lambda sides: (sides[0], _times_a(sides[1]))),
])
@pytest.mark.parametrize("u", ["x1 x2", "x1"])
def test_verify_kernel_counts_forced_section_failures(
        monkeypatch, capsys, section, owner, name, spoil, u):
    # every second call of one step of the section returns a wrong result
    honest = getattr(owner, name)
    calls = spoiled = 0

    def step(*args):
        nonlocal calls, spoiled
        result = honest(*args)
        calls += 1
        if calls % 2:
            return result
        wrong = spoil(result)
        spoiled += wrong != result
        return wrong

    monkeypatch.setattr(owner, name, step)
    code, report = run_json(capsys, [
        "verify", "kernel", "--u1", u, "--u2", u, "--samples", "30",
        "--max-len", "16", "--seed", "5"])
    assert calls >= 30 and spoiled > 0
    assert report[section]["failures"] == spoiled
    assert all(report[s]["failures"] == 0
               for s in KERNEL_SECTIONS if s != section)
    assert report["oracle"]["refutations"] == 0
    assert report["ok"] is False and code == 1


def test_verify_kernel_applies_one_oracle_per_word(monkeypatch, capsys):
    degrees = []
    honest = FiniteQuotientOracle.apply

    def counting(self, w):
        degrees.append(self.degree)
        return honest(self, w)

    monkeypatch.setattr(FiniteQuotientOracle, "apply", counting)
    for seeds in (1, 5, 20):
        degrees.clear()
        code, report = run_json(capsys, [
            "verify", "kernel", "--u1", "x1 x2", "--u2", "x1 x2",
            "--samples", "20", "--max-len", "16", "--seed", "3",
            "--oracle-seeds", str(seeds)])
        assert code == 0 and report["oracle"]["refutations"] == 0
        # two words for the refutation check, two for the imposed relation
        assert 0 < len(degrees) <= 4 * 20
        assert set(degrees) == {8 * seeds}


def test_text_format_has_verdict_line(capsys):
    code, out = run(capsys, ["lp", "demo"])
    assert code == 0
    assert out.splitlines()[0] == "command: lp demo"
    assert out.splitlines()[-1] == "PASS"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, ["lp", "demo", "--format", "json",
                             "--out", str(path)])
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_out_file_unwritable(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code = main(["lp", "demo", "--out", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_reports_are_deterministic(capsys):
    commands = [
        ["verify", "tower", "--max-level", "1", "--format", "json"],
        ["verify", "kernel", "--u1", "x1 x2", "--u2", "x1 x2",
         "--samples", "5", "--max-len", "16", "--seed", "11",
         "--oracle-seeds", "3", "--format", "json"],
        ["scan", "commute", "--u1", "x1", "--u2", "x1",
         "--max-len", "2", "--budget", "40", "--seed", "11",
         "--format", "json"],
        ["lp", "demo", "--format", "json"],
    ]
    for argv in commands:
        first = run(capsys, list(argv))
        assert main(["verify", "tower", "--max-level", "0"]) == 2  # in between
        capsys.readouterr()
        second = run(capsys, list(argv))
        assert first == second


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["verify", "tower", "--max-level", "2"]) == 0


def test_parser_reuse_keeps_no_state(capsys):
    kernel = ["verify", "kernel", "--u1", "x1", "--u2", "x1", "--samples", "2",
              "--max-len", "8", "--seed", "1"]
    code, report = run_json(capsys, kernel + ["--oracle-seeds", "3"])
    assert code == 0 and report["config"]["oracle_seeds"] == 3
    code, report = run_json(capsys, kernel)
    assert code == 0 and report["config"]["oracle_seeds"] == 20


def test_module_entry_point(capsys):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "commtower", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    argv = ["verify", "tower", "--max-level", "2", "--format", "json"]
    done = run_module(*argv)
    assert done.returncode == 0
    assert done.stdout == run(capsys, argv)[1]

    done = run_module("verify", "tower", "--max-level", "18")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "argument --max-level: must be at most 17, got 18" in done.stderr

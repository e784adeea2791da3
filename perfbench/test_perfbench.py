"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import json
import random

import pytest

import run

run.load_package()

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from commtower import freeprod, tower, words  # noqa: E402

CONTEXTS = {label: (u1, u2) for label, u1, u2 in workloads.EQ_CONTEXTS}


class SmallEq(workloads.EqLong):
    length = 32
    per_category = 2
    traced_ops = 6


def tagged(text):
    """Letters of a two-factor word written with a, b (factor one) and
    c, d (factor two), upper case for inverses."""
    code = {"a": 1, "b": 2, "c": 3, "d": 4}
    return tuple(code[ch] if ch.islower() else -code[ch.lower()]
                 for ch in text.split())


def letters(w):
    return tuple(let if f == 1 else (let + 2 if let > 0 else let - 2)
                 for f, s in w.syllables for let in s.letters)


@pytest.mark.parametrize("label, lhs, rhs, equal", [
    ("x1", "a c", "c a", True),
    ("x1", "a d", "d a", False),
    ("x1 x2", "a b c d", "c d a b", True),
    ("x1 x2", "a c", "c a", False),
    ("split_context(2)", "A B a b C D c d", "C D c d A B a b", True),
    ("split_context(2)", "a c", "c a", False),
])
def test_certifier_agrees_with_known_pairs(label, lhs, rhs, equal):
    u1, u2 = CONTEXTS[label]
    t = ref.free_reduce(ref.inverse(tagged(lhs)) + tagged(rhs))
    certified = ref.certify_nontrivial(random.Random(0), 2, 2, u1, u2, t,
                                       tries=40)
    assert certified is not equal
    ctx = workloads.EqLong().contexts()[list(CONTEXTS).index(label)]
    x, y = workloads.syllable_word(tagged(lhs)), workloads.syllable_word(tagged(rhs))
    assert freeprod.eq_in_G(ctx, x, y) is equal


def test_generated_pairs_match_the_program_and_the_certifier():
    wl = SmallEq()
    state = wl.setup(3)
    for category, pairs in enumerate(state["pairs"]):
        ctx = state["contexts"][category // 2]
        u1, u2 = workloads.EQ_CONTEXTS[category // 2][1:]
        for x, y, equal in pairs:
            assert freeprod.eq_in_G(ctx, x, y) is equal
            t = ref.free_reduce(ref.inverse(letters(x)) + letters(y))
            assert ref.certify_nontrivial(
                random.Random(1), 2, 2, u1, u2, t, tries=20) is not equal


def test_pair_count_matches_closed_form():
    for rank, max_len in ((1, 4), (2, 3), (4, 3)):
        n = [1] + [2 * rank * (2 * rank - 1) ** (k - 1)
                   for k in range(1, max_len + 1)]
        closed = sum(n[a] * n[b] for a in range(max_len + 1)
                     for b in range(max_len + 1 - a))
        assert ref.exhaustive_pair_count(rank, max_len) == closed
    assert ref.exhaustive_pair_count(4, 3) == 1873


def test_reference_tower_matches_the_program():
    for n in range(1, 5):
        assert ref.seed_word(n) == tower.seed_word(n).letters
        assert ref.seed_sign(n) == tower.verify_representation(n, 3).sign


def test_wrong_expected_verdict_shows_in_pass_ratio(capsys):
    wl = SmallEq()
    state = wl.setup(5)
    x, y, equal = state["pairs"][0][0]
    state["pairs"][0][0] = (x, y, not equal)
    latencies, failed, _ = run.timed_loop(wl, state, 0)
    assert (len(latencies), failed) == (wl.cycle, 1)

    class Flipped(SmallEq):
        def setup(self, seed):
            st = super().setup(seed)
            x, y, equal = st["pairs"][1][0]
            st["pairs"][1][0] = (x, y, not equal)
            return st

    result = run.end_to_end(Flipped(), 5, 0)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["pass_ratio"][0] == 1 - 1 / result["attempted"]
    assert run.end_to_end(SmallEq(), 5, 0)["metrics"]["pass_ratio"][0] == 1.0


def inputs_bytes(name, seed):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    if name == "tower":
        data = [[c["a"].to_json_dict(), c["b"].to_json_dict(), c["word"],
                 str(c["rational"])] for c in state["cases"]]
    elif name == "eq_long":
        data = [[str(x), str(y), eq] for cat in state["pairs"]
                for x, y, eq in cat]
        data += [[str(x), str(y)] for x, y, _ in state["scale"].values()]
    else:
        data = state["seeds"]
    return json.dumps(data).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_byte_identical_per_seed(name):
    assert inputs_bytes(name, 7) == inputs_bytes(name, 7)
    assert inputs_bytes(name, 7) != inputs_bytes(name, 8)


def test_clear_caches_finds_package_caches_even_when_traced():
    tower.seed_word(3)
    assert tower.seed_word.cache_info().currsize > 0
    assert workloads.clear_caches() >= 2
    assert tower.seed_word.cache_info().currsize == 0
    tr = spans.Tracer()
    spans.install(tr)
    try:
        tower.seed_word(3)
        workloads.clear_caches()
    finally:
        tr.uninstall()
    assert tower.seed_word.cache_info().currsize == 0


def test_traced_counts_repeat_and_tracing_uninstalls(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    original = vars(words.Word)["__mul__"]
    first = run.per_layer(SmallEq(), 11)
    second = run.per_layer(SmallEq(), 11)
    assert vars(words.Word)["__mul__"] is original
    assert first["correct"] and second["correct"]
    counts = {k for k, (_, unit) in first["metrics"].items() if unit == "count"}
    assert first["metrics"]["freeprod.k_image.symbols"][0] > 0
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    header, arrays = spans.read_spans(tmp_path / "eq_long-seed11.spans")
    assert header["spans"] == len(arrays["start"]) > 0
    assert all(p < i for i, p in enumerate(arrays["parent"]))

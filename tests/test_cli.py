import json

from commtower import tower
from commtower.cli import main


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

    code, report = run_json(capsys, ["check", "rn-split", "--level", "1"])
    assert code == 1
    assert report["ok"] is False
    assert "error" in report


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
        second = run(capsys, list(argv))
        assert first == second

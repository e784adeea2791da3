"""The eight ``scripts/run_all_checks.py`` batteries must keep writing the
same JSON bytes: a change that only speeds the library up leaves every
report byte-identical.  A deliberate report change updates the digests here
and says why in CHANGES.md.  The package's exported names are pinned the
same way."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import commtower
from commtower.cli import main

SEED = 20240801
MAX_LEVEL = 4

# sha256 of each report at seed 20240801, max-level 4
DIGESTS = {
    "verify_tower": "86eda4ae5038210e6a7efa5b05d0717ec3579e0376022df9dac1a3ac45eeaa60",
    "verify_kernel_ab_cd": "d26f498d3f2c03f9252d6dec440bf487ee5c6284a483836a366f07b2d8f73aec",
    "verify_kernel_single": "4056143db4084e2cc7d8fcbe8833c19f8fa754a3704f83a0522809e1366fdd83",
    "scan_commute_ab_cd": "ec73795d4a192bd513268dd2f93568d1cb8fb5d1ad6d5ce4967c9cb04be06cdd",
    "check_rn_split_2": "c96a705a29a4a9d00788eabd9eb379438b23bed1bb4dc4c1b059681b1b74f963",
    "check_rn_split_3": "09fc61dfc5b83ea6b0092c6818f9eebfbd35dea9319e54ae54a7acaba55033bb",
    "lp_demo": "36b3b359d3615f0f6cce2eb9232c4e53457b110cae8456856fe74fa29ac98d90",
    "eq_relation": "dcc0211c76c230bf3e9e94277e76468c0bf09753dd8d5dd2cf448cc1e3bbabd5",
}

# sha256 of `verify tower --max-level 6 --format json` per --order-powers;
# the battery above stops at level 4
TOWER_LEVEL6_DIGESTS = {
    100: "7db90fe8f0665cce5ab861b15ca5d0e43c279735a3b9d319d5dfb302c29e213a",
    7: "11990187231cdfc2d33e9492db5674b8b88e8ef2d3187fad8c6199676f18be9f",
}

# the same at --max-level 8, as written when the seed image came from the
# dense 4^n-letter evaluation; the sparse pull-back must reproduce them
TOWER_LEVEL8_DIGESTS = {
    100: "9e06e55975599b0ff239533f9eca03fe8cec7b9036a64f62004c6d7ca07907d4",
    7: "3f7e06b1de8d6b08922e162d996b30a0497412bf2dfaac7a1fff5afc83b41616",
}

# the same at --max-level 12, as written when each bracket went through
# generic sparse products and inverses; the Steinberg closed form must
# reproduce them
TOWER_LEVEL12_DIGESTS = {
    100: "d6c872282a0e6e06330869d21727ebbfb05ff5ce0057293410d8f0ff5f5c3a01",
    7: "7249d1009b8fb8df06f7b4498bd4f224a8f6d61fefe0944179a8acf69da51a8d",
}


def _batteries():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_checks.py"
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.batteries(SEED, MAX_LEVEL)


def test_battery_reports_are_byte_identical(tmp_path, capsys):
    digests = {}
    for name, argv in _batteries():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0, name
        capsys.readouterr()
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == DIGESTS


def test_scripts_run_from_a_checkout(tmp_path):
    # as the README runs them: no install and no PYTHONPATH
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    outdir = tmp_path / "reports"
    for script, *argv in (["run_all_checks.py", "--outdir", str(outdir)],
                          ["sign_table.py", "--max-level", "3"]):
        done = subprocess.run([sys.executable, str(scripts / script), *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        if script == "run_all_checks.py":
            # one summary line per battery, with its exit code and wall time
            lines = done.stdout.splitlines()
            assert len(lines) == len(DIGESTS) and all(re.fullmatch(
                r"PASS  \w+  \(exit 0, \d+\.\d\d s\)  -> \S+\.json", line)
                for line in lines), done.stdout
    assert {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outdir.glob("*.json")} == DIGESTS


def _tower_digest(tmp_path, capsys, level, order_powers):
    out = tmp_path / f"tower_{level}_{order_powers}.json"
    assert main(["verify", "tower", "--max-level", str(level), "--order-powers",
                 str(order_powers), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_tower_report_at_level_6_is_byte_identical(tmp_path, capsys):
    for order_powers, digest in TOWER_LEVEL6_DIGESTS.items():
        assert _tower_digest(tmp_path, capsys, 6, order_powers) == digest


def test_tower_report_at_level_8_is_byte_identical(tmp_path, capsys):
    for order_powers, digest in TOWER_LEVEL8_DIGESTS.items():
        assert _tower_digest(tmp_path, capsys, 8, order_powers) == digest


def test_tower_report_at_level_12_is_byte_identical(tmp_path, capsys):
    for order_powers, digest in TOWER_LEVEL12_DIGESTS.items():
        assert _tower_digest(tmp_path, capsys, 12, order_powers) == digest


# sha256 of `verify kernel --u1 "x1 x2" --u2 "x1 x2" --samples 100 --max-len 24
# --seed 7 --format json` at other oracle degrees and seed counts, as written
# when every oracle was applied on its own; the battery above uses 20 seeds
# at degree 8
KERNEL_ORACLE_DIGESTS = {
    (64, 7): "60131bf5782746cc9c622578c61c8b4de6715e6fe7b5fb718ccfa64982b36304",
    (3, 1): "8ee1bbe0ca03000160134106476c31edbfacebd0aa4e090e516dac9e04ddb35f",
}


def test_kernel_report_at_other_oracle_degrees_is_byte_identical(tmp_path, capsys):
    for (degree, seeds), digest in KERNEL_ORACLE_DIGESTS.items():
        out = tmp_path / f"kernel_{degree}_{seeds}.json"
        assert main(["verify", "kernel", "--u1", "x1 x2", "--u2", "x1 x2",
                     "--samples", "100", "--max-len", "24", "--seed", "7",
                     "--oracle-degree", str(degree), "--oracle-seeds", str(seeds),
                     "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `scan commute ... --format json`, as written when syllable words
# held their syllables; the battery above pins --max-len 3 only
SCAN_DIGESTS = {
    ("x1 x2", 5, 0, 1):
        "239cc4c5d58a5378c1714e0f3d197408b1a5fc398555714087620bb5930e57fa",
    ("x1", 4, 500, 7):
        "66e830dfbdee0cd48b75a11eb82937f644a5039a43b0058ecb5858eafee4f767",
}


def test_scan_reports_are_byte_identical(tmp_path, capsys):
    for (u, max_len, budget, seed), digest in SCAN_DIGESTS.items():
        out = tmp_path / f"scan_{max_len}.json"
        assert main(["scan", "commute", "--u1", u, "--u2", u,
                     "--max-len", str(max_len), "--budget", str(budget),
                     "--seed", str(seed), "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the public names of ``commtower``, grouped by the module that defines them
EXPORTS = {
    "AlphabetError", "RankMismatchError", "Word", "commutator", "conjugate",
    "coset_rep", "cyclic_reduce", "cyclic_subgroup_exponent", "exponent_sum",
    "generator", "is_conjugate", "is_cyclically_reduced", "parse_word",
    "primitive_root", "reduce_word", "reduced_words", "shift_index", "support",
    "word_str",
    "IntMatrix", "elementary", "evaluate_word", "identity", "matmul",
    "unitriangular_inverse",
    "Presentation", "central_presentation", "doubling_map", "heisenberg_nf",
    "one_relator_presentation", "perfectness_witness", "seed_word",
    "split_context", "superdiagonal_assignment", "verify_representation",
    "LPElement", "lp_commutator", "lp_element", "lp_include", "lp_invert",
    "lp_multiply", "lp_normalize", "lp_qz_image",
    "FiniteQuotientOracle", "GContext", "KBasisSymbol", "KWord", "SyllableWord",
    "cartesian_basis_express", "commutation_scan", "conj_expansion_check",
    "conj_support_check", "eq_in_G", "expand_basis_product", "h_map", "k_image",
    "kword_expand", "parse_syllable_word", "relation_check",
    "rewrite_commutator", "sp_commutator", "sp_invert", "sp_multiply",
    "sp_reduce", "syllable_str",
}


def test_exported_names_are_pinned():
    # submodules become attributes once imported, so they are left out
    assert {name for name, value in vars(commtower).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == EXPORTS

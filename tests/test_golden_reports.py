"""The eight ``scripts/run_all_checks.py`` batteries must keep writing the
same JSON bytes: a change that only speeds the library up leaves every
report byte-identical.  A deliberate report change updates the digests here
and says why in CHANGES.md."""

import hashlib
import importlib.util
from pathlib import Path

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

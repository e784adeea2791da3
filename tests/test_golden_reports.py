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

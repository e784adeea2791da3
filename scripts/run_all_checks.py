#!/usr/bin/env python3
"""Run the full verification battery through the CLI and collect reports.

Writes one JSON report per command into the given output directory (default
./reports) and prints a summary table with each battery's exit code and wall
time.  Returns a nonzero exit status if any
battery reports a violation.
"""

import argparse
import contextlib
import io
import pathlib
import sys
import time

# the checkout's package first, so the script runs without an install
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from commtower.cli import main as cli_main


def batteries(seed: int, max_level: int):
    return [
        ("verify_tower",
         ["verify", "tower", "--max-level", str(max_level)]),
        ("verify_kernel_ab_cd",
         ["verify", "kernel", "--u1", "x1 x2", "--u2", "x1 x2",
          "--samples", "200", "--max-len", "24", "--seed", str(seed)]),
        ("verify_kernel_single",
         ["verify", "kernel", "--u1", "x1", "--u2", "x1",
          "--samples", "200", "--max-len", "24", "--seed", str(seed)]),
        ("scan_commute_ab_cd",
         ["scan", "commute", "--u1", "x1 x2", "--u2", "x1 x2",
          "--max-len", "3", "--budget", "2000", "--seed", str(seed)]),
        ("check_rn_split_2", ["check", "rn-split", "--level", "2"]),
        ("check_rn_split_3", ["check", "rn-split", "--level", "3"]),
        ("lp_demo", ["lp", "demo"]),
        ("eq_relation",
         ["eq", "--u1", "x1", "--u2", "x1", "--lhs", "a c", "--rhs", "c a"]),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--max-level", type=int, default=4)
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for name, argv in batteries(args.seed, args.max_level):
        path = outdir / f"{name}.json"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--format", "json", "--out", str(path)])
        elapsed = time.perf_counter() - start
        status = "PASS" if code == 0 else "FAIL"
        print(f"{status}  {name}  (exit {code}, {elapsed:.2f} s)  -> {path}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tabulate the seed-image data of the superdiagonal representation.

The representation pins the seed image to elementary(+-1, 1, 2^n + 1) but
leaves the sign per level to computation; this prints the observed values.
With rank-halved factors, the two half images share one sign and the
commutator multiplies them, so +1 at every level is the expected outcome.
The sign comes from the sparse pulled-back seed image and |seed| from the
4^n length law, so no seed word is built and any level the CLI accepts
(up to 17) runs in seconds.
"""

import argparse
import pathlib
import sys

# the checkout's package first, so the script runs without an install
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from commtower.tower import level_rank, verify_representation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=6)
    args = parser.parse_args()

    print(f"{'n':>3} {'rank':>7} {'dim':>7} {'|seed|':>12} {'sign':>5} "
          f"{'relations':>10}")
    for n in range(1, args.max_level + 1):
        rep = verify_representation(n)
        print(f"{n:>3} {level_rank(n):>7} {level_rank(n) + 1:>7} "
              f"{rep.x01_length:>12} {rep.sign:>+5} "
              f"{str(rep.relations_ok):>10}")


if __name__ == "__main__":
    main()

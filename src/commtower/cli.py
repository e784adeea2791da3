"""Command-line verification surface.

Subcommands
    verify tower    representation / perfectness / seed-length checks per level
    verify kernel   kernel round trips, rewriting identities, oracle agreement
    scan commute    hunt for pairs commuting with their commutator
    check rn-split  split a tower level over two free factors
    lp demo         the localized group's Q/Z observable
    eq              decide equality of two free-product words in G

Exit codes: 0 all checks pass, 1 a property is violated (the report names
it), 2 usage error.  Reports embed the resolved configuration and, per fixed
seed, are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import freeprod, localization, tower
from .freeprod import (
    FiniteQuotientOracle,
    GContext,
    cartesian_basis_express,
    conj_expansion_check,
    eq_in_G,
    expand_basis_product,
    kword_expand,
    parse_syllable_word,
    relation_check,
    rewrite_commutator,
    sp_commutator,
    syllable_str,
)
from .words import parse_word, random_reduced_word, word_str


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to this file")

    parser = argparse.ArgumentParser(
        prog="commtower",
        description="verification suite for the commutator tower, its "
                    "localization, and the commuting-relator quotient")
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run a verification battery")
    vsub = verify.add_subparsers(dest="subcommand", required=True)

    vt = vsub.add_parser("tower", parents=[common],
                         help="matrix representation checks per level")
    vt.add_argument("--max-level", type=int, required=True)
    vt.add_argument("--order-powers", type=int, default=100)

    vk = vsub.add_parser("kernel", parents=[common],
                         help="kernel basis and rewriting checks")
    vk.add_argument("--u1", required=True, help="factor-one word, x-grammar")
    vk.add_argument("--u2", required=True, help="factor-two word, x-grammar")
    vk.add_argument("--rank1", type=int, default=2)
    vk.add_argument("--rank2", type=int, default=2)
    vk.add_argument("--samples", type=int, required=True)
    vk.add_argument("--max-len", type=int, required=True,
                    help="length cap for sampled kernel words")
    vk.add_argument("--seed", type=int, required=True)
    vk.add_argument("--pair-len", type=int, default=6,
                    help="length cap for the rewritten commutator components")
    vk.add_argument("--oracle-degree", type=int, default=8)
    vk.add_argument("--oracle-seeds", type=int, default=20)

    scan = top.add_parser("scan", help="run an empirical scan")
    ssub = scan.add_subparsers(dest="subcommand", required=True)
    sc = ssub.add_parser("commute", parents=[common],
                         help="pairs commuting with their commutator")
    sc.add_argument("--u1", required=True)
    sc.add_argument("--u2", required=True)
    sc.add_argument("--rank1", type=int, default=2)
    sc.add_argument("--rank2", type=int, default=2)
    sc.add_argument("--max-len", type=int, required=True)
    sc.add_argument("--budget", type=int, required=True)
    sc.add_argument("--seed", type=int, required=True)

    check = top.add_parser("check", help="structural checks")
    csub = check.add_subparsers(dest="subcommand", required=True)
    cr = csub.add_parser("rn-split", parents=[common],
                         help="split a level relator over two free factors")
    cr.add_argument("--level", type=int, required=True)

    lp = top.add_parser("lp", help="localized-group demonstrations")
    lsub = lp.add_subparsers(dest="subcommand", required=True)
    lsub.add_parser("demo", parents=[common],
                    help="the Q/Z witness against perfectness")

    eq = top.add_parser("eq", parents=[common],
                        help="decide equality in the quotient group")
    eq.add_argument("--u1", required=True)
    eq.add_argument("--u2", required=True)
    eq.add_argument("--rank1", type=int, default=2)
    eq.add_argument("--rank2", type=int, default=2)
    eq.add_argument("--lhs", required=True, help="free-product word grammar")
    eq.add_argument("--rhs", required=True, help="free-product word grammar")

    return parser


def _context(args: argparse.Namespace) -> GContext:
    return GContext(
        rank1=args.rank1, rank2=args.rank2,
        u1=parse_word(args.u1, args.rank1),
        u2=parse_word(args.u2, args.rank2))


def _cmd_verify_tower(args: argparse.Namespace) -> dict:
    config = {
        "max_level": args.max_level,
        "order_powers": args.order_powers,
    }
    levels = []
    ok = True
    for n in range(1, args.max_level + 1):
        report = tower.verify_representation(n, order_powers=args.order_powers)
        ok = ok and report.ok
        levels.append(report.to_json_dict())
    perfectness = []
    for n in range(0, args.max_level + 1):
        report = tower.perfectness_witness(n)
        ok = ok and report.ok
        perfectness.append(report.to_json_dict())
    # each level report already certified the length law for its n
    lengths = []
    for n, length in enumerate([tower.seed_length(0)] +
                               [level["x01_length"] for level in levels]):
        good = length == 4 ** n
        ok = ok and good
        lengths.append({"n": n, "length": length, "ok": good})
    return {
        "command": "verify tower",
        "config": config,
        "levels": levels,
        "perfectness": perfectness,
        "x01_lengths": lengths,
        "ok": ok,
    }


def _cmd_verify_kernel(args: argparse.Namespace) -> dict:
    ctx = _context(args)
    config = {
        "u1": word_str(ctx.u1), "u2": word_str(ctx.u2),
        "rank1": ctx.rank1, "rank2": ctx.rank2,
        "samples": args.samples, "max_len": args.max_len,
        "pair_len": args.pair_len, "seed": args.seed,
        "oracle_degree": args.oracle_degree, "oracle_seeds": args.oracle_seeds,
    }
    oracles = [
        FiniteQuotientOracle.build(ctx, args.oracle_degree, args.seed + i)
        for i in range(args.oracle_seeds)]

    rng = random.Random(args.seed)
    round_trip_failures = 0
    for _ in range(args.samples):
        w = freeprod.random_kernel_word(rng, ctx.rank1, ctx.rank2, args.max_len)
        expr = cartesian_basis_express(w)
        if expand_basis_product(ctx.rank1, ctx.rank2, expr) != w:
            round_trip_failures += 1

    rewrite_failures = 0
    relation_failures = 0
    oracle_refutations = 0
    for _ in range(args.samples):
        w1 = random_reduced_word(rng, ctx.rank1, rng.randint(1, args.pair_len))
        w2 = random_reduced_word(rng, ctx.rank2, rng.randint(1, args.pair_len))
        comm = sp_commutator(ctx.embed(1, w1), ctx.embed(2, w2))
        expansion = kword_expand(
            rewrite_commutator(ctx, w1, w2), ctx.rank1, ctx.rank2)
        if not eq_in_G(ctx, comm, expansion):
            rewrite_failures += 1
            continue
        if any(o.distinguishes(comm, expansion) for o in oracles):
            oracle_refutations += 1
        try:
            relation_check(ctx, w1, w2, oracles)
        except freeprod.VerificationError:
            relation_failures += 1

    expansion_failures = 0
    for _ in range(args.samples):
        x1 = random_reduced_word(rng, ctx.rank1, rng.randint(0, 2))
        x2 = random_reduced_word(rng, ctx.rank2, rng.randint(0, 2))
        factors = []
        for _ in range(rng.randint(1, 3)):
            c = random_reduced_word(rng, ctx.rank1, rng.randint(1, 2))
            d = random_reduced_word(rng, ctx.rank2, rng.randint(1, 2))
            factors.append(((c, d), rng.choice((1, -1))))
        if not conj_expansion_check(ctx.rank1, ctx.rank2, x1, x2, factors,
                                    rng.randint(0, 4)):
            expansion_failures += 1

    ok = not (round_trip_failures or rewrite_failures or relation_failures
              or expansion_failures or oracle_refutations)
    return {
        "command": "verify kernel",
        "config": config,
        "round_trip": {"samples": args.samples, "failures": round_trip_failures},
        "commutator_rewrite": {"samples": args.samples,
                               "failures": rewrite_failures},
        "imposed_relation": {"samples": args.samples,
                             "failures": relation_failures},
        "conjugation_expansion": {"samples": args.samples,
                                  "failures": expansion_failures},
        "oracle": {
            "degree": args.oracle_degree,
            "seeds": args.oracle_seeds,
            "refutations": oracle_refutations,
        },
        "ok": ok,
    }


def _cmd_scan_commute(args: argparse.Namespace) -> dict:
    ctx = _context(args)
    report = freeprod.commutation_scan(
        ctx, max_len=args.max_len, budget=args.budget, seed=args.seed)
    return {
        "command": "scan commute",
        "config": {
            "u1": word_str(ctx.u1), "u2": word_str(ctx.u2),
            "rank1": ctx.rank1, "rank2": ctx.rank2,
            "max_len": args.max_len, "budget": args.budget, "seed": args.seed,
        },
        "report": report.to_json_dict(),
        "ok": report.ok,
    }


def _cmd_check_rn_split(args: argparse.Namespace) -> dict:
    config = {"level": args.level}
    try:
        ctx = tower.split_context(args.level)
    except (ValueError, tower.SplitError) as exc:
        return {
            "command": "check rn-split",
            "config": config,
            "error": str(exc),
            "ok": False,
        }
    return {
        "command": "check rn-split",
        "config": config,
        "ctx": ctx.to_json_dict(),
        "relator_matches": True,
        "relator_length": len(tower.seed_word(args.level)),
        "u1_primitive": True,
        "u2_primitive": True,
        "ok": True,
    }


def _cmd_lp_demo(args: argparse.Namespace) -> dict:
    level1 = localization.lp_include(parse_word("x1 x2", 2), 1)
    level1b = localization.lp_include(parse_word("X2 x1", 2), 1)
    half = localization.lp_element(0, rational=Fraction(1, 2))
    third = localization.lp_element(1, rational=Fraction(1, 3))

    included_zero = localization.lp_qz_image(level1) == 0
    comm = localization.lp_commutator(
        localization.lp_multiply(level1, half),
        localization.lp_multiply(level1b, third))
    commutator_zero = localization.lp_qz_image(comm) == 0
    half_image = localization.lp_qz_image(half)
    doubled = localization.lp_multiply(half, half)
    additive = (
        localization.lp_qz_image(localization.lp_multiply(half, third))
        == (Fraction(1, 2) + Fraction(1, 3)) % 1)

    ok = (included_zero and commutator_zero and half_image == Fraction(1, 2)
          and localization.lp_qz_image(doubled) == 0 and additive)
    return {
        "command": "lp demo",
        "config": {},
        "included_word_image_zero": included_zero,
        "commutator_image_zero": commutator_zero,
        "half_image": str(half_image),
        "half_plus_half": doubled.to_json_dict(),
        "additive_mod_1": additive,
        "ok": ok,
    }


def _cmd_eq(args: argparse.Namespace) -> dict:
    ctx = _context(args)
    lhs = parse_syllable_word(args.lhs, ctx.rank1, ctx.rank2)
    rhs = parse_syllable_word(args.rhs, ctx.rank1, ctx.rank2)
    equal = eq_in_G(ctx, lhs, rhs)
    return {
        "command": "eq",
        "config": {
            "u1": word_str(ctx.u1), "u2": word_str(ctx.u2),
            "rank1": ctx.rank1, "rank2": ctx.rank2,
            "lhs": syllable_str(lhs), "rhs": syllable_str(rhs),
        },
        "equal": equal,
        "ok": equal,
    }


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}{key}.", sub)
        elif isinstance(value, list):
            for i, sub in enumerate(value):
                walk(f"{prefix}{i}.", sub)
        else:
            lines.append(f"  {prefix[:-1]} = {value}")

    for key, value in report.items():
        if key not in ("command", "ok"):
            walk(f"{key}.", value)
    lines.append("PASS" if report.get("ok") else "FAIL")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    ("verify", "tower"): _cmd_verify_tower,
    ("verify", "kernel"): _cmd_verify_kernel,
    ("scan", "commute"): _cmd_scan_commute,
    ("check", "rn-split"): _cmd_check_rn_split,
    ("lp", "demo"): _cmd_lp_demo,
    ("eq", None): _cmd_eq,
}

_POSITIVE_FLAGS = ("max_level", "order_powers", "samples", "max_len",
                   "pair_len", "oracle_seeds", "rank1", "rank2")

# Highest value of each flag (peak memory and time, CPython 3.11).
_CAPS = {
    "level": 11,      # seed_word(11) peaks at about 136 MB, x4 per level
    # verify tower --max-level 17 runs in 5.1-6.1 s wall at 128 MB peak RSS
    # (16: 3.1-4.2 s, 73 MB; 18: 16.2 s, 244 MB; CPython 3.11, 2-core VM);
    # the sparse images grow x2 per level in time and memory
    "max_level": 17,
    # An oracle build takes about 0.25 ms at degree 64 (0.1 ms at 8); the
    # oracles' apply costs O(degree) per letter, so verify kernel --samples
    # 200 --max-len 24 with 20 oracle seeds takes 1.5-1.7 s at 64 (0.5 s at 8)
    "oracle_degree": 64,
}

# Most words the exhaustive phase of `scan commute` may list: the 22,409 of
# --max-len 5 at rank 2+2, with the scan's index dict and inverse list, peak
# at 20 MB (tracemalloc, CPython 3.11), about 0.9 KB each and x7 per step
# there; the cap still admits --max-len 6.
_SCAN_WORDS_CAP = 200_000


def _check_bounds(args: argparse.Namespace) -> Optional[str]:
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            return f"--{name.replace('_', '-')} must be positive, got {value}"
    for name, cap in _CAPS.items():
        value = getattr(args, name, None)
        if value is not None and value > cap:
            return f"--{name.replace('_', '-')} must be at most {cap}, got {value}"
    if args.command == "verify" and args.subcommand == "kernel" \
            and args.max_len < 4:
        # random_kernel_word regenerates until its length fits, and the
        # shortest nontrivial kernel word is a 4-letter commutator
        return f"--max-len must be at least 4 for verify kernel, got {args.max_len}"
    if args.command == "scan":
        letters = 2 * (args.rank1 + args.rank2)
        count, grade = 1, letters
        for _ in range(args.max_len):
            count += grade
            if count > _SCAN_WORDS_CAP:
                return (f"--max-len {args.max_len} enumerates more than "
                        f"{_SCAN_WORDS_CAP} words at rank "
                        f"{args.rank1}+{args.rank2}")
            grade *= letters - 1
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        return f"--budget must be nonnegative, got {budget}"
    degree = getattr(args, "oracle_degree", None)
    if degree is not None and degree < 2:
        return f"--oracle-degree must be at least 2, got {degree}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    key = (args.command, getattr(args, "subcommand", None))
    handler = _HANDLERS.get(key)
    if handler is None:
        print(f"unknown command {key}", file=sys.stderr)
        return 2
    problem = _check_bounds(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    try:
        report = handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps(report, indent=2) + "\n"
    else:
        rendered = _render_text(report)
    sys.stdout.write(rendered)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    return 0 if report.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())

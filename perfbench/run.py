#!/usr/bin/env python3
"""The commtower benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  Ops run one at a time with no extra threads.  Every op's result is
checked against an answer from ``reference.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say how each figure was taken.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of ops untraced, the same ops traced, then
one traced op at each scaling size, and reports the per-layer metrics; it
writes its spans to ``.bench_traces/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
TRACE_DIR = ROOT / ".bench_traces"

# Per-layer counts recorded for each scaling op, besides its wall time.
SCALE_COUNTS = {
    "tower": ("intmat.evaluate_word.letters", "intmat.matmul.mults",
              "words.mul.letters"),
    "eq": ("freeprod.sp_reduce.syllables_in",
           "freeprod.cartesian_basis_express.factors", "words.coset_rep.calls"),
}
SCALE_LABELS = {"tower": ("tower_n3", "tower_n4", "tower_n5"),
                "eq": ("eq_L64", "eq_L128", "eq_L256")}


def load_package():
    src = ROOT / "src"
    if not (src / "commtower" / "__init__.py").is_file():
        sys.exit(f"error: no commtower package under {src}; "
                 "run the benchmark from a source checkout")
    sys.path.insert(0, str(src))
    import commtower
    if Path(commtower.__file__).resolve().parent != (src / "commtower").resolve():
        sys.exit(f"error: imported commtower from {commtower.__file__}, "
                 f"not from {src}")


def run_op(prepared) -> tuple[float, bool]:
    """Time one op's call; any exception or a wrong answer is a failure."""
    call, check = prepared
    t0 = perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, False
    elapsed = perf_counter() - t0
    try:
        return elapsed, bool(check(result))
    except Exception:
        traceback.print_exc()
        return elapsed, False


def run_ops(wl, state, indices, tracer=None) -> tuple[list[float], int, float]:
    latencies, failed = [], 0
    start = perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.op_id = i
        elapsed, ok = run_op(wl.op(state, i))
        latencies.append(elapsed)
        failed += not ok
    return latencies, failed, perf_counter() - start


def timed_loop(wl, state, seconds: float) -> tuple[list[float], int, float]:
    """Ops back to back until ``seconds`` have passed and a whole cycle of
    the workload's input categories is done."""
    latencies, failed = [], 0
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        elapsed, ok = run_op(wl.op(state, i))
        latencies.append(elapsed)
        failed += not ok
        i += 1
        if i % wl.cycle == 0 and perf_counter() >= deadline:
            return latencies, failed, perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(wl, seed: int, seconds: float) -> dict:
    from workloads import clear_caches

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        clear_caches()
        fresh = wl.setup(seed)
        setups.append(perf_counter() - t0)
        state = fresh  # the state it replaces is freed outside the timing
    latencies, failed, wall = timed_loop(wl, state, seconds)
    n = len(latencies)
    pct, tail_s = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{wl.name}: {n} ops in {wall:.3f} s wall, {failed} failed; "
          f"op_tail_ms is p{pct:.1f} of {n} samples; setup_s is the median "
          f"of {SETUP_REPEATS} set-ups; pass_ratio = 1 - fail_ratio")
    metrics = {
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "pass_ratio": (1 - failed / n, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def per_layer(wl, seed: int) -> dict:
    import spans
    from workloads import clear_caches

    k = wl.traced_ops
    clear_caches()
    state = wl.setup(seed)
    _, failed_u, wall_u = run_ops(wl, state, range(k))

    tr = spans.Tracer()
    spans.install(tr)
    try:
        clear_caches()
        tr.op_id = -1
        state = wl.setup(seed)
        _, failed, wall_t = run_ops(wl, state, range(k), tr)
        scale = {}
        for j, (label, factory) in enumerate(wl.scale_ops(state)):
            tr.op_id = k + j
            elapsed, ok = run_op(factory())
            failed += not ok
            scale[label] = (k + j, elapsed)
    finally:
        tr.uninstall()

    metrics = {name: (value, "s" if name.endswith("_s") else
                      "ratio" if name.endswith("_ratio") or
                      name.endswith("_yield") else "count")
               for name, value in spans.layer_metrics(
                   tr, {-1, *range(k)}).items()}
    for kind, labels in SCALE_LABELS.items():
        for label in labels:
            op, elapsed = scale.get(label, (None, 0.0))
            counts = tr.totals({op}) if op is not None else {}
            metrics[f"scale.{label}.op_s"] = (elapsed, "s")
            for key in SCALE_COUNTS[kind]:
                metrics[f"scale.{label}.{key}"] = (counts.get(key, 0.0), "count")
    overhead = k / wall_u - k / wall_t
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
    metrics["trace.overhead_ratio"] = (overhead * wall_u / k, "ratio")

    path = TRACE_DIR / f"{wl.name}-seed{seed}.spans"
    tr.write(path, {"workload": wl.name, "seed": seed, "traced_ops": k,
                    "scale_ops": {label: op for label, (op, _) in scale.items()}})
    print(f"{wl.name}: {k} ops untraced in {wall_u:.3f} s, traced in "
          f"{wall_t:.3f} s; per-layer figures are totals over one set-up "
          f"and those {k} traced ops; {len(tr.start)} spans written to {path}")
    failed += failed_u
    attempted = 2 * k + len(scale)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = per_layer(wl, args.seed)
    else:
        result = end_to_end(wl, args.seed, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

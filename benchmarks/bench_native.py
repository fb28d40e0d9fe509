"""NATIVE — the binned exponent-fold kernel vs the classic exact folds.

Sweeps the standard input distributions against input size and times
the vectorized binned superaccumulator fold (PR 6 tentpole) next to
every pre-existing exact fold (``sparse``, ``small``, ``dense``).
Every cell asserts each answer is bit-identical to the serial sparse
superaccumulator's — a native-speed kernel may only ever trade *work*,
never a bit of the result. The sweep starts at ``2**12`` and ``2**13``
values, the sizes of a serve write, so the quick sweep checks
bit-identity there too.

Usage::

    python benchmarks/bench_native.py               # full sweep
    python benchmarks/bench_native.py --quick       # CI smoke
    python benchmarks/bench_native.py -o out.json   # custom output

Writes a JSON record (default ``BENCH_native.json`` in the repo root).
Headline acceptance bar:

* well-conditioned, ``n >= 2**20``: ``binned`` must be **>= 3x**
  faster than the fastest pre-existing exact fold in the same cell.

The record also carries a ``kernel_rates`` section (median Melem/s per
kernel over the largest cells) — the measured numbers behind
``repro.plan.KERNEL_RATES``; refresh that table from here whenever the
reference host changes.

Exit status is non-zero if the bar (or any exactness assertion) fails,
so CI can run this directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

try:
    from benchmarks.harness import bench_stamp
except ImportError:  # run as a plain script from benchmarks/
    from harness import bench_stamp

from repro.core import exact_sum
from repro.data import generate

#: Pre-existing exact folds the binned kernel must beat.
BASELINES = ["sparse", "small", "dense"]

#: (distribution, delta) cells, ordered from benign to adversarial.
CASES = [
    ("well", 2000),
    ("random", 500),
    ("anderson", 300),
    ("sumzero", 1200),
]


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cell(dist: str, delta: int, n: int, reps: int) -> Dict[str, Any]:
    """One (distribution, delta, n) measurement with exactness asserts.

    Cells below ``2**16`` values repeat more, so the best of the
    repeats covers about as many values as one ``2**16`` fold.
    """
    reps = max(reps, (1 << 16) // n)
    x = generate(dist, n, delta=delta, seed=42)
    expected = exact_sum(x, method="sparse")
    seconds: Dict[str, float] = {}
    for method in ["binned"] + BASELINES:
        got = exact_sum(x, method=method)
        if got != expected or repr(got) != repr(expected):
            raise AssertionError(
                f"exactness violated at {dist}/delta={delta}/n={n} "
                f"({method}): {got!r} != {expected!r}"
            )
        seconds[method] = _best(lambda: exact_sum(x, method=method), reps)
    best_baseline = min(BASELINES, key=lambda m: seconds[m])
    return {
        "distribution": dist,
        "delta": delta,
        "n": int(n),
        "seconds": seconds,
        "rate_melem_per_s": {
            m: n / t / 1e6 for m, t in seconds.items()
        },
        "best_baseline": best_baseline,
        "binned_speedup": seconds[best_baseline] / seconds["binned"],
        "value_hex": expected.hex(),
    }


def sweep(sizes: Sequence[int], reps: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for dist, delta in CASES:
        for n in sizes:
            row = run_cell(dist, delta, n, reps)
            rows.append(row)
            s = row["seconds"]
            print(
                f"  {dist:<9s} delta={delta:<5d} n=2^{int(np.log2(n)):<3d} "
                f"binned={s['binned'] * 1e3:8.1f}ms  "
                f"{row['best_baseline']}={s[row['best_baseline']] * 1e3:8.1f}ms  "
                f"{row['binned_speedup']:6.2f}x",
                flush=True,
            )
    return rows


def _median_rates(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median Melem/s per kernel over the largest measured cells."""
    top_n = max(r["n"] for r in rows)
    big = [r for r in rows if r["n"] == top_n]
    out: Dict[str, float] = {}
    for method in big[0]["rate_melem_per_s"]:
        out[method] = float(
            np.median([r["rate_melem_per_s"][method] for r in big])
        )
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized sweep")
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_native.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes, reps = [1 << 12, 1 << 13, 1 << 16, 1 << 20], 2
    else:
        sizes, reps = [1 << 12, 1 << 13, 1 << 16, 1 << 18, 1 << 20, 1 << 22], 3

    print(
        f"native kernel sweep: sizes={[f'2^{int(np.log2(n))}' for n in sizes]}, "
        f"baselines={BASELINES}"
    )
    rows = sweep(sizes, reps)

    big_well = [
        r for r in rows if r["distribution"] == "well" and r["n"] >= 1 << 20
    ]
    worst_speedup = min(r["binned_speedup"] for r in big_well)
    checks = {
        "binned_vs_fastest_exact_fold": {
            "worst_speedup_well_conditioned_n_ge_2^20": worst_speedup,
            "target": 3.0,
            "pass": worst_speedup >= 3.0,
        },
        "exactness": {
            "note": (
                "every cell asserted bit-identical to "
                "exact_sum(method='sparse')"
            ),
            "pass": True,  # an assertion failure aborts before this point
        },
    }
    ok = all(c["pass"] for c in checks.values())

    record = {
        "benchmark": "native",
        "quick": args.quick,
        "host": bench_stamp(),
        "config": {
            "cases": [{"distribution": d, "delta": dl} for d, dl in CASES],
            "sizes": [int(n) for n in sizes],
            "repeats": reps,
            "seed": 42,
            "candidates": ["binned"],
            "baselines": BASELINES,
        },
        "rows": rows,
        "kernel_rates_melem_per_s": _median_rates(rows),
        "headline": checks,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"headline: binned {worst_speedup:.1f}x the fastest exact fold "
        f"(target >= 3x) -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

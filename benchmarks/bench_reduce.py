"""REDUCE — exact inner products vs numpy and compensated Dot2.

The reduction layer's pitch (PR 9 tentpole): a dot product is a sum of
TwoProduct terms, so the exact summation machinery prices exact inner
products at "one expansion plus one fold". This bench quantifies the
trade against the two usual alternatives:

* ``np.dot`` — fast and approximate; its forward error carries the
  classic deterministic bound ``gamma_n |x|^T|y|`` and the far tighter
  Hallman–Ipsen probabilistic bound ``lambda u sqrt(n) ||x|| ||y||``
  (arXiv:2107.01604, Thm 4.4-style). Both predicted columns sit next
  to the measured error so the record doubles as a bound check: every
  cell asserts measured <= predicted.
* ``dot2`` — Ogita–Rump–Oishi compensated dot (TwoProduct + TwoSum
  cascade), the classical correctly-rounded-in-practice contender,
  scalar like the repo's other compensated baselines; its error bound
  ``u|s| + gamma_n^2 |x|^T|y|`` is checked the same way.

Exact values come from ``repro.reduce`` (binned kernel), asserted
bit-identical to an independent reference: the dot summed in Python
integers from each float's exact integer ratio, then rounded by
CPython's correctly rounded int division — the exactness column is not
a claim, it is an assertion.

Usage::

    python benchmarks/bench_reduce.py               # full sweep
    python benchmarks/bench_reduce.py --quick       # CI smoke
    python benchmarks/bench_reduce.py -o out.json   # custom output

Writes ``BENCH_reduce.json`` in the repo root. Headline acceptance bar:

* ``n >= 2**20``: exact ``norm2`` (binned kernel) within **3x** the
  runtime of the compensated norm (``sqrt(dot2(x, x))``).

Exit status is non-zero if the bar (or any exactness/bound assertion)
fails, so CI can run this directly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

try:
    from benchmarks.harness import bench_stamp
except ImportError:  # run as a plain script from benchmarks/
    from harness import bench_stamp

from repro import reduce
from repro.core.eft import two_product, two_sum
from repro.data import generate

#: Unit roundoff of binary64.
U = 2.0**-53

#: Hallman–Ipsen confidence parameter: the probabilistic bound holds
#: with probability >= 1 - 2 exp(-lambda^2 / 2); lambda = 3.2 puts the
#: failure mass below 1.2%.
LAMBDA = 3.2

#: (distribution, delta) cells. Deltas stay modest so every product is
#: inside the error-free TwoProduct band the reduction ops police.
CASES = [
    ("random", 40),
    ("well", 10),
    ("anderson", 30),
]

#: Kernel hosting the exact reductions (the vectorized binned fold).
EXACT_KERNEL = "binned"


def dot2(x: np.ndarray, y: np.ndarray) -> float:
    """Ogita–Rump–Oishi compensated dot product (Algorithm Dot2).

    Scalar on purpose, like the compensated summation baselines in
    :mod:`repro.baselines.compensated`: this is the classical
    algorithm, measured as published.
    """
    s = 0.0
    c = 0.0
    for a, b in zip(x, y):
        p, ep = two_product(float(a), float(b))
        s, es = two_sum(s, p)
        c += es + ep
    return s + c


def exact_dot_reference(x: np.ndarray, y: np.ndarray) -> Fraction:
    """``sum(x_i * y_i)`` exactly, without the code under test.

    Each float is ``num / 2**k`` (``float.as_integer_ratio``), so every
    product is an integer over a power of two; the numerators are
    summed in Python ints over the largest denominator.
    """
    xs, ys = x.tolist(), y.tolist()

    def ratios():
        for a, b in zip(xs, ys):
            (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
            yield na * nb, da * db

    den = max((d for _, d in ratios()), default=1)
    return Fraction(sum(n * (den // d) for n, d in ratios()), den)


def _nearest(value: Fraction) -> float:
    """Correctly rounded float of ``value`` (CPython int division)."""
    return value.numerator / value.denominator


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rel_err(value: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(float(Fraction(value)))
    return abs(float((Fraction(value) - exact) / abs(exact)))


def run_cell(dist: str, delta: int, n: int, reps: int) -> Dict[str, Any]:
    """One (distribution, delta, n) cell: times, errors, bound checks."""
    x = generate(dist, n, delta=delta, seed=7)
    y = generate(dist, n, delta=delta, seed=8)

    exact_frac = exact_dot_reference(x, y)
    exact_value = _nearest(exact_frac)
    got = reduce.dot(x, y, kernel=EXACT_KERNEL)
    if got != exact_value or repr(got) != repr(exact_value):
        raise AssertionError(
            f"exactness violated at {dist}/n={n}: "
            f"reduce.dot={got!r} != {exact_value!r}"
        )

    naive = float(np.dot(x, y))
    comp = dot2(x, y)

    # Bound ingredients (computed in exact rational arithmetic where it
    # matters: |x|^T|y| and the norms are conditioning data, not results).
    abs_dot = exact_dot_reference(np.abs(x), np.abs(y))
    norm_x = reduce.norm2(x, kernel=EXACT_KERNEL)
    norm_y = reduce.norm2(y, kernel=EXACT_KERNEL)
    gamma_n = (n * U) / (1.0 - n * U)
    scale = abs(exact_frac) if exact_frac != 0 else Fraction(1)

    naive_err = _rel_err(naive, exact_frac)
    comp_err = _rel_err(comp, exact_frac)
    bound_naive_det = float(gamma_n * abs_dot / scale)
    bound_naive_hi = float(
        Fraction(LAMBDA * U * math.sqrt(n)) * Fraction(norm_x) * Fraction(norm_y)
        / scale
    )
    bound_comp_det = float(U + gamma_n * gamma_n * abs_dot / scale)

    for label, err, bound in [
        ("np.dot vs deterministic", naive_err, bound_naive_det),
        ("np.dot vs Hallman-Ipsen", naive_err, bound_naive_hi),
        ("dot2 vs deterministic", comp_err, bound_comp_det),
    ]:
        if err > bound:
            raise AssertionError(
                f"bound violated at {dist}/n={n}: {label}: "
                f"measured {err:.3e} > predicted {bound:.3e}"
            )

    seconds = {
        "reduce_dot": _best(
            lambda: reduce.dot(x, y, kernel=EXACT_KERNEL), reps
        ),
        "np_dot": _best(lambda: np.dot(x, y), reps),
        "dot2": _best(lambda: dot2(x, y), max(1, reps - 1)),
        "reduce_norm2": _best(
            lambda: reduce.norm2(x, kernel=EXACT_KERNEL), reps
        ),
        "comp_norm2": _best(lambda: math.sqrt(dot2(x, x)), max(1, reps - 1)),
    }
    return {
        "distribution": dist,
        "delta": delta,
        "n": int(n),
        "condition_log10": float(
            math.log10(float(abs_dot / scale)) if abs_dot else 0.0
        ),
        "seconds": seconds,
        "values": {
            "exact_hex": exact_value.hex(),
            "np_dot_rel_err": naive_err,
            "dot2_rel_err": comp_err,
        },
        "bounds": {
            "naive_deterministic": bound_naive_det,
            "naive_hallman_ipsen": bound_naive_hi,
            "dot2_deterministic": bound_comp_det,
            "all_hold": True,  # a violation aborts before this point
        },
        "norm2_slowdown_vs_compensated": (
            seconds["reduce_norm2"] / seconds["comp_norm2"]
        ),
    }


def sweep(sizes: Sequence[int], reps: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for dist, delta in CASES:
        for n in sizes:
            row = run_cell(dist, delta, n, reps)
            rows.append(row)
            s = row["seconds"]
            print(
                f"  {dist:<9s} n=2^{int(np.log2(n)):<3d} "
                f"reduce.dot={s['reduce_dot'] * 1e3:8.1f}ms  "
                f"np={s['np_dot'] * 1e6:7.1f}us  "
                f"dot2={s['dot2'] * 1e3:8.1f}ms  "
                f"np_err={row['values']['np_dot_rel_err']:.2e} "
                f"(<= HI {row['bounds']['naive_hallman_ipsen']:.2e})  "
                f"norm2 {row['norm2_slowdown_vs_compensated']:5.2f}x comp",
                flush=True,
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized sweep")
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_reduce.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes, reps = [1 << 14, 1 << 16], 2
    else:
        sizes, reps = [1 << 16, 1 << 18, 1 << 20], 2

    print(
        f"reduce sweep: sizes={[f'2^{int(np.log2(n))}' for n in sizes]}, "
        f"exact kernel={EXACT_KERNEL!r}, lambda={LAMBDA}"
    )
    rows = sweep(sizes, reps)

    big = [r for r in rows if r["n"] >= 1 << 20]
    gate = big if big else rows  # --quick never reaches 2^20
    worst = max(r["norm2_slowdown_vs_compensated"] for r in gate)
    checks = {
        "reduce_norm2_vs_compensated": {
            "worst_slowdown_n_ge_2^20": worst,
            "target": 3.0,
            "pass": worst <= 3.0,
            "gated_on_full_sizes": bool(big),
        },
        "error_bounds": {
            "note": (
                "every cell asserted measured error <= deterministic "
                "and Hallman-Ipsen predicted bounds"
            ),
            "pass": True,
        },
        "exactness": {
            "note": (
                "every cell asserted reduce.dot bit-identical to an "
                "independent integer-ratio dot rounded by int division"
            ),
            "pass": True,
        },
    }
    ok = all(c["pass"] for c in checks.values())

    record = {
        "benchmark": "reduce",
        "quick": args.quick,
        "host": bench_stamp(),
        "config": {
            "cases": [{"distribution": d, "delta": dl} for d, dl in CASES],
            "sizes": [int(n) for n in sizes],
            "repeats": reps,
            "seeds": [7, 8],
            "exact_kernel": EXACT_KERNEL,
            "hallman_ipsen_lambda": LAMBDA,
        },
        "rows": rows,
        "headline": checks,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"headline: exact norm2 at worst {worst:.2f}x the compensated "
        f"norm (target <= 3.0x) -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

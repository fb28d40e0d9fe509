#!/usr/bin/env python
"""Exact statistical reductions: mean, variance, norm without cancellation.

The one-pass variance formula ``E[x^2] - E[x]^2`` is the textbook
example of catastrophic cancellation: for data with a large common
offset the two terms agree in almost every bit and float subtraction
returns noise (often *negative* "variance"). `repro.reduce` computes the
same algebra over exact sums and rounds once, so the result is the
correctly rounded true value — and reductions are reproducible across
any data partitioning, which matters for distributed aggregation.

Run: ``python examples/exact_statistics.py``
"""

from __future__ import annotations

import numpy as np

from repro import reduce


def naive_one_pass_variance(x: np.ndarray) -> float:
    return float(np.mean(x * x) - np.mean(x) ** 2)


def main() -> None:
    rng = np.random.default_rng(0)

    # --- variance under a large offset ---------------------------------
    print("variance of unit-variance noise on a growing offset:")
    print(f"{'offset':>10} {'naive one-pass':>18} {'exact':>12}")
    noise = rng.standard_normal(100_000)
    for offset in (0.0, 1e6, 1e8, 1e9):
        x = noise + offset
        naive = naive_one_pass_variance(x)
        exact = reduce.var(x)
        print(f"{offset:>10.0e} {naive:>18.10f} {exact:>12.10f}")
    print("  (the naive column degrades to garbage; the exact one cannot)\n")

    # --- mean of mixed-magnitude data -----------------------------------
    x = np.concatenate([np.full(1000, 1e16), np.full(1000, 1.0),
                        np.full(1000, -1e16)])
    rng.shuffle(x)
    print("mean of {1e16 x1000, 1.0 x1000, -1e16 x1000} (true: 1/3):")
    print(f"  np.mean    : {float(np.mean(x))!r}")
    print(f"  reduce.mean: {reduce.mean(x)!r}\n")

    # --- norms near the overflow edge ------------------------------------
    y = np.array([1.2e154, 0.9e154, -1.1e154])
    print("Euclidean norm with squares near the float ceiling:")
    print(f"  naive sqrt(sum(x^2)) : {float(np.sqrt(np.sum(y * y)))!r}")
    print(f"  reduce.norm2         : {reduce.norm2(y)!r}")
    # squares past the float range are exact scaled integers, not inf
    z = np.ldexp([3.0, 4.0], 700)
    print(f"  reduce.norm2(ldexp([3, 4], 700)) == 5 * 2**700 : "
          f"{reduce.norm2(z) == np.ldexp(5.0, 700)}\n")

    # --- reproducibility across partitionings -----------------------------
    data = (rng.random(500_000) - 0.5) * 10.0 ** rng.integers(-30, 30, 500_000)
    chunked_means = set()
    for nchunks in (1, 7, 64):
        # exact partial sums merge exactly: any chunking, same bits
        from repro.core import SparseSuperaccumulator

        acc = SparseSuperaccumulator.zero()
        for chunk in np.array_split(data, nchunks):
            acc = acc.add(SparseSuperaccumulator.from_floats(chunk))
        chunked_means.add(acc.to_float())
    print(f"exact sum over 1/7/64 chunkings -> {len(chunked_means)} distinct "
          f"result(s): {chunked_means.pop()!r}")
    naive_sums = {float(np.sum(np.concatenate(np.array_split(data, k))))
                  for k in (1, 7, 64)}
    print(f"np.sum over reassembled chunkings -> "
          f"{len(naive_sums)} distinct result(s)")


if __name__ == "__main__":
    main()

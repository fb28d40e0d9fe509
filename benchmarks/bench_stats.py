"""Exact-reduction benches: what correct rounding costs downstream users.

Compares the exact mean/variance/norm against their NumPy counterparts
(which are approximate) and benchmarks the reproducible binned sum
against the exact methods — the speed/guarantee trade-off triangle:
fast-and-wrong (NumPy), fast-and-reproducible (binned), exact (ours).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import dataset, scaled
from repro.baselines.binned import binned_sum
from repro import reduce
from repro.core import exact_sum

N = scaled(100_000)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("np.mean", lambda x: float(np.mean(x))),
        ("reduce.mean", reduce.mean),
    ],
    ids=["np-mean", "exact-mean"],
)
def test_mean(benchmark, name, fn):
    x = dataset("random", N, 100)
    benchmark.group = "stats-mean"
    benchmark(fn, x)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("np.var", lambda x: float(np.var(x))),
        ("reduce.var", reduce.var),
    ],
    ids=["np-var", "exact-var"],
)
def test_variance(benchmark, name, fn):
    x = dataset("random", scaled(20_000), 30)
    benchmark.group = "stats-variance"
    benchmark(fn, x)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("np.linalg.norm", lambda x: float(np.linalg.norm(x))),
        ("reduce.norm2", reduce.norm2),
    ],
    ids=["np-norm", "exact-norm"],
)
def test_norm(benchmark, name, fn):
    x = dataset("random", scaled(20_000), 30)
    benchmark.group = "stats-norm"
    benchmark(fn, x)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("np.sum", lambda x: float(np.sum(x))),
        ("binned(reproducible)", lambda x: binned_sum(x).value),
        ("exact", exact_sum),
    ],
    ids=["np-sum", "binned", "exact"],
)
def test_guarantee_ladder(benchmark, name, fn):
    x = dataset("random", N, 200)
    benchmark.group = "stats-guarantee-ladder"
    benchmark(fn, x)

"""Streaming-API benches: running sums, sliding windows, cumsums.

Documents the per-update cost of exact streaming state — the price of
never drifting — against the float deque baseline that drifts.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import dataset, scaled
from repro.streaming import ExactRunningSum, SlidingWindowSum, exact_cumsum

N = scaled(20_000)


def test_running_sum_batched(benchmark):
    x = dataset("random", scaled(500_000), 200)
    benchmark.group = "streaming"

    def run():
        rs = ExactRunningSum()
        for chunk in np.array_split(x, 50):
            rs.add_array(chunk)
        return rs.value()

    benchmark(run)


def test_sliding_window_updates(benchmark):
    x = dataset("random", N, 100)
    benchmark.group = "streaming"

    def run():
        win = SlidingWindowSum(128)
        last = 0.0
        for v in x:
            last = win.push(float(v))
        return last

    benchmark(run)


def test_float_deque_window_baseline(benchmark):
    # the drifting baseline the exact window replaces (cost reference)
    from collections import deque

    x = dataset("random", N, 100)
    benchmark.group = "streaming"

    def run():
        buf = deque()
        total = 0.0
        for v in x:
            v = float(v)
            total += v
            buf.append(v)
            if len(buf) > 128:
                total -= buf.popleft()
        return total

    benchmark(run)


def test_exact_cumsum(benchmark):
    x = dataset("random", scaled(5_000), 100)
    benchmark.group = "streaming"
    out = benchmark(exact_cumsum, x)
    assert out.size == x.size


def test_apfloat_accumulate(benchmark):
    from repro.core.apfloat import APFloat, exact_sum_apfloat

    vals = [APFloat(k * 2 + 1, (k * 7919) % 4001 - 2000)
            for k in range(scaled(500))]
    benchmark.group = "streaming-other-bases"
    benchmark(exact_sum_apfloat, vals)

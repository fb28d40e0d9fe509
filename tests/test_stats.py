"""Unit tests for correctly rounded statistical reductions.

``repro.reduce`` computes mean, variance, norm and dot over exact sums
and rounds once; ``round_fraction`` is the rounding behind their
finishes. Expected values come from exact Fraction arithmetic here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import reduce
from repro.core.rounding import round_fraction
from repro.reduce import get_op
from tests.conftest import exact_fraction, exact_products, random_hard_array


class TestRoundFraction:
    def test_matches_cpython_float(self):
        rnd = random.Random(11)
        for _ in range(3000):
            num = rnd.getrandbits(rnd.randint(1, 180)) - rnd.getrandbits(
                rnd.randint(1, 180)
            )
            den = rnd.getrandbits(rnd.randint(1, 180)) + 1
            f = Fraction(num, den)
            try:
                want = float(f)
            except OverflowError:
                want = math.inf if f > 0 else -math.inf
            assert round_fraction(f) == want

    def test_dyadic_path(self):
        assert round_fraction(Fraction(3, 8)) == 0.375
        assert round_fraction(Fraction(0)) == 0.0

    def test_thirds(self):
        assert round_fraction(Fraction(1, 3)) == 1 / 3
        assert round_fraction(Fraction(-2, 3)) == -2 / 3

    def test_directed(self):
        f = Fraction(1, 3)
        lo = round_fraction(f, "down")
        hi = round_fraction(f, "up")
        assert Fraction(lo) < f < Fraction(hi)
        assert hi == math.nextafter(lo, math.inf)


class TestMean:
    def test_simple(self):
        assert reduce.mean([1.0, 2.0, 3.0]) == 2.0

    def test_correctly_rounded(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 200))
            x = random_hard_array(rng, n, emin=-40, emax=40)
            want = round_fraction(exact_fraction(x) / n)
            assert reduce.mean(x) == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce.mean([])

    def test_defeats_naive_mean(self):
        x = np.array([1e16, 1.0, 1.0, -1e16])
        assert reduce.mean(x) == 0.5
        assert float(np.mean(x)) != 0.5


class TestVariance:
    def test_known(self):
        assert reduce.var([1.0, 2.0, 3.0, 4.0]) == 1.25
        assert reduce.var([1.0, 2.0, 3.0, 4.0], ddof=1) == pytest.approx(
            5.0 / 3.0, abs=0
        ) or reduce.var([1.0, 2.0, 3.0, 4.0], ddof=1) == round_fraction(
            Fraction(5, 3)
        )

    def test_shifted_data_cancellation(self):
        # the classic one-pass float failure
        x = np.array([1e8 + 1, 1e8 + 2, 1e8 + 3, 1e8 + 4])
        assert reduce.var(x) == 1.25
        naive = float(np.mean(x * x) - np.mean(x) ** 2)
        assert naive != 1.25  # numpy's naive formula would be wrong

    def test_against_fraction(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 120))
            x = random_hard_array(rng, n, emin=-20, emax=20)
            s = exact_fraction(x)
            ss = exact_products(x)
            want = round_fraction((ss - s * s / n) / n)
            assert reduce.var(x) == want

    def test_zero_variance(self):
        assert reduce.var([7.5] * 10) == 0.0

    def test_ddof_bounds(self):
        with pytest.raises(ValueError):
            reduce.var([1.0], ddof=1)


class TestNorm:
    def test_pythagorean(self):
        assert reduce.norm2([3.0, 4.0]) == 5.0
        assert reduce.norm2([0.0, 0.0]) == 0.0

    def test_correct_rounding_against_fraction(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            x = random_hard_array(rng, n, emin=-30, emax=30)
            got = reduce.norm2(x)
            ss = exact_products(x)
            # verify `got` is the nearest float to sqrt(ss) by midpoint
            # comparisons in exact arithmetic
            lo = math.nextafter(got, 0.0)
            hi = math.nextafter(got, math.inf)
            mid_lo = (Fraction(lo) + Fraction(got)) / 2
            mid_hi = (Fraction(got) + Fraction(hi)) / 2
            assert mid_lo * mid_lo <= ss <= mid_hi * mid_hi

    def test_avoids_spurious_overflow(self):
        # the naive sqrt(sum(x^2)) overflows to inf; the exact norm is a
        # perfectly representable ~1.58e154 (cross-check: math.hypot,
        # which also avoids the spurious overflow)
        x = np.array([1.3e154, 0.9e154])
        got = reduce.norm2(x)
        assert math.isfinite(got)
        assert got == pytest.approx(math.hypot(1.3e154, 0.9e154), rel=1e-15)

    def test_overflow_boundary(self):
        assert reduce.norm2([1.7e308]) == 1.7e308
        assert reduce.norm2([1.7e308, 1.7e308]) == math.inf

    def test_deep_subnormal(self):
        assert reduce.norm2([2.0**-1074]) == 2.0**-1074
        got = reduce.norm2([2.0**-600, 2.0**-600])
        want = math.sqrt(2.0) * 2.0**-600
        assert got == pytest.approx(want, rel=1e-15)


class TestDotFraction:
    def test_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            x = random_hard_array(rng, n, emin=-40, emax=40)
            y = random_hard_array(rng, n, emin=-40, emax=40)
            want = sum(
                (Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, y)),
                Fraction(0),
            )
            (terms,), rest = get_op("dot").expand_exact(x, y)
            assert exact_fraction(terms) + (rest[0] if rest else 0) == want
            assert reduce.dot(x, y) == round_fraction(want)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            reduce.dot([1.0], [1.0, 2.0])

"""Shared fixtures and exact reference arithmetic for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np
import pytest

from repro.core.rounding import round_scaled_int


def exact_fraction(values: Iterable[float]) -> Fraction:
    """Ground-truth exact sum as a Fraction (independent of repro code
    except for float->Fraction, which is exact by construction)."""
    total = Fraction(0)
    for v in values:
        total += Fraction(float(v))
    return total


def exact_products(x: Iterable[float], y: Optional[Iterable[float]] = None) -> Fraction:
    """Ground-truth exact ``sum(x_i * y_i)``, or ``sum(x_i**2)`` without
    ``y``, built from exact float->Fraction conversions only."""
    xs = [float(v) for v in x]
    ys = xs if y is None else [float(v) for v in y]
    total = Fraction(0)
    for a, b in zip(xs, ys):
        total += Fraction(a) * Fraction(b)
    return total


def fraction_to_float(x: Fraction, mode: str = "nearest") -> float:
    """Correctly rounded float of a Fraction, overflow-aware.

    Dyadic fractions (sums of floats and of their products) round in
    any mode; other rationals (means, variances) round to nearest
    through CPython's correctly rounded int division.
    """
    if x == 0:
        return 0.0
    num, den = x.numerator, x.denominator
    shift = -(den.bit_length() - 1)
    if den == 1 << (-shift):
        return round_scaled_int(num, shift, mode)
    assert mode == "nearest", "directed rounding of a non-dyadic fraction"
    try:
        return num / den
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def ref_dot(x: Iterable[float], y: Iterable[float], mode: str = "nearest") -> float:
    """Correctly rounded reference inner product, in any mode."""
    return fraction_to_float(exact_products(x, y), mode)


def ref_mean(values: Iterable[float]) -> float:
    """Correctly rounded reference mean."""
    xs = [float(v) for v in values]
    return fraction_to_float(exact_fraction(xs) / len(xs))


def ref_var(values: Iterable[float], ddof: int = 0) -> float:
    """Correctly rounded reference variance."""
    xs = [float(v) for v in values]
    n = len(xs)
    s = exact_fraction(xs)
    return fraction_to_float((exact_products(xs) - s * s / n) / (n - ddof))


def is_rounded_sqrt(got: float, ss: Fraction) -> bool:
    """Whether ``got`` is ``sqrt(ss)`` rounded to nearest: the exact
    squares of the midpoints to its two neighbours bracket ``ss``."""
    top = Fraction(2) ** 1024 - Fraction(2) ** 970  # overflow midpoint
    if got == math.inf:
        return ss >= top * top
    lo = math.nextafter(got, 0.0)
    hi = math.nextafter(got, math.inf)
    mid_lo = (Fraction(lo) + Fraction(got)) / 2
    mid_hi = top if hi == math.inf else (Fraction(got) + Fraction(hi)) / 2
    return mid_lo * mid_lo <= ss <= mid_hi * mid_hi


def ref_sum(values: Iterable[float]) -> float:
    """Correctly rounded reference sum; robust to intermediate overflow
    (unlike math.fsum) and to huge exponent ranges."""
    return fraction_to_float(exact_fraction(values))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(20160518)  # the paper's arXiv date


def random_hard_array(
    rng: np.random.Generator, n: int, *, emin: int = -250, emax: int = 250
) -> np.ndarray:
    """Mixed-sign values spanning a wide exponent range."""
    mags = np.ldexp(
        1.0 + rng.random(n), rng.integers(emin, emax, size=n).astype(np.int32)
    )
    return mags * rng.choice(np.array([-1.0, 1.0]), size=n)


# Adversarial fixed cases reused by several modules: half-ulp ties,
# cancellation, subnormals, overflow-adjacent values.
ADVERSARIAL_CASES = [
    [0.0],
    [-0.0, 0.0],
    [1.0, 2.0**-53],                      # exact round-to-even tie
    [1.0, 2.0**-53, 2.0**-105, -(2.0**-105)],
    [1.0, 2.0**-53, 2.0**-110],           # tie broken by a crumb
    [1.0, -(2.0**-53), -(2.0**-110)],
    [1e16, 1.0, -1e16],
    [1e308, 1e308, -1e308],               # prefix overflow, finite sum
    [1e308, 1e308, -1e308, -1e308],
    [2.0**-1074] * 3,                     # subnormal accumulation
    [2.0**-1074, -(2.0**-1074)],
    [2.0**-1074, 2.0**-1022, -(2.0**-1022)],
    [math.ldexp(1, 1023), math.ldexp(-1, 970)],
    [4.9e-324, 4.9e-324, -1e-320, 1e-320],
    [1.5, -0.5, -1.0],                    # exact zero from normals
    [0.1] * 10,                           # classic decimal drift
    [1e-300] * 7 + [-7e-300],
]

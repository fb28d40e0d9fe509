"""Correctly rounded statistical reductions (downstream-user API).

The reductions practitioners actually call — mean, variance, L2 norm,
dot — all reduce to exact sums (of values, squares, products). Every
function here computes those sums exactly with superaccumulators,
finishes the algebra in exact rational arithmetic, and rounds **once**,
so the returned float is the correctly rounded value of the true
mathematical quantity for the given float inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from repro.core.eft import (
    product_domain_mask,
    square_domain_mask,
    two_product_vec,
    two_square_vec,
)
from repro.core.exact import exact_sum_fraction
from repro.core.fpinfo import decompose as _decompose
from repro.core.rounding import round_scaled_int
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "exact_mean",
    "exact_variance",
    "exact_norm2",
    "exact_dot_fraction",
    "round_fraction",
    "sqrt_round_fraction",
]


def round_fraction(value: Fraction, mode: str = "nearest") -> float:
    """Correctly rounded binary64 value of any Fraction.

    Handles non-dyadic rationals (from divisions) by scaling the
    quotient to 55 significant bits plus a sticky bit, then reusing the
    exact dyadic rounding machinery.
    """
    if value == 0:
        return 0.0
    num, den = value.numerator, value.denominator
    if den & (den - 1) == 0:
        return round_scaled_int(num, -(den.bit_length() - 1), mode)
    # Scale so the integer quotient carries >= 55 significant bits.
    sign = -1 if num < 0 else 1
    a, b = abs(num), den
    shift = 55 - (a.bit_length() - b.bit_length())
    if shift > 0:
        a <<= shift
    else:
        b <<= -shift
    q, r = divmod(a, b)
    # Fold the remainder into two sticky bits (cannot hit a rounding
    # boundary: q has >= 54 bits, the cut sits >= 2 bits above them).
    encoded = (q << 2) | (1 if r else 0)
    return round_scaled_int(sign * encoded, -(shift + 2), mode)


def exact_mean(values: Iterable[float]) -> float:
    """Correctly rounded arithmetic mean."""
    arr = ensure_float64_array(values)
    if arr.size == 0:
        raise ValueError("mean of empty input")
    total = exact_sum_fraction(arr)
    return round_fraction(total / arr.size)


def _exact_square_sum_fraction(arr: np.ndarray) -> Fraction:
    """Exact ``sum(x_i**2)``: vectorized TwoProduct where safe, exact
    integer squares for magnitudes whose float squares would under- or
    overflow (where TwoProduct stops being error-free)."""
    safe = square_domain_mask(arr)
    total = Fraction(0)
    s = arr[safe]
    if s.size:
        p, e = two_square_vec(s)
        total += exact_sum_fraction(np.concatenate([p, e]))
    for v in arr[~safe]:
        m, ex = _decompose(float(v))
        total += Fraction(m * m) * Fraction(2) ** (2 * ex)
    return total


def exact_variance(values: Iterable[float], *, ddof: int = 0) -> float:
    """Correctly rounded variance of the float inputs.

    Computed as ``(sum(x^2) - sum(x)^2 / n) / (n - ddof)`` entirely in
    exact rational arithmetic — immune to the classic catastrophic
    cancellation of the textbook two-pass/one-pass float formulas.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    n = arr.size
    if n - ddof <= 0:
        raise ValueError("need more observations than ddof")
    s = exact_sum_fraction(arr)
    ss = _exact_square_sum_fraction(arr)
    var = (ss - s * s / n) / (n - ddof)
    return round_fraction(var)


def exact_norm2(values: Iterable[float]) -> float:
    """Correctly rounded Euclidean norm ``sqrt(sum(x^2))``.

    The square root of the exact rational sum-of-squares is rounded
    correctly by comparing candidate floats' exact squares against it
    (integer arithmetic only — no double rounding).
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    return sqrt_round_fraction(_exact_square_sum_fraction(arr))


def sqrt_round_fraction(ss: Fraction) -> float:
    """Correctly rounded (to nearest) ``sqrt`` of a nonnegative Fraction.

    The finisher behind :func:`exact_norm2`, shared with the ``norm2``
    reduction op so every plane rounds the root identically.
    """
    if ss == 0:
        return 0.0
    # Float estimate via even-power-of-two scaling so neither ss nor
    # sqrt(ss) under/overflows the float range prematurely: sqrt of a
    # sum of double squares always fits in a double (~< 2**1006).
    e = ss.numerator.bit_length() - ss.denominator.bit_length()
    k = (e - 100) // 2 if abs(e) > 600 else 0
    from repro.core.rounding import MAX_FINITE

    try:
        est = math.ldexp(math.sqrt(round_fraction(ss / Fraction(4) ** k)), k)
    except OverflowError:
        est = math.inf
    # reprolint: disable-next-line=FP002 -- infinity compare is exact by definition
    if est == math.inf or est >= MAX_FINITE:
        # overflow region: nearest rounds to inf iff sqrt(ss) reaches
        # the overflow midpoint 2**1024 - 2**970
        mid = Fraction(2) ** 1024 - Fraction(2) ** 970
        return math.inf if ss >= mid * mid else MAX_FINITE
    if est == 0.0:  # reprolint: disable=FP002 -- exact-zero seeds the subnormal walk
        est = 2.0**-1074
    lo = est
    # walk (at most a few ulps) until lo^2 <= ss < nextafter(lo)^2
    while Fraction(lo) * Fraction(lo) > ss:
        lo = math.nextafter(lo, 0.0)
    while True:
        hi = math.nextafter(lo, math.inf)
        # reprolint: disable-next-line=FP002 -- infinity compare is exact by definition
        if hi == math.inf or Fraction(hi) * Fraction(hi) > ss:
            break
        lo = hi
    hi = math.nextafter(lo, math.inf)
    if hi == math.inf:  # reprolint: disable=FP002 -- infinity compare is exact by definition
        mid = Fraction(2) ** 1024 - Fraction(2) ** 970
        return math.inf if ss >= mid * mid else lo
    # decide nearest by comparing ss against the midpoint's square
    mid = Fraction(lo) + Fraction(hi - lo) / 2  # exact dyadic midpoint
    if ss < mid * mid:
        return lo
    if ss > mid * mid:
        return hi
    # exact tie on the midpoint: even mantissa wins
    return lo if _mantissa_even(lo) else hi


def _mantissa_even(x: float) -> bool:
    m, _ = math.frexp(x)
    return int(m * 2**53) % 2 == 0


def exact_dot_fraction(x: Iterable[float], y: Iterable[float]) -> Fraction:
    """Exact dot product as a Fraction (building block for callers)."""
    xa = ensure_float64_array(x)
    ya = ensure_float64_array(y)
    if xa.shape != ya.shape:
        raise ValueError("length mismatch")
    check_finite_array(xa)
    check_finite_array(ya)
    # TwoProduct is error-free only inside its band; route the rest
    # through exact integer decomposition.
    safe = product_domain_mask(xa, ya)
    total = Fraction(0)
    if safe.any():
        xs, ys = xa[safe], ya[safe]
        ps, e = two_product_vec(xs, ys)
        total += exact_sum_fraction(np.concatenate([ps, e]))
    if not safe.all():
        for u, v in zip(xa[~safe], ya[~safe]):
            mu, eu = _decompose(float(u))
            mv, ev = _decompose(float(v))
            total += Fraction(mu * mv) * Fraction(2) ** (eu + ev)
    return total

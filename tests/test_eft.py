"""Unit tests for error-free transformations."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.eft import (
    fast_two_sum,
    fast_two_sum_vec,
    product_domain_mask,
    split,
    square_domain_mask,
    two_product,
    two_product_vec,
    two_square,
    two_square_vec,
    two_sum,
    two_sum_vec,
)


class TestTwoSum:
    def test_identity(self):
        s, e = two_sum(1.5, 2.25)
        assert s == 3.75 and e == 0.0

    def test_error_captured(self):
        s, e = two_sum(1e16, 1.0)
        assert s == 1e16
        assert e == 1.0  # the lost addend reappears exactly

    def test_exactness_property(self):
        # s + e == x + y exactly, over a wide range of magnitudes.
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = float(np.ldexp(rng.random() - 0.5, int(rng.integers(-80, 80))))
            y = float(np.ldexp(rng.random() - 0.5, int(rng.integers(-80, 80))))
            s, e = two_sum(x, y)
            assert Fraction(s) + Fraction(e) == Fraction(x) + Fraction(y)

    def test_order_independent(self):
        for x, y in [(1e300, 1e-300), (3.0, -7.25), (2.0**-1074, 1.0)]:
            assert two_sum(x, y) == two_sum(y, x)

    def test_zero_partner(self):
        assert two_sum(0.0, 5.5) == (5.5, 0.0)
        assert two_sum(-3.25, 0.0) == (-3.25, 0.0)

    def test_subnormal_sum_is_exact(self):
        # Hauser: additions landing in the subnormal range are exact.
        s, e = two_sum(2.0**-1074, 3 * 2.0**-1074)
        assert (s, e) == (4 * 2.0**-1074, 0.0)


class TestFastTwoSum:
    def test_matches_two_sum_when_ordered(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = float(np.ldexp(rng.random() + 1.0, int(rng.integers(-40, 40))))
            y = float(np.ldexp(rng.random(), int(rng.integers(-80, -41))))
            assert fast_two_sum(x, y) == two_sum(x, y)

    def test_negative_big_operand(self):
        x, y = -1e20, 3.0
        assert fast_two_sum(x, y) == two_sum(x, y)


class TestVectorized:
    def test_two_sum_vec_matches_scalar(self, rng):
        x = rng.random(1000) * 10.0 ** rng.integers(-30, 30, 1000)
        y = rng.random(1000) * 10.0 ** rng.integers(-30, 30, 1000)
        s, e = two_sum_vec(x, y)
        for i in range(0, 1000, 97):
            ss, ee = two_sum(float(x[i]), float(y[i]))
            assert s[i] == ss and e[i] == ee

    def test_fast_two_sum_vec_ordered(self, rng):
        x = rng.random(256) + 1.0
        y = (rng.random(256) - 0.5) * 2.0**-30
        s, e = fast_two_sum_vec(x, y)
        sv, ev = two_sum_vec(x, y)
        assert (s == sv).all() and (e == ev).all()


class TestSplitAndProduct:
    def test_split_reassembles(self):
        for a in (1.0, math.pi, -1234.5678e15, 2.0**-500):
            hi, lo = split(a)
            assert hi + lo == a
            # hi has at most 26 significant bits
            m, _ = math.frexp(hi)
            assert (abs(int(m * 2**53)) % (1 << 27)) == 0

    def test_two_product_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = float(np.ldexp(rng.random() - 0.5, int(rng.integers(-40, 40))))
            b = float(np.ldexp(rng.random() - 0.5, int(rng.integers(-40, 40))))
            p, e = two_product(a, b)
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    def test_two_product_of_exact_product(self):
        p, e = two_product(3.0, 0.5)
        assert (p, e) == (1.5, 0.0)


#: Binades at the edges of the float range and of the error-free bands
#: (``core.eft.product_domain_mask``: 2^-969 < |x*y| < 2^1023 with
#: |x|, |y| < 2^996; ``square_domain_mask``: 2^-485 < |x| < 2^500):
#: the subnormal floor, the normal floor, both lower band edges, the
#: square's upper edge, the splitter's overflow point, the top binade.
_EDGE_EXPONENTS = (-1074, -1022, -969, -485, 500, 996, 1023)


def _at_edge(draw):
    exponent, offset, mantissa = draw
    return math.ldexp(mantissa, min(exponent + offset, 1023))


_safe_floats = st.one_of(
    st.floats(
        min_value=2.0**-240,
        max_value=2.0**240,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.tuples(
        st.sampled_from(_EDGE_EXPONENTS),
        st.integers(min_value=-2, max_value=2),
        st.one_of(
            st.sampled_from([1.0, 1.0 + 2.0**-52, 1.5, 2.0 - 2.0**-52, 1.0 - 2.0**-40]),
            st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        ),
    ).map(_at_edge),
)
_signed_safe = st.tuples(st.booleans(), _safe_floats).map(
    lambda t: -t[1] if t[0] else t[1]
)


def _same_bits(vec: np.ndarray, scalar: list) -> bool:
    return np.array_equal(vec, np.array(scalar, dtype=np.float64), equal_nan=True)


class TestVectorizedProductDifferential:
    """Hypothesis differentials: the vectorized EFTs are bit-identical
    to looping the scalar routines — the property the reduction layer's
    deterministic server-side re-expansion rests on."""

    @given(st.lists(st.tuples(_signed_safe, _signed_safe), max_size=64))
    @settings(max_examples=200, deadline=None)
    # a product 2^-39 below overflow: the split halves' product is not
    @example([(math.ldexp(1 - 2.0**-40, 996), math.ldexp(1 - 2.0**-40, 28))])
    def test_two_product_vec_matches_scalar(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.float64)
        b = np.array([p[1] for p in pairs], dtype=np.float64)
        with np.errstate(all="ignore"):
            p, e = two_product_vec(a, b)
            scalar = [two_product(float(x), float(y)) for x, y in zip(a, b)]
        assert p.shape == e.shape == a.shape
        assert _same_bits(p, [t[0] for t in scalar])
        assert _same_bits(e, [t[1] for t in scalar])
        # mask true => the expansion is exact. The mask also admits a
        # zero paired with a partner the splitter overflows on; the
        # reduce layer's expansion writes those terms as exact zeros.
        for i in np.flatnonzero(product_domain_mask(a, b) & (a != 0) & (b != 0)):
            ps, es = scalar[i]
            assert Fraction(ps) + Fraction(es) == Fraction(
                float(a[i])
            ) * Fraction(float(b[i]))

    @given(st.lists(_signed_safe, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_two_square_vec_matches_scalar(self, values):
        a = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):
            p, e = two_square_vec(a)
            scalar = [two_square(float(x)) for x in a]
        assert p.shape == e.shape == a.shape
        assert _same_bits(p, [t[0] for t in scalar])
        assert _same_bits(e, [t[1] for t in scalar])
        # mask true => the expansion is exact
        for i in np.flatnonzero(square_domain_mask(a)):
            ps, es = scalar[i]
            assert Fraction(ps) + Fraction(es) == Fraction(float(a[i])) ** 2

    def test_two_square_vec_agrees_with_two_product_vec(self, rng):
        a = rng.standard_normal(512) * 10.0 ** rng.integers(-30, 30, 512)
        psq, esq = two_square_vec(a)
        ppr, epr = two_product_vec(a, a)
        assert (psq == ppr).all() and (esq == epr).all()

    def test_zero_and_negative_zero(self):
        a = np.array([0.0, -0.0])
        p, e = two_square_vec(a)
        assert p[0] == 0.0 and p[1] == 0.0
        assert e[0] == 0.0 and e[1] == 0.0

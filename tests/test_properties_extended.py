"""Hypothesis properties for the extension modules.

Covers arbitrary-precision floats, format-parameterized rounding, the
reproducible binned sum, and the rational rounding helper.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.baselines.binned import binned_sum
from repro.core.apfloat import APFloat, exact_sum_apfloat, split_apfloat
from repro.core.fpinfo import BINARY32, FloatFormat
from repro.core.rounding import round_fraction, round_scaled_int_to_format
from tests.conftest import exact_fraction

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)

ap_floats = st.builds(
    APFloat,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-5000, max_value=5000),
)


@given(a=ap_floats, b=ap_floats)
def test_apfloat_add_exact(a, b):
    assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()


@given(a=ap_floats)
def test_apfloat_canonical_and_roundtrip(a):
    # canonical: odd mantissa or zero
    assert a.mantissa == 0 or a.mantissa % 2 != 0
    assert APFloat(a.mantissa, a.exponent) == a


@given(a=ap_floats, w=st.sampled_from([4, 16, 30, 51]))
def test_apfloat_split_exact(a, w):
    from repro.core.digits import RadixConfig

    radix = RadixConfig(w)
    pairs = split_apfloat(a, radix)
    total = sum(
        (Fraction(d) * Fraction(2) ** (w * j) for j, d in pairs), Fraction(0)
    )
    assert total == a.to_fraction()


@given(vals=st.lists(ap_floats, min_size=0, max_size=12))
@settings(max_examples=60)
def test_apfloat_sum_exact(vals):
    s = exact_sum_apfloat(vals)
    assert s.to_fraction() == sum((v.to_fraction() for v in vals), Fraction(0))


@given(a=ap_floats, t=st.integers(min_value=1, max_value=300))
def test_apfloat_round_faithful(a, t):
    r = a.round_to_precision(t)
    assert r.precision <= t
    err = abs(r.to_fraction() - a.to_fraction())
    if a.mantissa != 0:
        # at most half an ulp at precision t
        ulp = Fraction(2) ** (abs(a.mantissa).bit_length() - t + a.exponent)
        assert err <= ulp / 2


@given(
    v=st.integers(min_value=-(2**80), max_value=2**80),
    s=st.integers(min_value=-200, max_value=60),
    t=st.sampled_from([5, 10, 23, 52]),
)
@settings(max_examples=200)
def test_format_rounding_faithful(v, s, t):
    assume(v != 0)
    fmt = FloatFormat(t=t, l=11)  # wide exponent: isolate mantissa logic
    m, e = round_scaled_int_to_format(v, s, fmt)
    got = Fraction(m) * Fraction(2) ** e
    exact = Fraction(v) * Fraction(2) ** s
    if got != exact:
        # within half an ulp at precision t+1
        ulp = Fraction(2) ** (max(abs(v).bit_length() - 1 + s - t, e))
        assert abs(got - exact) <= ulp / 2
    assert m == 0 or abs(m) < 1 << (t + 1)


@given(
    nums=st.lists(
        st.floats(min_value=-1e20, max_value=1e20, allow_nan=False, width=64),
        min_size=1,
        max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60)
def test_binned_sum_permutation_invariant(nums, seed):
    arr = np.array(nums, dtype=np.float64)
    base = binned_sum(arr)
    perm = np.random.default_rng(seed).permutation(arr.size)
    assert binned_sum(arr[perm]).value == base.value
    err = abs(Fraction(base.value) - exact_fraction(arr))
    assert err <= Fraction(base.error_bound)


@given(
    num=st.integers(min_value=-(2**120), max_value=2**120),
    den=st.integers(min_value=1, max_value=2**120),
)
@settings(max_examples=300)
def test_round_fraction_matches_cpython(num, den):
    f = Fraction(num, den)
    try:
        want = float(f)
    except OverflowError:
        want = math.inf if f > 0 else -math.inf
    assert round_fraction(f) == want

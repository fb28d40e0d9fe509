"""Unit tests for the condition-number-sensitive algorithm (§4, Thm 4)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.truncated import (
    TruncatedSparseSuperaccumulator,
    stopping_condition_addtwo,
    stopping_condition_exponent,
)
from repro.pram.condition_sensitive import condition_sensitive_sum
from tests.conftest import exact_fraction, random_hard_array, ref_sum


def assert_faithful(value: float, data) -> None:
    """The §4 guarantee: value is RD(S) or RU(S)."""
    exact = exact_fraction(data)
    nearest = ref_sum(data)
    lo = min(nearest, math.nextafter(nearest, -math.inf))
    hi = max(nearest, math.nextafter(nearest, math.inf))
    assert Fraction(lo) <= exact <= Fraction(hi) or nearest == value
    assert Fraction(min(value, nearest)) <= exact <= Fraction(max(value, nearest)) or value == nearest


class TestTruncatedAccumulator:
    def test_no_truncation_small(self):
        t = TruncatedSparseSuperaccumulator.from_float(1.5, gamma=8)
        assert not t.truncated
        assert t.to_float() == 1.5

    def test_truncation_flag(self):
        # values far apart: more components than gamma
        t = TruncatedSparseSuperaccumulator.from_floats(
            [1e300, 1e-300], gamma=2
        )
        assert t.truncated

    def test_dropping_zero_components_is_lossless(self):
        t = TruncatedSparseSuperaccumulator.from_floats([1.0, -1.0, 2.0], gamma=2)
        # cancelled active-zero components may be dropped silently
        assert t.to_float() == 2.0

    def test_add_merges_flags(self):
        a = TruncatedSparseSuperaccumulator.from_floats([1e300, 1e-300], gamma=2)
        b = TruncatedSparseSuperaccumulator.from_float(1.0, gamma=2)
        assert a.add(b).truncated

    def test_gamma_mismatch(self):
        a = TruncatedSparseSuperaccumulator.from_float(1.0, gamma=2)
        b = TruncatedSparseSuperaccumulator.from_float(1.0, gamma=4)
        with pytest.raises(ValueError):
            a.add(b)

    def test_least_retained_exponent(self):
        t = TruncatedSparseSuperaccumulator.from_float(1.0, gamma=4)
        assert t.least_retained_exponent <= 0


class TestStoppingConditions:
    def test_addtwo_obviously_safe(self):
        # truncated mass ~ n * 2**-2000 cannot move 1.0
        assert stopping_condition_addtwo(1.0, 1000, -2000)

    def test_addtwo_obviously_unsafe(self):
        # truncated mass ~ n * 2**-10 can easily move 1.0
        assert not stopping_condition_addtwo(1.0, 1000, -10)

    def test_exponent_form_is_stricter(self, rng):
        for _ in range(200):
            y = float(np.ldexp(rng.random() + 1, int(rng.integers(-100, 100))))
            n = int(rng.integers(1, 10**6))
            e = int(rng.integers(-300, 300))
            if stopping_condition_exponent(y, n, e):
                assert stopping_condition_addtwo(y, n, e)

    def test_zero_y_never_stops_exponent(self):
        assert not stopping_condition_exponent(0.0, 10, -500)

    def test_empty_input_stops(self):
        assert stopping_condition_addtwo(1.0, 0, 0)
        assert stopping_condition_exponent(1.0, 0, 0)


class TestConditionSensitiveSum:
    @pytest.mark.parametrize("condition", ["addtwo", "exponent"])
    def test_faithful_on_random(self, condition, rng):
        for _ in range(10):
            x = random_hard_array(rng, int(rng.integers(2, 200)))
            res = condition_sensitive_sum(x, condition=condition)
            assert_faithful(res.value, x)

    def test_well_conditioned_stops_early(self, rng):
        # C(X) = 1: should stop at tiny r
        x = np.ldexp(rng.random(500) + 1.0, rng.integers(-3, 4, 500).astype(np.int32))
        res = condition_sensitive_sum(x)
        assert len(res.iterations) <= 2
        assert res.value == ref_sum(x)

    def test_ill_conditioned_iterates(self):
        # huge cancellation forces r to grow
        x = np.array([1e300, -1e300, 1.0, 1e-280])
        res = condition_sensitive_sum(x)
        assert len(res.iterations) >= 2
        assert res.value == ref_sum(x)
        rs = [t.r for t in res.iterations]
        assert rs == sorted(rs) and all(b == a * a for a, b in zip(rs, rs[1:]))

    def test_final_iteration_untruncated_is_exact(self):
        x = np.array([1e300, -1e300, 1e-300])
        res = condition_sensitive_sum(x)
        assert res.value == 1e-300
        assert not res.iterations[-1].truncated

    def test_work_grows_with_condition_number(self, rng):
        mild = rng.random(256)
        harsh = np.concatenate([rng.random(128) * 1e250, np.array([1e-250])])
        harsh = np.concatenate([harsh, -harsh[:-1]])  # cancel the big mass
        res_mild = condition_sensitive_sum(mild)
        res_harsh = condition_sensitive_sum(harsh)
        assert res_harsh.stats.work // max(res_mild.stats.work, 1) >= 1
        assert len(res_harsh.iterations) >= len(res_mild.iterations)

    def test_empty(self):
        assert condition_sensitive_sum([]).value == 0.0

    def test_bad_condition_name(self):
        with pytest.raises(ValueError):
            condition_sensitive_sum([1.0], condition="vibes")

    def test_sum_zero_terminates(self, rng):
        x = rng.random(100)
        data = np.concatenate([x, -x])
        rng.shuffle(data)
        res = condition_sensitive_sum(data)
        assert res.value == 0.0

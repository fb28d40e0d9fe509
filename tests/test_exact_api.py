"""Unit tests for the high-level exact_sum / reduce.dot API and
condition numbers."""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro import reduce
from repro.core.condition import condition_number, condition_number_exact
from repro.core.exact import exact_sum, exact_sum_fraction, exact_sum_scaled
from repro.core.sparse import SparseSuperaccumulator
from repro.core.truncated import TruncatedSparseSuperaccumulator
from repro.data import generate
from repro.errors import NonFiniteInputError
from repro.kernels.binned import BinnedPartial
from repro.util.bits import same_float
from tests.conftest import ADVERSARIAL_CASES, exact_fraction, random_hard_array, ref_sum

MODES = ("nearest", "up", "down", "zero")

# The adversarial panel, then: signed zeros, a finite pair whose sum
# overflows, one quantum either side of 1.0's rounding-cell midpoint
# down into (and past) the subnormal-precision tail, and the
# conditioning generators.
CASES = ADVERSARIAL_CASES + [
    [-0.0, -0.0],
    [1e308, 1e308],
    *(
        [1.0, 2.0**-53, sign * 2.0**-offset]
        for offset in (54, 55, 60, 80, 105, 106, 107)
        for sign in (1.0, -1.0)
    ),
    generate("well", 4097, delta=700, seed=1),
    generate("anderson", 4097, delta=300, seed=2),
    generate("cancel", 4097, delta=900, seed=3),
    generate("tie", 257, delta=45, seed=4),
]


class TestExactSum:
    @pytest.mark.parametrize("method", ["sparse", "small", "dense", "auto"])
    @pytest.mark.parametrize("case", CASES)
    def test_all_methods_agree(self, method, case):
        assert exact_sum(case, method=method) == ref_sum(case)
        for mode in MODES:
            want = exact_sum(case, method="sparse", mode=mode)
            assert same_float(exact_sum(case, method=method, mode=mode), want), mode

    @pytest.mark.parametrize("n, mode", [(4097, "nearest"), (1 << 21, "up")])
    def test_auto_is_one_deposit_on_the_calling_thread(self, monkeypatch, n, mode):
        # The default method makes exactly one binned deposit of the
        # whole array: no sparse block build, no truncated fold, no
        # worker threads — whatever the host's core count.
        x = generate("cancel", n, delta=1000, seed=42)
        expected = exact_sum(x, method="sparse", mode=mode)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_sum built a sparse or truncated block")

        monkeypatch.setattr(SparseSuperaccumulator, "from_floats", refuse)
        monkeypatch.setattr(TruncatedSparseSuperaccumulator, "__init__", refuse)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        threads = []
        deposit = BinnedPartial.deposit

        def counted(self, arr):
            threads.append(threading.get_ident())
            return deposit(self, arr)

        monkeypatch.setattr(BinnedPartial, "deposit", counted)
        assert same_float(exact_sum(x, mode=mode), expected)
        assert threads == [threading.get_ident()]

    def test_methods_agree_random(self, rng):
        x = random_hard_array(rng, 1000)
        vals = {exact_sum(x, method=m) for m in ("sparse", "small", "dense")}
        assert len(vals) == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            exact_sum([1.0], method="magic")

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            exact_sum([1.0, math.inf])

    def test_accepts_lists_and_2d(self):
        assert exact_sum([1.0, 2.0, 3.0]) == 6.0
        assert exact_sum(np.ones((2, 3))) == 6.0

    def test_scaled_and_fraction_consistent(self, rng):
        x = random_hard_array(rng, 100)
        v, s = exact_sum_scaled(x)
        assert Fraction(v) * Fraction(2) ** s == exact_sum_fraction(x)
        assert exact_sum_fraction(x) == exact_fraction(x)

    @pytest.mark.parametrize(
        "panel", ["cancel", "tie", "anderson", "sumzero", "subnormals", "max", "empty"]
    )
    def test_binned_scaled_sum_equals_sparse(self, panel):
        from repro.data import generate

        big = np.finfo(np.float64).max
        x = {
            "cancel": generate("cancel", 4096, delta=600, seed=5),
            "tie": generate("tie", 4096, delta=600, seed=5),
            "anderson": generate("anderson", 4096, delta=300, seed=6),
            "sumzero": generate("sumzero", 4096, delta=600, seed=7),
            "subnormals": np.array([5e-324, 2.0**-1022, -3e-320] * 700),
            "max": np.array([big, big, -big, big, -big, -big, 1.0]),
            "empty": np.array([]),
        }[panel]
        got = exact_sum_scaled(x)
        want = exact_sum_scaled(x, method="sparse")
        to_fraction = lambda vs: Fraction(vs[0]) * Fraction(2) ** vs[1]
        assert to_fraction(got) == to_fraction(want) == exact_fraction(x)
        assert exact_sum_fraction(x) == exact_fraction(x)
        if to_fraction(want) == 0:
            assert got == want == (0, 0)

    def test_zero_sum_is_one_scaled_pair(self):
        for method in ("auto", "sparse", "small", "dense"):
            assert exact_sum_scaled([1.5, -0.5, -1.0], method=method) == (0, 0)
            assert exact_sum_scaled([], method=method) == (0, 0)

    def test_where_numpy_fails(self):
        x = np.array([1e16, 1.0, -1e16])
        assert float(np.sum(x)) != 1.0  # the motivating failure
        assert exact_sum(x) == 1.0


class TestExactDot:
    def test_simple(self):
        assert reduce.dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_catastrophic_cancellation(self):
        # classic: naive dot is wildly wrong
        x = np.array([1e150, 1.0, -1e150])
        y = np.array([1e150, 1.0, 1e150])
        assert reduce.dot(x, y) == 1.0

    def test_against_fraction(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 100))
            x = random_hard_array(rng, n, emin=-100, emax=100)
            y = random_hard_array(rng, n, emin=-100, emax=100)
            want = sum(
                (Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, y)),
                Fraction(0),
            )
            from tests.conftest import fraction_to_float

            assert reduce.dot(x, y) == fraction_to_float(want)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reduce.dot([1.0], [1.0, 2.0])

    def test_product_overflow_rounds_to_inf(self):
        # the exact dot is ~1e616: correctly rounded to binary64 = inf
        assert reduce.dot([1e308], [1e308]) == math.inf
        assert reduce.dot([1e308], [-1e308]) == -math.inf
        # but a cancelling pair of huge products is finite and exact
        assert reduce.dot([1e308, 1e308], [1e308, -1e308]) == 0.0

    def test_subnormal_products_exact(self):
        # float products underflow; the exact dot does not
        v = reduce.dot([2.0**-600], [2.0**-600])
        assert v == 0.0  # 2**-1200 rounds to zero in binary64 ...
        from repro.reduce import get_op

        x = np.array([2.0**-600])
        (terms,), rest = get_op("dot").expand_exact(x, x)
        assert terms.size == 0 and rest == (Fraction(2) ** -1200,)
        assert reduce.dot(x, x, mode="up") == 2.0**-1074

    def test_input_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            reduce.dot([math.inf], [1.0])


class TestConditionNumber:
    def test_positive_data_is_one(self, rng):
        assert condition_number(rng.random(500)) == 1.0

    def test_exact_zero_sum_is_inf(self, rng):
        x = rng.random(100)
        assert condition_number(np.concatenate([x, -x])) == math.inf

    def test_empty_and_zeros(self):
        assert condition_number([]) == 1.0
        assert condition_number([0.0, 0.0]) == 1.0

    def test_known_value(self):
        # |1| + |-1| + |eps| over |eps|
        eps = 2.0**-30
        got = condition_number([1.0, -1.0, eps])
        assert abs(got - (2.0 + eps) / eps) < 1e-3

    def test_exact_pair(self, rng):
        x = random_hard_array(rng, 200)
        mag, total = condition_number_exact(x)
        assert mag == exact_fraction(np.abs(x))
        assert total == abs(exact_fraction(x))

    def test_grows_with_cancellation(self, rng):
        base = rng.random(100)
        mild = condition_number(base)
        harsh = condition_number(np.concatenate([base, -base + 1e-9]))
        assert harsh > mild

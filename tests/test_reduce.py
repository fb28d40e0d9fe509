"""Unit tests for the reduction layer: ops, engine, planner (PR 9).

The contract: every reduction is an error-free expansion composed
with a sum kernel, plus an exact rest for the elements outside the
expansion band, so its value is the correctly rounded true mathematical
quantity — bit-identical to exact Fraction references, on every plane,
under every capable kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro import reduce
from repro.core.eft import product_domain_mask, square_domain_mask
from repro.core.exact import exact_sum_fraction
from repro.core.rounding import MAX_FINITE
from repro.errors import EmptyStreamError
from repro.reduce import (
    DotOp,
    VarOp,
    get_op,
    op_names,
    register_op,
    run_reduction,
)
from tests.conftest import (
    exact_products,
    is_rounded_sqrt,
    ref_dot,
    ref_mean,
    ref_var,
)


def _panel(n=800, seed=11, spread=40):
    rng = np.random.default_rng(seed)
    return np.ldexp(
        rng.standard_normal(n), rng.integers(-spread, spread, n)
    )


class TestRegistry:
    def test_all_five_ops_registered(self):
        assert set(op_names()) >= {"sum", "dot", "norm2", "mean", "var"}

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            get_op("median")

    def test_register_last_wins(self):
        # Same policy as the kernel registry: re-registration replaces.
        fresh = register_op(DotOp())
        assert get_op("dot") is fresh


class TestExpansionExactness:
    """expand()'s term streams sum exactly to the true quantity."""

    def test_dot_terms_sum_to_exact_inner_product(self):
        x, y = _panel(300, seed=1), _panel(300, seed=2)
        (terms,) = get_op("dot").expand(x, y)
        assert terms.size == 2 * x.size
        assert exact_sum_fraction(terms) == exact_products(x, y)

    def test_norm2_terms_sum_to_exact_square_sum(self):
        x = _panel(300, seed=3)
        (terms,) = get_op("norm2").expand(x)
        total = exact_sum_fraction(terms)
        want = Fraction(0)
        for v in x:
            want += Fraction(float(v)) ** 2
        assert total == want

    def test_var_expands_two_streams(self):
        x = _panel(64, seed=4)
        values, squares = get_op("var").expand(x)
        assert np.array_equal(values, x)
        assert squares.size == 2 * x.size

    def test_dot_zero_pair_with_huge_partner_is_exact_zero(self):
        # A zero paired with a magnitude beyond the Dekker-split range
        # must expand to an exact 0.0 term, not NaN/overflow garbage.
        x = np.array([0.0, 2.0, -0.0])
        y = np.array([1e308, 3.0, -1e308])
        op = get_op("dot")
        op.check_domain(x, y)  # in domain: zero pairs are always safe
        (terms,) = op.expand(x, y)
        assert np.isfinite(terms).all()
        assert exact_sum_fraction(terms) == Fraction(6)


class TestDomainPolicing:
    """Elements the expansion band rejects are reduced exactly.

    Each input has an element outside the TwoProduct/TwoSquare band;
    the band still rejects it, and the op takes its exact rest instead
    of raising.
    """

    def test_norm2_overflowing_square_rejected(self):
        x = np.array([1.0, 1e200])
        assert not square_domain_mask(x).all()
        assert reduce.norm2(x) == 1e200
        assert is_rounded_sqrt(reduce.norm2(x), exact_products(x))

    def test_norm2_underflowing_square_rejected(self):
        x = np.array([2.0**-530, 1.0])
        assert not square_domain_mask(x).all()
        assert reduce.norm2(x) == 1.0
        assert reduce.norm2(x[:1]) == 2.0**-530

    def test_dot_overflowing_product_rejected(self):
        x = np.array([1e200])
        assert not product_domain_mask(x, x).all()
        assert reduce.dot(x, x) == math.inf
        assert reduce.dot(x, x, mode="zero") == MAX_FINITE
        assert reduce.dot(x, -x, mode="up") == -MAX_FINITE

    def test_dot_underflowing_product_rejected(self):
        x = np.array([1e-200])
        assert not product_domain_mask(x, x).all()
        assert reduce.dot(x, x) == 0.0
        assert reduce.dot(x, x, mode="up") == 2.0**-1074
        assert reduce.dot(x, -x, mode="down") == -(2.0**-1074)

    def test_band_edges_admit_only_error_free_expansions(self):
        # Just inside the old lower edges (products above 2**-1000,
        # squares of magnitudes above 2**-500) the error term's last
        # bit falls below 2**-1074: the band rejects those inputs, and
        # their exact rest keeps the result exact there.
        x = (1.0 + 2.0**-52) * 2.0**-500
        assert not square_domain_mask(np.array([x])).all()
        for mode in ("nearest", "down", "up", "zero"):
            assert reduce.dot([x], [x], mode=mode) == ref_dot([x], [x], mode)
        assert reduce.norm2([x]) == x
        y = (1.0 + 2.0**-52) * 2.0**-484
        assert square_domain_mask(np.array([y])).all()
        assert reduce.norm2([y]) == y
        assert reduce.dot([y], [y]) == float(Fraction(y) ** 2)

    def test_var_out_of_band_square_rejected(self):
        for x in ([1e260, 1.0], [2.0**-530, 3.0], [1e200, -1e200, 3.0]):
            assert not square_domain_mask(np.array(x)).all()
            assert reduce.var(x) == ref_var(x)
            assert reduce.var(x, ddof=1) == ref_var(x, ddof=1)

    def test_sum_and_mean_have_no_domain_limit(self):
        big = np.array([1e308, -1e308, 3.5])
        assert reduce.sum(big) == 3.5
        assert reduce.mean(big) == ref_mean(big)


class TestEmptyEdges:
    def test_empty_sum_dot_norm2_are_zero(self):
        assert reduce.sum([]) == 0.0
        assert reduce.dot([], []) == 0.0
        assert reduce.norm2([]) == 0.0

    def test_empty_mean_raises(self):
        with pytest.raises(EmptyStreamError):
            reduce.mean([])

    def test_var_needs_more_observations_than_ddof(self):
        with pytest.raises(EmptyStreamError):
            reduce.var([])
        with pytest.raises(EmptyStreamError):
            reduce.var([1.5], ddof=1)
        assert reduce.var([1.5]) == 0.0


class TestFinishSemantics:
    def test_matches_serial_references(self):
        x, y = _panel(), _panel(seed=12)
        assert reduce.dot(x, y) == ref_dot(x, y)
        assert is_rounded_sqrt(reduce.norm2(x), exact_products(x))
        assert reduce.mean(x) == ref_mean(x)
        assert reduce.var(x) == ref_var(x)
        assert reduce.var(x, ddof=3) == ref_var(x, ddof=3)

    def test_dot_honours_directed_modes(self):
        x, y = _panel(200, seed=5), _panel(200, seed=6)
        for mode in ("down", "up", "zero"):
            got = reduce.dot(x, y, plane="serial", kernel="sparse", mode=mode)
            assert got == ref_dot(x, y, mode)

    def test_norm2_rejects_directed_modes(self):
        with pytest.raises(ValueError):
            run_reduction("serial", "sparse", "norm2", [3.0, 4.0], mode="up")

    def test_trivial_pythagoras(self):
        assert reduce.norm2([3.0, 4.0]) == 5.0
        assert reduce.dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_var_ddof_carried_by_op_instance(self):
        x = _panel(100, seed=7)
        got = run_reduction("serial", "sparse", VarOp(ddof=2), x)
        assert got == ref_var(x, ddof=2)


class TestDdofCheck:
    """One ddof check (``VarOp``) behind every variance entry point."""

    BAD = (-1, -2, 1.7, True)

    def test_reduce_var_rejects_bad_ddof(self):
        for ddof in self.BAD:
            with pytest.raises(ValueError, match="ddof"):
                reduce.var([1.0, 2.0, 4.0], ddof=ddof)
        assert reduce.var([1.0, 2.0, 4.0], ddof=np.int64(1)) == ref_var(
            [1.0, 2.0, 4.0], ddof=1
        )

    def test_running_stats_variance_rejects_bad_ddof(self):
        from repro.streaming import RunningStats

        rs = RunningStats()
        rs.add_array([1.0, 2.0, 4.0])
        for ddof in self.BAD:
            with pytest.raises(ValueError, match="ddof"):
                rs.variance(ddof=ddof)
        assert rs.variance(ddof=1) == ref_var([1.0, 2.0, 4.0], ddof=1)

    def test_read_stream_rejects_bad_ddof_before_merging(self):
        import asyncio

        from repro.errors import ServiceError
        from repro.serve.service import read_stream

        async def merge(*names):
            raise AssertionError("merged before the ddof check")

        for ddof in self.BAD:
            with pytest.raises(
                ServiceError, match="'ddof' must be a non-negative integer"
            ):
                asyncio.run(read_stream("moments", "s", merge, ddof=ddof))


class TestEngineValidation:
    def test_unknown_plane_kernel_op(self):
        with pytest.raises(ValueError, match="plane"):
            run_reduction("gpu", "sparse", "sum", [1.0])
        with pytest.raises(ValueError, match="kernel"):
            run_reduction("serial", "nope", "sum", [1.0])
        with pytest.raises(ValueError, match="unknown"):
            run_reduction("serial", "sparse", "median", [1.0])

    def test_dot_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            reduce.dot([1.0, 2.0], [3.0])

    def test_dot_requires_second_array(self):
        with pytest.raises(ValueError):
            run_reduction("serial", "sparse", "dot", [1.0])

    def test_single_array_op_rejects_second(self):
        with pytest.raises(ValueError):
            run_reduction("serial", "sparse", "norm2", [1.0], [2.0])


class TestOpAwarePlanner:
    def test_descriptor_validates_op(self):
        from repro.plan import DataDescriptor

        with pytest.raises(ValueError, match="unknown op"):
            DataDescriptor(n=4, op="median")

    def test_plan_executes_reductions(self):
        from repro.plan import DataDescriptor, plan_sum

        x, y = _panel(500, seed=8), _panel(500, seed=9)
        plan = plan_sum(DataDescriptor.describe_array(x, op="dot", values2=y))
        assert plan.describe()["op"] == "dot"
        assert plan.execute() == ref_dot(x, y)
        plan = plan_sum(DataDescriptor.describe_array(x, op="norm2"))
        assert is_rounded_sqrt(plan.execute(), exact_products(x))


class TestRunningStatsSharesExpansion:
    """streaming.RunningStats rides the same TwoSquare ingest."""

    def test_matches_exact_references_including_out_of_band(self):
        from repro.streaming import RunningStats

        x = np.concatenate(
            [_panel(400, seed=10), np.array([1e200, -2e-300, 2.0**-530])]
        )
        rs = RunningStats()
        rs.add_array(x[:100])
        rs.add_array(x[100:])
        assert rs.mean() == ref_mean(x)
        assert rs.variance(ddof=1) == ref_var(x, ddof=1)

    def test_merge_matches_serial(self):
        from repro.streaming import RunningStats

        x = _panel(600, seed=13)
        a, b = RunningStats(), RunningStats()
        a.add_array(x[:251])
        b.add_array(x[251:])
        a.merge(b)
        assert a.variance() == ref_var(x)
        assert a.count == x.size

"""Full-range differential test of the reduction ops.

Every local plane, under every kernel that hosts the op, must return
the correctly rounded value of the true quantity for any finite
input, including elements whose products or squares leave the band
where TwoProduct/TwoSquare are error-free. The references are exact
Fraction arithmetic (``tests/conftest.py``); ``norm2`` is checked by
the exact squares of the midpoints around the result. Serve and
cluster ingest keep refusing such elements.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import reduce
from repro.errors import ReductionRangeError
from repro.kernels import kernel_names
from repro.plan import PLANES, run_reduction
from repro.reduce import VarOp
from repro.streaming import RunningStats
from repro.util.bits import same_float
from tests.conftest import (
    exact_products,
    is_rounded_sqrt,
    random_hard_array,
    ref_dot,
    ref_mean,
    ref_sum,
    ref_var,
)

LOCAL_PLANES = sorted(set(PLANES) - {"serve", "cluster"})
KERNELS = sorted(kernel_names())
MODES = ("nearest", "down", "up", "zero")


def _hard(seed, n, span):
    return random_hard_array(np.random.default_rng(seed), n, emin=-span, emax=span)


#: (x, y) panels: the in-band data of the statistics tests, the
#: out-of-band inputs of the domain tests, the exact-dot cases, and
#: in-band data mixed with elements from every edge of the float range.
PANELS = {
    "hard40": (_hard(1, 60, 40), _hard(2, 60, 40)),
    "hard100": (_hard(3, 40, 100), _hard(4, 40, 100)),
    "offset": ([1e8 + 1, 1e8 + 2, 1e8 + 3, 1e8 + 4], [1.0, -1.0, 1.0, -1.0]),
    "cancel": ([1e150, 1.0, -1e150], [1e150, 1.0, 1e150]),
    "overflow": ([1e308], [1e308]),
    "overflow-cancel": ([1e308, 1e308], [1e308, -1e308]),
    "subnormal-product": ([2.0**-600], [2.0**-600]),
    "dot-underflow": ([1e-200], [1e-200]),
    "norm-overflow": ([1.0, 1e200], [3.0, 1e-200]),
    "norm-underflow": ([2.0**-530, 1.0], [2.0**-530, -1.0]),
    "band-edge": ([(1.0 + 2.0**-52) * 2.0**-500], [(1.0 + 2.0**-52) * 2.0**-500]),
    "var-out-of-band": ([1e260, 1.0], [1e-260, 1.0]),
    "motivation-dot": ([1e300, -1e300], [1e10, 1e10]),
    "motivation-var": ([1e200, -1e200, 3.0], [1e200, 1e200, 3.0]),
    "mixed": (
        np.concatenate(
            [_hard(5, 50, 30), [1e200, -2e-300, 2.0**-530, 2.0**-1074, 1.7e308]]
        ),
        np.concatenate(
            [_hard(6, 50, 30), [-1e200, 3e-300, 2.0**-530, 0.5, -1.7e308]]
        ),
    ),
}


def _check_all(plane, kernel, x, y, label, *, mode_list=MODES):
    """Assert every op on ``kernel`` against the exact references."""
    kw = dict(workers=2, block_items=16)
    for mode in mode_list:
        got = run_reduction(plane, kernel, "dot", x, y, mode=mode, **kw)
        assert same_float(got, ref_dot(x, y, mode)), (label, "dot", mode, got)
    got = run_reduction(plane, kernel, "sum", x, **kw)
    assert same_float(got, ref_sum(x)), (label, "sum", got)
    got = run_reduction(plane, kernel, "norm2", x, **kw)
    assert is_rounded_sqrt(got, exact_products(x)), (label, "norm2", got)
    got = run_reduction(plane, kernel, "mean", x, **kw)
    assert same_float(got, ref_mean(x)), (label, "mean", got)
    for ddof in range(min(2, len(x))):
        got = run_reduction(plane, kernel, VarOp(ddof), x, **kw)
        assert same_float(got, ref_var(x, ddof)), (label, "var", ddof, got)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("plane", LOCAL_PLANES)
def test_every_local_plane_matches_the_exact_reference(plane, kernel):
    for label, (x, y) in PANELS.items():
        _check_all(plane, kernel, np.asarray(x), np.asarray(y), label)


@pytest.mark.parametrize("plane", LOCAL_PLANES)
def test_motivation_inputs_are_pinned(plane):
    assert same_float(reduce.dot([1e300, -1e300], [1e10, 1e10], plane=plane), 0.0)
    assert reduce.norm2([1e200], plane=plane) == 1e200
    assert reduce.var([1e200, -1e200, 3.0], plane=plane) == math.inf


@pytest.mark.parametrize("plane", ["serve", "cluster"])
def test_stream_ingest_planes_refuse_out_of_band_inputs(plane):
    for op, x, y in (
        ("dot", [1e300, -1e300], [1e10, 1e10]),
        ("norm2", [1e200], None),
        ("var", [1e200, -1e200, 3.0], None),
    ):
        with pytest.raises(ReductionRangeError):
            run_reduction(plane, "binned", op, x, y, workers=2)


full_range = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


@given(
    pairs=st.lists(st.tuples(full_range, full_range), min_size=1, max_size=6),
    plane=st.sampled_from(LOCAL_PLANES),
    kernel=st.sampled_from(KERNELS),
    mode=st.sampled_from(MODES),
)
@example(pairs=[(1e300, 1e10)], plane="serial", kernel="sparse", mode="nearest")
@example(pairs=[(2.0**-1074, 2.0**-1074)], plane="serial", kernel="binned", mode="up")
@example(
    pairs=[(1.7e308, 1.7e308), (-1.7e308, 1.7e308), (2.0**-537, 3.0)],
    plane="mapreduce", kernel="sparse", mode="down",
)
@example(pairs=[(2.0**-537, 2.0**-537)], plane="streaming", kernel="small", mode="zero")
@settings(max_examples=120, deadline=None)
def test_full_range_factors(pairs, plane, kernel, mode):
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    _check_all(plane, kernel, x, y, "hypothesis", mode_list=(mode,))
    rs = RunningStats()
    rs.add_array(x[:1])
    rs.add_array(x[1:])
    assert same_float(rs.mean(), ref_mean(x))
    assert same_float(rs.variance(), ref_var(x))

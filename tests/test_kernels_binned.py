"""Differential suite: binned kernels vs the pure-Python sparse path.

The binned exponent fold (PR 6 tentpole) re-derives the exact sum from
raw bit fields — biased exponents, hidden bits, mantissa halves —
rather than from the digit split the sparse superaccumulator uses, so
the two implementations share no arithmetic. These tests pit them
against each other on the inputs where bit-field extraction goes wrong
first: subnormals (no hidden bit), signed zeros, values at the
overflow boundary, and folds engineered to exercise the deferred
bin-carry resolution. ±inf/NaN must be rejected with the same typed
error the rest of the package raises. The deposit's bins themselves are
checked against a pure-Python reference built from raw bit patterns.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import exact_sum
from repro.core.digits import DEFAULT_RADIX, RadixConfig, split_scaled_ints_vec
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import CodecError, NonFiniteInputError
from repro.kernels import get_kernel, kernel_sum
from repro.kernels.binned import (
    BIN_COUNT,
    BIN_EXP_OFFSET,
    DEPOSIT_CHUNK,
    RESOLVE_CHUNKS,
    BinnedPartial,
)
from tests.test_streaming import _fixture_values

KERNELS = ["binned"]

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)
float_lists = st.lists(finite_floats, min_size=0, max_size=80)


def _ref(values) -> Fraction:
    return sum((Fraction(float(v)) for v in values), Fraction(0))


@pytest.fixture(params=KERNELS)
def kernel(request):
    return get_kernel(request.param)


# ---------------------------------------------------------------------------
# hypothesis differentials vs the sparse superaccumulator


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists)
@settings(max_examples=150, deadline=None)
def test_fold_matches_sparse_exactly(name, values):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    part = k.fold(arr)
    assert k.exact_fraction(part) == _ref(arr)
    ref = SparseSuperaccumulator.from_floats(arr, DEFAULT_RADIX)
    for mode in ("nearest", "down", "up"):
        assert k.round(part, mode) == ref.to_float(mode)


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists, splits=st.integers(min_value=1, max_value=7))
@settings(max_examples=100, deadline=None)
def test_split_fold_combine_is_exact(name, values, splits):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    assert kernel_sum(k, np.array_split(arr, splits)) == exact_sum(
        arr, method="sparse"
    )


@pytest.mark.parametrize("name", KERNELS)
@given(
    values=st.lists(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            allow_subnormal=True,
            width=64,
            min_value=-1e-300,
            max_value=1e-300,
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_subnormal_panels_match(name, values):
    """Bins without a hidden bit: the subnormal/bin-1 sharing path."""
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    assert k.exact_fraction(k.fold(arr)) == _ref(arr)


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists)
@settings(max_examples=80, deadline=None)
def test_wire_roundtrip_is_stable_and_exact(name, values):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    frame = k.to_wire(k.fold(arr))
    back = k.from_wire(frame)
    assert k.to_wire(back) == frame
    assert k.exact_fraction(back) == _ref(arr)


# ---------------------------------------------------------------------------
# directed edge panels


EDGE_PANELS = [
    np.array([5e-324, -5e-324]),  # smallest subnormals, exact cancel
    np.array([5e-324] * 33),
    np.array([-0.0, 0.0, -0.0]),
    np.array([-0.0]),
    np.array([2.0**-1074, 2.0**-1022, 2.0**-1021]),  # subnormal/normal seam
    np.array([1.7976931348623157e308, -1.7976931348623157e308, 1.0]),
    np.array([1e308, 1e308, -1e308, -1e308]),  # would overflow naively
    np.array([2.0**1023, 2.0**970]),  # top bin, ulp apart
    np.array([1.0, 2.0**-53]),  # the classic rounding tie
    np.array([]),
]


@pytest.mark.parametrize("panel", range(len(EDGE_PANELS)))
def test_edge_panels_match_sparse(kernel, panel):
    arr = EDGE_PANELS[panel].astype(np.float64)
    part = kernel.fold(arr)
    assert kernel.exact_fraction(part) == _ref(arr)
    assert kernel.round(part) == exact_sum(arr, method="sparse")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_rejected_with_typed_error(kernel, bad):
    with pytest.raises(NonFiniteInputError):
        kernel.fold(np.array([1.0, bad, 2.0]))
    with pytest.raises(NonFiniteInputError):
        kernel.fold_scalar(bad)
    # a later chunk must also be caught, not just the first
    arr = np.ones(3000)
    arr[-1] = bad
    with pytest.raises(NonFiniteInputError):
        kernel.fold(arr)


def test_signed_zero_folds_contribute_nothing(kernel):
    part = kernel.fold(np.array([-0.0, 0.0, -0.0, 0.0]))
    assert kernel.exact_fraction(part) == 0
    assert kernel.round(part) == 0.0


# ---------------------------------------------------------------------------
# deferred bin-carry resolution


def test_resolution_triggers_at_the_chunk_budget(monkeypatch):
    import repro.kernels.binned as binned_mod

    monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", 3)
    monkeypatch.setattr(binned_mod, "DEPOSIT_CHUNK", 16)
    rng = np.random.default_rng(5)
    arr = (rng.random(400) - 0.5) * 10.0 ** rng.integers(-100, 100, 400)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(arr)
    # the budget forced at least one resolution into the spill
    assert part.spill.active_count > 0
    assert part.values <= 3 * 16
    assert part.to_fraction() == _ref(arr)


def test_merge_resolves_when_budgets_would_overflow(monkeypatch):
    import repro.kernels.binned as binned_mod

    # a 64-value budget: each 50-value fold fits, two merged do not
    monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", 2)
    monkeypatch.setattr(binned_mod, "DEPOSIT_CHUNK", 32)
    rng = np.random.default_rng(6)
    k = get_kernel("binned")
    arrs = [
        (rng.random(50) - 0.5) * 10.0 ** rng.integers(-50, 50, 50)
        for _ in range(6)
    ]
    total = k.zero()
    for a in arrs:
        part = k.fold(a)
        assert part.spill.active_count == 0 and part.values == 50
        total = k.combine(total, part)
        assert total.values <= 64
    # only the merges can have resolved bins into the spill
    assert total.spill.active_count > 0
    assert k.exact_fraction(total) == _ref(np.concatenate(arrs))


def test_deposit_on_the_value_budget_does_not_resolve(monkeypatch):
    import repro.kernels.binned as binned_mod

    monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", 2)
    monkeypatch.setattr(binned_mod, "DEPOSIT_CHUNK", 16)
    rng = np.random.default_rng(13)
    arrs = [rng.random(n) - 0.5 for n in (20, 12, 1)]
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(arrs[0])
    part.deposit(arrs[1])
    # 32 values: exactly the budget, bins untouched by any carry
    assert part.values == 32 and part.spill.active_count == 0
    part.deposit(arrs[2])
    assert part.values == 1 and part.spill.active_count > 0
    assert part.to_fraction() == _ref(np.concatenate(arrs))


def test_near_overflow_bins_resolve_exactly():
    """Bins driven to the top of the per-chunk magnitude bound.

    Every element maxes the 52-bit mantissa in one bin: the low-half
    bin sum grows by ~2**32 per element, the high half by ~2**21 —
    after a full chunk of identical values the bins sit near the
    documented per-chunk bound, and resolution must still be exact.
    """
    x = float(np.nextafter(2.0, 1.0))  # mantissa all-ones, one bin
    for n in (1, 1000, 65536):
        arr = np.full(n, x)
        part = BinnedPartial(DEFAULT_RADIX)
        part.deposit(arr)
        assert part.to_fraction() == Fraction(x) * n
        part.resolve()
        assert part.values == 0
        assert part.to_fraction() == Fraction(x) * n


def test_mixed_sign_bin_cancellation_is_exact(kernel):
    rng = np.random.default_rng(7)
    base = (rng.random(500) + 1.0) * 2.0**300
    arr = np.concatenate([base, -base, [3.5e-320, -1.25]])
    rng.shuffle(arr)
    part = kernel.fold(arr)
    assert kernel.exact_fraction(part) == _ref(arr)
    assert kernel.round(part) == exact_sum(arr, method="sparse")


# ---------------------------------------------------------------------------
# the scaled-int split underneath resolution


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=BIN_EXP_OFFSET, max_value=BIN_COUNT + 32),
        ),
        min_size=0,
        max_size=40,
    ),
    w=st.sampled_from([4, 16, 30, 31]),
)
@settings(max_examples=150, deadline=None)
def test_split_scaled_ints_vec_is_exact(pairs, w):
    radix = RadixConfig(w)
    v = np.array([p[0] for p in pairs], dtype=np.int64)
    e = np.array([p[1] for p in pairs], dtype=np.int64)
    idx, dig = split_scaled_ints_vec(v, e, radix)
    got = sum(
        (Fraction(int(d)) * Fraction(2) ** (w * int(j)) for j, d in zip(idx, dig)),
        Fraction(0),
    )
    want = sum(
        (Fraction(int(vi)) * Fraction(2) ** int(ei) for vi, ei in zip(v, e)),
        Fraction(0),
    )
    assert got == want
    assert (dig != 0).all()
    assert (np.abs(dig) <= radix.mask).all()


def test_split_scaled_ints_vec_rejects_int64_min():
    with pytest.raises(ValueError, match="2\\*\\*63"):
        split_scaled_ints_vec(
            np.array([np.iinfo(np.int64).min]), np.array([0]), DEFAULT_RADIX
        )


# ---------------------------------------------------------------------------
# wire-format hostility specific to BSUP


def test_decode_rejects_bins_beyond_the_chunk_budget():
    from repro import codec

    k = get_kernel("binned")
    arr = np.array([1.0, 2.0**-300])
    frame = bytearray(k.to_wire(k.fold(arr)))
    # header: <4sqq> = magic, chunks, nbins; zero the chunk budget so
    # the (legitimately folded) bins exceed what 0 chunks can produce
    frame[4:12] = (0).to_bytes(8, "little")
    with pytest.raises(CodecError, match="chunk budget"):
        codec.decode_binned(bytes(frame))


def test_decode_rejects_unsorted_or_out_of_range_bins():
    from repro import codec
    from repro.core.sparse import SparseSuperaccumulator

    spill = SparseSuperaccumulator(DEFAULT_RADIX)
    good = codec.encode_binned(
        1,
        np.array([5, 4], dtype=np.int64),
        np.array([1, 1], dtype=np.int64),
        np.array([0, 0], dtype=np.int64),
        spill,
    )
    with pytest.raises(CodecError, match="strictly increasing"):
        codec.decode_binned(good)
    bad_range = codec.encode_binned(
        1,
        np.array([0], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        spill,
    )
    with pytest.raises(CodecError, match="biased-exponent range"):
        codec.decode_binned(bad_range)


# ---------------------------------------------------------------------------
# the sign x exponent deposit, bin by bin

MANT_BITS = (1 << 52) - 1
LARGEST = 0x7FEFFFFFFFFFFFFF  # largest finite magnitude
SIGN = 1 << 63


def _pattern(sign: int, eb: int, mant: int) -> int:
    return (sign << 63) | (eb << 52) | mant


def _edge_patterns():
    """Both signs at every finite exponent, plus ±0, subnormals and ±max.

    The two signs get complementary mantissas so no exponent cancels.
    """
    out = []
    for eb in range(2047):
        mant = (eb * 0x9E3779B97F4A7) & MANT_BITS
        out += [_pattern(0, eb, mant), _pattern(1, eb, MANT_BITS ^ mant)]
    out += [0, SIGN, 1, SIGN | 3, MANT_BITS, SIGN | (MANT_BITS >> 1)]
    return out + [LARGEST, LARGEST, SIGN | LARGEST]


def _reference_bins(patterns):
    """Per-biased-exponent (lo, hi) sums from the bit fields, in Python ints."""
    lo = [0] * BIN_COUNT
    hi = [0] * BIN_COUNT
    for p in patterns:
        eb = (p >> 52) & 0x7FF
        m = (p & MANT_BITS) | ((1 << 52) if eb else 0)
        sign = -1 if p >> 63 else 1
        b = max(eb, 1)
        lo[b] += sign * (m & 0xFFFFFFFF)
        hi[b] += sign * (m >> 32)
    return lo, hi


def _as_floats(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


finite_patterns = st.builds(
    _pattern,
    st.integers(0, 1),
    st.integers(0, 2046),
    st.integers(0, MANT_BITS),
)


@given(drawn=st.lists(finite_patterns, max_size=200))
@settings(max_examples=40, deadline=None)
def test_deposit_bins_match_bit_field_reference(drawn):
    patterns = _edge_patterns() + drawn
    arr = _as_floats(patterns)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(arr)
    lo, hi = _reference_bins(patterns)
    assert part.bins_lo.tolist() == lo
    assert part.bins_hi.tolist() == hi
    assert part.to_fraction() == _ref(arr)


NONFINITE_PATTERNS = [
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000000,  # negative NaN
    0x7FF0000000000001,  # signalling NaN payload
    0x7FF4000000000000,  # signalling NaN, payload in the high word
]


@pytest.mark.parametrize("bad", NONFINITE_PATTERNS)
@given(pos=st.integers(0, 299))
@settings(max_examples=20, deadline=None)
def test_nonfinite_anywhere_raises_and_leaves_bins_unchanged(bad, pos):
    rng = np.random.default_rng(pos)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit((rng.random(100) - 0.5) * 10.0 ** rng.integers(-30, 30, 100))
    before = (part.bins_lo.copy(), part.bins_hi.copy(), part.values)
    arr = (rng.random(300) - 0.5) * 2.0 ** rng.integers(-1074, 1023, 300)
    arr[pos] = _as_floats([bad])[0]
    with pytest.raises(NonFiniteInputError, match=f"at index {pos}:"):
        part.deposit(arr)
    assert (part.bins_lo == before[0]).all()
    assert (part.bins_hi == before[1]).all()
    assert part.values == before[2]


@pytest.mark.parametrize("sign", [0, 1])
@pytest.mark.parametrize("eb", [1, 1023, 2046])
def test_worst_case_chunk_at_one_key_is_exact(sign, eb):
    """A full chunk of all-ones mantissas at one key: the per-chunk bound."""
    x = _as_floats([_pattern(sign, eb, MANT_BITS)])[0]
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(np.full(DEPOSIT_CHUNK, x))
    s = -1 if sign else 1
    assert part.values == DEPOSIT_CHUNK
    assert int(part.bins_lo[eb]) == s * DEPOSIT_CHUNK * (2**32 - 1)
    assert int(part.bins_hi[eb]) == s * DEPOSIT_CHUNK * (2**21 - 1)
    assert np.count_nonzero(part.bins_lo) == np.count_nonzero(part.bins_hi) == 1
    assert abs(int(part.bins_lo[eb])) < 2**52 and abs(int(part.bins_hi[eb])) < 2**41
    assert part.to_fraction() == Fraction(x) * DEPOSIT_CHUNK


def _random_patterns(rng, n: int, eb_lo: int = 0, eb_hi: int = 2046) -> list:
    """``n`` finite bit patterns: random signs, exponents and mantissas."""
    signs = rng.integers(0, 2, n).tolist()
    ebs = rng.integers(eb_lo, eb_hi + 1, n).tolist()
    mants = rng.integers(0, MANT_BITS, n, endpoint=True).tolist()
    return [_pattern(s, e, m) for s, e, m in zip(signs, ebs, mants)]


def _assert_bins_match_reference(patterns) -> None:
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(_as_floats(patterns))
    lo, hi = _reference_bins(patterns)
    assert part.bins_lo.tolist() == lo
    assert part.bins_hi.tolist() == hi


#: Either side of the 2**16-value bincount passes and the 2**20-value
#: deposit chunk.
BOUNDARY_SIZES = [2**16 - 1, 2**16, 2**16 + 1, DEPOSIT_CHUNK + 1]


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_deposit_bins_match_reference_across_pass_boundaries(n):
    _assert_bins_match_reference(_random_patterns(np.random.default_rng(n), n))


@pytest.mark.parametrize("sign", [0, 1])
@pytest.mark.parametrize("eb", range(2026, 2047))
def test_full_chunk_at_the_top_exponents_matches_reference(sign, eb):
    """A chunk's unscaled high-part sum would overflow at these keys."""
    p = _pattern(sign, eb, MANT_BITS)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(np.full(DEPOSIT_CHUNK, _as_floats([p])[0]))
    lo, hi = _reference_bins([p])
    assert part.bins_lo.tolist() == [v * DEPOSIT_CHUNK for v in lo]
    assert part.bins_hi.tolist() == [v * DEPOSIT_CHUNK for v in hi]


def test_subnormals_and_signed_zeros_match_reference():
    rng = np.random.default_rng(11)
    patterns = _random_patterns(rng, 2**16 + 7, eb_lo=0, eb_hi=0)
    patterns += [0, SIGN] * 500
    _assert_bins_match_reference(patterns)


@pytest.mark.parametrize("eb", [0, 1, 1023, 2046])
def test_both_signs_at_one_exponent_match_reference(eb):
    rng = np.random.default_rng(eb)
    _assert_bins_match_reference(_random_patterns(rng, 3000, eb_lo=eb, eb_hi=eb))


@pytest.mark.parametrize("pos", [DEPOSIT_CHUNK + 5, 2**16 + 3])
def test_nonfinite_error_names_the_index_in_the_array(pos):
    arr = np.ones(pos + 10)
    arr[pos] = np.nan
    with pytest.raises(NonFiniteInputError, match=f"at index {pos}:"):
        get_kernel("binned").fold(arr)


def test_nan_in_a_later_pass_leaves_bins_unchanged():
    rng = np.random.default_rng(12)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(_as_floats(_random_patterns(rng, 1000)))
    before = (part.bins_lo.copy(), part.bins_hi.copy(), part.values)
    arr = _as_floats(_random_patterns(rng, 3 * 2**16))
    arr[2 * 2**16 + 9] = np.nan
    with pytest.raises(NonFiniteInputError, match=f"at index {2 * 2**16 + 9}:"):
        part.deposit(arr)
    assert (part.bins_lo == before[0]).all()
    assert (part.bins_hi == before[1]).all()
    assert part.values == before[2]


#: SHA-256 of the ``BSUP`` frame of the fixture values plus
#: :func:`_edge_patterns`, produced by the per-exponent deposit before
#: the sign x exponent keys: the bins (and so every frame built from
#: them) must not change.
PINNED_BSUP_SHA256 = "890bd47815d48da30a11ea5d4e46d2227002639dff7219d4f52f177492554b7c"


def test_bsup_frame_is_unchanged():
    k = get_kernel("binned")
    arr = np.concatenate([np.array(_fixture_values()), _as_floats(_edge_patterns())])
    frame = k.to_wire(k.fold(arr))
    assert hashlib.sha256(frame).hexdigest() == PINNED_BSUP_SHA256


# ---------------------------------------------------------------------------
# the value budget under random deposit / merge / wire sequences

#: A full chunk's value: any finite float, or an all-ones mantissa
#: (the largest per-value bin increment) at any exponent.
chunk_values = st.one_of(
    finite_floats,
    st.builds(
        lambda s, eb: float(_as_floats([_pattern(s, eb, MANT_BITS)])[0]),
        st.integers(0, 1),
        st.integers(0, 2046),
    ),
)
deposits = st.one_of(
    st.tuples(st.just("small"), st.lists(finite_floats, min_size=1, max_size=40)),
    st.tuples(st.just("full"), chunk_values),
)
budget_ops = st.lists(
    st.one_of(
        deposits,
        st.tuples(st.just("merge"), st.lists(deposits, min_size=1, max_size=3)),
        st.tuples(st.just("wire"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


def _apply_deposit(part: BinnedPartial, op) -> Fraction:
    """Deposit one drawn op into ``part``; returns its exact value."""
    kind, arg = op
    if kind == "small":
        part.deposit(np.array(arg, dtype=np.float64))
        return _ref(arg)
    part.deposit(np.full(DEPOSIT_CHUNK, arg))
    return Fraction(arg) * DEPOSIT_CHUNK


@given(ops=budget_ops)
@settings(max_examples=25, deadline=None)
def test_value_budget_bounds_bins_across_deposits_merges_and_wire(ops):
    import unittest.mock

    import repro.kernels.binned as binned_mod
    from repro import codec

    k = get_kernel("binned")
    # a 3-chunk budget, so full chunks, merges and wire round trips
    # (which charge whole chunks) all reach it within a few ops
    with unittest.mock.patch.object(binned_mod, "RESOLVE_CHUNKS", 3):
        budget = 3 * DEPOSIT_CHUNK
        part = BinnedPartial(DEFAULT_RADIX)
        want = Fraction(0)
        for kind, arg in ops:
            if kind == "merge":
                other = BinnedPartial(DEFAULT_RADIX)
                for sub in arg:
                    want += _apply_deposit(other, sub)
                part = k.combine(part, other)
            elif kind == "wire":
                frame = k.to_wire(part)
                chunks = codec.decode_binned(frame)[0]
                assert chunks == -(-part.values // DEPOSIT_CHUNK)
                part = k.from_wire(frame)
            else:
                want += _apply_deposit(part, (kind, arg))
            assert 0 <= part.values <= budget
            if part.bins_lo is not None:
                assert int(np.abs(part.bins_lo).max()) <= part.values * (2**32 - 1)
                assert int(np.abs(part.bins_hi).max()) <= part.values * (2**21 - 1)
            codec.decode_binned(k.to_wire(part))
        assert part.to_fraction() == want

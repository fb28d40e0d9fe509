"""Unit tests for streaming exact aggregation."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.errors import EmptyStreamError, ReproError
from repro.kernels.binned import RESOLVE_CHUNKS
from repro.core.rounding import round_fraction
from repro.streaming import (
    DEPOSIT_MIN,
    ExactRunningSum,
    RunningStats,
    SlidingWindowSum,
    exact_cumsum,
)
from tests.conftest import exact_fraction, random_hard_array, ref_mean, ref_sum, ref_var


class TestExactRunningSum:
    def test_mixed_updates(self, rng):
        x = random_hard_array(rng, 500)
        rs = ExactRunningSum()
        for v in x[:100]:
            rs.add(float(v))
        rs.add_array(x[100:])
        assert rs.value() == ref_sum(x)
        assert rs.count == 500

    def test_merge_matches_serial(self, rng):
        x = random_hard_array(rng, 400)
        a = ExactRunningSum()
        a.add_array(x[:250])
        b = ExactRunningSum()
        b.add_array(x[250:])
        a.merge(b)
        assert a.value() == ref_sum(x)
        assert a.count == 400

    def test_checkpoint_roundtrip(self, rng):
        from repro.core.sparse import SparseSuperaccumulator

        x = random_hard_array(rng, 100)
        rs = ExactRunningSum()
        rs.add_array(x)
        state = rs.exact_state().to_bytes()
        back = SparseSuperaccumulator.from_bytes(state)
        assert back.to_float() == rs.value()

    def test_wire_roundtrip_includes_count(self, rng):
        x = random_hard_array(rng, 257)
        rs = ExactRunningSum()
        rs.add_array(x)
        back = ExactRunningSum.from_bytes(rs.to_bytes())
        assert back.value() == rs.value()
        assert back.count == 257
        # restored streams keep accumulating exactly
        back.add_array(x)
        rs.add_array(x)
        assert back.value() == rs.value() and back.count == rs.count

    def test_wire_roundtrip_empty(self):
        back = ExactRunningSum.from_bytes(ExactRunningSum().to_bytes())
        assert back.value() == 0.0 and back.count == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:4],  # truncated header
            lambda b: b"XXXX" + b[4:],  # wrong magic
            lambda b: b[:4] + (-1).to_bytes(8, "little", signed=True) + b[12:],
            lambda b: b[:-3],  # truncated accumulator body
            lambda b: b + b"\x00" * 8,  # oversized body
        ],
    )
    def test_wire_corruption_is_clean_valueerror(self, rng, mutate):
        rs = ExactRunningSum()
        rs.add_array(random_hard_array(rng, 20))
        with pytest.raises(ValueError):
            ExactRunningSum.from_bytes(mutate(rs.to_bytes()))

    def test_empty_value_and_mean(self):
        rs = ExactRunningSum()
        assert rs.value() == 0.0 and rs.count == 0
        with pytest.raises(EmptyStreamError):
            rs.mean()

    def test_mean_exact(self, rng):
        x = random_hard_array(rng, 300, emin=-30, emax=30)
        rs = ExactRunningSum()
        rs.add_array(x)
        assert rs.mean() == ref_mean(x)


FIXTURE_KSTR = Path(__file__).parent / "data" / "running_sum.kstr"


def _fixture_values():
    """The values the checked-in ``KSTR`` fixture was folded from."""
    out = [(-1) ** i * (i + 0.1) * 2.0 ** ((i * 37) % 1200 - 600) for i in range(300)]
    return out + [1e300, -1e300, 2.0**-1074, -2.5e-310, 0.1, 1 / 3, 12345.678]


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so calls are counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestBinnedStreamState:
    """The stream state is exponent bins: writes deposit, reads resolve."""

    @pytest.mark.parametrize("size", [64, 4096])
    def test_writes_never_resolve_carries(self, monkeypatch, rng, size):
        from repro.core.sparse import SparseSuperaccumulator
        from repro.kernels import get_kernel
        from repro.kernels.binned import BinnedPartial

        kernel = get_kernel("running")
        stream = kernel.new_stream()
        batches = [random_hard_array(rng, size) for _ in range(40)]
        resolves = _counting(monkeypatch, BinnedPartial, "to_sparse")
        builds = _counting(monkeypatch, SparseSuperaccumulator, "from_floats")
        for batch in batches:
            kernel.fold_into(stream, batch)
        assert resolves[0] == 0 and builds[0] == 0
        assert stream.value() == math.fsum(np.concatenate(batches))
        assert resolves[0] == 1 and builds[0] == 0

    @pytest.mark.parametrize("size", [64, 4096])  # staged, deposited
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_write_leaves_stream_unchanged(self, rng, size, bad):
        rs = ExactRunningSum()
        x = random_hard_array(rng, 100)
        rs.add_array(x)
        rejected = random_hard_array(rng, size)
        rejected[-1] = bad
        with pytest.raises(ReproError, match="non-finite"):
            rs.add_array(rejected)
        assert (rs.value(), rs.count) == (ref_sum(x), 100)
        more = random_hard_array(rng, 5000)  # flushes the stage
        rs.add_array(more)
        assert (rs.value(), rs.count) == (ref_sum(np.concatenate([x, more])), 5100)

    def test_no_bins_before_the_first_deposit(self):
        rs = ExactRunningSum()
        assert rs._part.bins_lo is None
        rs.add_array(np.ones(DEPOSIT_MIN - 1))
        assert rs._part.bins_lo is None
        rs.add(1.0)
        assert rs._part.bins_lo is not None
        assert rs.value() == float(DEPOSIT_MIN)

    @staticmethod
    def _extreme_batch():
        # Full 53-bit mantissas at a few exponents (normal and the
        # largest subnormal): every deposit adds the most a value can.
        top = np.nextafter(2.0, 0.0)
        scales = [2.0**-1022, 1.0, 2.0**600, -(2.0**300)]
        batch = np.array([top * scales[i % 4] for i in range(DEPOSIT_MIN)])
        batch[::64] = np.nextafter(2.0**-1022, 0.0)
        return batch

    @pytest.fixture
    def write_sized_chunks(self, monkeypatch):
        # The budget counts values: with one write per deposit chunk it
        # is RESOLVE_CHUNKS writes, so these streams pass it.
        import repro.kernels.binned as binned_mod

        monkeypatch.setattr(binned_mod, "DEPOSIT_CHUNK", DEPOSIT_MIN)

    def test_deposits_past_the_carry_budget_stay_exact(self, write_sized_chunks):
        batch = self._extreme_batch()
        rounds = RESOLVE_CHUNKS + 9
        rs = ExactRunningSum()
        for _ in range(rounds):
            rs.add_array(batch)
        assert rs._part.spill.active_count > 0  # the budget resolved
        want = rounds * exact_fraction(batch)
        assert rs.exact_fraction() == want
        assert rs.value() == round_fraction(want)
        assert rs.count == rounds * batch.size

    def test_merges_past_the_carry_budget_stay_exact(self, write_sized_chunks):
        batch = self._extreme_batch()
        shards = []
        for _ in range(3):
            shard = ExactRunningSum()
            for _ in range(RESOLVE_CHUNKS // 2 + 5):
                shard.add_array(batch)
            assert shard._part.spill.active_count == 0
            shards.append(shard)
        merged = ExactRunningSum()
        for shard in shards:
            merged.merge(shard)
        assert merged._part.spill.active_count > 0  # a merge resolved
        want = 3 * (RESOLVE_CHUNKS // 2 + 5) * exact_fraction(batch)
        assert merged.exact_fraction() == want
        assert merged.value() == round_fraction(want)

    def test_wide_radix_matches_default(self, rng):
        from repro.core.digits import DEFAULT_RADIX, RadixConfig

        wide = RadixConfig(w=40)
        assert not wide.supports_vectorized
        x = random_hard_array(rng, 3 * DEPOSIT_MIN)
        streams = []
        for radix in (DEFAULT_RADIX, wide):
            rs = ExactRunningSum(radix)
            rs.add_array(x[:DEPOSIT_MIN + 7])
            for v in x[DEPOSIT_MIN + 7 : DEPOSIT_MIN + 40]:
                rs.add(float(v))
            other = ExactRunningSum(radix)
            other.add_array(x[DEPOSIT_MIN + 40 :])
            rs.merge(other)
            back = ExactRunningSum.from_bytes(rs.to_bytes(), radix)
            streams.append((rs.exact_fraction(), back.value(), back.count))
        assert streams[0] == streams[1]
        assert streams[0][1] == ref_sum(x) and streams[0][2] == x.size

    def test_merge_leaves_the_other_stream_unchanged(self, rng):
        x = random_hard_array(rng, DEPOSIT_MIN + 300)
        other = ExactRunningSum()
        other.add_array(x[:DEPOSIT_MIN])
        other.add_array(x[DEPOSIT_MIN:])
        before = (other.exact_fraction(), other.value(), other.count)
        rs = ExactRunningSum()
        rs.add_array(x[:50])
        rs.merge(other)
        rs.add_array(x)
        rs.merge(other)
        assert (other.exact_fraction(), other.value(), other.count) == before
        assert rs.exact_fraction() == exact_fraction(x[:50]) + 3 * before[0]

    def test_snapshot_written_before_bins_still_loads(self):
        values = _fixture_values()
        blob = FIXTURE_KSTR.read_bytes()
        rs = ExactRunningSum.from_bytes(blob)
        assert rs.count == len(values) == 307
        assert rs.value().hex() == "-0x1.bc43a0535e609p+606"
        assert rs.exact_fraction() == sum(map(Fraction, values), Fraction(0))
        assert rs.to_bytes() == blob


class TestSlidingWindow:
    def test_window_matches_brute_force(self, rng):
        x = random_hard_array(rng, 300, emin=-40, emax=40)
        win = SlidingWindowSum(17)
        for i, v in enumerate(x):
            got = win.push(float(v))
            lo = max(0, i - 16)
            assert got == ref_sum(x[lo : i + 1]), i

    def test_no_drift_after_many_updates(self, rng):
        # the float ring-buffer failure: repeated add/subtract drifts
        win = SlidingWindowSum(4)
        drift_values = [1e16, 1.0, -1e16, 2.0] * 500
        for v in drift_values:
            win.push(v)
        assert win.value() == ref_sum(drift_values[-4:])

    def test_partial_window(self):
        win = SlidingWindowSum(10)
        win.push(1.5)
        win.push(2.5)
        assert win.value() == 4.0 and len(win) == 2

    def test_bad_window(self):
        with pytest.raises(ValueError):
            SlidingWindowSum(0)

    def test_empty_window_value_defined(self):
        # pinned: an untouched window reads as exactly 0.0, any mode
        win = SlidingWindowSum(5)
        assert len(win) == 0
        for mode in ("nearest", "down", "up", "zero"):
            assert win.value(mode) == 0.0


class TestRunningStats:
    def test_matches_batch_stats(self, rng):
        x = random_hard_array(rng, 300, emin=-20, emax=20)
        st = RunningStats()
        st.add_array(x[:120])
        st.add_array(x[120:])
        assert st.count == 300
        assert st.sum() == ref_sum(x)
        assert st.mean() == ref_mean(x)
        assert st.variance() == ref_var(x)
        assert st.variance(ddof=1) == ref_var(x, ddof=1)

    def test_merge_bit_identical_to_serial(self, rng):
        x = random_hard_array(rng, 400, emin=-20, emax=20)
        serial = RunningStats()
        serial.add_array(x)
        shards = [RunningStats() for _ in range(4)]
        for shard, chunk in zip(shards, np.array_split(x, 4)):
            shard.add_array(chunk)
        merged = shards[0]
        for s in shards[1:]:
            merged.merge(s)
        assert merged.mean() == serial.mean()
        assert merged.variance() == serial.variance()

    def test_offset_variance(self):
        st = RunningStats()
        st.add_array(np.array([1e8 + 1, 1e8 + 2, 1e8 + 3, 1e8 + 4]))
        assert st.variance() == 1.25

    def test_empty_guards(self):
        st = RunningStats()
        # pinned: empty-state queries are a clean ReproError (which is
        # also a ValueError, keeping pre-existing callers working)
        with pytest.raises(EmptyStreamError):
            st.mean()
        with pytest.raises(EmptyStreamError):
            st.variance()
        assert issubclass(EmptyStreamError, ReproError)
        assert issubclass(EmptyStreamError, ValueError)
        assert st.sum() == 0.0 and st.count == 0  # sums stay defined

    def test_variance_insufficient_ddof(self):
        st = RunningStats()
        st.add_array(np.array([1.0]))
        with pytest.raises(EmptyStreamError):
            st.variance(ddof=1)
        assert st.variance(ddof=0) == 0.0


class TestExactCumsum:
    def test_every_prefix_correct(self, rng):
        x = random_hard_array(rng, 120)
        out = exact_cumsum(x)
        for i in range(x.size):
            assert out[i] == ref_sum(x[: i + 1]), i

    def test_differs_from_numpy_on_hard_input(self):
        x = np.array([1e16, 1.0, -1e16, 1.0])
        ours = exact_cumsum(x)
        assert ours[3] == 2.0
        assert float(np.cumsum(x)[3]) != 2.0  # numpy lost the 1.0

    def test_empty(self):
        assert exact_cumsum([]).size == 0

    def test_directed(self, rng):
        x = random_hard_array(rng, 40)
        lo = exact_cumsum(x, mode="down")
        hi = exact_cumsum(x, mode="up")
        for i in range(x.size):
            exact = exact_fraction(x[: i + 1])
            assert Fraction(lo[i]) <= exact <= Fraction(hi[i])

"""Streaming exact aggregation: running sums, sliding windows, cumsums.

Superaccumulator addition is exact and signed, so *removal* is just
adding the negation — which makes exact sliding windows and running
statistics trivial to build and impossible to build from compensated
methods (whose corrections don't subtract). Everything here maintains
exact internal state and rounds only at query time, so query results
are correctly rounded and independent of the update order that
produced the state.

Streams accept ``method="adaptive"`` to route reads through the
condition-adaptive tier ladder (:mod:`repro.adaptive`): folds stay
exact — a stateful stream can never un-fold a speculated value — but
queries on still-pending data take the certified Tier-0/1 fast path,
and every tier decision lands in the stream's
:attr:`~ExactRunningSum.tier_counters` telemetry.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Optional

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import EmptyStreamError, NonFiniteInputError
from repro.stats import round_fraction
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["ExactRunningSum", "SlidingWindowSum", "RunningStats", "exact_cumsum"]

#: Accepted fold-routing methods for streaming state.
_STREAM_METHODS = ("exact", "adaptive")


#: Deferred-fold buffer cap (elements). Batches are staged here and
#: folded in one bulk ``from_floats`` + single merge instead of one
#: merge per call — the same microbatching win the serving plane gets,
#: now built into the stream itself.
_PENDING_CAP = 1 << 16


def _check_stream_method(method: str) -> str:
    if method not in _STREAM_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_STREAM_METHODS}"
        )
    return method


class ExactRunningSum:
    """Append-only exact running total with O(sigma) state.

    ``add``/``add_array`` fold values in exactly; ``value()`` rounds the
    exact total on demand. ``merge`` combines two independent streams
    (the MapReduce/allreduce building block at the user API level).

    Updates are staged in a pending buffer and folded lazily — one bulk
    accumulator build + one merge per ~``2**16`` staged elements, or on
    any read (``value``/``mean``/``merge``/``exact_state``/
    ``to_bytes``). Validation and ``count`` stay eager, so error
    behaviour and observable state are unchanged; only the fold cost
    moves. Exactness is unaffected: superaccumulator addition is
    associative, so fold timing can never change a single bit.

    With ``method="adaptive"``, reads over purely pending data go
    through the certified tier ladder (bit-identical, often much
    cheaper), bulk folds are tallied, and :attr:`tier_counters` exposes
    the decisions.
    """

    def __init__(
        self, radix: RadixConfig = DEFAULT_RADIX, *, method: str = "exact"
    ) -> None:
        self.method = _check_stream_method(method)
        self._acc = SparseSuperaccumulator.zero(radix)
        self.count = 0
        self._pending_scalars: list = []
        self._pending_arrays: list = []
        self._pending_items = 0
        self._counters: Optional[object] = None
        if self.method == "adaptive":
            from repro.adaptive import TierCounters

            self._counters = TierCounters()

    @property
    def tier_counters(self):
        """Tier telemetry (``None`` unless ``method="adaptive"``)."""
        return self._counters

    def add(self, x: float) -> None:
        """Fold one value in exactly."""
        x = float(x)
        if not math.isfinite(x):
            raise NonFiniteInputError(f"cannot add non-finite value {x!r}")
        self._pending_scalars.append(x)
        self._pending_items += 1
        self.count += 1
        if self._pending_items >= _PENDING_CAP:
            self._flush()

    def add_array(self, values: Iterable[float]) -> None:
        """Fold a batch in exactly (vectorized)."""
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        if arr.size:
            if arr is values:
                # The stage holds a reference until the next flush; a
                # caller-owned buffer must be snapshotted so later
                # mutation cannot corrupt the deferred fold.
                arr = arr.copy()
            self._pending_arrays.append(arr)
            self._pending_items += int(arr.size)
            self.count += int(arr.size)
            if self._pending_items >= _PENDING_CAP:
                self._flush()

    def _pending_merged(self) -> Optional[np.ndarray]:
        if self._pending_items == 0:
            return None
        parts = list(self._pending_arrays)
        if self._pending_scalars:
            parts.append(np.array(self._pending_scalars, dtype=np.float64))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _flush(self) -> None:
        merged = self._pending_merged()
        if merged is None:
            return
        self._acc = self._acc.add(
            SparseSuperaccumulator.from_floats(merged, self._acc.radix)
        )
        self._pending_scalars = []
        self._pending_arrays = []
        self._pending_items = 0
        if self._counters is not None:
            self._counters.record_bulk_fold()

    def merge(self, other: "ExactRunningSum") -> None:
        """Absorb another stream's exact state."""
        self._flush()
        other._flush()
        self._acc = self._acc.add(other._acc)
        self.count += other.count

    def absorb_exact(self, acc: SparseSuperaccumulator, count: int) -> None:
        """Fold an already-exact accumulator (plus its observation count).

        The bulk-ingest seam: a caller that built an exact partial by a
        faster route (the vectorized binned deposit on the serve-shard
        path) lands it here without a second fold. Exactness makes this
        safe — superaccumulator addition is associative and exact, so
        the stream's readable state is bit-identical to having folded
        the original values directly.
        """
        if count < 0:
            raise ValueError(f"absorbed count must be >= 0, got {count}")
        if acc.radix != self._acc.radix:
            raise ValueError(
                f"radix mismatch: partial w={acc.radix.w}, "
                f"stream w={self._acc.radix.w}"
            )
        self._acc = self._acc.add(acc)
        self.count += int(count)

    def value(self, mode: str = "nearest") -> float:
        """Correctly rounded current total (0.0 for an empty stream)."""
        if (
            self._counters is not None
            and mode == "nearest"
            and self._acc.is_zero()
        ):
            merged = self._pending_merged()
            if merged is not None:
                # Certified read over still-pending data: bit-identical
                # to flush-then-round (the ladder proves it), usually a
                # single cascade pass instead of an accumulator build.
                # Pending stays staged so later adds keep batching.
                from repro.adaptive import adaptive_sum_detail

                result = adaptive_sum_detail(merged, radix=self._acc.radix)
                self._counters.record(result)
                return result.value
        self._flush()
        return self._acc.to_float(mode)

    def mean(self) -> float:
        """Correctly rounded mean of the stream so far.

        Raises:
            EmptyStreamError: if nothing has been added yet.
        """
        if self.count == 0:
            raise EmptyStreamError("mean of empty running sum")
        return round_fraction(self.exact_fraction() / self.count)

    def exact_fraction(self):
        """The exact total as a :class:`fractions.Fraction`."""
        self._flush()
        return self._acc.to_fraction()

    def exact_state(self) -> SparseSuperaccumulator:
        """The exact accumulator (copy) for checkpointing/transport."""
        self._flush()
        return self._acc.copy()

    def to_bytes(self) -> bytes:
        """Serialize exact state **and** count (service snapshot format).

        The generic ``KSTR`` kernel-stream frame
        (:func:`repro.codec.encode_stream`): magic + int64 count, then
        the embedded ``SSUP`` accumulator frame — one wire format shared
        by service snapshots, streaming checkpoints, and every kernel's
        stream.
        """
        self._flush()
        from repro import codec

        return codec.encode_stream(self.count, codec.encode_sparse(self._acc))

    @classmethod
    def from_bytes(
        cls,
        payload: bytes,
        radix: RadixConfig = DEFAULT_RADIX,
        *,
        method: str = "exact",
    ) -> "ExactRunningSum":
        """Inverse of :meth:`to_bytes`.

        Raises:
            CodecError: on malformed payloads (wrong magic, negative
                count, or a corrupt embedded accumulator); snapshots
                cross process boundaries, so corruption surfaces as a
                clean ``ValueError`` subclass.
            ValueError: on a radix mismatch with the requesting caller.
        """
        from repro import codec

        count, inner = codec.decode_stream(payload)
        acc = codec.decode_sparse(inner)
        if acc.radix != radix:
            raise ValueError(
                f"radix mismatch: payload w={acc.radix.w}, expected w={radix.w}"
            )
        out = cls(radix, method=method)
        out._acc = acc
        out.count = int(count)
        return out


class SlidingWindowSum:
    """Exact sum over the last ``window`` values of a stream.

    Eviction subtracts the departing value exactly (adds its negation),
    so the window total never accumulates drift — the failure mode of
    the classic float ring-buffer subtract-on-evict, which decays after
    millions of updates.
    """

    def __init__(self, window: int, radix: RadixConfig = DEFAULT_RADIX) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._buf: Deque[float] = deque()
        self._acc = SparseSuperaccumulator.zero(radix)

    def push(self, x: float) -> float:
        """Insert ``x``, evict if full; return the rounded window sum."""
        x = float(x)
        self._acc = self._acc.add_float(x)
        self._buf.append(x)
        if len(self._buf) > self.window:
            gone = self._buf.popleft()
            self._acc = self._acc.add_float(-gone)
        return self._acc.to_float()

    def __len__(self) -> int:
        return len(self._buf)

    def value(self, mode: str = "nearest") -> float:
        """Correctly rounded sum of the current window contents."""
        return self._acc.to_float(mode)


class RunningStats:
    """Exact streaming count/mean/variance (a reproducible Welford).

    Keeps the exact sum and the exact sum of squares so ``mean()`` and
    ``variance()`` are correctly rounded at any point in the stream;
    ``merge`` combines shards exactly, so distributed statistics come
    out bit-identical to a serial pass.

    The square path is the same expansion ingest every other plane
    uses: in-band magnitudes go through the vectorized TwoSquare EFT
    (:func:`repro.core.eft.two_square_vec` — the ``norm2``/``var``
    reduction ops' expansion, folded directly as float terms), and only
    magnitudes outside the error-free band
    (:func:`repro.reduce.ops.square_domain_mask`) fall back to exact
    integer squaring. Both routes land the identical exact rational in
    the accumulator, so the rounded reads cannot tell them apart.

    The value sum is held as an :class:`ExactRunningSum`, so
    ``method="adaptive"`` gives ``sum()`` the same certified read fast
    path and exposes :attr:`tier_counters`.
    """

    def __init__(
        self, radix: RadixConfig = DEFAULT_RADIX, *, method: str = "exact"
    ) -> None:
        self._radix = radix
        self.method = _check_stream_method(method)
        self._n = 0
        self._sum = ExactRunningSum(radix, method=method)
        self._sum_sq = SparseSuperaccumulator.zero(radix)

    @property
    def tier_counters(self):
        """Tier telemetry (``None`` unless ``method="adaptive"``)."""
        return self._sum.tier_counters

    def add_array(self, values: Iterable[float]) -> None:
        """Fold a batch in exactly."""
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        if arr.size == 0:
            return
        self._n += int(arr.size)
        self._sum.add_array(arr)
        from repro.reduce.ops import square_domain_mask

        safe = square_domain_mask(arr)
        in_band = arr if safe.all() else arr[safe]
        if in_band.size:
            # Error-free squares: x^2 = p + e exactly. The terms are
            # plain floats, so they fold through the ordinary bulk
            # deposit — no rational arithmetic on the hot path.
            from repro.core.eft import two_square_vec

            p, e = two_square_vec(in_band)
            self._sum_sq = self._sum_sq.add(
                SparseSuperaccumulator.from_floats(
                    np.concatenate([p, e]), self._radix
                )
            )
        if not safe.all():
            # Out-of-band magnitudes (square would under/overflow):
            # exact integer squaring, folded as one dyadic rational.
            from fractions import Fraction

            from repro.core.apfloat import APFloat, split_apfloat
            from repro.core.fpinfo import decompose

            sq = Fraction(0)
            for v in arr[~safe]:
                m, ex = decompose(float(v))
                sq += Fraction(m * m) * Fraction(2) ** (2 * ex)
            num, den = sq.numerator, sq.denominator
            shift = -(den.bit_length() - 1)
            pairs = split_apfloat(APFloat(num, shift), self._radix)
            if pairs:
                idx = np.array([j for j, _ in pairs], dtype=np.int64)
                dig = np.array([d for _, d in pairs], dtype=np.int64)
                self._sum_sq = self._sum_sq.add(
                    SparseSuperaccumulator(self._radix, idx, dig, _validated=True)
                )

    def merge(self, other: "RunningStats") -> None:
        """Absorb another shard's exact state."""
        self._n += other._n
        self._sum.merge(other._sum)
        self._sum_sq = self._sum_sq.add(other._sum_sq)

    @property
    def count(self) -> int:
        return self._n

    def sum(self, mode: str = "nearest") -> float:
        """Correctly rounded running sum."""
        return self._sum.value(mode)

    def mean(self) -> float:
        """Correctly rounded running mean.

        Raises:
            EmptyStreamError: if nothing has been added yet.
        """
        if self._n == 0:
            raise EmptyStreamError("mean of empty stream")
        return round_fraction(self._sum.exact_fraction() / self._n)

    def variance(self, ddof: int = 0) -> float:
        """Correctly rounded running variance.

        Raises:
            EmptyStreamError: with fewer than ``ddof + 1`` observations.
        """
        if self._n - ddof <= 0:
            raise EmptyStreamError("need more observations than ddof")
        s = self._sum.exact_fraction()
        ss = self._sum_sq.to_fraction()
        return round_fraction((ss - s * s / self._n) / (self._n - ddof))


def exact_cumsum(
    values: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> np.ndarray:
    """Prefix sums with **every** prefix correctly rounded.

    ``out[i]`` is the correctly rounded value of ``x[0] + ... + x[i]``
    exactly — unlike ``np.cumsum``, whose later prefixes carry the
    accumulated rounding of earlier ones. O(n * sigma) work.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    out = np.empty(arr.size, dtype=np.float64)
    acc = SparseSuperaccumulator.zero(radix)
    for i, x in enumerate(arr):
        acc = acc.add_float(float(x))
        out[i] = acc.to_float(mode)
    return out

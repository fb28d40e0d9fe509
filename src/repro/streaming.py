"""Streaming exact aggregation: running sums, sliding windows, cumsums.

Superaccumulator addition is exact and signed, so *removal* is just
adding the negation — which makes exact sliding windows and running
statistics trivial to build and impossible to build from compensated
methods (whose corrections don't subtract). Everything here maintains
exact internal state and rounds only at query time, so query results
are correctly rounded and independent of the update order that
produced the state.

A running sum's state is a set of exponent bins
(:class:`~repro.kernels.binned.BinnedPartial`): a write deposits its
mantissas into the bins and does nothing else. Carries are resolved
only when the state is read or exported (``value``, ``exact_fraction``,
``exact_state``, ``to_bytes``) or when the bins have absorbed their
budget of ``2**30`` values since the last resolution — the
deferred-carry shape of Neal's small superaccumulator, which
propagates carries after a fixed number of added terms. The budget
counts values, not writes, so small writes resolve no more often than
large ones.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Deque, Iterable, Optional, Union

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.rounding import round_fraction
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import EmptyStreamError, NonFiniteInputError
from repro.kernels.binned import BinnedPartial
from repro.reduce.ops import VarOp
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["ExactRunningSum", "SlidingWindowSum", "RunningStats", "exact_cumsum"]

#: Smallest write deposited straight from the caller's array. Smaller
#: writes are staged and deposited together once this many values are
#: staged: below it, a deposit's fixed cost (two 4096-key bincounts and
#: the per-key finish) outweighs the vectorized per-value work.
DEPOSIT_MIN = 2048

#: The expansion and finish behind :class:`RunningStats`.
_VAR = VarOp()


class ExactRunningSum:
    """Append-only exact running total whose state is exponent bins.

    ``add``/``add_array`` fold values in exactly; ``value()`` rounds the
    exact total on demand. ``merge`` combines two independent streams
    (the MapReduce/allreduce building block at the user API level).

    A write only deposits: arrays of at least :data:`DEPOSIT_MIN`
    values go straight into the stream's
    :class:`~repro.kernels.binned.BinnedPartial`, smaller ones are
    staged and deposited together. Carries resolve when the state is
    read or exported, or when the bins' value budget
    (``RESOLVE_CHUNKS * DEPOSIT_CHUNK`` values) runs out. Validation
    and ``count`` stay eager, so error behaviour and observable state
    do not depend on when values reach the bins.
    Exactness is unaffected: the bins hold the exact total, so deposit
    and resolution timing can never change a single bit. No bins are
    allocated until the first deposit.
    """

    def __init__(self, radix: RadixConfig = DEFAULT_RADIX) -> None:
        self._part = BinnedPartial(radix)
        self.count = 0
        self._pending_scalars: list = []
        self._pending_arrays: list = []
        self._pending_items = 0

    def add(self, x: float) -> None:
        """Fold one value in exactly."""
        x = float(x)
        if not math.isfinite(x):
            raise NonFiniteInputError(f"cannot add non-finite value {x!r}")
        self._pending_scalars.append(x)
        self._pending_items += 1
        self.count += 1
        if self._pending_items >= DEPOSIT_MIN:
            self._flush()

    def add_array(self, values: Iterable[float]) -> None:
        """Fold a batch in exactly (vectorized)."""
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        self.add_finite(arr)

    def add_finite(self, arr: np.ndarray) -> None:
        """:meth:`add_array` for a float64 array the caller has already
        checked finite: the same fold without a second scan. A
        non-finite value here may corrupt the stream, so only validated
        arrays belong here (serve shards fold what the service checked).
        """
        if arr.size >= DEPOSIT_MIN:
            self._part.deposit(arr)
        elif arr.size:
            # The stage holds the array until the next deposit; a
            # snapshot keeps later mutation of the caller's buffer from
            # corrupting the deferred fold.
            self._pending_arrays.append(arr.copy())
            self._pending_items += int(arr.size)
            if self._pending_items >= DEPOSIT_MIN:
                self._flush()
        self.count += int(arr.size)

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
        self._pending_scalars = []
        self._pending_arrays = []
        self._pending_items = 0
        self._part.deposit(merged)

    def merge(self, other: "ExactRunningSum") -> None:
        """Absorb another stream's exact state (``other`` keeps its value)."""
        other._flush()
        self.absorb_exact(other._part, other.count)

    def absorb_exact(
        self, acc: Union[BinnedPartial, SparseSuperaccumulator], count: int
    ) -> None:
        """Fold an already-exact partial (plus its observation count).

        The merge seam: ``merge`` and ``from_bytes`` land exact partials
        here without a second fold. A :class:`BinnedPartial` adds its
        bins carry-free (resolving first only if the two value counts
        together would pass the budget); a sparse accumulator adds to the bins'
        spill. ``acc`` is never modified. Exactness makes this safe —
        both adds are exact, so the stream's readable state is
        bit-identical to having folded the original values directly.
        """
        if count < 0:
            raise ValueError(f"absorbed count must be >= 0, got {count}")
        if acc.radix != self._part.radix:
            raise ValueError(
                f"radix mismatch: partial w={acc.radix.w}, "
                f"stream w={self._part.radix.w}"
            )
        if isinstance(acc, BinnedPartial):
            self._part.merge(acc)
        else:
            self._part.spill = self._part.spill.add(acc)
        self.count += int(count)

    def value(self, mode: str = "nearest") -> float:
        """Correctly rounded current total (0.0 for an empty stream)."""
        return self._resolved().to_float(mode)

    def _resolved(self) -> SparseSuperaccumulator:
        """The exact total with every carry resolved (state untouched)."""
        self._flush()
        return self._part.to_sparse()

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
        return self._resolved().to_fraction()

    def exact_state(self) -> SparseSuperaccumulator:
        """The exact accumulator (copy) for checkpointing/transport."""
        return self._resolved().copy()

    def to_bytes(self) -> bytes:
        """Serialize exact state **and** count (service snapshot format).

        The generic ``KSTR`` kernel-stream frame
        (:func:`repro.codec.encode_stream`): magic + int64 count, then
        the embedded ``SSUP`` accumulator frame of the resolved total —
        one wire format shared by service snapshots, streaming
        checkpoints, and every kernel's stream.
        """
        from repro import codec

        return codec.encode_stream(self.count, codec.encode_sparse(self._resolved()))

    @classmethod
    def from_bytes(
        cls,
        payload: bytes,
        radix: RadixConfig = DEFAULT_RADIX,
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
        out = cls(radix)
        out.absorb_exact(codec.decode_sparse(inner), int(count))
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

    A write runs the ``var`` reduction op's expansion
    (:meth:`~repro.reduce.ops.VarOp.expand_exact`), the one every local
    plane runs: in-band squares become TwoSquare float terms, deposited
    into a second :class:`ExactRunningSum` like any write; squares
    outside the error-free band come back as an exact rational, kept
    beside it. ``variance()`` adds the two in the op's own finish, so
    it cannot tell the two routes apart.
    """

    def __init__(self, radix: RadixConfig = DEFAULT_RADIX) -> None:
        self._n = 0
        self._sum = ExactRunningSum(radix)
        self._sum_sq = ExactRunningSum(radix)
        self._sq_rest = Fraction(0)

    def add_array(self, values: Iterable[float]) -> None:
        """Fold a batch in exactly."""
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        if arr.size == 0:
            return
        (_, squares), rest = _VAR.expand_exact(arr)
        self._n += int(arr.size)
        self._sum.add_finite(arr)
        self._sum_sq.add_finite(squares)
        if rest is not None:
            self._sq_rest += rest[1]

    def merge(self, other: "RunningStats") -> None:
        """Absorb another shard's exact state."""
        self._n += other._n
        self._sum.merge(other._sum)
        self._sum_sq.merge(other._sum_sq)
        self._sq_rest += other._sq_rest

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
            ValueError: ``ddof`` is not a non-negative integer.
            EmptyStreamError: with fewer than ``ddof + 1`` observations.
        """
        op = VarOp(ddof)
        fracs = [
            self._sum.exact_fraction(),
            self._sum_sq.exact_fraction() + self._sq_rest,
        ]
        return op.finish_exact(fracs, self._n, "nearest")


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

"""Exponent-binned superaccumulator kernel (vectorized Neal-style fold).

The sparse superaccumulator's bulk fold pays for generality: every
float is split into radix digits, scatter-added, and renormalized.
Neal's *small superaccumulator* observation (arXiv:1505.05571) is that
binary64 only has 2046 distinct finite exponent values, so a fold can
instead deposit each mantissa into a per-exponent integer bin — no
digit split at all — and defer every carry until one bounded
resolution pass. detfp's ``if64Sum`` uses the same shape with
per-thread bins merged carry-free at the end.

This module is the fully vectorized form of that fold. A deposit keys
each float by its top 12 bits — sign and biased exponent, one key per
(sign, exponent) pair as in Neal's *large* superaccumulator — splits
it into two float parts and makes two float64-weighted
``np.bincount`` passes over a chunk:

* ``x_hi`` is ``x`` with its low 32 mantissa bits cleared; its per-key
  sum is taken of ``x_hi * 2**-32``;
* ``x_lo = x - x_hi`` is the cleared bits themselves.

Both parts, the subtraction and the ``2**-32`` scaling are exact for
every finite ``x`` (``x_hi * 2**-32`` is still a multiple of
``2**-1074``). Within one key every addend has the same sign and is an
integer multiple of the key's unit ``2**e``, ``e = max(eb, 1) - 1075``:
the multiplier is below ``2**32`` for the low part and below ``2**21``
for the scaled high part (hidden bit included — it is part of the
float's value, so subnormals simply lack it). A chunk holds at most
:data:`DEPOSIT_CHUNK` ``= 2**20`` values, so every running per-key
sum is an integer below ``2**53`` times ``2**e``: exactly representable,
and below ``2**1023`` even at the top exponent, so nothing overflows.

Only the 4096-entry per-key sums then see any arithmetic: the two sign
halves of each exponent add (exact, same unit), two power-of-two
multiplies scale each sum by ``2**-e`` (exact), and the result casts to
int64 — the integer sums of the low 32 mantissa bits and of the high
20 plus the hidden bit. Exponent 0 (subnormals and zeros) folds into
bin 1, which has the same unit. A chunk moves a low bin by less than
``2**52`` and a high bin by less than ``2**41`` — the per-chunk bounds
:func:`repro.codec.decode_binned` checks (``chunks << 52`` /
``chunks << 41``). ±inf and NaN are the only values keyed at exponent
``0x7FF``; they leave a non-zero sum there, and the chunk raises
before any bin changes.

Carries are *deferred*: bins absorb up to ``RESOLVE_CHUNKS *
DEPOSIT_CHUNK = 2**30`` deposited values, however they arrive — one
value moves a low bin by less than ``2**32`` and a high bin by less
than ``2**21``, so ``|bins_lo| < values * 2**32 <= 2**62`` and
``|bins_hi| < values * 2**21``, inside int64 — before one vectorized
resolution converts them into a sparse superaccumulator spill via
:func:`~repro.core.digits.split_scaled_ints_vec`; rounding reuses the
exact carry-propagate round of
:class:`~repro.core.sparse.SparseSuperaccumulator`.

Bin ``b`` (the biased exponent, with subnormals and zeros sharing bin
1 — no hidden bit there) holds integer mantissa units worth
``2**(b + BIN_EXP_OFFSET)`` each: a finite float with biased exponent
``eb`` equals ``±m * 2**(eb - 1075)`` (``m`` including the hidden
bit), and a subnormal equals ``±m * 2**(1 - 1075)``.

The partial (:class:`BinnedPartial`) = bins + value budget + sparse
spill, merged carry-free (bins add componentwise, spills merge via the
paper's Lemma 1 add), so the kernel serves every execution plane like
any other registered kernel. It is also the state of every
:class:`~repro.streaming.ExactRunningSum` (and so of every serve
stream): a write deposits into the stream's bins and nothing else, and
carries resolve only on a read or an export (``to_sparse``) or when
the value budget runs out. Charging values, not deposit calls, is
Neal's rule (carries propagate after a fixed number of added terms):
a stream fed small writes resolves no more often than one fed full
chunks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from repro import codec
from repro.core.digits import RadixConfig, split_scaled_ints_vec
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import NonFiniteInputError
from repro.kernels.base import SumKernel, register_kernel
from repro.util.validation import ensure_float64_array

__all__ = [
    "BIN_COUNT",
    "BIN_EXP_OFFSET",
    "RESOLVE_CHUNKS",
    "DEPOSIT_CHUNK",
    "BinnedPartial",
    "BinnedKernel",
]

#: Bin array length: biased exponents 0..2046 are finite (2047 is
#: inf/NaN); bin 0 is never used (subnormals share bin 1, where the
#: scale matches because they carry no hidden bit).
BIN_COUNT = 2047

#: Bin ``b`` holds mantissa units of ``2**(b + BIN_EXP_OFFSET)``:
#: a normal float is ``±m * 2**(eb - 1023 - 52)``.
BIN_EXP_OFFSET = -1075

#: Deferred-carry budget in full deposit chunks: bins absorb up to
#: ``RESOLVE_CHUNKS * DEPOSIT_CHUNK = 2**30`` values between
#: resolutions. One value adds less than ``2**32`` to a low bin, so
#: ``|bin| < 2**30 * 2**32 = 2**62`` — still inside int64. A deposit
#: or merge that would pass the budget first resolves the bins into
#: the sparse spill (one vectorized pass) and restarts it. The BSUP
#: frame carries the budget used as whole chunks.
RESOLVE_CHUNKS = 1 << 10

#: Elements per deposit chunk. Bounds the per-key float64 bincount
#: sums in units of the key's exponent: low parts < ``2**20 * 2**32 =
#: 2**52``, scaled high parts < ``2**20 * 2**21 = 2**41`` — both exact
#: in float64. After the sign halves add, a chunk moves a low bin by
#: < ``2**52`` and a high bin by < ``2**41``, the bounds
#: ``codec.decode_binned`` checks per chunk.
DEPOSIT_CHUNK = 1 << 20

#: Deposit keys: the top 12 bits of a float (sign, biased exponent).
_KEYS = 1 << 12
_SIGN_KEY = 1 << 11
_EXP_MASK = 0x7FF
#: Clears a float's low 32 mantissa bits, leaving its high part.
_HIGH_BITS = np.int64(~0xFFFFFFFF)
#: Values per bincount pass inside a chunk: keeps the pass's
#: temporaries in cache.
_SUB_BLOCK = 1 << 16
#: ``2**-e`` per non-negative key, e = max(eb, 1) - 1075, as two
#: power-of-two factors (``2**1074`` is not a float): scaling a per-key
#: sum by both turns it into an integer count of mantissa units exactly.
_NEG_E = 1075 - np.maximum(np.arange(_SIGN_KEY), 1)
_UNIT_SCALES = (np.ldexp(1.0, _NEG_E // 2), np.ldexp(1.0, _NEG_E - _NEG_E // 2))


def _key_sums(bits: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-key float sums of the low and (scaled by 2**-32) high parts."""
    key = (bits.view(np.uint64) >> np.uint64(52)).view(np.int64)
    hi = (bits & _HIGH_BITS).view(np.float64)
    lo = x - hi
    hi *= 2.0**-32
    return np.bincount(key, weights=lo, minlength=_KEYS), np.bincount(
        key, weights=hi, minlength=_KEYS
    )


def _deposit_chunk(
    bits: np.ndarray, start: int, bins_lo: np.ndarray, bins_hi: np.ndarray
) -> None:
    """Scatter-add one contiguous chunk of float64 bit patterns.

    ``start`` is the chunk's index in the deposited array, so an error
    names the value's index there. Rejects non-finite values *before*
    touching the bins, so a raising call leaves them unchanged (earlier
    chunks of the same fold may already be deposited; callers discard
    the partial on error).
    """
    x = bits.view(np.float64)
    # inf - inf (and any signalling NaN) sets the invalid flag inside
    # the split; such a chunk raises below before any bin changes.
    with np.errstate(invalid="ignore"):
        lo, hi = _key_sums(bits[:_SUB_BLOCK], x[:_SUB_BLOCK])
        for s in range(_SUB_BLOCK, bits.size, _SUB_BLOCK):
            sub_lo, sub_hi = _key_sums(bits[s : s + _SUB_BLOCK], x[s : s + _SUB_BLOCK])
            lo += sub_lo
            hi += sub_hi
    if hi[_EXP_MASK] or hi[_KEYS - 1]:
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NonFiniteInputError(
            f"input contains a non-finite value at index {start + bad}: "
            f"{float(x[bad])!r}"
        )
    # Both sign halves of a key are multiples of its unit 2**e, so their
    # sum and the power-of-two scaling are exact, as is the int64 cast.
    lo = lo[:_SIGN_KEY] + lo[_SIGN_KEY:]
    hi = hi[:_SIGN_KEY] + hi[_SIGN_KEY:]
    for scale in _UNIT_SCALES:
        lo *= scale
        hi *= scale
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    # Exponent 0 (subnormals, zeros) shares bin 1: same unit.
    lo[1] += lo[0]
    hi[1] += hi[0]
    bins_lo[1:] += lo[1:BIN_COUNT]
    bins_hi[1:] += hi[1:BIN_COUNT]


class BinnedPartial:
    """Exponent bins + deferred-carry value budget + sparse spill.

    Attributes:
        radix: shared digit-width configuration (used by resolution).
        bins_lo: int64[BIN_COUNT] low-half mantissa-unit sums, or
            ``None`` while no bulk deposit has happened (scalar folds
            and empty partials stay bin-free: 32 KiB per partial would
            dominate PRAM leaves otherwise).
        bins_hi: matching high-half sums (allocated together).
        values: values the bins absorbed since the last resolution
            (``<= RESOLVE_CHUNKS * DEPOSIT_CHUNK``; the overflow-safety
            budget: ``|bins_lo| < values * 2**32``, ``|bins_hi| <
            values * 2**21``).
        spill: resolved remainder as a sparse superaccumulator — the
            carry-free representation merges and rounding run on.

    The represented exact value is ``spill + sum_b (bins_lo[b] +
    bins_hi[b] * 2**32) * 2**(b + BIN_EXP_OFFSET)``.
    """

    __slots__ = ("radix", "bins_lo", "bins_hi", "values", "spill")

    def __init__(
        self,
        radix: RadixConfig,
        bins_lo: Optional[np.ndarray] = None,
        bins_hi: Optional[np.ndarray] = None,
        values: int = 0,
        spill: Optional[SparseSuperaccumulator] = None,
    ) -> None:
        self.radix = radix
        self.bins_lo = bins_lo
        self.bins_hi = bins_hi
        self.values = int(values)
        self.spill = spill if spill is not None else SparseSuperaccumulator(radix)

    def ensure_bins(self) -> Tuple[np.ndarray, np.ndarray]:
        """Allocate the bin arrays on first bulk deposit."""
        if self.bins_lo is None or self.bins_hi is None:
            self.bins_lo = np.zeros(BIN_COUNT, dtype=np.int64)
            self.bins_hi = np.zeros(BIN_COUNT, dtype=np.int64)
        return self.bins_lo, self.bins_hi

    def deposit(self, arr: np.ndarray) -> None:
        """Fold a contiguous float64 array into the bins (vectorized).

        An array of n values uses n of the value budget; no carry is
        touched unless a chunk would pass the budget. Radices
        too wide for the vectorized integer paths (``w > 31``) fold the
        array into the spill instead, so exactness never depends on the
        radix.

        Raises :class:`~repro.errors.NonFiniteInputError` on NaN or
        infinities; the partial must then be discarded (chunks folded
        before the offending one are already deposited).
        """
        if not self.radix.supports_vectorized:
            self.spill = self.spill.add(
                SparseSuperaccumulator.from_floats(arr, self.radix)
            )
            return
        bins_lo, bins_hi = self.ensure_bins()
        bits = arr.view(np.int64)
        budget = RESOLVE_CHUNKS * DEPOSIT_CHUNK
        for start in range(0, bits.size, DEPOSIT_CHUNK):
            chunk = bits[start : start + DEPOSIT_CHUNK]
            if self.values + chunk.size > budget:
                self.resolve()
            _deposit_chunk(chunk, start, bins_lo, bins_hi)
            self.values += chunk.size

    def _bins_to_sparse(self) -> Optional[SparseSuperaccumulator]:
        """Current bin contents as a sparse accumulator (None if empty)."""
        if self.bins_lo is None or self.bins_hi is None:
            return None
        nz_lo = np.flatnonzero(self.bins_lo)
        nz_hi = np.flatnonzero(self.bins_hi)
        if nz_lo.size == 0 and nz_hi.size == 0:
            return None
        values = np.concatenate([self.bins_lo[nz_lo], self.bins_hi[nz_hi]])
        exponents = np.concatenate(
            [nz_lo + BIN_EXP_OFFSET, nz_hi + (BIN_EXP_OFFSET + 32)]
        )
        idx, dig = split_scaled_ints_vec(values, exponents, self.radix)
        return SparseSuperaccumulator.from_digit_pairs(idx, dig, self.radix)

    def resolve(self) -> None:
        """Fold the bins into the spill and restart the value budget."""
        resolved = self._bins_to_sparse()
        if resolved is not None:
            self.spill = self.spill.add(resolved)
            assert self.bins_lo is not None and self.bins_hi is not None
            self.bins_lo[:] = 0
            self.bins_hi[:] = 0
        self.values = 0

    def merge(self, other: "BinnedPartial") -> "BinnedPartial":
        """Carry-free merge (mutates and returns self; never ``other``).

        Bins add componentwise — the binned analogue of the paper's
        carry-free accumulator add — after resolving self only when
        the two partials' values together exceed the budget.
        """
        if other.radix != self.radix:
            raise ValueError("cannot merge binned partials with different radix")
        if other.spill.active_count:
            self.spill = self.spill.add(other.spill)
        if other.bins_lo is not None and other.bins_hi is not None:
            if self.values + other.values > RESOLVE_CHUNKS * DEPOSIT_CHUNK:
                self.resolve()
            bins_lo, bins_hi = self.ensure_bins()
            bins_lo += other.bins_lo
            bins_hi += other.bins_hi
            self.values += other.values
        return self

    def to_sparse(self) -> SparseSuperaccumulator:
        """Total value as a sparse superaccumulator (non-mutating)."""
        resolved = self._bins_to_sparse()
        if resolved is None:
            return self.spill
        return self.spill.add(resolved)

    def to_float(self, mode: str = "nearest") -> float:
        """Correctly rounded value (exact resolution + exact round)."""
        return self.to_sparse().to_float(mode)

    def to_fraction(self) -> Fraction:
        """Exact value as a Fraction."""
        return self.to_sparse().to_fraction()

    @property
    def width(self) -> int:
        """Occupied components: non-zero bins + active spill positions."""
        bins = 0
        if self.bins_lo is not None and self.bins_hi is not None:
            bins = int(
                np.count_nonzero((self.bins_lo != 0) | (self.bins_hi != 0))
            )
        return bins + self.spill.active_count

    def __repr__(self) -> str:
        return (
            f"BinnedPartial(w={self.radix.w}, bins={self.width - self.spill.active_count}, "
            f"values={self.values}, spill_active={self.spill.active_count})"
        )


@register_kernel
class BinnedKernel(SumKernel):
    """Vectorized exponent-bin kernel (exact; Neal-style deferred carry).

    Partial type: :class:`BinnedPartial`. The fold is the fastest pure
    numpy exact path in the package (an order of magnitude above the
    sparse bulk fold at ``n >= 2**20`` — see ``BENCH_native.json``);
    merges stay carry-free, so the kernel serves every plane.

    Radices too wide for the vectorized integer paths (``w > 31``)
    fall back to sparse folds inside the same partial (the spill), so
    exactness never depends on the radix.
    """

    name = "binned"

    def zero(self) -> BinnedPartial:
        return BinnedPartial(self.radix)

    def fold(self, block: np.ndarray) -> BinnedPartial:
        arr = ensure_float64_array(block)
        part = BinnedPartial(self.radix)
        if arr.size:
            part.deposit(arr)
        return part

    def fold_scalar(self, x: float) -> BinnedPartial:
        # PRAM leaves: one canonical spill component beats a 32 KiB bin
        # allocation per element (from_float also rejects non-finites).
        part = BinnedPartial(self.radix)
        part.spill = SparseSuperaccumulator.from_float(float(x), self.radix)
        return part

    def combine(self, a: BinnedPartial, b: BinnedPartial) -> BinnedPartial:
        return a.merge(b)

    def round(self, partial: BinnedPartial, mode: str = "nearest") -> float:
        return partial.to_float(mode)

    def to_wire(self, partial: BinnedPartial) -> bytes:
        # The frame counts the budget in whole chunks (ceil), which
        # keeps the decoder's per-chunk bin bounds valid.
        chunks = -(-partial.values // DEPOSIT_CHUNK)
        return codec.encode_binned(chunks, *_wire_bins(partial), partial.spill)

    def from_wire(self, payload: bytes) -> BinnedPartial:
        chunks, indices, lo, hi, spill = codec.decode_binned(payload)
        # The wire's digit width wins (mirrors the sparse kernel); each
        # chunk is charged as full, the most values it can stand for.
        part = BinnedPartial(
            spill.radix, values=chunks * DEPOSIT_CHUNK, spill=spill
        )
        if indices.size:
            bins_lo, bins_hi = part.ensure_bins()
            bins_lo[indices] = lo
            bins_hi[indices] = hi
        return part

    def width(self, partial: BinnedPartial) -> int:
        return partial.width

    def exact_fraction(self, partial: BinnedPartial) -> Fraction:
        return partial.to_fraction()


def _wire_bins(partial: BinnedPartial) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (indices, lo, hi) of the non-zero bins for the wire."""
    if partial.bins_lo is None or partial.bins_hi is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    nz = np.flatnonzero((partial.bins_lo != 0) | (partial.bins_hi != 0))
    return nz.astype(np.int64), partial.bins_lo[nz], partial.bins_hi[nz]

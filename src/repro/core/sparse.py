"""The (alpha, beta)-regularized **sparse superaccumulator** (Section 2).

This is the paper's primary contribution: an exact, *carry-free*
intermediate representation for floating-point sums. An accumulator is
a vector of *active* digit positions with signed digits in
``[-alpha, beta]`` (``alpha = beta = R - 1``); adding two accumulators
is a component-wise merge in which each signed carry moves to **at most
the adjacent position** (Lemma 1) — no propagation chains, hence
constant-time parallel addition given aligned components.

A position is *active* if it is currently non-zero or has ever been
non-zero (paper's definition): cancellation leaves a zero digit active,
and a carry landing on an inactive position activates it only if it is
non-zero. Activity is what the experiments' delta-sensitivity measures
(Figure 2): more distinct exponents => more active positions => more
work per merge.

Two usage styles:

* **pairwise / streaming** — :meth:`add` (accumulator + accumulator)
  and :meth:`add_float`, the operations the PRAM tree, external-memory
  scan and MapReduce reduce phases are built from;
* **bulk** — :meth:`from_floats`, an n-ary deposit + single
  renormalization used by the MapReduce combiner (the "sequential
  algorithm described earlier" of Section 6.1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.digits import (
    DEFAULT_RADIX,
    RadixConfig,
    accumulate_digits,
    check_regularized,
    normalize_digit_array,
    split_float,
    split_floats_vec,
)
from repro.core.rounding import round_digits
from repro.errors import NonFiniteInputError, RepresentationError
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = ["SparseSuperaccumulator"]


class SparseSuperaccumulator:
    """Sparse (alpha, beta)-regularized superaccumulator.

    Attributes:
        radix: the digit-width configuration (``R = 2**w``).
        indices: sorted int64 array of active digit positions.
        digits: int64 array of the same length; ``digits[k]`` is the
            signed digit at position ``indices[k]``, always within
            ``[-alpha, beta]``.

    The represented value is ``sum(digits[k] * R**indices[k])`` — exact,
    with no rounding anywhere until :meth:`to_float`.
    """

    __slots__ = ("radix", "indices", "digits")

    def __init__(
        self,
        radix: RadixConfig = DEFAULT_RADIX,
        indices: Optional[np.ndarray] = None,
        digits: Optional[np.ndarray] = None,
        *,
        _validated: bool = False,
    ) -> None:
        self.radix = radix
        if indices is None:
            indices = np.empty(0, dtype=np.int64)
            digits = np.empty(0, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.digits = np.asarray(digits, dtype=np.int64)
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        if self.indices.shape != self.digits.shape or self.indices.ndim != 1:
            raise RepresentationError("indices/digits must be equal-length 1-D")
        if self.indices.size > 1 and not (np.diff(self.indices) > 0).all():
            raise RepresentationError("indices must be strictly increasing")
        check_regularized(self.digits, self.radix, what="sparse accumulator")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, radix: RadixConfig = DEFAULT_RADIX) -> "SparseSuperaccumulator":
        """The empty accumulator (value 0, no active positions)."""
        return cls(radix)

    @classmethod
    def from_float(
        cls, x: float, radix: RadixConfig = DEFAULT_RADIX
    ) -> "SparseSuperaccumulator":
        """Accumulator equal to one float (§3 step 2 conversion).

        The split produces same-signed digits, which are automatically
        regularized; this is the O(1)-work leaf conversion. It rides
        the vectorized single-element split path (digit positions come
        out in increasing order, zeros already filtered), with the
        scalar big-int path kept for radices too wide to vectorize.
        """
        if radix.supports_vectorized:
            if not math.isfinite(x):
                raise NonFiniteInputError(f"cannot decompose non-finite value {x!r}")
            idx, dig = split_floats_vec(np.array([x], dtype=np.float64), radix)
            return cls(radix, idx, dig, _validated=True)
        pairs = split_float(x, radix)
        if not pairs:
            return cls(radix)
        idx = np.array([j for j, _ in pairs], dtype=np.int64)
        dig = np.array([d for _, d in pairs], dtype=np.int64)
        return cls(radix, idx, dig, _validated=True)

    @classmethod
    def from_floats(
        cls, values: Iterable[float], radix: RadixConfig = DEFAULT_RADIX
    ) -> "SparseSuperaccumulator":
        """Exact bulk sum of many floats (vectorized n-ary deposit).

        Digit contributions of all inputs are scatter-added into a
        compact position range, then reduced once to regularized form.
        The active set is the union of positions touched by any input
        or by a final carry. Radices too wide for the int64 paths
        (``w > 31``) add one input at a time instead.
        """
        arr = ensure_float64_array(values)
        check_finite_array(arr)
        if arr.size == 0:
            return cls(radix)
        if not radix.supports_vectorized:
            # Digits too wide for the int64 scatter-add: one exact
            # scalar split per input, like the paper's R = 2**51 radix.
            total = cls(radix)
            for x in arr.tolist():
                total = total.add_float(x)
            return total
        acc: Optional[SparseSuperaccumulator] = None
        # Chunked so per-limb raw sums stay within int64 (w <= 31 digits
        # allow ~2**31 deposits per limb between renormalizations).
        chunk = 1 << 22
        for start in range(0, arr.size, chunk):
            part = cls._from_floats_chunk(arr[start : start + chunk], radix)
            acc = part if acc is None else acc.add(part)
        assert acc is not None
        return acc

    @classmethod
    def _from_floats_chunk(
        cls, arr: np.ndarray, radix: RadixConfig
    ) -> "SparseSuperaccumulator":
        idx, dig = split_floats_vec(arr, radix)
        return cls.from_digit_pairs(idx, dig, radix)

    @classmethod
    def from_digit_pairs(
        cls, indices: np.ndarray, digits: np.ndarray,
        radix: RadixConfig = DEFAULT_RADIX,
    ) -> "SparseSuperaccumulator":
        """Accumulator from raw ``(index, digit)`` deposits (n-ary add).

        The deposit + single-renormalization tail shared by the bulk
        float fold and the binned kernel's carry resolution: pairs are
        scatter-added into a compact limb range (per-limb raw sums must
        stay within int64 — callers bound their deposit counts), then
        reduced once to regularized form. Positions touched by any
        deposit are active even when they cancel to zero.
        """
        idx = np.asarray(indices, dtype=np.int64)
        dig = np.asarray(digits, dtype=np.int64)
        if idx.size == 0:
            return cls(radix)
        lo = int(idx.min())
        hi = int(idx.max())
        raw = accumulate_digits(idx, dig, base_index=lo, length=hi - lo + 1)
        touched = np.zeros(hi - lo + 1, dtype=bool)
        touched[idx - lo] = True
        reduced = normalize_digit_array(raw, radix)
        active = np.zeros(len(reduced), dtype=bool)
        active[: len(touched)] = touched
        active |= reduced != 0
        keep = np.flatnonzero(active)
        return cls(
            radix,
            keep.astype(np.int64) + lo,
            reduced[keep],
            _validated=True,
        )

    def copy(self) -> "SparseSuperaccumulator":
        """Independent copy (arrays duplicated)."""
        return SparseSuperaccumulator(
            self.radix, self.indices.copy(), self.digits.copy(), _validated=True
        )

    # ------------------------------------------------------------------
    # the carry-free merge (Lemma 1 on sparse index sets)
    # ------------------------------------------------------------------

    def add(self, other: "SparseSuperaccumulator") -> "SparseSuperaccumulator":
        """Carry-free sum of two sparse superaccumulators (new object).

        Algorithm (paper, Section 2): merge the active index sets; for
        each merged position compute the pairwise digit sum ``P``,
        choose the signed carry ``C`` per Lemma 1, keep the interim
        digit ``W = P - C*R`` at the position and deposit ``C`` at the
        *adjacent* position — which may activate a previously inactive
        index. Because a carry target that is itself a merged position
        receives ``W + C`` in ``[-alpha, beta]``, and a carry landing on
        a gap is ``±1``, the result is regularized with **no**
        propagation. Cost: O(m) sequential work on the merged size m;
        O(1) parallel depth given the merge (Lemma 3).
        """
        if other.radix != self.radix:
            raise ValueError("cannot add accumulators with different radix")
        if self.indices.size == 0:
            return other.copy()
        if other.indices.size == 0:
            return self.copy()
        R = np.int64(self.radix.R)
        merged = np.union1d(self.indices, other.indices)
        P = np.zeros(len(merged), dtype=np.int64)
        pos_a = np.searchsorted(merged, self.indices)
        pos_b = np.searchsorted(merged, other.indices)
        P[pos_a] += self.digits
        P[pos_b] += other.digits
        # Lemma 1 carry selection: C[i+1] = +1 if P >= R-1, -1 if P <= -(R-1).
        carry = (P >= R - 1).astype(np.int64) - (P <= -(R - 1)).astype(np.int64)
        W = P - carry * R
        carry_nz = carry != 0
        if carry_nz.any():
            targets = merged[carry_nz] + 1
            res_idx = np.concatenate([merged, targets])
            res_dig = np.concatenate([W, carry[carry_nz]])
            order = np.argsort(res_idx, kind="stable")
            res_idx = res_idx[order]
            res_dig = res_dig[order]
            uniq, starts = np.unique(res_idx, return_index=True)
            sums = np.add.reduceat(res_dig, starts)
        else:
            uniq, sums = merged, W
        # Carries landing on fresh positions activate them only if the
        # resulting digit is non-zero; merged positions stay active even
        # at zero (the paper's "has ever been non-zero" semantics).
        was_active = np.isin(uniq, merged, assume_unique=True)
        keep = was_active | (sums != 0)
        return SparseSuperaccumulator(
            self.radix, uniq[keep], sums[keep], _validated=True
        )

    def add_float(self, x: float) -> "SparseSuperaccumulator":
        """Carry-free sum with a single float (convenience wrapper)."""
        return self.add(SparseSuperaccumulator.from_float(x, self.radix))

    @staticmethod
    def sum_many(
        accumulators: Iterable["SparseSuperaccumulator"],
        radix: RadixConfig = DEFAULT_RADIX,
    ) -> "SparseSuperaccumulator":
        """Sum a collection of accumulators (reduce/post-process phases).

        Pairwise :meth:`add` in a left fold; exactness is independent of
        order, and the count of accumulators in any realistic job is
        tiny compared to the deferred-carry budget.
        """
        total = SparseSuperaccumulator.zero(radix)
        for acc in accumulators:
            total = total.add(acc)
        return total

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of active components (the sigma(n) of the paper)."""
        return int(self.indices.size)

    def is_zero(self) -> bool:
        """True iff the exact value is zero (active zeros allowed)."""
        return not self.digits.any()

    def to_scaled_int(self) -> Tuple[int, int]:
        """Exact value as ``(V, shift)``: the number is ``V * 2**shift``."""
        if self.indices.size == 0:
            return 0, 0
        w = self.radix.w
        jmin = int(self.indices[0])
        value = 0
        # Horner over *positions* (gaps included) would be O(range); use
        # explicit shifts per active component instead: O(active * limbs).
        for j, d in zip(self.indices, self.digits):
            value += int(d) << (w * (int(j) - jmin))
        return value, w * jmin

    def to_fraction(self) -> Fraction:
        """Exact value as a Fraction (testing / condition numbers)."""
        v, s = self.to_scaled_int()
        return Fraction(v, 1) * Fraction(2) ** s

    def to_dense_digits(self) -> Tuple[np.ndarray, int]:
        """Materialize the contiguous digit vector ``(digits, base_index)``.

        Gaps between active positions become explicit zeros; used by the
        rounding pipeline and the PRAM carry-propagation step.
        """
        if self.indices.size == 0:
            return np.zeros(1, dtype=np.int64), 0
        lo = int(self.indices[0])
        hi = int(self.indices[-1])
        dense = np.zeros(hi - lo + 1, dtype=np.int64)
        dense[self.indices - lo] = self.digits
        return dense, lo

    def to_float(self, mode: str = "nearest") -> float:
        """Round the exact value to a float (§3 steps 6-7 pipeline).

        ``mode="nearest"`` gives the correctly rounded sum, which is in
        particular faithfully rounded.
        """
        dense, base = self.to_dense_digits()
        return round_digits(dense, base, self.radix, mode)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSuperaccumulator):
            return NotImplemented
        return self.to_fraction() == other.to_fraction()

    def __hash__(self) -> int:
        return hash(self.to_fraction())

    def __repr__(self) -> str:
        return (
            f"SparseSuperaccumulator(w={self.radix.w}, "
            f"active={self.active_count}, "
            f"span={self._span_repr()})"
        )

    def _span_repr(self) -> str:
        if self.indices.size == 0:
            return "[]"
        return f"[{int(self.indices[0])}, {int(self.indices[-1])}]"

    # ------------------------------------------------------------------
    # serialization (MapReduce shuffle format)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """``SSUP`` wire frame (see :func:`repro.codec.encode_sparse`)."""
        from repro import codec

        return codec.encode_sparse(self)

    @staticmethod
    def from_bytes(payload: bytes) -> "SparseSuperaccumulator":
        """Inverse of :meth:`to_bytes`.

        Raises:
            CodecError: on malformed payloads — wrong magic, truncated
                or oversized body, invalid digit width, or decoded
                components violating the regularized representation.
                Shuffle payloads cross process boundaries, so
                corruption must surface as a clean error (a
                ``ValueError`` subclass), never a raw
                ``struct``/``frombuffer`` one.
        """
        from repro import codec

        return codec.decode_sparse(payload)

"""Exact kernels: the sparse, dense, small, and running-sum wrappers.

Each kernel adapts one accumulator class from :mod:`repro.core` /
:mod:`repro.streaming` to the :class:`~repro.kernels.base.SumKernel`
protocol. All four are *exact*: partials hold the exact sum of
everything folded in, ``round`` cannot fail, and any combine order
yields the same bits — which is precisely why one kernel serves every
execution plane.

The running-sum kernel's streams hold their exact total in exponent
bins (:class:`~repro.kernels.binned.BinnedPartial`): a fold deposits
and nothing else, and carries resolve only on a read or an export.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

import numpy as np

from repro import codec
from repro.core.sparse import SparseSuperaccumulator
from repro.core.superaccumulator import DenseSuperaccumulator, SmallSuperaccumulator
from repro.kernels.base import SumKernel, register_kernel
from repro.util.validation import ensure_float64_array

__all__ = ["SparseKernel", "DenseKernel", "SmallKernel", "RunningSumKernel"]

@register_kernel
class SparseKernel(SumKernel):
    """The paper's kernel: (alpha, beta)-regularized sparse partials.

    Partial type: :class:`~repro.core.sparse.SparseSuperaccumulator`.
    Carry-free merges keep combine O(active) and order-independent;
    this kernel is the exact reference every other kernel must match
    bitwise.
    """

    name = "sparse"

    def zero(self) -> SparseSuperaccumulator:
        return SparseSuperaccumulator.zero(self.radix)

    def fold(self, block: np.ndarray) -> SparseSuperaccumulator:
        return SparseSuperaccumulator.from_floats(block, self.radix)

    def fold_scalar(self, x: float) -> SparseSuperaccumulator:
        return SparseSuperaccumulator.from_float(float(x), self.radix)

    def combine(
        self, a: SparseSuperaccumulator, b: SparseSuperaccumulator
    ) -> SparseSuperaccumulator:
        return a.add(b)

    def round(self, partial: SparseSuperaccumulator, mode: str = "nearest") -> float:
        return partial.to_float(mode)

    def to_wire(self, partial: SparseSuperaccumulator) -> bytes:
        return codec.encode_sparse(partial)

    def from_wire(self, payload: bytes) -> SparseSuperaccumulator:
        return codec.decode_sparse(payload)

    def width(self, partial: SparseSuperaccumulator) -> int:
        return partial.active_count

    def exact_fraction(self, partial: SparseSuperaccumulator) -> Fraction:
        return partial.to_fraction()


@register_kernel
class DenseKernel(SumKernel):
    """Full fixed-point kernel: dense limb arrays over the binary64 range.

    Partial type: :class:`~repro.core.superaccumulator.DenseSuperaccumulator`
    at its full default range, so any two partials combine limb-wise.
    ``combine`` adds in place into its first argument.
    """

    name = "dense"

    def zero(self) -> DenseSuperaccumulator:
        return DenseSuperaccumulator(self.radix)

    def fold(self, block: np.ndarray) -> DenseSuperaccumulator:
        return DenseSuperaccumulator.from_array(block, self.radix)

    def combine(
        self, a: DenseSuperaccumulator, b: DenseSuperaccumulator
    ) -> DenseSuperaccumulator:
        a.add_accumulator(b)
        return a

    def round(self, partial: DenseSuperaccumulator, mode: str = "nearest") -> float:
        return partial.to_float(mode)

    def to_wire(self, partial: DenseSuperaccumulator) -> bytes:
        partial.renormalize()
        return codec.encode_dense(partial)

    def from_wire(self, payload: bytes) -> DenseSuperaccumulator:
        return codec.decode_dense(payload)

    def width(self, partial: DenseSuperaccumulator) -> int:
        return int(np.count_nonzero(partial.limbs))

    def exact_fraction(self, partial: DenseSuperaccumulator) -> Fraction:
        return partial.to_fraction()


@register_kernel
class SmallKernel(DenseKernel):
    """Neal-style comparator kernel: fixed ~70-limb small superaccumulators.

    Same wire format and combine as :class:`DenseKernel` (a small
    superaccumulator *is* a full-range dense one); the fold constructs
    the :class:`~repro.core.superaccumulator.SmallSuperaccumulator`
    subclass so per-fold cost is delta-independent.
    """

    name = "small"

    def zero(self) -> SmallSuperaccumulator:
        return SmallSuperaccumulator(self.radix)

    def fold(self, block: np.ndarray) -> SmallSuperaccumulator:
        acc = SmallSuperaccumulator(self.radix)
        acc.add_array(block)
        return acc


@register_kernel
class RunningSumKernel(SumKernel):
    """Streaming kernel: counted running sums over exponent bins.

    Partial type: :class:`~repro.streaming.ExactRunningSum` — the
    serving plane's per-stream state, whose exact total lives in
    exponent bins that writes only deposit into; carries resolve on a
    read or an export. Its ``KSTR`` wire frame carries the observation
    count alongside the resolved sparse accumulator, so service
    snapshots round-trip through the same kernel interface as shuffle
    payloads.
    """

    name = "running"

    def zero(self) -> Any:
        from repro.streaming import ExactRunningSum

        return ExactRunningSum(self.radix)

    def fold(self, block: np.ndarray) -> Any:
        rs = self.zero()
        rs.add_array(block)
        return rs

    def combine(self, a: Any, b: Any) -> Any:
        a.merge(b)
        return a

    def round(self, partial: Any, mode: str = "nearest") -> float:
        return partial.value(mode)

    def to_wire(self, partial: Any) -> bytes:
        return partial.to_bytes()

    def from_wire(self, payload: bytes) -> Any:
        from repro.streaming import ExactRunningSum

        return ExactRunningSum.from_bytes(payload, self.radix)

    def width(self, partial: Any) -> int:
        return partial.exact_state().active_count

    def exact_fraction(self, partial: Any) -> Fraction:
        return partial.exact_fraction()

    def new_stream(self) -> Any:
        # The native stream type *is* the partial: it keeps its staged
        # writes and exponent bins and writes the KSTR snapshot frame of
        # the service's save_state files.
        return self.zero()

    def stream_from_bytes(self, payload: bytes) -> Any:
        return self.from_wire(payload)

    def fold_into(self, stream: Any, values: Any) -> int:
        """Exact bulk fold into a running sum: a deposit, no carries.

        Serve shards land each request's validated array here, so the
        stream skips the finiteness scan the service already made
        (:meth:`~repro.streaming.ExactRunningSum.add_finite`). It
        deposits the array into its own exponent bins
        (:class:`~repro.kernels.binned.BinnedPartial`), staging it
        first when it is smaller than
        :data:`~repro.streaming.DEPOSIT_MIN`; carries resolve only when
        the stream is read or exported.
        """
        arr = ensure_float64_array(values)
        stream.add_finite(arr)
        return int(arr.size)

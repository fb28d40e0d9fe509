"""The speculative kernel: a certified fast path behind the same protocol.

:class:`TruncatedKernel` is the paper's §4 kernel: gamma-truncated
sparse partials with O(gamma) combines. It trades full exactness in
``fold`` for speed, carries the exact truncation-mass bound through
``combine``, and proves correctness in ``round`` with
:func:`certify_rounding` — raising
:class:`~repro.errors.CertificationError` when the proof fails so the
caller reruns exactly (see :func:`~repro.kernels.base.run_certified`).
Speculation can cost a retry, never a wrong bit: any value this kernel
returns is bit-identical to the exact sparse reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

from repro import codec
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.core.truncated import TruncatedSparseSuperaccumulator
from repro.errors import CertificationError
from repro.kernels.base import SumKernel, register_kernel

__all__ = [
    "TruncatedKernel",
    "certify_rounding",
]


def certify_rounding(
    acc: SparseSuperaccumulator, y: float, bound_total: Union[float, Fraction]
) -> float:
    """Global certificate: prove ``y`` is the correctly rounded sum.

    The exact sum lies within ``bound_total`` (a float, or an exact
    ``Fraction`` such as a truncation-mass bound) of ``acc``'s value.
    Returns the margin (doublings the bound could survive), raising
    :class:`CertificationError` when the proof fails. ``bound_total ==
    0`` means every contribution was exact — nothing to prove.
    """
    if bound_total == 0.0:  # reprolint: disable=FP002 -- zero bound means nothing was truncated
        return math.inf
    lo = math.nextafter(y, -math.inf)
    hi = math.nextafter(y, math.inf)
    if not (math.isfinite(y) and math.isfinite(lo) and math.isfinite(hi)):
        raise CertificationError(
            "certified sum at the edge of the float range; rerun exactly"
        )
    retained = acc.to_fraction()
    bound = Fraction(bound_total)
    yf = Fraction(y)
    gap_lo = (retained - bound) - (yf + Fraction(lo)) / 2
    gap_hi = (yf + Fraction(hi)) / 2 - (retained + bound)
    if gap_lo <= 0 or gap_hi <= 0:
        raise CertificationError(
            "certificate mass reaches a rounding-cell boundary; rerun exactly"
        )
    half_cell = Fraction(math.ulp(y)) / 2
    # reprolint: disable-next-line=FP004 -- margin telemetry only; log2 absorbs the rounding slack
    return math.log2(float(half_cell / bound)) if half_cell > bound else 0.0


@register_kernel
class TruncatedKernel(SumKernel):
    """The paper's §4 kernel: gamma-truncated sparse partials with a mass proof.

    Combines cost O(gamma) regardless of exponent spread; everything
    ever dropped is accounted by the exact truncation-mass bound, and
    ``round`` accepts only when that bound proves the candidate sits
    strictly inside its rounding cell (the paper's §4 stopping
    condition strengthened to *correct* rounding).
    """

    name = "truncated"
    exact = False

    def __init__(
        self,
        radix: RadixConfig = DEFAULT_RADIX,
        gamma: int = 64,
    ) -> None:
        super().__init__(radix)
        self.gamma = int(gamma)

    def zero(self) -> TruncatedSparseSuperaccumulator:
        return TruncatedSparseSuperaccumulator(self.gamma, self.radix)

    def fold(self, block: np.ndarray) -> TruncatedSparseSuperaccumulator:
        return TruncatedSparseSuperaccumulator.from_floats(
            block, self.gamma, self.radix
        )

    def combine(
        self,
        a: TruncatedSparseSuperaccumulator,
        b: TruncatedSparseSuperaccumulator,
    ) -> TruncatedSparseSuperaccumulator:
        return a.add(b)

    def round(
        self, partial: TruncatedSparseSuperaccumulator, mode: str = "nearest"
    ) -> float:
        if not partial.truncated:
            return partial.acc.to_float(mode)
        if mode != "nearest":
            raise CertificationError(
                "truncation certificates only prove nearest rounding; rerun exactly"
            )
        y = partial.to_float("nearest")
        certify_rounding(partial.acc, y, partial.truncation_mass_bound())
        return y

    def to_wire(self, partial: TruncatedSparseSuperaccumulator) -> bytes:
        max_idx = partial.max_dropped_index
        return codec.encode_truncated(
            partial.gamma,
            partial.drop_count,
            partial.truncated,
            max_idx if max_idx is not None else 0,
            partial.acc,
        )

    def from_wire(self, payload: bytes) -> TruncatedSparseSuperaccumulator:
        gamma, drops, truncated, max_idx, acc = codec.decode_truncated(payload)
        return TruncatedSparseSuperaccumulator(
            gamma,
            acc.radix,
            acc=acc,
            truncated=truncated,
            drop_count=drops,
            max_dropped_index=max_idx if drops else None,
        )

    def width(self, partial: TruncatedSparseSuperaccumulator) -> int:
        return partial.acc.active_count

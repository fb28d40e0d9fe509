"""Speculative kernels: certified fast paths behind the same protocol.

Both kernels here trade full exactness in ``fold`` for speed, carry a
rigorous error *bound* through ``combine``, and prove correctness in
``round`` — raising :class:`~repro.errors.CertificationError` when the
proof fails so the caller reruns exactly (see
:func:`~repro.kernels.base.run_certified`). Speculation can cost a retry,
never a wrong bit: any value these kernels return is bit-identical to
the exact sparse reference.

* :class:`AdaptiveCascadeKernel` — Tier 0 per block: the certified
  TwoSum cascade. A certified block's partial is a 24-byte
  ``(value, remainder, bound)`` certificate; escalated blocks are
  deposited into exponent bins and carry the exact sparse accumulator
  those resolve to.
* :class:`TruncatedKernel` — gamma-truncated sparse partials (§4 of
  the paper) with O(gamma) combines and the exact truncation-mass
  stopping proof (:func:`certify_rounding`) at round time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro import codec
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.core.truncated import TruncatedSparseSuperaccumulator
from repro.errors import CertificationError
from repro.kernels.base import SumKernel, register_kernel
from repro.kernels.binned import BinnedPartial

__all__ = [
    "AdaptiveCascadeKernel",
    "AdaptivePartial",
    "TruncatedKernel",
    "sum_bounds_upper",
    "certify_rounding",
]


def sum_bounds_upper(bounds: Sequence[float]) -> float:
    """Float upper bound on the exact sum of non-negative floats.

    ``math.fsum`` is correctly rounded (error <= half an ulp), so one
    relative inflation plus a subnormal quantum strictly dominates the
    true sum — keeping every downstream certificate comparison sound.
    """
    # reprolint: disable-next-line=FP003 -- fsum feeds a bound, not the sum; inflated below
    total = math.fsum(bounds)
    if total == 0.0:  # reprolint: disable=FP002 -- all-zero bounds mean exact contributions
        return 0.0
    return total * (1.0 + 2.0**-50) + 5e-324


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


class AdaptivePartial:
    """Partial of :class:`AdaptiveCascadeKernel`.

    Either a single certified block — ``cert = (value, remainder,
    bound)``, floats whose sum is within ``bound`` of the exact block
    sum — or a materialized exact accumulator plus the accumulated
    bound and block bookkeeping. ``certs``/``fulls`` count certified
    and escalated blocks folded in (the tier telemetry).
    """

    __slots__ = ("acc", "cert", "bound", "certs", "fulls")

    def __init__(
        self,
        *,
        acc: Optional[SparseSuperaccumulator] = None,
        cert: Optional[Tuple[float, float, float]] = None,
        bound: float = 0.0,
        certs: int = 0,
        fulls: int = 0,
    ) -> None:
        self.acc = acc
        self.cert = cert
        self.bound = float(bound)
        self.certs = int(certs)
        self.fulls = int(fulls)


@register_kernel
class AdaptiveCascadeKernel(SumKernel):
    """Tier-0 speculation per block with one global proof at round time.

    ``fold`` runs the certified cascade; certified blocks become
    certificates, the rest exact binned deposits resolved to sparse
    accumulators. ``combine`` folds certificate values/remainders
    *exactly* into a sparse accumulator (floats fold exactly; only the
    bounds carry uncertainty) and adds the bounds rigorously. ``round``
    stands only if the total certificate mass provably cannot move the
    result across a rounding-cell boundary — else
    :class:`CertificationError` and the caller reruns with the exact
    sparse kernel.
    """

    name = "adaptive"
    exact = False

    def zero(self) -> AdaptivePartial:
        return AdaptivePartial(acc=SparseSuperaccumulator.zero(self.radix))

    def fold(self, block: np.ndarray) -> AdaptivePartial:
        from repro.adaptive import certified_cascade_sum

        arr = np.asarray(block, dtype=np.float64)
        cert = certified_cascade_sum(arr)
        if cert.certified:
            return AdaptivePartial(
                cert=(cert.value, cert.remainder, cert.residual_bound),
                bound=cert.residual_bound,
                certs=1,
            )
        # An escalated block takes the binned deposit, the fastest
        # exact fold, and ships as the sparse accumulator it resolves to.
        binned = BinnedPartial(self.radix)
        binned.deposit(arr)
        return AdaptivePartial(acc=binned.to_sparse(), fulls=1)

    def _materialize(self, partial: AdaptivePartial) -> SparseSuperaccumulator:
        if partial.acc is not None:
            return partial.acc
        value, remainder, _ = partial.cert
        # reprolint: disable-next-line=FP002 -- exact-zero remainder carries no mass
        floats = [value, remainder] if remainder != 0.0 else [value]
        return SparseSuperaccumulator.from_floats(
            np.array(floats, dtype=np.float64), self.radix
        )

    def combine(self, a: AdaptivePartial, b: AdaptivePartial) -> AdaptivePartial:
        return AdaptivePartial(
            acc=self._materialize(a).add(self._materialize(b)),
            bound=sum_bounds_upper([a.bound, b.bound]),
            certs=a.certs + b.certs,
            fulls=a.fulls + b.fulls,
        )

    def round(self, partial: AdaptivePartial, mode: str = "nearest") -> float:
        return self.round_detail(partial, mode)[0]

    def round_detail(
        self, partial: AdaptivePartial, mode: str = "nearest"
    ) -> Tuple[float, dict]:
        """Rounded value plus the tier telemetry of this reduction."""
        # reprolint: disable-next-line=FP002 -- exact-zero bound gate, not a tolerance
        if partial.bound != 0.0 and mode != "nearest":
            raise CertificationError(
                "adaptive certificates only prove nearest rounding; rerun exactly"
            )
        acc = self._materialize(partial)
        y = acc.to_float(mode)
        margin = certify_rounding(acc, y, partial.bound)
        counts = {
            "tier0_hits": partial.certs,
            "escalations": partial.fulls,
            "tier2_folds": 1 if partial.fulls else 0,
            "certificate_margin_bits": margin,
        }
        return y, counts

    def to_wire(self, partial: AdaptivePartial) -> bytes:
        if partial.cert is not None:
            return codec.encode_cert(*partial.cert)
        return codec.encode_composite(
            partial.bound, partial.certs, partial.fulls, partial.acc
        )

    def from_wire(self, payload: bytes) -> AdaptivePartial:
        magic = codec.peek_magic(payload)
        if magic == codec.MAGIC_CERT:
            value, remainder, bound = codec.decode_cert(payload)
            return AdaptivePartial(
                cert=(value, remainder, bound), bound=bound, certs=1
            )
        if magic == codec.MAGIC_SPARSE:
            # An escalated block shipped as a bare accumulator.
            return AdaptivePartial(acc=codec.decode_sparse(payload), fulls=1)
        bound, certs, fulls, acc = codec.decode_composite(payload)
        return AdaptivePartial(acc=acc, bound=bound, certs=certs, fulls=fulls)

    def width(self, partial: AdaptivePartial) -> int:
        return partial.acc.active_count if partial.acc is not None else 1


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
        counters: Optional[Any] = None,
        gamma: int = 64,
    ) -> None:
        super().__init__(radix, counters)
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

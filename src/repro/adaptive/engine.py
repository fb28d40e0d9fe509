"""The condition-adaptive ladder: certificate, else one binned deposit.

Theorem 4 of the paper says exact-summation work can scale with
``log C(X)`` rather than the worst case; this module is that promise as
an engineering artifact. One entry point — :func:`adaptive_sum` /
:func:`adaptive_sum_detail` — returns the **same bits** as every exact
path (the correctly rounded exact sum) and differs only in how much
work it spends:

* **Tier 0** — the certified cascade (:mod:`repro.adaptive.cascade`):
  ~3 vectorized passes, accepts whenever the deterministic error bound
  fits inside the rounding cell. Covers condition numbers up to roughly
  ``u**-1 / poly(log n)`` — the overwhelmingly common case. It proves
  nearest rounding only.
* **Tier 2** — one exponent-bin deposit of the whole array
  (:class:`~repro.kernels.binned.BinnedPartial`, the repo's fastest
  exact fold), rounded in the requested mode. Used after a failed
  certificate and for every directed mode.

There is no middle tier: the binned deposit folds faster than any
truncated sparse fold could certify, so the paper's §4 truncation lives
on as the ``truncated`` kernel (:mod:`repro.kernels.speculative`), not
as a rung here. The tier numbers keep their meaning in telemetry.

Counters (:class:`TierCounters`) record every decision — tier hits,
escalations, certificate margins — and are threaded through
``ServiceMetrics`` and MapReduce ``JobResult`` by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.adaptive.cascade import certified_cascade_sum
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.kernels.binned import BinnedPartial
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "AdaptiveResult",
    "TierCounters",
    "adaptive_sum",
    "adaptive_sum_detail",
]


@dataclass(frozen=True)
class AdaptiveResult:
    """One summation's outcome: the value plus the decision trail.

    Attributes:
        value: the correctly rounded exact sum (both tiers agree).
        tier: which tier produced it (0 or 2).
        n: number of summands.
        escalations: 1 when a failed Tier-0 certificate fell through to
            the deposit, else 0.
        margin_bits: Tier-0 certificate headroom in doublings; ``inf``
            for exact certificates, ``nan`` for Tier 2 (no certificate
            — the result is exact by construction).
    """

    value: float
    tier: int
    n: int
    escalations: int = 0
    margin_bits: float = math.nan


@dataclass
class TierCounters:
    """Mutable tally of tier decisions (threaded into service metrics).

    ``margin_min``/``margin_last`` track *finite* certificate margins
    only — an exact certificate (``inf`` margin) carries no tuning
    information about how close the ladder runs to escalation.
    """

    tier0_hits: int = 0
    tier2_folds: int = 0
    escalations: int = 0
    margin_min: float = math.inf
    margin_last: float = math.nan
    _seen_margin: bool = field(default=False, repr=False)

    def record(self, result: AdaptiveResult) -> None:
        if result.tier == 0:
            self.tier0_hits += 1
        else:
            self.tier2_folds += 1
        self.escalations += result.escalations
        if math.isfinite(result.margin_bits):
            self.margin_last = result.margin_bits
            if result.margin_bits < self.margin_min:
                self.margin_min = result.margin_bits
            self._seen_margin = True

    def record_bulk_fold(self) -> None:
        """Count an unconditional exact fold (stateful-stream path)."""
        self.tier2_folds += 1

    def as_dict(self) -> dict:
        return {
            "tier0_hits": self.tier0_hits,
            "tier2_folds": self.tier2_folds,
            "escalations": self.escalations,
            "certificate_margin_min_bits": (
                self.margin_min if self._seen_margin else None
            ),
            "certificate_margin_last_bits": (
                self.margin_last if self._seen_margin else None
            ),
        }


def adaptive_sum_detail(
    values: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> AdaptiveResult:
    """Run the ladder; return value plus the decision trail.

    The Tier-0 certificate proves *correct (nearest) rounding* only, so
    any other ``mode`` goes straight to the deposit — same bits as
    ``exact_sum(..., mode=mode)`` either way.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    n = int(arr.size)
    escalations = 0
    if mode == "nearest":
        cert = certified_cascade_sum(arr)
        if cert.certified:
            return AdaptiveResult(cert.value, 0, n, 0, cert.margin_bits)
        escalations = 1
    acc = BinnedPartial(radix)
    acc.deposit(arr)
    return AdaptiveResult(acc.to_float(mode), 2, n, escalations)


def adaptive_sum(
    values: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    counters: Optional[TierCounters] = None,
) -> float:
    """Correctly rounded exact sum via the cheapest tier that can prove it.

    Bit-identical to ``exact_sum(values, method="sparse", mode=mode)``
    on every input; several times faster when the input's condition
    number lets the certificate stand. Pass ``counters`` to accumulate
    tier-decision telemetry across calls.
    """
    result = adaptive_sum_detail(values, mode=mode, radix=radix)
    if counters is not None:
        counters.record(result)
    return result.value

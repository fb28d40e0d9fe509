"""The condition-adaptive tier ladder (Tier 0 → Tier 1 → Tier 2).

Theorem 4 of the paper says exact-summation work can scale with
``log C(X)`` rather than the worst case; this module is that promise as
an engineering artifact. One entry point — :func:`adaptive_sum` /
:class:`AdaptiveFolder` — dispatches every summation through a ladder
whose tiers all return the **same bits** (the correctly rounded exact
sum) and differ only in how much work they spend proving it:

* **Tier 0** — the certified cascade (:mod:`repro.adaptive.cascade`):
  ~3 vectorized passes, accepts whenever the deterministic error bound
  fits inside the rounding cell. Covers condition numbers up to roughly
  ``u**-1 / poly(log n)`` — the overwhelmingly common case.
* **Tier 1** — γ-truncated sparse superaccumulators with doubling ``r``
  (§4 of the paper): per-block *full* sparse accumulators are built
  once, truncated **views** are folded at ``O(r)`` per merge, and the
  result is accepted only if the exact truncation-mass bound
  (``TruncatedSparseSuperaccumulator.truncation_mass_bound``) proves
  the candidate lies strictly inside its rounding cell. This is the
  paper's stopping condition strengthened from faithful to *correct*
  rounding, so Tier 1 is still bit-identical to the exact path.
* **Tier 2** — the full exact path. When Tier 1 already built the
  per-block accumulators, escalation just merges them (the tree was
  shared, so an adversarial input pays ~2% over a direct exact sum).
  On a cold start the fold is the binned kernel's vectorized
  exponent-bin deposit (:mod:`repro.kernels.binned`) — and on
  multi-core hosts large inputs run it thread-parallel, each worker
  driving GIL-releasing bincount kernels into a private bin array,
  merged carry-free at the end.

Counters (:class:`TierCounters`) record every decision — tier hits,
escalations, certificate margins — and are threaded through
``ServiceMetrics`` and MapReduce ``JobResult`` by the callers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional

import numpy as np

from repro.adaptive.cascade import certified_cascade_sum
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.core.truncated import TruncatedSparseSuperaccumulator
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "AdaptiveFolder",
    "TierCounters",
    "adaptive_sum",
    "adaptive_sum_detail",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the tier ladder.

    Attributes:
        block_items: leaf block size for the Tier-1/2 accumulator
            builds (shared between the tiers).
        initial_r: starting truncation width for Tier 1.
        r_doublings: how many times Tier 1 doubles ``r`` after the
            first attempt before escalating (so ``1`` tries ``r`` and
            ``2r``); negative disables Tier 1 entirely.
        enable_tier0: gate for the certified cascade.
        parallel_threshold: minimum element count before Tier 2
            considers the thread pool.
        max_workers: thread-pool width cap for Tier 2 (effective width
            also respects ``os.cpu_count()``; single-core hosts always
            run sequentially).
    """

    block_items: int = 1 << 20
    initial_r: int = 16
    r_doublings: int = 1
    enable_tier0: bool = True
    parallel_threshold: int = 1 << 21
    max_workers: int = 4


@dataclass(frozen=True)
class AdaptiveResult:
    """One summation's outcome: the value plus the decision trail.

    Attributes:
        value: the correctly rounded exact sum (all tiers agree).
        tier: which tier produced it (0, 1, or 2).
        n: number of summands.
        escalations: tiers/attempts tried and rejected before success
            (Tier-0 failure counts 1; each failed Tier-1 ``r`` counts 1).
        margin_bits: certificate headroom in doublings (Tier 0/1);
            ``inf`` for exact certificates, ``nan`` for Tier 2 (no
            certificate — the result is exact by construction).
        r_used: Tier-1 truncation width that certified, else ``None``.
    """

    value: float
    tier: int
    n: int
    escalations: int = 0
    margin_bits: float = math.nan
    r_used: Optional[int] = None


@dataclass
class TierCounters:
    """Mutable tally of tier decisions (threaded into service metrics).

    ``margin_min``/``margin_last`` track *finite* certificate margins
    only — an exact certificate (``inf`` margin) carries no tuning
    information about how close the ladder runs to escalation.
    """

    tier0_hits: int = 0
    tier1_hits: int = 0
    tier2_folds: int = 0
    escalations: int = 0
    margin_min: float = math.inf
    margin_last: float = math.nan
    _seen_margin: bool = field(default=False, repr=False)

    def record(self, result: AdaptiveResult) -> None:
        if result.tier == 0:
            self.tier0_hits += 1
        elif result.tier == 1:
            self.tier1_hits += 1
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
            "tier1_hits": self.tier1_hits,
            "tier2_folds": self.tier2_folds,
            "escalations": self.escalations,
            "certificate_margin_min_bits": (
                self.margin_min if self._seen_margin else None
            ),
            "certificate_margin_last_bits": (
                self.margin_last if self._seen_margin else None
            ),
        }


def _tier1_certify(t: TruncatedSparseSuperaccumulator) -> Optional[float]:
    """Accept a truncated fold iff its value is provably correctly rounded.

    Returns the rounded value on success, ``None`` to escalate. The
    check is exact: with retained value ``S`` (a Fraction), truncation
    mass bound ``B``, and candidate ``y = round(S)``, the true sum lies
    in ``(S - B, S + B)``; if that interval sits strictly inside ``y``'s
    open rounding cell (between the midpoints with both neighbours),
    every candidate true sum — midpoint ties excluded by strictness —
    rounds to ``y``.
    """
    y = t.to_float("nearest")
    if not math.isfinite(y):
        return None
    bound = t.truncation_mass_bound()
    if bound == 0:
        return y  # nothing was ever dropped: the fold was exact
    lo = math.nextafter(y, -math.inf)
    hi = math.nextafter(y, math.inf)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    retained = t.acc.to_fraction()
    yf = Fraction(y)
    if (yf + Fraction(lo)) / 2 < retained - bound and retained + bound < (
        yf + Fraction(hi)
    ) / 2:
        return y
    return None


def _tier1_margin_bits(t: TruncatedSparseSuperaccumulator, y: float) -> float:
    bound = t.truncation_mass_bound()
    if bound == 0:
        return math.inf
    half_cell = Fraction(math.ulp(y)) / 2
    # reprolint: disable-next-line=FP004 -- diagnostic margin only; log2 absorbs the rounding slack
    return math.log2(float(half_cell / bound)) if half_cell > bound else 0.0


def _build_blocks(
    arr: np.ndarray, radix: RadixConfig, block_items: int
) -> List[SparseSuperaccumulator]:
    return [
        SparseSuperaccumulator.from_floats(arr[i : i + block_items], radix)
        for i in range(0, arr.size, max(1, block_items))
    ]


def _tier2_threaded(
    arr: np.ndarray, radix: RadixConfig, workers: int, mode: str
) -> float:
    """Cold-start Tier 2 on multi-core hosts: thread-parallel fold.

    Each worker drives the binned kernel's exponent-bin deposit — NumPy
    bincount/bit-op kernels that release the GIL — into a private
    :class:`~repro.kernels.binned.BinnedPartial`; the per-thread bin
    arrays then merge carry-free (detfp's ``if64Sum`` shape). Real
    parallel speedup without pickling a single byte, and bit-identical
    to the serial exact path because every partial is exact.
    """
    from repro.kernels.binned import BinnedPartial

    chunks = np.array_split(arr, workers)

    def fold(chunk: np.ndarray) -> BinnedPartial:
        acc = BinnedPartial(radix)
        if chunk.size:
            acc.deposit(np.ascontiguousarray(chunk))
        return acc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(fold, chunks))
    total = partials[0]
    for part in partials[1:]:
        total = total.merge(part)
    return total.to_float(mode)


def adaptive_sum_detail(
    values: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    config: AdaptiveConfig = AdaptiveConfig(),
) -> AdaptiveResult:
    """Run the full ladder; return value plus the decision trail.

    Tiers 0 and 1 certify *correct (nearest) rounding* only, so any
    other ``mode`` goes straight to the exact path — same bits as
    ``exact_sum(..., mode=mode)`` either way.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    n = int(arr.size)
    escalations = 0

    if mode == "nearest" and config.enable_tier0:
        cert = certified_cascade_sum(arr)
        if cert.certified:
            return AdaptiveResult(cert.value, 0, n, escalations, cert.margin_bits)
        escalations += 1

    if mode != "nearest" or config.r_doublings < 0:
        # No certifying tier can run: go straight to the exact path,
        # thread-parallel on multi-core hosts for large inputs.
        return AdaptiveResult(_tier2_cold(arr, radix, mode, config), 2, n, escalations)

    blocks = _build_blocks(arr, radix, config.block_items)

    # Tier 1 pays off only when there are multiple blocks to fold: with
    # one block the full accumulator already exists and rounding it IS
    # Tier 2, at zero extra cost.
    if len(blocks) > 1:
        r = config.initial_r
        for _ in range(config.r_doublings + 1):
            total = TruncatedSparseSuperaccumulator(r, radix, acc=blocks[0])
            for blk in blocks[1:]:
                total = total.add(TruncatedSparseSuperaccumulator(r, radix, acc=blk))
            y = _tier1_certify(total)
            if y is not None:
                return AdaptiveResult(
                    y, 1, n, escalations, _tier1_margin_bits(total, y), r
                )
            escalations += 1
            r *= 2

    total_acc = SparseSuperaccumulator.sum_many(blocks, radix)
    return AdaptiveResult(total_acc.to_float(mode), 2, n, escalations)


def _tier2_cold(
    arr: np.ndarray, radix: RadixConfig, mode: str, config: AdaptiveConfig
) -> float:
    workers = min(config.max_workers, os.cpu_count() or 1)
    if workers > 1 and arr.size >= config.parallel_threshold:
        return _tier2_threaded(arr, radix, workers, mode)
    if radix.supports_vectorized:
        # The exponent-bin fold is the fastest exact path (an order of
        # magnitude above the sparse bulk fold); exact partials, so the
        # bits cannot differ.
        from repro.kernels.binned import BinnedPartial

        acc = BinnedPartial(radix)
        acc.deposit(arr)
        return acc.to_float(mode)
    return SparseSuperaccumulator.from_floats(arr, radix).to_float(mode)


def adaptive_sum(
    values: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
    config: AdaptiveConfig = AdaptiveConfig(),
    counters: Optional[TierCounters] = None,
) -> float:
    """Correctly rounded exact sum via the cheapest tier that can prove it.

    Bit-identical to ``exact_sum(values, method="sparse", mode=mode)``
    on every input; ~an order of magnitude faster when the input's
    condition number lets a cheap tier certify. Pass ``counters`` to
    accumulate tier-decision telemetry across calls.
    """
    result = adaptive_sum_detail(values, mode=mode, radix=radix, config=config)
    if counters is not None:
        counters.record(result)
    return result.value


class AdaptiveFolder:
    """Stateful front-end: one ladder + one set of counters, many calls.

    The serving plane and MapReduce driver each hold one folder so tier
    telemetry aggregates across requests. Thread-safety note: counter
    updates happen in the caller's thread; shard writers each own their
    folder or route through the service-level one from the event loop.
    """

    __slots__ = ("config", "counters", "radix")

    def __init__(
        self,
        config: AdaptiveConfig = AdaptiveConfig(),
        radix: RadixConfig = DEFAULT_RADIX,
        counters: Optional[TierCounters] = None,
    ) -> None:
        self.config = config
        self.radix = radix
        # An injected TierCounters lets several folders (or a folder
        # plus a metrics object) share one tally.
        self.counters = counters if counters is not None else TierCounters()

    def sum(self, values: Iterable[float], *, mode: str = "nearest") -> AdaptiveResult:
        """Full-ladder sum; records the decision and returns the trail."""
        result = adaptive_sum_detail(
            values, mode=mode, radix=self.radix, config=self.config
        )
        self.counters.record(result)
        return result

    def fold_into(self, running, values) -> int:
        """Exact bulk fold into a stateful stream (serve-shard path).

        Stateful streams must stay exact — a certified *rounded* float
        cannot be folded into an exact accumulator without breaking the
        service's bit-exactness guarantee — so this path is always an
        exact Tier-2 bulk add; it is counted as such.

        Returns the number of elements folded.
        """
        arr = ensure_float64_array(values)
        running.add_array(arr)
        self.counters.record_bulk_fold()
        return int(arr.size)

    def snapshot(self) -> dict:
        """Counter state as a JSON-safe dict (metrics surface)."""
        return self.counters.as_dict()

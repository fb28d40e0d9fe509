"""Tier 0 of the adaptive engine: the certified cascade (fast path).

A two-level vectorized TwoSum tree computes, in a handful of NumPy
passes over the data, a candidate sum and a **deterministic a priori
error certificate** in the spirit of Hallman & Ipsen's probabilistic /
deterministic summation bounds and Ogita-Rump-Oishi cascaded
distillation:

1. ``main, errs = twosum_tree(x)`` — ``main`` is a pairwise float sum
   (halving tree) and ``errs`` the exact per-node rounding errors, so
   ``sum(x) = main + sum(errs)`` **exactly** (TwoSum is an error-free
   transformation).
2. The same tree runs once more over the (non-zero) error terms:
   ``e, errs2 = twosum_tree(errs)``, so ``sum(errs) = e + sum(errs2)``
   exactly. Only the *second-level* errors — magnitude ``O(u^2)``
   relative to the input mass — remain uncaptured.
3. ``res, r = TwoSum(main, e)`` (exact, scalar). Now

       sum(x) = res + r + sum(errs2),   |sum(errs2)| <= beta,

   with ``beta = sum|errs2|`` inflated by the relative gamma of its own
   float accumulation (``k`` covers NumPy's blocked pairwise reduction
   depth), so the true sum lies in ``[res + r - beta, res + r + beta]``
   with ``r`` known **exactly**.
4. The certificate asks whether that whole interval lies strictly
   inside the open rounding cell of ``res`` — above the midpoint with
   its predecessor, below the midpoint with its successor. The
   comparison runs in exact ``Fraction`` arithmetic (three scalars;
   nanoseconds next to the array passes), so there is no slack-for-
   rounding fudge anywhere: if the test passes, every real number the
   true sum could be rounds (to nearest) to ``res``, ties excluded by
   strictness — ``res`` **is** the correctly rounded exact sum,
   bit-identical to the superaccumulator's answer, at ~6 passes over
   the data instead of ~30.

Work scales with conditioning exactly as Theorem 4 promises: ``beta``
is second-order (``~u^2 * sum|x|``), so the certificate's margin is
roughly ``log2(1/(C(X) * u^2 * polylog n))`` bits — inputs with
condition numbers up to ~``1/u`` certify here and never touch a
superaccumulator, while heavy cancellation fails fast and escalates
to one exact binned deposit (:mod:`repro.adaptive.engine`).

Intermediate overflow needs no special-casing: non-finite partials
poison ``res``/``beta`` and the certificate fails closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

__all__ = ["CascadeCertificate", "certified_cascade_sum"]

#: Unit roundoff of binary64.
_U = 2.0 ** -53

#: Extra accumulation depth charged to ``np.sum``'s blocked pairwise
#: reduction (128-element blocks folded with an 8-way unrolled inner
#: loop) on top of the ``log2`` recursion depth. 16 is conservative;
#: it only scales ``beta``'s relative inflation term (O(u)).
_NP_SUM_EXTRA_DEPTH = 16

#: One quantum of the subnormal range: absolute slack added to ``beta``
#: so a bound whose float computation underflowed to zero can never
#: understate a genuinely non-zero residual.
_SUBNORMAL_ULP = 5e-324


@dataclass(frozen=True)
class CascadeCertificate:
    """Outcome of one certified cascade pass.

    Attributes:
        value: the candidate sum (correctly rounded iff ``certified``).
        error_bound: rigorous upper bound on ``|value - exact sum|``
            (``|r| + beta``; 0.0 for exact results).
        certified: True iff the residual interval provably lies inside
            ``value``'s rounding cell — i.e. ``value`` is the correctly
            rounded exact sum.
        margin_bits: ``log2(gap / beta)`` where ``gap`` is the distance
            from the residual to the nearest rounding-cell boundary —
            how many doublings of the uncertified mass the certificate
            would survive. ``inf`` for exact results, ``-inf`` when the
            residual interval already straddles a boundary.
        n: number of summands.
        remainder: the exact TwoSum leftover ``r``: ``value + remainder``
            is within ``residual_bound`` of the exact sum, with both
            floats known exactly. Distributed reducers fold both and
            carry only ``residual_bound`` as uncertainty.
        residual_bound: rigorous bound ``beta`` on the mass the cascade
            did not capture (second-order; 0.0 when the transformation
            closed exactly).
    """

    value: float
    error_bound: float
    certified: bool
    margin_bits: float
    n: int
    remainder: float = 0.0
    residual_bound: float = 0.0


def _frac_log2(fr: Fraction) -> float:
    """``log2`` of a positive Fraction, safe for ratios beyond float range."""
    num, den = fr.numerator, fr.denominator
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    elif shift < 0:
        num <<= -shift
    return shift + math.log2(num / den)  # num/den now in [0.5, 2)


def _cascade(arr: np.ndarray, err_buf: np.ndarray) -> Tuple[float, int]:
    """Halving TwoSum tree: returns ``(root, error count in err_buf)``.

    Each level pairs the first half against the second half (contiguous
    slices — markedly faster than stride-2 gathers) and runs the
    branch-free Knuth TwoSum elementwise, writing the exact per-pair
    rounding errors into ``err_buf``. Error-free transformation:
    ``sum(arr) == root + sum(err_buf[:count])`` as real numbers. Level
    sizes halve, so ``count < arr.size`` always fits the buffer.
    """
    filled = 0
    cur = arr
    while cur.size > 1:
        h = cur.size >> 1
        a = cur[:h]
        b = cur[h : 2 * h]
        s = a + b
        bv = s - a
        e = err_buf[filled : filled + h]
        np.subtract(s, bv, out=e)  # virtual a' = s - bv
        np.subtract(a, e, out=e)  # a - a'
        np.subtract(b, bv, out=bv)  # reuse bv for b's residual
        e += bv  # err = (a - a') + (b - bv)
        filled += h
        if cur.size & 1:
            s = np.append(s, cur[2 * h])
        cur = s
    return float(cur[0]), filled


def certified_cascade_sum(arr: np.ndarray) -> CascadeCertificate:
    """Tier-0 pass: candidate sum + deterministic rounding certificate.

    Args:
        arr: finite float64 array (validation is the caller's job; the
            certificate itself fails closed on intermediate overflow).

    Returns:
        A :class:`CascadeCertificate`; ``certified=True`` guarantees
        ``value`` is the correctly rounded (nearest-even) exact sum.
    """
    n = int(arr.size)
    if n == 0:
        return CascadeCertificate(0.0, 0.0, True, math.inf, 0)
    if n == 1:
        # + 0.0 normalizes -0.0 like the superaccumulators do.
        return CascadeCertificate(float(arr[0]) + 0.0, 0.0, True, math.inf, 1)

    with np.errstate(over="ignore", invalid="ignore"):
        buf1 = np.empty(n, dtype=np.float64)
        main, m1 = _cascade(arr, buf1)
        errs = buf1[:m1]
        nz = int(np.count_nonzero(errs))
        if nz == 0:
            e = 0.0
            t2 = 0.0
            m2 = 0
        else:
            if nz < (m1 >> 1):
                errs = errs[errs != 0]  # compact when mostly exact pairs
            buf2 = np.empty(errs.size, dtype=np.float64)
            e, m2 = _cascade(errs, buf2)
            # reprolint: disable-next-line=FP003 -- bound accumulator; inflated by gamma(k) below
            t2 = float(np.sum(np.abs(buf2[:m2]))) if m2 else 0.0

    # res + r == main + e exactly (scalar TwoSum).
    res = main + e
    bv = res - main
    r = (main - (res - bv)) + (e - bv)

    # The uncaptured mass is sum(errs2), bounded by t2 = sum|errs2|.
    # t2 itself is a float pairwise sum of non-negative terms, so it
    # understates the true mass by at most the relative gamma of its
    # own accumulation depth — inflate by 2*k*u (k covers np.sum's
    # blocked recursion) plus one subnormal quantum against underflow.
    if m2 > 1:
        k = math.ceil(math.log2(m2)) + _NP_SUM_EXTRA_DEPTH
    else:
        k = 1 + _NP_SUM_EXTRA_DEPTH
    beta = t2 * (1.0 + 2.0 * k * _U)
    if t2 > 0.0:
        beta += _SUBNORMAL_ULP  # guards against the inflation rounding down

    if res == 0.0:  # reprolint: disable=FP002 -- exact-zero test to normalize -0.0
        res = 0.0  # normalize -0.0 to the accumulator rounding convention

    if not (math.isfinite(res) and math.isfinite(r) and math.isfinite(beta)):
        return CascadeCertificate(
            res if math.isfinite(res) else math.inf, math.inf, False, -math.inf, n
        )

    if beta == 0.0:  # reprolint: disable=FP002 -- beta==0 certifies every residual was captured
        # sum(errs) == e exactly, so main + e == sum(x) and res is the
        # hardware's nearest-even rounding of the exact sum — correctly
        # rounded by construction, midpoint ties included.
        return CascadeCertificate(res, abs(r), True, math.inf, n, r, 0.0)

    # True sum = res + r + delta with |delta| <= beta and r exact. It
    # rounds to res iff the offset interval [r - beta, r + beta] lies
    # strictly inside the open cell (-half_below, +half_above) — the
    # midpoints toward res's neighbours (asymmetric at binade edges).
    # Strictness also excludes midpoint ties, making the nearest-even
    # question moot. Exact rational comparisons; no rounding slack.
    lo = math.nextafter(res, -math.inf)
    hi = math.nextafter(res, math.inf)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return CascadeCertificate(res, abs(r) + beta, False, -math.inf, n)
    rf = Fraction(r)
    bf = Fraction(beta)
    half_above = (Fraction(hi) - Fraction(res)) / 2
    half_below = (Fraction(res) - Fraction(lo)) / 2
    gap = min(half_above - rf, half_below + rf)  # distance to nearest boundary
    certified = gap > bf
    margin = _frac_log2(gap / bf) if gap > 0 else -math.inf
    return CascadeCertificate(res, abs(r) + beta, certified, margin, n, r, beta)

"""The four experimental input distributions (paper §6.3, after [39]).

The paper's datasets are "randomly generated using four different
distributions as described in [Zhu & Hayes 2009]":

1. ``"well"`` — positive random numbers: condition number C(X) = 1
   (the "C(X)=1" panels);
2. ``"random"`` — a mix of positive and negative numbers generated
   uniformly at random;
3. ``"anderson"`` — Anderson's ill-conditioned data: random numbers
   with their arithmetic mean subtracted from each (heavy
   cancellation, and the exponent range collapses to ~the significand
   width regardless of delta — the Figure 2 discussion);
4. ``"sumzero"`` — numbers whose *real* sum is exactly zero
   (constructed as sign-paired values, shuffled), the worst case for
   iFastSum and an infinite condition number.

Two adversarial additions (not paper data) stress the final rounding
and the §4 stopping conditions:

5. ``"cancel"`` — massive cancellation with a tiny *non-zero* residual
   sum (huge but finite condition number);
6. ``"tie"`` — true sums landing on or one quantum away from a
   rounding-cell midpoint, where correct rounding hinges on the final
   bit.

Every distribution takes the exponent-spread parameter ``delta``: base
values are ``mantissa * 2**e`` with a 52-bit random mantissa in
``[1, 2)`` and ``e`` uniform over an integer window of width ``delta``
(paper: "the parameter delta defines an upper bound for the range of
exponents"; its maximum useful value for binary64 is 2046, and the
experiments sweep 10..2000).

All generators are deterministic in ``seed``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from repro.util.validation import check_positive_int

__all__ = [
    "DISTRIBUTIONS",
    "generate",
    "generate_well_conditioned",
    "generate_random_signs",
    "generate_anderson",
    "generate_sum_zero",
    "generate_massive_cancellation",
    "generate_near_ulp_tie",
    "exponent_window",
]

#: Highest exponent the generators will emit, kept a little below the
#: overflow boundary so partial sums of a billion same-signed values
#: stay finite (2**969 * 2**31 << 2**1024).
_E_MAX = 969


def exponent_window(delta: int) -> Tuple[int, int]:
    """Integer exponent window ``[lo, hi]`` of width ``delta``.

    Centered on zero, clipped from above at ``_E_MAX`` and from below
    at the bottom of the normal range; ``delta`` is capped at the
    binary64 maximum of 2046 like the paper's experiments.
    """
    delta = max(1, min(int(delta), 2046))
    hi = min(delta - delta // 2, _E_MAX)
    lo = max(hi - delta + 1, -1021)
    return lo, hi


def _magnitudes(rng: np.random.Generator, n: int, delta: int) -> np.ndarray:
    """Random positive values with exponents uniform over the window."""
    lo, hi = exponent_window(delta)
    mantissa = 1.0 + rng.integers(0, 1 << 52, size=n, dtype=np.int64) * 2.0**-52
    exponents = rng.integers(lo, hi + 1, size=n).astype(np.int32)
    return np.ldexp(mantissa, exponents)


def generate_well_conditioned(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Distribution 1: positive random values, ``C(X) = 1``."""
    check_positive_int(n, name="n")
    return _magnitudes(np.random.default_rng(seed), n, delta)


def generate_random_signs(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Distribution 2: uniform random values of both signs."""
    check_positive_int(n, name="n")
    rng = np.random.default_rng(seed)
    mags = _magnitudes(rng, n, delta)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    return mags * signs


def generate_anderson(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Distribution 3: Anderson's ill-conditioned data.

    Random positive values minus their (float) arithmetic mean: the sum
    collapses to near-cancellation noise, and the subtraction pulls all
    exponents toward the mean's, shrinking the effective exponent
    spread to roughly the significand width however large ``delta`` is.
    """
    check_positive_int(n, name="n")
    base = _magnitudes(np.random.default_rng(seed), n, delta)
    mean = float(np.mean(base))
    return base - mean


def generate_sum_zero(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Distribution 4: exact real sum of zero.

    Sign-paired construction: ``n // 2`` random magnitudes, each present
    once positively and once negatively, shuffled (odd ``n`` gets one
    literal zero). Exactly cancelling by construction; the condition
    number is infinite.
    """
    check_positive_int(n, name="n")
    rng = np.random.default_rng(seed)
    half = n // 2
    mags = _magnitudes(rng, half, delta)
    parts = [mags, -mags]
    if n % 2:
        parts.append(np.zeros(1))
    out = np.concatenate(parts) if parts else np.zeros(0)
    rng.shuffle(out)
    return out


def generate_massive_cancellation(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Stress distribution: huge paired mass, tiny non-zero residual sum.

    ``±m`` pairs spanning the exponent window cancel exactly; a small
    cohort of positive values pinned at the *bottom* of the window
    survives as the true sum. The condition number is enormous but
    finite (unlike ``"sumzero"``), so every digits-of-the-answer claim
    is falsifiable — the adversarial case for any error-bound
    stopping test, which must refuse to stop early.
    """
    check_positive_int(n, name="n")
    rng = np.random.default_rng(seed)
    lo, _hi = exponent_window(delta)
    n_resid = max(1, n // 16)
    n_pairs = (n - n_resid) // 2
    n_resid = n - 2 * n_pairs  # absorb odd leftover into the residual cohort
    mantissa = 1.0 + rng.integers(0, 1 << 52, size=n_resid, dtype=np.int64) * 2.0**-52
    resid = np.ldexp(mantissa, lo)
    parts = [resid]
    if n_pairs:
        mags = _magnitudes(rng, n_pairs, delta)
        parts += [mags, -mags]
    out = np.concatenate(parts)
    rng.shuffle(out)
    return out


def generate_near_ulp_tie(n: int, delta: int = 2000, seed: int = 0) -> np.ndarray:
    """Stress distribution: true sums a whisker from a rounding tie.

    One anchor value at the top of the exponent window, one value equal
    to half the anchor's ulp nudged by ``±1`` quantum at depth
    ``min(delta, 52)`` bits below (or not at all — an exact tie —
    cycling by seed), and exactly-cancelling padding pairs. The true
    sum therefore sits on or just beside the midpoint of the anchor's
    rounding cell: correct rounding hinges on the final quantum, the
    hardest regime for any certificate that hopes to stop early. The
    exponent span is structurally ~``53 + depth`` bits however small
    ``delta`` is.
    """
    check_positive_int(n, name="n")
    rng = np.random.default_rng(seed)
    lo_w, hi = exponent_window(delta)
    depth = int(min(max(int(delta), 1), 52))
    # Anchor in [2**hi, 2**(hi+1)): ulp = 2**(hi-52), half-ulp = 2**(hi-53).
    anchor = float(np.ldexp(1.0 + int(rng.integers(0, 1 << 52)) * 2.0**-52, hi))
    half = math.ldexp(1.0, hi - 53)
    direction = int(rng.integers(0, 3)) - 1  # -1 below tie, 0 exact tie, +1 above
    tie_term = half + direction * math.ldexp(1.0, hi - 53 - depth)  # exact: depth <= 52
    if n == 1:
        return np.array([anchor])
    elements = [np.array([anchor, tie_term])]
    pad = n - 2
    if pad:
        mags = _magnitudes(rng, pad // 2, delta) if pad // 2 else np.zeros(0)
        elements += [mags, -mags]
        if pad % 2:
            elements.append(np.zeros(1))
    out = np.concatenate(elements)
    rng.shuffle(out)
    return out


DISTRIBUTIONS: Dict[str, Callable[[int, int, int], np.ndarray]] = {
    "well": generate_well_conditioned,
    "random": generate_random_signs,
    "anderson": generate_anderson,
    "sumzero": generate_sum_zero,
    "cancel": generate_massive_cancellation,
    "tie": generate_near_ulp_tie,
}

#: Display names used by the figure harness, matching the paper panels
#: (the last two are this repo's adversarial additions, not paper data).
PANEL_NAMES = {
    "well": "C(X)=1",
    "random": "Random",
    "anderson": "Anderson's",
    "sumzero": "Sum=Zero",
    "cancel": "Massive-Cancel",
    "tie": "Near-Ulp-Tie",
}


def generate(
    distribution: str, n: int, *, delta: int = 2000, seed: int = 0
) -> np.ndarray:
    """Dispatch to one of the four distributions by key.

    Args:
        distribution: one of ``"well"``, ``"random"``, ``"anderson"``,
            ``"sumzero"``.
        n: number of values.
        delta: exponent-spread parameter (paper sweeps 10..2000).
        seed: RNG seed (deterministic output).
    """
    try:
        fn = DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown distribution {distribution!r}; expected one of "
            f"{sorted(DISTRIBUTIONS)}"
        ) from None
    return fn(n, delta, seed)

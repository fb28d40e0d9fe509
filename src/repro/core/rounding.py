"""Conversion of exact digit representations back to floating point.

This implements the last two steps of the paper's Section 3 algorithm:

* step 6 — propagate signed carries to turn an (alpha, beta)-regularized
  superaccumulator into a *non-overlapping* one
  (:func:`to_nonoverlapping`); and
* step 7 — locate the most significant non-zero component and round,
  using the truncated bits, to a floating-point number
  (:func:`round_digits`).

Also provided is :func:`round_scaled_int`, correct rounding of an exact
value ``V * 2**shift`` (``V`` an arbitrary-precision int) to binary64 in
a choice of rounding directions. It is both the reference everything
else is tested against and the workhorse the accumulators use when a
full big-integer view of the value is already at hand.
:func:`round_fraction` and :func:`sqrt_round_fraction` extend it to the
finishes of the reductions in :mod:`repro.reduce`: any rational (a mean,
a variance) and the square root of one (a norm), each rounded once.

Rounding-mode vocabulary:

* ``"nearest"`` — round-to-nearest, ties-to-even (IEEE default). A
  correctly rounded result is in particular *faithfully* rounded, the
  guarantee the paper targets.
* ``"down"`` / ``"up"`` / ``"zero"`` — directed modes, exposed so tests
  can check the faithfulness bracket ``RD(S) <= S* <= RU(S)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from repro.core.digits import RadixConfig, DEFAULT_RADIX
from repro.errors import RepresentationError

__all__ = [
    "round_scaled_int",
    "round_scaled_int_to_format",
    "round_fraction",
    "sqrt_round_fraction",
    "to_nonoverlapping",
    "canonicalize_sign",
    "round_digits",
    "round_windowed",
    "MAX_FINITE",
    "check_mode",
]

#: Largest finite binary64 value.
MAX_FINITE = math.ldexp(float((1 << 53) - 1), 971)

_MODES = ("nearest", "down", "up", "zero")


def check_mode(mode: str) -> str:
    """Return ``mode`` if it names a rounding direction, else raise ValueError."""
    if mode not in _MODES:
        raise ValueError(f"unknown rounding mode {mode!r}; expected one of {_MODES}")
    return mode


def _apply_direction(
    keep: int, rem_nonzero: bool, rem_half_cmp: int, keep_odd: bool,
    sign: int, mode: str,
) -> int:
    """Shared rounding decision: return increment (0 or 1) for ``keep``.

    ``rem_half_cmp`` is -1/0/+1 comparing the dropped remainder with one
    half of the dropped range (only meaningful for ``nearest``).
    """
    if mode == "nearest":
        if rem_half_cmp > 0 or (rem_half_cmp == 0 and keep_odd):
            return 1
        return 0
    if mode == "zero":
        return 0
    if mode == "down":  # toward -inf: bump magnitude only when negative
        return 1 if (sign < 0 and rem_nonzero) else 0
    if mode == "up":  # toward +inf
        return 1 if (sign > 0 and rem_nonzero) else 0
    raise ValueError(f"unknown rounding mode {mode!r}; expected one of {_MODES}")


def round_scaled_int(value: int, shift: int, mode: str = "nearest") -> float:
    """Round the exact real number ``value * 2**shift`` to binary64.

    Args:
        value: arbitrary-precision integer (any sign).
        shift: power-of-two scale (any sign).
        mode: one of ``"nearest"`` (default, ties-to-even), ``"down"``,
            ``"up"``, ``"zero"``.

    Returns:
        The correctly rounded float in the requested direction. Values
        beyond the finite range return ``±inf`` or ``±MAX_FINITE``
        according to IEEE overflow semantics for the mode. Tiny values
        round through the subnormal range to ``±0.0`` correctly.
    """
    check_mode(mode)
    if value == 0:
        return 0.0
    sign = -1 if value < 0 else 1
    a = -value if value < 0 else value

    msb = a.bit_length() - 1 + shift  # exponent of the leading bit
    if msb > 1023:
        # |value| >= 2**1024: beyond every finite double, for any tail.
        return _overflow_result(sign, mode)
    # Least significant representable bit position: normal numbers keep
    # 53 significant bits; below 2**-1022 the format pins the lsb at
    # 2**-1074 (gradual underflow).
    lsb = max(msb - 52, -1074)
    cut = lsb - shift  # low bits of `a` that cannot be represented

    if cut <= 0:
        # Every bit of `a` is representable: exact conversion.
        return math.ldexp(float(sign * a), shift)

    keep = a >> cut
    rem = a - (keep << cut)
    half = 1 << (cut - 1)
    rem_half_cmp = (rem > half) - (rem < half)
    keep += _apply_direction(
        keep, rem != 0, rem_half_cmp, bool(keep & 1), sign, mode
    )

    if keep == 0:
        # Entire magnitude rounded away (deep underflow).
        return -0.0 if sign < 0 else 0.0

    # Rounding may have carried into a new leading bit (keep == 2**53
    # when starting from a normal window); the product keep * 2**lsb is
    # still exact, we only need overflow detection.
    result_msb = keep.bit_length() - 1 + lsb
    if result_msb > 1023:
        return _overflow_result(sign, mode)
    return math.ldexp(float(sign * keep), lsb)


def round_fraction(value: Fraction, mode: str = "nearest") -> float:
    """Correctly rounded binary64 value of any Fraction.

    Handles non-dyadic rationals (from divisions) by scaling the
    quotient to 55 significant bits plus a sticky bit, then reusing the
    exact dyadic rounding machinery.
    """
    if value == 0:
        return 0.0
    num, den = value.numerator, value.denominator
    if den & (den - 1) == 0:
        return round_scaled_int(num, -(den.bit_length() - 1), mode)
    # Scale so the integer quotient carries >= 55 significant bits.
    sign = -1 if num < 0 else 1
    a, b = abs(num), den
    shift = 55 - (a.bit_length() - b.bit_length())
    if shift > 0:
        a <<= shift
    else:
        b <<= -shift
    q, r = divmod(a, b)
    # Fold the remainder into two sticky bits (cannot hit a rounding
    # boundary: q has >= 54 bits, the cut sits >= 2 bits above them).
    encoded = (q << 2) | (1 if r else 0)
    return round_scaled_int(sign * encoded, -(shift + 2), mode)


def sqrt_round_fraction(ss: Fraction) -> float:
    """Correctly rounded (to nearest) ``sqrt`` of a nonnegative Fraction.

    The finish of the ``norm2`` reduction: candidate floats' exact
    squares are compared against ``ss`` in integer arithmetic, so the
    root is rounded once, with no double rounding.
    """
    if ss == 0:
        return 0.0
    # Float estimate via even-power-of-two scaling so neither ss nor
    # sqrt(ss) under/overflows the float range prematurely.
    e = ss.numerator.bit_length() - ss.denominator.bit_length()
    k = (e - 100) // 2 if abs(e) > 600 else 0
    try:
        est = math.ldexp(math.sqrt(round_fraction(ss / Fraction(4) ** k)), k)
    except OverflowError:
        est = math.inf
    # reprolint: disable-next-line=FP002 -- infinity compare is exact by definition
    if est == math.inf or est >= MAX_FINITE:
        # overflow region: nearest rounds to inf iff sqrt(ss) reaches
        # the overflow midpoint 2**1024 - 2**970
        mid = Fraction(2) ** 1024 - Fraction(2) ** 970
        return math.inf if ss >= mid * mid else MAX_FINITE
    if est == 0.0:  # reprolint: disable=FP002 -- exact-zero seeds the subnormal walk
        est = 2.0**-1074
    lo = est
    # walk (at most a few ulps) until lo^2 <= ss < nextafter(lo)^2
    while Fraction(lo) * Fraction(lo) > ss:
        lo = math.nextafter(lo, 0.0)
    while True:
        hi = math.nextafter(lo, math.inf)
        # reprolint: disable-next-line=FP002 -- infinity compare is exact by definition
        if hi == math.inf or Fraction(hi) * Fraction(hi) > ss:
            break
        lo = hi
    hi = math.nextafter(lo, math.inf)
    if hi == math.inf:  # reprolint: disable=FP002 -- infinity compare is exact by definition
        mid = Fraction(2) ** 1024 - Fraction(2) ** 970
        return math.inf if ss >= mid * mid else lo
    # decide nearest by comparing ss against the midpoint's square
    mid = Fraction(lo) + Fraction(hi - lo) / 2  # exact dyadic midpoint
    if ss < mid * mid:
        return lo
    if ss > mid * mid:
        return hi
    # exact tie on the midpoint: even mantissa wins
    return lo if _mantissa_even(lo) else hi


def _mantissa_even(x: float) -> bool:
    m, _ = math.frexp(x)
    return int(m * 2**53) % 2 == 0


def round_scaled_int_to_format(
    value: int, shift: int, fmt, mode: str = "nearest"
) -> "tuple[int, int]":
    """Round ``value * 2**shift`` to an arbitrary base-2 format.

    The precision-independent generalization of :func:`round_scaled_int`
    (which is the binary64 specialization): ``fmt`` is a
    :class:`~repro.core.fpinfo.FloatFormat` with any mantissa width
    ``t`` and exponent width ``l``, including binary32, binary16 and
    quad. Returns a canonical pair ``(M, E)`` with the rounded value
    equal to ``M * 2**E`` exactly, ``|M| < 2**(t+1)``, and ``E`` at or
    above the format's subnormal floor — or ``(±1, None)``-style
    sentinels are avoided by returning ``M = 0, E = 0`` for zero and
    raising ``OverflowError`` when the rounded magnitude exceeds the
    format's largest finite value (callers decide their infinity
    semantics; binary64 callers get it prepackaged via
    :func:`round_scaled_int`).
    """
    if value == 0:
        return 0, 0
    sign = -1 if value < 0 else 1
    a = -value if value < 0 else value
    msb = a.bit_length() - 1 + shift
    lsb = max(msb - fmt.t, fmt.min_subnormal_exponent)
    cut = lsb - shift
    if cut <= 0:
        m = a << (-cut)
        if (m.bit_length() - 1 + lsb) > fmt.max_value_exponent:
            raise OverflowError("value exceeds the format's finite range")
        return sign * m, lsb
    keep = a >> cut
    rem = a - (keep << cut)
    half = 1 << (cut - 1)
    rem_half_cmp = (rem > half) - (rem < half)
    keep += _apply_direction(
        keep, rem != 0, rem_half_cmp, bool(keep & 1), sign, mode
    )
    if keep == 0:
        return 0, 0
    if keep == 1 << (fmt.t + 1):
        # rounding carried into a new leading bit: renormalize (exact)
        keep >>= 1
        lsb += 1
    if keep.bit_length() - 1 + lsb > fmt.max_value_exponent:
        raise OverflowError("value exceeds the format's finite range")
    return sign * keep, lsb


def _overflow_result(sign: int, mode: str) -> float:
    """IEEE overflow outcome per rounding direction.

    ``nearest`` overflows to infinity (any value reaching here is at
    least ``2**1024 - 2**970``); directed modes saturate at the largest
    finite value on the side they cannot cross.
    """
    if mode == "nearest":
        return sign * math.inf
    if mode == "zero":
        return sign * MAX_FINITE
    if mode == "down":
        return -math.inf if sign < 0 else MAX_FINITE
    return math.inf if sign > 0 else -MAX_FINITE


def to_nonoverlapping(
    digits: Sequence[int], radix: RadixConfig = DEFAULT_RADIX
) -> np.ndarray:
    """Propagate signed carries into a non-overlapping digit vector.

    Input digits may be any int64 values (typically (alpha, beta)-
    regularized); output digits lie in the *balanced, non-redundant*
    range ``[-R/2, R/2 - 1]``, so each value has exactly one
    representation and the sign of the number equals the sign of its
    leading non-zero digit.

    Note on the paper: Section 3 step 6 asks for a
    ``((R/2)-1, (R/2)-1)``-regularized result, i.e. digits in
    ``[-(R/2-1), R/2-1]``. That digit set has only ``R - 1`` values and
    cannot positionally represent every integer (GSD completeness needs
    ``alpha + beta + 1 >= R``); we use the standard balanced complete
    set ``[-R/2, R/2-1]``, which satisfies the only property the
    algorithm relies on — non-overlap with sign determined by the
    leading digit (the tail is bounded by ``(R/2)/(R-1) * R**j < R**j``).

    The scan is sequential here (it is a prefix computation; the PRAM
    module implements the parallel-prefix version the paper sketches).
    Output gains one top position for the final carry.
    """
    w = radix.w
    R = radix.R
    half = R >> 1
    out = np.zeros(len(digits) + 1, dtype=np.int64)
    carry = 0
    for i, d in enumerate(np.asarray(digits, dtype=np.int64)):
        tot = int(d) + carry
        rem = ((tot + half) % R) - half  # in [-R/2, R/2 - 1]
        carry = (tot - rem) >> w
        out[i] = rem
    if not -1 <= carry <= 1:
        raise RepresentationError(f"final carry {carry} out of range")
    out[len(digits)] = carry
    return out


def canonicalize_sign(
    digits: Sequence[int], radix: RadixConfig = DEFAULT_RADIX
) -> Tuple[int, np.ndarray]:
    """Rewrite a digit vector so all digits are non-negative.

    Returns ``(sign, magnitude_digits)`` with every output digit in
    ``[0, R - 1]`` and value ``== sign * sum(m_j R**j)``. This is the
    borrow-propagation pass that makes digit-wise rounding easy: once
    the tail is single-signed, "the truncated bits" of the paper's step
    7 reduce to one sticky flag.
    """
    w = radix.w
    arr = np.asarray(digits, dtype=np.int64)
    # Determine the overall sign from the most significant non-zero digit
    # of the non-overlapping form (valid because |tail| < R**j there; for
    # general regularized input we conservatively re-run after flipping).
    work = to_nonoverlapping(arr, radix)
    nz = np.flatnonzero(work)
    if nz.size == 0:
        return 0, np.zeros(1, dtype=np.int64)
    sign = 1 if work[nz[-1]] > 0 else -1
    if sign < 0:
        work = -work
    # Borrow pass: make every digit non-negative. Each step fixes digit i
    # at the cost of decrementing digit i+1; since the value is positive
    # and digits are bounded, the top digit ends non-negative.
    out = work.copy()
    R = radix.R
    for i in range(len(out) - 1):
        if out[i] < 0:
            # borrow: out[i] in [-R/2, -1] -> += R, guaranteed < R
            out[i] += R
            out[i + 1] -= 1
    if out[-1] < 0:
        raise RepresentationError("sign canonicalization failed (negative top)")
    return sign, out


def round_digits(
    digits: Sequence[int],
    base_index: int,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
) -> float:
    """Digit-wise rounding of a superaccumulator to a float (§3 step 7).

    Works window-wise: canonicalize the sign, take just enough leading
    digits to cover 53 bits plus a guard, collapse everything below into
    a sticky flag, and round. Cost is ``O(#limbs)`` integer work with a
    constant-size big-int head — no full big-integer reconstruction.

    ``digits[k]`` has weight ``R**(base_index + k)``.
    """
    sign, mag = canonicalize_sign(digits, radix)
    if sign == 0:
        return 0.0
    w = radix.w
    nz = np.flatnonzero(mag)
    top = int(nz[-1])
    # Window: enough digits for 53 bits + guard bit below the leading one.
    window = -(-55 // w) + 1
    lo = max(top - window + 1, 0)
    head = 0
    for k in range(top, lo - 1, -1):
        head = (head << w) + int(mag[k])
    sticky = bool(nz[0] < lo)
    head_shift = w * (base_index + lo)
    if not sticky:
        return round_scaled_int(sign * head, head_shift, mode)
    # Fold the sticky into two extra low bits: value = (4*head + 1) *
    # 2**(head_shift - 2) brackets the true value strictly between
    # 4*head and 4*head + 2, which is enough to decide any rounding
    # (the true tail is in (0, 1) units of 2**head_shift, and the
    # window guarantees the decision bit sits above those 2 bits).
    return round_scaled_int(sign * ((head << 2) | 1), head_shift - 2, mode)


#: Digit window large enough for :func:`round_windowed` to be exact:
#: 53 significand bits + guard below the leading digit, + 2 slack
#: digits so the tail-sentinel substitution cannot reach the cut.
def window_size(radix: RadixConfig = DEFAULT_RADIX) -> int:
    """Leading-component count sufficient for windowed rounding."""
    return -(-55 // radix.w) + 3


def round_windowed(
    top_digits: Sequence[int],
    base_index: int,
    tail_sign: int,
    radix: RadixConfig = DEFAULT_RADIX,
    mode: str = "nearest",
) -> float:
    """Round from the leading components plus a tail-sign summary.

    For streaming consumers (the external-memory algorithms) that hold
    only the most significant components of a *non-overlapping* balanced
    superaccumulator in memory: ``top_digits[k]`` weighs
    ``R**(base_index + k)``, and ``tail_sign in {-1, 0, +1}`` reports
    the sign of everything below ``R**base_index`` (for balanced
    non-overlapping digits that is the sign of the highest non-zero
    omitted digit, and the omitted magnitude is strictly below
    ``R**base_index``).

    Requires ``len(top_digits) >= window_size(radix)`` whenever
    ``tail_sign`` is non-zero, so the sticky sentinel sits far enough
    below the rounding cut; a short window with a non-zero tail raises.
    """
    if tail_sign not in (-1, 0, 1):
        raise ValueError("tail_sign must be -1, 0 or +1")
    digits = list(int(d) for d in top_digits)
    if tail_sign == 0:
        return round_digits(np.asarray(digits, dtype=np.int64), base_index, radix, mode)
    if len(digits) < window_size(radix):
        raise RepresentationError(
            "window too short for a non-zero tail; widen the hot window"
        )
    # Substitute the tail with a same-signed sentinel one position down:
    # any 0 < |tail| < R**base_index rounds identically because the cut
    # sits at least w*2 bits above the sentinel (window_size slack).
    sentinel = [tail_sign] + digits
    return round_digits(
        np.asarray(sentinel, dtype=np.int64), base_index - 1, radix, mode
    )

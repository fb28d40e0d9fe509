"""Error-free transformations (EFTs) on IEEE 754 binary64 values.

These are the classical building blocks the paper calls ``AddTwo``
(Section 1): given floats ``x`` and ``y``, compute floats ``(s, e)``
with ``s = x (+) y`` (the rounded sum) and ``x + y = s + e`` *exactly*.

Two implementations are provided:

* :func:`two_sum` — Knuth's branch-free 6-flop algorithm, valid for any
  finite ``x, y``.
* :func:`fast_two_sum` — Dekker's 3-flop algorithm, valid only when
  ``|x| >= |y|`` (or ``x == 0``).

Vectorized variants (``two_sum_vec``, ``two_product_vec``, ...) operate
elementwise on NumPy arrays; :mod:`repro.reduce` expands dot products
and squares with them.

All routines assume round-to-nearest-even, which is what CPython and
NumPy use on every supported platform.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "two_sum",
    "fast_two_sum",
    "two_sum_vec",
    "fast_two_sum_vec",
    "split",
    "split_vec",
    "two_product",
    "two_square",
    "two_product_vec",
    "two_square_vec",
    "product_domain_mask",
    "square_domain_mask",
]

# Dekker's splitting constant for binary64: 2**ceil(53/2) + 1.
_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(x: float, y: float) -> Tuple[float, float]:
    """Knuth's TwoSum: return ``(s, e)`` with ``s = fl(x+y)`` and
    ``x + y = s + e`` exactly.

    Branch-free and valid for all finite inputs regardless of relative
    magnitude. This is the ``AddTwo`` primitive of the paper.
    """
    s = x + y
    bb = s - x
    e = (x - (s - bb)) + (y - bb)
    return s, e


def fast_two_sum(x: float, y: float) -> Tuple[float, float]:
    """Dekker's FastTwoSum; requires ``|x| >= |y|`` (unchecked).

    Three flops instead of six. Used inside expansion arithmetic where
    the magnitude ordering is known.
    """
    s = x + y
    e = y - (s - x)
    return s, e


def two_sum_vec(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`two_sum` over arrays (broadcasting allowed)."""
    s = x + y
    bb = s - x
    e = (x - (s - bb)) + (y - bb)
    return s, e


def fast_two_sum_vec(
    x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`fast_two_sum`; caller guarantees ``|x| >= |y|``."""
    s = x + y
    e = y - (s - x)
    return s, e


def split(a: float) -> Tuple[float, float]:
    """Dekker's split: ``a = hi + lo`` with ``hi``/``lo`` 26/27-bit values.

    Used by :func:`two_product` on machines without FMA; exposed because
    the paper's Section 2 discussion of splitting mantissas into radix
    chunks is the integer analogue of this float-level split.
    """
    c = _SPLITTER * a
    hi = c - (c - a)
    lo = a - hi
    return hi, lo


def two_product(a: float, b: float) -> Tuple[float, float]:
    """Dekker/Veltkamp TwoProduct: ``(p, e)`` with ``a*b = p + e`` exactly.

    Not required for summation but rounds out the EFT toolkit (needed by
    the exact dot-product convenience in :mod:`repro.core.exact`).
    """
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def two_square(a: float) -> Tuple[float, float]:
    """TwoSquare: ``(p, e)`` with ``a*a = p + e`` exactly.

    The squared specialization of :func:`two_product` needs one split
    and saves two multiplies (the cross terms coincide).
    """
    p = a * a
    hi, lo = split(a)
    e = ((hi * hi - p) + 2.0 * (hi * lo)) + lo * lo
    return p, e


def split_vec(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise Dekker :func:`split` over arrays."""
    c = _SPLITTER * a
    hi = c - (c - a)
    lo = a - hi
    return hi, lo


def two_product_vec(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`two_product` over arrays (broadcasting allowed).

    FMA-free: uses the Dekker split exactly like the scalar routine, so
    the returned ``(p, e)`` pairs are bit-identical to looping
    :func:`two_product` over the elements. Exactness requires the
    products to stay inside :func:`product_domain_mask`'s band;
    :mod:`repro.reduce` sends only in-band elements here.
    """
    p = a * b
    a_hi, a_lo = split_vec(a)
    b_hi, b_lo = split_vec(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def two_square_vec(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`two_square` over arrays.

    Bit-identical to looping the scalar routine; one split per element
    instead of the two :func:`two_product_vec` would spend.
    """
    p = a * a
    hi, lo = split_vec(a)
    e = ((hi * hi - p) + 2.0 * (hi * lo)) + lo * lo
    return p, e


# ----------------------------------------------------------------------
# exactness domains: where TwoProduct / TwoSquare are error-free
# ----------------------------------------------------------------------

#: TwoSquare is error-free only while ``x*x`` stays inside the normal
#: range with its error term's last bit at or above ``2**-1074``: for
#: ``|x| > 2**-485`` that bit is at least ``2**(2*-485 - 104)``. Below
#: ``2**500`` neither the square nor the split overflows.
_SQ_LO = 2.0**-485
_SQ_HI = 2.0**500

#: TwoProduct needs the product's error term above the subnormal floor,
#: both factors below the point where Dekker's splitter overflows, and
#: the product far enough below overflow that ``a_hi*b_hi`` (about
#: ``2**-26`` larger than ``a*b`` at most) stays finite.
#: ``|x*y| > 2**-969`` forces ``ex + ey >= -970``, so the exact
#: product's last bit, ``2**(ex + ey - 104)``, is at least ``2**-1074``.
_DOT_P_LO = 2.0**-969
_DOT_P_HI = 2.0**1023
_DOT_AB_HI = 2.0**996


def square_domain_mask(x: np.ndarray) -> np.ndarray:
    """True where ``x*x`` expands error-free through TwoSquare.

    The band is ``2**-485 < |x| < 2**500``, plus exact zeros.
    """
    a = np.abs(x)
    # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
    return ((a > _SQ_LO) & (a < _SQ_HI)) | (a == 0.0)


def product_domain_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True where ``x*y`` expands error-free through TwoProduct.

    The band is ``2**-969 < |x*y| < 2**1023`` with ``|x|, |y| < 2**996``.
    Zero-paired elements are always in domain: their product term is an
    exact 0.0 regardless of the partner's magnitude (the expansion
    masks them out before the splitter can overflow on the partner).
    """
    with np.errstate(over="ignore", under="ignore"):
        p = np.abs(x * y)
    safe = (
        (p > _DOT_P_LO)
        & (p < _DOT_P_HI)
        & (np.abs(x) < _DOT_AB_HI)
        & (np.abs(y) < _DOT_AB_HI)
    )
    # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
    return safe | (x == 0.0) | (y == 0.0)

"""High-level exact summation API.

These are the entry points a downstream user calls; everything else in
:mod:`repro.core` is machinery. ``exact_sum`` returns the correctly
rounded (hence faithfully rounded) float sum of any finite float64
array using the representation of the caller's choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "exact_sum",
    "exact_sum_scaled",
    "exact_sum_fraction",
    "exact_sum_to_format",
]

_METHODS = ("sparse", "small", "dense", "auto")


def _build(values: np.ndarray, method: str, radix: RadixConfig):
    # "auto" is one binned deposit, the fastest exact fold, resolved to
    # a sparse accumulator. The other methods fold through the kernel
    # registry, so this module holds no representation-specific build
    # code of its own.
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if method == "auto":
        from repro.kernels.binned import BinnedPartial

        partial = BinnedPartial(radix)
        partial.deposit(values)
        return partial.to_sparse()
    from repro.kernels import get_kernel

    return get_kernel(method, radix=radix).fold(values)


def exact_sum(
    values: Iterable[float],
    *,
    method: str = "auto",
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> float:
    """Faithfully rounded sum of ``values``.

    Args:
        values: any array-like of finite float64 values.
        method: representation — ``"auto"`` (one deposit into exponent
            bins, :class:`~repro.kernels.binned.BinnedPartial`),
            ``"sparse"`` (the paper's sparse superaccumulator),
            ``"small"`` (Neal-style dense fixed-size), ``"dense"``
            (full fixed-point array), or any registered kernel name.
        mode: rounding direction; ``"nearest"`` (default) is correct
            rounding, which implies faithful rounding.
        radix: digit-width configuration.

    Returns:
        The rounded sum; exact intermediate arithmetic guarantees the
        result is independent of input order — every method returns the
        same bits on the same input.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    if method in _METHODS:
        return _build(arr, method, radix).to_float(mode)
    # Any registered kernel name works as a method: one fold + round
    # through the generic schedule, so new kernels are usable here
    # without touching this module.
    from repro.kernels import get_kernel, kernel_sum

    try:
        kernel = get_kernel(method, radix=radix)
    except ValueError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_METHODS} "
            f"or a registered kernel name"
        ) from None
    return kernel_sum(kernel, [arr], mode=mode)


def exact_sum_scaled(
    values: Iterable[float],
    *,
    method: str = "auto",
    radix: RadixConfig = DEFAULT_RADIX,
) -> Tuple[int, int]:
    """Exact sum as ``(V, shift)`` with value ``V * 2**shift``.

    Only the value ``V * 2**shift`` is promised: two methods may return
    different pairs for the same non-zero sum. A zero sum is always
    ``(0, 0)``.
    """
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    v, shift = _build(arr, method, radix).to_scaled_int()
    return (v, shift) if v else (0, 0)


def exact_sum_fraction(
    values: Iterable[float],
    *,
    radix: RadixConfig = DEFAULT_RADIX,
) -> Fraction:
    """Exact sum as a :class:`fractions.Fraction`."""
    v, s = exact_sum_scaled(values, radix=radix)
    return Fraction(v, 1) * Fraction(2) ** s


def exact_sum_to_format(
    values: Iterable[float],
    fmt,
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> Tuple[int, int]:
    """Faithfully rounded sum targeted at *any* base-2 format.

    The precision-independent endpoint of the paper's pipeline: the
    exact sum of (binary64) inputs rounded once to a caller-chosen
    :class:`~repro.core.fpinfo.FloatFormat` — binary32, binary16, quad,
    or anything custom. Returns the canonical ``(M, E)`` mantissa/
    exponent pair (``value == M * 2**E``); raises ``OverflowError`` when
    the rounded magnitude exceeds the format's finite range.

    Note this is *not* the same as rounding to binary64 first and
    converting (double rounding can differ by one target ulp).
    """
    from repro.core.rounding import round_scaled_int_to_format

    v, s = exact_sum_scaled(values, radix=radix)
    return round_scaled_int_to_format(v, s, fmt, mode)


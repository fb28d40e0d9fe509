"""Shared utilities: bit manipulation, validation, timing."""

from repro.util.bits import (
    bit_length,
    floor_div,
    floor_mod,
    trailing_zeros,
)
from repro.util.timing import Timer
from repro.util.validation import (
    check_finite_array,
    check_positive_int,
    ensure_float64_array,
)

__all__ = [
    "bit_length",
    "floor_div",
    "floor_mod",
    "trailing_zeros",
    "Timer",
    "check_finite_array",
    "check_positive_int",
    "ensure_float64_array",
]

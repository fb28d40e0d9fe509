"""Core exact-summation machinery: the paper's primary contribution.

Public surface:

* number representations — :class:`SparseSuperaccumulator` (the carry-
  free (alpha, beta)-regularized representation of Section 2),
  :class:`SmallSuperaccumulator` / :class:`DenseSuperaccumulator`
  (dense comparators), :class:`TruncatedSparseSuperaccumulator` (§4);
* primitives — error-free transforms, radix digit machinery, rounding;
* high-level API — :func:`exact_sum`, :func:`condition_number`.
"""

from repro.core.apfloat import (
    APFloat,
    exact_sum_apfloat,
    round_apfloat_sum_to_float,
)
from repro.core.condition import condition_number, condition_number_exact
from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.eft import fast_two_sum, split, two_product, two_sum
from repro.core.exact import (
    exact_sum,
    exact_sum_fraction,
    exact_sum_scaled,
)
from repro.core.exact import exact_sum_to_format
from repro.core.fixedpoint import FixedPointRegister
from repro.core.fpinfo import BINARY32, BINARY64, FloatFormat, decompose, compose
from repro.core.rounding import round_scaled_int
from repro.core.sparse import SparseSuperaccumulator
from repro.core.superaccumulator import DenseSuperaccumulator, SmallSuperaccumulator
from repro.core.truncated import (
    TruncatedSparseSuperaccumulator,
    stopping_condition_addtwo,
    stopping_condition_exponent,
)

__all__ = [
    "APFloat",
    "exact_sum_apfloat",
    "round_apfloat_sum_to_float",
    "condition_number",
    "condition_number_exact",
    "DEFAULT_RADIX",
    "RadixConfig",
    "fast_two_sum",
    "split",
    "two_product",
    "two_sum",
    "exact_sum",
    "exact_sum_fraction",
    "exact_sum_scaled",
    "exact_sum_to_format",
    "FixedPointRegister",
    "BINARY32",
    "BINARY64",
    "FloatFormat",
    "decompose",
    "compose",
    "round_scaled_int",
    "SparseSuperaccumulator",
    "DenseSuperaccumulator",
    "SmallSuperaccumulator",
    "TruncatedSparseSuperaccumulator",
    "stopping_condition_addtwo",
    "stopping_condition_exponent",
]

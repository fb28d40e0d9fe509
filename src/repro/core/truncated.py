"""Gamma-truncated sparse superaccumulators and stopping conditions (§4).

The condition-number-sensitive algorithm does not carry full
superaccumulators up its summation tree: it keeps only the ``r`` most
significant *active* components of every partial sum (a *r-truncated
sparse superaccumulator*), which caps the per-merge cost at ``O(r)``.
Truncation makes partial sums lossy, so after the tree pass the
algorithm checks a **stopping condition** — a proof that everything
ever truncated is too small to affect the faithfully rounded result —
and squares ``r`` and retries otherwise.

Both sufficient conditions from the paper are implemented:

* :func:`stopping_condition_addtwo` — the float test
  ``y == y (+) n*eps_min == y (-) n*eps_min``;
* :func:`stopping_condition_exponent` — the simplified exponent-gap
  test: lsb exponent of ``y`` at least ``ceil(log2 n)`` above the
  exponent of the least significant retained component.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.core.sparse import SparseSuperaccumulator
from repro.util.validation import check_positive_int

__all__ = [
    "TruncatedSparseSuperaccumulator",
    "stopping_condition_addtwo",
    "stopping_condition_exponent",
]


class TruncatedSparseSuperaccumulator:
    """A sparse superaccumulator capped at its ``gamma`` top components.

    Attributes:
        gamma: maximum number of (most significant) active components
            retained after every operation.
        acc: the underlying :class:`SparseSuperaccumulator` holding the
            retained components.
        truncated: True iff any component has ever been dropped — i.e.
            whether the held value may differ from the exact sum.
    """

    __slots__ = ("gamma", "acc", "truncated")

    def __init__(
        self,
        gamma: int,
        radix: RadixConfig = DEFAULT_RADIX,
        *,
        acc: Optional[SparseSuperaccumulator] = None,
        truncated: bool = False,
    ) -> None:
        self.gamma = check_positive_int(gamma, name="gamma")
        self.acc = acc if acc is not None else SparseSuperaccumulator.zero(radix)
        self.truncated = truncated
        self._truncate()

    @classmethod
    def from_float(
        cls, x: float, gamma: int, radix: RadixConfig = DEFAULT_RADIX
    ) -> "TruncatedSparseSuperaccumulator":
        """Leaf conversion with truncation applied immediately."""
        return cls(gamma, radix, acc=SparseSuperaccumulator.from_float(x, radix))

    @classmethod
    def from_floats(
        cls, values: Iterable[float], gamma: int, radix: RadixConfig = DEFAULT_RADIX
    ) -> "TruncatedSparseSuperaccumulator":
        """Bulk conversion: exact accumulate, then truncate once.

        Matches a sequential leaf-block build; truncation information is
        still tracked faithfully (dropped => ``truncated``).
        """
        return cls(gamma, radix, acc=SparseSuperaccumulator.from_floats(values, radix))

    def _truncate(self) -> None:
        extra = self.acc.active_count - self.gamma
        if extra > 0:
            # Dropping active-but-zero components loses no value and
            # does not invalidate the stopping analysis.
            if self.acc.digits[:extra].any():
                self.truncated = True
            self.acc = SparseSuperaccumulator(
                self.acc.radix,
                self.acc.indices[extra:],
                self.acc.digits[extra:],
                _validated=True,
            )

    def add(
        self, other: "TruncatedSparseSuperaccumulator"
    ) -> "TruncatedSparseSuperaccumulator":
        """Carry-free merge followed by truncation back to ``gamma``."""
        if other.gamma != self.gamma:
            raise ValueError("gamma mismatch between truncated accumulators")
        return TruncatedSparseSuperaccumulator(
            self.gamma,
            self.acc.radix,
            acc=self.acc.add(other.acc),
            truncated=self.truncated or other.truncated,
        )

    @property
    def least_retained_exponent(self) -> int:
        """Bit exponent ``E_ir`` of the least significant retained component.

        Every value ever truncated from this accumulator (or anything
        merged into it) has magnitude strictly below ``2**E_ir`` — the
        quantity the stopping conditions compare against.
        """
        if self.acc.indices.size == 0:
            return -(1 << 30)  # effectively -infinity: nothing retained
        return self.acc.radix.w * int(self.acc.indices[0])

    def to_float(self, mode: str = "nearest") -> float:
        """Round the *retained* value (candidate result for §4)."""
        return self.acc.to_float(mode)

    def __repr__(self) -> str:
        return (
            f"TruncatedSparseSuperaccumulator(gamma={self.gamma}, "
            f"active={self.acc.active_count}, truncated={self.truncated})"
        )


def stopping_condition_addtwo(y: float, n: int, e_min: int) -> bool:
    """Paper's first sufficient stopping condition (float-arithmetic form).

    ``min = 2**e_min`` bounds the magnitude of any single truncated
    value; the total truncation over an n-input sum is below
    ``n * min``. The result ``y`` is safe if adding or subtracting that
    bound leaves it unchanged under ordinary float arithmetic.

    Args:
        y: candidate rounded sum from the truncated computation.
        n: number of inputs in the summation.
        e_min: bit exponent ``E_ir`` of the least retained component.
    """
    if n <= 0:
        return True
    try:
        bound = math.ldexp(float(n), e_min)
    except OverflowError:
        return False
    # reprolint: disable-next-line=FP002 -- the AddTwo test IS this exact comparison (paper Lemma)
    return y == y + bound and y == y - bound


def stopping_condition_exponent(y: float, n: int, e_min: int) -> bool:
    """Paper's simplified sufficient stopping condition (exponent form).

    True when the exponent of the least significant bit of ``y`` is at
    least ``ceil(log2 n)`` above ``e_min``: even ``n`` worst-case
    truncated units cannot reach ``y``'s rounding position. Stricter
    than the AddTwo form but branch-free.
    """
    if n <= 0:
        return True
    if y == 0.0:  # reprolint: disable=FP002 -- exact-zero carries no magnitude information
        return False  # no information about the magnitude of the sum
    # lsb exponent of y: ulp(y) = 2**lsb for normal y.
    lsb = math.frexp(math.ulp(y))[1] - 1
    return lsb >= e_min + max(1, math.ceil(math.log2(n)))

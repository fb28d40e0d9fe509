"""Reduction ops: error-free expansions composed with sum kernels.

The paper's machinery makes *summation* exact; the reductions users
actually need — dot products, norms, moments — are sums of error-free
transformed terms. A :class:`ReduceOp` declares exactly that
composition:

* ``expand`` turns the float inputs into one or two **term streams**
  whose exact sums equal the exact mathematical quantities (via the
  vectorized EFTs :func:`repro.core.eft.two_product_vec` /
  :func:`repro.core.eft.two_square_vec`);
* any registered :class:`~repro.kernels.base.SumKernel` folds the terms
  through the existing exact machinery on any execution plane;
* ``finish`` converts the folded result into the op's value with one
  final rounding — so the returned float is the correctly rounded value
  of the true mathematical quantity for the given inputs.

Ops split by what their finish needs:

* **rounded-sum ops** (``sum``, ``dot``): the answer *is* the correctly
  rounded sum of the terms.
* **exact-fraction ops** (``norm2``, ``mean``, ``var``): the finish
  performs algebra (square root, division) on the *exact* term sum
  (:meth:`~repro.kernels.base.SumKernel.exact_fraction`) before the
  single rounding.

Every kernel is exact, so every kernel hosts every op.

Expansion exactness has a domain: TwoProduct/TwoSquare are error-free
only while the products neither overflow nor lose bits to underflow
(and Dekker's splitter itself overflows above ``2**996``).
:func:`repro.core.eft.product_domain_mask` and
:func:`~repro.core.eft.square_domain_mask` (re-exported here) define
that band. A product outside it is still an exact scaled integer, so
:meth:`ReduceOp.expand_exact` sends the elements the mask rejects
through :func:`exact_products`, exact over the whole float range, and
the local planes add that part in the finish. Serve and cluster ingest
fold into kernel partials that span only the binary64 range, so they
call ``check_domain`` instead, which raises
:class:`~repro.errors.ReductionRangeError` before anything is folded.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.eft import (
    product_domain_mask,
    square_domain_mask,
    two_product_vec,
    two_square_vec,
)
from repro.core.fpinfo import decompose_vec
from repro.core.rounding import round_fraction, sqrt_round_fraction
from repro.errors import EmptyStreamError, ReductionRangeError
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "ReduceOp",
    "SumOp",
    "DotOp",
    "Norm2Op",
    "MeanOp",
    "VarOp",
    "register_op",
    "get_op",
    "op_names",
    "exact_products",
    "square_domain_mask",
    "product_domain_mask",
]

#: The exact part of the elements outside an op's expansion band, one
#: Fraction per term stream, or None when that part is zero.
Rest = Optional[Tuple[Fraction, ...]]


def _require_domain(mask: np.ndarray, op_name: str, primitive: str) -> None:
    if bool(np.all(mask)):
        return
    bad = int(np.count_nonzero(~mask))
    raise ReductionRangeError(
        f"{op_name}: {bad} input(s) outside the error-free {primitive} "
        f"domain (product magnitude must stay inside the normal range); "
        f"stream ingest keeps binary64-range partials, so reduce such "
        f"data on a local plane (repro.reduce)"
    )


def exact_products(x: np.ndarray, y: np.ndarray) -> Fraction:
    """``sum(x_i * y_i)`` exactly, for finite factors of any magnitude.

    The full-range route for the elements a domain mask rejects. Each
    factor is an integer mantissa times a power of two
    (:func:`~repro.core.fpinfo.decompose_vec`), so each product is an
    exact scaled integer; the products are summed over their least
    exponent in Python ints. That costs interpreter work per element,
    so only out-of-band elements come here.
    """
    if x.size == 0:
        return Fraction(0)
    mx, ex = decompose_vec(x)
    my, ey = decompose_vec(y)
    shift = ex + ey
    lo = int(shift.min())
    total = sum(
        (a * b) << (s - lo)
        for a, b, s in zip(mx.tolist(), my.tolist(), shift.tolist())
    )
    return Fraction(total) * Fraction(2) ** lo


def _product_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Zero-paired elements are exact but the huge partner would
    # overflow Dekker's splitter into a nan error term: mask those
    # term pairs to an exact 0.0 after the vectorized expansion.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        p, e = two_product_vec(x, y)
    # reprolint: disable-next-line=FP002 -- exact-zero mask, not a tolerance
    zero = (x == 0.0) | (y == 0.0)
    if zero.any():
        p = np.where(zero, 0.0, p)
        e = np.where(zero, 0.0, e)
    return np.concatenate([p, e])


def _square_terms(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    return np.concatenate(two_square_vec(x))


def _split_products(terms, mask: np.ndarray, x: np.ndarray, y: np.ndarray):
    """``terms`` of the in-band products, and the exact sum of the rest.

    The rest is None when it is zero: the op then finishes from the
    folded terms alone, as it does for in-band data.
    """
    if bool(mask.all()):
        return terms(x, y), None
    out = ~mask
    return terms(x[mask], y[mask]), exact_products(x[out], y[out]) or None


class ReduceOp(ABC):
    """One reduction declared as expansion + kernel fold + finish.

    Class attributes:
        name: registry name.
        arity: number of input arrays (1 or 2).
        streams: independent term streams the op folds (1, or 2 when
            the finish needs two exact sums — e.g. ``var`` needs both
            ``sum(x)`` and ``sum(x^2)``).
        needs_exact: True when the finish consumes exact Fractions
            (division / square root before the single rounding).
    """

    name: str = "?"
    arity: int = 1
    streams: int = 1
    needs_exact: bool = False

    def validate(
        self, x, y=None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Coerce inputs to finite float64 arrays; shape-check pairs."""
        xa = ensure_float64_array(x)
        check_finite_array(xa)
        if self.arity == 2:
            if y is None:
                raise ValueError(f"op {self.name!r} needs two arrays")
            ya = ensure_float64_array(y)
            if xa.shape != ya.shape:
                raise ValueError("length mismatch")
            check_finite_array(ya)
            return xa, ya
        if y is not None:
            raise ValueError(f"op {self.name!r} takes a single array")
        return xa, None

    def check_domain(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> None:
        """Raise :class:`ReductionRangeError` if expansion would be inexact.

        The stream-ingest check (serve and cluster); local planes call
        :meth:`expand_exact`, which takes any finite input.
        """

    @abstractmethod
    def expand(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, ...]:
        """In-band inputs -> ``streams`` term arrays whose exact sums
        finish the op (the caller has run :meth:`check_domain`)."""

    def expand_exact(
        self, x: np.ndarray, y: Optional[np.ndarray] = None
    ) -> Tuple[Tuple[np.ndarray, ...], Rest]:
        """Any finite inputs -> the term arrays of the in-band elements,
        plus the exact per-stream sums of the rest (:data:`Rest`)."""
        return self.expand(x, y), None

    def finish_rounded(self, value: float, count: int, mode: str) -> float:
        """Finish from the correctly rounded term sum (rounded-sum ops)."""
        if self.needs_exact:
            raise TypeError(
                f"op {self.name!r} finishes from exact fractions, not a "
                f"rounded term sum"
            )
        return value

    @abstractmethod
    def finish_exact(
        self, fracs: Sequence[Fraction], count: int, mode: str
    ) -> float:
        """Finish from the exact term-sum Fractions (one per stream)."""

    def describe(self) -> Dict[str, object]:
        """Flat summary for CLIs and candidate tables."""
        return {
            "op": self.name,
            "arity": self.arity,
            "streams": self.streams,
            "needs_exact": self.needs_exact,
        }


class SumOp(ReduceOp):
    """Plain summation — the identity expansion.

    Exists so "sum" is just another op: every plane's reduction path
    degenerates to exactly the PR-1..8 sum pipeline.
    """

    name = "sum"

    def expand(self, x, y=None):
        return (x,)

    def finish_exact(self, fracs, count, mode):
        return round_fraction(fracs[0], mode)


class DotOp(ReduceOp):
    """Inner product: terms are TwoProduct ``(p, e)`` pairs.

    ``sum(x*y) == sum(terms)`` exactly, so the correctly rounded dot is
    the correctly rounded term sum.
    """

    name = "dot"
    arity = 2

    def check_domain(self, x, y=None):
        _require_domain(product_domain_mask(x, y), self.name, "TwoProduct")

    def expand(self, x, y=None):
        return (_product_terms(x, y),)

    def expand_exact(self, x, y=None):
        terms, rest = _split_products(
            _product_terms, product_domain_mask(x, y), x, y
        )
        return (terms,), rest and (rest,)

    def finish_exact(self, fracs, count, mode):
        return round_fraction(fracs[0], mode)


class Norm2Op(ReduceOp):
    """Euclidean norm: terms are TwoSquare pairs; finish is an exact sqrt.

    The square root of the exact rational sum-of-squares is rounded by
    comparing candidate floats' exact squares against it
    (:func:`repro.core.rounding.sqrt_round_fraction`) — no double
    rounding.
    Only nearest rounding is defined; the norm of nothing is 0.0.
    """

    name = "norm2"
    needs_exact = True

    def check_domain(self, x, y=None):
        _require_domain(square_domain_mask(x), self.name, "TwoSquare")

    def expand(self, x, y=None):
        return (_square_terms(x),)

    def expand_exact(self, x, y=None):
        terms, rest = _split_products(_square_terms, square_domain_mask(x), x, x)
        return (terms,), rest and (rest,)

    def finish_exact(self, fracs, count, mode):
        if mode != "nearest":
            raise ValueError(
                f"norm2 defines nearest rounding only, not mode={mode!r}"
            )
        return sqrt_round_fraction(fracs[0])


class MeanOp(ReduceOp):
    """Arithmetic mean: identity expansion, exact division at finish."""

    name = "mean"
    needs_exact = True

    def expand(self, x, y=None):
        return (x,)

    def finish_exact(self, fracs, count, mode):
        if count == 0:
            raise EmptyStreamError("mean of empty reduction")
        return round_fraction(fracs[0] / count, mode)


class VarOp(ReduceOp):
    """Variance: two term streams (values, TwoSquare terms).

    Finishes as ``(sum(x^2) - sum(x)^2/n) / (n - ddof)`` entirely in
    exact rational arithmetic — immune to the catastrophic cancellation
    of the textbook float formulas — then rounds once.
    """

    name = "var"
    streams = 2
    needs_exact = True

    def __init__(self, ddof: int = 0) -> None:
        # The one ddof check: reduce.var, RunningStats.variance and the
        # serve/cluster moments read all construct their VarOp here.
        if isinstance(ddof, bool) or not isinstance(ddof, numbers.Integral) or ddof < 0:
            raise ValueError("'ddof' must be a non-negative integer")
        self.ddof = int(ddof)

    def check_domain(self, x, y=None):
        _require_domain(square_domain_mask(x), self.name, "TwoSquare")

    def expand(self, x, y=None):
        return (x, _square_terms(x))

    def expand_exact(self, x, y=None):
        terms, rest = _split_products(_square_terms, square_domain_mask(x), x, x)
        return (x, terms), rest and (Fraction(0), rest)

    def finish_exact(self, fracs, count, mode):
        n = count
        if n - self.ddof <= 0:
            raise EmptyStreamError("need more observations than ddof")
        s, ss = fracs
        return round_fraction((ss - s * s / n) / (n - self.ddof), mode)

    def describe(self):
        out = super().describe()
        out["ddof"] = self.ddof
        return out


# ---------------------------------------------------------------------------
# registry

_OPS: Dict[str, ReduceOp] = {}


def register_op(op: ReduceOp) -> ReduceOp:
    """Add an op to the registry (last registration wins, like kernels)."""
    _OPS[op.name] = op
    return op


def get_op(name: str) -> ReduceOp:
    """Look up a registered op by name."""
    try:
        return _OPS[name]
    except KeyError:
        raise ValueError(
            f"unknown reduction op {name!r}; expected one of {op_names()}"
        ) from None


def op_names() -> List[str]:
    """Sorted names of all registered ops."""
    return sorted(_OPS)


register_op(SumOp())
register_op(DotOp())
register_op(Norm2Op())
register_op(MeanOp())
register_op(VarOp(ddof=0))

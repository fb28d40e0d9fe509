"""Exact geometric predicates built on exact summation.

Computational geometry is the paper's headline application: geometric
predicates are signs of small determinants, and a single wrong sign
(from float round-off) derails hulls, triangulations, and meshes. This
module computes such determinants **exactly** by (1) expanding every
monomial error-free with TwoProduct into a list of floats whose sum is
exactly the monomial, and (2) summing all terms with a sparse
superaccumulator. The result's *sign* is therefore always correct.

An adaptive fast path (Shewchuk-style floating-point filter) evaluates
the float determinant with a forward error bound first and only falls
through to the exact evaluation when the sign is in doubt — keeping
the common case at float speed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import List, Sequence

import numpy as np

from repro.core.eft import product_domain_mask, two_product, two_sum
from repro.core.exact import exact_sum
from repro.core.rounding import round_fraction
from repro.errors import ReductionRangeError

__all__ = [
    "product_expansion",
    "exact_det",
    "exact_det_sign",
    "orient2d",
    "orient2d_fast",
    "orient3d",
    "incircle",
]

# Unit roundoff of binary64.
_U = 2.0**-53


def product_expansion(factors: Sequence[float]) -> List[float]:
    """Floats whose sum is *exactly* ``prod(factors)``.

    Multiplying a k-term expansion by a float with TwoProduct +
    TwoSum doubles the term count, so a product of ``m`` floats yields
    at most ``2**(m-1)`` terms. Intended for the tiny ``m <= 4`` of
    geometric predicates.

    Raises:
        ReductionRangeError: if a TwoProduct would leave the band where
            it is error-free (:func:`repro.core.eft.product_domain_mask`)
            — an error term below the subnormal floor, or an overflow.
    """
    terms = [float(factors[0])]
    for f in factors[1:]:
        f = float(f)
        if not product_domain_mask(np.array(terms), np.full(len(terms), f)).all():
            raise ReductionRangeError(
                "product expansion leaves the error-free TwoProduct band"
            )
        new_terms: List[float] = []
        carry = 0.0
        for t in terms:
            p, e = two_product(t, f)
            # fold the running partials with TwoSum to keep everything exact
            if e != 0.0:  # reprolint: disable=FP002 -- EFT residual is exact; zero test drops true zeros
                new_terms.append(e)
            s, c = two_sum(carry, p)
            carry = s
            if c != 0.0:  # reprolint: disable=FP002 -- EFT residual is exact; zero test drops true zeros
                new_terms.append(c)
        if carry != 0.0:  # reprolint: disable=FP002 -- EFT residual is exact; zero test drops true zeros
            new_terms.append(carry)
        terms = new_terms if new_terms else [0.0]
    return terms


_PARITY_CACHE = {}


def _signed_permutations(n: int):
    """All (sign, permutation) pairs of S_n, cached."""
    if n not in _PARITY_CACHE:
        perms = []
        for p in permutations(range(n)):
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
            )
            perms.append((-1.0 if inversions % 2 else 1.0, p))
        _PARITY_CACHE[n] = perms
    return _PARITY_CACHE[n]


def exact_det(matrix: Sequence[Sequence[float]]) -> float:
    """Correctly rounded determinant of a small float matrix.

    Leibniz expansion: each of the ``n!`` permutation products is
    expanded error-free; all terms are summed exactly; one rounding at
    the end. Practical for ``n <= 4`` (the predicate sizes). A product
    outside the error-free TwoProduct band falls back to exact
    ``Fraction`` arithmetic, so the result (and its sign) stays exact.
    """
    m = [[float(v) for v in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("exact_det requires a square matrix")
    if n == 0:
        return 1.0
    if n > 5:
        raise ValueError("exact_det is for small predicate matrices (n <= 5)")
    terms: List[float] = []
    try:
        for sign, perm in _signed_permutations(n):
            expansion = product_expansion([m[i][perm[i]] for i in range(n)])
            if sign > 0:
                terms.extend(expansion)
            else:
                terms.extend(-t for t in expansion)
    except ReductionRangeError:
        return round_fraction(_fraction_det(m))
    return exact_sum(np.array(terms, dtype=np.float64))


def _fraction_det(m: List[List[float]]) -> Fraction:
    """Exact Leibniz determinant in rational arithmetic."""
    total = Fraction(0)
    for sign, perm in _signed_permutations(len(m)):
        term = Fraction(int(sign))
        for i, j in enumerate(perm):
            term *= Fraction(m[i][j])
        total += term
    return total


def exact_det_sign(matrix: Sequence[Sequence[float]]) -> int:
    """Sign of the exact determinant: -1, 0, or +1."""
    d = exact_det(matrix)
    return (d > 0) - (d < 0)


def orient2d(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Exact orientation of the triangle (a, b, c).

    Returns +1 for counter-clockwise, -1 for clockwise, 0 for exactly
    collinear — always, for any float inputs.
    """
    return exact_det_sign(
        [
            [ax, ay, 1.0],
            [bx, by, 1.0],
            [cx, cy, 1.0],
        ]
    )


def orient2d_fast(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> int:
    """Adaptive orientation: float filter first, exact fallback.

    The float path evaluates ``(b-a) x (c-a)`` with Shewchuk's error
    bound for this expression; if the magnitude clears the bound the
    sign is certain, otherwise the exact predicate decides. Same
    contract as :func:`orient2d`.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    if detleft > 0.0:
        if detright <= 0.0:
            return 1
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return -1
        detsum = -detleft - detright
    else:
        return exact_det_sign([[ax, ay, 1.0], [bx, by, 1.0], [cx, cy, 1.0]])
    # Shewchuk's ccwerrboundA = (3 + 16u) u
    errbound = (3.0 + 16.0 * _U) * _U * detsum
    if det > errbound or -det > errbound:
        return (det > 0) - (det < 0)
    return exact_det_sign([[ax, ay, 1.0], [bx, by, 1.0], [cx, cy, 1.0]])


def orient3d(
    a: Sequence[float], b: Sequence[float], c: Sequence[float], d: Sequence[float]
) -> int:
    """Exact 3D orientation: sign of det[[a,1],[b,1],[c,1],[d,1]].

    +1 when ``d`` is below the plane through (a, b, c) oriented by the
    right-hand rule, -1 above, 0 exactly coplanar.
    """
    return exact_det_sign(
        [
            [a[0], a[1], a[2], 1.0],
            [b[0], b[1], b[2], 1.0],
            [c[0], c[1], c[2], 1.0],
            [d[0], d[1], d[2], 1.0],
        ]
    )


def incircle(
    a: Sequence[float], b: Sequence[float], c: Sequence[float], d: Sequence[float]
) -> int:
    """Exact in-circle test for Delaunay triangulation.

    +1 when ``d`` lies strictly inside the circle through (a, b, c)
    taken in counter-clockwise order, -1 strictly outside, 0 exactly on
    the circle. (For clockwise (a,b,c) the sign flips, as usual.)

    Uses the lifted 4x4 determinant with rows ``[x, y, x^2 + y^2, 1]``.
    The squared terms are expanded error-free (``x*x`` and ``y*y`` as
    separate exact monomial streams), so no precision is lost anywhere.
    """
    pts = [a, b, c, d]
    # Build the Leibniz expansion manually because the lifted column is
    # itself a sum of two monomials: treat column 2 as two columns'
    # worth of monomials x*x and y*y (determinant is linear in columns).
    terms: List[float] = []
    for sign, perm in _signed_permutations(4):
        # column order: [x, y, lift, 1]
        monomial_sets: List[List[List[float]]] = [[[]]]
        for row in range(4):
            col = perm[row]
            x, y = float(pts[row][0]), float(pts[row][1])
            if col == 0:
                choices = [[x]]
            elif col == 1:
                choices = [[y]]
            elif col == 2:
                choices = [[x, x], [y, y]]  # x^2 + y^2: two monomials
            else:
                choices = [[]]  # the constant 1
            monomial_sets.append(
                [prev + choice for prev in monomial_sets[-1] for choice in choices]
            )
        for monomial in monomial_sets[-1]:
            expansion = (
                product_expansion(monomial) if monomial else [1.0]
            )
            if sign > 0:
                terms.extend(expansion)
            else:
                terms.extend(-t for t in expansion)
    det = exact_sum(np.array(terms, dtype=np.float64))
    return (det > 0) - (det < 0)

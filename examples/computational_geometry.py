#!/usr/bin/env python
"""Computational geometry with exact summation (a motivating domain).

The paper's abstract names computational geometry as a core application
of exact summation. This example builds two classic predicates on top
of :func:`repro.exact_sum` and shows plain float arithmetic getting
both of them wrong:

1. **orientation** — which side of the line AB is point C on? Wrong
   signs here break convex hulls and Delaunay triangulations.
2. **polygon signed area** (the shoelace sum) for a nearly-degenerate
   polygon whose area is tiny compared to its coordinates.

Run: ``python examples/computational_geometry.py``
"""

from __future__ import annotations

import numpy as np

from repro import exact_sum
from repro.core.eft import two_product
from repro.core.sparse import SparseSuperaccumulator


def orientation_naive(ax, ay, bx, by, cx, cy) -> float:
    """Float determinant (bx-ax)(cy-ay) - (by-ay)(cx-ax)."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation_exact(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the orientation determinant, computed exactly.

    The four coordinate differences are floats (possibly inexact as
    *differences*, so we expand the determinant over original
    coordinates instead): det = bx*cy - bx*ay - ax*cy
                               - by*cx + by*ax + ay*cx
    Each product is expanded error-free with TwoProduct and the 12-term
    expansion is summed exactly.
    """
    terms = []
    for sgn, u, v in (
        (+1, bx, cy), (-1, bx, ay), (-1, ax, cy),
        (-1, by, cx), (+1, by, ax), (+1, ay, cx),
    ):
        p, e = two_product(float(sgn) * u, v)
        terms.extend((p, e))
    s = exact_sum(np.array(terms))
    return (s > 0) - (s < 0)


def shoelace_naive(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def shoelace_exact(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    terms = []
    for u, v, sgn in ((x, yn, 1.0), (xn, y, -1.0)):
        p = sgn * u * v
        # vectorized TwoProduct residuals
        split = 134217729.0
        cu = split * (sgn * u)
        hi = cu - (cu - sgn * u)
        lo = sgn * u - hi
        cv = split * v
        vhi = cv - (cv - v)
        vlo = v - vhi
        e = ((hi * vhi - p) + hi * vlo + lo * vhi) + lo * vlo
        terms.append(p)
        terms.append(e)
    acc = SparseSuperaccumulator.from_floats(np.concatenate(terms))
    return 0.5 * acc.to_float()


def main() -> None:
    # --- orientation near collinearity ---------------------------------
    # The classic "classroom example" (Kettner et al.): query points in
    # an ulp-grid around a point of the segment (0.5,0.5)-(12,12). The
    # float predicate returns a patchwork of wrong signs; the exact
    # predicate draws the true line.
    bx, by = 12.0, 12.0
    cx, cy = 24.0, 24.0
    print("orientation of (a, (12,12), (24,24)) for a on an ulp-grid "
          "around (0.5, 0.5):")
    wrong = 0
    total = 0
    for i in range(0, 32):
        for j in range(0, 32):
            ax = 0.5 + i * 2.0**-53
            ay = 0.5 + j * 2.0**-53
            # the float predicate rounds bx-ax (ulp(11.5) >> 2**-53)
            naive = orientation_naive(ax, ay, bx, by, cx, cy)
            naive_sign = (naive > 0) - (naive < 0)
            exact = orientation_exact(ax, ay, bx, by, cx, cy)
            total += 1
            if naive_sign != exact:
                wrong += 1
    print(f"  float predicate wrong on {wrong}/{total} grid points; "
          f"exact predicate wrong on 0")
    assert wrong > 0  # the float predicate must fail somewhere here

    # --- shoelace area of a sliver polygon ------------------------------
    # A long thin triangle translated far from the origin: all
    # coordinates are dyadic, so the translation is *exact* in binary64
    # and the true area (2**-21) is unchanged — but the naive shoelace
    # sum cancels catastrophically at large coordinates.
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0**-20]])
    true_area = 2.0**-21
    print(f"\nshoelace area of a sliver triangle (true area = {true_area:.6e}):")
    for shift in (0.0, 2.0**20, 2.0**30):
        pts = base + shift
        a_naive = shoelace_naive(pts)
        a_exact = shoelace_exact(pts)
        print(
            f"  shift=2^{int(np.log2(shift)) if shift else 0:<3d}"
            f"  naive={a_naive:+.6e}  exact={a_exact:+.6e}"
            f"  naive rel-err={abs(a_naive - true_area) / true_area:.2e}"
        )
        assert a_exact == true_area  # exact at every translation
    print("  exact shoelace is translation-invariant bit-for-bit")


if __name__ == "__main__":
    main()

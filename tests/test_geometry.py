"""Unit tests for the exact geometry package."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.geometry import (
    centroid_times_area,
    convex_hull,
    exact_det,
    exact_det_sign,
    incircle,
    is_convex,
    orient2d,
    orient2d_fast,
    orient3d,
    polygon_contains,
    product_expansion,
    signed_area,
)
from tests.conftest import fraction_to_float


def frac_det(m):
    n = len(m)
    tot = Fraction(0)
    for p in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        term = Fraction((-1) ** inv)
        for i in range(n):
            term *= Fraction(float(m[i][p[i]]))
        tot += term
    return tot


class TestProductExpansion:
    def test_exact(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 5))
            fs = ((rng.random(k) - 0.5) * 10.0 ** rng.integers(-40, 40)).tolist()
            exp = product_expansion(fs)
            want = Fraction(1)
            for f in fs:
                want *= Fraction(float(f))
            assert sum((Fraction(t) for t in exp), Fraction(0)) == want

    def test_zero_factor(self):
        assert sum(product_expansion([3.0, 0.0, 7.0])) == 0.0

    def test_single(self):
        assert product_expansion([2.5]) == [2.5]


class TestExactDet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_fraction(self, n, rng):
        for _ in range(30):
            m = (rng.random((n, n)) - 0.5) * 10.0 ** rng.integers(-8, 8)
            assert exact_det(m) == fraction_to_float(frac_det(m))

    def test_singular_is_exact_zero(self):
        m = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.1, 0.2, 0.7]]
        assert exact_det(m) == 0.0
        assert exact_det_sign(m) == 0

    def test_identity(self):
        assert exact_det(np.eye(4)) == 1.0
        assert exact_det([]) == 1.0

    def test_out_of_band_products_fall_back_to_fractions(self):
        # A 4-factor product near 1e-266 pushes TwoProduct error terms
        # below the subnormal floor; the determinant must stay exact.
        a = 1.8257328485107343e-67
        m = np.diag([a, a, a, -a]) + np.diag([a * 2.0**-30] * 3, k=1)
        assert exact_det(m) == fraction_to_float(frac_det(m))
        assert exact_det_sign(m) == -1

    def test_rejects_nonsquare_and_big(self):
        with pytest.raises(ValueError):
            exact_det([[1.0, 2.0]])
        with pytest.raises(ValueError):
            exact_det(np.eye(6))


class TestOrient2D:
    def test_basic_signs(self):
        assert orient2d(0, 0, 1, 0, 0, 1) == 1
        assert orient2d(0, 0, 0, 1, 1, 0) == -1
        assert orient2d(0, 0, 1, 1, 2, 2) == 0

    def test_classroom_grid_float_fails_exact_does_not(self):
        # Kettner et al.'s classroom example: the float predicate gives
        # wrong signs on an ulp grid; the exact one never does.
        mismatches = 0
        for i in range(12):
            for j in range(12):
                ax = 0.5 + i * 2.0**-53
                ay = 0.5 + j * 2.0**-53
                det = (ax - 24.0) * (12.0 - 24.0) - (ay - 24.0) * (12.0 - 24.0)
                float_sign = (det > 0) - (det < 0)
                e = orient2d(ax, ay, 12.0, 12.0, 24.0, 24.0)
                f = orient2d_fast(ax, ay, 12.0, 12.0, 24.0, 24.0)
                assert e == f  # adaptive must agree with exact
                if float_sign != e:
                    mismatches += 1
        assert mismatches > 0  # the float version does fail on this grid

    def test_antisymmetry(self, rng):
        for _ in range(50):
            ax, ay, bx, by, cx, cy = (rng.random(6) * 100).tolist()
            assert orient2d(ax, ay, bx, by, cx, cy) == -orient2d(
                bx, by, ax, ay, cx, cy
            )

    def test_fast_matches_exact_random(self, rng):
        for _ in range(200):
            pts = ((rng.random(6) - 0.5) * 10.0 ** float(rng.integers(-4, 6))).tolist()
            assert orient2d(*pts) == orient2d_fast(*pts)


class TestOrient3DIncircle:
    def test_orient3d_basic(self):
        assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) != 0
        assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 4, 0)) == 0
        up = orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        dn = orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, -1))
        assert up == -dn != 0

    def test_incircle_unit_circle(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)  # ccw on the unit circle
        assert incircle(a, b, c, (0, 0)) == 1
        assert incircle(a, b, c, (2, 0)) == -1
        assert incircle(a, b, c, (0, -1)) == 0  # exactly on the circle

    def test_incircle_near_cocircular(self):
        # point displaced one ulp off the circle: exact sign resolves it
        a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
        eps = 2.0**-52
        assert incircle(a, b, c, (0.0, -1.0 + eps)) == 1
        assert incircle(a, b, c, (0.0, -1.0 - eps)) == -1

    def test_incircle_orientation_flip(self):
        # clockwise triangle flips the sign convention
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(c, b, a, (0, 0)) == -1


class TestPolygon:
    def test_signed_area_square(self):
        assert signed_area([(0, 0), (2, 0), (2, 2), (0, 2)]) == 4.0
        assert signed_area([(0, 0), (0, 2), (2, 2), (2, 0)]) == -4.0

    def test_translation_invariance_dyadic(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0**-30]])
        a0 = signed_area(base)
        assert a0 == 2.0**-31
        for shift in (2.0**15, 2.0**22):
            assert signed_area(base + shift) == a0

    def test_area_against_fraction(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 10))
            pts = (rng.random((n, 2)) - 0.5) * 1000
            x, y = pts[:, 0], pts[:, 1]
            want = Fraction(0)
            for i in range(n):
                j = (i + 1) % n
                want += Fraction(float(x[i])) * Fraction(float(y[j]))
                want -= Fraction(float(x[j])) * Fraction(float(y[i]))
            want /= 2
            from repro.core.rounding import round_fraction

            assert signed_area(pts) == round_fraction(want)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            signed_area([(0, 0), (1, 1)])

    def test_is_convex(self):
        assert is_convex([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert not is_convex([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])
        # collinear vertex still convex
        assert is_convex([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])

    def test_contains(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_contains(sq, (0.5, 0.5))
        assert polygon_contains(sq, (0.0, 0.5))  # boundary
        assert polygon_contains(sq, (1.0, 1.0))  # corner
        assert not polygon_contains(sq, (1.5, 0.5))
        assert not polygon_contains(sq, (-0.1, 0.5))

    def test_centroid_times_area(self):
        # unit square: centroid (.5, .5), A = 1 -> (6A*Cx, 6A*Cy) = (3, 3)
        cx6a, cy6a = centroid_times_area([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert (cx6a, cy6a) == (3.0, 3.0)


class TestConvexHull:
    def test_square_with_interior(self, rng):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4)] + [
            tuple(p) for p in rng.random((50, 2)) * 3 + 0.5
        ]
        hull = convex_hull(pts)
        assert sorted(hull) == [(0.0, 0.0), (0.0, 4.0), (4.0, 0.0), (4.0, 4.0)]

    def test_ccw_and_convex(self, rng):
        pts = rng.random((300, 2)) * 10
        hull = convex_hull(pts)
        assert signed_area(hull) > 0
        assert is_convex(hull)
        for p in pts[:60]:
            assert polygon_contains(hull, p)

    def test_collinear_input(self):
        assert convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)]) == [
            (0.0, 0.0),
            (3.0, 3.0),
        ]

    def test_duplicates_and_tiny(self):
        assert convex_hull([(1, 1), (1, 1)]) == [(1.0, 1.0)]
        assert convex_hull([(0, 1)]) == [(0.0, 1.0)]
        assert convex_hull([]) == []

    def test_nearly_collinear_robustness(self):
        # points on y = x with sub-ulp perturbations: a float hull can
        # emit a non-convex chain; the exact hull cannot
        pts = [(float(i), float(i)) for i in range(10)]
        pts += [(0.5 + 3 * 2.0**-53, 0.5 + 2.0**-53), (2.5, 2.5 - 2.0**-51)]
        hull = convex_hull(pts)
        assert is_convex(hull)
        assert signed_area(hull) >= 0

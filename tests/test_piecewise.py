"""Tests for the exact piecewise-polynomial algebra."""

import numpy as np
import pytest
from scipy.integrate import quad

from avgsamp.piecewise import PiecewisePoly1D, bspline, coefficient_distance


def hat(x):
    """Analytic degree-1 cardinal spline, the oracle for bspline(1)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(1.0 - np.abs(x), 0.0)


def quadratic_spline(x):
    """Analytic degree-2 cardinal spline, the oracle for bspline(2)."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    inner = x <= 0.5
    out[inner] = 0.75 - x[inner] ** 2
    mid = (x > 0.5) & (x < 1.5)
    out[mid] = 0.5 * (1.5 - x[mid]) ** 2
    return out


def numeric_box_convolution(f, x, a=-0.5, b=0.5, breaks=()):
    """Quadrature oracle for (f * box[a,b])(x) = int_{x-b}^{x-a} f."""
    lo, hi = x - b, x - a
    pts = sorted({lo, hi, *(t for t in breaks if lo < t < hi)})
    val, _ = quad(f, lo, hi, points=pts[1:-1] or None, limit=200)
    return val


def per_piece_loop_eval(f, xs):
    """Evaluation with one boolean mask and one Horner loop per piece."""
    out = np.zeros(xs.shape)
    if f.tail != 0.0:
        out[xs >= f.breakpoints[-1]] = f.tail
    idx = np.searchsorted(f.breakpoints, xs, side="right") - 1
    for i in range(f.num_pieces):
        mask = idx == i
        u = xs[mask] - f.breakpoints[i]
        acc = np.zeros_like(u)
        for c in f.coeffs[i][::-1]:
            acc = acc * u + c
        out[mask] = acc
    return out


def piecewise_gauss_box_convolution(f, xs, a, b):
    """Quadrature oracle for (f * box[a,b])(x) = int_{x-b}^{x-a} f at every x at once.

    Each piece of f between consecutive breakpoints, clipped to the window,
    gets a Gauss-Legendre rule exact for the degree of f; pieces outside
    the window get width zero.
    """
    t, u = np.polynomial.legendre.leggauss(f.degree // 2 + 1)
    lo = np.maximum(f.breakpoints[None, :-1], xs[:, None] - b)
    hi = np.minimum(f.breakpoints[None, 1:], xs[:, None] - a)
    half = 0.5 * np.maximum(hi - lo, 0.0)
    nodes = (lo + half)[..., None] + half[..., None] * t
    return np.sum(half * (f(nodes.ravel()).reshape(nodes.shape) @ u), axis=1)


class TestBspline:
    def test_degree_zero_is_unit_box(self):
        b0 = bspline(0)
        assert b0(0.0) == 1.0
        assert b0(-0.5) == 1.0  # right continuity at the left edge
        assert b0(0.49999) == 1.0
        assert b0(0.5) == 0.0
        assert b0(2.0) == 0.0
        assert b0.support == (-0.5, 0.5)

    def test_degree_one_matches_hat_oracle(self):
        b1 = bspline(1)
        xs = np.linspace(-1.5, 1.5, 301)
        np.testing.assert_allclose(b1(xs), hat(xs), atol=1e-14)
        assert b1(0.0) == pytest.approx(1.0, abs=1e-14)
        assert b1(0.5) == pytest.approx(0.5, abs=1e-14)

    def test_degree_one_center_matches_convolution_oracle(self):
        val = numeric_box_convolution(bspline(0), 0.0, breaks=[-0.5, 0.5])
        assert val == pytest.approx(1.0, abs=1e-10)
        assert bspline(1)(0.0) == pytest.approx(val, abs=1e-10)

    def test_degree_two_matches_double_convolution_oracle(self):
        b1 = bspline(1)
        val = numeric_box_convolution(b1, 0.0, breaks=b1.breakpoints)
        assert val == pytest.approx(0.75, abs=1e-10)
        assert bspline(2)(0.0) == pytest.approx(0.75, abs=1e-14)
        xs = np.linspace(-2, 2, 201)
        np.testing.assert_allclose(bspline(2)(xs), quadratic_spline(xs), atol=1e-14)

    @pytest.mark.parametrize("n", range(7))
    def test_symmetry(self, n):
        # random points; the right-continuity convention at jump points of
        # B_0 is deliberately asymmetric, so stay off the breakpoints
        rng = np.random.default_rng(n)
        xs = rng.uniform(0, (n + 1) / 2 + 0.5, 500)
        xs = xs[np.min(np.abs(xs[:, None] - bspline(n).breakpoints[None, :]), axis=1) > 1e-9]
        bn = bspline(n)
        np.testing.assert_allclose(bn(xs), bn(-xs), atol=1e-13)

    @pytest.mark.parametrize("n", range(7))
    def test_unit_integral_from_antiderivative_metadata(self, n):
        assert bspline(n).antiderivative().tail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(7))
    def test_support_and_smoothness_class(self, n):
        bn = bspline(n)
        assert bn.support == (-(n + 1) / 2, (n + 1) / 2)
        assert bn.continuity == n - 1
        assert np.all(bn(np.linspace(*bn.support, 97)) >= -1e-15)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            bspline(-1)


class TestEval:
    def test_outside_support(self):
        assert bspline(0)(2.0) == 0.0

    def test_zero_function(self):
        z = PiecewisePoly1D.zero()
        assert z(123.4) == 0.0
        assert z.is_zero

    def test_vectorized_matches_scalar(self):
        f = bspline(3)
        xs = np.linspace(-3, 3, 57)
        np.testing.assert_array_equal(f(xs), [f(float(x)) for x in xs])

    def test_matches_per_piece_loop_bitwise(self):
        rng = np.random.default_rng(7)
        funcs = [bspline(n) for n in range(6)] + [bspline(3).antiderivative()]
        funcs.append(bspline(1).shift_scale(0.3, 2.0) + bspline(2).shift_scale(-0.7, -1.5))
        for f in funcs:
            # breakpoints themselves, points outside the support and random points
            xs = np.concatenate([f.breakpoints, rng.uniform(-5, 5, 400)])
            np.testing.assert_array_equal(f(xs), per_piece_loop_eval(f, xs))

    def test_right_continuity_at_interior_breakpoint(self):
        b1 = bspline(1)
        # at x = 0 the right piece (1 - x) applies
        assert b1(0.0) == 1.0


class TestConvolveBox:
    @pytest.mark.parametrize("n", range(7))
    def test_bspline_recursion_coefficient_exact(self, n):
        conv = bspline(n).convolve_box(-0.5, 0.5)
        assert coefficient_distance(conv, bspline(n + 1)) <= 1e-12

    def test_zero_function(self):
        assert PiecewisePoly1D.zero().convolve_box(-1, 1).is_zero

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            bspline(1).convolve_box(0.5, 0.5)
        with pytest.raises(ValueError):
            bspline(1).convolve_box(0.5, -0.5)

    def test_small_box_center_value(self):
        g = bspline(0).convolve_box(-0.125, 0.125)
        assert g(0.0) == pytest.approx(0.25, abs=1e-14)
        oracle = numeric_box_convolution(bspline(0), 0.0, -0.125, 0.125, [-0.5, 0.5])
        assert g(0.0) == pytest.approx(oracle, abs=1e-10)

    def test_support_shift(self):
        g = bspline(2).convolve_box(0.25, 0.75)
        lo, hi = bspline(2).support
        assert g.support == (lo + 0.25, hi + 0.75)

    def test_smoothness_class_increases(self):
        f = bspline(2)
        assert f.convolve_box(-0.3, 0.4).continuity == f.continuity + 1
        assert f.antiderivative().continuity == f.continuity + 1

    def test_random_functions_match_quadrature_oracle(self):
        rng = np.random.default_rng(2024)
        total_checks = 0
        for _ in range(20):
            f = PiecewisePoly1D.zero()
            for _ in range(rng.integers(1, 4)):
                n = int(rng.integers(0, 4))
                f = f + bspline(n).shift_scale(rng.uniform(-2, 2), rng.uniform(-3, 3))
            a = rng.uniform(-1, 0)
            b = a + rng.uniform(0.1, 1.5)
            g = f.convolve_box(a, b)
            lo, hi = g.support
            xs = rng.uniform(lo - 0.5, hi + 0.5, 500)
            err = np.abs(g(xs) - piecewise_gauss_box_convolution(f, xs, a, b))
            assert np.all(err <= 1e-9)
            total_checks += len(xs)
        assert total_checks == 10_000


class TestAntiderivative:
    def test_box_total(self):
        F = bspline(0).antiderivative()
        assert F(0.5) == pytest.approx(1.0, abs=1e-14)
        assert F(10.0) == 1.0  # constant right of support, kept as tail metadata
        assert F.tail == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert PiecewisePoly1D.zero().antiderivative().is_zero

    def test_hat_half_mass_at_center(self):
        assert bspline(1).antiderivative()(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_derivative_inverts(self):
        f = bspline(3)
        F = f.antiderivative()
        xs = np.linspace(-2, 2, 401)
        np.testing.assert_allclose(F.derivative()(xs), f(xs), atol=1e-12)


def per_piece_critical_points(f):
    """Reference for critical_points: np.roots of each piece's derivative in turn."""
    pts = []
    dcoeffs = f.derivative().coeffs
    for i in range(f.num_pieces):
        c = np.trim_zeros(dcoeffs[i], "b")
        if len(c) <= 1:
            continue
        h = f.breakpoints[i + 1] - f.breakpoints[i]
        for rt in np.roots(c[::-1]):
            if abs(rt.imag) < 1e-12 and 0.0 < rt.real < h:
                pts.append(f.breakpoints[i] + rt.real)
    return np.sort(pts)


class TestCriticalPoints:
    def test_interior_peak(self):
        f = bspline(2).shift_scale(0.3, -2.0)
        np.testing.assert_array_equal(f.critical_points(), [0.3])
        assert f(0.3) == pytest.approx(-1.5, abs=1e-12)

    def test_splines_match_per_piece_roots_bitwise(self):
        funcs = [bspline(n) for n in range(7)] + [bspline(n).convolve_box(-0.125, 0.125)
                                                  for n in range(1, 4)]
        funcs += [PiecewisePoly1D.zero(), PiecewisePoly1D.indicator(0.0, 1.0)]
        for f in funcs:
            np.testing.assert_array_equal(np.sort(f.critical_points()),
                                          per_piece_critical_points(f))

    def test_random_pieces_match_per_piece_roots(self):
        # np.roots strips zero low-order coefficients before its eigenvalue
        # call, so roots can move in the last bits when some are zero
        rng = np.random.default_rng(11)
        for _ in range(200):
            pieces, width = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            coeffs = rng.normal(size=(pieces, width))
            coeffs[rng.random(coeffs.shape) < 0.2] = 0.0
            f = PiecewisePoly1D(np.cumsum(rng.uniform(0.1, 2.0, pieces + 1)), coeffs)
            np.testing.assert_allclose(np.sort(f.critical_points()),
                                       per_piece_critical_points(f), rtol=0, atol=1e-12)


class TestShiftScale:
    def test_shifted_quadratic_center(self):
        g = bspline(2).shift_scale(1.0, 1.0)
        assert g(1.0) == pytest.approx(0.75, abs=1e-14)

    def test_identity(self):
        f = bspline(2)
        g = f.shift_scale(0.0, 1.0)
        assert coefficient_distance(f, g) == 0.0

    def test_cancellation(self):
        f = bspline(2).shift_scale(0.7, 3.0)
        s = f + f.shift_scale(0.0, -1.0)
        xs = np.linspace(-5, 5, 301)
        assert np.max(np.abs(s(xs))) == 0.0

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            bspline(1).shift_scale(1.0, 0.0)


class TestArithmetic:
    def test_addition_pointwise(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = bspline(int(rng.integers(0, 4))).shift_scale(rng.uniform(-1, 1), rng.uniform(-2, 2))
            g = bspline(int(rng.integers(0, 4))).shift_scale(rng.uniform(-1, 1), rng.uniform(-2, 2))
            h = f + g
            xs = rng.uniform(-4, 4, 200)
            np.testing.assert_allclose(h(xs), f(xs) + g(xs), atol=1e-13)

    def test_scalar_multiplication(self):
        f = bspline(2)
        xs = np.linspace(-2, 2, 101)
        np.testing.assert_allclose((2.5 * f)(xs), 2.5 * f(xs), atol=1e-15)

    def test_invalid_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePoly1D(np.array([0.0, 0.0, 1.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            PiecewisePoly1D(np.array([0.0, 1.0]), np.zeros((2, 1)))

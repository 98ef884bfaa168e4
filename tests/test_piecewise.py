"""Tests for the exact piecewise-polynomial algebra."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from avgsamp.piecewise import (
    PiecewisePoly1D,
    _merge_grids,
    _poly_eval,
    _shift_poly,
    bspline,
    coefficient_distance,
)


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


def scalar_shift_poly(coeffs, delta):
    """Re-expand one p(u) as q(v) with u = v + delta, one coefficient at a time."""
    n = len(coeffs)
    out = np.zeros(n)
    for k in range(n):
        c = coeffs[k]
        if c == 0.0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * delta ** (k - j)
    return out


def local_coeffs(F, probe, base, width):
    """Coefficients of u -> F(u + base) near the point probe: zero left of the support, tail right of it."""
    out = np.zeros(width)
    t0, tM = F.support
    if probe < t0:
        return out
    if probe >= tM:
        out[0] = F.tail
        return out
    idx = int(np.searchsorted(F.breakpoints, probe, side="right") - 1)
    return scalar_shift_poly(F.coeffs[idx], base - F.breakpoints[idx])


def per_cell_resampled(f, grid):
    """Local coefficients of f on the cells of a 1-D grid, one cell at a time, read at each midpoint."""
    width = f.coeffs.shape[1]
    return np.array([local_coeffs(f, 0.5 * (s + t), s, width) for s, t in zip(grid[:-1], grid[1:])])


def per_cell_convolve_box(f, a, b):
    """Grid and local coefficients of f * box[a, b] as F(x - a) - F(x - b), one cell at a time."""
    F = per_piece_antiderivative(f)
    grid = _merge_grids(f.breakpoints + a, f.breakpoints + b)
    deg = F.coeffs.shape[1]
    out = np.zeros((len(grid) - 1, deg))
    for k in range(len(grid) - 1):
        s = grid[k]
        mid = 0.5 * (s + grid[k + 1])
        for offset, sign in ((a, 1.0), (b, -1.0)):
            out[k] += sign * local_coeffs(F, mid - offset, s - offset, deg)
    return grid, out


def per_piece_antiderivative(f):
    """Antiderivative of f, integrating one piece at a time from the left."""
    deg = f.coeffs.shape[1]
    out = np.zeros((f.num_pieces, deg + 1))
    acc = 0.0
    for i in range(f.num_pieces):
        out[i, 0] = acc
        out[i, 1:] = f.coeffs[i] / np.arange(1, deg + 1)
        h = f.breakpoints[i + 1] - f.breakpoints[i]
        acc = float(_poly_eval(out[i], np.asarray(h)))
    return PiecewisePoly1D(f.breakpoints, out, continuity=f.continuity + 1, tail=acc)


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
        # piecewise derivative of F's local coefficients
        dF = PiecewisePoly1D(F.breakpoints, F.coeffs[:, 1:] * np.arange(1, F.coeffs.shape[1]))
        xs = np.linspace(-2, 2, 401)
        np.testing.assert_allclose(dF(xs), f(xs), atol=1e-12)


def oracle_inputs():
    """B-splines of degree 0..6 and shifted, scaled sums of them."""
    rng = np.random.default_rng(11)
    funcs = [bspline(n) for n in range(7)]
    funcs.append(bspline(1).shift_scale(0.3, 2.0) + bspline(2).shift_scale(-0.7, -1.5))
    for _ in range(6):
        f = PiecewisePoly1D.zero()
        for _ in range(rng.integers(2, 4)):
            f = f + bspline(int(rng.integers(0, 5))).shift_scale(rng.uniform(-2, 2), rng.uniform(-3, 3))
        funcs.append(f)
    return funcs


class TestLoopOracles:
    """The vectorized local-coefficient step against the per-cell loops it replaced, bitwise."""

    @pytest.mark.parametrize("f", oracle_inputs())
    def test_shift_poly_matches_scalar_rows(self, f):
        rng = np.random.default_rng(3)
        for rows in (f.coeffs, f.antiderivative().coeffs):
            delta = rng.uniform(-3, 3, len(rows))
            expected = np.array([scalar_shift_poly(c, x) for c, x in zip(rows, delta)])
            assert np.array_equal(_shift_poly(rows, delta), expected)

    @pytest.mark.parametrize("f", oracle_inputs())
    def test_antiderivative_matches_per_piece_loop(self, f):
        F, G = f.antiderivative(), per_piece_antiderivative(f)
        assert np.array_equal(F.coeffs, G.coeffs) and F.tail == G.tail

    @pytest.mark.parametrize("f", oracle_inputs())
    def test_resampled_matches_per_cell_loop(self, f):
        rng = np.random.default_rng(5)
        for g in (f, f.antiderivative()):
            lo, hi = g.support
            grid = _merge_grids(g.breakpoints, rng.uniform(lo - 2, hi + 2, 20))
            got = g.resampled(grid)
            assert np.array_equal(got, per_cell_resampled(g, grid))
            right = grid[:-1] >= hi
            assert right.any() and np.all(got[right, 0] == g.tail) and not np.any(got[right, 1:])

    @pytest.mark.parametrize("f", oracle_inputs())
    def test_resampled_on_a_shift_stack_matches_each_shift(self, f):
        edges = _merge_grids(f.breakpoints, np.linspace(-4.0, 4.0, 13))
        ks = np.arange(-2.0, 3.0)
        got = f.resampled(edges - ks[:, None])
        assert got.shape == (len(ks), len(edges) - 1, f.coeffs.shape[1])
        assert np.array_equal(got, np.stack([per_cell_resampled(f, edges - k) for k in ks]))

    @pytest.mark.parametrize("f", oracle_inputs())
    def test_convolve_box_matches_per_cell_loop(self, f):
        rng = np.random.default_rng(9)
        for a, width in zip(rng.uniform(-1, 0.5, 3), rng.uniform(0.1, 1.5, 3)):
            grid, coeffs = per_cell_convolve_box(f, a, a + width)
            g = f.convolve_box(a, a + width)
            assert np.array_equal(g.breakpoints, grid) and np.array_equal(g.coeffs, coeffs)


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

    def test_coefficients_must_be_one_row_per_piece(self):
        with pytest.raises(ValueError):
            PiecewisePoly1D(np.array([0.0, 1.0]), np.zeros(1))
        with pytest.raises(ValueError):
            PiecewisePoly1D(np.array([0.0, 1.0]), np.zeros((1, 0)))

"""Tests for densities, sample draws, kernels and the centered statistic."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

from avgsamp.mixed_space import (
    Cuboid,
    GeneratorSet,
    TensorFunction,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.piecewise import bspline, coefficient_distance
from avgsamp.quadrature import QuadratureSpec
from avgsamp.sampling import (
    AverageSampleStatistic,
    AveragingKernel,
    Density,
    _abs_segment_integrals,
    abs_integral,
    average_sample,
    average_samples,
    convolve,
    draw_samples,
)


def scalar_abs_poly_integral(coeffs, h):
    """Reference for _abs_segment_integrals: one row, split at its np.roots."""
    c = np.trim_zeros(coeffs, "b")
    if len(c) == 0:
        return 0.0
    anti = np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))
    cuts = [0.0, h]
    if len(c) > 1:
        for rt in np.roots(c[::-1]):
            if abs(rt.imag) < 1e-12 and 0.0 < rt.real < h:
                cuts.append(float(rt.real))
    cuts = np.unique(cuts)
    vals = P.polyval(cuts, anti)
    return float(np.sum(np.abs(np.diff(vals))))


def gauss_box_average(f, center, half, order=40):
    """2-D quadrature oracle for the average of f over a centered box."""
    x, w = leggauss(order)
    xs = center[0] + half * x
    ys = center[1] + half * x
    vals = f.evaluate_grid([xs, ys])
    return float((half * w) @ vals @ (half * w))


@pytest.fixture(scope="module")
def benchmark_setup():
    ck = Cuboid(2.5, 2.5)
    rho = Density.uniform(ck)
    kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], ck)
    f = tensor_bspline([2, 2], [0, 1], 3.0) + tensor_bspline([2, 2], [-1, 0], -5.0)
    return ck, rho, kernel, f


class TestDensity:
    def test_uniform_bounds(self):
        rho = Density.uniform(Cuboid(2.5, 2.5))
        assert rho.lower == rho.upper == pytest.approx(1 / 25)

    def test_mass_must_normalize(self):
        ck = Cuboid(1, 1)
        with pytest.raises(ValueError):
            Density.piecewise_constant(ck, [np.array([-1, 0, 1]), np.array([-1, 1])],
                                       np.array([[0.5], [0.6]]))

    def test_vanishing_cell_rejected(self):
        ck = Cuboid(1, 1)
        with pytest.raises(ValueError):
            Density.piecewise_constant(ck, [np.array([-1, 0, 1]), np.array([-1, 1])],
                                       np.array([[1.0], [0.0]]))

    def test_pdf_values_and_bounds(self):
        ck = Cuboid(1, 1)
        rho = Density.piecewise_constant(
            ck, [np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0])],
            np.array([[2 / 3], [1 / 3]]))
        assert rho.pdf([(-0.5, 0.0)])[0] == pytest.approx(2 / 3 / 2)
        assert rho.pdf([(0.5, 0.0)])[0] == pytest.approx(1 / 3 / 2)
        assert rho.pdf([(5.0, 0.0)])[0] == 0.0
        assert rho.lower == pytest.approx(1 / 6)
        assert rho.upper == pytest.approx(1 / 3)

    def test_integrates_to_one(self):
        ck = Cuboid(2, 3)
        rho = Density.piecewise_constant(
            ck, [np.array([-2.0, 0.5, 2.0]), np.array([-3.0, 0.0, 3.0])],
            np.array([[0.1, 0.2], [0.3, 0.4]]))
        vols = np.array([[2.5 * 3, 2.5 * 3], [1.5 * 3, 1.5 * 3]])
        assert np.sum(rho._density * vols) == pytest.approx(1.0, abs=1e-10)


class TestDrawSamples:
    def test_containment_and_shape(self):
        ck = Cuboid(2.5, 2.5)
        ss = draw_samples(Density.uniform(ck), 5, 5, seed=1)
        assert ss.points.shape == (25, 2)
        assert ck.contains(ss.points).all()

    def test_determinism_bit_for_bit(self):
        rho = Density.uniform(Cuboid(2.5, 2.5))
        a = draw_samples(rho, 7, 4, seed=99)
        b = draw_samples(rho, 7, 4, seed=99)
        assert np.array_equal(a.points, b.points)
        c = draw_samples(rho, 7, 4, seed=100)
        assert not np.array_equal(a.points, c.points)

    def test_uniform_mean_clt(self):
        rho = Density.uniform(Cuboid(2.5, 2.5))
        ss = draw_samples(rho, 400, 250, seed=5)  # 1e5 points
        sigma = 5.0 / np.sqrt(12.0)
        band = 3.0 * sigma / np.sqrt(ss.points.shape[0])
        assert np.all(np.abs(ss.points.mean(axis=0)) < band)

    def test_rejection_frequencies_two_cells(self):
        ck = Cuboid(1, 1)
        rho = Density.piecewise_constant(
            ck, [np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0])],
            np.array([[2 / 3], [1 / 3]]))
        ss = draw_samples(rho, 200, 100, seed=12)
        n = ss.points.shape[0]
        frac_left = np.mean(ss.points[:, 0] < 0)
        se = np.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(frac_left - 2 / 3) < 3 * se
        assert 0 < ss.acceptance_rate <= 1.0

    def test_separable_structure(self):
        rho = Density.uniform(Cuboid(2, 2))
        ss = draw_samples(rho, 4, 3, seed=3, mode="separable")
        grid = ss.as_grid()
        # x constant along k, y constant along j
        assert np.all(grid[:, :, 0] == grid[:, :1, 0])
        assert np.all(grid[:, :, 1] == grid[:1, :, 1])

    def test_separable_needs_uniform(self):
        ck = Cuboid(1, 1)
        rho = Density.piecewise_constant(
            ck, [np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0])],
            np.array([[2 / 3], [1 / 3]]))
        with pytest.raises(ValueError):
            draw_samples(rho, 3, 3, seed=0, mode="separable")

    def test_bad_counts_rejected(self):
        rho = Density.uniform(Cuboid(1, 1))
        with pytest.raises(ValueError):
            draw_samples(rho, 0, 3, seed=0)

    def test_csv_round_trip(self, tmp_path):
        rho = Density.uniform(Cuboid(2, 2))
        ss = draw_samples(rho, 3, 2, seed=8)
        path = tmp_path / "samples.csv"
        ss.to_csv(path, header_comment="seed=8")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# seed=8"
        assert lines[1] == "j,k,x,y1"
        assert len(lines) == 2 + 6
        j, k, x, y = lines[2].split(",")
        assert (int(j), int(k)) == (1, 1)
        assert float(x) == ss.points[0, 0]


class TestAveragingKernel:
    def test_l11_norm_of_box(self):
        ck = Cuboid(2.5, 2.5)
        kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], ck)
        assert kernel.l11_norm == pytest.approx(0.0625, abs=1e-12)

    def test_support_must_fit_cuboid(self):
        with pytest.raises(ValueError):
            AveragingKernel.box([(-2.0, 2.0), (-0.5, 0.5)], Cuboid(1, 1))

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValueError):
            AveragingKernel(TensorFunction.zero(2), Cuboid(1, 1))

    def test_l11_matches_abs_integral(self):
        ck = Cuboid(3, 3)
        psi = AveragingKernel.box([(0.5, 1.5), (0.5, 1.5)], ck, weight=-2.0)
        assert psi.l11_norm == pytest.approx(2.0, abs=1e-12)


class TestConvolve:
    def test_box_convolution_gives_next_spline(self):
        ck = Cuboid(2, 2)
        kernel = AveragingKernel.box([(-0.5, 0.5), (-0.5, 0.5)], ck)
        conv = convolve(TensorFunction.separable([bspline(0), bspline(0)]), kernel)
        target = TensorFunction.separable([bspline(1), bspline(1)])
        assert len(conv.terms) == 1
        for a in range(2):
            assert coefficient_distance(conv.terms[0][1][a], target.terms[0][1][a]) <= 1e-12

    def test_zero_function(self):
        ck = Cuboid(2, 2)
        kernel = AveragingKernel.box([(-0.5, 0.5), (-0.5, 0.5)], ck)
        assert convolve(TensorFunction.zero(2), kernel).is_zero

    def test_support_is_minkowski_sum(self):
        rng = np.random.default_rng(17)
        ck = Cuboid(4, 4)
        for _ in range(20):
            f = tensor_bspline([int(rng.integers(0, 4)), int(rng.integers(0, 4))],
                               [rng.uniform(-1, 1), rng.uniform(-1, 1)], rng.uniform(0.5, 2))
            a1, b1 = sorted(rng.uniform(-1, 1, 2))
            a2, b2 = sorted(rng.uniform(-1, 1, 2))
            if b1 - a1 < 0.05 or b2 - a2 < 0.05:
                continue
            kernel = AveragingKernel.box([(a1, b1), (a2, b2)], ck)
            conv = convolve(f, kernel)
            fbox = f.support_box()
            cbox = conv.support_box()
            np.testing.assert_allclose(cbox[0], (fbox[0][0] + a1, fbox[0][1] + b1), atol=1e-12)
            np.testing.assert_allclose(cbox[1], (fbox[1][0] + a2, fbox[1][1] + b2), atol=1e-12)

    def test_polynomial_kernel_factor_rejected(self):
        ck = Cuboid(2, 2)
        psi = TensorFunction.separable([bspline(1), bspline(0)])
        kernel = AveragingKernel(psi, ck)
        with pytest.raises(ValueError):
            convolve(tensor_bspline([1, 1]), kernel)


class TestAverageSample:
    def test_box_average_of_unit_box(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        val = average_sample(TensorFunction.separable([bspline(0), bspline(0)]),
                             kernel, (0.0, 0.0))
        assert val == pytest.approx(1 / 16, abs=1e-14)

    def test_zero_function(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        assert average_sample(TensorFunction.zero(2), kernel, (0.3, -0.7)) == 0.0

    def test_benchmark_signal_against_quadrature(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        ours = average_sample(f, kernel, (0.0, 1.0))
        oracle = gauss_box_average(f, (0.0, 1.0), 0.125)
        assert ours == pytest.approx(oracle, abs=1e-10)

    def test_batch_matches_single(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        ss = draw_samples(rho, 3, 4, seed=6)
        conv = convolve(f, kernel)
        batch = average_samples(conv, ss)
        assert batch.shape == (3, 4)
        for j in range(3):
            for k in range(4):
                assert batch[j, k] == pytest.approx(
                    average_sample(f, kernel, ss.point(j + 1, k + 1)), abs=1e-14)


class TestCenteredStatistic:
    def test_zero_signal(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        assert AverageSampleStatistic(TensorFunction.zero(2), kernel, rho).at((0.0, 0.0))[0] == 0.0

    def test_monte_carlo_mean_is_zero(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        stat = AverageSampleStatistic(f, kernel, rho)
        pts = draw_samples(rho, 500, 200, seed=21).points
        ys = stat.at(pts)
        band = 3.0 * ys.std() / np.sqrt(len(ys))
        assert abs(ys.mean()) < band

    def test_pointwise_bound(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        stat = AverageSampleStatistic(f, kernel, rho)
        pts = draw_samples(rho, 50, 20, seed=22).points
        bound = sup_norm(f, ck.scaled(2)) * kernel.l11_norm
        assert np.all(np.abs(stat.at(pts)) <= bound + 1e-12)

    def test_five_properties_moderate_scale(self, benchmark_setup):
        ck, rho, kernel, f = benchmark_setup
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.34, 2, 2, 0.1, 1.0)
        rng = np.random.default_rng(23)
        g = synthesize(phi, random_unit_grid(1, 2, 1, 2, 2, rng) * 4.0)
        stat_f = AverageSampleStatistic(f, kernel, rho)
        stat_g = AverageSampleStatistic(g, kernel, rho)
        pts = draw_samples(rho, 100, 100, seed=24).points
        yf, yg = stat_f.at(pts), stat_g.at(pts)
        W = kernel.l11_norm
        sup_f = sup_norm(f, ck.scaled(2))
        sup_fg = sup_norm(f - g, ck.scaled(2))
        # (2) pointwise bound, every draw
        assert np.all(np.abs(yf) <= sup_f * W + 1e-12)
        # (3) difference bound, every draw
        assert np.all(np.abs(yf - yg) <= 2 * sup_fg * W + 1e-12)
        # (1) centered
        assert abs(yf.mean()) < 3 * yf.std() / np.sqrt(len(yf)) + 1e-12
        # (4) variance bound with Monte Carlo tolerance
        var = yf.var(ddof=1)
        tol = 3 * var * np.sqrt(2 / (len(yf) - 1))
        assert var <= (sup_f * W) ** 2 + tol
        # (5) variance of the difference Y(f) - Y(g) (not Y(f-g))
        yd = yf - yg
        vard = yd.var(ddof=1)
        told = 3 * vard * np.sqrt(2 / (len(yd) - 1))
        assert vard <= 4 * (sup_fg * W) ** 2 + told

    def test_expectation_integral_accuracy(self, benchmark_setup):
        """The density-weighted absolute integral hits its 1e-9 target."""
        ck, rho, kernel, f = benchmark_setup
        conv = convolve(f, kernel)
        coarse = abs_integral(conv, ck, density=rho)
        fine = abs_integral(conv, ck, QuadratureSpec(12, 8), density=rho)
        assert abs(coarse - fine) < 1e-9

    def test_young_mixed_and_sup_variants(self, benchmark_setup):
        from avgsamp.mixed_space import mixed_norm

        ck, rho, kernel, f = benchmark_setup
        conv = convolve(f, kernel)
        for p, q in [(2, 2), (3, 2), (2, 4)]:
            lhs = mixed_norm(conv, p, q, ck)
            rhs = mixed_norm(f, p, q, ck.scaled(2)) * kernel.l11_norm
            assert lhs <= rhs + 1e-8
        assert sup_norm(conv, ck) <= sup_norm(f, ck.scaled(2)) * kernel.l11_norm + 1e-8


class TestAbsIntegral:
    def test_segment_integrals_match_scalar_root_splitting(self):
        rng = np.random.default_rng(31)
        width = 5
        rows, hs = [], []
        for i in range(300):
            h = float(rng.uniform(0.2, 2.0))
            kind = i % 4
            if kind == 0:  # random degree 0..4, zero-padded above its degree
                c = rng.normal(size=int(rng.integers(1, width + 1)))
            elif kind == 1:  # a root on a segment edge
                edge = 0.0 if rng.random() < 0.5 else h
                c = P.polymul([-edge, 1.0], rng.normal(size=int(rng.integers(1, width))))
            elif kind == 2:  # a double root inside the segment
                c = P.polymul(P.polyfromroots([rng.uniform(0, h)] * 2),
                              rng.normal(size=int(rng.integers(1, width - 1))))
            else:  # every root inside the segment
                c = P.polyfromroots(rng.uniform(0, h, int(rng.integers(1, width))))
            rows.append(np.pad(c, (0, width - len(c))))
            hs.append(h)
        rows.append(np.zeros(width))
        hs.append(1.0)
        coeffs, hs = np.array(rows), np.array(hs)
        got = _abs_segment_integrals(coeffs, hs)
        want = np.array([scalar_abs_poly_integral(c, h) for c, h in zip(coeffs, hs)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_three_dimensional_value_is_exact(self):
        """B2(x) B1(y1) (B2(y2) - 0.6 B2(y2 - 0.5)) has one sign change in y2."""
        f = tensor_bspline([2, 1, 2]) + tensor_bspline([2, 1, 2], [0, 0, 0.5], -0.6)
        b2 = bspline(2)

        def g(y):
            return b2(y) - 0.6 * b2(y - 0.5)

        knots = np.unique(np.concatenate([b2.breakpoints, b2.breakpoints + 0.5]))
        cuts = list(knots)
        for a, b in zip(knots[:-1], knots[1:]):
            ys = np.linspace(a, b, 101)
            vals = g(ys)
            cuts += [brentq(g, ys[i], ys[i + 1]) for i in range(100) if vals[i] * vals[i + 1] < 0]
        cuts = np.unique(cuts)
        # the x and y1 factors are nonnegative and integrate to one
        oracle = sum(abs(quad(g, a, b, epsabs=1e-15, epsrel=1e-13)[0])
                     for a, b in zip(cuts[:-1], cuts[1:]))
        for spec in (QuadratureSpec(8, 1), QuadratureSpec(4, 1)):
            assert abs_integral(f, Cuboid(2, 2, 2), spec) == pytest.approx(oracle, rel=1e-12)

    def test_density_weighted_d2_peak_memory_is_bounded(self):
        ck = Cuboid(1.5, 1.5, 2)
        phi = GeneratorSet((tensor_bspline([2, 2, 2]),), 1.5, 2, 2, 0.1, 1.0)
        g = synthesize(phi, random_unit_grid(1, 1, 2, 2, 2, np.random.default_rng(3)))
        conv = convolve(g, AveragingKernel.box([(-0.125, 0.125)] * 3, ck))
        rho = Density.uniform(ck)
        peaks = []
        # a full tensor grid of quadrature nodes would take ~160 MB and ~550 MB here
        for spec in (QuadratureSpec(4, 1), QuadratureSpec(6, 1)):
            tracemalloc.start()
            try:
                abs_integral(conv, ck, spec, density=rho)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8 * 2 ** 20

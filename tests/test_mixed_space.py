"""Tests for tensor functions, coefficient grids and mixed norms."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from avgsamp.bounds import SpaceParams, c_prime
from avgsamp.mixed_space import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    TensorFunction,
    box_function,
    decay_constant,
    estimate_stability,
    lp_norm_1d,
    lpq_norm,
    mixed_norm,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.piecewise import bspline
from avgsamp.sampling import AveragingKernel, convolve


def quadratic_spline(x):
    x = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    out[x <= 0.5] = 0.75 - x[x <= 0.5] ** 2
    mid = (x > 0.5) & (x < 1.5)
    out[mid] = 0.5 * (1.5 - x[mid]) ** 2
    return out


def two_term_signal():
    """3 B2(x) B2(y-1) - 5 B2(x+1) B2(y), the quadratic benchmark signal."""
    return tensor_bspline([2, 2], [0, 1], 3.0) + tensor_bspline([2, 2], [-1, 0], -5.0)


def signal_oracle(x, y):
    return 3.0 * quadratic_spline(x) * quadratic_spline(y - 1.0) - \
        5.0 * quadratic_spline(x + 1.0) * quadratic_spline(y)


def random_tensor_function(rng, max_terms=3, max_degree=3):
    f = TensorFunction.zero(2)
    for _ in range(rng.integers(1, max_terms + 1)):
        fx = bspline(int(rng.integers(0, max_degree + 1))).shift_scale(rng.uniform(-1.5, 1.5), 1.0)
        fy = bspline(int(rng.integers(0, max_degree + 1))).shift_scale(rng.uniform(-1.5, 1.5), 1.0)
        f = f + TensorFunction.separable([fx, fy], rng.uniform(-3, 3))
    return f


def flat_gauss_lp_norm(f, p, box, order=8):
    """Flat L^p oracle: one tensor Gauss rule and a single 2-D sum, no nested
    per-axis reduction.  Panels align with breakpoints as in the library so
    that the comparison isolates the norm-reduction logic."""
    rules = []
    for a, (lo, hi) in enumerate(box):
        knots = np.unique(np.clip(np.concatenate([[lo, hi], f.axis_breakpoints(a)]), lo, hi))
        x, w = leggauss(order)
        nodes, weights = [], []
        for s, e in zip(knots[:-1], knots[1:]):
            nodes.append(s + 0.5 * (e - s) * (x + 1))
            weights.append(0.5 * (e - s) * w)
        rules.append((np.concatenate(nodes), np.concatenate(weights)))
    xs, wx = rules[0]
    ys, wy = rules[1]
    vals = np.abs(f.evaluate_grid([xs, ys])) ** p
    return float((wx @ vals @ wy) ** (1.0 / p))


class TestCuboid:
    def test_box_and_volume(self):
        c = Cuboid(2.5, 2.5, 1)
        assert c.box == [(-2.5, 2.5), (-2.5, 2.5)]
        assert c.volume == 25.0
        assert c.scaled(2).box == [(-5.0, 5.0), (-5.0, 5.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Cuboid(0.0, 1.0)
        with pytest.raises(ValueError):
            Cuboid(1.0, 1.0, 0)

    @pytest.mark.parametrize("K1, K2", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_nan_half_width_rejected(self, K1, K2):
        with pytest.raises(ValueError, match="half-widths must be positive"):
            Cuboid(K1, K2)

    def test_higher_dimension(self):
        c = Cuboid(1.0, 2.0, 3)
        assert c.ndim == 4
        assert c.volume == 2.0 * 4.0 ** 3


class TestSynthesize:
    def test_zero_grid(self):
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.4, 2, 2, 0.2, 1.0)
        f = synthesize(phi, CoefficientGrid.zeros(1, 1, 1))
        assert f.is_zero

    def test_single_coefficient_identity(self):
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.4, 2, 2, 0.2, 1.0)
        c = CoefficientGrid.from_entries(1, 1, 1, [(0, (0, 0), 1.0)])
        f = synthesize(phi, c)
        pts = np.random.default_rng(0).uniform(-2, 2, (100, 2))
        np.testing.assert_allclose(f.evaluate(pts), phi.generators[0].evaluate(pts), atol=1e-15)

    def test_two_term_signal_value(self):
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.4, 2, 2, 0.2, 1.0)
        c = CoefficientGrid.from_entries(1, 2, 1, [(0, (0, 1), 3.0), (0, (-1, 0), -5.0)])
        f = synthesize(phi, c)
        assert f(0.0, 1.0) == pytest.approx(1.609375, abs=1e-14)
        assert f(0.0, 1.0) == pytest.approx(signal_oracle(0.0, 1.0), abs=1e-14)

    def test_linearity_at_random_points(self):
        rng = np.random.default_rng(11)
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.4, 2, 2, 0.2, 1.0)
        a = CoefficientGrid(rng.standard_normal((1, 3, 3)), 1)
        b = CoefficientGrid(rng.standard_normal((1, 3, 3)), 1)
        fa, fb, fab = synthesize(phi, a), synthesize(phi, b), synthesize(phi, a + b)
        pts = rng.uniform(-3, 3, (100, 2))
        np.testing.assert_allclose(fab.evaluate(pts), fa.evaluate(pts) + fb.evaluate(pts),
                                   atol=1e-12)


class TestEvaluateGrid:
    def test_matches_pointwise_values(self):
        f = tensor_bspline([2, 1, 2], [0.0, 0.5, -0.25], 2.0)
        axes = [np.linspace(-1.5, 1.5, 4), np.linspace(-0.5, 1.5, 3), np.linspace(-1, 1, 5)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        np.testing.assert_allclose(f.evaluate_grid(axes).ravel(), f.evaluate(pts), atol=1e-15)

    def test_wrong_axis_count_rejected(self):
        # two axes for a function of three variables used to drop the last factor
        f = tensor_bspline([2, 2, 2])
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="3 axes, got 2"):
            f.evaluate_grid([xs, xs])
        with pytest.raises(ValueError, match="3 axes, got 4"):
            f.evaluate_grid([xs] * 4)


class TestMixedNorm:
    def test_unit_square_indicator(self):
        ind = box_function([(0, 1), (0, 1)])
        for p, q in [(2, 2), (3, 2), (2, 4), (1.5, 3.5)]:
            assert mixed_norm(ind, p, q, Cuboid(2, 2)) == pytest.approx(1.0, rel=1e-12)

    def test_unit_box_spline(self):
        f = TensorFunction.separable([bspline(0), bspline(0)])
        assert mixed_norm(f, 2, 2, Cuboid(1, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_signal_norm_against_brute_force(self):
        f = two_term_signal()
        # midpoint brute force on a fine grid, built from the analytic oracle
        n = 2500
        xs = np.linspace(-2.5, 2.5, n, endpoint=False) + 2.5 / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        brute = np.sqrt(np.sum(signal_oracle(X, Y) ** 2) * (5.0 / n) ** 2)
        assert mixed_norm(f, 2, 2, Cuboid(2.5, 2.5)) == pytest.approx(brute, rel=1e-6)

    def test_flat_exponent_equals_plain_lp(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = random_tensor_function(rng)
            p = float(rng.uniform(1.5, 4.0))
            box = f.support_box()
            ours = mixed_norm(f, p, p, box)
            oracle = flat_gauss_lp_norm(f, p, box)
            assert ours == pytest.approx(oracle, rel=1e-8)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_tensor_function(rng)
            lam = float(rng.uniform(-5, 5))
            if lam == 0:
                continue
            base = mixed_norm(f, 2.5, 1.8)
            assert mixed_norm(lam * f, 2.5, 1.8) == pytest.approx(abs(lam) * base, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f, g = random_tensor_function(rng), random_tensor_function(rng)
            box = (f + g).support_box()
            p, q = float(rng.uniform(1.3, 4)), float(rng.uniform(1.3, 4))
            lhs = mixed_norm(f + g, p, q, box)
            rhs = mixed_norm(f, p, q, box) + mixed_norm(g, p, q, box)
            assert lhs <= rhs + 1e-9

    def test_invalid_exponents_rejected(self):
        f = two_term_signal()
        for p, q in [(1.0, 2.0), (2.0, 1.0), (np.inf, 2.0), (0.5, 2.0)]:
            with pytest.raises(ValueError):
                mixed_norm(f, p, q)


class TestYoungAndNormComparison:
    def test_mixed_young_on_random_instances(self):
        rng = np.random.default_rng(6)
        region = Cuboid(3.0, 3.0)
        for _ in range(30):
            phi = GeneratorSet((tensor_bspline([int(rng.integers(0, 3))] * 2),), 1.0, 2, 2, 0.2, 1.0)
            c = random_unit_grid(1, 1, 1, 2, 2, rng)
            f = synthesize(phi, c)
            half = rng.uniform(0.1, 0.8)
            kernel = AveragingKernel.box([(-half, half), (-half, half)], region,
                                         rng.uniform(0.2, 2.0))
            p, q = float(rng.uniform(1.3, 4)), float(rng.uniform(1.3, 4))
            lhs = mixed_norm(convolve(f, kernel), p, q, region)
            rhs = mixed_norm(f, p, q, region.scaled(2)) * kernel.l11_norm
            assert lhs <= rhs + 1e-8

    def test_sup_norm_comparison_constant(self):
        rng = np.random.default_rng(8)
        gen = tensor_bspline([2, 2])
        c_env = decay_constant(gen, 2.0, 2.0)
        params = SpaceParams(p=2, q=2, d=1, r=1, N=1, K1=2.5, K2=2.5,
                             alpha1=0.05, alpha2=1.0, decay_c=c_env, s1=2.0, s2=2.0,
                             rho_lower=0.04, rho_upper=0.04, psi_l11=1.0)
        cp = c_prime(params)
        phi = GeneratorSet((gen,), c_env, 2.0, 2.0, 0.05, 1.0)
        for _ in range(20):
            c = random_unit_grid(1, 1, 1, 2, 2, rng)
            f = synthesize(phi, c)
            assert sup_norm(f) <= cp * mixed_norm(f, 2, 2) + 1e-8


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(TensorFunction.zero(2)) == 0.0

    def test_hat_product_peak(self):
        f = TensorFunction.separable([bspline(1), bspline(1)])
        assert sup_norm(f, Cuboid(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_two_term_signal_peak(self):
        f = two_term_signal()
        val = sup_norm(f)
        assert val >= 5 * 0.75 * 0.75 - 3 * 0.125 * 0.125 - 1e-12
        # dense-grid oracle from the analytic formula
        xs = np.linspace(-2.5, 2.5, 1601)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        dense = np.max(np.abs(signal_oracle(X, Y)))
        assert val >= dense - 1e-9
        assert val <= dense + 1e-3


class TestSeqMixedNorm:
    def test_single_entry(self):
        for p, q in [(2, 2), (3, 2), (2, 4)]:
            g = CoefficientGrid.zeros(2, 1, 1)
            g.set(1, (0, -1), 5.0)
            assert g.seq_mixed_norm(p, q) == pytest.approx(5.0, rel=1e-14)

    def test_euclidean_pair(self):
        g = CoefficientGrid.zeros(1, 1, 1)
        g.set(0, (0, 0), 3.0)
        g.set(0, (0, 1), 4.0)
        assert g.seq_mixed_norm(2, 2) == pytest.approx(5.0, rel=1e-14)

    def test_flat_exponent_is_plain_lp(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            vals = rng.standard_normal((1, 5, 5))
            g = CoefficientGrid(vals, 2)
            p = float(rng.uniform(1.2, 4.0))
            assert g.seq_mixed_norm(p, p) == pytest.approx(
                float(np.sum(np.abs(vals) ** p) ** (1 / p)), rel=1e-12)

    def test_blocks_sum_over_generators(self):
        vals = np.zeros((2, 3, 3))
        vals[0, 1, 1] = 3.0
        vals[1, 1, 1] = 4.0
        g = CoefficientGrid(vals, 1)
        assert g.seq_mixed_norm(2, 2) == pytest.approx(7.0, rel=1e-14)

    def test_sup_variant(self):
        g = CoefficientGrid(np.array([[[1.0, -8.0, 2.0]] * 3]), 1)
        assert g.seq_mixed_norm(np.inf, np.inf) == 8.0

    def test_sample_array_norm(self):
        arr = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert lpq_norm(arr, 2, 2) == pytest.approx(5.0)
        assert lpq_norm(arr, 3, 2) == pytest.approx(5.0)


class TestStability:
    def test_bracket_ordering_and_positivity(self):
        phi = GeneratorSet((tensor_bspline([2, 2]),), 1.4, 2, 2, 0.2, 1.0)
        lo, hi = estimate_stability(phi, 2, 2, N=1, trials=10, seed=0)
        assert 0 < lo <= hi < np.inf

    def test_orthonormal_box_generator(self):
        phi = GeneratorSet((tensor_bspline([0, 0]),), 1.0, 2, 2, 1.0, 1.0)
        lo, hi = estimate_stability(phi, 2, 2, N=1, trials=25, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_requires_trials(self):
        phi = GeneratorSet((tensor_bspline([0, 0]),), 1.0, 2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_stability(phi, 2, 2, N=1, trials=0, seed=0)


class TestGeneratorSet:
    def test_alpha_ordering(self):
        with pytest.raises(ValueError):
            GeneratorSet((tensor_bspline([1, 1]),), 1.0, 2, 2, 2.0, 1.0)

    @pytest.mark.parametrize("position", range(5))
    def test_nan_constant_rejected(self, position):
        # decay_c, decay_s1, decay_s2, alpha1, alpha2
        args = [1.4, 2.0, 2.0, 0.2, 1.0]
        args[position] = float("nan")
        with pytest.raises(ValueError, match="must be positive"):
            GeneratorSet((tensor_bspline([2, 2]),), *args)

    def test_decay_constant_is_an_envelope(self):
        gen = tensor_bspline([2, 2])
        c = decay_constant(gen, 2.0, 2.0)
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1.6, 1.6, (4000, 2))
        envelope = c / ((1 + np.abs(pts[:, 0])) ** 2 * (1 + np.abs(pts[:, 1])) ** 2)
        assert np.all(np.abs(gen.evaluate(pts)) <= envelope * (1 + 1e-9))

    def test_decay_constant_of_a_sum_is_the_sum_of_term_constants(self):
        gen = tensor_bspline([2, 2]) + tensor_bspline([1, 2], [0.5, -0.5], -0.7)
        c = decay_constant(gen, 2.0, 3.0)
        parts = [decay_constant(TensorFunction([term]), 2.0, 3.0) for term in gen.terms]
        assert c == sum(parts)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.1, 2.1, (4000, 2))
        envelope = c / ((1 + np.abs(pts[:, 0])) ** 2 * (1 + np.abs(pts[:, 1])) ** 3)
        assert np.all(np.abs(gen.evaluate(pts)) <= envelope * (1 + 1e-9))
        zero = decay_constant(TensorFunction.zero(2), 2.0, 2.0)
        assert zero == 0.0 and isinstance(zero, float)

    def test_decay_constant_is_the_exact_weighted_maximum(self):
        # the root of g'(t)(1+t) + 2 g(t) on the right piece of bspline(2)
        assert decay_constant(TensorFunction.separable([bspline(2)]), 2.0, 2.0) == pytest.approx(
            1.1568830992953791, rel=1e-13)

    @pytest.mark.parametrize("degree, shift, s", [(0, 0.0, 2.0), (1, 0.0, 2.0), (1, 0.3, 2.5),
                                                   (2, 0.0, 2.0), (2, -0.7, 3.0), (3, 0.0, 1.5)])
    def test_decay_constant_is_not_below_a_fine_grid(self, degree, shift, s):
        g = bspline(degree).shift_scale(shift, 1.0)
        c = decay_constant(TensorFunction.separable([g]), s, s)
        lo, hi = g.support
        xs = np.linspace(lo, hi, 2_000_001)
        grid_max = np.max(np.abs(g(xs)) * (1.0 + np.abs(xs)) ** s)
        assert grid_max <= c <= grid_max * (1.0 + 1e-9)


class TestHelpers:
    def test_lp_norm_1d_box(self):
        f = bspline(0)
        assert lp_norm_1d(f, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_support_box(self):
        f = two_term_signal()
        assert f.support_box() == [(-2.5, 1.5), (-1.5, 2.5)]

    def test_grid_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CoefficientGrid(np.zeros((1, 4, 3)), 1)
        g = CoefficientGrid.zeros(1, 1, 1)
        with pytest.raises(IndexError):
            g.set(0, (2, 0), 1.0)
        for short_or_long in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match="needs 2 entries"):
                g.set(0, short_or_long, 1.0)

    def test_grid_rejects_a_generator_index_outside_its_range(self):
        g = CoefficientGrid.zeros(2, 1, 1)
        for i in (-1, 2):
            with pytest.raises(IndexError, match="generator"):
                g.set(i, (0, 0), 5.0)
            with pytest.raises(IndexError, match="generator"):
                g.get(i, (0, 0))
        assert not g.values.any()
        with pytest.raises(IndexError, match="generator"):
            CoefficientGrid.from_entries(2, 1, 1, [(0, (0, 0), 1.0), (-1, (1, 1), 2.0)])

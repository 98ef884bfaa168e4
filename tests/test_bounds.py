"""Tests for the closed-form constants and probability bounds.

Worked values are checked against independent in-test re-implementations
of the formulas (direct series summation, plain arithmetic), never
against the library's own code path.
"""

import math

import numpy as np
import pytest
from scipy.special import zeta

from avgsamp.bounds import (
    SpaceParams,
    amplitude_constants,
    approximation_radius,
    bernstein_tail,
    c_prime,
    c_star,
    concentration_class_report,
    covering_bound,
    deviation_threshold,
    lattice_decay_sum,
    mu_class_report,
    omega_class_report,
    reconstruction_report,
    uniform_tail_bound,
)


def base_params(**over) -> SpaceParams:
    kw = dict(p=2.0, q=2.0, d=1, r=1, N=1, K1=2.5, K2=2.5, alpha1=1.0, alpha2=1.0,
              decay_c=1.0, s1=2.0, s2=2.0, rho_lower=0.04, rho_upper=0.04, psi_l11=0.0625)
    kw.update(over)
    return SpaceParams(**kw)


def series_oracle_1d(exponent, terms=2_000_000):
    ks = np.arange(1, terms + 1, dtype=float)
    partial = 1.0 + 2.0 * np.sum((1.0 + ks) ** (-exponent))
    # integral tail bound
    tail = 2.0 * (1.0 + terms) ** (1.0 - exponent) / (exponent - 1.0)
    return partial, tail


def shell_loop(exponent, dim, tol=1e-10):
    """The shell-by-shell Python loop that the block sum replaced: (sum, shells)."""
    total, s = 1.0, 1
    while True:
        total += ((2 * s + 1) ** dim - (2 * s - 1) ** dim) * (1.0 + s) ** (-exponent)
        if 2 * dim * 3 ** (dim - 1) * (1.0 + s) ** (dim - exponent) / (exponent - dim) < tol:
            return total, s
        s += 1


class TestSeries:
    @pytest.mark.parametrize("e, dim", [(3.0, 1), (4.0, 2), (7.0, 3)])
    def test_block_sum_matches_shell_loop(self, e, dim):
        ref, shells = shell_loop(e, dim)
        # recursive summation of that many terms errs by at most shells * eps * sum
        assert abs(lattice_decay_sum(e, dim) - ref) <= shells * np.finfo(float).eps * ref

    def test_one_dimensional_sum_matches_zeta(self):
        # sum over Z of (1+|k|)^-4 = 2 zeta(4) - 1
        val = lattice_decay_sum(4.0, 1)
        assert val == pytest.approx(2 * zeta(4, 1) - 1, abs=1e-10)

    def test_direct_summation_oracle(self):
        val = lattice_decay_sum(3.0, 1)
        oracle, tail = series_oracle_1d(3.0)
        assert abs(val - oracle) <= tail + 1e-10

    def test_two_dimensional_shells(self):
        # brute-force over a box is a lower bound with an explicit remainder
        e = 5.0
        val = lattice_decay_sum(e, 2)
        R = 200
        ks = np.arange(-R, R + 1)
        K1, K2 = np.meshgrid(ks, ks, indexing="ij")
        brute = np.sum((1.0 + np.maximum(np.abs(K1), np.abs(K2))) ** (-e))
        assert val == pytest.approx(brute, abs=1e-6)

    @pytest.mark.parametrize("e, dim", [(3.0, 1), (4.0, 1), (4.0, 2), (6.0, 2)])
    def test_matches_zeta_closed_forms(self, e, dim):
        # over Z^2 the shell |k| = s holds 8 s points
        want = 2.0 * zeta(e) - 1.0 if dim == 1 else 1.0 + 8.0 * (zeta(e - 1.0) - zeta(e))
        assert lattice_decay_sum(e, dim) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            lattice_decay_sum(1.0, 1)
        with pytest.raises(ValueError):
            lattice_decay_sum(2.0, 2)


class TestCStar:
    def test_reference_value(self):
        # c~ = alpha1 = 1, p = q = 2, d = 1, s1 = s2 = 2:
        # c* = 2 (2 zeta(4) - 1)
        val = c_star(base_params())
        assert val == pytest.approx(2.0 * (2.0 * zeta(4, 1) - 1.0), abs=1e-8)

    def test_linear_in_decay_constant(self):
        assert c_star(base_params(decay_c=2.0)) == pytest.approx(
            2.0 * c_star(base_params()), rel=1e-12)

    def test_inverse_in_alpha1(self):
        assert c_star(base_params(alpha1=2.0, alpha2=2.0)) == pytest.approx(
            0.5 * c_star(base_params()), rel=1e-12)

    def test_general_exponents_against_direct_formula(self):
        P = base_params(p=3.0, q=2.5, s1=2.2, s2=1.9)
        e1 = P.s1 * P.p / (P.p - 1.0)
        e2 = P.s2 * P.q / (P.q - 1.0)
        S1 = lattice_decay_sum(e1, 1)
        S2 = lattice_decay_sum(e2, 1)
        oracle = 4.0 / (2.0 ** ((P.p + P.q) / (P.p * P.q))) * \
            S1 ** ((P.p - 1) / P.p) * S2 ** ((P.q - 1) / P.q)
        assert c_star(P) == pytest.approx(oracle, rel=1e-12)


class TestCPrime:
    def test_reference_value_via_series_oracle(self):
        # p' = q' = 2, s = 2: c' = 2 (2 zeta(4) - 1) for c~ = alpha1 = 1
        val = c_prime(base_params())
        assert val == pytest.approx(2.0 * (2.0 * zeta(4, 1) - 1.0), abs=1e-8)

    def test_scalings(self):
        assert c_prime(base_params(decay_c=3.0)) == pytest.approx(
            3.0 * c_prime(base_params()), rel=1e-12)
        assert c_prime(base_params(alpha1=4.0, alpha2=4.0)) == pytest.approx(
            0.25 * c_prime(base_params()), rel=1e-12)

    def test_conjugate_exponents_against_direct_formula(self):
        P = base_params(p=3.0, q=2.0, s1=2.0, s2=2.0)
        pc, qc = 1.5, 2.0
        oracle = (2.0 ** (1 / pc + 1 / qc)
                  * lattice_decay_sum(P.s1 * pc, 1) ** (1 / pc)
                  * lattice_decay_sum(P.s2 * qc, 1) ** (1 / qc))
        assert c_prime(P) == pytest.approx(oracle, rel=1e-12)


class TestCoveringBound:
    def test_substitution_at_eps_equal_2cprime(self):
        val, logv = covering_bound(2, 2 * 3.7, 2, 1, 3.7)
        M = 2 * 5 ** 2
        assert logv == pytest.approx(M * math.log(2.0), rel=1e-14)
        assert val == pytest.approx(2.0 ** M, rel=1e-10)

    def test_large_eps_limit(self):
        val, logv = covering_bound(1, 1e12, 1, 1, 2.0)
        assert logv == pytest.approx(0.0, abs=1e-10)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_worked_value(self):
        val, logv = covering_bound(1, 1.0, 1, 1, 2.0)
        assert val == pytest.approx(5 ** 9, rel=1e-10)

    def test_log_and_linear_agree(self):
        val, logv = covering_bound(1, 0.3, 1, 1, 2.5)
        assert math.log(val) == pytest.approx(logv, rel=1e-10)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            covering_bound(1, 0.0, 1, 1, 2.0)


class TestBernstein:
    def test_vacuous_at_zero(self):
        assert bernstein_tail(0.0, 5, 5, 1.0, 1.0) == 2.0

    def test_vanishes_at_infinity(self):
        assert bernstein_tail(1e12, 1, 1, 1.0, 1.0) < 1e-300

    def test_worked_value(self):
        assert bernstein_tail(3.0, 1, 1, 1.0, 1.0) == pytest.approx(
            2.0 * math.exp(-9.0 / 4.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernstein_tail(-1.0, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_tail(1.0, 1, 1, 1.0, 0.0)


class TestUniformTailBound:
    def test_amplitudes_at_unit_cstar(self):
        P = base_params()
        a1, log_a1, a2, log_a2 = amplitude_constants(P, 1.0)
        assert a1 == pytest.approx(2.0 * 5 ** 9, rel=1e-12)
        oracle_a2 = 4.0 * ((2.25) * (1.25)) ** 9 / (3.0 * math.log(2.0) ** 2 * 9.0)
        assert a2 == pytest.approx(oracle_a2, rel=1e-12)
        assert math.log(a1) == pytest.approx(log_a1, rel=1e-10)
        assert math.log(a2) == pytest.approx(log_a2, rel=1e-10)

    def test_monotone_decreasing_above_threshold(self):
        P = base_params()
        th = deviation_threshold(P, 4, 4)
        vals = [uniform_tail_bound(c * th, P, 4, 4) for c in (2.0, 3.0, 5.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_threshold_formula(self):
        P = base_params()
        n = m = 7
        base = 54 * 1 * math.sqrt(2) * math.log(2) * 3 ** 2
        oracle = base * (1 + math.sqrt(1 + 3 * n * m / (2 * math.sqrt(2) * math.log(2) * 9))) \
            * P.psi_l11
        assert deviation_threshold(P, n, m) == pytest.approx(oracle, rel=1e-12)

    def test_sub_threshold_rejected_with_threshold_in_message(self):
        P = base_params()
        th = deviation_threshold(P, 4, 4)
        with pytest.raises(ValueError) as err:
            uniform_tail_bound(0.9 * th, P, 4, 4)
        assert f"{th}" in str(err.value)


def omega_report_oracle(P: SpaceParams, gamma, omega, n, m):
    """Plain-arithmetic re-implementation of the omega-class constants."""
    W = P.psi_l11
    cs = c_star(P)
    D = (2 * P.K1) ** (P.q - 1) * (2 * P.K2) ** (P.d * (P.p - 1))
    pq = P.p * P.q
    T = gamma * P.rho_lower * (cs * W) ** (1 - pq) * omega ** pq / D
    A = (1 - gamma) * P.rho_lower * (cs * W) ** (1 - pq) * omega ** pq / D \
        * n ** (1 / P.p) * m ** (1 / P.q)
    B = P.rho_upper * W / ((2 * P.K1) ** ((1 - P.p) / P.p)
                           * (2 * P.K2) ** (P.d * (1 - P.q) / P.q)) * n * m + T * n * m
    M = P.r * (2 * P.N + 1) ** (P.d + 1)
    A1 = 2 * math.exp(M * math.log(4 * cs + 1))
    u = gamma * P.rho_lower * (omega / (cs * W)) ** pq
    b1 = (2 * P.K1) ** (1 - P.q) * (2 * P.K2) ** (P.d * (1 - P.p)) \
        * (math.sqrt(3) / 2 * u) ** 2 / (6 * D + u)
    A2 = 4 * ((2 * cs + 0.25) * (cs + 0.25)) ** M / (3 * P.r * math.log(2) ** 2
                                                     * (2 * P.N + 1) ** (P.d + 1))
    b2 = (2 * P.K1) ** (1 - P.q) * (2 * P.K2) ** (P.d * (1 - P.p)) \
        * (u * cs) ** 2 / (18 * math.sqrt(2) * (81 * D + 2 * u * cs))
    nm_min = (54 * P.r * math.sqrt(2) * math.log(2) * (2 * P.N + 1) ** (P.d + 1) * W / T ** 2) \
        * (2 * T + 81 * W)
    prob = 1 - A1 * math.exp(-n * m * b1) - A2 * math.exp(-n * m * b2)
    return dict(A_gamma_omega=A, B_gamma_omega=B, A1=A1, beta1=b1, A2=A2, beta2=b2,
                nm_min=nm_min, probability_raw=prob)


class TestOmegaClassReport:
    def test_against_arithmetic_oracle(self):
        P = base_params(N=2, decay_c=1.34, alpha1=0.4, alpha2=0.7)
        rep = omega_class_report(P, gamma=0.5, omega=0.0625, n=5, m=5)
        oracle = omega_report_oracle(P, 0.5, 0.0625, 5, 5)
        for key, val in oracle.items():
            assert rep[key] == pytest.approx(val, rel=1e-10), key

    def test_probability_nondecreasing_in_nm(self):
        P = base_params()
        probs = [omega_class_report(P, 0.4, 0.05, n, n)["probability_raw"]
                 for n in (2, 5, 10, 50, 200)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_lower_constant_scaling_in_nm(self):
        P = base_params(p=2.0, q=3.0, s1=2.5, s2=2.5)
        r1 = omega_class_report(P, 0.3, 0.05, 4, 9)
        r2 = omega_class_report(P, 0.3, 0.05, 16, 81)
        scale1 = r1["A_gamma_omega"] / (4 ** (1 / 2.0) * 9 ** (1 / 3.0))
        scale2 = r2["A_gamma_omega"] / (16 ** (1 / 2.0) * 81 ** (1 / 3.0))
        assert scale1 == pytest.approx(scale2, rel=1e-12)

    def test_parameter_validation(self):
        P = base_params()
        with pytest.raises(ValueError):
            omega_class_report(P, 0.0, 0.05, 5, 5)
        with pytest.raises(ValueError):
            omega_class_report(P, 0.5, 0.1, 5, 5)  # omega > ||psi||
        with pytest.raises(ValueError):
            omega_class_report(P, 1.5, 0.05, 5, 5)

    def test_clamped_probability_and_flags(self):
        P = base_params()
        rep = omega_class_report(P, 0.5, 0.0625, 5, 5)
        assert 0.0 <= rep["probability"] <= 1.0
        assert rep["probability_raw"] <= rep["probability"]
        assert rep.flags["nm_meets_threshold"] == (25 > rep["nm_min"])

    def test_probability_reaches_one(self):
        P = base_params()
        rep = omega_class_report(P, 0.5, 0.0625, 10 ** 9, 10 ** 9)
        assert rep["probability_raw"] == pytest.approx(1.0, abs=1e-12)


class TestMuClassReport:
    def test_worked_values_on_uniform_density(self):
        # uniform density on [-3, 3]^2, mu = 1, eta = rho_lower / 2
        P = base_params(K1=3.0, K2=3.0, rho_lower=1 / 36, rho_upper=1 / 36, psi_l11=1.0)
        mu, eta, n, m = 1.0, 0.5 / 36, 6, 7
        rep = mu_class_report(P, mu, eta, n, m)
        W, cs = 1.0, c_star(P)
        assert rep["lower_constant"] == pytest.approx(n * m * W * (mu / 36 - eta), rel=1e-12)
        upper = n * m * W * ((1 / 36) * 6 ** 0.5 * 6 ** 0.5 + eta)
        assert rep["upper_constant"] == pytest.approx(upper, rel=1e-12)
        nm_min = 54 * math.sqrt(2) * math.log(2) * 9 / eta * (2 + 81 / eta)
        assert rep["nm_min"] == pytest.approx(nm_min, rel=1e-12)
        b1 = 3 * eta ** 2 / (4 * cs * (6 * cs + eta))
        b2 = eta ** 2 / (18 * math.sqrt(2) * (81 + 2 * eta))
        assert rep["beta1"] == pytest.approx(b1, rel=1e-12)
        assert rep["beta2"] == pytest.approx(b2, rel=1e-12)

    def test_lower_constant_vanishes_at_eta_boundary(self):
        P = base_params()
        mu = 0.8
        etas = mu * P.rho_lower * np.array([0.9, 0.99, 0.999])
        lows = [mu_class_report(P, mu, float(e), 5, 5)["lower_constant"] for e in etas]
        assert lows[0] > lows[1] > lows[2] > 0.0
        assert lows[2] == pytest.approx(0.0, abs=1e-3)
        with pytest.raises(ValueError):
            mu_class_report(P, mu, mu * P.rho_lower, 5, 5)

    def test_threshold_decreasing_in_eta(self):
        P = base_params()
        t1 = mu_class_report(P, 1.0, 0.01, 5, 5)["nm_min"]
        t2 = mu_class_report(P, 1.0, 0.02, 5, 5)["nm_min"]
        assert t2 < t1

    def test_probability_monotone_and_limits(self):
        P = base_params()
        probs = [mu_class_report(P, 1.0, 0.02, n, n)["probability_raw"]
                 for n in (5, 50, 500, 10 ** 7)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == pytest.approx(1.0, abs=1e-9)


class TestApproximationRadius:
    def test_worked_value(self):
        P = base_params(K1=5.0, K2=5.0, s1=3.0, s2=3.0)
        val = approximation_radius(5.0, 5.0, 0.1, P, "N1")
        s = 3.0 + 0.5 + 0.5 - 2.0
        t1 = 1 * 5 ** 0.5 * 5 ** 0.5 * 1 * 6 ** 0.5 * 4 / (0.1 * 5 ** 0.5)
        t2 = 1 * 5 ** 0.5 * 5 ** 0.5 * 6 ** 0.5 * 4 / (0.1 * 5 ** 0.5)
        t3 = 1 * 5 ** 0.5 * 5 ** 0.5 * 1 * 1 * 4 / (0.1 * 5 ** 0.5 * 5 ** 0.5)
        assert val == pytest.approx(5.0 + (t1 + t2 + t3) ** (1 / s), rel=1e-12)

    def test_sup_variant_worked_value(self):
        P = base_params(K1=5.0, K2=5.0, s1=3.0, s2=3.0)
        val = approximation_radius(5.0, 5.0, 0.1, P, "N2")
        s = 2.0
        two = 2.0 ** (0.5 + 0.5)
        t1 = 1 * 6 ** 0.5 * two / (0.1 * 5 ** 0.5)
        t2 = 6 ** 0.5 * two / (0.1 * 5 ** 0.5)
        t3 = 1 * two / (0.1 * 5.0)
        assert val == pytest.approx(5.0 + (t1 + t2 + t3) ** (1 / s), rel=1e-12)

    def test_decreasing_in_eps_and_floor(self):
        P = base_params(s1=3.0, s2=3.0)
        for which in ("N1", "N2"):
            a = approximation_radius(2.0, 3.0, 0.05, P, which)
            b = approximation_radius(2.0, 3.0, 0.5, P, which)
            assert b < a
            assert b >= 3.0

    def test_exponent_is_positive_for_any_valid_params(self):
        # the decay floor on s1, s2 already forces s > 0, so the explicit
        # divergence guard can only fire on invalid inputs
        P = base_params(p=1.05, q=1.05, s1=1.05, s2=1.05)
        s = min(P.s1, P.s2) + 1.0 / P.p + P.d / P.q - (P.d + 1.0)
        assert s > 0
        assert approximation_radius(1.0, 1.0, 0.1, P, "N1") >= 1.0

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            approximation_radius(1.0, 1.0, 0.1, base_params(), "N3")


class TestConcentrationClassReport:
    def test_worked_report(self):
        P = base_params(s1=3.0, s2=3.0)
        rep = concentration_class_report(P, delta=0.1, eps=0.05, gamma=0.1, n=5, m=5)
        cs = c_star(P)
        D = 5.0 ** 1 * 5.0 ** 1
        W = P.psi_l11
        A_oracle = (P.rho_lower * cs ** (1 - 4) * W
                    * ((1 - 0.1) * (1 - 0.1 - 0.05) ** 5 - 0.05) / D * 5 ** 0.5 * 5 ** 0.5)
        assert rep["A"] == pytest.approx(A_oracle, rel=1e-10)
        B_oracle = (P.alpha2 * W / P.alpha1
                    * (P.rho_upper / ((2 * P.K1) ** (-0.5) * (2 * P.K2) ** (-0.5))
                       + 0.1 * P.rho_lower * cs ** (-3) * 0.85 ** 4 / D) * 25
                    + 0.05 * P.rho_lower * cs ** (-3) * W / D * 5)
        assert rep["B"] == pytest.approx(B_oracle, rel=1e-10)
        assert rep["omega"] == pytest.approx(0.85 * W, rel=1e-12)
        # forced radius comes from the truncation lemma at the doubled cuboid
        N1 = approximation_radius(5.0, 5.0, 0.05, P, "N1")
        eps2 = 0.05 * P.rho_lower * cs ** (-3) / D
        N2 = approximation_radius(5.0, 5.0, eps2, P, "N2")
        assert rep["N_required"] == pytest.approx(max(N1, N2), rel=1e-12)
        assert rep.flags["lower_constant_positive"]

    def test_gamma_cap_enforced(self):
        P = base_params(s1=3.0, s2=3.0)
        cap = 1.0 - 0.05 / (0.85) ** 5
        with pytest.raises(ValueError, match="gamma"):
            concentration_class_report(P, 0.1, 0.05, cap + 0.001, 5, 5)

    def test_b_grows_linearly_in_nm(self):
        P = base_params(s1=3.0, s2=3.0)
        b1 = concentration_class_report(P, 0.1, 0.05, 0.1, 10, 10)["B"]
        b2 = concentration_class_report(P, 0.1, 0.05, 0.1, 40, 40)["B"]
        assert b2 / b1 == pytest.approx(16.0, rel=0.05)

    def test_range_validation(self):
        P = base_params(s1=3.0, s2=3.0)
        with pytest.raises(ValueError, match="delta"):
            concentration_class_report(P, 1.2, 0.05, 0.1, 5, 5)
        with pytest.raises(ValueError, match="eps"):
            concentration_class_report(P, 0.5, 0.7, 0.1, 5, 5)


class TestReconstructionProbability:
    def test_matches_omega_form_with_scaled_margin(self):
        # the success bound equals the omega-class rates evaluated at
        # omega = beta_tilde / alpha2
        P = base_params(alpha1=0.5, alpha2=0.8, N=2)
        bt = 0.03
        rep = reconstruction_report(P, 0.4, bt, 6, 7)
        om = omega_class_report(P, 0.4, bt / P.alpha2, 6, 7)
        assert rep["beta1"] == pytest.approx(om["beta1"], rel=1e-12)
        assert rep["beta2"] == pytest.approx(om["beta2"], rel=1e-12)
        assert rep["probability_raw"] == pytest.approx(om["probability_raw"], rel=1e-12)

    def test_worked_value(self):
        P = base_params()
        gamma, bt, n, m = 0.5, 0.05, 5, 5
        cs = c_star(P)
        D = 25.0
        u = gamma * P.rho_lower * (bt / (P.alpha2 * cs) / P.psi_l11) ** 4
        b1 = (1 / D) * (math.sqrt(3) / 2 * u) ** 2 / (6 * D + u)
        b2 = (1 / D) * (u * cs) ** 2 / (18 * math.sqrt(2) * (81 * D + 2 * u * cs))
        M = 9.0
        A1 = 2 * math.exp(M * math.log(4 * cs + 1))
        A2 = 4 * ((2 * cs + 0.25) * (cs + 0.25)) ** M / (3 * math.log(2) ** 2 * 9)
        oracle = 1 - A1 * math.exp(-25 * b1) - A2 * math.exp(-25 * b2)
        assert reconstruction_report(P, gamma, bt, n, m)["probability_raw"] == pytest.approx(
            oracle, rel=1e-10)

    def test_monotone_and_limit(self):
        P = base_params()
        vals = [reconstruction_report(P, 0.5, 0.05, n, n)["probability_raw"]
                for n in (5, 50, 5000, 10 ** 9)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            reconstruction_report(base_params(), 0.5, 0.0, 5, 5)
        with pytest.raises(ValueError):
            reconstruction_report(base_params(), 1.0, 0.1, 5, 5)


TAIL_KEYS = {"c_star", "A1", "log_A1", "beta1", "A2", "log_A2", "beta2",
             "log_term1", "log_term2", "probability_raw", "probability", "n", "m", "nm"}

# each report's own constants and flags next to the shared tail block
REPORT_KINDS = {
    "omega_class": (lambda P, n, m: omega_class_report(P, 0.5, 0.0625, n, m),
                    {"A_gamma_omega", "B_gamma_omega", "gamma", "omega", "nm_min"},
                    {"nm_meets_threshold"}),
    "mu_class": (lambda P, n, m: mu_class_report(P, 1.0, 0.02, n, m),
                 {"lower_constant", "upper_constant", "mu", "eta", "nm_min"},
                 {"nm_meets_threshold"}),
    "concentration_class": (lambda P, n, m: concentration_class_report(P, 0.1, 0.05, 0.1, n, m),
                            {"A", "B", "omega", "N_required", "N_required_ceil",
                             "delta", "eps", "gamma", "nm_min"},
                            {"nm_meets_threshold", "lower_constant_positive"}),
    "reconstruction": (lambda P, n, m: reconstruction_report(P, 0.5, 0.05, n, m),
                       {"beta_tilde", "gamma"}, set()),
}


class TestSharedTail:
    """The probability tail 1 - A1 e^{-nm beta1} - A2 e^{-nm beta2} of every report."""

    @pytest.mark.parametrize("kind", sorted(REPORT_KINDS))
    @pytest.mark.parametrize("n", [5, 10 ** 9])
    def test_keys_log_terms_and_clamping(self, kind, n):
        make, own, flags = REPORT_KINDS[kind]
        rep = make(base_params(s1=3.0, s2=3.0), n, n + 1)
        assert rep.kind == kind
        assert set(rep.constants) == TAIL_KEYS | own
        assert set(rep.flags) == flags
        nm = float(n * (n + 1))
        assert (rep["n"], rep["m"], rep["nm"]) == (float(n), float(n + 1), nm)
        for i in ("1", "2"):
            assert rep["log_term" + i] == rep["log_A" + i] - nm * rep["beta" + i]
        with np.errstate(over="ignore"):
            raw = 1.0 - np.exp(rep["log_term1"]) - np.exp(rep["log_term2"])
        assert rep["probability_raw"] == pytest.approx(raw, rel=1e-14)
        assert rep["probability"] == min(max(rep["probability_raw"], 0.0), 1.0)
        if "nm_min" in own:
            assert rep.flags["nm_meets_threshold"] == (nm > rep["nm_min"])

    def test_cases_cover_vacuous_overflowing_and_near_one(self):
        raws = {kind: [make(base_params(s1=3.0, s2=3.0), n, n + 1)["probability_raw"]
                       for n in (5, 10 ** 9)]
                for kind, (make, _, _) in REPORT_KINDS.items()}
        assert all(small < 0.0 for small, _ in raws.values())
        assert raws["concentration_class"][0] == -math.inf
        assert raws["omega_class"][1] == pytest.approx(1.0)


class TestSpaceParams:
    def test_decay_floor(self):
        with pytest.raises(ValueError):
            base_params(s1=0.9)

    def test_alpha_ordering(self):
        with pytest.raises(ValueError):
            base_params(alpha1=2.0, alpha2=1.0)

    def test_density_bounds_ordering(self):
        with pytest.raises(ValueError):
            base_params(rho_lower=0.1, rho_upper=0.05)

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            base_params(p=1.0)

    def test_report_serializes(self):
        rep = omega_class_report(base_params(), 0.5, 0.05, 5, 5)
        doc = rep.to_json()
        assert '"c_star"' in doc and '"probability"' in doc

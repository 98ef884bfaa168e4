"""Tests for matrix assembly, recovery, dual functions and trial loops."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from avgsamp import mixed_space, reconstruction
from avgsamp.experiments import build_experiment, constants_report, load_config, probability_sweep, run_table
from avgsamp.mixed_space import (
    ByteGuardError,
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    mixed_norm,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.reconstruction import (
    RANK_TOL,
    RECOVERY_TOL,
    RankDeficientError,
    TrialSpec,
    _factored_svd,
    beta_tilde,
    build_sample_matrix,
    dual_family,
    empirical_success,
    membership,
    solve,
    wilson_interval,
)
from avgsamp.sampling import AveragingKernel, Density, average_sample, convolve, draw_samples


@pytest.fixture(scope="module")
def quadratic_setup():
    ck = Cuboid(2.5, 2.5)
    rho = Density.uniform(ck)
    kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], ck)
    phi = GeneratorSet((tensor_bspline([2, 2]),), 1.34, 2, 2, 0.1, 1.0)
    coeffs = CoefficientGrid.from_entries(1, 2, 1, [(0, (0, 1), 3.0), (0, (-1, 0), -5.0)])
    return ck, rho, kernel, phi, coeffs


class TestSampleMatrix:
    def test_consistency_with_direct_samples(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 4, 5, seed=31)
        S = build_sample_matrix(phi, kernel, samples, 2)
        rng = np.random.default_rng(32)
        for _ in range(20):
            c = CoefficientGrid(rng.standard_normal((1, 5, 5)), 2)
            f = synthesize(phi, c)
            direct = convolve(f, kernel).evaluate(samples.points)
            assert np.max(np.abs(S.entries @ c.flatten() - direct)) <= 1e-10

    def test_single_entry_matrix(self):
        ck = Cuboid(2, 2)
        rho = Density.uniform(ck)
        kernel = AveragingKernel.box([(-0.25, 0.25), (-0.25, 0.25)], ck)
        phi = GeneratorSet((tensor_bspline([1, 1]),), 1.0, 2, 2, 0.1, 1.0)
        # center chosen so the integration box avoids the hat kinks
        pts = np.array([[0.5, -0.5]])
        samples = draw_samples(rho, 1, 1, seed=0)
        object.__setattr__(samples, "points", pts)
        S = build_sample_matrix(phi, kernel, samples, 0)
        assert S.shape == (1, 1)
        oracle = average_sample(phi.generators[0], kernel, (0.5, -0.5))
        assert S.entries[0, 0] == pytest.approx(oracle, abs=1e-14)
        # quadrature oracle for the same value
        x, w = leggauss(30)
        xs, ws = 0.5 + 0.25 * x, 0.25 * w
        ys = -0.5 + 0.25 * x
        vals = phi.generators[0].evaluate_grid([xs, ys])
        assert S.entries[0, 0] == pytest.approx(float(ws @ vals @ ws), abs=1e-12)

    def test_column_order_matches_grid_flattening(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 6, 6, seed=33)
        S = build_sample_matrix(phi, kernel, samples, 2)
        f = synthesize(phi, coeffs)
        direct = convolve(f, kernel).evaluate(samples.points)
        assert np.max(np.abs(S.entries @ coeffs.flatten() - direct)) <= 1e-12

    def test_entries_reproducible_from_provenance(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 5, 5, seed=30)
        S = build_sample_matrix(phi, kernel, samples, 2)
        rebuilt = build_sample_matrix(S.phi, S.kernel, S.samples, S.N)
        assert np.max(np.abs(S.entries - rebuilt.entries)) <= 1e-12


class TestSolve:
    def test_zero_samples_give_zero_grid(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 6, 6, seed=34)
        S = build_sample_matrix(phi, kernel, samples, 2)
        res = solve(S, np.zeros(36))
        assert np.all(res.grid.values == 0.0)
        assert res.residual == 0.0

    def test_round_trip(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 7, 7, seed=35)
        S = build_sample_matrix(phi, kernel, samples, 2)
        values = convolve(synthesize(phi, coeffs), kernel).evaluate(samples.points)
        res = solve(S, values)
        assert np.max(np.abs(res.grid.values - coeffs.values)) <= 1e-9
        assert res.diagnostics.rank == 25

    def test_duplicated_rows_leave_solution_unchanged(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 7, 7, seed=36)
        S = build_sample_matrix(phi, kernel, samples, 2)
        values = convolve(synthesize(phi, coeffs), kernel).evaluate(samples.points)
        base = solve(S, values).grid.values
        import dataclasses

        S2 = dataclasses.replace(
            S, factors=(np.concatenate([S.entries, S.entries[:10]], axis=0),))
        res2 = solve(S2, np.concatenate([values, values[:10]]))
        assert np.max(np.abs(res2.grid.values - base)) <= 1e-9

    def test_rank_deficiency_raises_with_rank(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 1, 1, seed=37)
        S = build_sample_matrix(phi, kernel, samples, 2)
        with pytest.raises(RankDeficientError) as err:
            solve(S, np.zeros(1))
        diag = err.value.diagnostics
        assert diag.rank <= 1
        assert diag.columns == 25 and diag.rank_deficient
        # the one singular value of a single row; the 25th is missing
        assert _factored_svd(S.factors)[1].shape == (1,)
        assert (diag.sigma_min, diag.condition_number) == (0.0, math.inf)

    def test_vector_length_checked(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 3, 3, seed=38)
        S = build_sample_matrix(phi, kernel, samples, 2)
        with pytest.raises(ValueError):
            solve(S, np.zeros(8))


class TestDualFamily:
    def test_reconstruction_identity(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 8, 8, seed=39)
        S = build_sample_matrix(phi, kernel, samples, 2)
        fam = dual_family(S)
        rng = np.random.default_rng(40)
        pts = rng.uniform(-2.5, 2.5, (200, 2))
        for _ in range(10):
            c = CoefficientGrid(rng.standard_normal((1, 5, 5)), 2)
            f = synthesize(phi, c)
            values = convolve(f, kernel).evaluate(samples.points)
            recon = fam.reconstruct(values)
            assert np.max(np.abs(recon.evaluate(pts) - f.evaluate(pts))) <= 1e-9

    def test_zero_samples_reconstruct_zero(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 6, 6, seed=41)
        fam = dual_family(build_sample_matrix(phi, kernel, samples, 2))
        recon = fam.reconstruct(np.zeros(36))
        assert recon.is_zero

    def test_linearity(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 7, 7, seed=42)
        fam = dual_family(build_sample_matrix(phi, kernel, samples, 2))
        rng = np.random.default_rng(43)
        s1 = rng.standard_normal(49)
        s2 = rng.standard_normal(49)
        pts = rng.uniform(-2.5, 2.5, (100, 2))
        both = fam.reconstruct(s1 + s2).evaluate(pts)
        separate = fam.reconstruct(s1).evaluate(pts) + fam.reconstruct(s2).evaluate(pts)
        assert np.max(np.abs(both - separate)) <= 1e-10

    def test_dual_functions_assemble_the_identity(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 5, 5, seed=44)
        S = build_sample_matrix(phi, kernel, samples, 2)
        fam = dual_family(S)
        f = synthesize(phi, coeffs)
        values = convolve(f, kernel).evaluate(samples.points).reshape(5, 5)
        pts = np.random.default_rng(45).uniform(-2.5, 2.5, (50, 2))
        total = np.zeros(50)
        for j in range(1, 6):
            for k in range(1, 6):
                total += values[j - 1, k - 1] * fam.function(j, k).evaluate(pts)
        assert np.max(np.abs(total - f.evaluate(pts))) <= 1e-9

    def test_coefficients_are_solve_bytewise(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 6, 7, seed=47)
        S = build_sample_matrix(phi, kernel, samples, 2)
        fam = dual_family(S)
        v = np.random.default_rng(48).standard_normal(42)
        assert np.array_equal(fam.coefficients(v).values, solve(S, v).grid.values)
        assert isinstance(fam.reconstruct(v), LatticeSpline)
        assert isinstance(fam.function(2, 3), LatticeSpline)
        # the dual function of a sample is the reconstruction from its unit sample vector
        unit = np.zeros(42)
        unit[(2 - 1) * 7 + (3 - 1)] = 1.0
        assert np.allclose(fam.function(2, 3).coefficients.values, fam.coefficients(unit).values,
                           rtol=0.0, atol=1e-12 * np.abs(fam.coefficients(unit).values).max())

    @pytest.mark.parametrize("j, k", [(2, 0), (0, 3), (7, 1), (1, 8), (-1, 3)])
    def test_dual_function_rejects_an_index_outside_the_draw(self, quadratic_setup, j, k):
        # (2, 0) would otherwise land on row 6, the dual of sample (1, 7)
        ck, rho, kernel, phi, _ = quadratic_setup
        fam = dual_family(build_sample_matrix(phi, kernel, draw_samples(rho, 6, 7, seed=47), 2))
        assert isinstance(fam.function(6, 7), LatticeSpline)
        with pytest.raises(IndexError, match=r"outside \[1, 6\] x \[1, 7\]"):
            fam.function(j, k)

    def test_benchmark_draw_reaches_machine_precision(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 5, 5, seed=20240811)
        S = build_sample_matrix(phi, kernel, samples, 2)
        f = synthesize(phi, coeffs)
        values = convolve(f, kernel).evaluate(samples.points)
        recon = dual_family(S).reconstruct(values)
        # f - recon is the lattice of the coefficient error, as run_table measures it
        delta = CoefficientGrid(coeffs.values - recon.coefficients.values, coeffs.N)
        err = sup_norm(LatticeSpline(phi, delta), ck)
        assert err <= 1e-11  # observed at the 1e-12..1e-15 scale


class TestBetaTilde:
    def test_nonnegative_and_certified_for_l2(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        est = beta_tilde(phi, kernel, 2, 2, 2, ck)
        assert est.value >= 0.0
        assert est.certified
        assert est.method == "gram_eigenvalue"

    def test_value_squared_is_min_rayleigh_quotient(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        est = beta_tilde(phi, kernel, 1, 2, 2, ck)
        convolved = [convolve(g, kernel) for g in phi.generators]
        rng = np.random.default_rng(46)
        # every random unit grid gives a quotient at least the eigenvalue
        quotients = []
        for _ in range(100):
            c = random_unit_grid(1, 1, 1, 2, 2, rng)
            flat = np.linalg.norm(c.flatten())
            q = mixed_norm(synthesize(convolved, c), 2, 2, ck) / flat
            quotients.append(q * q)
        assert est.value ** 2 <= min(quotients) + 1e-8

    def test_benchmark_system_is_full_rank(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        est = beta_tilde(phi, kernel, 2, 2, 2, ck)
        assert est.value > 1e-4

    def test_random_search_estimate_for_other_exponents(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        est = beta_tilde(phi, kernel, 1, 3, 2, ck, trials=20, seed=1)
        assert not est.certified
        assert est.value > 0.0
        assert "estimate" in est.method


class TestMembership:
    def test_zero_function_fails_min_conv_norm(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        zero = CoefficientGrid.zeros(1, 2, 1)
        res = membership(phi, kernel, zero, "min_conv_norm", ck, 2, 2, omega=0.01)
        assert not res.member
        assert res.slacks["conv_norm_margin"] < 0

    def test_linear_benchmark_signal_in_avg_mass_class(self):
        ck = Cuboid(3, 3)
        kernel = AveragingKernel.box([(0.5, 1.5), (0.5, 1.5)], ck)
        phi = GeneratorSet((tensor_bspline([1, 1]),), 1.0, 2, 2, 0.1, 1.0)
        c = CoefficientGrid.from_entries(1, 1, 1, [(0, (0, 0), 1.0), (0, (1, 1), 3.0)])
        res = membership(phi, kernel, c, "avg_conv_mass", ck, 2, 2, mu=0.5)
        assert res.member
        assert res.slacks["avg_mass_margin"] > 0

    def test_scaling_invariance(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        for lam in (0.1, 7.0):
            for cls, kw in [("min_conv_norm", {"omega": 1e-6}),
                            ("avg_conv_mass", {"mu": 0.3}),
                            ("energy_concentrated", {"delta": 0.2})]:
                base = membership(phi, kernel, coeffs, cls, ck, 2, 2, **kw)
                scaled_kw = dict(kw)
                if "omega" in scaled_kw:
                    scaled_kw["omega"] = scaled_kw["omega"] * lam
                scaled = membership(phi, kernel, coeffs * lam, cls, ck, 2, 2, **scaled_kw)
                assert base.member == scaled.member

    def test_energy_concentrated_membership(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        # signal support lies inside the cuboid, so concentration is total
        res = membership(phi, kernel, coeffs, "energy_concentrated", ck, 2, 2, delta=0.5)
        assert res.member
        assert res.slacks["concentration_margin"] >= 0

    def test_parameter_validation(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        with pytest.raises(ValueError):
            membership(phi, kernel, coeffs, "min_conv_norm", ck, 2, 2)
        with pytest.raises(ValueError):
            membership(phi, kernel, coeffs, "avg_conv_mass", ck, 2, 2, mu=1.5)
        with pytest.raises(ValueError):
            membership(phi, kernel, coeffs, "no_such_class", ck, 2, 2)


class TestEmpiricalSuccess:
    def test_vacuous_bounds_give_fraction_one(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("omega_inequality", phi, kernel, rho, coeffs, 2, 4, 4,
                         bounds=(0.0, np.inf))
        summary = empirical_success(spec, trials=10, seed=50)
        assert summary.fraction == 1.0

    @pytest.mark.parametrize("kind", ["omega_inequality", "mu_inequality"])
    def test_inequality_trials_require_bounds(self, quadratic_setup, kind):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec(kind, phi, kernel, rho, coeffs, 2, 4, 4)
        with pytest.raises(ValueError, match="bounds"):
            empirical_success(spec, trials=2, seed=50)

    def test_fraction_bracketed_by_interval(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 5, 5)
        summary = empirical_success(spec, trials=25, seed=51)
        assert 0.0 <= summary.wilson_low <= summary.fraction <= summary.wilson_high <= 1.0

    def test_rank_deficient_trials_recorded_as_failures(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 2, 2)
        summary = empirical_success(spec, trials=5, seed=52)
        assert summary.fraction == 0.0
        assert all(r.diagnostics.rank_deficient for r in summary.records)

    def test_records_serialize_to_jsonl(self, quadratic_setup, tmp_path):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 6, 6)
        path = tmp_path / "trials.jsonl"
        summary = empirical_success(spec, trials=4, seed=53, jsonl_path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        import json

        rec = json.loads(lines[0])
        assert set(rec) == {"trial", "seed", "success", "rank", "rank_deficient", "error",
                            "sigma_min", "condition_number"}
        assert 0.0 < rec["sigma_min"] <= rec["sigma_min"] * rec["condition_number"]

    @pytest.mark.parametrize("kind", ["omega_inequality", "mu_inequality"])
    def test_inequality_records_carry_no_matrix_diagnostics(self, quadratic_setup, tmp_path, kind):
        # inequality trials build no sample matrix, so no rank is written
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec(kind, phi, kernel, rho, coeffs, 2, 6, 6, bounds=(0.0, 1.0))
        path = tmp_path / "trials.jsonl"
        summary = empirical_success(spec, trials=3, seed=53, jsonl_path=path)
        assert all(r.diagnostics is None for r in summary.records)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert (rec["rank"], rec["rank_deficient"], rec["sigma_min"], rec["condition_number"]) == (
                None, None, None, None)
            assert '"rank": null' in line

    def test_inequality_records_say_by_how_much_they_missed(self, config_dir, tmp_path):
        # every record carries its statistic and the bounds it was tested against, the
        # report's factors times ||f||; trials 1, 2, 6 and 9 of this draw fall below the lower one
        exp = load_config(config_dir / "linear_bspline.json")
        probability_sweep(exp, [(2, 3)], 12, "mu", jsonl_dir=tmp_path)
        recs = [json.loads(line) for line in (tmp_path / "trials_mu_2x3.jsonl").read_text().splitlines()]
        rep, fnorm = constants_report(exp, "mu", n=2, m=3), mixed_norm(exp.f, exp.p, exp.q)
        assert [r["trial"] for r in recs if not r["success"]] == [1, 2, 6, 9]
        for r in recs:
            assert r["error"] is None
            assert (r["lower"], r["upper"]) == (rep["lower_constant"] * fnorm, rep["upper_constant"] * fnorm)
            assert r["success"] == (r["lower"] <= r["statistic"] <= r["upper"])
            assert r["success"] or r["statistic"] < r["lower"]

    def test_determinism(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 6, 6)
        a = empirical_success(spec, trials=6, seed=54)
        b = empirical_success(spec, trials=6, seed=54)
        assert [r.seed for r in a.records] == [r.seed for r in b.records]
        assert [r.error for r in a.records] == [r.error for r in b.records]


class TestWilson:
    def test_known_values(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 <= lo <= 0.8 <= hi <= 1.0
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)

    def test_interval_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestRandomizedRoundTrips:
    def test_ten_random_configurations(self):
        rng = np.random.default_rng(60)
        recovered = 0
        deficient = 0
        for trial in range(10):
            degree = int(rng.integers(0, 4))
            N = int(rng.integers(1, 3))
            ck = Cuboid(float(N + 2.0), float(N + 2.0))
            rho = Density.uniform(ck)
            half = float(rng.uniform(0.1, 0.5))
            kernel = AveragingKernel.box([(-half, half), (-half, half)], ck)
            phi = GeneratorSet((tensor_bspline([degree, degree]),), 1.0, 2, 2, 0.1, 1.0)
            c = CoefficientGrid(rng.standard_normal((1, 2 * N + 1, 2 * N + 1)), N)
            cols = (2 * N + 1) ** 2
            n = m = int(np.ceil(np.sqrt(2 * cols)))
            samples = draw_samples(rho, n, m, seed=int(rng.integers(0, 2 ** 31)))
            S = build_sample_matrix(phi, kernel, samples, N)
            values = convolve(synthesize(phi, c), kernel).evaluate(samples.points)
            try:
                res = solve(S, values)
            except RankDeficientError:
                deficient += 1
                continue
            assert np.max(np.abs(res.grid.values - c.values)) <= 1e-9
            recovered += 1
        assert recovered >= 8


# -- the Kronecker-factored path of separable draws against the dense SVD ----

SCALE_D2 = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "scale_d2.json"
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def separable_draws(quadratic_setup):
    """(n, m, S) for 20 seeded separable draws per size: d = 1, N = 2 at 5x5, 7x7,
    10x10 and 4x10 (n < 2N + 1), and the d = 2, N = 2 scale_d2 set at 12x40 and
    6x20 (fewer y's than the 25 y-shifts, so deficient)."""
    _, rho, kernel, phi, _ = quadratic_setup
    exp = load_config(SCALE_D2)
    sizes = [(phi, kernel, rho, n, m) for n, m in [(5, 5), (7, 7), (10, 10), (4, 10)]]
    sizes += [(exp.phi, exp.kernel, exp.density, n, m) for n, m in [(12, 40), (6, 20)]]
    return [(n, m, build_sample_matrix(ph, ke, draw_samples(rh, n, m, seed, "separable"), 2))
            for ph, ke, rh, n, m in sizes for seed in range(20)]


def factored(S):
    """(DualFamily or None, rank, singular values) of the factored path."""
    _, sv, rank = _factored_svd(S.factors)
    try:
        fam = dual_family(S)
    except RankDeficientError as exc:
        fam = None
        assert exc.diagnostics.rank == rank
    return fam, int(rank), sv


def dense_assembly(S):
    """S's entries assembled independently of its factors, at every sample point."""
    return mixed_space._shifted_values([convolve(g, S.kernel) for g in S.phi.generators], S.samples.points,
                                       [np.arange(-S.N, S.N + 1.0)] * S.phi.ndim)


def pinv_tolerance(kappa: float) -> float:
    """Relative agreement of two pseudo-inverses of a matrix with condition number kappa.

    Each carries about kappa * eps of relative error (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 20), so well-conditioned draws
    agree to 1e-12 and ill-conditioned ones to a multiple of kappa * eps.
    """
    return max(1e-12, 32.0 * EPS * kappa)


class TestKroneckerFactors:
    def test_factors_multiply_to_the_entries(self, separable_draws):
        for n, m, S in separable_draws:
            A, B = S.factors
            assert A.shape == (n, 5) and B.shape == (m, S.shape[1] // 5)
            dense = dense_assembly(S)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(np.kron(A, B) - dense)) <= 1e-15 * scale

    def test_rank_and_singular_values_match_the_dense_svd(self, separable_draws):
        near = deficient = 0
        for n, m, S in separable_draws:
            dense = np.linalg.svd(S.entries, compute_uv=False)
            tol = RANK_TOL * np.linalg.norm(S.entries, axis=0).max()
            # a singular value this close to the tolerance could fall either way
            near += int(np.any(np.abs(dense - tol) <= 1e-12 * tol))
            fam, rank, sv = factored(S)
            assert rank == int(np.sum(dense > tol)), (n, m, near)
            assert sv.shape == dense.shape
            assert np.max(np.abs(sv - dense)) <= 1e-13 * dense[0]
            deficient += fam is None
        assert near == 0
        # 5x5 and 7x7 draws include deficient ones; every 4x10 and 6x20 draw is
        assert 40 < deficient < len(separable_draws)

    def test_coefficients_and_dual_functions_match_the_dense_pseudo_inverse(self, separable_draws):
        full = 0
        for n, m, S in separable_draws:
            fam, _, _ = factored(S)
            if fam is None:
                continue
            full += 1
            U, sv, Vt = np.linalg.svd(S.entries, full_matrices=False)
            P = Vt.T @ (U.T / sv[:, None])
            tol = pinv_tolerance(sv[0] / sv[-1])
            b = np.random.default_rng(n * m).standard_normal(n * m)
            want = P @ b
            got = fam.coefficients(b).flatten()
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
            for j, k in [(1, 1), (2, 3), (n, m)]:
                col = fam.function(j, k).coefficients.flatten()
                assert np.max(np.abs(col - P[:, (j - 1) * m + k - 1])) <= tol * np.max(np.abs(P))
            assert np.array_equal(solve(S, b).grid.values, fam.coefficients(b).values)
        assert full >= 40

    def test_short_factor_reads_as_exactly_rank_deficient(self, quadratic_setup):
        _, rho, kernel, phi, _ = quadratic_setup
        for n, m in [(4, 10), (2, 3)]:  # a tall S with a short x-factor, and a short S
            S = build_sample_matrix(phi, kernel, draw_samples(rho, n, m, 5, "separable"), 2)
            with pytest.raises(RankDeficientError) as err:
                solve(S, np.zeros(n * m))
            diag = err.value.diagnostics
            assert diag.rank <= 4 * min(m, 5) < 25
            assert (diag.sigma_min, diag.condition_number) == (0.0, math.inf)

    def test_other_matrices_keep_one_factor_and_their_bytes(self, quadratic_setup):
        _, rho, kernel, _, _ = quadratic_setup
        # (set, N, mode, n, m) -> sha256 prefixes of solve's and function(2, 3)'s
        # coefficient bytes, the residual and sigma_min, as the dense SVD gave them
        pinned = {
            "joint": ((tensor_bspline([2, 2]),), 2, "joint", 6, 7,
                      ("66e7f5fb4420159e", "5ecdd649790671f4", 3.318216149832241, 0.000531300203438449)),
            "r2": ((tensor_bspline([1, 1]), tensor_bspline([2, 2], [0.5, 0.0])), 1, "separable", 6, 6,
                   ("e2cda3c0cafdf739", "2cfa0682602db475", 4.065718195709673, 0.0005579085340051359)),
            "two_terms": ((tensor_bspline([1, 2]) + tensor_bspline([2, 1], [0.5, -0.5], weight=0.5),),
                          1, "separable", 5, 5,
                          ("a4b5533502daab33", "cfb317ca17cec1fa", 2.8336487997148705, 0.0013754277504164194)),
        }

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

        for name, (funcs, N, mode, n, m, want) in pinned.items():
            phi = GeneratorSet(funcs, 1.0, 2, 2, 0.1, 1.0)
            S = build_sample_matrix(phi, kernel, draw_samples(rho, n, m, 47, mode), N)
            assert len(S.factors) == 1 and S.factors[0] is S.entries, name
            res = solve(S, np.random.default_rng(48).standard_normal(n * m))
            got = (digest(res.grid.values), digest(dual_family(S).function(2, 3).coefficients.values),
                   res.residual, res.diagnostics.sigma_min)
            assert got == want, name

    def test_a_factor_pairs_entries_are_derived_and_never_stored(self, quadratic_setup):
        _, rho, kernel, phi, _ = quadratic_setup
        exp = load_config(SCALE_D2)
        draws = [(phi, kernel, draw_samples(rho, 6, 7, 3, "separable"), 0.0),
                 (exp.phi, exp.kernel, draw_samples(exp.density, 24, 120, 3, "separable"), 1e-15)]
        for ph, ke, samples, rtol in draws:
            S = build_sample_matrix(ph, ke, samples, 2)
            x = np.random.default_rng(4).standard_normal(S.shape[1])
            Sx = S @ x
            assert S.shape == (samples.n * samples.m, 5 ** ph.ndim) and "entries" not in vars(S)
            # kron(A_x, B_y), bitwise the dense assembly at d = 1, formed on each read
            dense = dense_assembly(S)
            assert np.max(np.abs(S.entries - dense)) <= rtol * np.abs(dense).max()
            assert S.entries is not S.entries and "entries" not in vars(S)
            assert np.max(np.abs(Sx - dense @ x)) <= 1e-15 * np.abs(dense).max() * np.abs(x).sum()

    def test_a_replaced_single_factor_solves_the_new_matrix(self, quadratic_setup):
        # a one-factor matrix is its entries, so replacing its factor (same shape) solves the new matrix
        import dataclasses

        ck, rho, kernel, phi, coeffs = quadratic_setup
        S = build_sample_matrix(phi, kernel, draw_samples(rho, 6, 6, 3), 2)
        S2 = dataclasses.replace(S, factors=(S.entries[::-1],))
        assert len(S2.factors) == 1 and S2.factors[0] is S2.entries
        res = solve(S2, S2.entries @ coeffs.flatten())
        assert np.max(np.abs(res.grid.values - coeffs.values)) <= 1e-9 and res.residual <= 1e-9


def separable_tables(config_dir):
    """The scale_d2 table and a separable 40x40 quadratic_bspline table, one row each."""
    raw = load_config(config_dir / "quadratic_bspline.json").raw
    return [load_config(SCALE_D2), build_experiment(dict(raw, samples={"sizes": [[40, 40]], "mode": "separable"}))]


def test_separable_tables_never_take_a_dense_svd(monkeypatch, config_dir):
    dense_svd = np.linalg.svd

    def guarded(a, *args, **kwargs):
        if np.shape(a)[-2] > 1000:
            raise AssertionError(f"dense SVD of a {np.shape(a)} matrix")
        return dense_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)
    with pytest.raises(AssertionError, match="dense SVD"):
        np.linalg.svd(np.zeros((1001, 2)))
    for exp in separable_tables(config_dir):
        (row,) = run_table(exp).rows
        assert row.n * row.m > 1000
        assert not row.rank_deficient and row.rank == exp.signal.size
        assert max(row.sup_error, row.l1_error, row.l2_error) <= RECOVERY_TOL


def test_separable_tables_evaluate_the_generators_on_no_more_than_max_n_m_points(monkeypatch, config_dir):
    shifted = mixed_space._shifted_values
    for exp in separable_tables(config_dir):
        ((n, m),) = exp.sample_sizes

        def guarded(funcs, points, shifts, limit=max(n, m)):
            if len(points) > limit:
                raise AssertionError(f"_shifted_values on {len(points)} points")
            return shifted(funcs, points, shifts)

        for module in (mixed_space, reconstruction):
            monkeypatch.setattr(module, "_shifted_values", guarded)
        with pytest.raises(AssertionError, match=f"on {max(n, m) + 1} points"):
            guarded(exp.phi.generators, np.zeros((max(n, m) + 1, exp.phi.ndim)), [np.zeros(1)] * exp.phi.ndim)
        (row,) = run_table(exp).rows
        assert not row.rank_deficient and row.rank == exp.signal.size
        assert max(row.sup_error, row.l1_error, row.l2_error) <= RECOVERY_TOL


def test_dense_sample_matrices_are_refused_above_the_byte_budget(monkeypatch, quadratic_setup):
    _, rho, kernel, phi, coeffs = quadratic_setup
    need = 8 * 20 * 20 * 25  # a 20x20 draw of 25 columns
    message = r"dense sample matrix of n = 20, m = 20 samples and D = 25 columns needs 0\.1 MB"
    monkeypatch.setattr(mixed_space, "SAMPLE_BYTES", need - 1)
    with pytest.raises(ByteGuardError, match=message):
        build_sample_matrix(phi, kernel, draw_samples(rho, 20, 20, 1), 2)
    # a factor pair solves without its dense matrix, and refuses to form it on request
    S = build_sample_matrix(phi, kernel, draw_samples(rho, 20, 20, 1, "separable"), 2)
    assert np.max(np.abs(solve(S, S @ coeffs.flatten()).grid.values - coeffs.values)) <= RECOVERY_TOL
    with pytest.raises(ByteGuardError, match=message):
        S.entries
    # the sweep refuses before its first draw, even for the one trial a batch always admits
    for mode in ("joint", "separable"):
        with pytest.raises(ByteGuardError, match=message):
            empirical_success(TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 20, 20, mode=mode), 1, 0)
    monkeypatch.setattr(mixed_space, "SAMPLE_BYTES", need)
    assert build_sample_matrix(phi, kernel, draw_samples(rho, 20, 20, 1), 2).shape == (400, 25)

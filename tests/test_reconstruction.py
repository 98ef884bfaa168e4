"""Tests for matrix assembly, recovery, dual functions and trial loops."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from avgsamp.mixed_space import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    mixed_norm,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.reconstruction import (
    RankDeficientError,
    TrialSpec,
    beta_tilde,
    build_sample_matrix,
    conditioning,
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
        assert res.rank == 25

    def test_duplicated_rows_leave_solution_unchanged(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 7, 7, seed=36)
        S = build_sample_matrix(phi, kernel, samples, 2)
        values = convolve(synthesize(phi, coeffs), kernel).evaluate(samples.points)
        base = solve(S, values).grid.values
        import dataclasses

        S2 = dataclasses.replace(
            S, entries=np.concatenate([S.entries, S.entries[:10]], axis=0))
        res2 = solve(S2, np.concatenate([values, values[:10]]))
        assert np.max(np.abs(res2.grid.values - base)) <= 1e-9

    def test_rank_deficiency_raises_with_rank(self, quadratic_setup):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 1, 1, seed=37)
        S = build_sample_matrix(phi, kernel, samples, 2)
        with pytest.raises(RankDeficientError) as err:
            solve(S, np.zeros(1))
        assert err.value.rank <= 1
        assert err.value.columns == 25
        # the one singular value of a single row; the 25th is missing
        assert err.value.singular_values.shape == (1,)
        assert conditioning(err.value.singular_values, 25) == (0.0, math.inf)

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

    def test_benchmark_draw_reaches_machine_precision(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        samples = draw_samples(rho, 5, 5, seed=20240811)
        S = build_sample_matrix(phi, kernel, samples, 2)
        f = synthesize(phi, coeffs)
        values = convolve(f, kernel).evaluate(samples.points)
        recon = dual_family(S).reconstruct(values)
        err = sup_norm(f - recon, ck)
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
        assert all(r.rank_deficient for r in summary.records)

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

    def test_determinism(self, quadratic_setup):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        spec = TrialSpec("recovery", phi, kernel, rho, coeffs, 2, 6, 6)
        a = empirical_success(spec, trials=6, seed=54)
        b = empirical_success(spec, trials=6, seed=54)
        assert [r.seed for r in a.records] == [r.seed for r in b.records]
        assert [r.error for r in a.records] == [r.error for r in b.records]


class TestSerialization:
    def test_sample_matrix_csv(self, quadratic_setup, tmp_path):
        ck, rho, kernel, phi, _ = quadratic_setup
        samples = draw_samples(rho, 2, 3, seed=70)
        S = build_sample_matrix(phi, kernel, samples, 1)
        path = tmp_path / "matrix.csv"
        S.to_csv(path, header_comment="seed=70")
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=70"
        header = lines[1].split(",")
        assert header[:2] == ["j", "k"]
        assert len(header) == 2 + 9
        assert header[2] == "g0_-1_-1"
        assert len(lines) == 2 + 6
        row = lines[2].split(",")
        assert float(row[2]) == S.entries[0, 0]

    def test_grid_csv(self, quadratic_setup, tmp_path):
        ck, rho, kernel, phi, coeffs = quadratic_setup
        path = tmp_path / "grid.csv"
        coeffs.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "generator,k1,k2_1,value"
        assert len(lines) == 1 + 25
        values = {tuple(l.split(",")[:3]): float(l.split(",")[3]) for l in lines[1:]}
        assert values[("0", "0", "1")] == 3.0
        assert values[("0", "-1", "0")] == -5.0


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

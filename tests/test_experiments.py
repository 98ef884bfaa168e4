"""Tests for config ingestion, error tables, surfaces, sweeps and the CLI."""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import zeta

from avgsamp import experiments
from avgsamp.bounds import lattice_decay_sum
from avgsamp.cli import main
from avgsamp.experiments import (
    ConfigError,
    build_experiment,
    config_hash,
    constants_report,
    emit_surface,
    load_config,
    probability_sweep,
    run_table,
)
from avgsamp.mixed_space import (
    CoefficientGrid,
    _shift_gram,
    mixed_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.reconstruction import beta_tilde


def d2_config():
    """minimal_config lifted to d = 2."""
    cfg = minimal_config()
    cfg["space"]["d"] = 2
    cfg["generators"]["bsplines"] = [{"degree": 1, "shift": [0.0, 0.0, 0.0]}]
    cfg["signal"] = [{"generator": 0, "k": [0, 0, 0], "weight": 1.0}]
    cfg["kernel"]["box"] = [[0.5, 1.5]] * 3
    return cfg


def bspline_gram_eigenvalues(degree: int, N: int) -> np.ndarray:
    """Eigenvalues of G[k, l] = integral of B_n(x - k) B_n(x - l) over R, |k|, |l| <= N.

    The integral equals B_{2n+1}(k - l), evaluated with scipy.
    """
    from scipy.interpolate import BSpline

    order = 2 * degree + 1
    knots = np.arange(order + 2) - (order + 1) / 2.0
    b = BSpline.basis_element(knots, extrapolate=False)
    k = np.arange(-N, N + 1)
    G = np.nan_to_num(b((k[:, None] - k[None, :]).astype(float)))
    return np.linalg.eigvalsh(G)


def minimal_config(**over):
    cfg = {
        "schema": 1,
        "space": {"p": 2.0, "q": 2.0, "d": 1, "N": 1, "K1": 3.0, "K2": 3.0},
        "generators": {
            "bsplines": [{"degree": 1, "shift": [0.0, 0.0]}],
            "decay": {"s1": 2.0, "s2": 2.0, "c": None},
            "stability": {"alpha1": None, "alpha2": None, "trials": 10},
        },
        "signal": [
            {"generator": 0, "k": [0, 0], "weight": 1.0},
            {"generator": 0, "k": [1, 1], "weight": 3.0},
        ],
        "kernel": {"box": [[0.5, 1.5], [0.5, 1.5]], "weight": 1.0},
        "density": {"kind": "uniform"},
        "samples": {"sizes": [[5, 5]], "mode": "joint"},
        "seed": 7,
        "quadrature": {"order": 8, "refine": 1},
    }
    cfg.update(over)
    return cfg


def _malformed(name, match, mode=None, density=None, **entry):
    """minimal_config with its first signal entry, sample mode or density replaced."""
    cfg = minimal_config()
    cfg["signal"][0].update(entry)
    cfg["samples"]["mode"] = mode or cfg["samples"]["mode"]
    cfg["density"] = density or cfg["density"]
    return name, cfg, match


def _edited(name, match, edit):
    """minimal_config after edit(cfg), which changes it in place."""
    cfg = minimal_config()
    edit(cfg)
    return name, cfg, match


MALFORMED = [
    _malformed("short_shift", "2 entries", k=[0]),
    _malformed("shift_outside_N", r"\[-1, 1\]", k=[3, 0]),
    _malformed("missing_generator", "generator 1", generator=1),
    _malformed("unknown_mode", "samples.mode", mode="grid"),
    _malformed("separable_needs_uniform", "uniform density", mode="separable",
               density={"kind": "piecewise_constant", "edges": [[-3.0, 0.0, 3.0], [-3.0, 3.0]],
                        "mass": [[0.4], [0.6]]}),
    _malformed("missing_density_edges", "density.edges",
               density={"kind": "piecewise_constant", "mass": [[0.4], [0.6]]}),
    _edited("missing_weight", r"signal\[\]\.weight", lambda cfg: cfg["signal"][0].pop("weight")),
    _edited("missing_degree", r"bsplines\[\]\.degree",
            lambda cfg: cfg["generators"]["bsplines"][0].pop("degree")),
    _edited("list_N", "space.N", lambda cfg: cfg["space"].update(N=[1])),
    _edited("one_entry_size", r"samples\.sizes", lambda cfg: cfg["samples"].update(sizes=[[5]])),
    _edited("fractional_N", "space.N", lambda cfg: cfg["space"].update(N=1.5)),
    _edited("bool_N", "space.N", lambda cfg: cfg["space"].update(N=True)),
    _edited("fractional_d", "space.d", lambda cfg: cfg["space"].update(d=1.5)),
    _malformed("fractional_shift", r"signal\[\]\.k", k=[0.5, 0]),
    _malformed("scalar_shift", r"signal\[\]\.k", k=0),
    _malformed("fractional_generator", r"signal\[\]\.generator", generator=0.7),
    _edited("fractional_degree", r"bsplines\[\]\.degree",
            lambda cfg: cfg["generators"]["bsplines"][0].update(degree=1.5)),
    _edited("fractional_size", r"samples\.sizes", lambda cfg: cfg["samples"].update(sizes=[[5.5, 5]])),
    _edited("fractional_order", r"quadrature\.order", lambda cfg: cfg["quadrature"].update(order=4.5)),
    _edited("fractional_trials", r"stability\.trials",
            lambda cfg: cfg["generators"]["stability"].update(trials=2.5)),
    _edited("fractional_seed", "seed", lambda cfg: cfg.update(seed=1.5)),
    _edited("string_seed", "seed", lambda cfg: cfg.update(seed="7")),
    _edited("one_number_box_item", r"kernel\.box", lambda cfg: cfg["kernel"].update(box=[[0.5], [0.5, 1.5]])),
    _edited("scalar_box_item", r"kernel\.box", lambda cfg: cfg["kernel"].update(box=[0.5, [0.5, 1.5]])),
]


class TestConfig:
    def test_build_resolves_everything(self):
        exp = build_experiment(minimal_config())
        assert exp.phi.r == 1
        assert exp.kernel.l11_norm == pytest.approx(1.0, abs=1e-12)
        assert exp.stability_estimated and exp.decay_fitted
        params = exp.space_params()
        assert params.rho_lower == pytest.approx(1 / 36)

    def test_missing_seed_rejected(self):
        cfg = minimal_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            build_experiment(cfg)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            build_experiment(minimal_config(schema=2))

    @pytest.mark.parametrize("case", MALFORMED, ids=lambda c: c[0])
    def test_malformed_signal_and_mode_rejected(self, case):
        _, cfg, match = case
        with pytest.raises(ConfigError, match=match):
            build_experiment(cfg)

    def test_explicit_constants_honored(self):
        cfg = minimal_config()
        cfg["generators"]["decay"]["c"] = 1.0
        cfg["generators"]["stability"] = {"alpha1": 1.0, "alpha2": 1.0}
        exp = build_experiment(cfg)
        assert not exp.stability_estimated and not exp.decay_fitted
        assert exp.phi.decay_c == 1.0

    @pytest.mark.parametrize("name, degree", [("quadratic_bspline.json", 2),
                                              ("linear_bspline.json", 1)])
    def test_shipped_configs_get_exact_riesz_bounds(self, config_dir, name, degree):
        exp = load_config(config_dir / name)
        ev = bspline_gram_eigenvalues(degree, exp.N)
        # the (d+1)-fold Kronecker power of the 1-D Gram
        power = (exp.d + 1) / 2.0
        assert exp.phi.alpha1 == pytest.approx(ev[0] ** power, rel=1e-9)
        assert exp.phi.alpha2 == pytest.approx(ev[-1] ** power, rel=1e-9)
        assert exp.stability_certified

    def test_other_exponents_are_not_certified(self):
        cfg = minimal_config()
        cfg["space"]["p"] = 3.0
        exp = build_experiment(cfg)
        assert exp.stability_estimated and not exp.stability_certified

    def test_supplied_alpha_is_not_certified(self):
        cfg = minimal_config()
        cfg["generators"]["stability"]["alpha1"] = 0.1
        exp = build_experiment(cfg)
        assert exp.phi.alpha1 == 0.1 and not exp.stability_certified

    def test_two_generators_are_certified_against_the_block_norm(self):
        # the Gram bounds hold against the Euclidean coefficient norm; the
        # l^{2,2} norm of the bounds sums the per-generator block norms, at
        # most sqrt(r) times larger, so alpha1 is the Gram bound over sqrt(2)
        cfg = minimal_config()
        cfg["generators"]["bsplines"] = [{"degree": 1, "shift": [0.0, 0.0]},
                                         {"degree": 2, "shift": [0.5, 0.0]}]
        exp = build_experiment(cfg)
        lam, vec = np.linalg.eigh(_shift_gram(exp.phi.generators, exp.N, None, exp.quad))
        c = CoefficientGrid.from_flat(vec[:, 0], exp.phi.r, exp.N, exp.d)
        ratio = mixed_norm(synthesize(exp.phi, c), 2.0, 2.0) / c.seq_mixed_norm(2.0, 2.0)
        assert np.sqrt(lam[0]) == pytest.approx(0.06167, abs=1e-5)
        assert exp.phi.alpha1 == pytest.approx(np.sqrt(lam[0] / 2.0), rel=1e-12)
        assert ratio == pytest.approx(0.04366, abs=1e-5)
        assert exp.phi.alpha1 <= ratio
        assert exp.stability_certified
        assert constants_report(exp, "omega").flags["stability_certified"] is True
        bt = beta_tilde(exp.phi, exp.kernel, exp.N, 2.0, 2.0, exp.cuboid)
        assert bt.certified and bt.method == "gram_eigenvalue"

    def test_seed_override(self):
        exp = build_experiment(minimal_config(), seed_override=99)
        assert exp.seed == 99

    def test_hash_is_canonical(self):
        a = config_hash(minimal_config())
        b = config_hash(json.loads(json.dumps(minimal_config())))
        assert a == b

    def test_piecewise_constant_density(self):
        cfg = minimal_config()
        cfg["density"] = {
            "kind": "piecewise_constant",
            "edges": [[-3.0, 0.0, 3.0], [-3.0, 3.0]],
            "mass": [[0.75], [0.25]],
        }
        exp = build_experiment(cfg)
        assert exp.density.upper == pytest.approx(0.75 / 18)

    def test_kernel_must_fit_cuboid(self):
        cfg = minimal_config()
        cfg["kernel"]["box"] = [[-5.0, 5.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            build_experiment(cfg)


class TestRunTable:
    def test_errors_small_and_rows_complete(self):
        exp = build_experiment(minimal_config())
        table = run_table(exp)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert not row.rank_deficient
        assert row.sup_error <= 1e-9
        assert row.l1_error <= 1e-9
        assert row.l2_error <= 1e-9

    def test_degenerate_draw_marked_rank_deficient(self):
        cfg = minimal_config()
        cfg["samples"]["sizes"] = [[1, 1]]
        table = run_table(build_experiment(cfg))
        row = table.rows[0]
        assert row.rank_deficient
        assert row.rank < 9
        assert math.isnan(row.sup_error)

    def test_csv_embeds_hash_and_blanks_deficient_errors(self, tmp_path):
        cfg = minimal_config()
        cfg["samples"]["sizes"] = [[5, 5], [1, 1]]
        exp = build_experiment(cfg)
        table = run_table(exp)
        path = tmp_path / "out.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"# config_sha256={exp.hash} seed=7")
        assert lines[1] == ("n,m,sup_error,l1_error,l2_error,rank,rank_deficient,residual,row_seed,"
                            "sigma_min,condition_number")
        deficient = lines[3].split(",")
        assert deficient[2] == deficient[3] == deficient[4] == ""
        assert deficient[6] == "1"
        # one row cannot reach the 9th singular value
        assert deficient[9:] == ["0.0", "inf"]

    def test_rows_carry_the_sample_matrix_conditioning(self):
        from avgsamp.reconstruction import build_sample_matrix
        from avgsamp.sampling import draw_samples

        cfg = minimal_config()
        cfg["samples"]["sizes"] = [[5, 5], [2, 2]]
        exp = build_experiment(cfg)
        for row in run_table(exp).rows:
            samples = draw_samples(exp.density, row.n, row.m, row.seed, exp.mode)
            sv = np.linalg.svd(build_sample_matrix(exp.phi, exp.kernel, samples, exp.N).entries,
                               compute_uv=False)
            if row.rank_deficient:
                assert row.sigma_min == 0.0 and row.condition_number == math.inf
            else:
                assert row.sigma_min == pytest.approx(sv[-1], rel=1e-12)
                assert row.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-12)

    def test_reseeded_run_still_accurate(self):
        exp = build_experiment(minimal_config(), seed_override=123456)
        row = run_table(exp).rows[0]
        assert not row.rank_deficient
        assert row.sup_error <= 1e-9


class TestSurface:
    def test_zero_function_grid(self, tmp_path):
        from avgsamp.mixed_space import TensorFunction

        path = tmp_path / "zero.csv"
        emit_surface(TensorFunction.zero(2), {"x": [0, 1, 3], "y": [0, 1, 3]}, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[2] == "0.0" for r in rows)

    def test_signal_value_on_grid(self, tmp_path, quadratic_benchmark):
        path = tmp_path / "f.csv"
        grid = {"x": [-2.5, 2.5, 101], "y": [-2.5, 2.5, 101]}
        emit_surface(quadratic_benchmark.f, grid, path, quadratic_benchmark)
        target = None
        for line in path.read_text().splitlines()[2:]:
            x, y, v = (float(t) for t in line.split(","))
            if x == 0.0 and y == 1.0:
                target = v
        assert target == pytest.approx(1.609375, abs=1e-12)

    def test_higher_dimension_refused(self, tmp_path):
        path = tmp_path / "d2.csv"
        with pytest.raises(ValueError, match="d = 2"):
            emit_surface(tensor_bspline([2, 2, 2]), {"x": [-1, 1, 3], "y": [-1, 1, 3]}, path)
        assert not path.exists()

    def test_resolution_validated(self, tmp_path):
        from avgsamp.mixed_space import TensorFunction

        with pytest.raises(ValueError):
            emit_surface(TensorFunction.zero(2), {"x": [0, 1, 1], "y": [0, 1, 5]},
                         tmp_path / "bad.csv")

    def test_difference_grid_bounded_by_table_sup_error(self, tmp_path):
        cfg = minimal_config()
        exp = build_experiment(cfg)
        table = run_table(exp)
        row = table.rows[0]
        # rebuild the reconstruction exactly as the table did
        from avgsamp.experiments import row_seed
        from avgsamp.mixed_space import LatticeSpline
        from avgsamp.reconstruction import build_sample_matrix, solve
        from avgsamp.sampling import draw_samples

        samples = draw_samples(exp.density, 5, 5, row_seed(exp.seed, 5, 5), exp.mode)
        S = build_sample_matrix(exp.phi, exp.kernel, samples, exp.N)
        res = solve(S, S.entries @ exp.signal.flatten())
        recon = LatticeSpline(exp.phi, res.grid)
        fpath, rpath = tmp_path / "f.csv", tmp_path / "r.csv"
        grid = {"x": [-3, 3, 61], "y": [-3, 3, 61]}
        emit_surface(exp.f, grid, fpath, exp)
        emit_surface(recon, grid, rpath, exp)
        fv = np.array([float(l.split(",")[2]) for l in fpath.read_text().splitlines()[2:]])
        rv = np.array([float(l.split(",")[2]) for l in rpath.read_text().splitlines()[2:]])
        assert np.max(np.abs(fv - rv)) <= row.sup_error + 1e-15

    def test_json_format(self, tmp_path, quadratic_benchmark):
        path = tmp_path / "f.json"
        emit_surface(quadratic_benchmark.f, {"x": [-1, 1, 5], "y": [-1, 1, 5]},
                     path, quadratic_benchmark, fmt="json")
        doc = json.loads(path.read_text())
        assert doc["config_sha256"] == quadratic_benchmark.hash
        assert len(doc["values"]) == 5


class TestProbabilitySweep:
    def test_records_carry_provenance_flags(self, quadratic_benchmark):
        cfg = minimal_config()
        cfg["generators"]["decay"]["c"] = 1.0
        supplied = build_experiment(cfg)
        for exp, flags in ((quadratic_benchmark, (True, True)), (supplied, (True, False))):
            for theorem in ("recovery", "omega", "mu"):
                rec = probability_sweep(exp, [(4, 4)], trials=2, theorem=theorem)[0]
                assert (rec["stability_certified"], rec["decay_fitted"]) == flags

    def test_records_and_ranges(self, quadratic_benchmark):
        records = probability_sweep(quadratic_benchmark, [(5, 5), (8, 8)], trials=10)
        assert len(records) == 2
        for rec in records:
            assert 0.0 <= rec["fraction"] <= 1.0
            assert rec["wilson_low"] <= rec["fraction"] <= rec["wilson_high"]
            assert 0.0 <= rec["probability"] <= 1.0
            # theoretical bounds must never exceed the empirical upper bound
            if rec["probability"] > 0.0:
                assert rec["probability"] <= rec["wilson_high"]

    def test_mu_sweep_uses_sum_inequality(self, linear_benchmark):
        records = probability_sweep(linear_benchmark, [(6, 6)], trials=8, theorem="mu")
        assert records[0]["theorem"] == "mu"
        assert 0.0 <= records[0]["fraction"] <= 1.0

    def test_omega_inequality_event_holds_at_moderate_size(self, quadratic_benchmark):
        # the frame window [A, B] ||f|| is extremely wide at this scale, so
        # the two-sided event should hold on essentially every draw
        records = probability_sweep(quadratic_benchmark, [(7, 7)], trials=20,
                                    theorem="omega")
        assert records[0]["fraction"] >= 0.9


    @pytest.mark.parametrize("theorem, selector, bound_keys", [
        ("recovery", "reconstruction", None),
        ("omega", "omega", ("A_gamma_omega", "B_gamma_omega")),
        ("mu", "mu", ("lower_constant", "upper_constant")),
    ])
    def test_sweep_agrees_with_constants_report(self, linear_benchmark, monkeypatch,
                                                theorem, selector, bound_keys):
        specs = []
        real = experiments.empirical_success

        def spy(spec, *args):
            specs.append(spec)
            return real(spec, *args)

        monkeypatch.setattr(experiments, "empirical_success", spy)
        sizes = [(5, 5), (6, 9)]
        records = probability_sweep(linear_benchmark, sizes, trials=3, theorem=theorem)
        for rec, spec, (n, m) in zip(records, specs, sizes):
            rep = constants_report(linear_benchmark, selector, n=n, m=m)
            assert rec["probability_raw"] == rep["probability_raw"]
            assert rec["probability"] == rep["probability"]
            want = None if bound_keys is None else tuple(rep[k] for k in bound_keys)
            assert spec.bounds == want
        assert len(specs) == len(sizes)

    def test_unknown_theorem(self, linear_benchmark):
        with pytest.raises(ValueError, match="unknown sweep theorem"):
            probability_sweep(linear_benchmark, [(5, 5)], trials=1, theorem="thm")


class TestConstantsReport:
    def test_omega_schema_keys(self, quadratic_benchmark):
        rep = constants_report(quadratic_benchmark, "omega")
        for key in ("c_star", "A_gamma_omega", "B_gamma_omega", "A1", "beta1",
                    "A2", "beta2", "nm_min"):
            assert key in rep.constants

    def test_eta_boundary_rejected(self, linear_benchmark):
        params = linear_benchmark.space_params()
        with pytest.raises(ValueError):
            constants_report(linear_benchmark, "mu", mu=1.0, eta=params.rho_lower)

    def test_c_star_value_for_reference_parameters(self):
        cfg = minimal_config()
        cfg["generators"]["decay"] = {"s1": 2.0, "s2": 2.0, "c": 1.0}
        cfg["generators"]["stability"] = {"alpha1": 1.0, "alpha2": 1.0}
        rep = constants_report(build_experiment(cfg), "omega")
        assert rep["c_star"] == pytest.approx(2.0 * (2.0 * zeta(4, 1) - 1.0), abs=1e-8)

    def test_near_floor_decay_finishes(self, config_dir):
        # s1 = s2 = 1.1 is valid (the floor is 1); a truncated shell sum needs ~1e9 shells here
        raw = json.loads((config_dir / "quadratic_bspline.json").read_text(encoding="utf-8"))
        raw["generators"]["decay"].update(s1=1.1, s2=1.1)
        exp = build_experiment(raw)
        start = time.perf_counter()
        reps = [constants_report(exp, s) for s in ("omega", "mu", "concentrated", "reconstruction")]
        for d in (1, 2, 3):
            lattice_decay_sum(d + 0.05, d)
        assert time.perf_counter() - start < 2.0
        P = exp.space_params()
        series = 2.0 * zeta(2.2) - 1.0  # both exponents are 1.1 * 2 over Z
        want = 4.0 * P.decay_c / (2.0 * P.alpha1) * series
        for rep in reps:
            assert rep["c_star"] == pytest.approx(want, rel=1e-13)

    def test_reconstruction_selector(self, quadratic_benchmark):
        rep = constants_report(quadratic_benchmark, "reconstruction")
        assert rep["beta_tilde"] > 0
        assert 0.0 <= rep["probability"] <= 1.0

    @pytest.mark.parametrize("selector", ["omega", "mu", "concentrated", "reconstruction"])
    def test_provenance_flags(self, quadratic_benchmark, selector):
        rep = constants_report(quadratic_benchmark, selector)
        assert rep.flags["stability_certified"] is True
        assert rep.flags["decay_fitted"] is True

    def test_provenance_flags_for_supplied_constants(self):
        cfg = minimal_config()
        cfg["generators"]["decay"]["c"] = 1.0
        cfg["generators"]["stability"] = {"alpha1": 1.0, "alpha2": 1.0}
        rep = constants_report(build_experiment(cfg), "omega")
        assert rep.flags["stability_certified"] is False
        assert rep.flags["decay_fitted"] is False

    def test_unknown_selector(self, quadratic_benchmark):
        with pytest.raises(ConfigError):
            constants_report(quadratic_benchmark, "thm")


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        return path

    def test_table_roundtrip_and_determinism(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["table", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_table_strict_flags_rank_deficiency(self, tmp_path):
        cfg_dict = minimal_config()
        cfg_dict["samples"]["sizes"] = [[1, 1]]
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps(cfg_dict))
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["table", "--config", str(cfg), "--out", str(out), "--strict"]) == 1

    def test_samples_csv(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "s.csv"
        assert main(["samples", "--config", str(cfg), "--out", str(out),
                     "--n", "3", "--m", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "j,k,x,y1"
        assert len(lines) == 2 + 6

    @pytest.mark.parametrize("command", [["samples"], ["surface", "--which", "recon"]])
    @pytest.mark.parametrize("counts", [["--n", "0", "--m", "3"], ["--n", "3", "--m", "0"]])
    def test_zero_sample_counts_exit_2(self, tmp_path, capsys, command, counts):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:], *counts]) == 2
        assert "sample counts must be >= 1" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_sweep_and_json_determinism(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "sa.json", tmp_path / "sb.json"
        args = ["sweep", "--config", str(cfg), "--nm", "5x5", "--trials", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc[0]["n"] == 5 and doc[0]["trials"] == 5

    def test_constants_to_file(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "c.json"
        assert main(["constants", "--config", str(cfg), "--theorem", "omega",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "c_star" in doc["constants"]
        assert doc["seed"] == 7
        assert doc["flags"]["stability_certified"] is True
        assert doc["flags"]["decay_fitted"] is True

    def test_surface_files(self, tmp_path):
        cfg = self._write_config(tmp_path)
        stem = tmp_path / "surf"
        assert main(["surface", "--config", str(cfg), "--out", str(stem),
                     "--grid", "11x11"]) == 0
        assert (tmp_path / "surf.f.csv").exists()
        assert (tmp_path / "surf.recon.csv").exists()

    def test_surface_refuses_higher_dimension(self, tmp_path, capsys):
        cfg = tmp_path / "d2.json"
        cfg.write_text(json.dumps(d2_config()))
        stem = tmp_path / "surf"
        assert main(["surface", "--config", str(cfg), "--out", str(stem), "--which", "f"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d = 2" in err
        assert not (tmp_path / "surf.f.csv").exists()

    @pytest.mark.parametrize("argv, message", [(["--n", "0", "--grid", "5x5"], "sample counts"),
                                               (["--grid", "5"], "--grid takes NXxNY")])
    def test_failing_surface_writes_nothing(self, tmp_path, capsys, argv, message):
        cfg = self._write_config(tmp_path)
        assert main(["surface", "--config", str(cfg), "--out", str(tmp_path / "surf"), *argv]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

    def test_sweep_names_a_malformed_size(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.json"), "--nm", "5"]) == 2
        assert "--nm takes a comma list of NxM, got '5'" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert main(["table", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", [["table"], ["constants", "--theorem", "omega"]])
    @pytest.mark.parametrize("case", MALFORMED, ids=lambda c: c[0])
    def test_malformed_config_exits_2_with_an_error(self, tmp_path, capsys, case, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case[1]))
        out = tmp_path / "out"
        assert main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["samples", "--config", str(cfg), "--out", str(a)])
        main(["samples", "--config", str(cfg), "--out", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

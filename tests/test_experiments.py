"""Tests for config ingestion, error tables, surfaces, sweeps and the CLI."""

import copy
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from avgsamp import cli, experiments, mixed_space
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
    ByteGuardError,
    CoefficientGrid,
    LatticeSpline,
    _shift_gram,
    mixed_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.reconstruction import beta_tilde

ROOT = Path(__file__).resolve().parent.parent


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
    _edited("fractional_sweep_n", r"sweep\.n", lambda cfg: cfg.update(sweep={"n": 5.7})),
    _edited("bool_sweep_m", r"sweep\.m", lambda cfg: cfg.update(sweep={"m": True})),
    # Python's json reads NaN and Infinity; every float of the config must be finite
    _edited("nan_K1", r"space\.K1", lambda cfg: cfg["space"].update(K1=math.nan)),
    _edited("nan_K2", r"space\.K2", lambda cfg: cfg["space"].update(K2=math.nan)),
    _edited("infinite_p", r"space\.p", lambda cfg: cfg["space"].update(p=math.inf)),
    _edited("nan_kernel_weight", r"kernel\.weight", lambda cfg: cfg["kernel"].update(weight=math.nan)),
    _edited("infinite_box", r"kernel\.box", lambda cfg: cfg["kernel"].update(box=[[0.5, math.inf], [0.5, 1.5]])),
    _edited("nan_decay_c", r"decay\.c", lambda cfg: cfg["generators"]["decay"].update(c=math.nan)),
    _edited("nan_alpha1", r"stability\.alpha1",
            lambda cfg: cfg["generators"]["stability"].update(alpha1=math.nan, alpha2=1.0)),
    _edited("nan_generator_shift", r"bsplines\[\]\.shift",
            lambda cfg: cfg["generators"]["bsplines"][0].update(shift=[math.nan, 0.0])),
    _malformed("infinite_signal_weight", r"signal\[\]\.weight", weight=-math.inf),
    _edited("nan_sweep_gamma", r"sweep\.gamma", lambda cfg: cfg.update(sweep={"gamma": math.nan})),
    _edited("bool_sweep_mu", r"sweep\.mu", lambda cfg: cfg.update(sweep={"mu": True})),
    _malformed("nan_density_mass", "density.mass",
               density={"kind": "piecewise_constant", "edges": [[-3.0, 0.0, 3.0], [-3.0, 3.0]],
                        "mass": [[math.nan], [0.6]]}),
    _edited("negative_seed", "seed must be >= 0", lambda cfg: cfg.update(seed=-1)),
    _edited("empty_sizes", r"samples\.sizes", lambda cfg: cfg["samples"].update(sizes=[])),
    _edited("negative_N", r"space\.N must be >= 0", lambda cfg: cfg["space"].update(N=-1)),
    _malformed("uniform_density_edges", r"density\.edges and density\.mass",
               density={"kind": "uniform", "edges": [[-3.0, 3.0], [-3.0, 3.0]]}),
    _malformed("uniform_density_mass", r"density\.edges and density\.mass",
               density={"kind": "uniform", "mass": [[1.0]]}),
    _edited("list_samples", "samples must be a JSON object", lambda cfg: cfg.update(samples=[1])),
    _edited("scalar_sizes", r"samples\.sizes must be a JSON list", lambda cfg: cfg["samples"].update(sizes=5)),
    _edited("scalar_signal_item", r"signal\[\] must be a JSON object", lambda cfg: cfg.update(signal=[1])),
    # the floor d+1-1/p-d/q is 1 at d = 1, p = q = 2
    _edited("decay_below_floor", "decay exponents s1 = 0.9",
            lambda cfg: cfg["generators"]["decay"].update(s1=0.9)),
    # p, q outside (1, infinity): with the alphas supplied nothing else reads them at build
    _edited("p_one", r"space\.p and space\.q", lambda cfg: (
        cfg["space"].update(p=1.0), cfg["generators"]["stability"].update(alpha1=0.5, alpha2=1.0))),
    _edited("q_below_one", r"space\.p and space\.q", lambda cfg: cfg["space"].update(q=0.5)),
    _malformed("string_density_mass", r"density\.mass",
               density={"kind": "piecewise_constant", "edges": [[-3.0, 0.0, 3.0], [-3.0, 3.0]],
                        "mass": "ab"}),
    _malformed("ragged_density_mass", r"density\.mass",
               density={"kind": "piecewise_constant", "edges": [[-3.0, 0.0, 3.0], [-3.0, 3.0]],
                        "mass": [[0.4], [0.3, 0.3]]}),
]

SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "perfbench" / "configs").glob("*.json"))


def _objects(value, path=""):
    """(dotted path, object) of every JSON object in value, at every depth; list items as []."""
    if isinstance(value, dict):
        yield path, value
        for key, v in value.items():
            yield from _objects(v, f"{path}.{key}".lstrip("."))
    elif isinstance(value, list):
        for v in value:
            yield from _objects(v, path + "[]")


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

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_load_unchanged(self, path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        exp = load_config(path)
        assert exp.raw == raw and exp.hash == config_hash(raw)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_unknown_key_rejected_at_every_level(self, path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        paths = [where for where, _ in _objects(raw)]
        assert {"", "signal[]", "generators.bsplines[]", "generators.stability"} <= set(paths)
        for i in range(len(paths)):
            cfg = copy.deepcopy(raw)
            where, obj = list(_objects(cfg))[i]
            allowed = list(obj)
            obj["unknown_key"] = 1
            with pytest.raises(ConfigError) as err:
                build_experiment(cfg)
            message = str(err.value)
            name = f"{where}.unknown_key".lstrip(".")
            assert f"unknown config key {name};" in message
            assert all(re.search(rf"\b{re.escape(key)}\b", message.split(" takes ")[1]) for key in allowed)

    def test_schema_keys_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        paragraph = re.search(r"Config schema \(version 1\).*?\n\n", readme, re.S).group(0)

        def keys(reader):
            if isinstance(reader, list):
                yield from keys(reader[0])
            elif isinstance(reader, dict):
                for key, (item, _) in reader.items():
                    yield key
                    yield from keys(item)

        missing = [key for key in keys(experiments.SCHEMA) if f"`{key}`" not in paragraph]
        assert not missing

    def test_one_shift_at_N_zero_tables(self):
        cfg = minimal_config()
        cfg["space"]["N"] = 0
        cfg["signal"] = [{"generator": 0, "k": [0, 0], "weight": 2.0}]
        rows = run_table(build_experiment(cfg)).rows
        assert [r.rank for r in rows] == [1] and rows[0].sup_error < 1e-9

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
            diag = row.diagnostics
            assert diag.columns == exp.signal.size
            if row.rank_deficient:
                assert diag.sigma_min == 0.0 and diag.condition_number == math.inf
                assert row.grid is None
            else:
                assert diag.sigma_min == pytest.approx(sv[-1], rel=1e-12)
                assert diag.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-12)

    def test_a_dense_table_is_refused_before_its_draw(self, config_dir, monkeypatch):
        # a joint 400x400 draw's dense S is 31 MB; refused before its 160,000 points are drawn
        draws, draw = [], experiments.draw_samples

        def spy(*args, **kwargs):
            draws.append(args[1:3])
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments, "draw_samples", spy)
        monkeypatch.setattr(mixed_space, "SAMPLE_BYTES", 1 << 20)
        raw = load_config(config_dir / "quadratic_bspline.json").raw
        joint, separable = (build_experiment(dict(raw, samples={"sizes": [[400, 400]], "mode": mode}))
                            for mode in ("joint", "separable"))
        with pytest.raises(ByteGuardError, match=re.escape(
                "dense sample matrix of n = 400, m = 400 samples and D = 25 columns needs 30.5 MB, "
                "above SAMPLE_BYTES (1.0 MB)")):
            run_table(joint)
        assert draws == []
        (row,) = run_table(separable).rows
        assert draws == [(400, 400)] and not row.rank_deficient

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

    def test_random_search_takes_the_configured_trials(self, config_dir, monkeypatch):
        # away from p = q = 2 beta_tilde is a random search, sized by generators.stability.trials
        raw = json.loads((config_dir / "quadratic_bspline.json").read_text(encoding="utf-8"))
        raw["space"].update(p=3.0, q=3.0)
        exp = build_experiment(raw, seed_override=1)
        trials = raw["generators"]["stability"]["trials"]
        want = beta_tilde(exp.phi, exp.kernel, exp.N, 3.0, 3.0, exp.cuboid, trials, 1, exp.quad).value
        assert want != beta_tilde(exp.phi, exp.kernel, exp.N, 3.0, 3.0, exp.cuboid, 100, 1, exp.quad).value
        seen = []
        real = experiments.beta_tilde

        def spy(*args, **kwargs):
            est = real(*args, **kwargs)
            seen.append(est.value)
            return est

        monkeypatch.setattr(experiments, "beta_tilde", spy)
        assert constants_report(exp, "reconstruction")["beta_tilde"] == want
        probability_sweep(exp, [(5, 5)], trials=1)
        assert seen == [want, want]

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

    @pytest.mark.parametrize("argv, message", [
        (["--theorem", "omega", "--n", "0"], "n and m must be >= 1"),
        (["--theorem", "mu", "--n", "-3"], "n and m must be >= 1"),
        (["--theorem", "concentrated", "--m", "0"], "n and m must be >= 1"),
        (["--theorem", "reconstruction", "--beta-tilde", "nan"], "beta_tilde must be positive and finite"),
        (["--theorem", "reconstruction", "--beta-tilde", "inf"], "beta_tilde must be positive and finite"),
    ])
    def test_constants_rejects_a_bad_override(self, tmp_path, capsys, argv, message):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "c.json"
        assert main(["constants", "--config", str(cfg), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_surface_files(self, tmp_path):
        cfg = self._write_config(tmp_path)
        stem = tmp_path / "surf"
        assert main(["surface", "--config", str(cfg), "--out", str(stem),
                     "--grid", "11x11"]) == 0
        assert (tmp_path / "surf.f.csv").exists()
        assert (tmp_path / "surf.recon.csv").exists()

    def test_surface_reconstruction_is_the_table_row(self, tmp_path):
        # surface --which recon draws nothing itself: its values are run_table's row of that size
        cfg = self._write_config(tmp_path)
        stem = tmp_path / "surf"
        assert main(["surface", "--config", str(cfg), "--out", str(stem), "--which", "recon",
                     "--n", "6", "--m", "5", "--grid", "7x9", "--format", "json"]) == 0
        doc = json.loads((tmp_path / "surf.recon.json").read_text())
        exp = build_experiment(dict(minimal_config(), samples={"sizes": [[6, 5]]}))
        (row,) = run_table(exp).rows
        want = LatticeSpline(exp.phi, row.grid).evaluate_grid([np.array(doc["x"]), np.array(doc["y"])])
        assert np.array_equal(np.array(doc["values"]), want)
        assert doc["config_sha256"] == load_config(cfg).hash

    def test_memory_guard_exits_2_with_an_error(self, tmp_path, capsys):
        # the dense shift Gram of two generators at d = 2, N = 7 has side 2 * 15^3 = 6750
        raw = json.loads((ROOT / "perfbench" / "configs" / "scale_d2.json").read_text(encoding="utf-8"))
        raw["space"]["N"] = 7
        raw["generators"]["bsplines"].append({"degree": 1, "shift": [0, 0, 0]})
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dense shift Gram of side 6750 needs 348 MB") and "GRAM_BYTES" in err
        assert not out.exists()

    def _table_config(self, tmp_path, n, mode):
        """The shipped quadratic config at one n x n size in the given sampling mode."""
        raw = json.loads((ROOT / "configs" / "quadratic_bspline.json").read_text(encoding="utf-8"))
        cfg = tmp_path / f"{mode}_{n}.json"
        cfg.write_text(json.dumps(dict(raw, samples={"sizes": [[n, n]], "mode": mode})))
        return cfg

    def test_sample_matrix_guard_refuses_a_joint_table_but_not_a_separable_one(self, tmp_path, capsys,
                                                                               monkeypatch):
        # a 40x40 draw with D = 25 columns: 0.3 MB dense, which only the joint table forms
        monkeypatch.setattr(mixed_space, "SAMPLE_BYTES", 1 << 18)
        for mode, code in (("joint", 2), ("separable", 0)):
            out = tmp_path / f"{mode}.csv"
            assert main(["table", "--config", str(self._table_config(tmp_path, 40, mode)),
                         "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert capsys.readouterr().err == ("error: dense sample matrix of n = 40, m = 40 samples and "
                                           "D = 25 columns needs 0.3 MB, above SAMPLE_BYTES (0.2 MB)\n")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_refused_table_peak_rss_stays_near_the_baseline(self, tmp_path):
        # at 400x400 the joint matrix alone is 31 MB; unguarded, the run peaked about 130 MB above
        # the 8x8 baseline; refused before its draw of 160,000 points, it peaks at the baseline
        script = ("import sys\nfrom avgsamp import mixed_space\nfrom avgsamp.cli import main\n"
                  "mixed_space.SAMPLE_BYTES = 1 << 20\n"
                  "code = main(['table', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                  "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM'))\n"
                  "print(code, int(hwm.split()[1]) // 1024)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def run(n):
            proc = subprocess.run([sys.executable, "-c", script, str(self._table_config(tmp_path, n, "joint")),
                                   str(tmp_path / "t.csv")], capture_output=True, text=True, env=env, timeout=300)
            code, peak_mb = proc.stdout.split()[-2:]
            return int(code), int(peak_mb)

        (base_code, base_mb), (code, peak_mb) = run(8), run(400)
        assert (base_code, code) == (0, 2)
        assert peak_mb <= base_mb + 32, (base_mb, peak_mb)

    def test_out_of_memory_is_not_a_refusal(self, tmp_path, monkeypatch):
        # only a byte guard's refusal exits 2; a real allocation failure propagates
        def fail(exp):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(cli, "run_table", fail)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            main(["table", "--config", str(self._write_config(tmp_path)), "--out", str(tmp_path / "t.csv")])

    @pytest.mark.parametrize("which", ["f", "recon", "both"])
    def test_surface_refuses_higher_dimension(self, tmp_path, capsys, monkeypatch, which):
        # refused before any table work
        monkeypatch.setattr(cli, "run_table", None)
        cfg = tmp_path / "d2.json"
        cfg.write_text(json.dumps(d2_config()))
        stem = tmp_path / "surf"
        assert main(["surface", "--config", str(cfg), "--out", str(stem), "--which", which]) == 2
        err = capsys.readouterr().err
        assert err == "error: surface output needs d = 1, got d = 2\n"
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

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

    def test_help_lists_the_table_columns_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"table:\s+(.*?)\n\s+\(", capsys.readouterr().out, re.S).group(1)
        assert re.sub(r"\s", "", listed).split(",") == list(experiments.ResultTable.CSV_COLUMNS)

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

    @pytest.mark.parametrize("command", [["table"], ["sweep", "--trials", "1"], ["samples"],
                                         ["constants", "--theorem", "omega"]])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, command):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command[0], "--config", str(cfg), "--out", str(out), "--seed", "-1", *command[1:]]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["samples", "--config", str(cfg), "--out", str(a)])
        main(["samples", "--config", str(cfg), "--out", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

"""Experiment harness: config ingestion, error tables, sweeps and reports.

Configurations are single JSON documents with a versioned schema; every
output file embeds the config hash and the seed so that reruns are
byte-identical and archivable.  The harness reproduces the published
reconstruction-error tables, emits surface grids for plotting, runs
Monte Carlo probability sweeps against the theoretical bounds, and
pretty-prints every theorem constant.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundReport,
    SpaceParams,
    _jsonable,
    concentration_class_report,
    mu_class_report,
    omega_class_report,
    reconstruction_report,
)
from .mixed_space import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    _gram_form,
    _refuse_dense_samples,
    _term_grams,
    decay_constant,
    estimate_stability,
    sup_norm,
    tensor_bspline,
)
from .quadrature import QuadratureSpec
from .reconstruction import (
    Diagnostics,
    RankDeficientError,
    TrialSpec,
    beta_tilde,
    _has_kron_factors,
    _sample_matrix,
    empirical_success,
    solve,
)
from .sampling import AveragingKernel, Density, abs_integral, convolve, draw_samples

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _int(value, key: str) -> int:
    """value as an int; ints and integral floats pass, anything else raises a ConfigError naming key."""
    if not isinstance(value, bool) and (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _float(value, key: str) -> float:
    """value as a float; finite numbers pass, anything else (NaN and infinities
    included, which Python's json reads) raises a ConfigError naming key."""
    if not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


#: Every config key, stated once: name -> (reader, default).  A reader is _int,
#: _float, a dict (an object of those keys), a one-item list (a list of that
#: item) or None (the value as given).  A null or absent key reads as its
#: default; a default of ... marks a required key.
SCHEMA = {
    "schema": (None, ...), "seed": (_int, ...),
    "space": ({"p": (_float, ...), "q": (_float, ...), "d": (_int, ...), "N": (_int, ...),
               "K1": (_float, ...), "K2": (_float, ...)}, {}),
    "quadrature": ({"order": (_int, 8), "refine": (_int, 1)}, {}),
    "generators": ({"bsplines": ([{"degree": (_int, ...), "shift": ([_float], None)}], ...),
                    "decay": ({"s1": (_float, 2.0), "s2": (_float, 2.0), "c": (_float, None)}, {}),
                    "stability": ({"alpha1": (_float, None), "alpha2": (_float, None),
                                   "trials": (_int, 40)}, {})}, {}),
    "kernel": ({"box": ([[_float]], ...), "weight": (_float, 1.0)}, {}),
    "density": ({"kind": (None, "uniform"), "edges": ([[_float]], None), "mass": (None, None)}, {}),
    "signal": ([{"generator": (_int, ...), "k": ([_int], ...), "weight": (_float, ...)}], ...),
    "samples": ({"sizes": ([[_int]], [[5, 5]]), "mode": (None, "joint")}, {}),
    "sweep": ({"n": (_int, None), "m": (_int, None)} | {key: (_float, None) for key in (
        "gamma", "omega", "mu", "eta", "delta", "eps", "beta_tilde")}, {}),
}


def _read(reader, value, path: str = ""):
    """value read through reader (see SCHEMA), defaults filled in.  A ConfigError names the
    dotted path (list items as []) of an unknown or missing key or of a value of the wrong kind."""
    if not isinstance(reader, (dict, list)):
        return value if reader is None else reader(value, path)
    if not isinstance(value, type(reader)):
        kind = "object" if isinstance(reader, dict) else "list"
        raise ConfigError(f"{path} must be a JSON {kind}, got {value!r}")
    if isinstance(reader, list):
        return [_read(reader[0], v, path + "[]") for v in value]
    unknown = ", ".join(f"{path}.{key}".lstrip(".") for key in value if key not in reader)
    if unknown:
        raise ConfigError(f"unknown config key {unknown}; {path or 'config'} takes {', '.join(reader)}")
    out = {}
    for key, (item, default) in reader.items():
        name, v = f"{path}.{key}".lstrip("."), value.get(key)
        v = default if v is None else v
        if v is ...:
            raise ConfigError(f"{name} is required")
        out[key] = None if v is None else _read(item, v, name)
    return out


def config_hash(raw: dict) -> str:
    """SHA-256 of the canonical JSON form of the configuration."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class Experiment:
    """A fully resolved experiment: spaces, generators, kernel, density, signal.

    stability_certified: alpha1 and alpha2 are Gram bounds, which needs
    p = q = 2 and neither constant supplied.  They hold against the l^{2,2}
    norm of the bounds (CoefficientGrid.seq_mixed_norm, which sums the
    per-generator block norms); for r > 1 alpha1 is the Euclidean Gram bound
    divided by sqrt(r) (see estimate_stability), for r = 1 both are exact.
    stability_trials (generators.stability.trials) sizes every random
    stability search away from p = q = 2: alpha1 and alpha2, and beta_tilde.

    f, the signal, and conv = f * psi are LatticeSplines, never expanded.
    Where a sampling matrix S is built anyway (run_table, recovery sweeps,
    surface) the sample values are S @ c (SampleMatrix.__matmul__), not conv
    at the sample points; for a separable factor pair that is
    vec(A_x C B_y^T), and the pair's dense S (SampleMatrix.entries) is
    never formed here.
    """

    raw: dict
    seed: int
    p: float
    q: float
    d: int
    N: int
    cuboid: Cuboid
    phi: GeneratorSet
    kernel: AveragingKernel
    density: Density
    signal: CoefficientGrid
    sample_sizes: list[tuple[int, int]]
    mode: str
    quad: QuadratureSpec
    stability_estimated: bool
    stability_certified: bool
    decay_fitted: bool
    stability_trials: int
    sweep_defaults: dict = field(default_factory=dict)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def f(self) -> LatticeSpline:
        return LatticeSpline(self.phi, self.signal)

    @property
    def conv(self) -> LatticeSpline:
        return convolve(self.f, self.kernel)

    def space_params(self) -> SpaceParams:
        return SpaceParams(
            p=self.p, q=self.q, d=self.d, r=self.phi.r, N=self.N,
            K1=self.cuboid.K1, K2=self.cuboid.K2,
            alpha1=self.phi.alpha1, alpha2=self.phi.alpha2,
            decay_c=self.phi.decay_c, s1=self.phi.decay_s1, s2=self.phi.decay_s2,
            rho_lower=self.density.lower, rho_upper=self.density.upper,
            psi_l11=self.kernel.l11_norm,
        )

    def file_header(self) -> str:
        return f"config_sha256={self.hash} seed={self.seed} schema=avgsamp-v{SCHEMA_VERSION}"

    def beta_tilde_value(self) -> float:
        """The config's beta_tilde (see reconstruction.beta_tilde), computed anew on every call."""
        return beta_tilde(self.phi, self.kernel, self.N, self.p, self.q, self.cuboid,
                          self.stability_trials, self.seed, self.quad).value


def load_config(path, seed_override: int | None = None) -> Experiment:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return build_experiment(raw, seed_override)


def build_experiment(raw: dict, seed_override: int | None = None) -> Experiment:
    """Validate and resolve a configuration dictionary: read it through SCHEMA, then check across keys."""
    _require(isinstance(raw, dict) and raw.get("schema") == SCHEMA_VERSION,
             f"config must be a JSON object with schema {SCHEMA_VERSION}")
    cfg = _read(SCHEMA, raw)
    seed = cfg["seed"] if seed_override is None else _int(seed_override, "seed")
    _require(seed >= 0, f"seed must be >= 0, got {seed}")

    sp = cfg["space"]
    p, q, d, N = sp["p"], sp["q"], sp["d"], sp["N"]
    _require(p > 1.0 and q > 1.0, f"space.p and space.q must lie in (1, infinity), got p = {p}, q = {q}")
    _require(N >= 0, f"space.N must be >= 0, got {N}")
    cuboid = Cuboid(sp["K1"], sp["K2"], d)
    quad = QuadratureSpec(cfg["quadrature"]["order"], cfg["quadrature"]["refine"])

    gen = cfg["generators"]
    _require(len(gen["bsplines"]) >= 1, "generators.bsplines must list at least one generator")
    _require(all(g["shift"] is None or len(g["shift"]) == d + 1 for g in gen["bsplines"]),
             "generator shift must have d+1 entries")
    funcs = [tensor_bspline([g["degree"]] * (d + 1), g["shift"]) for g in gen["bsplines"]]
    s1, s2, c_val = gen["decay"]["s1"], gen["decay"]["s2"], gen["decay"]["c"]
    decay_fitted = c_val is None
    if decay_fitted:
        c_val = max(decay_constant(g, s1, s2) for g in funcs)

    kern = cfg["kernel"]
    _require(len(kern["box"]) == d + 1 and all(len(iv) == 2 for iv in kern["box"]),
             "kernel.box must hold d+1 [a, b] pairs")
    kernel = AveragingKernel.box(kern["box"], cuboid, kern["weight"])

    dens = cfg["density"]
    if dens["kind"] == "uniform":
        _require(dens["edges"] is None and dens["mass"] is None,
                 "density.edges and density.mass need kind piecewise_constant")
        density = Density.uniform(cuboid)
    elif dens["kind"] == "piecewise_constant":
        _require(dens["edges"] is not None and dens["mass"] is not None,
                 "density.edges and density.mass are required")
        try:
            mass = np.asarray(dens["mass"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"density.mass must be nested lists of numbers, got {dens['mass']!r}") from None
        _require(np.isfinite(mass).all(), "density.mass must be finite numbers")
        edges = [np.asarray(e, dtype=float) for e in dens["edges"]]
        density = Density.piecewise_constant(cuboid, edges, mass)
    else:
        raise ConfigError(f"unknown density kind {dens['kind']!r}")

    a1, a2 = gen["stability"]["alpha1"], gen["stability"]["alpha2"]
    stability_estimated = a1 is None or a2 is None
    stability_certified = a1 is None and a2 is None and p == q == 2.0
    if stability_estimated:
        lo, hi = estimate_stability(funcs, p, q, N, gen["stability"]["trials"], seed, quad)
    phi = GeneratorSet(tuple(funcs), c_val, s1, s2, lo if a1 is None else a1, hi if a2 is None else a2)

    entries = [(t["generator"], t["k"], t["weight"]) for t in cfg["signal"]]
    _require(len(entries) >= 1, "signal coefficients are required")
    _require(all(len(k) == d + 1 for _, k, _ in entries), f"signal[].k must have d+1 = {d + 1} entries")
    for i, k, _ in entries:
        _require(0 <= i < phi.r, f"signal generator {i} must lie in [0, {phi.r - 1}]")
        _require(all(abs(v) <= N for v in k), f"signal shift {k} must lie in [-N, N] = [-{N}, {N}]")
    signal = CoefficientGrid.from_entries(phi.r, N, d, entries)

    sizes, mode = [tuple(s) for s in cfg["samples"]["sizes"]], cfg["samples"]["mode"]
    _require(len(sizes) >= 1, "samples.sizes must list at least one [n, m] pair")
    _require(all(len(s) == 2 for s in sizes), "samples.sizes items must be [n, m] pairs")
    _require(all(n >= 1 and m >= 1 for n, m in sizes), "sample sizes must be positive")
    _require(mode in ("joint", "separable"), f"samples.mode must be joint or separable, got {mode!r}")
    _require(mode == "joint" or density.cell_mass.size == 1, "samples.mode separable needs the uniform density")
    sweep = {key: v for key, v in cfg["sweep"].items() if v is not None}
    _require(all(sweep[key] >= 1 for key in ("n", "m") if key in sweep), "sweep.n and sweep.m must be >= 1")

    exp = Experiment(
        raw=raw, seed=seed, p=p, q=q, d=d, N=N, cuboid=cuboid, phi=phi, kernel=kernel, density=density,
        signal=signal, sample_sizes=sizes, mode=mode, quad=quad, stability_estimated=stability_estimated,
        stability_certified=stability_certified, decay_fitted=decay_fitted,
        stability_trials=gen["stability"]["trials"], sweep_defaults=sweep,
    )
    try:
        exp.space_params()  # the theorem inputs, the decay floor among them, checked once
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return exp


def row_seed(master: int, n: int, m: int) -> int:
    return int(np.random.SeedSequence((master, n, m)).generate_state(1, dtype=np.uint64)[0])


@dataclass
class TableRow:
    n: int
    m: int
    seed: int
    diagnostics: Diagnostics
    sup_error: float = math.nan
    l1_error: float = math.nan
    l2_error: float = math.nan
    residual: float = math.nan
    grid: CoefficientGrid | None = None

    rank = property(lambda self: self.diagnostics.rank)
    rank_deficient = property(lambda self: self.diagnostics.rank_deficient)


@dataclass
class ResultTable:
    """Reconstruction errors per sample size, plus the run's file header (Experiment.file_header)."""

    rows: list[TableRow]
    header: str

    CSV_COLUMNS = ("n", "m", "sup_error", "l1_error", "l2_error",
                   "rank", "rank_deficient", "residual", "row_seed",
                   "sigma_min", "condition_number")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# {self.header}\n")
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for r in self.rows:
                sup, l1, l2, res = ("" if r.rank_deficient else repr(v)
                                    for v in (r.sup_error, r.l1_error, r.l2_error, r.residual))
                writer.writerow([r.n, r.m, sup, l1, l2, r.rank, int(r.rank_deficient), res, r.seed,
                                 repr(r.diagnostics.sigma_min), repr(r.diagnostics.condition_number)])


def run_table(exp: Experiment) -> ResultTable:
    """Draw, reconstruct and measure errors for every configured (n, m).

    A row's sample values are S @ c, with S its sampling matrix; a
    separable draw of a one-term generator keeps S as its factor pair
    (A_x, B_y) and never forms the dense S, for S @ c, the solve or the
    residual.  Every error is a norm over the cuboid of the lattice spline
    of the coefficient error delta = c - c_hat, which is f minus the
    reconstruction, kept as one LatticeSpline and never expanded: the sup
    error is sup_norm's certified upper end and the L1 error abs_integral,
    both read from its cell form, and the L2 error is exact as
    sqrt(delta^T G delta) with G the shift Gram over the cuboid, taken by
    mode products of delta with the per-axis Grams (G is not formed).
    The per-axis Grams and the generators convolved with the kernel are
    built once per call.  Every row carries the sample matrix's Diagnostics,
    and a full-rank row the recovered coefficient grid.  Rank-deficient
    draws are recorded with NaN errors; they are reported, never retried.
    A row whose draw would get a dense S above SAMPLE_BYTES is refused
    before the draw, so a refused row allocates no sample points.
    """
    convolved = [convolve(g, exp.kernel) for g in exp.phi.generators]
    term_grams = _term_grams(exp.phi.generators, exp.N, exp.cuboid, exp.quad)
    rows = []
    for n, m in exp.sample_sizes:
        rseed = row_seed(exp.seed, n, m)
        if not _has_kron_factors(exp.mode, convolved):
            _refuse_dense_samples(n, m, exp.signal.size)
        samples = draw_samples(exp.density, n, m, rseed, exp.mode)
        S = _sample_matrix(exp.phi, exp.kernel, convolved, samples, exp.N)
        try:
            res = solve(S, S @ exp.signal.flatten())
        except RankDeficientError as exc:
            rows.append(TableRow(n, m, rseed, exc.diagnostics))
            continue
        delta = CoefficientGrid(exp.signal.values - res.grid.values, exp.N)
        spline = LatticeSpline(exp.phi, delta)
        sup = sup_norm(spline, exp.cuboid)
        l1 = abs_integral(spline, exp.cuboid, exp.quad)
        l2 = math.sqrt(max(_gram_form(term_grams, delta), 0.0))
        rows.append(TableRow(n, m, rseed, res.diagnostics, sup, l1, l2, res.residual, res.grid))
    return ResultTable(rows, exp.file_header())


def emit_surface(func: LatticeSpline, grid_spec: dict, path, exp: Experiment | None = None,
                 fmt: str = "csv") -> None:
    """Write the function on a regular grid as (x, y, value) rows.

    grid_spec: {"x": [lo, hi, count], "y": [lo, hi, count]}, counts >= 2.
    """
    if func.ndim > 2:
        raise ValueError(f"surface output needs d = 1, got d = {func.ndim - 1}")
    gx = grid_spec["x"]
    gy = grid_spec["y"]
    if int(gx[2]) < 2 or int(gy[2]) < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    xs = np.linspace(float(gx[0]), float(gx[1]), int(gx[2]))
    ys = np.linspace(float(gy[0]), float(gy[1]), int(gy[2]))
    vals = func.evaluate_grid([xs, ys])
    header = exp.file_header() if exp is not None else None
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header:
                fh.write(f"# {header}\n")
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value"])
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    writer.writerow([repr(float(x)), repr(float(y)), repr(float(vals[i, j]))])
    elif fmt == "json":
        doc = {"x": [float(v) for v in xs], "y": [float(v) for v in ys],
               "values": [[float(v) for v in row] for row in vals]}
        if exp is not None:
            doc["config_sha256"] = exp.hash
            doc["seed"] = exp.seed
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    else:
        raise ValueError(f"unknown surface format {fmt!r}")


#: Sweep theorem -> (constants_report selector, trial kind, report keys of the
#: (lower, upper) factors of ||f|| that the trials test against).
SWEEP_THEOREMS = {
    "recovery": ("reconstruction", "recovery", None),
    "omega": ("omega", "omega_inequality", ("A_gamma_omega", "B_gamma_omega")),
    "mu": ("mu", "mu_inequality", ("lower_constant", "upper_constant")),
}


def probability_sweep(exp: Experiment, nm_list, trials: int,
                      theorem: str = "recovery", jsonl_dir=None) -> list[dict]:
    """Empirical success fractions versus the theoretical probability bound.

    One record per (n, m): the Monte Carlo fraction with its Wilson 95%
    interval next to the raw and clamped theoretical probabilities.  The
    theoretical probability and the inequality trials' bounds are those of
    constants_report at the same (n, m).  At desk scale the clamped bounds
    are typically zero (vacuous); they are reported rather than hidden.  The
    flags stability_certified and decay_fitted say what the theoretical
    probability rests on.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if theorem not in SWEEP_THEOREMS:
        raise ValueError(f"unknown sweep theorem {theorem!r}")
    selector, kind, bound_keys = SWEEP_THEOREMS[theorem]
    bt = exp.beta_tilde_value() if theorem == "recovery" else None
    records = []
    for n, m in nm_list:
        rep = constants_report(exp, selector, n=n, m=m, beta_tilde=bt)
        bounds = None if bound_keys is None else tuple(rep[k] for k in bound_keys)
        spec = TrialSpec(kind, exp.phi, exp.kernel, exp.density, exp.signal,
                         exp.N, n, m, exp.p, exp.q, exp.mode, bounds=bounds)
        sseed = row_seed(exp.seed, n, m)
        jsonl = None
        if jsonl_dir is not None:
            jsonl = f"{jsonl_dir}/trials_{theorem}_{n}x{m}.jsonl"
        summary = empirical_success(spec, trials, sseed, jsonl)
        records.append({
            "theorem": theorem, "n": n, "m": m, "trials": trials,
            "fraction": summary.fraction,
            "wilson_low": summary.wilson_low, "wilson_high": summary.wilson_high,
            "probability_raw": _jsonable(rep["probability_raw"]),
            "probability": rep["probability"],
            "stability_certified": exp.stability_certified, "decay_fitted": exp.decay_fitted,
            "config_sha256": exp.hash, "seed": exp.seed,
        })
    return records


def constants_report(exp: Experiment, selector: str, **extra) -> BoundReport:
    """Every constant of the selected probability bound, symbol by symbol.

    selector: omega | mu | concentrated | reconstruction.  Keyword
    arguments override the config's sweep defaults; n and m default to the
    first configured sample size.  Flags: stability_certified (alpha1 and
    alpha2 are certified Gram bounds, see Experiment) and decay_fitted.
    """
    params = exp.space_params()
    defaults = dict(exp.sweep_defaults)
    defaults.update({k: v for k, v in extra.items() if v is not None})
    n, m = exp.sample_sizes[0]
    n, m = _int(defaults.get("n", n), "n"), _int(defaults.get("m", m), "m")
    _require(n >= 1 and m >= 1, f"sample counts n and m must be >= 1, got n = {n}, m = {m}")
    gamma = float(defaults.get("gamma", 0.5))
    if selector == "omega":
        omega = float(defaults.get("omega", exp.kernel.l11_norm))
        rep = omega_class_report(params, gamma, omega, n, m)
    elif selector == "mu":
        mu = float(defaults.get("mu", 1.0))
        eta = float(defaults.get("eta", 0.5 * mu * params.rho_lower))
        rep = mu_class_report(params, mu, eta, n, m)
    elif selector == "concentrated":
        delta = float(defaults.get("delta", 0.1))
        eps = float(defaults.get("eps", 0.05))
        rep = concentration_class_report(params, delta, eps, gamma, n, m)
    elif selector == "reconstruction":
        bt = defaults.get("beta_tilde")
        rep = reconstruction_report(params, gamma, float(exp.beta_tilde_value() if bt is None else bt), n, m)
    else:
        raise ConfigError(f"unknown selector {selector!r}")
    rep.flags.update(stability_certified=exp.stability_certified, decay_fitted=exp.decay_fitted)
    return rep

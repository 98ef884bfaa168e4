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
    _term_grams,
    decay_constant,
    estimate_stability,
    sup_norm,
    tensor_bspline,
)
from .quadrature import QuadratureSpec
from .reconstruction import (
    RankDeficientError,
    TrialSpec,
    beta_tilde,
    _sample_matrix,
    conditioning,
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

    f, the signal, and conv = f * psi are LatticeSplines, never expanded.
    Where a sampling matrix S is built anyway (run_table, recovery sweeps,
    surface) the sample values are S c, not conv at the sample points.
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


def load_config(path, seed_override: int | None = None) -> Experiment:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return build_experiment(raw, seed_override)


def build_experiment(raw: dict, seed_override: int | None = None) -> Experiment:
    """Validate and resolve a configuration dictionary."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require(raw.get("schema") == SCHEMA_VERSION, f"config schema must be {SCHEMA_VERSION}")
    _require("seed" in raw, "config must set an explicit seed (no wall-clock defaults)")
    seed = _int(raw["seed"], "seed") if seed_override is None else _int(seed_override, "seed")

    sp = raw.get("space", {})
    for key in ("p", "q", "d", "N", "K1", "K2"):
        _require(key in sp, f"space.{key} is required")
        _require(isinstance(sp[key], (int, float)), f"space.{key} must be a number")
    p, q, d, N = float(sp["p"]), float(sp["q"]), _int(sp["d"], "space.d"), _int(sp["N"], "space.N")
    cuboid = Cuboid(float(sp["K1"]), float(sp["K2"]), d)

    qd = raw.get("quadrature", {})
    quad = QuadratureSpec(_int(qd.get("order", 8), "quadrature.order"),
                          _int(qd.get("refine", 1), "quadrature.refine"))

    gen = raw.get("generators", {})
    _require("bsplines" in gen and len(gen["bsplines"]) >= 1,
             "generators.bsplines must list at least one generator")
    funcs = []
    for g in gen["bsplines"]:
        _require("degree" in g, "generators.bsplines[].degree is required")
        degree = _int(g["degree"], "generators.bsplines[].degree")
        shift = [float(s) for s in g.get("shift", [0.0] * (d + 1))]
        _require(len(shift) == d + 1, "generator shift must have d+1 entries")
        funcs.append(tensor_bspline([degree] * (d + 1), shift))
    decay = gen.get("decay", {})
    s1 = float(decay.get("s1", 2.0))
    s2 = float(decay.get("s2", 2.0))
    c_raw = decay.get("c")
    decay_fitted = c_raw is None
    if decay_fitted:
        c_val = max(decay_constant(g, s1, s2) for g in funcs)
    else:
        c_val = float(c_raw)

    kern = raw.get("kernel", {})
    _require("box" in kern, "kernel.box is required")
    _require(isinstance(kern["box"], (list, tuple)) and len(kern["box"]) == d + 1,
             "kernel.box must have d+1 intervals")
    _require(all(isinstance(iv, (list, tuple)) and len(iv) == 2 for iv in kern["box"]),
             "kernel.box items must be [a, b] pairs")
    bounds = [(float(a), float(b)) for a, b in kern["box"]]
    kernel = AveragingKernel.box(bounds, cuboid, float(kern.get("weight", 1.0)))

    dens = raw.get("density", {"kind": "uniform"})
    kind = dens.get("kind", "uniform")
    if kind == "uniform":
        density = Density.uniform(cuboid)
    elif kind == "piecewise_constant":
        _require("edges" in dens and "mass" in dens, "density.edges and density.mass are required")
        edges = [np.asarray(e, dtype=float) for e in dens["edges"]]
        mass = np.asarray(dens["mass"], dtype=float)
        density = Density.piecewise_constant(cuboid, edges, mass)
    else:
        raise ConfigError(f"unknown density kind {kind!r}")

    stab = gen.get("stability", {})
    a1_raw, a2_raw = stab.get("alpha1"), stab.get("alpha2")
    stability_estimated = a1_raw is None or a2_raw is None
    stability_certified = a1_raw is None and a2_raw is None and p == q == 2.0
    if stability_estimated:
        trials = _int(stab.get("trials", 40), "generators.stability.trials")
        lo, hi = estimate_stability(funcs, p, q, N, trials, seed, quad)
    alpha1 = lo if a1_raw is None else float(a1_raw)
    alpha2 = hi if a2_raw is None else float(a2_raw)
    phi = GeneratorSet(tuple(funcs), c_val, s1, s2, alpha1, alpha2)
    phi.check_exponents(p, q)

    _require("signal" in raw and len(raw["signal"]) >= 1, "signal coefficients are required")
    for key in ("generator", "k", "weight"):
        _require(all(key in t for t in raw["signal"]), f"signal[].{key} is required")
    _require(all(isinstance(t["k"], (list, tuple)) and len(t["k"]) == d + 1 for t in raw["signal"]),
             f"signal[].k must be a list of d+1 = {d + 1} entries")
    entries = [(_int(t["generator"], "signal[].generator"), [_int(k, "signal[].k") for k in t["k"]],
                float(t["weight"])) for t in raw["signal"]]
    for i, k, _ in entries:
        _require(0 <= i < phi.r, f"signal generator {i} must lie in [0, {phi.r - 1}]")
        _require(all(abs(v) <= N for v in k), f"signal shift {k} must lie in [-N, N] = [-{N}, {N}]")
    signal = CoefficientGrid.from_entries(phi.r, N, d, entries)

    smp = raw.get("samples", {})
    sizes = smp.get("sizes", [[5, 5]])
    _require(all(isinstance(s, (list, tuple)) and len(s) == 2 for s in sizes),
             "samples.sizes items must be [n, m] pairs")
    sizes = [(_int(n, "samples.sizes"), _int(m, "samples.sizes")) for n, m in sizes]
    _require(all(n >= 1 and m >= 1 for n, m in sizes), "sample sizes must be positive")
    mode = smp.get("mode", "joint")
    _require(mode in ("joint", "separable"), f"samples.mode must be joint or separable, got {mode!r}")
    _require(mode == "joint" or density.cell_mass.size == 1, "samples.mode separable needs the uniform density")

    return Experiment(
        raw=raw, seed=seed, p=p, q=q, d=d, N=N, cuboid=cuboid, phi=phi,
        kernel=kernel, density=density, signal=signal, sample_sizes=sizes,
        mode=mode, quad=quad, stability_estimated=stability_estimated,
        stability_certified=stability_certified, decay_fitted=decay_fitted,
        sweep_defaults=raw.get("sweep", {}),
    )


def row_seed(master: int, n: int, m: int) -> int:
    return int(np.random.SeedSequence((master, n, m)).generate_state(1, dtype=np.uint64)[0])


@dataclass
class TableRow:
    n: int
    m: int
    seed: int
    rank: int
    rank_deficient: bool
    sup_error: float
    l1_error: float
    l2_error: float
    residual: float
    sigma_min: float
    condition_number: float


@dataclass
class ResultTable:
    """Reconstruction errors per sample size, plus run metadata."""

    rows: list[TableRow]
    config_sha256: str
    seed: int

    CSV_COLUMNS = ("n", "m", "sup_error", "l1_error", "l2_error",
                   "rank", "rank_deficient", "residual", "row_seed",
                   "sigma_min", "condition_number")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# config_sha256={self.config_sha256} seed={self.seed} "
                     f"schema=avgsamp-v{SCHEMA_VERSION}\n")
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for r in self.rows:
                errs = ["", "", ""] if r.rank_deficient else [
                    repr(r.sup_error), repr(r.l1_error), repr(r.l2_error)]
                writer.writerow([r.n, r.m, *errs, r.rank, int(r.rank_deficient),
                                 repr(r.residual) if not r.rank_deficient else "",
                                 r.seed, repr(r.sigma_min), repr(r.condition_number)])


def run_table(exp: Experiment) -> ResultTable:
    """Draw, reconstruct and measure errors for every configured (n, m).

    A row's sample values are S c, with S its sampling matrix.  Every
    error is a norm over the cuboid of the lattice spline of the
    coefficient error delta = c - c_hat, which is f minus the
    reconstruction, kept as one LatticeSpline and never expanded: the sup
    error is sup_norm's certified upper end and the L1 error abs_integral,
    both read from its cell form, and the L2 error is exact as
    sqrt(delta^T G delta) with G the shift Gram over the cuboid, taken by
    mode products of delta with the per-axis Grams (G is not formed).
    The per-axis Grams and the generators convolved with the kernel are
    built once per call.  Every
    row also carries the sample matrix's smallest singular value and
    condition number.
    Rank-deficient draws are recorded with the observed rank, those two
    values and empty error fields; they are reported, never retried.
    """
    convolved = [convolve(g, exp.kernel) for g in exp.phi.generators]
    term_grams = _term_grams(exp.phi.generators, exp.N, exp.cuboid, exp.quad)
    rows = []
    for n, m in exp.sample_sizes:
        rseed = row_seed(exp.seed, n, m)
        samples = draw_samples(exp.density, n, m, rseed, exp.mode)
        S = _sample_matrix(exp.phi, exp.kernel, convolved, samples, exp.N)
        try:
            res = solve(S, S.entries @ exp.signal.flatten())
        except RankDeficientError as exc:
            rows.append(TableRow(n, m, rseed, exc.rank, True, math.nan, math.nan, math.nan,
                                 math.nan, *conditioning(exc.singular_values, exc.columns)))
            continue
        delta = CoefficientGrid(exp.signal.values - res.grid.values, exp.N)
        spline = LatticeSpline(exp.phi, delta)
        sup = sup_norm(spline, exp.cuboid)
        l1 = abs_integral(spline, exp.cuboid, exp.quad)
        l2 = math.sqrt(max(_gram_form(term_grams, delta), 0.0))
        rows.append(TableRow(n, m, rseed, res.rank, False, sup, l1, l2, res.residual,
                             *conditioning(res.singular_values, delta.size)))
    return ResultTable(rows, exp.hash, exp.seed)


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
    bt = None
    if theorem == "recovery":
        bt = beta_tilde(exp.phi, exp.kernel, exp.N, exp.p, exp.q, exp.cuboid,
                        seed=exp.seed, quad=exp.quad).value
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
    n = int(defaults.get("n", n))
    m = int(defaults.get("m", m))
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
        if bt is None:
            bt = beta_tilde(exp.phi, exp.kernel, exp.N, exp.p, exp.q, exp.cuboid,
                            seed=exp.seed, quad=exp.quad).value
        rep = reconstruction_report(params, gamma, float(bt), n, m)
    else:
        raise ConfigError(f"unknown selector {selector!r}")
    rep.flags.update(stability_certified=exp.stability_certified, decay_fitted=exp.decay_fitted)
    return rep

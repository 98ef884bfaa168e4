"""Independent checks of avgsamp outputs, computed with scipy.

Nothing here imports ``avgsamp.piecewise``: cardinal B-splines come from
``scipy.interpolate.BSpline.basis_element`` and a box convolution is a
difference of antiderivatives, ``(B * chi[a, c])(x) = Phi(x - a) - Phi(x - c)``.
Gram matrices are integrated with ``scipy.integrate.quad`` and the decay
series with ``scipy.special.zeta``.  Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.special import zeta
from scipy.stats import norm

#: Absolute tolerance, relative to max(1, |value|), for closed-form values.
VALUE_TOL = 1e-12
#: Relative tolerance for quadrature-derived constants and series.
CONST_RTOL = 1e-8
#: Error bound of a full-rank reconstruction.
RECOVERY_TOL = 1e-9
#: Cell counts may deviate from total * mass by this many binomial deviations, plus one.
CELL_SIGMAS = 6.0
#: A recovery trial whose oracle sample matrix has a condition number at most
#: this recovers the coefficients far within RECOVERY_TOL.
SURE_COND = 1e4
#: Rank threshold of ``reconstruction.solve``, relative to the largest column norm.
RANK_TOL = 1e-10
#: An inequality statistic this close to a bound, relative to it, may fall on either side.
BOUND_RTOL = 1e-9


def _bspline(degree: int) -> tuple[BSpline, np.ndarray]:
    """Centered cardinal B-spline of the given degree and its knots."""
    knots = np.arange(degree + 2) - (degree + 1) / 2.0
    return BSpline.basis_element(knots, extrapolate=False), knots


def _quad(fn, lo: float, hi: float, breaks) -> float:
    pts = np.unique(breaks[(breaks > lo) & (breaks < hi)])
    return quad(fn, lo, hi, points=pts, epsabs=1e-14, epsrel=1e-12, limit=400)[0]


class _ConvFactor:
    """One axis of the generator convolved with the kernel box: B_n(. - s) * chi[a, c]."""

    def __init__(self, degree: int, shift: float, a: float, c: float):
        self.knots = _bspline(degree)[1] + shift
        self.anti = BSpline.basis_element(self.knots, extrapolate=False).antiderivative()
        self.a, self.c = a, c
        self.breakpoints = np.concatenate([self.knots + a, self.knots + c])

    def _Phi(self, x):
        return self.anti(np.clip(x, self.knots[0], self.knots[-1]))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._Phi(x - self.a) - self._Phi(x - self.c)


def _gram(fn, breaks: np.ndarray, shifts, lo: float, hi: float) -> np.ndarray:
    """G[k, l] = integral over [lo, hi] of fn(x - k) fn(x - l)."""
    G = np.zeros((len(shifts), len(shifts)))
    for i, j in itertools.combinations_with_replacement(range(len(shifts)), 2):
        k, l = shifts[i], shifts[j]
        G[i, j] = G[j, i] = _quad(lambda x: fn(x - k) * fn(x - l), lo, hi,
                                  np.concatenate([breaks + k, breaks + l]))
    return G


class Oracle:
    """Closed forms of one JSON configuration, read from the raw config only."""

    def __init__(self, raw: dict):
        sp = raw["space"]
        self.p, self.q = float(sp["p"]), float(sp["q"])
        self.d, self.N = int(sp["d"]), int(sp["N"])
        self.half = [float(sp["K1"])] + [float(sp["K2"])] * self.d
        gens = raw["generators"]["bsplines"]
        if len(gens) != 1:
            raise ValueError("the oracle handles one generator")
        self.degree = int(gens[0]["degree"])
        shift = [float(s) for s in gens[0].get("shift", [0.0] * (self.d + 1))]
        self.kweight = float(raw["kernel"].get("weight", 1.0))
        self.box = [(float(a), float(c)) for a, c in raw["kernel"]["box"]]
        self.factors = [_ConvFactor(self.degree, s, a, c) for s, (a, c) in zip(shift, self.box)]
        self.decay = raw["generators"]["decay"]
        self.shifts = np.arange(-self.N, self.N + 1)
        self.signal = [([int(k) for k in t["k"]], float(t["weight"])) for t in raw["signal"]]
        dens = raw.get("density", {"kind": "uniform"})
        if dens.get("kind", "uniform") == "uniform":
            self.cell_edges = [np.array([-h, h]) for h in self.half]
            self.cell_mass = np.ones((1,) * (self.d + 1))
        else:
            self.cell_edges = [np.asarray(e, dtype=float) for e in dens["edges"]]
            self.cell_mass = np.asarray(dens["mass"], dtype=float)
        self._line_gram = self._beta = None

    # -- closed-form values -------------------------------------------------

    def sample_matrix(self, points) -> np.ndarray:
        """Entries (phi * psi)(x - k); columns run over k in lexicographic order."""
        pts = np.asarray(points, dtype=float)
        out = None
        for a, fac in enumerate(self.factors):
            vals = fac(pts[:, a, None] - self.shifts[None, :])
            out = vals if out is None else (out[:, :, None] * vals[:, None, :]).reshape(len(pts), -1)
        return self.kweight * out

    def signal_conv(self, points) -> np.ndarray:
        """(f * psi) at the points, f the configured signal."""
        pts = np.asarray(points, dtype=float)
        total = np.zeros(len(pts))
        for k, w in self.signal:
            vals = np.full(len(pts), w * self.kweight)
            for a, fac in enumerate(self.factors):
                vals *= fac(pts[:, a] - k[a])
            total += vals
        return total

    @property
    def kernel_l11(self) -> float:
        return abs(self.kweight) * math.prod(c - a for a, c in self.box)

    def line_gram(self) -> np.ndarray:
        """G[k, l] = integral over R of B_n(x - k) B_n(x - l), k, l in -N..N."""
        if self._line_gram is None:
            bs, knots = _bspline(self.degree)
            fn = lambda x: np.nan_to_num(bs(x))  # noqa: E731  (nan outside the support)
            self._line_gram = _gram(fn, knots, self.shifts, knots[0] - self.N, knots[-1] + self.N)
        return self._line_gram

    def signal_norm(self) -> float:
        """||f|| over R^(d+1) for p = q = 2, from the 1-D Gram: sum of w_i w_j prod_a G[k_i, k_j]."""
        if not (self.p == 2.0 and self.q == 2.0):
            raise ValueError("the signal-norm oracle covers p = q = 2")
        G = self.line_gram()
        total = 0.0
        for ki, wi in self.signal:
            for kj, wj in self.signal:
                total += wi * wj * math.prod(G[a + self.N, b + self.N] for a, b in zip(ki, kj))
        return math.sqrt(total)

    # -- constants ------------------------------------------------------------

    def riesz_bounds(self) -> tuple[float, float]:
        """Exact p = q = 2 bounds of ||f|| / ||c|| over the (2N+1)^(d+1) shifts.

        The Gram matrix of the tensor generator's shifts over R^(d+1) is the
        Kronecker power of the 1-D Gram of B_n's shifts over the line, so its
        extreme eigenvalues are powers of the 1-D ones.
        """
        ev = np.linalg.eigvalsh(self.line_gram())
        e = (self.d + 1) / 2.0
        return ev[0] ** e, ev[-1] ** e

    def beta_tilde(self) -> float:
        """sqrt(lambda_min) of the Gram of the shifted convolved generator on the cuboid."""
        if self._beta is None:
            lam = self.kweight ** 2
            for fac, h in zip(self.factors, self.half):
                lam *= np.linalg.eigvalsh(_gram(fac, fac.breakpoints, self.shifts, -h, h))[0]
            self._beta = math.sqrt(lam)
        return self._beta

    @staticmethod
    def decay_series(exponent: float, dim: int) -> float:
        """Sum over Z^dim of (1 + |k|_max)^-exponent from zeta values (dim 1 or 2).

        dim 1 gives 2 zeta(e) - 1.  In dim 2 the shell |k| = s holds 8 s
        points, so the sum is 1 + 8 (zeta(e - 1) - zeta(e)).
        """
        if dim == 1:
            return float(2.0 * zeta(exponent) - 1.0)
        if dim == 2:
            return float(1.0 + 8.0 * (zeta(exponent - 1.0) - zeta(exponent)))
        raise ValueError("the decay-series oracle covers dim 1 and 2")

    def c_star(self, decay_c: float, alpha1: float) -> float:
        p, q = self.p, self.q
        s1, s2 = float(self.decay["s1"]), float(self.decay["s2"])
        S1 = self.decay_series(s1 * p / (p - 1.0), 1)
        S2 = self.decay_series(s2 * q / (q - 1.0), self.d)
        pref = 4.0 * decay_c / (2.0 ** ((p + q) / (p * q)) * alpha1)
        return pref * S1 ** ((p - 1.0) / p) * S2 ** ((q - 1.0) / q)


def _close(a: float, b: float, rtol: float = CONST_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- per-operation checks ------------------------------------------------------


def check_setup(exp, oracle: Oracle) -> tuple[list[str], list[str]]:
    """(failures, riesz_failures) for one load_config result."""
    fails = []
    if not _close(exp.kernel.l11_norm, oracle.kernel_l11, 1e-12):
        fails.append(f"kernel L11 norm {exp.kernel.l11_norm!r} != {oracle.kernel_l11!r}")
    riesz = []
    if exp.p == 2.0 and exp.q == 2.0:
        lo, hi = oracle.riesz_bounds()
        if exp.phi.alpha1 > lo * (1.0 + 1e-9):
            riesz.append(f"alpha1 {exp.phi.alpha1:.6g} exceeds the exact Riesz bound {lo:.6g}")
        if exp.phi.alpha2 < hi * (1.0 - 1e-9):
            riesz.append(f"alpha2 {exp.phi.alpha2:.6g} is below the exact Riesz bound {hi:.6g}")
    return fails, riesz


def check_table_row(row, columns: int) -> list[str]:
    if row.rank_deficient:
        return [] if row.rank < columns else [f"row {row.n}x{row.m}: deficient with rank {row.rank}"]
    fails = []
    if row.rank != columns:
        fails.append(f"row {row.n}x{row.m}: rank {row.rank} != {columns} columns")
    for name in ("sup_error", "l1_error", "l2_error"):
        v = getattr(row, name)
        if not v <= RECOVERY_TOL:
            fails.append(f"row {row.n}x{row.m}: {name} {v!r} > {RECOVERY_TOL}")
    return fails


def check_draw(points, conv_values, matrix, oracle: Oracle, label: str) -> list[str]:
    """f * psi values and, when given, sample-matrix entries at drawn points."""
    fails = []
    ref = oracle.signal_conv(points)
    err = np.max(np.abs(np.asarray(conv_values) - ref)) if len(ref) else 0.0
    if err > VALUE_TOL * max(1.0, float(np.max(np.abs(ref)))):
        fails.append(f"{label}: f*psi differs from the scipy oracle by {err:.3g}")
    if matrix is not None:
        ref = oracle.sample_matrix(points)
        if matrix.shape != ref.shape:
            return fails + [f"{label}: sample matrix shape {matrix.shape} != {ref.shape}"]
        err = np.max(np.abs(matrix - ref))
        if err > VALUE_TOL * max(1.0, float(np.max(np.abs(ref)))):
            fails.append(f"{label}: sample-matrix entries differ from the oracle by {err:.3g}")
    return fails


def check_cells(points, oracle: Oracle, label: str) -> list[str]:
    """Drawn points lie in the cuboid and fall into density cells in proportion to their masses.

    The bound is CELL_SIGMAS binomial standard deviations plus one point.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    outside = sum(int(np.sum((pts[:, a] < e[0]) | (pts[:, a] > e[-1])))
                  for a, e in enumerate(oracle.cell_edges))
    if outside:
        return [f"{label}: {outside} drawn coordinates lie outside the cuboid"]
    # a point on the upper face belongs to the last cell
    idx = tuple(np.minimum(np.searchsorted(e, pts[:, a], side="right") - 1, len(e) - 2)
                for a, e in enumerate(oracle.cell_edges))
    counts = np.zeros(oracle.cell_mass.shape)
    np.add.at(counts, idx, 1.0)
    expect = len(pts) * oracle.cell_mass
    bound = CELL_SIGMAS * np.sqrt(expect * (1.0 - oracle.cell_mass)) + 1.0
    worst = float(np.max(np.abs(counts - expect) - bound))
    return [] if worst <= 0 else [f"{label}: cell counts exceed the binomial bound by {worst:.3g}"]


def _lpq(values: np.ndarray, p: float, q: float) -> np.ndarray:
    """l^{p,q} norms of a stack of (n, m) arrays: outer axis p, inner axis q."""
    inner = np.sum(np.abs(values) ** q, axis=-1)
    return np.sum(inner ** (p / q), axis=-1) ** (1.0 / p)


def trial_outcomes(rec, points: list, oracle: Oracle, factors=None) -> tuple[int, int]:
    """(sure successes, undecided) of a sweep record's trials, recomputed by the oracle.

    ``points`` holds each trial's drawn points in trial order.  A recovery
    trial is a sure success when the oracle's sample matrix has a condition
    number at most SURE_COND, and a sure failure when it has fewer rows than
    columns or its smallest singular value is below half of ``solve``'s rank
    threshold.  An omega or mu trial tests ``lower ||f|| <= stat <= upper
    ||f||`` with ``factors`` = (lower, upper); it is undecided when the
    statistic lies within BOUND_RTOL of a bound.
    """
    n, m, trials = rec["n"], rec["m"], len(points)
    pts = np.concatenate(points)
    if rec["theorem"] == "recovery":
        A = oracle.sample_matrix(pts).reshape(trials, n * m, -1)
        if A.shape[1] < A.shape[2]:
            return 0, 0
        sv = np.linalg.svd(A, compute_uv=False)
        threshold = RANK_TOL * np.linalg.norm(A, axis=1).max(axis=1)
        sure = sv[:, -1] >= sv[:, 0] / SURE_COND
        failed = sv[:, -1] < 0.5 * threshold
        return int(np.sum(sure)), int(np.sum(~sure & ~failed))
    if rec["theorem"] == "omega":
        stat = _lpq(oracle.signal_conv(pts).reshape(trials, n, m), oracle.p, oracle.q)
    else:
        stat = np.sum(np.abs(oracle.signal_conv(pts)).reshape(trials, -1), axis=1)
    fnorm = oracle.signal_norm()
    lower, upper = factors[0] * fnorm, factors[1] * fnorm
    near = ((np.abs(stat - lower) <= BOUND_RTOL * abs(lower))
            | (np.abs(stat - upper) <= BOUND_RTOL * abs(upper)))
    inside = (stat >= lower) & (stat <= upper)
    return int(np.sum(inside & ~near)), int(np.sum(near))


def wilson(successes: int, trials: int) -> tuple[float, float]:
    z = norm.ppf(0.975)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials ** 2)) / denom
    return center - half, center + half


def check_probability(raw, clamped, label: str) -> list[str]:
    raw = float(raw)  # sweep records carry non-finite values as their repr
    want = min(max(raw, 0.0), 1.0)
    return [] if clamped == want else [f"{label}: clamped probability {clamped!r} != clip({raw!r})"]


def check_sweep(records, outcomes) -> list[list[str]]:
    """Per-record failures of one probability_sweep result.

    ``outcomes`` holds each record's (sure successes, undecided) from
    ``trial_outcomes``; the record's success count must lie between the
    sure successes and the sure successes plus the undecided trials.
    """
    out = []
    for rec, (sure, undecided) in zip(records, outcomes):
        label = f"{rec['theorem']} {rec['n']}x{rec['m']}"
        fails = check_probability(rec["probability_raw"], rec["probability"], label)
        frac, trials = rec["fraction"], rec["trials"]
        successes = round(frac * trials)
        if abs(successes / trials - frac) > 1e-12:
            fails.append(f"{label}: fraction {frac!r} is not a count over {trials}")
        if not sure <= successes <= sure + undecided:
            fails.append(f"{label}: {successes} successes, the oracle's trials give {sure}"
                         + (f" to {sure + undecided}" if undecided else ""))
        lo, hi = wilson(successes, trials)
        if not (rec["wilson_low"] <= frac <= rec["wilson_high"]):
            fails.append(f"{label}: fraction {frac} outside its own interval")
        if not (abs(rec["wilson_low"] - max(0.0, min(lo, frac))) < 1e-12
                and abs(rec["wilson_high"] - min(1.0, max(hi, frac))) < 1e-12):
            fails.append(f"{label}: Wilson interval differs from the scipy one ({lo:.6g}, {hi:.6g})")
        out.append(fails)
    sizes = [r["n"] * r["m"] for r in records]
    small, large = int(np.argmin(sizes)), int(np.argmax(sizes))
    if records[large]["fraction"] < records[small]["fraction"]:
        out[large].append(f"fraction at the largest size {records[large]['fraction']} is below "
                          f"the fraction at the smallest {records[small]['fraction']}")
    return out


def check_report(rep, oracle: Oracle) -> list[str]:
    """One constants_report result: clamping, the c* series and, for p = q = 2, beta_tilde."""
    c = rep.constants
    fails = check_probability(c["probability_raw"], c["probability"], rep.kind)
    want = oracle.c_star(rep.params.decay_c, rep.params.alpha1)
    if not _close(c["c_star"], want):
        fails.append(f"{rep.kind}: c_star {c['c_star']!r} != zeta-series value {want!r}")
    if rep.kind == "reconstruction" and oracle.p == 2.0 and oracle.q == 2.0:
        want = oracle.beta_tilde()
        if not _close(c["beta_tilde"], want):
            fails.append(f"beta_tilde {c['beta_tilde']!r} != Kronecker-Gram value {want!r}")
    return fails

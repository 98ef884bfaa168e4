"""Sample-matrix assembly, least-squares recovery and dual functions.

The sampling map restricted to the finite shift range is a dense matrix
whose (row, column) entry is the convolved generator, shifted by the
column's lattice offset, evaluated at the row's sample location.  Exact
recovery on the finite subspace goes through the minimum-norm
pseudo-inverse of that matrix; the same pseudo-inverse realizes the dual
functions of the reconstruction formula.  Rank-deficient draws raise (or
are recorded as failures in trial loops), never silently retried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import SpaceParams, mu_class_report, omega_class_report
from .mixed_space import (
    DEFAULT_QUAD,
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    TensorFunction,
    estimate_stability,
    lpq_norm,
    mixed_norm,
    synthesize,
)
from .quadrature import QuadratureSpec
from .sampling import AveragingKernel, Density, SampleSet, abs_integral, convolve, draw_samples


#: Numerical rank threshold, relative to a matrix's largest column norm.
RANK_TOL = 1e-10

#: Largest coefficient error a recovery trial may leave and still succeed.
RECOVERY_TOL = 1e-9


class RankDeficientError(ValueError):
    """Sample matrix is numerically rank deficient; carries the observed rank
    and the singular values of the thin SVD that found it."""

    def __init__(self, rank: int, columns: int, singular_values: np.ndarray):
        super().__init__(f"sample matrix has numerical rank {rank} < {columns} columns")
        self.rank = rank
        self.columns = columns
        self.singular_values = singular_values


def conditioning(singular_values: np.ndarray, columns: int) -> tuple[float, float]:
    """(sigma_min, condition_number) of a matrix with the given column count.

    sigma_min is the columns-th singular value, zero when there are fewer
    rows than columns; the condition number is infinite when it is zero.
    """
    smin = float(singular_values[columns - 1]) if len(singular_values) >= columns else 0.0
    return smin, float(singular_values[0]) / smin if smin > 0.0 else math.inf


@dataclass
class SampleMatrix:
    """Dense sampling matrix with the provenance that built it.

    entries[row, col] = (phi_i * psi)(x_j - k1, y_k - k2) with
    row = (j, k) in row-major order and col = (i, k1, k2) with the shift
    multi-index in lexicographic order.
    """

    entries: np.ndarray
    phi: GeneratorSet
    kernel: AveragingKernel
    samples: SampleSet
    N: int
    convolved: tuple[TensorFunction, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def column_labels(self) -> list[str]:
        grid = CoefficientGrid.zeros(self.phi.r, self.N, self.phi.d)
        return [f"g{i}_" + "_".join(str(v) for v in k)
                for i in range(self.phi.r) for k in grid.shifts()]

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Rows are sample pairs (j, k); one column per basis shift."""
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["j", "k"] + self.column_labels())
            for j in range(self.samples.n):
                for k in range(self.samples.m):
                    row = self.entries[j * self.samples.m + k]
                    writer.writerow([j + 1, k + 1] + [repr(float(v)) for v in row])


def _shifted_values(f: TensorFunction, points: np.ndarray, N: int) -> np.ndarray:
    """Values of f(. - k) for every lattice shift |k| <= N; shape (P, (2N+1)^ndim)."""
    offsets = np.arange(-N, N + 1, dtype=float)
    block = None
    for a in range(f.ndim):
        axis_vals = np.zeros((points.shape[0], len(offsets), len(f.terms)))
        for t, (w, fs) in enumerate(f.terms):
            axis_vals[:, :, t] = fs[a](points[:, a, None] - offsets[None, :])
        if block is None:
            weights = np.array([w for w, _ in f.terms])
            block = axis_vals * weights[None, None, :]
        else:
            block = block[:, :, None, :] * axis_vals[:, None, :, :]
            block = block.reshape(points.shape[0], -1, len(f.terms))
    return block.sum(axis=2)


def _sample_entries(convolved, points: np.ndarray, N: int) -> np.ndarray:
    """Sampling-matrix entries from already convolved generators, one column block each."""
    return np.concatenate([_shifted_values(conv, points, N) for conv in convolved], axis=1)


def build_sample_matrix(phi: GeneratorSet, kernel: AveragingKernel,
                        samples: SampleSet, N: int) -> SampleMatrix:
    """Assemble the sampling matrix from the closed-form convolved generators."""
    convolved = tuple(convolve(g, kernel) for g in phi.generators)
    entries = _sample_entries(convolved, samples.points, N)
    return SampleMatrix(entries, phi, kernel, samples, N, convolved)


def _full_rank_svd(entries: np.ndarray):
    """Thin SVD (U, sv, Vt) and numerical rank of one matrix or a stack of them.

    The rank counts singular values above RANK_TOL times the matrix's
    largest column norm.  A single matrix below full column rank raises
    RankDeficientError; for a stack the caller reads each matrix's rank.
    """
    U, sv, Vt = np.linalg.svd(entries, full_matrices=False)
    tol = RANK_TOL * np.maximum(np.linalg.norm(entries, axis=-2).max(axis=-1), 1e-300)
    rank = np.sum(sv > tol[..., None], axis=-1)
    if entries.ndim == 2 and rank < entries.shape[1]:
        raise RankDeficientError(int(rank), entries.shape[1], sv)
    return U, sv, Vt, rank


def _min_norm_solution(U: np.ndarray, sv: np.ndarray, Vt: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution from a full-rank thin SVD."""
    return Vt.T @ ((U.T @ b) / sv)


@dataclass
class LstsqResult:
    """Minimum-norm least-squares solution with rank and residual diagnostics."""

    grid: CoefficientGrid
    residual: float
    rank: int
    singular_values: np.ndarray


def solve(S: SampleMatrix, samples_vec) -> LstsqResult:
    """Minimum-norm least squares through a rank-revealing SVD.

    A numerical rank (see RANK_TOL) below the column count raises
    RankDeficientError (the reconstruction identity is not guaranteed
    there).
    """
    b = np.asarray(samples_vec, dtype=float).ravel()
    rows = S.entries.shape[0]
    if b.shape[0] != rows:
        raise ValueError(f"sample vector length {b.shape[0]} != row count {rows}")
    U, sv, Vt, _ = _full_rank_svd(S.entries)
    x = _min_norm_solution(U, sv, Vt, b)
    residual = float(np.linalg.norm(S.entries @ x - b))
    grid = CoefficientGrid.from_flat(x, S.phi.r, S.N, S.phi.d)
    return LstsqResult(grid, residual, len(sv), sv)


@dataclass
class DualFamily:
    """Dual functions realized through the minimum-norm pseudo-inverse.

    pinv maps sample values to coefficients; the dual function for sample
    (j, k) synthesizes the corresponding pseudo-inverse column against the
    generators, and applying the family to the samples of any function in
    the finite subspace reproduces it exactly in the full-rank regime.
    """

    pinv: np.ndarray  # (columns, n*m)
    phi: GeneratorSet
    N: int
    n: int
    m: int

    def coefficients(self, sample_values) -> CoefficientGrid:
        vals = np.asarray(sample_values, dtype=float).ravel()
        return CoefficientGrid.from_flat(self.pinv @ vals, self.phi.r, self.N, self.phi.d)

    def reconstruct(self, sample_values) -> TensorFunction:
        return synthesize(self.phi, self.coefficients(sample_values))

    def function(self, j: int, k: int) -> TensorFunction:
        """Dual function for the 1-based sample index (j, k)."""
        row = (j - 1) * self.m + (k - 1)
        grid = CoefficientGrid.from_flat(self.pinv[:, row], self.phi.r, self.N, self.phi.d)
        return synthesize(self.phi, grid)


def dual_family(S: SampleMatrix) -> DualFamily:
    """Pseudo-inverse dual family; requires numerically full column rank."""
    U, sv, Vt, _ = _full_rank_svd(S.entries)
    pinv = Vt.T @ np.diag(1.0 / sv) @ U.T
    return DualFamily(pinv, S.phi, S.N, S.samples.n, S.samples.m)


@dataclass
class BetaTildeEstimate:
    """Lower-bound constant of the convolved synthesis system on the cuboid.

    certified means the value is the square root of the smallest Gram
    eigenvalue (p = q = 2, exact up to quadrature) divided by sqrt(r), which
    holds against the block-summed l^{2,2} norm
    CoefficientGrid.seq_mixed_norm (see estimate_stability); for r = 1 it
    is exact.  Uncertified values (the random search for other exponents)
    are upper estimates and must not be used in certified bounds.
    """

    value: float
    certified: bool
    method: str


def beta_tilde(phi: GeneratorSet, kernel: AveragingKernel, N: int, p: float, q: float,
               region: Cuboid, trials: int = 100, seed: int = 0,
               quad: QuadratureSpec = DEFAULT_QUAD) -> BetaTildeEstimate:
    """Smallest ratio ||sum c (phi*psi)(.-k)||_{L^{p,q}(region)} / ||c||_{l^{p,q}}.

    The lower stability constant of the convolved generators on the region
    (see estimate_stability): for p = q = 2 the square root of the smallest
    Gram eigenvalue divided by sqrt(r), otherwise a random-search upper
    estimate of the true constant.
    """
    convolved = [convolve(g, kernel) for g in phi.generators]
    value = estimate_stability(convolved, p, q, N, trials, seed, quad, region)[0]
    if p == 2.0 and q == 2.0:
        return BetaTildeEstimate(value, True, "gram_eigenvalue")
    return BetaTildeEstimate(value, False, "random_search_upper_estimate")


@dataclass
class MembershipResult:
    member: bool
    slacks: dict


def membership(phi: GeneratorSet, kernel: AveragingKernel, c: CoefficientGrid,
               signal_class: str, region: Cuboid, p: float, q: float, *,
               omega: float | None = None, mu: float | None = None,
               delta: float | None = None,
               quad: QuadratureSpec = DEFAULT_QUAD) -> MembershipResult:
    """Evaluate the defining inequalities of one signal class for f given by c.

    signal_class:
      "min_conv_norm"      requires ||f*psi||_{L^{p,q}(C_K)} >= omega;
      "avg_conv_mass"      requires mu ||psi||_1 ||f|| <= int_{C_K} |f*psi|;
      "energy_concentrated" requires both concentration of f on the cuboid
                            and the matching conv-norm lower bound (level delta).
    Returns the boolean plus the slack of every inequality involved.
    """
    f = synthesize(phi, c)
    conv = convolve(f, kernel)
    global_norm = mixed_norm(f, p, q, quad=quad)
    if signal_class == "min_conv_norm":
        if omega is None or omega <= 0:
            raise ValueError("min_conv_norm requires omega > 0")
        lhs = mixed_norm(conv, p, q, region, quad)
        slack = lhs - omega
        return MembershipResult(slack >= 0.0, {"conv_norm_margin": slack})
    if signal_class == "avg_conv_mass":
        if mu is None or not 0.0 < mu <= 1.0:
            raise ValueError("avg_conv_mass requires mu in (0, 1]")
        lhs = abs_integral(conv, region, quad)
        slack = lhs - mu * kernel.l11_norm * global_norm
        return MembershipResult(slack >= 0.0, {"avg_mass_margin": slack})
    if signal_class == "energy_concentrated":
        if delta is None or not 0.0 < delta < 1.0:
            raise ValueError("energy_concentrated requires delta in (0, 1)")
        s1 = mixed_norm(f, p, q, region, quad) - (1.0 - delta) * global_norm
        s2 = (mixed_norm(conv, p, q, region, quad)
              - (1.0 - delta) * kernel.l11_norm * global_norm)
        return MembershipResult(s1 >= 0.0 and s2 >= 0.0,
                                {"concentration_margin": s1, "conv_norm_margin": s2})
    raise ValueError(f"unknown signal class {signal_class!r}")


# -- Monte Carlo success estimation ----------------------------------------

#: Byte budget for the sample points and stacked sample matrices of one
#: batch of Monte Carlo trials.
TRIAL_BATCH_BYTES = 64 * 1024


@dataclass
class TrialSpec:
    """One repeatable draw->sample->test experiment.

    kind: "recovery" tests exact coefficient recovery, to RECOVERY_TOL;
    "omega_inequality" and "mu_inequality" test the two-sided sampling
    inequalities with the matching theorem constants (or explicit
    bound_override = (lower, upper) factors applied to ||f||).
    """

    kind: str
    phi: GeneratorSet
    kernel: AveragingKernel
    rho: Density
    coeffs: CoefficientGrid
    N: int
    n: int
    m: int
    p: float = 2.0
    q: float = 2.0
    mode: str = "joint"
    gamma: float | None = None
    omega: float | None = None
    mu: float | None = None
    eta: float | None = None
    params: SpaceParams | None = None
    bound_override: tuple | None = None


@dataclass
class TrialRecord:
    """Outcome of one trial; recovery trials also carry the sample matrix's
    smallest singular value and condition number (None for inequality trials)."""

    trial: int
    seed: int
    success: bool
    rank: int
    rank_deficient: bool
    error: float
    sigma_min: float | None = None
    condition_number: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "trial": self.trial, "seed": self.seed, "success": self.success,
            "rank": self.rank, "rank_deficient": self.rank_deficient,
            "error": _finite_or_repr(self.error),
            "sigma_min": _finite_or_repr(self.sigma_min),
            "condition_number": _finite_or_repr(self.condition_number),
        }, sort_keys=True)


def _finite_or_repr(v: float | None):
    return v if v is None or math.isfinite(v) else repr(v)


@dataclass
class SuccessSummary:
    trials: int
    successes: int
    fraction: float
    wilson_low: float
    wilson_high: float
    records: list[TrialRecord] = field(repr=False, default_factory=list)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # the interval always contains the point estimate, despite rounding
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


def _batch_size(spec: TrialSpec) -> int:
    """Trials per batch: the batch's sample points and its stacked sample
    matrices (sample values for the inequality kinds) fit TRIAL_BATCH_BYTES."""
    width = spec.phi.ndim + (spec.coeffs.size if spec.kind == "recovery" else 1)
    return max(1, TRIAL_BATCH_BYTES // (8 * spec.n * spec.m * width))


def empirical_success(spec: TrialSpec, trials: int, seed: int,
                      jsonl_path=None) -> SuccessSummary:
    """Repeat the trial, report the success fraction with its Wilson interval.

    Rank-deficient draws count as failures and are recorded as such, so
    the empirical probabilities stay honest.  Per-trial seeds derive from
    the master seed; identical inputs reproduce identical records.  Each
    trial draws its own samples; the draws of a batch of trials are then
    evaluated together and their sample matrices decomposed by one stacked
    SVD, so memory stays bounded by TRIAL_BATCH_BYTES whatever `trials` is.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    f = synthesize(spec.phi, spec.coeffs)
    conv = convolve(f, spec.kernel)

    lower = upper = fnorm = None
    if spec.kind in ("omega_inequality", "mu_inequality"):
        fnorm = mixed_norm(f, spec.p, spec.q)
        if spec.bound_override is not None:
            lower, upper = spec.bound_override
        elif spec.kind == "omega_inequality":
            rep = omega_class_report(spec.params, spec.gamma, spec.omega, spec.n, spec.m)
            lower, upper = rep["A_gamma_omega"], rep["B_gamma_omega"]
        else:
            rep = mu_class_report(spec.params, spec.mu, spec.eta, spec.n, spec.m)
            lower, upper = rep["lower_constant"], rep["upper_constant"]
    elif spec.kind != "recovery":
        raise ValueError(f"unknown trial kind {spec.kind!r}")

    recovery = spec.kind == "recovery"
    rows, cols = spec.n * spec.m, spec.coeffs.size
    if recovery:
        convolved = tuple(convolve(g, spec.kernel) for g in spec.phi.generators)
        target = spec.coeffs.flatten()
    batch = _batch_size(spec)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    records: list[TrialRecord] = []
    for start in range(0, trials, batch):
        seeds = [int(s) for s in trial_seeds[start:start + batch]]
        points = np.concatenate([draw_samples(spec.rho, spec.n, spec.m, s, spec.mode).points
                                 for s in seeds])
        values = conv.evaluate(points).reshape(len(seeds), rows)
        if recovery:
            stack = _sample_entries(convolved, points, spec.N).reshape(len(seeds), rows, cols)
            U, sv, Vt, ranks = _full_rank_svd(stack)
        for b, tseed in enumerate(seeds):
            t = start + b
            if not recovery:
                vals = values[b].reshape(spec.n, spec.m)
                if spec.kind == "omega_inequality":
                    stat = lpq_norm(vals, spec.p, spec.q)
                else:
                    stat = float(np.sum(np.abs(vals)))
                ok = lower * fnorm <= stat <= upper * fnorm
                records.append(TrialRecord(t, tseed, bool(ok), min(rows, cols), False, 0.0))
                continue
            smin, cond = conditioning(sv[b], cols)
            rank = int(ranks[b])
            if rank < cols:
                records.append(TrialRecord(t, tseed, False, rank, True, math.inf, smin, cond))
                continue
            x = _min_norm_solution(U[b], sv[b], Vt[b], values[b])
            err = float(np.max(np.abs(x - target)))
            records.append(TrialRecord(t, tseed, err <= RECOVERY_TOL, cols, False, err,
                                       smin, cond))

    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")

    successes = sum(rec.success for rec in records)
    lo, hi = wilson_interval(successes, trials)
    return SuccessSummary(trials, successes, successes / trials, lo, hi, records)

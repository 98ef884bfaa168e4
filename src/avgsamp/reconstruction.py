"""Sample-matrix assembly, least-squares recovery and dual functions.

The sampling map restricted to the finite shift range is a matrix whose
(row, column) entry is the convolved generator, shifted by the column's
lattice offset, evaluated at the row's sample location.  Exact recovery
on the finite subspace goes through the minimum-norm pseudo-inverse of
that matrix; the same pseudo-inverse realizes the dual functions of the
reconstruction formula.  A separable draw of one one-term generator gives
a Kronecker product of per-axis matrices, whose pseudo-inverse is the
product of theirs, so the full matrix is neither formed nor decomposed
there.  Rank-deficient draws raise (or are recorded as failures in trial
loops), never silently retried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bounds import _jsonable
from .mixed_space import (
    DEFAULT_QUAD,
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    TensorFunction,
    _axis_values,
    _refuse_dense_samples,
    _shifted_values,
    estimate_stability,
    lpq_norm,
    mixed_norm,
)
from .quadrature import QuadratureSpec
from .sampling import AveragingKernel, Density, SampleSet, abs_integral, convolve, draw_samples


#: Numerical rank threshold, relative to a matrix's largest column norm.
RANK_TOL = 1e-10

#: Largest coefficient error a recovery trial may leave and still succeed.
RECOVERY_TOL = 1e-9


@dataclass(frozen=True)
class Diagnostics:
    """A draw's sample matrix: numerical rank (RANK_TOL), columns, columns-th singular value (0 with
    fewer rows) and condition number (inf then).  rank_deficient is the package's one rank decision;
    str() is the message of a rank-deficient record, the only kind that is printed."""

    rank: int
    columns: int
    sigma_min: float
    condition_number: float

    @classmethod
    def of(cls, sv: np.ndarray, rank, columns: int) -> "Diagnostics":
        smin = float(sv[columns - 1]) if len(sv) >= columns else 0.0
        return cls(int(rank), columns, smin, float(sv[0]) / smin if smin > 0.0 else math.inf)

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.columns

    def __str__(self) -> str:
        return f"sample matrix has numerical rank {self.rank} < {self.columns} columns"


class RankDeficientError(ValueError):
    """Sample matrix is numerically rank deficient; carries the Diagnostics that found it."""

    def __init__(self, diagnostics: Diagnostics):
        super().__init__(str(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SampleMatrix:
    """Sampling matrix S with the provenance that built it.

    entries[row, col] = (phi_i * psi)(x_j - k1, y_k - k2) with
    row = (j, k) in row-major order and col = (i, k1, k2) with the shift
    multi-index in lexicographic order.

    factors is S's one stored form, the per-mode matrices whose Kronecker
    product is S: (A_x, B_y) for a separable draw of one generator of one
    tensor term w g_0(x) prod_a g_a(y_a), (entries,) otherwise.
    A_x[j, k1] = w g_0(x_j - k1) at the n distinct x's, and B_y, at the m
    distinct y's, is the row-wise Khatri-Rao product of the g_a(y_a - k2_a).
    S @ x and shape come from the factors; entries is derived from them
    (see there).  Another matrix is dataclasses.replace(S, factors=(X,)).
    """

    factors: tuple
    phi: GeneratorSet
    kernel: AveragingKernel
    samples: SampleSet
    N: int

    @property
    def entries(self) -> np.ndarray:
        """The dense S: the one factor itself, or kron(A_x, B_y) of a pair, formed on each
        read (never kept) and refused above SAMPLE_BYTES before allocation."""
        if len(self.factors) == 1:
            return self.factors[0]
        A, B = self.factors
        _refuse_dense_samples(A.shape[0], B.shape[0], A.shape[1] * B.shape[1])
        return np.kron(A, B)

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(math.prod(n) for n in zip(*(F.shape for F in self.factors)))

    def __matmul__(self, x) -> np.ndarray:
        """S x: vec(A_x X B_y^T) for a factor pair, X being x as an (A_x columns) x (B_y columns)
        array; entries @ x otherwise."""
        if len(self.factors) == 1:
            return self.factors[0] @ x
        A, B = self.factors
        return (A @ np.reshape(x, (A.shape[1], B.shape[1])) @ B.T).ravel()


def build_sample_matrix(phi: GeneratorSet, kernel: AveragingKernel,
                        samples: SampleSet, N: int) -> SampleMatrix:
    """Assemble the sampling matrix from the closed-form convolved generators."""
    return _sample_matrix(phi, kernel, [convolve(g, kernel) for g in phi.generators], samples, N)


def _sample_matrix(phi: GeneratorSet, kernel: AveragingKernel, convolved,
                   samples: SampleSet, N: int) -> SampleMatrix:
    """build_sample_matrix from generators already convolved with the kernel: _kron_factors'
    pair, else the dense S at every sample point, refused above SAMPLE_BYTES beforehand."""
    offsets = np.arange(-N, N + 1, dtype=float)
    factors = _kron_factors(convolved, samples, offsets)
    if not factors:
        ndim = convolved[0].ndim
        _refuse_dense_samples(samples.n, samples.m, len(convolved) * len(offsets) ** ndim)
        factors = (_shifted_values(convolved, samples.points, [offsets] * ndim),)
    return SampleMatrix(factors, phi, kernel, samples, N)


def _has_kron_factors(mode: str, funcs) -> bool:
    """Whether a draw in this mode of these generators has a Kronecker factor pair: a separable
    draw of one one-term generator."""
    return mode == "separable" and len(funcs) == 1 and len(funcs[0].terms) == 1


def _kron_factors(convolved, samples: SampleSet, offsets: np.ndarray) -> tuple:
    """SampleMatrix.factors: (A_x, B_y) of a draw with _has_kron_factors, else ()."""
    if not _has_kron_factors(samples.mode, convolved):
        return ()
    (f,), ((_, fs),) = convolved, convolved[0].terms
    A = _axis_values(f, samples.points[::samples.m], 0, offsets)[:, :, 0]
    B = _shifted_values((TensorFunction.separable(fs[1:]),), samples.points[:samples.m, 1:],
                        [offsets] * (f.ndim - 1))
    return A, B


def _factored_svd(factors) -> tuple[list, np.ndarray, np.ndarray]:
    """The one SVD step: thin SVDs of the factors of S, S's singular values and numerical rank.

    S is the Kronecker product of the factors; each factor may carry the
    same leading stack axes, one S per index.  svds holds each factor's
    thin SVD (U, sv, Vt).  S's singular values are the products of the
    factors' ones, sorted descending and padded with exact zeros to S's
    min(rows, cols).  The rank counts those above RANK_TOL times S's largest
    column norm, the product of the factors' largest ones.  Nothing raises
    here: callers read Diagnostics.of(sv, rank, columns).rank_deficient.
    """
    svds = [np.linalg.svd(F, full_matrices=False) for F in factors]
    rows, cols = math.prod(F.shape[-2] for F in factors), math.prod(F.shape[-1] for F in factors)
    products = reduce(lambda a, b: (a[..., :, None] * b[..., None, :]).reshape(*b.shape[:-1], -1),
                      [s for _, s, _ in svds])
    sv = np.zeros(products.shape[:-1] + (min(rows, cols),))
    sv[..., :products.shape[-1]] = np.sort(products, axis=-1)[..., ::-1]
    colnorm = math.prod(np.linalg.norm(F, axis=-2).max(axis=-1) for F in factors)
    return svds, sv, np.sum(sv > RANK_TOL * np.maximum(colnorm, 1e-300)[..., None], axis=-1)


def _apply_pinv(svds, sample_values) -> np.ndarray:
    """Minimum-norm least squares: S's pseudo-inverse applied to the sample values, from the
    full-rank thin SVDs (U, sv, Vt) of S's Kronecker factors; each pass solves along the
    leading mode of the sample array and rotates it to the back."""
    x = np.asarray(sample_values, dtype=float).ravel()
    for U, sv, Vt in svds:
        b = x if len(svds) == 1 else x.reshape(len(U), -1)
        x = (Vt.T @ ((U.T @ b) / (sv if b.ndim == 1 else sv[:, None]))).T
    return x.ravel()


@dataclass
class LstsqResult:
    """Minimum-norm least-squares solution with its residual and S's Diagnostics."""

    grid: CoefficientGrid
    residual: float
    diagnostics: Diagnostics


def solve(S: SampleMatrix, samples_vec) -> LstsqResult:
    """Minimum-norm least squares: the dual family's coefficients of the samples.

    The pseudo-inverse comes from the thin SVDs of S.factors (see
    dual_family), so a separable draw of a one-term generator never takes
    the SVD of S itself.  A numerical rank (see RANK_TOL) below the column
    count raises RankDeficientError (the reconstruction identity is not
    guaranteed there).  The residual |S c - b| takes S @ c, so a factor
    pair is never expanded into entries.
    """
    b = np.asarray(samples_vec, dtype=float).ravel()
    rows = S.shape[0]
    if b.shape[0] != rows:
        raise ValueError(f"sample vector length {b.shape[0]} != row count {rows}")
    family = dual_family(S)
    grid = family.coefficients(b)
    residual = float(np.linalg.norm(S @ grid.flatten() - b))
    return LstsqResult(grid, residual, family.diagnostics)


@dataclass
class DualFamily:
    """Dual functions realized through the minimum-norm pseudo-inverse.

    svds: the thin SVD (U, sv, Vt) of each matrix in S.factors; diagnostics:
    S's Diagnostics, from the Kronecker product of the factors' singular
    values.  S's pseudo-inverse, which maps sample values to coefficients, is the
    Kronecker product of the factors' ones: coefficients applies it through
    _apply_pinv, and solve takes its coefficients from there.  The dual
    function for sample (j, k) is the reconstruction of the unit sample at
    (j, k), the LatticeSpline of that sample's pseudo-inverse column; S's
    own singular vectors are never formed.  In the full-rank regime the
    family reproduces every function of the finite subspace.
    """

    S: SampleMatrix
    svds: list
    diagnostics: Diagnostics

    def coefficients(self, sample_values) -> CoefficientGrid:
        return CoefficientGrid.from_flat(_apply_pinv(self.svds, sample_values),
                                         self.S.phi.r, self.S.N, self.S.phi.d)

    def reconstruct(self, sample_values) -> LatticeSpline:
        return LatticeSpline(self.S.phi, self.coefficients(sample_values))

    def function(self, j: int, k: int) -> LatticeSpline:
        """Dual function for the 1-based sample index (j, k), 1 <= j <= n and 1 <= k <= m."""
        n, m = self.S.samples.n, self.S.samples.m
        if not (1 <= j <= n and 1 <= k <= m):
            raise IndexError(f"sample index ({j}, {k}) outside [1, {n}] x [1, {m}]")
        unit = np.zeros(n * m)
        unit[(j - 1) * m + (k - 1)] = 1.0
        return self.reconstruct(unit)


def dual_family(S: SampleMatrix) -> DualFamily:
    """Pseudo-inverse dual family from the thin SVDs of S.factors; the one place
    that raises RankDeficientError, when S's Diagnostics read rank deficient."""
    svds, sv, rank = _factored_svd(S.factors)
    diagnostics = Diagnostics.of(sv, rank, S.shape[1])
    if diagnostics.rank_deficient:
        raise RankDeficientError(diagnostics)
    return DualFamily(S, svds, diagnostics)


@dataclass
class BetaTildeEstimate:
    """Lower-bound constant of the convolved synthesis system on the cuboid.

    certified means the value is the square root of the smallest Gram
    eigenvalue (p = q = 2, exact up to quadrature, lowered by eigvalsh's
    error margin, per axis or dense) divided by sqrt(r), which
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
    estimate of the true constant.  A box kernel keeps a one-term generator
    one term, so for such a generator the eigenvalue is the product of the
    per-axis ones and no dense Gram is formed.
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
    f = LatticeSpline(phi, c)
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
    inequality lower ||f|| <= statistic <= upper ||f|| with
    bounds = (lower, upper), which those two kinds require (the sweeps take
    them from the theorem's report, see experiments.probability_sweep).
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
    bounds: tuple | None = None


@dataclass
class TrialRecord:
    """Outcome of one trial.

    A recovery trial keeps its coefficient error and its sample matrix's
    Diagnostics.  An inequality trial builds no matrix, so both are None;
    it keeps tested = (statistic, lower ||f||, upper ||f||), the statistic
    and the two bounds it was tested against, written as statistic, lower
    and upper.
    """

    trial: int
    seed: int
    success: bool
    error: float | None
    diagnostics: Diagnostics | None = None
    tested: tuple | None = None

    def to_json(self) -> str:
        d = self.diagnostics
        rec = {
            "trial": self.trial, "seed": self.seed, "success": self.success,
            "rank": d and d.rank, "rank_deficient": d and d.rank_deficient,
            "error": _jsonable(self.error),
            "sigma_min": d and _jsonable(d.sigma_min),
            "condition_number": d and _jsonable(d.condition_number),
        }
        if self.tested is not None:
            rec.update(zip(("statistic", "lower", "upper"), map(_jsonable, self.tested)))
        return json.dumps(rec, sort_keys=True)


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
    the empirical probabilities stay honest.  Inequality trials succeed when
    the statistic lies within spec.bounds times ||f||; they compute no
    theorem constants themselves, and raise ValueError without spec.bounds.
    Per-trial seeds derive from the master seed; identical inputs
    reproduce identical records.  Each trial draws its own samples; the
    draws of a batch are then evaluated together and their dense sample
    matrices take solve's SVD step and rank rule, _factored_svd, as one
    stack, so memory stays bounded by TRIAL_BATCH_BYTES whatever `trials` is.
    A batch admits at least one trial, so a recovery trial whose dense sample
    matrix exceeds SAMPLE_BYTES raises ByteGuardError before the first draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    f = LatticeSpline(spec.phi, spec.coeffs)
    conv = convolve(f, spec.kernel)

    if spec.kind in ("omega_inequality", "mu_inequality"):
        if spec.bounds is None:
            raise ValueError(f"{spec.kind} trials need bounds = (lower, upper)")
        fnorm = mixed_norm(f, spec.p, spec.q)
        lower, upper = (b * fnorm for b in spec.bounds)
    elif spec.kind != "recovery":
        raise ValueError(f"unknown trial kind {spec.kind!r}")

    recovery = spec.kind == "recovery"
    rows, cols = spec.n * spec.m, spec.coeffs.size
    if recovery:
        _refuse_dense_samples(spec.n, spec.m, cols)
        shifts = [np.arange(-spec.N, spec.N + 1, dtype=float)] * spec.phi.ndim
        target = spec.coeffs.flatten()
    batch = _batch_size(spec)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    records: list[TrialRecord] = []
    for start in range(0, trials, batch):
        seeds = [int(s) for s in trial_seeds[start:start + batch]]
        points = np.concatenate([draw_samples(spec.rho, spec.n, spec.m, s, spec.mode).points
                                 for s in seeds])
        if recovery:
            stack = _shifted_values(conv.generators, points, shifts).reshape(len(seeds), rows, cols)
            values = stack @ target
            ((U, _, Vt),), sv, ranks = _factored_svd((stack,))
        else:
            values = conv.evaluate(points).reshape(len(seeds), rows)
        for b, tseed in enumerate(seeds):
            t = start + b
            if not recovery:
                vals = values[b].reshape(spec.n, spec.m)
                if spec.kind == "omega_inequality":
                    stat = lpq_norm(vals, spec.p, spec.q)
                else:
                    stat = float(np.sum(np.abs(vals)))
                records.append(TrialRecord(t, tseed, bool(lower <= stat <= upper), None,
                                           tested=(stat, lower, upper)))
                continue
            diagnostics = Diagnostics.of(sv[b], ranks[b], cols)
            err = math.inf if diagnostics.rank_deficient else float(np.max(np.abs(
                _apply_pinv([(U[b], sv[b], Vt[b])], values[b]) - target)))
            records.append(TrialRecord(t, tseed, err <= RECOVERY_TOL, err, diagnostics))

    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")

    successes = sum(rec.success for rec in records)
    lo, hi = wilson_interval(successes, trials)
    return SuccessSummary(trials, successes, successes / trials, lo, hi, records)

"""The batched Monte Carlo trial loop against the plain per-trial loop.

The reference draws each trial, builds its sample matrix (convolving the
generators again), takes the sample values as S c and solves it on its own
with a dense SVD of S and the RANK_TOL rule and the diagnostics written out
(dense_solve, this file's oracle).  empirical_success must give
the same records, compared with float equality: hoisting and batching
change the order in which the work is done, not the arithmetic.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from avgsamp.experiments import load_config
from avgsamp.mixed_space import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    lpq_norm,
    mixed_norm,
    tensor_bspline,
)
from avgsamp.reconstruction import (
    RANK_TOL,
    RECOVERY_TOL,
    Diagnostics,
    TrialRecord,
    TrialSpec,
    _batch_size,
    build_sample_matrix,
    empirical_success,
)
from avgsamp.sampling import AveragingKernel, Density, convolve, draw_samples


def dense_solve(entries: np.ndarray, values: np.ndarray) -> tuple[np.ndarray | None, Diagnostics]:
    """(minimum-norm solution V diag(1 / sv) U^T values, diagnostics) from one dense thin SVD.

    The rank counts the singular values above RANK_TOL times the largest
    column norm; below full column rank the solution is None.  sigma_min
    is the last singular value, 0 with fewer rows than columns.
    """
    U, sv, Vt = np.linalg.svd(entries, full_matrices=False)
    rows, cols = entries.shape
    rank = int(np.sum(sv > RANK_TOL * max(np.linalg.norm(entries, axis=0).max(), 1e-300)))
    smin = float(sv[-1]) if rows >= cols else 0.0
    diag = Diagnostics(rank, cols, smin, float(sv[0]) / smin if smin > 0.0 else math.inf)
    return (None if rank < cols else Vt.T @ ((U.T @ values) / sv)), diag


def reference_records(spec: TrialSpec, trials: int, seed: int) -> list[TrialRecord]:
    """One draw, one sample matrix and one SVD per trial."""
    f = LatticeSpline(spec.phi, spec.coeffs)
    conv = convolve(f, spec.kernel)
    fnorm = mixed_norm(f, spec.p, spec.q)
    lower, upper = spec.bounds or (None, None)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    records = []
    for t in range(trials):
        tseed = int(trial_seeds[t])
        samples = draw_samples(spec.rho, spec.n, spec.m, tseed, spec.mode)
        if spec.kind == "recovery":
            S = build_sample_matrix(spec.phi, spec.kernel, samples, spec.N)
            x, diag = dense_solve(S.entries, S.entries @ spec.coeffs.flatten())
            if x is None:
                rec = TrialRecord(t, tseed, False, math.inf, diag)
            else:
                err = float(np.max(np.abs(x - spec.coeffs.flatten())))
                rec = TrialRecord(t, tseed, err <= RECOVERY_TOL, err, diag)
        else:
            values = conv.evaluate(samples.points).reshape(spec.n, spec.m)
            if spec.kind == "omega_inequality":
                stat = lpq_norm(values, spec.p, spec.q)
            else:
                stat = float(np.sum(np.abs(values)))
            lo, hi = lower * fnorm, upper * fnorm
            rec = TrialRecord(t, tseed, bool(lo <= stat <= hi), None, tested=(stat, lo, hi))
        records.append(rec)
    return records


@pytest.fixture(scope="module")
def setup():
    ck = Cuboid(2.5, 2.5)
    kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], ck)
    phi = GeneratorSet((tensor_bspline([2, 2]),), 1.34, 2, 2, 0.1, 1.0)
    coeffs = CoefficientGrid.from_entries(1, 2, 1, [(0, (0, 1), 3.0), (0, (-1, 0), -5.0)])
    pc = Density.piecewise_constant(ck, [[-2.5, 0.0, 2.5], [-2.5, 1.0, 2.5]],
                                    [[0.1, 0.3], [0.4, 0.2]])
    return ck, kernel, phi, coeffs, {"uniform": Density.uniform(ck), "pc": pc}


def spec_for(setup, kind, density="uniform", mode="joint", n=5, m=5, bounds=None):
    _, kernel, phi, coeffs, rho = setup
    return TrialSpec(kind, phi, kernel, rho[density], coeffs, 2, n, m, mode=mode,
                     bounds=bounds)


def assert_same(spec, trials, seed):
    got = empirical_success(spec, trials, seed)
    want = reference_records(spec, trials, seed)
    assert [dataclasses.astuple(r) for r in got.records] == [dataclasses.astuple(r) for r in want]
    assert got.successes == sum(r.success for r in want)
    return got


# the omega and mu windows sit inside the spread of the statistic, so both outcomes occur
@pytest.mark.parametrize("kind, density, mode, n, m, bounds", [
    ("recovery", "uniform", "joint", 5, 5, None),
    ("recovery", "uniform", "separable", 6, 5, None),
    ("recovery", "pc", "joint", 7, 6, None),
    ("omega_inequality", "uniform", "joint", 5, 5, (0.03, 0.07)),
    ("omega_inequality", "pc", "joint", 4, 6, (0.03, 0.07)),
    ("mu_inequality", "uniform", "separable", 5, 5, (0.07, 0.2)),
    ("mu_inequality", "pc", "joint", 6, 4, (0.07, 0.2)),
])
def test_records_match_the_per_trial_loop(setup, kind, density, mode, n, m, bounds):
    spec = spec_for(setup, kind, density, mode, n, m, bounds)
    batch = _batch_size(spec)
    assert batch > 1
    trials = 2 * batch + 3  # not a multiple of the batch size
    got = assert_same(spec, trials, seed=61)
    if kind != "recovery":
        assert 0 < got.successes < trials
        assert all(r.diagnostics is None for r in got.records)


def test_near_singular_draws_match(setup):
    # 5x5 samples for 25 columns: some draws are rank deficient and some
    # full-rank draws miss the recovery tolerance
    spec = spec_for(setup, "recovery")
    got = assert_same(spec, 300, seed=62)
    assert any(r.diagnostics.rank_deficient for r in got.records)
    assert any(not r.diagnostics.rank_deficient and not r.success for r in got.records)
    assert all(r.diagnostics.condition_number >= 1.0 for r in got.records)


def test_all_rank_deficient_draws_match(setup):
    spec = spec_for(setup, "recovery", n=2, m=2)
    got = assert_same(spec, 7, seed=63)
    assert got.successes == 0
    assert all(r.diagnostics.rank_deficient and r.diagnostics.sigma_min == 0.0
               and r.diagnostics.condition_number == math.inf for r in got.records)


def test_memory_is_bounded_in_the_trial_count(config_dir):
    exp = load_config(config_dir / "quadratic_bspline.json")
    spec = TrialSpec("recovery", exp.phi, exp.kernel, exp.density, exp.signal,
                     exp.N, 10, 10, exp.p, exp.q, exp.mode)

    def peak(trials):
        empirical_success(spec, 2, 0)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            summary = empirical_success(spec, trials, 64)
            return tracemalloc.get_traced_memory()[1], summary
        finally:
            tracemalloc.stop()

    small, _ = peak(50)
    large, summary = peak(2000)
    assert summary.trials == 2000
    # the returned records grow with the trial count; the stacked matrices
    # of all 2000 trials alone would take 40 MB
    assert large - small <= 2 * 2 ** 20

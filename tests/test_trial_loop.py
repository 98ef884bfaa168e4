"""The batched Monte Carlo trial loop against the plain per-trial loop.

The reference draws each trial, builds its sample matrix (convolving the
generators again) and solves it on its own.  empirical_success must give
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
    lpq_norm,
    mixed_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.reconstruction import (
    RECOVERY_TOL,
    RankDeficientError,
    TrialRecord,
    TrialSpec,
    _batch_size,
    build_sample_matrix,
    empirical_success,
    solve,
)
from avgsamp.sampling import AveragingKernel, Density, convolve, draw_samples


def reference_records(spec: TrialSpec, trials: int, seed: int) -> list[TrialRecord]:
    """One draw, one sample matrix and one SVD per trial."""
    f = synthesize(spec.phi, spec.coeffs)
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
            values = conv.evaluate(samples.points)
            sv = np.linalg.svd(S.entries, full_matrices=False)[1]
            rows, cols = S.shape
            smin = float(sv[-1]) if rows >= cols else 0.0
            cond = float(sv[0]) / smin if smin > 0.0 else math.inf
            try:
                res = solve(S, values)
                err = float(np.max(np.abs(res.grid.values - spec.coeffs.values)))
                rec = TrialRecord(t, tseed, err <= RECOVERY_TOL, res.rank, False, err,
                                  smin, cond)
            except RankDeficientError as exc:
                rec = TrialRecord(t, tseed, False, exc.rank, True, math.inf, smin, cond)
        else:
            values = conv.evaluate(samples.points).reshape(spec.n, spec.m)
            if spec.kind == "omega_inequality":
                stat = lpq_norm(values, spec.p, spec.q)
            else:
                stat = float(np.sum(np.abs(values)))
            ok = lower * fnorm <= stat <= upper * fnorm
            rec = TrialRecord(t, tseed, bool(ok), min(spec.n * spec.m, spec.coeffs.size),
                              False, 0.0)
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
        assert all(r.sigma_min is None and r.condition_number is None for r in got.records)


def test_near_singular_draws_match(setup):
    # 5x5 samples for 25 columns: some draws are rank deficient and some
    # full-rank draws miss the recovery tolerance
    spec = spec_for(setup, "recovery")
    got = assert_same(spec, 300, seed=62)
    assert any(r.rank_deficient for r in got.records)
    assert any(not r.rank_deficient and not r.success for r in got.records)
    assert all(r.condition_number >= 1.0 for r in got.records)


def test_all_rank_deficient_draws_match(setup):
    spec = spec_for(setup, "recovery", n=2, m=2)
    got = assert_same(spec, 7, seed=63)
    assert got.successes == 0
    assert all(r.rank_deficient and r.sigma_min == 0.0 and r.condition_number == math.inf
               for r in got.records)


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

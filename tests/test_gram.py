"""Tests for the Kronecker-factored shift Gram behind the p = q = 2 constants.

The oracle is the dense path: one tensor quadrature grid over the box,
every shifted function evaluated at every node, and G = B^T W B.  Its
memory grows with the product of the axis node counts times the column
count, so it only runs on small cases here.  The dense _shift_gram, in
turn, is the oracle of the per-axis paths of one-term sets.
"""

import bisect
import itertools
import math
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import avgsamp
from avgsamp import experiments, mixed_space
from avgsamp.mixed_space import (
    DEFAULT_QUAD,
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    TensorFunction,
    _gram_form,
    _shift_gram,
    _term_grams,
    estimate_stability,
    tensor_bspline,
)
from avgsamp.quadrature import QuadratureSpec, axis_rule
from avgsamp.reconstruction import beta_tilde
from avgsamp.sampling import AveragingKernel, convolve


def dense_gram(funcs, N, box, quad):
    """Gram of the shifts f_i(. - k), |k| <= N, over the box on one tensor grid.

    Columns run over generators, then shifts in lexicographic order.
    """
    offsets = np.arange(-N, N + 1, dtype=float)
    rules = []
    for a, (lo, hi) in enumerate(box):
        breaks = np.concatenate([(f.axis_breakpoints(a)[:, None] + offsets[None, :]).ravel()
                                 for f in funcs])
        rules.append(axis_rule(lo, hi, breaks, quad))
    mesh = np.meshgrid(*[nodes for nodes, _ in rules], indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    w = rules[0][1]
    for _, wa in rules[1:]:
        w = np.multiply.outer(w, wa)
    w = w.ravel()
    B = np.stack([f.shift(k).evaluate(pts) for f in funcs
                  for k in itertools.product(offsets, repeat=len(box))], axis=1)
    return B.T @ (w[:, None] * B)


def dense_bounds(funcs, N, box, quad):
    """Stability bounds against the block-summed l^{2,2} coefficient norm.

    The square roots of the extreme eigenvalues of the dense Gram, the
    lower one divided by sqrt(r): that norm is at most sqrt(r) times the
    Euclidean norm the eigenvalues are exact for.
    """
    lam = np.linalg.eigvalsh(dense_gram(funcs, N, box, quad))
    return np.sqrt(lam[0] / len(funcs)), np.sqrt(lam[-1])


def _case(name):
    """(generators, kernel, cuboid, N, quad) of one test configuration."""
    if name == "d1_N2":
        ck = Cuboid(2.5, 2.5)
        funcs = (tensor_bspline([2, 2]),)
        kernel = AveragingKernel.box([(-0.125, 0.125)] * 2, ck)
        return funcs, kernel, ck, 2, DEFAULT_QUAD
    if name == "d2_N1":
        # unequal half-widths and kernel sides, so the axis Grams differ
        ck = Cuboid(1.5, 1.0, 2)
        funcs = (tensor_bspline([2, 2, 2]),)
        kernel = AveragingKernel.box([(-0.125, 0.125), (0.0, 0.5), (-0.25, 0.25)], ck)
        return funcs, kernel, ck, 1, QuadratureSpec(order=4)
    if name == "r2":
        ck = Cuboid(2.5, 2.5)
        funcs = (tensor_bspline([1, 1]), tensor_bspline([2, 2], [0.5, 0.0]))
        kernel = AveragingKernel.box([(-0.125, 0.125)] * 2, ck)
        return funcs, kernel, ck, 1, DEFAULT_QUAD
    raise KeyError(name)


CASES = ["d1_N2", "d2_N1", "r2"]


@pytest.mark.parametrize("name", CASES)
def test_gram_entries_match_dense_grid(name):
    funcs, kernel, ck, N, quad = _case(name)
    convolved = [convolve(f, kernel) for f in funcs]
    G = _shift_gram(convolved, N, ck.box, quad)
    ref = dense_gram(convolved, N, ck.box, quad)
    assert G.shape == ref.shape
    assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", CASES)
def test_beta_tilde_matches_dense_grid(name):
    funcs, kernel, ck, N, quad = _case(name)
    phi = GeneratorSet(funcs, 1.0, 2.0, 2.0, 0.1, 1.0)
    est = beta_tilde(phi, kernel, N, 2.0, 2.0, ck, quad=quad)
    want, _ = dense_bounds([convolve(f, kernel) for f in funcs], N, ck.box, quad)
    assert est.certified and est.method == "gram_eigenvalue"
    assert est.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", CASES)
def test_global_stability_matches_dense_grid(name):
    funcs, _, _, N, quad = _case(name)
    phi = GeneratorSet(funcs, 1.0, 2.0, 2.0, 0.1, 1.0)
    lo, hi = estimate_stability(phi, 2.0, 2.0, N, quad=quad)
    # a box wider than every shifted support gives the global norm
    box = [(-N - 3.0, N + 3.0)] * phi.ndim
    want_lo, want_hi = dense_bounds(funcs, N, box, quad)
    assert lo == pytest.approx(want_lo, rel=1e-12, abs=0.0)
    assert hi == pytest.approx(want_hi, rel=1e-12, abs=0.0)


def test_stability_on_a_region_matches_dense_grid():
    funcs, _, ck, N, quad = _case("r2")
    lo, hi = estimate_stability(funcs, 2.0, 2.0, N, quad=quad, region=ck)
    want_lo, want_hi = dense_bounds(funcs, N, ck.box, quad)
    assert lo == pytest.approx(want_lo, rel=1e-12, abs=0.0)
    assert hi == pytest.approx(want_hi, rel=1e-12, abs=0.0)


def test_l2_constants_ignore_trials_and_seed():
    phi = GeneratorSet((tensor_bspline([2, 2]),), 1.0, 2.0, 2.0, 0.1, 1.0)
    assert (estimate_stability(phi, 2.0, 2.0, 2, trials=1, seed=0)
            == estimate_stability(phi, 2.0, 2.0, 2, trials=50, seed=9))


def test_beta_tilde_memory_at_d2_n3():
    # the dense grid needs about 1.9 GB here (681,472 nodes x 343 columns)
    ck = Cuboid(2.5, 2.5, 2)
    kernel = AveragingKernel.box([(-0.125, 0.125)] * 3, ck)
    phi = GeneratorSet((tensor_bspline([2, 2, 2]),), 1.0, 2.0, 2.0, 0.1, 1.0)
    tracemalloc.start()
    try:
        est = beta_tilde(phi, kernel, 3, 2.0, 2.0, ck, quad=QuadratureSpec(order=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.certified and est.value > 0.0
    assert peak < 50 * 2 ** 20


# -- the per-axis path of one-term sets against the dense _shift_gram --------

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "perfbench" / "configs").glob("*.json"))

ONE_TERM = {
    "bspline_22": tensor_bspline([2, 2]),
    "bspline_123_shifted": tensor_bspline([1, 2, 3], [0.25, -0.5, 0.125]),
    "weighted": tensor_bspline([2, 1], weight=-1.5),
}


def dense_constants(funcs, N, region, quad=DEFAULT_QUAD):
    """(alpha1, alpha2) from eigvalsh of the dense Gram, the dense path of estimate_stability."""
    lam = np.linalg.eigvalsh(_shift_gram(funcs, N, region, quad))
    return math.sqrt(max(lam[0], 0.0) / len(funcs)), math.sqrt(max(lam[-1], 0.0))


def assert_lower_constant_close(got, funcs, N, region):
    """got is within 1e-13 relative of the dense lower constant, up to what eigvalsh resolves.

    eigvalsh finds each eigenvalue of the dense Gram to about side * eps
    * lambda_max absolutely (Weyl), so a small lambda_min carries that much
    error of its own; the per-axis eigenvalues are the more accurate ones.
    """
    want, hi = dense_constants(funcs, N, region)
    side = len(funcs) * (2 * N + 1) ** funcs[0].ndim
    assert abs(got ** 2 - want ** 2) <= 1e-13 * want ** 2 + side * np.finfo(float).eps * hi ** 2


@pytest.mark.parametrize("on_cuboid", [False, True])
@pytest.mark.parametrize("name", ONE_TERM)
def test_per_axis_stability_matches_the_dense_gram(name, on_cuboid):
    f = ONE_TERM[name]
    region = Cuboid(2.0, 1.5, f.ndim - 1) if on_cuboid else None
    lo, hi = estimate_stability((f,), 2.0, 2.0, 2, region=region)
    _, want_hi = dense_constants((f,), 2, region)
    assert_lower_constant_close(lo, (f,), 2, region)
    assert hi == pytest.approx(want_hi, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("weight", [1.0, 0.75])
@pytest.mark.parametrize("name", ["bspline_22", "bspline_123_shifted"])
def test_per_axis_beta_tilde_matches_the_dense_gram(name, weight):
    f = ONE_TERM[name]
    ck = Cuboid(2.0, 1.5, f.ndim - 1)
    kernel = AveragingKernel.box([(-0.125, 0.25)] + [(-0.25, 0.25)] * (f.ndim - 1), ck, weight)
    phi = GeneratorSet((f,), 1.0, 2.0, 2.0, 0.1, 1.0)
    est = beta_tilde(phi, kernel, 2, 2.0, 2.0, ck)
    assert est.certified and est.method == "gram_eigenvalue"
    assert_lower_constant_close(est.value, (convolve(f, kernel),), 2, ck)


def test_dense_sets_keep_their_constants_bytewise():
    # reprs of the dense path's values, which the per-axis branch must leave untouched;
    # each lower constant has eigvalsh's margin side * eps * lambda_max subtracted
    ck = Cuboid(2.5, 2.5)
    r2 = (tensor_bspline([1, 1]), tensor_bspline([2, 2], [0.5, 0.0]))
    two_terms = (tensor_bspline([1, 2]) + tensor_bspline([2, 1], [0.5, -0.5], weight=0.5),)
    assert estimate_stability(r2, 2.0, 2.0, 2) == (0.018338194918199713, 1.3336458950157157)
    assert estimate_stability(r2, 2.0, 2.0, 2, region=ck) == (0.010487572849307179, 1.3234896903116546)
    assert estimate_stability(two_terms, 2.0, 2.0, 2) == (0.29398594073013584, 1.3989258974181251)
    assert estimate_stability(two_terms, 2.0, 2.0, 2, region=ck) == (0.27683118829947256, 1.3849798754246694)
    for funcs in (r2, two_terms):
        lam = np.linalg.eigvalsh(_shift_gram(funcs, 2, ck, DEFAULT_QUAD))
        want = (math.sqrt(max(lam[0] - len(lam) * np.finfo(float).eps * lam[-1], 0.0) / len(funcs)),
                math.sqrt(lam[-1]))
        assert estimate_stability(funcs, 2.0, 2.0, 2, region=ck) == want
    kernel = AveragingKernel.box([(-0.125, 0.125)] * 2, ck)
    phi = GeneratorSet(r2, 1.0, 2.0, 2.0, 0.1, 1.0)
    assert beta_tilde(phi, kernel, 2, 2.0, 2.0, ck).value == 0.0005940159355448607


def _mp_axis_gram(g, N, lo, hi):
    """Gram of g(t - k), |k| <= N, over [lo, hi] at the working mpmath precision.

    Breakpoints, shifts and piece coefficients are exact in mpmath, and
    Gauss-Legendre is exact on each polynomial panel between shifted
    breakpoints, so the entries are the float function's true integrals.
    """
    bp = [mpmath.mpf(float(b)) for b in g.breakpoints]
    pieces = [[mpmath.mpf(float(c)) for c in row[::-1]] for row in g.coeffs]

    def value(x):
        i = bisect.bisect_right(bp, x) - 1
        return mpmath.polyval(pieces[i], x - bp[i]) if 0 <= i < len(pieces) else mpmath.mpf(0)

    shifts = range(-N, N + 1)
    G = mpmath.matrix(len(shifts))
    for a, k in enumerate(shifts):
        for b, l in enumerate(shifts[a:], start=a):
            cuts = sorted({lo, hi} | {t + s for t in bp for s in (k, l) if lo < t + s < hi})
            G[a, b] = G[b, a] = mpmath.quad(lambda t: value(t - k) * value(t - l), cuts,
                                            method="gauss-legendre")
    return G


def _mp_lower_constant_case():
    """The convolved one-term function of the per-axis beta_tilde test, its
    cuboid, and its exact lower constant at N = 2 from 40-digit per-axis Grams."""
    ck = Cuboid(2.0, 1.5, 2)
    kernel = AveragingKernel.box([(-0.125, 0.25)] + [(-0.25, 0.25)] * 2, ck)
    f = convolve(ONE_TERM["bspline_123_shifted"], kernel)
    (w, fs), = f.terms
    with mpmath.workdps(40):
        lam = mpmath.mpf(w) ** 2
        for g, (a, b) in zip(fs, ck.box):
            lam *= min(mpmath.eigsy(_mp_axis_gram(g, 2, mpmath.mpf(a), mpmath.mpf(b)))[0])
        return f, ck, float(mpmath.sqrt(lam))


def test_per_axis_lower_constant_is_below_the_40_digit_value():
    # each axis's lambda_min is lowered by len(G_a) * eps * lambda_max(G_a);
    # without that margin this case read 3.5e-15 relative above the exact value
    f, ck, exact = _mp_lower_constant_case()
    lo, _ = estimate_stability((f,), 2.0, 2.0, 2, region=ck)
    assert exact * (1.0 - 1e-11) <= lo <= exact


def test_dense_lower_constant_is_below_the_40_digit_value():
    # the same function written as two half-weight copies of its term: the same
    # function and Gram, so the dense branch runs on a Gram whose exact
    # lambda_min is a product of 1-D ones
    f, ck, exact = _mp_lower_constant_case()
    (w, fs), = f.terms
    split = TensorFunction([(0.5 * w, fs), (0.5 * w, fs)])
    lo, hi = estimate_stability((split,), 2.0, 2.0, 2, region=ck)
    assert lo <= exact
    # the margin is side * eps * lambda_max, with side = 125
    assert lo ** 2 >= exact ** 2 - 2 * 125 * np.finfo(float).eps * hi ** 2
    # without the margin eigvalsh's value is 4.2e-13 relative off (low here; the sign is not controlled)
    lam_dense = np.linalg.eigvalsh(_shift_gram((split,), 2, ck, DEFAULT_QUAD))
    assert abs(math.sqrt(lam_dense[0]) - exact) > 1e-14 * exact


L2_SETS = {
    "one_term_d1": (tensor_bspline([2, 2], weight=0.5),),
    "one_term_d2": (tensor_bspline([1, 2, 3], [0.25, -0.5, 0.125]),),
    "r2": (tensor_bspline([1, 1]), tensor_bspline([2, 2], [0.5, 0.0])),
    "two_terms": (tensor_bspline([1, 2]) + tensor_bspline([2, 1], [0.5, -0.5], weight=0.5),),
}


@pytest.mark.parametrize("name", L2_SETS)
def test_gram_form_matches_the_dense_gram(name):
    funcs = L2_SETS[name]
    ck = Cuboid(2.0, 1.5, funcs[0].ndim - 1)
    rng = np.random.default_rng(4)
    for region in (ck, None):
        G = _shift_gram(funcs, 2, region, DEFAULT_QUAD)
        grams = _term_grams(funcs, 2, region, DEFAULT_QUAD)
        for _ in range(3):
            c = CoefficientGrid(rng.standard_normal((len(funcs),) + (5,) * funcs[0].ndim), 2)
            flat = c.flatten()
            assert _gram_form(grams, c) == pytest.approx(flat @ G @ flat, rel=1e-13, abs=0.0)
        assert _gram_form(grams, CoefficientGrid.zeros(len(funcs), 2, funcs[0].ndim - 1)) == 0.0


def test_per_axis_stability_at_d2_n7_is_fast_and_small():
    # the dense Gram here is 3375^2 (87 MB) and its eigvalsh took seconds
    phi = GeneratorSet((tensor_bspline([2, 2, 2]),), 1.0, 2.0, 2.0, 0.1, 1.0)
    estimate_stability(phi, 2.0, 2.0, 1)  # warm up outside the measurement
    tracemalloc.start()
    start = time.perf_counter()
    try:
        lo, hi = estimate_stability(phi, 2.0, 2.0, 7)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < lo < hi
    assert elapsed < 0.1
    assert peak < 2 ** 20


def test_dense_gram_above_its_byte_budget_raises_up_front():
    # r = 2, d = 2, N = 7: side 2 * 15^3 = 6750, a 364 MB Gram
    r2 = (tensor_bspline([1, 1, 1]), tensor_bspline([2, 2, 2]))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="side 6750"):
            estimate_stability(r2, 2.0, 2.0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    lo, hi = estimate_stability(r2[1:], 2.0, 2.0, 7)
    assert 0.0 < lo < hi


def test_one_term_configs_never_form_the_dense_gram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense shift Gram formed for a one-term set")

    for mod in vars(avgsamp).values():
        if getattr(mod, "__name__", "").startswith("avgsamp.") and hasattr(mod, "_shift_gram"):
            monkeypatch.setattr(mod, "_shift_gram", refuse)
    assert mixed_space._shift_gram is refuse
    for path in CONFIGS:
        exp = experiments.load_config(path)
        assert exp.stability_certified
        for selector in ("omega", "mu", "concentrated", "reconstruction"):
            experiments.constants_report(exp, selector)
        table = experiments.run_table(exp)
        assert all(math.isfinite(row.l2_error) for row in table.rows if not row.rank_deficient)

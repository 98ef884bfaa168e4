"""Tests for LatticeSpline, its cell form and the error norms built on it.

One oracle is the expanded path: synthesize writes the same function as a
TensorFunction with one term per coefficient, which evaluate, evaluate_grid,
mixed_norm, sup_norm and abs_integral read as the N = 0 lattice of that
expansion, one term at a time.  The other is pointwise: dense-grid
values, polished by scipy, bracket the certified sup_norm, and each cell's
polynomial is compared with evaluate_grid inside that cell.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from avgsamp import mixed_space
from avgsamp.mixed_space import (
    DEFAULT_QUAD,
    SUP_RTOL,
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    LatticeSpline,
    TensorFunction,
    _clip_box,
    _shift_gram,
    estimate_stability,
    mixed_norm,
    random_unit_grid,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.piecewise import PiecewisePoly1D, bspline
from avgsamp.sampling import AveragingKernel, Density, abs_integral, convolve


def _case(name):
    """(generators, N, cuboid) of one test configuration."""
    if name == "d1":
        return (tensor_bspline([2, 2]),), 2, Cuboid(2.5, 2.5)
    if name == "d2":
        return (tensor_bspline([2, 2, 2]),), 2, Cuboid(1.5, 1.5, 2)
    if name == "r2":
        # two generators, the second with two terms and a half-integer shift
        second = tensor_bspline([2, 2], [0.5, 0.0]) + tensor_bspline([1, 2], [0.0, 0.5], -0.7)
        return (tensor_bspline([1, 1]), second), 1, Cuboid(2.5, 2.5)
    raise KeyError(name)


CASES = ["d1", "d2", "r2"]


def _delta(funcs, N, seed, sparse=False):
    """O(1) coefficient error; sparse zeroes most shifts, so the support shrinks."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(funcs),) + (2 * N + 1,) * funcs[0].ndim)
    if sparse:
        values[rng.uniform(size=values.shape) < 0.7] = 0.0
        values.flat[0] = 1.0
    return CoefficientGrid(values, N)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("sparse", [False, True])
def test_grid_values_and_geometry_match_the_expansion(name, sparse):
    funcs, N, _ = _case(name)
    delta = _delta(funcs, N, 3, sparse)
    lattice, expanded = LatticeSpline(funcs, delta), synthesize(funcs, delta)
    axes = [np.linspace(-N - 2.0, N + 2.0, 41 + 2 * a) for a in range(lattice.ndim)]
    want = expanded.evaluate_grid(axes)
    got = lattice.evaluate_grid(axes)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    points = np.random.default_rng(4).uniform(-N - 2.0, N + 2.0, (300, lattice.ndim))
    want = expanded.evaluate(points)
    got = lattice.evaluate(points)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # a single point gives a float, and the same value as in the batch
    one = lattice.evaluate(points[7])
    assert isinstance(one, float) and one == got[7]
    assert lattice.support_box() == expanded.support_box()
    for a in range(lattice.ndim):
        assert np.array_equal(lattice.axis_breakpoints(a), expanded.axis_breakpoints(a))


@pytest.mark.parametrize("name", CASES)
def test_sup_and_gram_l2_match_the_expansion(name):
    funcs, N, ck = _case(name)
    delta = _delta(funcs, N, 5)
    expanded = synthesize(funcs, delta)
    sup = sup_norm(LatticeSpline(funcs, delta), ck)
    assert sup == pytest.approx(sup_norm(expanded, ck), rel=1e-12, abs=0.0)
    flat = delta.flatten()
    l2 = np.sqrt(flat @ _shift_gram(funcs, N, ck, DEFAULT_QUAD) @ flat)
    assert l2 == pytest.approx(mixed_norm(expanded, 2.0, 2.0, ck), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", CASES)
def test_zero_coefficient_error_gives_zero_norms(name):
    funcs, N, ck = _case(name)
    delta = CoefficientGrid.zeros(len(funcs), N, funcs[0].ndim - 1)
    lattice = LatticeSpline(funcs, delta)
    assert lattice.is_zero
    assert not lattice.evaluate(np.ones((4, lattice.ndim))).any()
    assert lattice.evaluate(np.ones(lattice.ndim)) == 0.0
    assert sup_norm(lattice, ck) == 0.0
    flat = delta.flatten()
    assert flat @ _shift_gram(funcs, N, ck, DEFAULT_QUAD) @ flat == 0.0
    assert abs_integral(synthesize(funcs, delta), ck) == 0.0
    assert abs_integral(lattice, ck) == 0.0


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("sparse", [False, True])
def test_convolution_keeps_the_coefficients(name, sparse):
    funcs, N, ck = _case(name)
    delta = _delta(funcs, N, 13, sparse)
    kernel = AveragingKernel.box([(-0.25, 0.125)] + [(-0.125, 0.25)] * (ck.ndim - 1), ck)
    conv = convolve(LatticeSpline(funcs, delta), kernel)
    assert isinstance(conv, LatticeSpline) and conv.coefficients is delta
    points = np.random.default_rng(6).uniform(-N - 2.0, N + 2.0, (300, ck.ndim))
    want = convolve(synthesize(funcs, delta), kernel).evaluate(points)
    got = conv.evaluate(points)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _term_support_box(f):
    """The oracle: bounding box of the union of f's term support boxes, term by term."""
    if f.is_zero:
        return [(0.0, 0.0)] * f.ndim
    return [(min(fs[a].support[0] for _, fs in f.terms), max(fs[a].support[1] for _, fs in f.terms))
            for a in range(f.ndim)]


def _term_breakpoints(f, axis):
    """The oracle: every term factor's breakpoints on the axis, sorted and unique."""
    if f.is_zero:
        return np.empty(0)
    return np.unique(np.concatenate([fs[axis].breakpoints for _, fs in f.terms]))


@pytest.mark.parametrize("name", CASES + ["zero"])
def test_a_tensor_function_is_its_own_lattice(name):
    if name == "zero":
        f, ck = TensorFunction.zero(2), Cuboid(2.5, 2.5)
    else:
        funcs, N, ck = _case(name)
        f = synthesize(funcs, _delta(funcs, N, 17, sparse=True))
    unit = CoefficientGrid(np.ones((1,) * (f.ndim + 1)), 0)
    assert isinstance(f, LatticeSpline)
    assert len(f.generators) == 1 and f.generators[0] is f
    assert f.coefficients.N == 0 and np.array_equal(f.coefficients.values, unit.values)
    assert f.support_box() == _term_support_box(f)
    for a in range(f.ndim):
        assert np.array_equal(f.axis_breakpoints(a), _term_breakpoints(f, a))
    lattice = LatticeSpline((f,), unit)
    assert sup_norm(f, ck) == sup_norm(lattice, ck)
    assert abs_integral(f, ck) == abs_integral(lattice, ck)
    assert mixed_norm(f, 2.0, 3.0, ck) == mixed_norm(lattice, 2.0, 3.0, ck)
    kernel = AveragingKernel.box([(-0.25, 0.125)] * ck.ndim, ck)
    axes = [np.linspace(lo, hi, 23 + a) for a, (lo, hi) in enumerate(ck.box)]
    assert (convolve(f, kernel).evaluate_grid(axes).tobytes()
            == convolve(lattice, kernel).evaluate_grid(axes).tobytes())


def test_p3_random_search_on_a_d2_lattice_is_fast():
    # the expanded search took about 1 s on a 2-core Xeon
    phi = GeneratorSet((tensor_bspline([2, 2, 2]),), 1.4, 3.0, 3.0, 0.1, 1.0)
    estimate_stability(phi, 3.0, 3.0, 1, trials=1)  # warm up outside the measurement
    start = time.perf_counter()
    lo, hi = estimate_stability(phi, 3.0, 3.0, 2, trials=10)
    assert time.perf_counter() - start < 0.5
    assert 0.0 < lo <= hi


def test_evaluate_grid_checks_the_axis_count():
    funcs, N, _ = _case("d1")
    with pytest.raises(ValueError, match="needs 2 axes"):
        LatticeSpline(funcs, _delta(funcs, N, 1)).evaluate_grid([np.zeros(3)])


def _dense_max(f, box):
    """max |f| on a dense grid that holds every breakpoint, and that max polished by scipy.

    Both are attained values, so both lie at or below the true maximum.
    """
    axes = []
    for a, (lo, hi) in enumerate(box):
        bp = f.axis_breakpoints(a)
        dense = np.linspace(lo, hi, 161 if len(box) == 2 else 41)
        axes.append(np.unique(np.concatenate([dense, bp[(bp >= lo) & (bp <= hi)]])))
    vals = np.abs(f.evaluate_grid(axes))
    best = np.unravel_index(np.argmax(vals), vals.shape)
    res = minimize(lambda x: -abs(float(f.evaluate_grid([[v] for v in x]).ravel()[0])),
                   [ax[i] for ax, i in zip(axes, best)], method="L-BFGS-B", bounds=box,
                   options={"ftol": 1e-16, "gtol": 1e-14})
    return float(vals[best]), max(float(vals[best]), -float(res.fun))


def _enclosure_cases():
    cases = []
    for name in CASES:
        funcs, N, ck = _case(name)
        delta = _delta(funcs, N, 5)
        cases += [pytest.param(LatticeSpline(funcs, delta), ck, id=f"{name}-lattice"),
                  pytest.param(synthesize(funcs, delta), ck, id=f"{name}-expanded")]
    return cases


@pytest.mark.parametrize("f, region", _enclosure_cases())
def test_sup_norm_brackets_the_attained_maximum(f, region):
    grid_max, attained = _dense_max(f, _clip_box(f, region))
    sup = sup_norm(f, region)
    assert grid_max <= attained <= sup <= attained * (1.0 + SUP_RTOL + 1e-13)


def test_sup_norm_of_a_ridge_and_of_a_kink(monkeypatch):
    # a ridge: every cell is constant along y, so only x is halved, and a
    # small budget still reaches the full SUP_RTOL width; the region puts
    # the peak x = 0 off every dyadic point of its cell
    monkeypatch.setattr(mixed_space, "BLOCK_BYTES", 4096)
    ridge = TensorFunction.separable([bspline(2), PiecewisePoly1D.indicator(-1.0, 1.0)])
    assert 0.75 <= sup_norm(ridge, [(-1.5, 0.37), (-1.0, 1.0)]) <= 0.75 * (1.0 + SUP_RTOL)
    # the maximum 1 sits on a kink, which is a cell corner
    hats = TensorFunction.separable([bspline(1).shift_scale(0.25, 1.0), bspline(1)])
    assert sup_norm(hats, Cuboid(1.5, 1.5)) == 1.0


def test_sup_norm_budget_stop_is_still_an_upper_end(monkeypatch):
    funcs, N, ck = _case("d2")
    f = LatticeSpline(funcs, _delta(funcs, N, 5))
    grid_max, attained = _dense_max(f, _clip_box(f, ck))
    monkeypatch.setattr(mixed_space, "BLOCK_BYTES", 1024)
    capped = sup_norm(f, ck)
    # the stop leaves a wider bracket, but its upper end still bounds the maximum
    assert capped >= attained >= grid_max
    assert capped > attained * (1.0 + SUP_RTOL)


def _cell_values(edges, coeffs, points):
    """Each cell's polynomial at its own point: points[a][j] lies in cell j of axis a."""
    ndim = len(edges)
    vals = coeffs
    for a in reversed(range(ndim)):
        # contract the last power axis with the powers of the offset from the cell's left edge
        powers = (points[a] - edges[a][:-1])[:, None] ** np.arange(vals.shape[-1])
        vals = np.einsum("...jm,jm->...j", np.moveaxis(vals, a, -2), powers)
        vals = np.moveaxis(vals, -1, a)
    return vals


@pytest.mark.parametrize("name", CASES)
def test_cell_form_matches_the_values_inside_each_cell(name):
    funcs, N, ck = _case(name)
    delta = _delta(funcs, N, 7)
    rng = np.random.default_rng(9)
    for f in (LatticeSpline(funcs, delta), synthesize(funcs, delta)):
        edges, coeffs = f.cells(_clip_box(f, ck))
        points = [e[:-1] + rng.uniform(size=len(e) - 1) * np.diff(e) for e in edges]
        want = f.evaluate_grid(points)
        got = _cell_values(edges, coeffs, points)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", CASES)
def test_l1_without_expansion_matches_the_expansion(name):
    funcs, N, ck = _case(name)
    delta = _delta(funcs, N, 11)
    lattice, expanded = LatticeSpline(funcs, delta), synthesize(funcs, delta)
    assert abs_integral(lattice, ck) == pytest.approx(abs_integral(expanded, ck), rel=1e-14, abs=0.0)
    edges = [np.linspace(lo, hi, 3) for lo, hi in ck.box]
    rho = Density.piecewise_constant(ck, edges, np.full((2,) * ck.ndim, 0.5 ** ck.ndim))
    assert (abs_integral(lattice, ck, density=rho)
            == pytest.approx(abs_integral(expanded, ck, density=rho), rel=1e-14, abs=0.0))


def test_sup_of_a_343_term_expansion_is_fast():
    f = synthesize((tensor_bspline([3, 3, 3]),), random_unit_grid(1, 3, 2, 2, 2, np.random.default_rng(4)))
    assert len(f.terms) == 343
    start = time.perf_counter()
    sup = sup_norm(f, Cuboid(3.5, 3.5, 2))
    assert time.perf_counter() - start < 2.0
    assert sup > 0.0

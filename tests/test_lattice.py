"""Tests for LatticeSpline and the coefficient-error norms of the error tables.

The oracle is the expanded path: synthesize writes the same function as a
TensorFunction with one term per coefficient, which evaluate_grid, sup_norm
and mixed_norm handle term by term.
"""

import numpy as np
import pytest

from avgsamp.mixed_space import (
    DEFAULT_QUAD,
    CoefficientGrid,
    Cuboid,
    LatticeSpline,
    _shift_gram,
    mixed_norm,
    sup_norm,
    synthesize,
    tensor_bspline,
)
from avgsamp.sampling import abs_integral


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
    assert lattice.support_box() == expanded.support_box()
    for a in range(lattice.ndim):
        assert np.array_equal(lattice.axis_breakpoints(a), expanded.axis_breakpoints(a))
        np.testing.assert_allclose(np.unique(lattice.axis_critical_points(a)),
                                   np.unique(expanded.axis_critical_points(a)), rtol=0, atol=1e-14)


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
    assert sup_norm(lattice, ck) == 0.0
    flat = delta.flatten()
    assert flat @ _shift_gram(funcs, N, ck, DEFAULT_QUAD) @ flat == 0.0
    assert abs_integral(synthesize(funcs, delta), ck) == 0.0


def test_evaluate_grid_checks_the_axis_count():
    funcs, N, _ = _case("d1")
    with pytest.raises(ValueError, match="needs 2 axes"):
        LatticeSpline(funcs, _delta(funcs, N, 1)).evaluate_grid([np.zeros(3)])

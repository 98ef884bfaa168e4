"""Tests for the Kronecker-factored shift Gram behind the p = q = 2 constants.

The oracle is the dense path: one tensor quadrature grid over the box,
every shifted function evaluated at every node, and G = B^T W B.  Its
memory grows with the product of the axis node counts times the column
count, so it only runs on small cases here.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from avgsamp.mixed_space import (
    DEFAULT_QUAD,
    Cuboid,
    GeneratorSet,
    _shift_gram,
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

"""Random sample generation, averaging kernels and the centered statistic.

Sample locations are drawn i.i.d. from a density that is bounded above
and below on the cuboid; measurements are local averages (f * psi) at
those locations.  The centered statistic

    Y(f) at (x, y)  =  |(f * psi)(x, y)| - E_rho |f * psi|

is the quantity whose concentration drives every probability bound in
the bounds module, so its expectation integral is computed with a
sign-exact inner integration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .mixed_space import (BLOCK_BYTES, DEFAULT_QUAD, Cuboid, LatticeSpline, TensorFunction, _clip_box,
                          box_function)
from .piecewise import PiecewisePoly1D, _poly_eval, _real_roots
from .quadrature import QuadratureSpec, axis_rule


@dataclass(frozen=True)
class Density:
    """Probability density on a cuboid, piecewise constant on grid cells.

    cell_edges: per-axis sorted edge arrays spanning the cuboid.
    cell_mass: probability mass per cell; sums to one.
    The density value on a cell is mass / volume; the uniform density is
    the single-cell special case.
    """

    region: Cuboid
    cell_edges: tuple
    cell_mass: np.ndarray

    def __post_init__(self) -> None:
        edges = tuple(np.asarray(e, dtype=float) for e in self.cell_edges)
        mass = np.asarray(self.cell_mass, dtype=float)
        if len(edges) != self.region.ndim:
            raise ValueError("need one edge array per axis")
        expect = tuple(len(e) - 1 for e in edges)
        if mass.shape != expect:
            raise ValueError(f"cell_mass shape {mass.shape} does not match edges {expect}")
        for e, (lo, hi) in zip(edges, self.region.box):
            if abs(e[0] - lo) > 1e-12 or abs(e[-1] - hi) > 1e-12 or not np.all(np.diff(e) > 0):
                raise ValueError("cell edges must span the cuboid with increasing edges")
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > 1e-10:
            raise ValueError("cell masses must be nonnegative and sum to one")
        vols = self._cell_volumes(edges)
        dens = mass / vols
        if np.min(dens) <= 0:
            raise ValueError("density must be bounded away from zero on the cuboid")
        object.__setattr__(self, "cell_edges", edges)
        object.__setattr__(self, "cell_mass", mass)
        object.__setattr__(self, "_density", dens)

    @staticmethod
    def _cell_volumes(edges) -> np.ndarray:
        vols = np.diff(edges[0])
        for e in edges[1:]:
            vols = np.multiply.outer(vols, np.diff(e))
        return vols

    @classmethod
    def uniform(cls, region: Cuboid) -> "Density":
        edges = tuple(np.asarray([lo, hi]) for lo, hi in region.box)
        return cls(region, edges, np.ones((1,) * region.ndim))

    @classmethod
    def piecewise_constant(cls, region: Cuboid, cell_edges, cell_mass) -> "Density":
        return cls(region, tuple(cell_edges), np.asarray(cell_mass, dtype=float))

    @property
    def lower(self) -> float:
        """Uniform lower density bound on the cuboid."""
        return float(np.min(self._density))

    @property
    def upper(self) -> float:
        """Uniform upper density bound on the cuboid."""
        return float(np.max(self._density))

    def _cell_index(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        idx = []
        for a, e in enumerate(self.cell_edges):
            i = np.clip(np.searchsorted(e, points[:, a], side="right") - 1, 0, len(e) - 2)
            idx.append(i)
        return tuple(idx)

    def pdf(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        inside = self.region.contains(pts)
        if inside.any():
            out[inside] = self._density[self._cell_index(pts[inside])]
        return out


@dataclass(frozen=True)
class AveragingKernel:
    """Averaging function psi supported inside the cuboid, with cached L^{1,1} norm."""

    psi: TensorFunction
    region: Cuboid
    l11_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if self.psi.is_zero:
            raise ValueError("averaging kernel must be nonzero")
        for (slo, shi), (lo, hi) in zip(self.psi.support_box(), self.region.box):
            if slo < lo - 1e-12 or shi > hi + 1e-12:
                raise ValueError("kernel support must lie inside the cuboid")
        norm = abs_integral(self.psi, self.region)
        if norm <= 0:
            raise ValueError("kernel must have positive L^{1,1} norm")
        object.__setattr__(self, "l11_norm", norm)

    @classmethod
    def box(cls, bounds, region: Cuboid, weight: float = 1.0) -> "AveragingKernel":
        return cls(box_function(bounds, weight), region)


@dataclass(frozen=True)
class SampleSet:
    """Random sample locations (x_j, y_k), j = 1..n, k = 1..m.

    points holds the nm locations in row-major (j, k) order with shape
    (n*m, d+1).  In separable mode x depends only on j and y only on k.
    Construction checks that every point lies in the cuboid.
    acceptance_rate is always 1.0, because every draw of draw_samples is
    exact; it stays because perfbench/tracing.py reads it.
    """

    points: np.ndarray
    n: int
    m: int
    mode: str
    seed: int
    density: Density
    acceptance_rate: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.n * self.m, self.density.region.ndim):
            raise ValueError("points must have shape (n*m, d+1)")
        if not np.all(self.density.region.contains(pts)):
            raise ValueError("all sample points must lie in the cuboid")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def as_grid(self) -> np.ndarray:
        """Points reshaped to (n, m, d+1)."""
        return self.points.reshape(self.n, self.m, -1)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        d = self.points.shape[1] - 1
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["j", "k"] + ["x"] + [f"y{i+1}" for i in range(d)])
            for j in range(self.n):
                for k in range(self.m):
                    row = self.points[j * self.m + k]
                    writer.writerow([j + 1, k + 1] + [repr(float(v)) for v in row])


def draw_samples(rho: Density, n: int, m: int, seed: int, mode: str = "joint") -> SampleSet:
    """Draw sample locations from the density, deterministically in the seed.

    joint: nm independent exact draws from rho, indexed by (j, k) pairs.
    Each draw picks a cell by inverse CDF on cell_mass and a uniform
    position inside it; the in-cell positions are drawn first, so for the
    uniform density the points are the plain uniform stream of the seed.
    separable: n independent x draws and m independent y draws combined as
    a grid; only defined for the uniform density, whose marginals are
    unambiguous.
    """
    if n < 1 or m < 1:
        raise ValueError("sample counts must be >= 1")
    if mode not in ("joint", "separable"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed)

    if mode == "separable":
        if rho.cell_mass.size != 1:
            raise ValueError("separable mode is only defined for the uniform density")
        lo, hi = np.array(rho.region.box).T
        xs = rng.uniform(lo[0], hi[0], size=n)
        ys = rng.uniform(lo[1:], hi[1:], size=(m, rho.region.d))
        pts = np.concatenate(
            [np.repeat(xs, m)[:, None], np.tile(ys, (n, 1))], axis=1
        )
        return SampleSet(pts, n, m, mode, seed, rho)

    pts = rng.random((n * m, rho.region.ndim))
    cells = rng.choice(rho.cell_mass.size, size=n * m, p=rho.cell_mass.ravel())
    index = np.unravel_index(cells, rho.cell_mass.shape)
    for a, (e, i) in enumerate(zip(rho.cell_edges, index)):
        pts[:, a] = e[i] + (e[i + 1] - e[i]) * pts[:, a]
    return SampleSet(pts, n, m, "joint", seed, rho)


# -- convolution with the averaging kernel ---------------------------------


def _convolve_factors(f: PiecewisePoly1D, g: PiecewisePoly1D) -> PiecewisePoly1D:
    """Exact 1-D convolution; g must be piecewise constant (sums of boxes)."""
    if g.degree > 0:
        raise ValueError("kernel factors must be piecewise constant (box combinations)")
    out = PiecewisePoly1D.zero()
    for i in range(g.num_pieces):
        v = float(g.coeffs[i, 0])
        if v == 0.0:
            continue
        a, b = float(g.breakpoints[i]), float(g.breakpoints[i + 1])
        out = out + v * f.convolve_box(a, b)
    return out


def convolve(f: LatticeSpline, kernel: AveragingKernel) -> LatticeSpline:
    """Closed-form f * psi, term by term; a lattice other than a TensorFunction convolves its generators."""
    if isinstance(f, TensorFunction):
        terms = [(wf * wg, tuple(_convolve_factors(ff, gf) for ff, gf in zip(ffs, gfs)))
                 for wf, ffs in f.terms for wg, gfs in kernel.psi.terms]
        return TensorFunction(terms) if terms else TensorFunction.zero(f.ndim or kernel.psi.ndim)
    return LatticeSpline(tuple(convolve(g, kernel) for g in f.generators), f.coefficients)


def average_sample(f: LatticeSpline, kernel: AveragingKernel, point) -> float:
    """(f * psi) at a single location, from the closed-form convolution."""
    return convolve(f, kernel).evaluate(np.asarray(point, dtype=float))


# -- absolute integrals and the centered statistic -------------------------


def _abs_segment_integrals(coeffs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact integrals of |p| over [0, h] for every row p of ascending coefficients.

    Each row is split at its real roots inside (0, h), found by
    _real_roots in one stacked step per true degree; the antiderivative
    is then evaluated at the sorted cuts in one Horner pass.  Unused cut
    slots hold 0 and add empty intervals.
    """
    rows, width = coeffs.shape
    cuts = np.zeros((rows, width + 1))
    cuts[:, -1] = h
    roots, inside = _real_roots(coeffs, h)
    cuts[:, 1:width] = np.where(inside, roots, 0.0)
    cuts.sort(axis=1)
    anti = np.concatenate([np.zeros((rows, 1)), coeffs / np.arange(1, width + 1)], axis=1)
    vals = _poly_eval(anti.T[:, :, None], cuts)
    return np.abs(np.diff(vals, axis=1)).sum(axis=1)


def abs_integral(
    f: LatticeSpline,
    region=None,
    quad: QuadratureSpec = DEFAULT_QUAD,
    density: Density | None = None,
) -> float:
    """Integral of rho * |f| over the region (rho = 1 when density is None).

    f is read through its cell form, split at the density edges too.  The
    last axis is exact: at each outer node, its outer cells' coefficients
    times its local powers give every last-axis segment's polynomial, split
    at its sign changes.  The outer axes use Gauss panels on the cell edges
    refined 4x, in node blocks that fit BLOCK_BYTES, so memory does not grow
    with the quadrature tensor.
    """
    box = _clip_box(f, region if region is not None else (density.region if density else None))
    if box is None:
        return 0.0

    last = f.ndim - 1
    edges, coeffs = f.cells(box, None if density is None else density.cell_edges)
    if density is not None:
        # rho is constant on every cell, and rho |f| = |rho f| there
        mids = np.stack(np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in edges], indexing="ij"), axis=-1)
        coeffs = coeffs * density.pdf(mids.reshape(-1, f.ndim)).reshape(mids.shape[:-1] + (1,) * f.ndim)
    # outer cells, outer powers, then last-axis segments and their powers
    coeffs = np.moveaxis(coeffs, last, -2)
    nseg, width = coeffs.shape[-2:]
    outer_spec = QuadratureSpec(quad.order, quad.refine * 4)
    rules = [axis_rule(lo, hi, e, outer_spec) for (lo, hi), e in zip(box[:last], edges)]
    # per outer axis: each node's cell and the powers of its offset from that cell's left edge
    cells = [np.searchsorted(e, nodes, side="right") - 1 for e, (nodes, _) in zip(edges, rules)]
    powers = [(nodes - e[i])[:, None] ** np.arange(w)
              for e, i, (nodes, _), w in zip(edges, cells, rules, coeffs.shape[last:-2])]
    seg_h = np.diff(edges[last])

    shape = tuple(len(nodes) for nodes, _ in rules)
    node_bytes = 8 * nseg * (math.prod(coeffs.shape[last:-2]) * width + (width + 2) ** 2 + f.ndim)
    block = max(1, BLOCK_BYTES // node_bytes)
    count = math.prod(shape)
    total = 0.0
    for start in range(0, count, block):
        idx = np.unravel_index(np.arange(start, min(start + block, count)), shape)
        seg = coeffs[tuple(c[i] for c, i in zip(cells, idx))]
        for pw, i in zip(powers, idx):
            seg = np.einsum("bj...,bj->b...", seg, pw[i])
        inner = _abs_segment_integrals(seg.reshape(-1, width), np.tile(seg_h, len(idx[0]))).reshape(-1, nseg)
        wts = np.prod([w[i] for (_, w), i in zip(rules, idx)], axis=0)
        total += float(wts @ inner.sum(axis=1))
    return total


class AverageSampleStatistic:
    """Precomputed centered statistic Y(f) for one (f, psi, rho) triple."""

    def __init__(self, f: LatticeSpline, kernel: AveragingKernel, rho: Density,
                 quad: QuadratureSpec = DEFAULT_QUAD):
        self.conv = convolve(f, kernel)
        self.kernel = kernel
        self.rho = rho
        self.mean_abs = abs_integral(self.conv, rho.region, quad, density=rho)

    def at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(self.conv.evaluate(pts)) - self.mean_abs

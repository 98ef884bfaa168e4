"""Cuboids, tensor-product functions, coefficient grids and mixed norms.

Functions on R x R^d are finite sums of separable terms
``weight * prod_a factor_a(coordinate_a)`` with piecewise-polynomial
factors, which covers the generators, the signals and their convolutions
with box kernels in closed form.  The mixed L^{p,q} norm integrates the
inner q-norm over the last d axes and the outer p-norm over the first
axis; quadrature panels are aligned with every factor breakpoint so the
piecewise-polynomial integrands are handled near exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .piecewise import PiecewisePoly1D, _poly_eval, _real_roots, bspline
from .quadrature import QuadratureSpec, axis_rule, panel_edges

DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class Cuboid:
    """The centered box [-K1, K1] x [-K2, K2]^d."""

    K1: float
    K2: float
    d: int = 1

    def __post_init__(self) -> None:
        if self.K1 <= 0 or self.K2 <= 0:
            raise ValueError("cuboid half-widths must be positive")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")

    @property
    def ndim(self) -> int:
        return self.d + 1

    @property
    def box(self) -> list[tuple[float, float]]:
        return [(-self.K1, self.K1)] + [(-self.K2, self.K2)] * self.d

    @property
    def volume(self) -> float:
        return (2.0 * self.K1) * (2.0 * self.K2) ** self.d

    def scaled(self, factor: float) -> "Cuboid":
        return Cuboid(factor * self.K1, factor * self.K2, self.d)

    def contains(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array([b[0] for b in self.box]) - slack
        hi = np.array([b[1] for b in self.box]) + slack
        return np.all((pts >= lo) & (pts <= hi), axis=1)


def _as_box(region, f: "TensorFunction | None" = None) -> list[tuple[float, float]] | None:
    if region is None:
        return None if f is None else f.support_box()
    if isinstance(region, Cuboid):
        return region.box
    return [(float(lo), float(hi)) for lo, hi in region]


class TensorFunction:
    """Finite sum of separable piecewise-polynomial terms on R x R^d."""

    def __init__(self, terms):
        terms = [(float(w), tuple(fs)) for w, fs in terms if w != 0.0 and not any(f.is_zero for f in fs)]
        if terms:
            ndim = len(terms[0][1])
            if any(len(fs) != ndim for _, fs in terms):
                raise ValueError("all terms must have the same number of axis factors")
            self._ndim = ndim
        else:
            self._ndim = 0
        self.terms = tuple(terms)

    @classmethod
    def zero(cls, ndim: int = 2) -> "TensorFunction":
        f = cls([])
        f._ndim = ndim
        return f

    @classmethod
    def separable(cls, factors, weight: float = 1.0) -> "TensorFunction":
        return cls([(weight, tuple(factors))])

    @property
    def ndim(self) -> int:
        return self._ndim

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    # -- geometry -------------------------------------------------------

    def support_box(self) -> list[tuple[float, float]]:
        """Bounding box of the union of term support boxes."""
        if self.is_zero:
            return [(0.0, 0.0)] * max(self._ndim, 1)
        box = []
        for a in range(self._ndim):
            los, his = zip(*(fs[a].support for _, fs in self.terms))
            box.append((min(los), max(his)))
        return box

    def axis_breakpoints(self, axis: int) -> np.ndarray:
        if self.is_zero:
            return np.empty(0)
        return np.unique(np.concatenate([fs[axis].breakpoints for _, fs in self.terms]))

    def axis_critical_points(self, axis: int) -> np.ndarray:
        """Interior stationary points of every term's factor on one axis."""
        if self.is_zero:
            return np.empty(0)
        return np.concatenate([fs[axis].critical_points() for _, fs in self.terms])

    # -- evaluation -------------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values; points has shape (..., d+1)."""
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[0])
        for w, fs in self.terms:
            vals = np.full(pts.shape[0], w)
            for a, f in enumerate(fs):
                vals *= f(pts[:, a])
            out += vals
        return float(out[0]) if scalar else out

    def __call__(self, *coords) -> float:
        return self.evaluate(np.asarray(coords, dtype=float))

    def evaluate_grid(self, axes) -> np.ndarray:
        """Values on the tensor grid spanned by per-axis node arrays, one per axis."""
        if len(axes) != self._ndim:
            raise ValueError(f"evaluate_grid needs {self._ndim} axes, got {len(axes)}")
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape)
        for w, fs in self.terms:
            vals = [f(np.asarray(ax, dtype=float)) for f, ax in zip(fs, axes)]
            out += w * reduce(np.multiply.outer, vals)
        return out

    # -- algebra ----------------------------------------------------------

    def shift(self, offsets) -> "TensorFunction":
        offs = np.asarray(offsets, dtype=float)
        return TensorFunction(
            [(w, tuple(f.shift_scale(o, 1.0) for f, o in zip(fs, offs))) for w, fs in self.terms]
        ) if self.terms else TensorFunction.zero(self._ndim)

    def __mul__(self, scalar: float) -> "TensorFunction":
        if scalar == 0 or self.is_zero:
            return TensorFunction.zero(self._ndim)
        return TensorFunction([(w * float(scalar), fs) for w, fs in self.terms])

    __rmul__ = __mul__

    def __neg__(self) -> "TensorFunction":
        return self * -1.0

    def __add__(self, other: "TensorFunction") -> "TensorFunction":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._ndim != other._ndim:
            raise ValueError("cannot add tensor functions of different dimensions")
        return TensorFunction(list(self.terms) + list(other.terms))

    def __sub__(self, other: "TensorFunction") -> "TensorFunction":
        return self + (-other)


def tensor_bspline(degrees, shifts=None, weight: float = 1.0) -> TensorFunction:
    """Separable product of cardinal B-splines, optionally shifted per axis."""
    degrees = list(degrees)
    shifts = [0.0] * len(degrees) if shifts is None else list(shifts)
    factors = [bspline(n).shift_scale(s, 1.0) for n, s in zip(degrees, shifts)]
    return TensorFunction.separable(factors, weight)


def box_function(bounds, weight: float = 1.0) -> TensorFunction:
    """weight * indicator of the axis-aligned box given by (lo, hi) pairs."""
    factors = [PiecewisePoly1D.indicator(lo, hi) for lo, hi in bounds]
    return TensorFunction.separable(factors, weight)


@dataclass(frozen=True)
class GeneratorSet:
    """Generators with polynomial-decay metadata and stability constants.

    decay_c, decay_s1, decay_s2 describe the envelope
    ``|phi(x, y)| <= decay_c / ((1+|x|)^s1 (1+|y|)^s2)`` and alpha1 <= alpha2
    bracket the norm equivalence between coefficients and synthesized
    functions.  Stability constants may be supplied or computed by
    estimate_stability (certified Gram bounds for p = q = 2).
    """

    generators: tuple[TensorFunction, ...]
    decay_c: float
    decay_s1: float
    decay_s2: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if len(self.generators) < 1:
            raise ValueError("at least one generator is required")
        object.__setattr__(self, "generators", tuple(self.generators))
        for name in ("decay_c", "decay_s1", "decay_s2", "alpha1", "alpha2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha1 > self.alpha2:
            raise ValueError("alpha1 must not exceed alpha2")

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def ndim(self) -> int:
        return self.generators[0].ndim

    @property
    def d(self) -> int:
        return self.ndim - 1

    def check_exponents(self, p: float, q: float) -> None:
        """Decay exponents must exceed d + 1 - 1/p - d/q for the space in use."""
        d = self.d
        floor = d + 1 - 1.0 / p - d / q
        if self.decay_s1 <= floor or self.decay_s2 <= floor:
            raise ValueError(
                f"decay exponents ({self.decay_s1}, {self.decay_s2}) must exceed "
                f"d+1-1/p-d/q = {floor:.6g}"
            )


def _weighted_max(g: PiecewisePoly1D, s: float) -> float:
    """sup_t |g(t)| (1+|t|)^s, one-sided limits at breakpoints included.

    On each piece the weighted function is smooth on either side of t = 0,
    so its maximum sits at a piece end, at t = 0, or at a real root of
    g'(t) (1+|t|) + sign(t) s g(t).  Both signs are solved on every piece
    in local coordinates; a root on the wrong side of 0 is still a point of
    the piece, so it can only add a lower candidate.
    """
    if g.num_pieces == 0:
        return 0.0
    t0 = g.breakpoints[:-1]
    h = np.diff(g.breakpoints)
    p = g.coeffs
    dp = np.zeros_like(p)
    dp[:, :-1] = p[:, 1:] * np.arange(1, p.shape[1])
    # (1 + sign t) g'(t) + sign s g(t) with t = t0 + u, both signs in one stack
    sign = np.array([1.0, -1.0])[:, None, None]
    q = (1.0 + sign * t0[:, None]) * dp + sign * s * p
    q[:, :, 1:] += sign * dp[:, :-1]
    roots, inside = _real_roots(q.reshape(-1, p.shape[1]), np.tile(h, 2))
    u = np.hstack([np.zeros((len(h), 1)), h[:, None], np.clip(-t0, 0.0, h)[:, None],
                   *np.where(inside, roots, 0.0).reshape(2, len(h), -1)])
    vals = np.abs(_poly_eval(p.T[:, :, None], u)) * (1.0 + np.abs(t0[:, None] + u)) ** s
    return float(np.max(vals))


def decay_constant(f: TensorFunction, s1: float, s2: float) -> float:
    """Envelope constant C with |f(x,y)| (1+|x|)^s1 (1+|y|)^s2 <= C.

    Uses the max norm for |y| when d > 1.  Each term contributes |w| times
    the product of its per-axis 1-D maxima of |g(t)| (1+|t|)^s, each exact
    (see _weighted_max).  For one term with d = 1 that is the tight value,
    which is what the B-spline generators need; for several terms the sum
    is an envelope by the triangle inequality.
    """
    def term_max(w: float, fs) -> float:
        out = abs(w)
        for a, g in enumerate(fs):
            out *= _weighted_max(g, s1 if a == 0 else s2)
        return out

    return float(sum(term_max(w, fs) for w, fs in f.terms))


class CoefficientGrid:
    """Real coefficients c_i(k1, k2) for |k1|, |k2| <= N over r generators.

    values has shape (r,) + (2N+1,) * (d+1); shift axes are offset by N so
    that index N corresponds to shift 0.
    """

    def __init__(self, values: np.ndarray, N: int):
        values = np.asarray(values, dtype=float)
        if values.ndim < 2:
            raise ValueError("values must have a generator axis plus shift axes")
        if any(s != 2 * N + 1 for s in values.shape[1:]):
            raise ValueError("every shift axis must have length 2N+1")
        self.values = values
        self.N = int(N)

    @classmethod
    def zeros(cls, r: int, N: int, d: int) -> "CoefficientGrid":
        return cls(np.zeros((r,) + (2 * N + 1,) * (d + 1)), N)

    @classmethod
    def from_entries(cls, r: int, N: int, d: int, entries) -> "CoefficientGrid":
        """entries: iterable of (generator index, shift multi-index, value)."""
        grid = cls.zeros(r, N, d)
        for i, k, v in entries:
            grid.set(i, k, v)
        return grid

    @property
    def r(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.ndim - 2

    @property
    def size(self) -> int:
        return self.values.size

    def _slot(self, k) -> tuple[int, ...]:
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if np.any(np.abs(k) > self.N):
            raise IndexError(f"shift {k} outside [-N, N] with N={self.N}")
        return tuple(k + self.N)

    def get(self, i: int, k) -> float:
        return float(self.values[(i, *self._slot(k))])

    def set(self, i: int, k, value: float) -> None:
        self.values[(i, *self._slot(k))] = value

    def shifts(self) -> list[tuple[int, ...]]:
        """All shift multi-indices in column order (k1 outer, k2 lexicographic)."""
        rng = range(-self.N, self.N + 1)
        return [tuple(k) for k in itertools.product(rng, repeat=self.d + 1)]

    def flatten(self) -> np.ndarray:
        return self.values.reshape(-1)

    @classmethod
    def from_flat(cls, flat: np.ndarray, r: int, N: int, d: int) -> "CoefficientGrid":
        return cls(np.asarray(flat, dtype=float).reshape((r,) + (2 * N + 1,) * (d + 1)), N)

    def seq_mixed_norm(self, p: float, q: float) -> float:
        """Sum over generators of the block l^{p,q} norms.

        The inner q-sum runs over all k2 axes jointly, the outer p-sum over
        k1.  p = q = inf returns the max absolute entry.
        """
        if np.isinf(p) and np.isinf(q):
            return float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if not (1 <= p < np.inf and 1 <= q < np.inf):
            raise ValueError("exponents must be finite and >= 1 (or both infinite)")
        total = 0.0
        for block in self.values:
            inner = np.sum(np.abs(block) ** q, axis=tuple(range(1, block.ndim)))
            total += float(np.sum(inner ** (p / q)) ** (1.0 / p))
        return total

    def __add__(self, other: "CoefficientGrid") -> "CoefficientGrid":
        return CoefficientGrid(self.values + other.values, self.N)

    def __mul__(self, scalar: float) -> "CoefficientGrid":
        return CoefficientGrid(self.values * float(scalar), self.N)

    __rmul__ = __mul__

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """One row per entry: generator, k1, k2 components, value."""
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["generator", "k1"] + [f"k2_{a+1}" for a in range(self.d)] + ["value"])
            for i in range(self.r):
                for k in self.shifts():
                    writer.writerow([i, *k, repr(self.get(i, k))])


def random_unit_grid(r: int, N: int, d: int, p: float, q: float, rng: np.random.Generator) -> CoefficientGrid:
    """Random coefficient grid normalized to unit l^{p,q} norm."""
    values = rng.standard_normal((r,) + (2 * N + 1,) * (d + 1))
    grid = CoefficientGrid(values, N)
    norm = grid.seq_mixed_norm(p, q)
    return grid * (1.0 / norm)


def synthesize(generators, c: CoefficientGrid) -> TensorFunction:
    """Sum_i sum_{|k| <= N} c_i(k) phi_i(. - k) as an explicit TensorFunction."""
    funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
    terms = []
    for i, phi in enumerate(funcs):
        block = c.values[i]
        for idx in np.argwhere(block != 0.0):
            k = idx - c.N
            shifted = phi.shift(k)
            w = float(block[tuple(idx)])
            terms.extend((w * tw, tf) for tw, tf in shifted.terms)
    out = TensorFunction(terms)
    if out.is_zero:
        out._ndim = funcs[0].ndim
    return out


class LatticeSpline:
    """Sum_i sum_{|k| <= N} c_i(k) phi_i(. - k), kept as generators plus coefficients.

    The same function synthesize expands into one term per coefficient.
    Here a tensor grid is evaluated by contracting each generator term's
    coefficient block, axis by axis, with the shift matrices
    factor(nodes - k) (mode-n products), so the cost grows with the grid
    plus the coefficients, not with their product.  Support, breakpoints
    and critical points are those of the shifts with a nonzero
    coefficient, as for the expanded function.
    """

    def __init__(self, generators, c: CoefficientGrid):
        funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
        self.ndim = funcs[0].ndim
        self.N = c.N
        # (generator, coefficient block, per axis the shifts with a nonzero coefficient)
        self._parts = []
        for phi, block in zip(funcs, c.values):
            nonzero = block != 0.0
            if phi.is_zero or not nonzero.any():
                continue
            shifts = [np.flatnonzero(nonzero.any(axis=tuple(b for b in range(self.ndim) if b != a)))
                      - float(c.N) for a in range(self.ndim)]
            self._parts.append((phi, block, shifts))

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def _shifted(self, axis: int, points) -> list[np.ndarray]:
        """Per generator term: every point plus every active shift on the axis."""
        return [(np.asarray(points(fs[axis]), dtype=float)[:, None] + ks[axis]).ravel()
                for phi, _, ks in self._parts for _, fs in phi.terms]

    def support_box(self) -> list[tuple[float, float]]:
        if self.is_zero:
            return [(0.0, 0.0)] * self.ndim
        box = []
        for a in range(self.ndim):
            ends = np.concatenate(self._shifted(a, lambda g: g.support))
            box.append((float(ends.min()), float(ends.max())))
        return box

    def axis_breakpoints(self, axis: int) -> np.ndarray:
        if self.is_zero:
            return np.empty(0)
        return np.unique(np.concatenate(self._shifted(axis, lambda g: g.breakpoints)))

    def axis_critical_points(self, axis: int) -> np.ndarray:
        """Stationary points of each distinct factor, found once and shifted."""
        if self.is_zero:
            return np.empty(0)
        return np.concatenate(self._shifted(axis, lambda g: g.critical_points()))

    def evaluate_grid(self, axes) -> np.ndarray:
        """Values on the tensor grid spanned by per-axis node arrays, one per axis."""
        if len(axes) != self.ndim:
            raise ValueError(f"evaluate_grid needs {self.ndim} axes, got {len(axes)}")
        offsets = np.arange(-self.N, self.N + 1, dtype=float)
        out = None
        for phi, block, _ in self._parts:
            for w, fs in phi.terms:
                vals = w * block
                for g, ax in zip(fs, axes):
                    # contract the leading shift axis; the node axis goes last
                    shift_matrix = g(np.asarray(ax, dtype=float)[:, None] - offsets)
                    vals = np.tensordot(vals, shift_matrix, axes=(0, 1))
                if out is None:
                    out = vals
                else:
                    out += vals
        return np.zeros(tuple(len(ax) for ax in axes)) if out is None else out


# -- norms ----------------------------------------------------------------


def _axis_rules(f: TensorFunction, box, quad: QuadratureSpec, extra_breaks=None):
    rules = []
    for a, (lo, hi) in enumerate(box):
        breaks = f.axis_breakpoints(a)
        if extra_breaks is not None:
            breaks = np.concatenate([breaks, np.asarray(extra_breaks[a], dtype=float)])
        rules.append(axis_rule(lo, hi, breaks, quad))
    return rules


def _clip_box(f: TensorFunction, region) -> list[tuple[float, float]] | None:
    box = _as_box(region, f)
    sup = f.support_box()
    out = []
    for (lo, hi), (slo, shi) in zip(box, sup):
        a, b = max(lo, slo), min(hi, shi)
        if b <= a:
            return None
        out.append((a, b))
    return out


def mixed_norm(f: TensorFunction, p: float, q: float, region=None, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Mixed norm ( int_x ( int_y |f|^q dy )^{p/q} dx )^{1/p} over the region.

    region None means the support bounding box, which equals the global
    norm for compactly supported functions.
    """
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError("mixed_norm requires 1 < p, q < infinity")
    if f.is_zero:
        return 0.0
    box = _clip_box(f, region)
    if box is None:
        return 0.0
    rules = _axis_rules(f, box, quad)
    if any(len(r[0]) == 0 for r in rules):
        return 0.0
    vals = np.abs(f.evaluate_grid([r[0] for r in rules])) ** q
    for _, w in rules[:0:-1]:
        vals = vals @ w
    outer = np.sum(rules[0][1] * vals ** (p / q))
    return float(outer ** (1.0 / p))


#: Grid points per breakpoint interval, and local refinements of the
#: winning cell, in sup_norm's search.
SUP_POINTS_PER_PIECE = 33
SUP_REFINE_STEPS = 4


def sup_norm(f: TensorFunction, region=None) -> float:
    """Max of |f| over a breakpoint-refined grid plus per-piece stationary points.

    The winning grid cell is then refined locally a few times, which
    recovers interior maxima that sit between grid lines.  f is a
    TensorFunction or a LatticeSpline; both give the same candidate grid.
    """
    if f.is_zero:
        return 0.0
    box = _clip_box(f, region)
    if box is None:
        return 0.0
    axes = []
    for a, (lo, hi) in enumerate(box):
        edges = panel_edges(lo, hi, f.axis_breakpoints(a))
        cands = [edges]
        for s, e in zip(edges[:-1], edges[1:]):
            cands.append(np.linspace(s, e, SUP_POINTS_PER_PIECE))
        crit = f.axis_critical_points(a)
        cands.append(crit[(crit >= lo) & (crit <= hi)])
        axes.append(np.unique(np.concatenate(cands)))
    vals = f.evaluate_grid(axes)
    np.abs(vals, out=vals)
    best = float(np.max(vals))
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    center = [axes[a][i] for a, i in enumerate(idx)]
    spans = []
    for a, i in enumerate(idx):
        left = axes[a][max(i - 1, 0)]
        right = axes[a][min(i + 1, len(axes[a]) - 1)]
        spans.append(max(right - center[a], center[a] - left, 1e-12))
    for _ in range(SUP_REFINE_STEPS):
        local = []
        for a, (lo, hi) in enumerate(box):
            pts = np.linspace(center[a] - spans[a], center[a] + spans[a], 17)
            local.append(np.clip(pts, lo, hi))
        lv = np.abs(f.evaluate_grid(local))
        li = np.unravel_index(int(np.argmax(lv)), lv.shape)
        best = max(best, float(lv[li]))
        center = [local[a][i] for a, i in enumerate(li)]
        spans = [s / 8.0 for s in spans]
    return best


def integral(f: TensorFunction, region=None, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Plain integral of f over the region (exact for aligned panels)."""
    if f.is_zero:
        return 0.0
    box = _clip_box(f, region)
    if box is None:
        return 0.0
    rules = _axis_rules(f, box, quad)
    vals = f.evaluate_grid([r[0] for r in rules])
    for _, w in rules[::-1]:
        vals = vals @ w
    return float(vals)


def lp_norm_1d(f: PiecewisePoly1D, p: float, interval=None, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """L^p norm of a 1-D piecewise polynomial over an interval."""
    if f.is_zero:
        return 0.0
    lo, hi = f.support if interval is None else interval
    slo, shi = f.support
    lo, hi = max(lo, slo), min(hi, shi)
    if hi <= lo:
        return 0.0
    nodes, weights = axis_rule(lo, hi, f.breakpoints, quad)
    return float(np.sum(weights * np.abs(f(nodes)) ** p) ** (1.0 / p))


def lpq_norm(values: np.ndarray, p: float, q: float) -> float:
    """l^{p,q} norm of a 2-D sample array (outer axis p, inner axis q)."""
    arr = np.abs(np.asarray(values, dtype=float))
    inner = np.sum(arr ** q, axis=1)
    return float(np.sum(inner ** (p / q)) ** (1.0 / p))


def _shift_gram(funcs, N: int, region, quad: QuadratureSpec) -> np.ndarray:
    """Gram matrix of the shifts f_i(. - k), |k| <= N, over the region (None: everywhere).

    Rows and columns run over (i, k) in CoefficientGrid.flatten order.  Each
    block is a sum over term pairs of Kronecker products of per-axis 1-D
    Grams, integrated with one rule per axis whose panels contain every
    shifted breakpoint, so no tensor quadrature grid is formed.
    """
    offsets = np.arange(-N, N + 1, dtype=float)
    box = _as_box(region)
    rules = []
    for a in range(funcs[0].ndim):
        breaks = np.concatenate([(f.axis_breakpoints(a)[:, None] + offsets).ravel() for f in funcs])
        lo, hi = (breaks.min(), breaks.max()) if box is None else box[a]
        rules.append(axis_rule(lo, hi, breaks, quad))
    # per function, per term: (weight, [factor a at node - k for each axis a])
    terms = [[(w, [g(nodes[:, None] - offsets) for g, (nodes, _) in zip(fs, rules)])
              for w, fs in f.terms] for f in funcs]

    def block(f_terms, g_terms):
        return sum(w * v * reduce(np.kron, [x.T @ (wts[:, None] * y)
                                            for x, y, (_, wts) in zip(fx, gx, rules)])
                   for w, fx in f_terms for v, gx in g_terms)

    return np.block([[block(f_terms, g_terms) for g_terms in terms] for f_terms in terms])


def estimate_stability(
    generators,
    p: float,
    q: float,
    N: int,
    trials: int = 50,
    seed: int = 0,
    quad: QuadratureSpec = DEFAULT_QUAD,
    region=None,
) -> tuple[float, float]:
    """Bounds of ||sum_{i, |k| <= N} c_i(k) f_i(. - k)|| / ||c|| over the region (None: all).

    ||c|| is CoefficientGrid.seq_mixed_norm.  For p = q = 2 the bounds come
    from the extreme Gram eigenvalues, which are exact against the Euclidean
    coefficient norm; the block-summed norm lies between that norm and
    sqrt(r) times it, so the lower bound is sqrt(lambda_min / r) and the
    upper one sqrt(lambda_max), both certified (both exact for r = 1).
    Other exponents return the (min, max) over `trials` seeded random
    unit-coefficient grids: an upper estimate of the lower constant and a
    lower estimate of the upper one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
    if p == 2.0 and q == 2.0:
        lam = np.linalg.eigvalsh(_shift_gram(funcs, N, region, quad))
        return float(np.sqrt(max(lam[0], 0.0) / len(funcs))), float(np.sqrt(max(lam[-1], 0.0)))
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, 0.0
    for _ in range(trials):
        c = random_unit_grid(len(funcs), N, funcs[0].ndim - 1, p, q, rng)
        norm = mixed_norm(synthesize(funcs, c), p, q, region, quad)
        lo, hi = min(lo, norm), max(hi, norm)
    return lo, hi

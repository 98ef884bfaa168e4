"""Cuboids, lattice splines, coefficient grids and mixed norms.

Functions on R x R^d are lattice splines sum_k c(k) phi(. - k) whose
generators are finite sums of separable terms ``weight * prod_a
factor_a(coordinate_a)`` with piecewise-polynomial factors, closed under
convolution with box kernels; such a sum, a TensorFunction, is the N = 0
lattice of itself.  The mixed L^{p,q} norm integrates the inner q-norm
over the last d axes and the outer p-norm over the first axis; quadrature
panels are aligned with every factor breakpoint so the
piecewise-polynomial integrands are handled near exactly.
"""

from __future__ import annotations

import math
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

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.abs(pts) <= np.array([self.K1] + [self.K2] * self.d)).all(axis=1)


def _as_box(region) -> list[tuple[float, float]] | None:
    if region is None:
        return None
    if isinstance(region, Cuboid):
        return region.box
    return [(float(lo), float(hi)) for lo, hi in region]


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

    def _slot(self, i: int, k) -> tuple[int, ...]:
        if not 0 <= i < self.r:
            raise IndexError(f"generator {i} outside [0, {self.r})")
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if k.shape != (self.values.ndim - 1,):
            raise ValueError(f"shift {k} needs {self.values.ndim - 1} entries")
        if np.any(np.abs(k) > self.N):
            raise IndexError(f"shift {k} outside [-N, N] with N={self.N}")
        return (i, *(k + self.N))

    def get(self, i: int, k) -> float:
        return float(self.values[self._slot(i, k)])

    def set(self, i: int, k, value: float) -> None:
        self.values[self._slot(i, k)] = value

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


def random_unit_grid(r: int, N: int, d: int, p: float, q: float, rng: np.random.Generator) -> CoefficientGrid:
    """Random coefficient grid normalized to unit l^{p,q} norm."""
    values = rng.standard_normal((r,) + (2 * N + 1,) * (d + 1))
    grid = CoefficientGrid(values, N)
    norm = grid.seq_mixed_norm(p, q)
    return grid * (1.0 / norm)


def synthesize(generators, c: CoefficientGrid) -> TensorFunction:
    """The test oracle: sum_i sum_{|k| <= N} c_i(k) phi_i(. - k) as one TensorFunction term per coefficient."""
    funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
    terms = []
    for i, phi in enumerate(funcs):
        block = c.values[i]
        for idx in np.argwhere(block != 0.0):
            k = idx - c.N
            shifted = phi.shift(k)
            w = float(block[tuple(idx)])
            terms.extend((w * tw, tf) for tw, tf in shifted.terms)
    return TensorFunction(terms) if terms else TensorFunction.zero(funcs[0].ndim)


def _axis_values(f: TensorFunction, points: np.ndarray, axis: int, shifts: np.ndarray) -> np.ndarray:
    """(P, shifts, terms): each term's axis factor, weighted on axis 0, at every point minus every shift."""
    vals = np.zeros((points.shape[0], len(shifts), len(f.terms)))
    for t, (w, fs) in enumerate(f.terms):
        vals[:, :, t] = fs[axis](points[:, axis, None] - shifts[None, :]) * (w if axis == 0 else 1.0)
    return vals


def _shifted_values(funcs, points: np.ndarray, shifts) -> np.ndarray:
    """f(. - k) at the points for every function f and every k in the product of per-axis shift arrays.

    One column block per function, its shifts in lexicographic order: the
    Khatri-Rao product over the axes of _axis_values, summed over terms.
    """
    def block(f):
        vals = _axis_values(f, points, 0, shifts[0])
        for a in range(1, len(shifts)):
            vals = (vals[:, :, None, :] * _axis_values(f, points, a, shifts[a])[:, None, :, :]
                    ).reshape(points.shape[0], -1, len(f.terms))
        return vals.sum(axis=2)

    return np.concatenate([block(f) for f in funcs], axis=1)


class LatticeSpline:
    """Sum_i sum_{|k| <= N} c_i(k) phi_i(. - k), kept as generators plus coefficients.

    The package computes with such a function only in this form;
    synthesize, its expansion into one term per coefficient, is the test
    oracle.  Each generator term's coefficient block, cut to the shifts k
    with a nonzero coefficient, is contracted axis by axis with a matrix
    over them (mode-n products): factor(x_a - k_a) row by row in evaluate,
    factor(nodes - k) in evaluate_grid, the local piece coefficients of
    factor(. - k) on every cell in cells (the cell form).  The cost grows
    with the output plus the coefficients, not with their product.  A
    TensorFunction is the N = 0 lattice of itself.
    """

    def __init__(self, generators, c: CoefficientGrid):
        funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
        self.generators = funcs
        self.coefficients = c
        self.ndim = funcs[0].ndim
        # (generator, block over the active shifts, per axis the shifts with a nonzero coefficient)
        self._parts = []
        for phi, block in zip(funcs, c.values):
            nonzero = block != 0.0
            if phi.is_zero or not nonzero.any():
                continue
            active = [np.flatnonzero(nonzero.any(axis=tuple(b for b in range(self.ndim) if b != a)))
                      for a in range(self.ndim)]
            self._parts.append((phi, block[np.ix_(*active)], [k - float(c.N) for k in active]))

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def _shifted(self, axis: int, points) -> list[np.ndarray]:
        """Per generator term: every point plus every active shift on the axis."""
        return [(np.asarray(points(fs[axis]), dtype=float)[:, None] + ks[axis]).ravel()
                for phi, _, ks in self._parts for _, fs in phi.terms]

    def support_box(self) -> list[tuple[float, float]]:
        """Bounding box of the shifted terms: factor support ends plus the first and last active shift."""
        if self.is_zero:
            return [(0.0, 0.0)] * self.ndim
        box = []
        for a in range(self.ndim):
            los, his = zip(*((fs[a].support[0] + ks[a][0], fs[a].support[1] + ks[a][-1])
                             for phi, _, ks in self._parts for _, fs in phi.terms))
            box.append((float(min(los)), float(max(his))))
        return box

    def axis_breakpoints(self, axis: int) -> np.ndarray:
        if self.is_zero:
            return np.empty(0)
        return np.unique(np.concatenate(self._shifted(axis, lambda g: g.breakpoints)))

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values; points has shape (P, d+1), or (d+1,) for one point.

        The first axis's _axis_values contract the block, each later axis's
        the result row by row: einsum, not BLAS, so that a point's value does
        not depend on the other points evaluated with it.
        """
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = np.zeros(pts.shape[0])
        for phi, block, ks in self._parts:
            vals = np.einsum("pkt,k...->pt...", _axis_values(phi, pts, 0, ks[0]), block)
            for a in range(1, self.ndim):
                vals = np.einsum("pkt,ptk...->pt...", _axis_values(phi, pts, a, ks[a]), vals)
            out += vals.sum(axis=1)
        return float(out[0]) if scalar else out

    def _contract(self, matrix) -> np.ndarray | None:
        """Sum over generator terms of w * block times matrix(a, factor, shifts) on each axis a.

        Each (rows, shifts) matrix contracts the leading shift axis and
        appends its row axis.  None for the zero spline.
        """
        out = None
        for phi, block, ks in self._parts:
            for w, fs in phi.terms:
                vals = w * block
                for a, g in enumerate(fs):
                    rows = vals.reshape(len(ks[a]), -1).T @ matrix(a, g, ks[a]).T
                    vals = rows.reshape(vals.shape[1:] + (-1,))
                out = vals if out is None else out + vals
        return out

    def evaluate_grid(self, axes) -> np.ndarray:
        """Values on the tensor grid spanned by per-axis node arrays, one per axis."""
        if len(axes) != self.ndim:
            raise ValueError(f"evaluate_grid needs {self.ndim} axes, got {len(axes)}")
        out = self._contract(lambda a, g, ks: g(np.asarray(axes[a], dtype=float)[:, None] - ks))
        return np.zeros(tuple(len(ax) for ax in axes)) if out is None else out

    def cells(self, box, extra_breaks=None) -> tuple[list[np.ndarray], np.ndarray]:
        """The cell form on a box: per-axis cell edges and each cell's tensor polynomial.

        The cells are the product grid of panel_edges of the box with the
        axis breakpoints plus extra_breaks (one array per axis).
        coeffs[j_0, .., j_d, m_0, .., m_d] multiplies
        prod_a (x_a - edges[a][j_a])^m_a on cell (j_0, .., j_d).
        """
        extra = extra_breaks or [()] * self.ndim
        edges = [panel_edges(lo, hi, np.concatenate([*self._shifted(a, lambda g: g.breakpoints), extra[a]]))
                 for a, (lo, hi) in enumerate(box)]
        widths = [max(fs[a].coeffs.shape[1] for phi, _, _ in self._parts for _, fs in phi.terms)
                  for a in range(self.ndim)]

        def local(a, g, ks):
            # g(. - k) on the cells is g on the cells shifted by -k, in the same local coordinate
            rows = np.zeros((len(edges[a]) - 1, widths[a], len(ks)))
            rows[:, : g.coeffs.shape[1]] = g.resampled(edges[a] - ks[:, None]).transpose(1, 2, 0)
            return rows.reshape(-1, len(ks))

        coeffs = self._contract(local)
        coeffs = coeffs.reshape([n for e, w in zip(edges, widths) for n in (len(e) - 1, w)])
        return edges, coeffs.transpose([*range(0, 2 * self.ndim, 2), *range(1, 2 * self.ndim, 2)])


class TensorFunction(LatticeSpline):
    """Finite sum of separable piecewise-polynomial terms on R x R^d.

    The N = 0 lattice of itself: its one generator is itself, with a unit coefficient at shift 0.
    """

    def __init__(self, terms):
        terms = [(float(w), tuple(fs)) for w, fs in terms]
        self.ndim = len(terms[0][1]) if terms else 0
        if any(len(fs) != self.ndim for _, fs in terms):
            raise ValueError("all terms must have the same number of axis factors")
        self.terms = tuple((w, fs) for w, fs in terms if w != 0.0 and not any(f.is_zero for f in fs))

    @classmethod
    def zero(cls, ndim: int = 2) -> "TensorFunction":
        f = cls([])
        f.ndim = ndim
        return f

    @classmethod
    def separable(cls, factors, weight: float = 1.0) -> "TensorFunction":
        return cls([(weight, tuple(factors))])

    @property
    def generators(self) -> tuple["TensorFunction"]:
        return (self,)

    @property
    def coefficients(self) -> CoefficientGrid:
        return CoefficientGrid(np.ones((1,) * (self.ndim + 1)), 0)

    @property
    def _parts(self) -> list:
        return [(self, np.ones((1,) * self.ndim), [np.zeros(1)] * self.ndim)] if self.terms else []

    def __call__(self, *coords) -> float:
        return self.evaluate(np.asarray(coords, dtype=float))

    # -- algebra ----------------------------------------------------------

    def shift(self, offsets) -> "TensorFunction":
        offs = np.asarray(offsets, dtype=float)
        return TensorFunction(
            [(w, tuple(f.shift_scale(o, 1.0) for f, o in zip(fs, offs))) for w, fs in self.terms]
        ) if self.terms else TensorFunction.zero(self.ndim)

    def __mul__(self, scalar: float) -> "TensorFunction":
        if scalar == 0 or self.is_zero:
            return TensorFunction.zero(self.ndim)
        return TensorFunction([(w * float(scalar), fs) for w, fs in self.terms])

    __rmul__ = __mul__

    def __neg__(self) -> "TensorFunction":
        return self * -1.0

    def __add__(self, other: "TensorFunction") -> "TensorFunction":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.ndim != other.ndim:
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


# -- norms ----------------------------------------------------------------


def _clip_box(f: LatticeSpline, region) -> list[tuple[float, float]] | None:
    sup = f.support_box()
    box = sup if region is None else _as_box(region)
    out = []
    for (lo, hi), (slo, shi) in zip(box, sup):
        a, b = max(lo, slo), min(hi, shi)
        if b <= a:
            return None
        out.append((a, b))
    return out


def mixed_norm(f: LatticeSpline, p: float, q: float, region=None, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Mixed norm ( int_x ( int_y |f|^q dy )^{p/q} dx )^{1/p} of f over the region.

    region None means the support bounding box, which equals the global
    norm for compactly supported functions.
    """
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError("mixed_norm requires 1 < p, q < infinity")
    box = _clip_box(f, region)
    if box is None:
        return 0.0
    rules = [axis_rule(lo, hi, f.axis_breakpoints(a), quad) for a, (lo, hi) in enumerate(box)]
    vals = np.abs(f.evaluate_grid([r[0] for r in rules])) ** q
    for _, w in rules[:0:-1]:
        vals = vals @ w
    outer = np.sum(rules[0][1] * vals ** (p / q))
    return float(outer ** (1.0 / p))


#: Relative width of the bracket at which sup_norm stops.
SUP_RTOL = 1e-9

#: Bytes allowed for sup_norm's surviving cells, and for one block of
#: (outer node, segment) rows in sampling.abs_integral.
BLOCK_BYTES = 1 << 20


def sup_norm(f: LatticeSpline, region=None) -> float:
    """Certified upper end of max |f| over the region, within SUP_RTOL of an attained value.

    f is read through its cell form in the Bernstein basis: corner coefficients are values of f, and the
    largest |coefficient| bounds |f| on its cell (convex hull property).
    Cells whose bound is within SUP_RTOL of the largest |corner| are set
    aside; the rest are halved by de Casteljau along each axis on which
    their coefficients vary, until none is left or they would exceed
    BLOCK_BYTES (a valid, wider upper end).
    """
    box = _clip_box(f, region)
    if box is None:
        return 0.0
    edges, coeffs = f.cells(box)
    ndim = len(edges)
    halving = []
    for a, e in enumerate(edges):
        w = coeffs.shape[ndim + a]
        binom = np.array([[math.comb(i, j) for j in range(w)] for i in range(w)], dtype=float)
        # (x - left)^m = h^m t^m on a cell of width h; then b_i = sum_m C(i, m) / C(w-1, m) h^m c_m
        c = np.moveaxis(coeffs, (a, ndim + a), (-2, -1)) * np.diff(e)[:, None] ** np.arange(w)
        coeffs = np.moveaxis(c @ (binom / binom[-1]).T, (-2, -1), (a, ndim + a))
        # de Casteljau at 1/2: left half b'_i = sum_j C(i, j) / 2^i b_j; the right half mirrors it
        left = binom / 2.0 ** np.arange(w)[:, None]
        halving.append(np.stack([left, left[::-1, ::-1]]))
    cells = coeffs.reshape((-1,) + coeffs.shape[ndim:])
    corners = (slice(None),) + np.ix_(*[[0, -1]] * ndim)
    lower = upper = 0.0
    while True:
        mags = np.abs(cells)
        lower = max(lower, float(mags[corners].max()))
        bound = mags.reshape(len(cells), -1).max(axis=1)
        keep = bound > lower * (1.0 + SUP_RTOL)
        upper = max(upper, float(bound[~keep].max(initial=0.0)))
        if not keep.any():
            return upper
        cells = cells[keep]
        for a in range(ndim):
            vary = np.diff(cells, axis=1 + a).reshape(len(cells), -1).any(axis=1)
            if (len(cells) + vary.sum()) * cells[0].nbytes > BLOCK_BYTES:
                return max(upper, float(bound.max()))
            # (half, i, j) times (cell, .., j, ..) is (half, i, cell, ..); i goes back in place of j
            halves = np.moveaxis(np.tensordot(halving[a], cells[vary], axes=(2, 1 + a)), 1, 2 + a)
            cells = np.concatenate([cells[~vary], halves.reshape((-1,) + cells.shape[1:])])


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


def _term_grams(funcs, N: int, region, quad: QuadratureSpec) -> list:
    """(i, j, w v, per-axis Grams) for every term w prod_a g_a of f_i and every term v prod_a h_a of f_j.

    The Gram on axis a is the (2N+1)^2 matrix of the integrals of
    g_a(t - k) h_a(t - l), |k|, |l| <= N, over the region's side (None:
    everywhere).  One rule per axis has panels that contain every shifted
    breakpoint of every function, so these integrals are exact up to
    rounding and no tensor quadrature grid is formed.
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
    return [(i, j, w * v, [x.T @ (wts[:, None] * y) for x, y, (_, wts) in zip(fx, gx, rules)])
            for i, f_terms in enumerate(terms) for w, fx in f_terms
            for j, g_terms in enumerate(terms) for v, gx in g_terms]


#: Bytes allowed for a dense shift Gram; eigvalsh's work arrays take about
#: twice as much again.
GRAM_BYTES = 256 << 20


def _shift_gram(funcs, N: int, region, quad: QuadratureSpec) -> np.ndarray:
    """Dense Gram matrix of the shifts f_i(. - k), |k| <= N, over the region (None: everywhere).

    Only sets of several functions, or of a function with several terms,
    need it (one tensor term has a Kronecker Gram, see estimate_stability);
    tests use it as the oracle.  Rows and columns run over (i, k) in
    CoefficientGrid.flatten order.  Block (i, j) is the sum over term
    pairs of w v times the Kronecker product of their per-axis Grams
    (_term_grams).  A Gram above GRAM_BYTES raises MemoryError before
    anything is allocated.
    """
    side = len(funcs) * (2 * N + 1) ** funcs[0].ndim
    if 8 * side * side > GRAM_BYTES:
        mb = 8 * side * side / 2 ** 20
        raise MemoryError(f"dense shift Gram of side {side} needs {mb:.0f} MB, about {3 * mb:.0f} MB "
                          f"with eigvalsh's work arrays, above GRAM_BYTES ({GRAM_BYTES >> 20} MB)")
    blocks = [[0] * len(funcs) for _ in funcs]
    for i, j, wv, grams in _term_grams(funcs, N, region, quad):
        blocks[i][j] = blocks[i][j] + wv * reduce(np.kron, grams)
    return np.block(blocks)


def _gram_form(term_grams, c: CoefficientGrid) -> float:
    """c^T G c, with G the shift Gram of _shift_gram, from its _term_grams; G is not formed.

    For every term pair (i, j) the block c_j is multiplied along each
    shift axis by the pair's Gram on that axis (mode products), then
    summed against c_i.
    """
    total = 0.0
    for i, j, wv, grams in term_grams:
        right = c.values[j]
        for a, G in enumerate(grams):
            right = np.moveaxis(np.tensordot(G, right, axes=(1, a)), 0, a)
        total += wv * float(np.sum(c.values[i] * right))
    return total


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
    For one function of one term w prod_a g_a the Gram is w^2 times the
    Kronecker product of the per-axis (2N+1)^2 Grams G_a, so lambda_min is
    w^2 prod_a lambda_min(G_a), each clamped at 0, and lambda_max likewise;
    no dense Gram is formed.  Other sets take the dense _shift_gram, with
    its byte guard.  Other exponents return the (min, max) over `trials`
    seeded random unit-coefficient grids: an upper estimate of the lower
    constant and a lower estimate of the upper one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    funcs = generators.generators if isinstance(generators, GeneratorSet) else tuple(generators)
    if p == 2.0 and q == 2.0:
        if len(funcs) == 1 and len(funcs[0].terms) == 1:
            # G = w^2 kron_a G_a, whose extreme eigenvalues are products of the per-axis ones
            (_, _, ww, grams), = _term_grams(funcs, N, region, quad)
            ends = [np.linalg.eigvalsh(G)[[0, -1]] for G in grams]
            lo = ww * math.prod(max(e[0], 0.0) for e in ends)
            hi = ww * math.prod(e[1] for e in ends)
        else:
            lam = np.linalg.eigvalsh(_shift_gram(funcs, N, region, quad))
            lo, hi = lam[0], lam[-1]
        return float(np.sqrt(max(lo, 0.0) / len(funcs))), float(np.sqrt(max(hi, 0.0)))
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, 0.0
    for _ in range(trials):
        c = random_unit_grid(len(funcs), N, funcs[0].ndim - 1, p, q, rng)
        norm = mixed_norm(LatticeSpline(funcs, c), p, q, region, quad)
        lo, hi = min(lo, norm), max(hi, norm)
    return lo, hi

"""Exact algebra of compactly supported piecewise polynomials on the line.

Each piece stores monomial coefficients in the local coordinate
``u = x - t_i`` of its interval ``[t_i, t_{i+1})``; local coordinates keep
coefficients small for higher-degree cardinal B-splines.  Functions are
identically zero left of the first breakpoint.  Right of the last
breakpoint they take the constant ``tail`` value, which is zero for every
compactly supported function and equals the total integral for
antiderivatives.

Evaluation is right-continuous at breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Breakpoints closer than this are merged when grids are combined.
MERGE_TOL = 1e-12


def _shift_poly(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-expand p(u) as q(v) with u = v + delta (exact binomial shift)."""
    n = len(coeffs)
    out = np.zeros(n)
    for k in range(n):
        c = coeffs[k]
        if c == 0.0:
            continue
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * delta ** (k - j)
    return out


def _poly_eval(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Horner evaluation; coeffs[j] is the degree-j coefficient, scalar or one per point."""
    out = np.zeros_like(u)
    for c in coeffs[::-1]:
        out = out * u + c
    return out


def _real_roots(coeffs: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of every row p of ascending coefficients, and which lie in (0, h).

    Returns (roots, inside), both shaped (rows, width - 1): the real parts of
    each row's companion-matrix eigenvalues, found in one stacked call per
    true degree, and a mask of the real ones strictly inside (0, h) of that
    row.  Slots past a row's degree hold 0 and are not inside.
    """
    rows, width = coeffs.shape
    roots = np.zeros((rows, width - 1))
    inside = np.zeros(roots.shape, dtype=bool)
    nonzero = coeffs != 0.0
    degree = np.where(nonzero.any(axis=1), width - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for k in np.unique(degree[degree > 0]):
        sel = np.nonzero(degree == k)[0]
        c = coeffs[sel, : k + 1]
        companion = np.zeros((len(sel), k, k))
        companion[:, 0, :] = -c[:, k - 1::-1] / c[:, k:]
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        z = np.linalg.eigvals(companion)
        roots[sel, :k] = z.real
        inside[sel, :k] = (np.abs(z.imag) < 1e-12) & (z.real > 0.0) & (z.real < h[sel, None])
    return roots, inside


def _merge_grids(*grids) -> np.ndarray:
    pts = np.sort(np.concatenate([np.asarray(g, dtype=float) for g in grids]))
    if len(pts) == 0:
        return pts
    keep = [pts[0]]
    for t in pts[1:]:
        if t - keep[-1] > MERGE_TOL:
            keep.append(t)
    return np.asarray(keep)


@dataclass(frozen=True)
class PiecewisePoly1D:
    """Compactly supported piecewise polynomial.

    breakpoints: strictly increasing, shape (M+1,).
    coeffs: shape (M, D) ascending-degree local coefficients; row i is the
        piece on [t_i, t_{i+1}).
    continuity: guaranteed smoothness class (-1 for none, 0 for C^0, ...).
    tail: constant value for x >= t_M (nonzero only for antiderivatives).
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    continuity: int = -1
    tail: float = 0.0

    def __post_init__(self) -> None:
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        cf = np.asarray(self.coeffs, dtype=float)
        if cf.ndim == 1:
            cf = cf.reshape(len(bp) - 1, -1) if len(bp) > 1 else cf.reshape(0, 1)
        if cf.shape[1] == 0:
            cf = np.zeros((cf.shape[0], 1))
        if len(bp) != cf.shape[0] + 1:
            raise ValueError("piece count must equal breakpoint count - 1")
        if len(bp) > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp.flags.writeable = False
        cf.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", cf)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewisePoly1D":
        return cls(np.array([0.0]), np.zeros((0, 1)))

    @classmethod
    def indicator(cls, a: float, b: float, value: float = 1.0) -> "PiecewisePoly1D":
        """value * indicator of [a, b)."""
        if not b > a:
            raise ValueError("indicator requires a < b")
        return cls(np.array([a, b], dtype=float), np.array([[value]]), continuity=-1)

    # -- basic queries -------------------------------------------------

    @property
    def num_pieces(self) -> int:
        return self.coeffs.shape[0]

    @property
    def support(self) -> tuple[float, float]:
        if self.num_pieces == 0:
            return 0.0, 0.0
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def degree(self) -> int:
        if self.num_pieces == 0:
            return -1
        nz = np.nonzero(np.any(self.coeffs != 0.0, axis=0))[0]
        return int(nz[-1]) if len(nz) else -1

    @property
    def is_zero(self) -> bool:
        return self.tail == 0.0 and (self.num_pieces == 0 or not np.any(self.coeffs))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.full(xs.shape, 0.0)
        if self.tail != 0.0:
            out[xs >= self.breakpoints[-1]] = self.tail
        if self.num_pieces:
            # one Horner pass over each point's own piece coefficients
            idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
            inside = (idx >= 0) & (idx < self.num_pieces)
            piece = idx[inside]
            out[inside] = _poly_eval(self.coeffs[piece].T, xs[inside] - self.breakpoints[piece])
        return float(out[0]) if scalar else out

    @property
    def integral(self) -> float:
        """Total integral over the support (tail must be zero)."""
        total = 0.0
        for i in range(self.num_pieces):
            h = self.breakpoints[i + 1] - self.breakpoints[i]
            powers = h ** np.arange(1, self.coeffs.shape[1] + 1)
            total += float(np.sum(self.coeffs[i] * powers / np.arange(1, self.coeffs.shape[1] + 1)))
        return total

    # -- calculus ------------------------------------------------------

    def antiderivative(self) -> "PiecewisePoly1D":
        """F with F(t_0) = 0 and F' = f piecewise; F.tail is the total integral."""
        if self.tail != 0.0:
            raise ValueError("antiderivative requires a compactly supported function")
        if self.num_pieces == 0:
            return PiecewisePoly1D.zero()
        deg = self.coeffs.shape[1]
        out = np.zeros((self.num_pieces, deg + 1))
        acc = 0.0
        for i in range(self.num_pieces):
            out[i, 0] = acc
            out[i, 1:] = self.coeffs[i] / np.arange(1, deg + 1)
            h = self.breakpoints[i + 1] - self.breakpoints[i]
            acc = float(_poly_eval(out[i], np.asarray(h)))
        return PiecewisePoly1D(self.breakpoints, out, continuity=self.continuity + 1, tail=acc)

    def derivative(self) -> "PiecewisePoly1D":
        if self.num_pieces == 0:
            return PiecewisePoly1D.zero()
        deg = self.coeffs.shape[1]
        if deg == 1:
            out = np.zeros((self.num_pieces, 1))
        else:
            out = self.coeffs[:, 1:] * np.arange(1, deg)
        return PiecewisePoly1D(self.breakpoints, out, continuity=max(self.continuity - 1, -1))

    def critical_points(self) -> np.ndarray:
        """Interior stationary points: real roots of each piece's derivative."""
        pts = []
        dcoeffs = self.derivative().coeffs
        for i in range(self.num_pieces):
            c = np.trim_zeros(dcoeffs[i], "b")
            if len(c) <= 1:
                continue
            roots = np.roots(c[::-1])
            h = self.breakpoints[i + 1] - self.breakpoints[i]
            for rt in roots:
                if abs(rt.imag) < 1e-12 and 0.0 < rt.real < h:
                    pts.append(self.breakpoints[i] + rt.real)
        return np.asarray(pts)

    def max_abs(self, lo: float | None = None, hi: float | None = None, points_per_piece: int = 41) -> float:
        """sup |f| over [lo, hi] via breakpoints, stationary points and a dense grid."""
        a, b = self.support
        lo = a if lo is None else max(lo, a)
        hi = b if hi is None else min(hi, b)
        if hi <= lo:
            # empty window, or a window entirely right of the support
            return abs(self.tail) if (self.tail != 0.0 and hi >= b) else 0.0
        cands = [np.array([lo, hi]), self.critical_points()]
        edges = np.unique(np.clip(self.breakpoints, lo, hi))
        cands.append(edges)
        for s, e in zip(edges[:-1], edges[1:]):
            cands.append(np.linspace(s, e, points_per_piece))
        xs = np.concatenate(cands)
        xs = xs[(xs >= lo) & (xs <= hi)]
        return float(np.max(np.abs(self(xs)))) if len(xs) else 0.0

    # -- transforms ----------------------------------------------------

    def shift_scale(self, shift: float, scale: float) -> "PiecewisePoly1D":
        """x -> scale * f(x - shift), exactly re-expanded."""
        if scale == 0.0:
            raise ValueError("scale must be nonzero")
        return PiecewisePoly1D(
            self.breakpoints + shift, self.coeffs * scale, self.continuity, self.tail * scale
        )

    def convolve_box(self, a: float, b: float) -> "PiecewisePoly1D":
        """Convolution with the indicator of [a, b]:  x -> int_{x-b}^{x-a} f.

        Computed exactly as F(x-a) - F(x-b) with F the piecewise
        antiderivative; the smoothness class increases by one.
        """
        if not a < b:
            raise ValueError("convolve_box requires a < b")
        if self.tail != 0.0:
            raise ValueError("convolve_box requires a compactly supported function")
        if self.is_zero:
            return PiecewisePoly1D.zero()
        F = self.antiderivative()
        grid = _merge_grids(self.breakpoints + a, self.breakpoints + b)
        deg = F.coeffs.shape[1]
        out = np.zeros((len(grid) - 1, deg))
        for k in range(len(grid) - 1):
            s = grid[k]
            mid = 0.5 * (s + grid[k + 1])
            for offset, sign in ((a, 1.0), (b, -1.0)):
                out[k] += sign * _local_antideriv_coeffs(F, mid - offset, s - offset, deg)
        return PiecewisePoly1D(grid, out, continuity=self.continuity + 1)

    def resampled(self, grid: np.ndarray) -> np.ndarray:
        """Local coefficients of f on the given grid (must refine the support)."""
        deg = max(self.coeffs.shape[1], 1)
        out = np.zeros((len(grid) - 1, deg))
        for k in range(len(grid) - 1):
            mid = 0.5 * (grid[k] + grid[k + 1])
            idx = np.searchsorted(self.breakpoints, mid, side="right") - 1
            if 0 <= idx < self.num_pieces:
                out[k] = _shift_poly(self.coeffs[idx], grid[k] - self.breakpoints[idx])
        return out

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "PiecewisePoly1D":
        return PiecewisePoly1D(self.breakpoints, -self.coeffs, self.continuity, -self.tail)

    def __mul__(self, scalar: float) -> "PiecewisePoly1D":
        return self.shift_scale(0.0, float(scalar)) if scalar != 0 else PiecewisePoly1D.zero()

    __rmul__ = __mul__

    def __add__(self, other: "PiecewisePoly1D") -> "PiecewisePoly1D":
        if self.tail != 0.0 or other.tail != 0.0:
            raise ValueError("addition requires compactly supported operands")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        grid = _merge_grids(self.breakpoints, other.breakpoints)
        ca = self.resampled(grid)
        cb = other.resampled(grid)
        width = max(ca.shape[1], cb.shape[1])
        out = np.zeros((len(grid) - 1, width))
        out[:, : ca.shape[1]] += ca
        out[:, : cb.shape[1]] += cb
        return PiecewisePoly1D(grid, out, continuity=min(self.continuity, other.continuity))

    def __sub__(self, other: "PiecewisePoly1D") -> "PiecewisePoly1D":
        return self + (-other)


def _local_antideriv_coeffs(F: PiecewisePoly1D, probe: float, base: float, deg: int) -> np.ndarray:
    """Coefficients of u -> F(u + base) near the point probe, width deg."""
    out = np.zeros(deg)
    t0, tM = F.support
    if probe < t0:
        return out
    if probe >= tM:
        out[0] = F.tail
        return out
    idx = int(np.searchsorted(F.breakpoints, probe, side="right") - 1)
    return _shift_poly(F.coeffs[idx], base - F.breakpoints[idx])


def coefficient_distance(f: PiecewisePoly1D, g: PiecewisePoly1D) -> float:
    """Max deviation of local coefficients on the merged breakpoint grid."""
    grid = _merge_grids(f.breakpoints, g.breakpoints)
    if len(grid) < 2:
        return 0.0
    ca = f.resampled(grid)
    cb = g.resampled(grid)
    width = max(ca.shape[1], cb.shape[1])
    a = np.zeros((len(grid) - 1, width))
    b = np.zeros_like(a)
    a[:, : ca.shape[1]] = ca
    b[:, : cb.shape[1]] = cb
    return float(np.max(np.abs(a - b)))


def bspline(n: int) -> PiecewisePoly1D:
    """Centered cardinal B-spline of degree n.

    Built from the truncated-power closed form, so it is an independent
    target for the convolution identity with the unit box.  Support is
    [-(n+1)/2, (n+1)/2], the function is nonnegative, integrates to one,
    and carries smoothness class C^(n-1).
    """
    if n < 0:
        raise ValueError("B-spline degree must be nonnegative")
    half = (n + 1) / 2.0
    grid = np.arange(n + 2) - half
    coeffs = np.zeros((n + 1, n + 1))
    fact = math.factorial(n)
    for j in range(n + 1):
        # piece j on [grid[j], grid[j]+1); local u = x - grid[j]
        for k in range(j + 1):
            amp = (-1.0) ** k * math.comb(n + 1, k) / fact
            # (x + half - k)^n = (u + (j - k))^n
            base = float(j - k)
            for t in range(n + 1):
                coeffs[j, t] += amp * math.comb(n, t) * base ** (n - t)
    return PiecewisePoly1D(grid, coeffs, continuity=n - 1)

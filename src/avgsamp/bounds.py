"""Closed-form constants, sample-size thresholds and probability bounds.

Every quantity here is an explicit function of the space parameters: the
decay series constant c* (and c', the same formula) from exact zeta sums
rounded up, the covering-number bound for the unit ball of V_N, the
Bernstein tail, the uniform deviation tail for the centered statistic, and
the per-signal-class sampling/reconstruction probability reports.

Amplitudes that overflow for modest shift radii are carried in the log
domain alongside their linear values, and probabilities are reported both
raw (possibly negative, meaning vacuous) and clamped to [0, 1] so that
vacuousness stays visible.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass


LOG_MAX = 709.0  # exp overflow threshold for IEEE doubles


@dataclass(frozen=True)
class SpaceParams:
    """All theorem inputs for one sampling configuration."""

    p: float
    q: float
    d: int
    r: int
    N: int
    K1: float
    K2: float
    alpha1: float
    alpha2: float
    decay_c: float
    s1: float
    s2: float
    rho_lower: float
    rho_upper: float
    psi_l11: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p < math.inf and 1.0 < self.q < math.inf):
            raise ValueError("exponents p, q must lie in (1, infinity)")
        if self.d < 1 or self.r < 1 or self.N < 0:
            raise ValueError("require d >= 1, r >= 1, N >= 0")
        for name in ("K1", "K2", "alpha1", "alpha2", "decay_c", "s1", "s2",
                     "rho_lower", "rho_upper", "psi_l11"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha1 > self.alpha2:
            raise ValueError("alpha1 must not exceed alpha2")
        if self.rho_lower > self.rho_upper:
            raise ValueError("rho_lower must not exceed rho_upper")
        floor = self.d + 1 - 1.0 / self.p - self.d / self.q
        if self.s1 <= floor or self.s2 <= floor:
            raise ValueError(f"decay exponents s1 = {self.s1:.6g}, s2 = {self.s2:.6g} "
                             f"must exceed d+1-1/p-d/q = {floor:.6g}")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def region_factor(self) -> float:
        """(2 K1)^(q-1) (2 K2)^(d (p-1)); denominator of the lower constants."""
        return (2.0 * self.K1) ** (self.q - 1.0) * (2.0 * self.K2) ** (self.d * (self.p - 1.0))


@dataclass
class BoundReport:
    """Named constants for one theorem, with the inputs that produced them."""

    kind: str
    params: SpaceParams
    constants: dict
    flags: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": asdict(self.params),
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
            "flags": dict(self.flags),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __getitem__(self, key: str):
        return self.constants[key]


def _jsonable(v: float | None) -> float | str | None:
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def lattice_decay_sum(exponent: float, dim: int) -> float:
    """Sum over Z^dim of (1 + |k|)^(-exponent) with |k| the max norm, rounded up.

    Shell |k| = s holds (2s+1)^dim - (2s-1)^dim points, a polynomial
    sum_j a_j t^j in t = s + 1, so the sum is 1 + sum_j a_j zeta(exponent - j, 2)
    with zeta the Hurwitz zeta function (DLMF 25.11).  Shells s = 1..12 are
    added directly; each rest, the sum over t >= 14 of t^(-sigma), is its
    Euler-Maclaurin expansion (DLMF 2.10) with 8 Bernoulli corrections.
    t^(-sigma) is completely monotone, so each remainder is at most the 9th
    correction.  The result adds those bounds and a rounding margin and is
    rounded up, so it never falls below the exact sum.  Diverges unless
    exponent > dim.
    """
    if exponent <= dim:
        raise ValueError(f"series diverges: exponent {exponent} must exceed dimension {dim}")
    # B_2k / (2k)! for k = 1..9; the last one only bounds the remainder
    bernoulli = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                 -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
                 43867 / 5109094217170944000)
    x = 14
    parts = [1.0] + [((2 * t - 1) ** dim - (2 * t - 3) ** dim) * t ** -exponent for t in range(2, x)]
    remainder = 0.0
    for j in range(dim):
        a = math.comb(dim, j) * 2 ** j * ((-1) ** (dim - j) - (-3) ** (dim - j))
        sigma = exponent - j
        # tail = x^-sigma (x/(sigma-1) + 1/2 + sum_k B_2k/(2k)! (sigma)_(2k-1) x^(1-2k))
        bracket, g = x / (sigma - 1.0) + 0.5, sigma / x
        for k, b in enumerate(bernoulli[:-1], 1):
            bracket += b * g
            g *= (sigma + 2 * k - 1) * (sigma + 2 * k) / (x * x)
        parts.append(a * x ** -sigma * bracket)
        remainder += abs(a) * x ** -sigma * bernoulli[-1] * g
    # each part carries a few roundings; 16 eps of the absolute parts covers them
    margin = 16 * sys.float_info.epsilon * math.fsum(abs(v) for v in parts)
    return math.nextafter(math.fsum(parts) + remainder + margin, math.inf)


def c_star(params: SpaceParams) -> float:
    """Decay constant entering every probability bound.

    4 c~ / (2^((p+q)/pq) alpha1) times the two decay-series factors with
    exponents s1 p/(p-1) over Z and s2 q/(q-1) over Z^d.
    """
    p, q = params.p, params.q
    e1 = params.s1 * p / (p - 1.0)
    e2 = params.s2 * q / (q - 1.0)
    S1 = lattice_decay_sum(e1, 1)
    S2 = lattice_decay_sum(e2, params.d)
    pref = 4.0 * params.decay_c / (2.0 ** ((p + q) / (p * q)) * params.alpha1)
    return pref * S1 ** ((p - 1.0) / p) * S2 ** ((q - 1.0) / q)


def c_prime(params: SpaceParams) -> float:
    """Constant in the sup-norm versus mixed-norm comparison on V_N.

    2^(1/p' + 1/q') c~ / alpha1 times the decay series with conjugate
    exponents s1 p' and s2 q', raised to 1/p' and 1/q'.  With
    p' = p/(p-1) that is term for term c*: 2^(1/p' + 1/q') = 4 / 2^((p+q)/pq).
    """
    return c_star(params)


def covering_bound(N: int, eps: float, r: int, d: int, c_prime_value: float) -> tuple[float, float]:
    """Upper bound on the covering number of the unit ball of V_N.

    Returns (value, log_value); the log form survives configurations where
    the linear value overflows.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    log_val = r * (2.0 * N + 1.0) ** (d + 1) * math.log(2.0 * c_prime_value / eps + 1.0)
    return _safe_exp(log_val), log_val


def bernstein_tail(lam: float, n: int, m: int, sigma2: float, M: float) -> float:
    """Two-sided tail bound for a sum of nm centered bounded variables."""
    if lam < 0 or sigma2 < 0 or M <= 0:
        raise ValueError("require lam >= 0, sigma2 >= 0, M > 0")
    if lam == 0.0:
        return 2.0
    return 2.0 * math.exp(-lam * lam / (2.0 * n * m * sigma2 + (2.0 / 3.0) * M * lam))


def deviation_threshold(params: SpaceParams, n: int, m: int) -> float:
    """Smallest deviation level at which the uniform tail bound applies."""
    base = 54.0 * params.r * math.sqrt(2.0) * math.log(2.0) * (2.0 * params.N + 1.0) ** (params.d + 1)
    inner = 1.0 + 3.0 * n * m / (2.0 * params.r * math.sqrt(2.0) * math.log(2.0)
                                 * (2.0 * params.N + 1.0) ** (params.d + 1))
    return base * (1.0 + math.sqrt(inner)) * params.psi_l11


def amplitude_constants(params: SpaceParams, cs: float,
                        N: float | None = None) -> tuple[float, float, float, float]:
    """(A1, log A1, A2, log A2) of the uniform tail bound at shift radius N (or params.N)."""
    N = params.N if N is None else N
    M = params.r * (2.0 * N + 1.0) ** (params.d + 1)
    log_a1 = math.log(2.0) + M * math.log(4.0 * cs + 1.0)
    log_a2 = (math.log(4.0) + M * math.log((2.0 * cs + 0.25) * (cs + 0.25))
              - math.log(3.0 * params.r * math.log(2.0) ** 2 * (2.0 * N + 1.0) ** (params.d + 1)))
    return _safe_exp(log_a1), log_a1, _safe_exp(log_a2), log_a2


def uniform_tail_bound(lam: float, params: SpaceParams, n: int, m: int) -> float:
    """Tail bound for the sup over the unit ball of |sum of Y statistics|.

    A1 e^{-nm beta1} + A2 e^{-nm beta2}, the rates those of _rates at margin
    lam / nm with D = c* ||psi||_1.  Only valid above the deviation
    threshold; smaller deviations are rejected with the threshold in the message.
    """
    thresh = deviation_threshold(params, n, m)
    if lam <= thresh:
        raise ValueError(f"deviation {lam} must exceed the threshold {thresh}")
    cs = c_star(params)
    _, log_a1, _, log_a2 = amplitude_constants(params, cs)
    beta1, beta2 = _rates(lam / (n * m), cs, cs * params.psi_l11)
    return _safe_exp(log_a1 - n * m * beta1) + _safe_exp(log_a2 - n * m * beta2)


def _safe_exp(x: float) -> float:
    return math.inf if x > LOG_MAX else math.exp(x)


def _rates(u: float, cs: float, D: float) -> tuple[float, float]:
    """(beta1, beta2): exponential rates of the probability bound for margin u."""
    beta1 = (1.0 / D) * (math.sqrt(3.0) / 2.0 * u) ** 2 / (6.0 * D + u)
    beta2 = (1.0 / D) * (u * cs) ** 2 / (18.0 * math.sqrt(2.0) * (81.0 * D + 2.0 * u * cs))
    return beta1, beta2


def _nm_min(params: SpaceParams, N: float, T: float, W: float) -> float:
    """Smallest nm at which the uniform tail bound applies at level T, kernel norm W."""
    return (54.0 * params.r * math.sqrt(2.0) * math.log(2.0)
            * (2.0 * N + 1.0) ** (params.d + 1) * W / T ** 2) * (2.0 * T + 81.0 * W)


def _report(kind: str, params: SpaceParams, cs: float, rates: tuple[float, float],
            n: int, m: int, constants: dict, flags: dict | None = None,
            N: float | None = None, level: tuple[float, float] | None = None) -> BoundReport:
    """A theorem's own constants and flags plus the shared probability tail.

    The tail is 1 - A1 e^{-nm beta1} - A2 e^{-nm beta2} with the amplitudes at
    shift radius N (params.N by default), reported raw, clamped and as its
    two log terms.  level = (T, W) adds nm_min at that radius and the flag
    nm_meets_threshold.
    """
    N = params.N if N is None else N
    beta1, beta2 = rates
    a1, log_a1, a2, log_a2 = amplitude_constants(params, cs, N)
    t1 = log_a1 - n * m * beta1
    t2 = log_a2 - n * m * beta2
    raw = 1.0 - _safe_exp(t1) - _safe_exp(t2)
    constants = dict(constants, c_star=cs,
                     A1=a1, log_A1=log_a1, beta1=beta1, A2=a2, log_A2=log_a2, beta2=beta2,
                     log_term1=t1, log_term2=t2,
                     probability_raw=raw, probability=min(max(raw, 0.0), 1.0),
                     n=float(n), m=float(m), nm=float(n * m))
    flags = dict(flags or {})
    if level is not None:
        constants["nm_min"] = _nm_min(params, N, *level)
        flags["nm_meets_threshold"] = n * m > constants["nm_min"]
    return BoundReport(kind, params, constants, flags)


def _omega_margins(params: SpaceParams, cs: float, gamma: float,
                   omega: float) -> tuple[float, float]:
    """(u, T): the rate margin and the deviation level of the omega-class bound."""
    pq = params.p * params.q
    W = params.psi_l11
    u = gamma * params.rho_lower * (omega / (cs * W)) ** pq
    T = gamma * params.rho_lower * (cs * W) ** (1.0 - pq) * omega ** pq / params.region_factor
    return u, T


def omega_class_report(params: SpaceParams, gamma: float, omega: float,
                       n: int, m: int) -> BoundReport:
    """Sampling-inequality constants for signals with conv norm at least omega.

    Computes the frame constants A_gamma_omega and B_gamma_omega, the
    amplitudes and rates of the probability bound, the minimum sample
    count, and the raw and clamped probabilities.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < omega <= params.psi_l11 + 1e-12:
        raise ValueError("omega must lie in (0, ||psi||_L11]")
    p, q, d = params.p, params.q, params.d
    W = params.psi_l11
    cs = c_star(params)
    D = params.region_factor
    pq = p * q
    u, T = _omega_margins(params, cs, gamma, omega)
    A_go = ((1.0 - gamma) * params.rho_lower * (cs * W) ** (1.0 - pq) * omega ** pq / D
            * n ** (1.0 / p) * m ** (1.0 / q))
    B_go = (params.rho_upper * W
            / ((2.0 * params.K1) ** ((1.0 - p) / p) * (2.0 * params.K2) ** (d * (1.0 - q) / q))
            * n * m + T * n * m)
    return _report("omega_class", params, cs, _rates(u, cs, D), n, m,
                   {"A_gamma_omega": A_go, "B_gamma_omega": B_go,
                    "gamma": gamma, "omega": omega},
                   level=(T, W))


def mu_class_report(params: SpaceParams, mu: float, eta: float,
                    n: int, m: int) -> BoundReport:
    """Sampling-inequality constants for the average-mass signal class.

    Frame constants bound the plain sum of |f * psi| over the samples.  The
    rates are the omega-class rates at margin eta with the region factor D
    replaced by c*, and nm_min is the omega-class threshold at level eta
    with unit kernel norm.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError("mu must lie in (0, 1]")
    if not 0.0 < eta < mu * params.rho_lower:
        raise ValueError("eta must lie in (0, mu * rho_lower)")
    p, q, d = params.p, params.q, params.d
    W = params.psi_l11
    cs = c_star(params)
    lower = n * m * W * (mu * params.rho_lower - eta)
    upper = n * m * W * (params.rho_upper
                         * (2.0 * params.K1) ** ((p - 1.0) / p)
                         * (2.0 * params.K2) ** (d * (q - 1.0) / q) + eta)
    return _report("mu_class", params, cs, _rates(eta, cs, cs), n, m,
                   {"lower_constant": lower, "upper_constant": upper, "mu": mu, "eta": eta},
                   level=(eta, 1.0))


def approximation_radius(K1: float, K2: float, eps: float, params: SpaceParams,
                         which: str = "N1") -> float:
    """Shift radius guaranteeing an eps-accurate finite-dimensional truncation.

    which = "N1" controls the mixed-norm error on the cuboid, "N2" the
    sup-norm error.  Both are max(K1, K2) plus a three-term sum raised to
    1/s with s = min(s1, s2) + 1/p + d/q - (d+1).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p, q, d = params.p, params.q, params.d
    pc, qc = params.p_conj, params.q_conj
    s = min(params.s1, params.s2) + 1.0 / p + d / q - (d + 1.0)
    if s <= 0:
        raise ValueError(f"approximation exponent s = {s:.6g} must be positive")
    den1 = (params.s1 * pc - 1.0) ** (1.0 / pc)
    den2 = (params.s2 * qc - d) ** (1.0 / qc)
    ct = params.decay_c
    if which == "N1":
        head, two = ct * K1 ** (1.0 / p) * K2 ** (d / q), 2.0 ** (d + 1)
    elif which == "N2":
        head, two = ct, 2.0 ** (1.0 / pc + d / qc)
    else:
        raise ValueError("which must be 'N1' or 'N2'")
    t1 = head * d ** (1.0 / qc) * (1.0 + K2) ** ((d - 1.0) / qc + 1.0 / pc) * two / (params.alpha1 * eps * den2)
    t2 = head * (1.0 + K1) ** (d / qc) * two / (params.alpha1 * eps * den1)
    t3 = head * d ** (1.0 / qc) * (1.0 + K2) ** ((d - 1.0) / qc) * two / (params.alpha1 * eps * den1 * den2)
    return max(K1, K2) + (t1 + t2 + t3) ** (1.0 / s)


def concentration_class_report(params: SpaceParams, delta: float, eps: float, gamma: float,
                               n: int, m: int) -> BoundReport:
    """Sampling-inequality constants for energy-concentrated signals.

    The shift radius is not free here: it is forced by the truncation
    lemma at the doubled cuboid, and that radius (a real number, used as
    given) enters the amplitudes A1, A2 and nm_min.  Rates and threshold
    are the omega-class ones at omega = (1 - delta - eps) ||psi||.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < eps < 1.0 - delta:
        raise ValueError("eps must lie in (0, 1 - delta)")
    gamma_cap = 1.0 - eps / (1.0 - delta - eps) ** (1.0 + params.p * params.q)
    if not 0.0 < gamma < gamma_cap:
        raise ValueError(f"gamma must lie in (0, {gamma_cap:.6g})")
    p, q, d = params.p, params.q, params.d
    W = params.psi_l11
    cs = c_star(params)
    D = params.region_factor
    pq = p * q

    omega = (1.0 - delta - eps) * W
    eps2 = eps * params.rho_lower * cs ** (1.0 - pq) / D
    N_real = max(
        approximation_radius(2.0 * params.K1, 2.0 * params.K2, eps, params, "N1"),
        approximation_radius(2.0 * params.K1, 2.0 * params.K2, eps2, params, "N2"),
    )

    A = (params.rho_lower * cs ** (1.0 - pq) * W
         * ((1.0 - gamma) * (1.0 - delta - eps) ** (1.0 + pq) - eps) / D
         * n ** (1.0 / p) * m ** (1.0 / q))
    B = (params.alpha2 * W / params.alpha1
         * (params.rho_upper / ((2.0 * params.K1) ** ((1.0 - p) / p)
                                * (2.0 * params.K2) ** (d * (1.0 - q) / q))
            + gamma * params.rho_lower * cs ** (1.0 - pq) * (1.0 - delta - eps) ** pq / D)
         * n * m
         + eps * params.rho_lower * cs ** (1.0 - pq) * W / D * n ** (1.0 / p) * m ** (1.0 / q))

    u, T = _omega_margins(params, cs, gamma, omega)
    return _report("concentration_class", params, cs, _rates(u, cs, D), n, m,
                   {"A": A, "B": B, "omega": omega,
                    "N_required": N_real, "N_required_ceil": float(math.ceil(N_real)),
                    "delta": delta, "eps": eps, "gamma": gamma},
                   {"lower_constant_positive": A > 0.0}, N=N_real, level=(T, W))


def reconstruction_report(params: SpaceParams, gamma: float, beta_tilde: float,
                          n: int, m: int) -> BoundReport:
    """Success-probability constants of the reconstruction theorem.

    Its rates are the omega-class rates at margin
    gamma rho_lower (beta_tilde / (alpha2 c* W))^(pq).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < beta_tilde < math.inf:
        raise ValueError("beta_tilde must be positive and finite")
    cs = c_star(params)
    u = (gamma * params.rho_lower
         * (beta_tilde / (params.alpha2 * cs) / params.psi_l11) ** (params.p * params.q))
    return _report("reconstruction", params, cs, _rates(u, cs, params.region_factor), n, m,
                   {"beta_tilde": beta_tilde, "gamma": gamma})

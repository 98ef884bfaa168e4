"""Every theorem constant, and how large nm must be before the bounds bite.

The probability lower bounds are explicit but astronomically conservative
at desk scale: the covering amplitudes A1, A2 are exponential in the
coefficient count while the rates beta1, beta2 are tiny.  The reports keep
raw (possibly negative) and clamped probabilities side by side so this
stays visible, and log-domain copies of everything that overflows.
"""

from avgsamp import (
    SpaceParams,
    bernstein_tail,
    c_prime,
    c_star,
    covering_bound,
    deviation_threshold,
    mu_class_report,
    omega_class_report,
    reconstruction_report,
    uniform_tail_bound,
)

params = SpaceParams(p=2.0, q=2.0, d=1, r=1, N=2, K1=2.5, K2=2.5,
                     alpha1=0.43, alpha2=0.68, decay_c=1.34, s1=2.0, s2=2.0,
                     rho_lower=0.04, rho_upper=0.04, psi_l11=0.0625)

print("=== decay-series constants ===")
print(f"c*  = {c_star(params):.8f}")
print(f"c'  = {c_prime(params):.8f} (the same formula as c*: c' = c*)")
val, logv = covering_bound(params.N, 0.5, params.r, params.d, c_prime(params))
print(f"covering bound at eps=0.5: exp({logv:.2f}) = {val:.3e}")

print()
print("=== concentration building blocks ===")
print(f"Bernstein tail, nm=25, sigma^2=0.01, M=0.2, lambda=3: "
      f"{bernstein_tail(3.0, 5, 5, 0.01, 0.2):.3e}")
lam0 = deviation_threshold(params, 5, 5)
print(f"uniform deviation threshold at nm=25: {lam0:.2f}")
print(f"uniform tail at 2x threshold: {uniform_tail_bound(2 * lam0, params, 5, 5):.3e}")

print()
print("=== sampling-inequality report (conv-norm class) ===")
rep = omega_class_report(params, gamma=0.5, omega=params.psi_l11, n=5, m=5)
for key in ("c_star", "A_gamma_omega", "B_gamma_omega", "log_A1", "beta1",
            "log_A2", "beta2", "nm_min", "probability_raw", "probability"):
    print(f"  {key:16s} = {rep[key]:.6g}")
print(f"  nm threshold met: {rep.flags['nm_meets_threshold']}")

print()
print("=== how large must nm be? ===")
for nm_side in (10, 10 ** 3, 10 ** 5, 10 ** 7, 10 ** 8):
    r = omega_class_report(params, 0.5, params.psi_l11, nm_side, nm_side)
    print(f"  n = m = {nm_side:>9d}: raw = {r['probability_raw']:+.3e}, "
          f"clamped = {r['probability']:.6f}")

print()
print("=== absolute-sum report (average-mass class) ===")
rep = mu_class_report(params, mu=1.0, eta=0.5 * params.rho_lower, n=5, m=5)
print(f"  frame window: [{rep['lower_constant']:.4f}, {rep['upper_constant']:.4f}] x ||f||")
print(f"  nm_min = {rep['nm_min']:.3e}, probability (clamped) = {rep['probability']}")

print()
print("=== reconstruction probability ===")
rep = reconstruction_report(params, gamma=0.5, beta_tilde=0.01, n=5, m=5)
print(f"  raw = {rep['probability_raw']:.3e}, clamped = {rep['probability']}")
print()
print("the bounds are vacuous at desk scale by design; the Monte Carlo")
print("sweep (demo 06) shows the observed success probabilities instead")

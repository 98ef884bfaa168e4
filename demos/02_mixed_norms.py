"""Mixed L^{p,q} norms of tensor-product signals.

The two-term quadratic-spline signal used throughout the experiments is
synthesized from a coefficient grid, then measured in several mixed
norms, in the sup norm, and against its coefficient sequence norm.  The
empirical stability bracket connects the two scales.
"""

from avgsamp import (
    CoefficientGrid,
    Cuboid,
    GeneratorSet,
    estimate_stability,
    mixed_norm,
    sup_norm,
    synthesize,
    tensor_bspline,
)

region = Cuboid(2.5, 2.5)
phi = GeneratorSet((tensor_bspline([2, 2]),), decay_c=1.34, decay_s1=2.0,
                   decay_s2=2.0, alpha1=0.4, alpha2=0.7)
coeffs = CoefficientGrid.from_entries(1, 2, 1, [
    (0, (0, 1), 3.0),
    (0, (-1, 0), -5.0),
])
f = synthesize(phi, coeffs)

print("signal: 3 B_2(x) B_2(y-1) - 5 B_2(x+1) B_2(y)")
print(f"value at (0, 1): {f(0.0, 1.0):.6f}")
print(f"support box:     {f.support_box()}")
print()

print("=== mixed norms over the cuboid [-2.5, 2.5]^2 ===")
for p, q in [(2.0, 2.0), (3.0, 2.0), (2.0, 4.0), (1.5, 3.0)]:
    val = mixed_norm(f, p, q, region)
    print(f"||f||_(L^{p:.1f},{q:.1f}) = {val:.8f}")
print(f"sup norm = {sup_norm(f, region):.8f}")
print()

print("=== coefficient sequence norms ===")
for p, q in [(2.0, 2.0), (3.0, 2.0), (2.0, 4.0)]:
    print(f"||c||_(l^{p:.1f},{q:.1f}) = {coeffs.seq_mixed_norm(p, q):.6f}")
print()

print("=== stability constants ===")
lo, hi = estimate_stability(phi, 2.0, 2.0, N=2)
print(f"p = q = 2, exact from the Gram eigenvalues: [{lo:.6f}, {hi:.6f}]")
lo, hi = estimate_stability(phi, 3.0, 2.0, N=2, trials=100, seed=0)
print(f"p = 3, q = 2, over 100 random unit grids:    [{lo:.6f}, {hi:.6f}]")
print("(the random bracket is an upper estimate of the lower constant and a")
print(" lower estimate of the upper one; not certified bounds)")

# an orthonormal case for contrast: integer shifts of the box are orthonormal
haar = GeneratorSet((tensor_bspline([0, 0]),), 1.0, 2.0, 2.0, 1.0, 1.0)
lo, hi = estimate_stability(haar, 2.0, 2.0, N=2)
print(f"box-generator constants (orthonormal shifts): [{lo:.12f}, {hi:.12f}]")

"""End-to-end reconstruction from random local averages.

Draw random sample positions, measure local averages, assemble the
sampling matrix, solve the least-squares system, and compare the
reconstruction with the truth in three norms.  With at least as many
samples as coefficients and a full-rank draw, recovery is exact up to
floating-point error.
"""

import numpy as np

from avgsamp import (
    AveragingKernel,
    CoefficientGrid,
    Cuboid,
    Density,
    GeneratorSet,
    abs_integral,
    beta_tilde,
    build_sample_matrix,
    convolve,
    draw_samples,
    dual_family,
    membership,
    mixed_norm,
    solve,
    sup_norm,
    synthesize,
    tensor_bspline,
)

region = Cuboid(2.5, 2.5)
rho = Density.uniform(region)
kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], region)
phi = GeneratorSet((tensor_bspline([2, 2]),), 1.34, 2.0, 2.0, 0.4, 0.7)
coeffs = CoefficientGrid.from_entries(1, 2, 1, [(0, (0, 1), 3.0), (0, (-1, 0), -5.0)])
f = synthesize(phi, coeffs)
conv = convolve(f, kernel)

print("=== the sampled system ===")
bt = beta_tilde(phi, kernel, N=2, p=2.0, q=2.0, region=region)
print(f"conv-system lower constant (smallest Gram eigenvalue^1/2): "
      f"{bt.value:.6f} ({'certified' if bt.certified else 'estimate'})")
member = membership(phi, kernel, coeffs, "min_conv_norm", region, 2, 2, omega=0.01)
print(f"signal clears the conv-norm margin 0.01 by {member.slacks['conv_norm_margin']:.4f}")

for n, m in [(5, 5), (7, 7), (10, 10)]:
    samples = draw_samples(rho, n, m, seed=20240811 + n)
    S = build_sample_matrix(phi, kernel, samples, N=2)
    values = conv.evaluate(samples.points)
    result = solve(S, values)
    recon = synthesize(phi, result.grid)
    diff = f - recon
    sup_err = sup_norm(diff, region)
    l1_err = abs_integral(diff, region)
    l2_err = mixed_norm(diff, 2.0, 2.0, region) if not diff.is_zero else 0.0
    print(f"n=m={n}: rank {result.diagnostics.rank}/25, residual {result.residual:.2e}, "
          f"sup {sup_err:.2e}, L1 {l1_err:.2e}, L2 {l2_err:.2e}")

print()
print("=== dual functions realize the same reconstruction ===")
samples = draw_samples(rho, 5, 5, seed=20240811)
S = build_sample_matrix(phi, kernel, samples, N=2)
family = dual_family(S)
values = conv.evaluate(samples.points).reshape(5, 5)
pts = np.random.default_rng(1).uniform(-2.5, 2.5, (5, 2))
assembled = np.zeros(5)
for j in range(1, 6):
    for k in range(1, 6):
        assembled += values[j - 1, k - 1] * family.function(j, k).evaluate(pts)
for pt, a, b in zip(pts, assembled, f.evaluate(pts)):
    print(f"  f({pt[0]:+.3f}, {pt[1]:+.3f}) = {b:+.8f}, dual assembly = {a:+.8f}")

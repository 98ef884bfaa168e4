"""Random sample locations and local-average measurements.

Sample positions are drawn i.i.d. from a density bounded above and below
on the cuboid; each measurement is the convolution of the signal with a
small box kernel evaluated at the drawn position.  The centered statistic
of those measurements has mean zero and satisfies explicit pointwise and
variance bounds, which this script checks empirically.
"""

import numpy as np

from avgsamp import (
    AverageSampleStatistic,
    AveragingKernel,
    CoefficientGrid,
    Cuboid,
    Density,
    GeneratorSet,
    average_sample,
    draw_samples,
    sup_norm,
    synthesize,
    tensor_bspline,
)

region = Cuboid(2.5, 2.5)
kernel = AveragingKernel.box([(-0.125, 0.125), (-0.125, 0.125)], region)
phi = GeneratorSet((tensor_bspline([2, 2]),), 1.34, 2.0, 2.0, 0.4, 0.7)
f = synthesize(phi, CoefficientGrid.from_entries(1, 2, 1, [
    (0, (0, 1), 3.0), (0, (-1, 0), -5.0)]))

print("=== uniform density, joint draws ===")
rho = Density.uniform(region)
samples = draw_samples(rho, 5, 5, seed=42)
print(f"25 points in {region.box}")
print(f"first three: {np.round(samples.points[:3], 4).tolist()}")

print()
print("=== a piecewise-constant density, drawn cell by cell ===")
rho2 = Density.piecewise_constant(
    region,
    [np.array([-2.5, 0.0, 2.5]), np.array([-2.5, 2.5])],
    np.array([[2 / 3], [1 / 3]]),
)
big = draw_samples(rho2, 300, 300, seed=43)
frac = np.mean(big.points[:, 0] < 0)
print(f"density bounds: [{rho2.lower:.4f}, {rho2.upper:.4f}]")
print(f"left-half mass 2/3; empirical fraction of 90000 draws: {frac:.4f}")

print()
print("=== local-average measurements ===")
for pt in [(0.0, 1.0), (-1.0, 0.0), (2.0, -2.0)]:
    print(f"(f * psi){pt} = {average_sample(f, kernel, pt):+.8f}")

print()
print("=== centered statistic: mean and bounds ===")
stat = AverageSampleStatistic(f, kernel, rho)
pts = draw_samples(rho, 400, 250, seed=44).points
ys = stat.at(pts)
bound = sup_norm(f, region.scaled(2)) * kernel.l11_norm
print(f"expectation of |f * psi| under rho: {stat.mean_abs:.8f}")
print(f"empirical mean of the statistic over 1e5 draws: {ys.mean():+.2e}")
print(f"3-sigma Monte Carlo band:                        {3 * ys.std() / np.sqrt(len(ys)):.2e}")
print(f"pointwise bound sup|f| ||psi||_1 = {bound:.6f}; "
      f"max observed |Y| = {np.max(np.abs(ys)):.6f}")
print(f"variance bound {bound ** 2:.6f}; observed variance {ys.var():.6f}")

"""Exercise the spherical harmonic transform pair: quadrature exactness,
analysis/synthesis round trip, and the analytic gradient identity."""

import numpy as np

from hawkmass import (HarmonicField, get_grid, gradient_norm_sq_integral,
                      laplacian_unit)

rng = np.random.default_rng(11)
lmax = 12
grid = get_grid(lmax)

print(f"grid for lmax={lmax}: {grid.n_lat} x {grid.n_lon} nodes")
print(f"quadrature weights sum to 4*pi within "
      f"{abs(grid.quad_weights.sum() - 4 * np.pi):.2e}")

coeffs = rng.standard_normal((lmax + 1) ** 2)
field = HarmonicField(coeffs)
values = grid.synthesize(field.coeffs)
back = HarmonicField(grid.analyze(values))
print(f"analyze(synthesize(c)) - c     : {np.max(np.abs(back.coeffs - coeffs)):.2e}")

# Integrated squared gradient equals the weighted coefficient sum, degree by
# degree, so the two routes must agree to roundoff.
spectral = gradient_norm_sq_integral(field)
lap = grid.synthesize(laplacian_unit(field).coeffs)
quadrature = -np.sum(grid.quad_weights * values * lap)
print(f"grad integral, spectral route  : {spectral:.12f}")
print(f"grad integral, quadrature route: {quadrature:.12f}")
print(f"difference                     : {abs(spectral - quadrature):.2e}")

# Laplacian eigenvalue check on a pure degree.
y3 = HarmonicField.single(3, 2, 1.0)
ratio = laplacian_unit(y3).coeffs[y3.coeffs != 0] / y3.coeffs[y3.coeffs != 0]
print(f"laplacian on degree 3 harmonic : {ratio[0]:.12f} (expected -12)")

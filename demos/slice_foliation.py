"""Walk the centered slices of one profile and confirm they all carry the
same Hawking mass, then locate where the weak stability margin changes sign.
"""

import numpy as np

from hawkmass import foliation_scan, slice_geometry, solve_warp_factor

w = solve_warp_factor(0.5, r_max=13.0)
print(f"profile a=0.5: conserved mass {w.mass:.15f}, period {w.period:.12f}")
print()

print("r      u(r)      H(r)        m_H(slice)         m_H - mass")
g = slice_geometry(w, np.linspace(0.0, w.period / 2, 7))
for r, u, h, m in zip(g.r, g.u, g.mean_curvature, g.hawking_mass):
    print(f"{r:.3f}  {u:.6f}  {h:+.6f}  {m:.15f}  {m - w.mass:+.2e}")

print()
scan = foliation_scan(w, np.linspace(0.0, w.period / 2, 65))
print(f"max |m_H - mass| over scan grid : {scan.mass_deviation_max:.3e}")
print(f"max |dm_H/dr| over scan grid    : {scan.mass_derivative_max:.3e}")
print(f"H sign matches -sign(u')        : {scan.h_sign_ok}")
print(f"dH/dr at the minimal slice      : {scan.dh_dr_at_zero:.9f}")
print(f"first Jacobi eigenvalue there   : {scan.first_eigenvalue_minimal:.9f}")
if scan.margin_flip_radius is not None:
    print(f"weak stability margin flips at  : r = {scan.margin_flip_radius:.12f}")
else:
    print("weak stability margin positive on the whole grid")

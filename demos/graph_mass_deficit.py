"""Perturb a centered slice into a normal graph and watch the Hawking mass
drop at quadratic order in the amplitude.

The deficit routine subtracts the base slice pointwise before integrating,
so the printed values stay clean far below roundoff of the raw masses.
"""

import numpy as np

from hawkmass import (HarmonicField, build_graph, hawking_mass_deficit,
                      solve_warp_factor, surface_report)

w = solve_warp_factor(0.5, r_max=13.0)
base_r = 0.3

rng = np.random.default_rng(23)
coeffs = rng.standard_normal(36) * 0.5
coeffs[0] = 0.0
phi = HarmonicField(coeffs)

print("amplitude t   deficit            deficit / t^2")
for t in (1e-1, 1e-2, 1e-3, 1e-4):
    d = hawking_mass_deficit(w, base_r, phi, scale=t)
    print(f"{t:9.0e}   {d:+.12e}   {d / t ** 2:+.9f}")

print()
print("the ratio settles on the second variation as t -> 0")
print()

# Round slices solve the shape equation; a generic graph does not.
slice_surface = build_graph(w, base_r, HarmonicField(np.zeros(36)))
bumpy_surface = build_graph(w, base_r, phi, scale=0.05)
print(f"shape equation residual, slice : {slice_surface.el_residual_max():.2e}")
print(f"shape equation residual, bumpy : {bumpy_surface.el_residual_max():.2e}")

report = surface_report(bumpy_surface)
print()
print("bumpy surface report:")
for key in ("area", "hawking_mass", "el_residual_max", "q_integral"):
    print(f"  {key:20s} {report[key]:+.12e}")

"""Mapping the (lam, eta) parameter plane.

Sweeps a grid of (lam, eta) pairs, classifies every multi-start solution, and
prints an ASCII map of the observed sign regions together with the measured
maximum/antimaximum half-widths and the binding-consistency verdicts.  The
same data goes to sweep.csv in the working directory.
"""

import numpy as np

from plap import ProblemSpec, SolveOptions, Weight, build_interval, principal_eigenpair, sweep
from plap.report import write_csv

mesh = build_interval(0.0, 1.0, 128)
one = Weight.constant(1.0)
p, q = 2.0, 1.5
pair = principal_eigenpair(mesh, one, p)

lam_grid = np.linspace(0.15 * pair.lam, 1.9 * pair.lam, 13)
eta_grid = np.linspace(-1.2, 1.2, 7)
template = ProblemSpec(mesh, p, q, 0.0, 0.0, one, one, one)
region_map = sweep(template, lam_grid, eta_grid, SolveOptions(t_grid=(1.0, 4.0), n_random=1))

GLYPH = {
    "positive": "+",
    "negative": "-",
    "nonneg_with_zeros": "0",
    "nonpos_with_zeros": "o",
    "sign_changing": "~",
    "zero": " ",
}

print(f"lam1 = {region_map.lam1:.4f}, second-eigenvalue bound = {region_map.lam2_bound:.4f}")
print("columns: lam from left to right; rows: eta from top (positive) down")
print("glyphs: + positive, - negative, ~ sign-changing, 0/o with zeros, ? mixed, . no solve\n")
header = "          " + "".join(
    "|" if abs(lam - region_map.lam1) < 0.5 * (lam_grid[1] - lam_grid[0]) else " "
    for lam in lam_grid
)
print(header + "   ('|' marks the column nearest lam1)")
for j in reversed(range(len(eta_grid))):
    row = ""
    for i in range(len(lam_grid)):
        classes = region_map.cells[(i, j)].classes
        if not classes:
            row += "."
        elif len(classes) == 1:
            row += GLYPH[classes[0]]
        else:
            row += "?"
    print(f"eta={eta_grid[j]:+5.2f} {row}")

print(f"\nmeasured MP half-width  delta_hat_mp  = {region_map.delta_hat_mp:.4f}")
print(f"measured AMP half-width delta_hat_amp = {region_map.delta_hat_amp:.4f}")
print("eta half-widths of the verified sign neighborhoods per lam column:")
for lam, width in list(region_map.eta_bounds.items())[:6]:
    print(f"  lam = {lam:7.3f}: |eta| < {width:.3f}")
print(f"\nbinding predictions emitted: {[p.id for p in region_map.predictions if p.region]}")
print(f"consistency counterexamples: {len(region_map.counterexamples)}")

write_csv(region_map, "sweep.csv")
print("full per-start table written to sweep.csv")

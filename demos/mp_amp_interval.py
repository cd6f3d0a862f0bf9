"""Maximum vs antimaximum principle for -Lap_p(u) = lam u^{p-1}-ish + 1.

For a nonnegative source every solution is positive while lam < lam1 (maximum
principle) and flips to negative on a right neighborhood of lam1 (antimaximum
principle).  This script solves the unperturbed problem (eta = 0, f = 1)
across lam for p = 2 and p = 3 and tabulates the observed sign class, the sup
norm, and the boundary-derivative diagnostic.
"""

from plap import ProblemSpec, SolveOptions, Weight, build_interval, multi_start_solve, principal_eigenpair

mesh = build_interval(0.0, 1.0, 256)
one = Weight.constant(1.0)

for p in (2.0, 3.0):
    pair = principal_eigenpair(mesh, one, p)
    print(f"\n== p = {p:g}, lam1 = {pair.lam:.4f} ==")
    print(f"{'lam/lam1':>9} | {'sign class':>16} | {'sup norm':>10} | flux sign at x=0")
    # multi_start_solve finds lam1 and phi1 itself, one eigensolve per (mesh, m, p)
    opts = SolveOptions(t_grid=(1.0, 4.0), n_random=1)
    for frac in (0.3, 0.7, 0.9, 0.99, 1.01, 1.05, 1.3, 1.8):
        spec = ProblemSpec(mesh, p, 1.5, frac * pair.lam, 0.0, one, one, one)
        ms = multi_start_solve(spec, opts)
        if not ms.outcomes:
            print(f"{frac:9.2f} | {'(no solve converged)':>16} |")
            continue
        out = ms.outcomes[0]
        # du/dnu < 0 at the boundary goes with positivity inside, > 0 with negativity
        print(
            f"{frac:9.2f} | {out.sign_class:>16} | {out.sup_norm:10.3f} | {out.boundary_flux_sign[0]:+d}"
        )
    print("note the blow-up of the sup norm on both sides of lam1 and the sign flip across it")

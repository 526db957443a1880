"""The even-power series: exact recurrence, but an asymptotic expansion.

For even beta >= 4 the scattering solution factors as

    y = exp(-gamma r^-delta) exp(i eps sqrt(kappa) r) r^(beta/4) sigma(r)

with sigma a power series whose coefficients obey a five-index recurrence.
The recurrence is exact (every defining relation is satisfied to rounding),
yet the coefficients grow factorially, so truncations solve the equation only
close to the origin.  This script makes both facts visible.
"""

import numpy as np

from invpower import (PotentialMonomial, SeriesConfig, build_series,
                      ode_residual, origin_params, recurrence_residual)

pot = PotentialMonomial(1.0, 6.0)
config = SeriesConfig(pot=pot, kappa=1.0, lam=0.5, epsilon=1, s_max=40)
sol = build_series(config)
origin = origin_params(pot)

print("First coefficients (a_0 normalized to 1):")
for s in range(5):
    print(f"  a_{s} = {sol.coefficients[s]:.6g}")

print("\nCoefficient growth (factorial divergence):")
for s in (10, 20, 30, 40):
    print(f"  |a_{s}| = {abs(sol.coefficients[s]):.3e}")

print("\nEvery defining recurrence relation is satisfied:")
worst = max(abs(recurrence_residual(sol.coefficients, s, config))
            for s in range(-config.half_beta - 1, config.s_max - config.half_beta))
print(f"  max absolute recurrence residual over all rows: {worst:.3e} "
      "(scale: coefficients up to ~1e16)")

print("\n...but the truncated series is only valid near the origin:")
for r in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
    res = ode_residual(sol, origin, r)
    print(f"  r = {r:<5} residual = {float(res):.3e}")
print("\nBeyond r ~ 0.2 the residual is of order 1: y'' and f y no longer cancel"
      "\nat all.  The expansion is asymptotic, not convergent, so it is a"
      "\nnear-origin representation only.")

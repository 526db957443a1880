"""Independent check of the closed-form energies by numerical shooting.

The oracle never sees the closed-form wavefunction: it integrates the radial
equation outward from a generic exp(-sqrt(A)/r) seed and inward from a generic
exp(-sqrt(-E) r) seed, and moves the energy by Newton steps on the angle
between the two sweeps, inside an Illinois (regula falsi) bracket, until they
match smoothly (vanishing normalized Wronskian).
Agreement with the algebraic energy is therefore meaningful evidence, not
circular.
"""

import time

from invpower import RadialGrid, shoot_ground_energy, solve_ground_state

cases = [(1.0, 2.0, -4.0), (4.0, 0.0, -2.0)]
grid = RadialGrid(0.08, 14.0, 16_000)

for A, B, D in cases:
    sol = solve_ground_state(A, B, D)
    terms = ((A, 4.0), (B, 3.0), (sol.required_C, 2.0), (D, 1.0))
    start = time.perf_counter()
    result = shoot_ground_energy(terms, (2.0 * sol.energy, 0.5 * sol.energy), grid)
    elapsed = time.perf_counter() - start
    print(f"A = {A}, B = {B}, C = {sol.required_C}, D = {D}:")
    print(f"  closed-form energy:  {sol.energy:.12f}")
    print(f"  shooting energy:     {result.energy:.12f}  "
          f"({result.evaluations} defect evaluations, {elapsed:.2f} s)")
    print(f"  relative difference: "
          f"{abs(result.energy - sol.energy) / abs(sol.energy):.2e}")
    print(f"  final match defect:  {result.match_defect:.2e}")
    print()

"""Recovering the distinguished pair from a scrambled one.

Any unit-determinant recombination of a solution pair changes the
amplitude v = y1^2 + y2^2 by an oscillating factor.  Exactly one
combination (up to rotations) makes v' settle instead of oscillate;
find_principal recovers it from the trajectory alone.
"""

import numpy as np

from oscpairs import catalog_get, find_principal, integrate_pair, transform_pair

model = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 200.0)

report = find_principal(traj)
print("default pair, gen-airy nu=1/3 on [1, 200]")
print("  coefficients (A, B, C):", (report.coeffs.A, report.coeffs.B,
                                    report.coeffs.C))
print("  classification:", report.classification, " K =", report.K)
print("  oscillation residual (k1, k2):", (report.k1_est, report.k2_est))

# scramble the pair with an arbitrary unit-determinant matrix and redo
rng = np.random.default_rng(1)
a, b, c, d = rng.uniform(-1.5, 1.5, 4)
det = a * d - b * c
r = abs(det) ** -0.5
scrambled = transform_pair(traj, (a * r, b * r, c * r, d * r))
rep2 = find_principal(scrambled)
print("\nafter a random unit-determinant scramble")
print("  coefficients:", (rep2.coeffs.A, rep2.coeffs.B, rep2.coeffs.C))

# the recovered amplitude is the same function either way; each report
# carries the principal pair's phase data
v1 = report.phase.v
v2 = rep2.phase.v
print("  max relative difference of recovered v:",
      np.max(np.abs(v1 - v2) / v1))

# and it decays like 2*nu/sqrt(x) for this equation
grid = report.phase.grid
i = np.searchsorted(grid, 100.0)
print("  v * sqrt(x) at x = 100:", v1[i] * np.sqrt(grid[i]),
      " (limit 2 nu = %.6f)" % (2.0 / 3.0))

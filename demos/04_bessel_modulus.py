"""Bessel modulus t (J^2 + Y^2) and the closed-form amplitude.

The modulus increases to 2/pi for orders below 1/2 and is identically
2/pi at order 1/2.  The generalized-Airy amplitude is the modulus in
disguise, and comparing it with the pipeline exposes the Wronskian
bookkeeping: the classical pair sqrt(x) Z_nu(...) carries Wronskian
1/(nu pi), so its amplitude is 1/(nu pi) times the unit-normalized one.
"""

import math

import numpy as np

from oscpairs import catalog_get, example1_v, find_principal, integrate_pair, modulus

print("modulus M_nu(t) = t (J_nu^2 + Y_nu^2), increasing to 2/pi = %.6f:"
      % (2.0 / math.pi))
for nu in (0.1, 0.25, 1.0 / 3.0, 0.45, 0.5):
    row = [modulus(nu, t) for t in (1.0, 4.0, 16.0, 64.0)]
    print("  nu=%.3f:  " % nu + "  ".join("%.6f" % m for m in row))

nu = 1.0 / 3.0
print("\nclosed-form amplitude x (J^2 + Y^2)(2 nu x^(1/(2 nu))), nu = 1/3:")
for x in (10.0, 100.0):
    v = example1_v(nu, x)
    print("  x=%5.0f  v*sqrt(x) = %.6f   (-> 3/pi = %.6f)"
          % (x, v * math.sqrt(x), 3.0 / math.pi))

model = catalog_get("gen-airy", {"nu": nu})
traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 150.0)
phase = find_principal(traj).phase
i = np.searchsorted(phase.grid, 100.0)
x = float(phase.grid[i])
t = x ** (1.0 / (2.0 * nu))
print("\nunit-Wronskian pipeline vs the closed form at x = %.2f:" % x)
print("  pipeline v                     : %.10f" % phase.v[i])
print("  nu*pi * x*(J^2+Y^2)(x^(3/2))   : %.10f"
      % (nu * math.pi * (x / t) * modulus(nu, t)))
print("  raw closed-form amplitude      : %.10f  (differs by the pair's"
      " Wronskian 1/(nu pi) = %.6f)"
      % ((x / t) * modulus(nu, t) * 1.0, 1.0 / (nu * math.pi)))

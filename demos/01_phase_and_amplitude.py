"""Phase and amplitude of an oscillatory pair.

Integrates y'' + q y = 0 for two catalog equations and prints the
identities that make the phase/amplitude description work:

    v = y1^2 + y2^2 > 0,      v * alpha' = -w,
    y1 = sqrt(v) sin(alpha),  y2 = sqrt(v) cos(alpha).
"""

import numpy as np

from oscpairs import (catalog_get, integrate_pair, normalize_unit_wronskian,
                      phase_unwrap)

# --- constant coefficient: the pair is (sin, cos), the phase is x itself
model = catalog_get("constant", {"c": 1.0})
traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 30.0)
phase = phase_unwrap(traj)

print("constant q = 1 on [0, 30]")
print("  Wronskian:", traj.w)
print("  max |alpha(x) - x|      :", np.max(np.abs(phase.alpha - phase.grid)))
print("  max |v - 1|             :", np.max(np.abs(phase.v - 1.0)))
print("  max |v alpha' + w|      :", np.max(np.abs(phase.v * phase.alpha_prime + traj.w)))

# --- Cauchy-Euler: seed the closed-form pair sqrt(x) sin/cos(s log x),
# whose Wronskian is -s, and renormalize it to |w| = 1
model = catalog_get("cauchy-euler", {"gamma": 1.0})
s = model.params["s"]
traj = integrate_pair(model, (0.0, s), (1.0, 0.5), 500.0)
print("\ncauchy-euler gamma = 1 on [1, 500]")
print("  raw Wronskian of the closed-form pair:", traj.w, "(= -s)")
traj = normalize_unit_wronskian(traj)
phase = phase_unwrap(traj)
x = phase.grid
print("  after normalization, v(x) tracks x/s:")
print("  max relative deviation  :", np.max(np.abs(phase.v - x / s) / (x / s)))
print("  v' is constant at 1/s   :", np.max(np.abs(phase.v_prime - 1.0 / s)))
print("  alpha(x) - alpha(1) = s log x:",
      np.max(np.abs((phase.alpha - phase.alpha[0]) - s * np.log(x))))

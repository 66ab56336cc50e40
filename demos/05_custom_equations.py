"""Running the pipeline on a user-supplied coefficient.

parse_q turns an expression in x into a model with exact symbolic
derivatives, which the hypothesis predicates and the companion-equation
check consume directly.
"""

import numpy as np

from oscpairs import (appell_residual, find_principal, integrate_pair,
                      normalize_unit_wronskian, parse_q,
                      sufficient_conditions)

# the classical Airy coefficient, written as an expression
model = parse_q("x", x0=1.0)
print("q(x) = x:", model.evaluate(4.0), " (q, q', q'')")

traj = normalize_unit_wronskian(
    integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 120.0))
report = find_principal(traj)
print("classification:", report.classification, " K =", report.K)
print("coefficients:", (report.coeffs.A, report.coeffs.B, report.coeffs.C))

sc = sufficient_conditions(model, (1.0, 120.0))
print("growth hypotheses (q' >= 0, q'' <= 0, q -> inf):",
      sc.corollary1.status)

grid = np.linspace(3.0, 117.0, 64)
res = appell_residual(traj, report.coeffs, grid)
print("companion-equation residual of the recovered amplitude: %.2e"
      % res.max)

# a decaying coefficient with parameters
model = parse_q("g^2/x^2 + a/x^3", {"g": 1.5, "a": 0.2}, x0=1.0)
print("\nq(x) = g^2/x^2 + a/x^3 with g=1.5, a=0.2")
sc = sufficient_conditions(model, (1.0, 300.0))
print("curvature hypothesis (q q'' - 3 q'^2 >= 0):", sc.corollary2.status,
      "-", sc.corollary2.note or "holds everywhere")
traj = normalize_unit_wronskian(
    integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 300.0))
report = find_principal(traj)
print("classification:", report.classification, " K =", report.K)

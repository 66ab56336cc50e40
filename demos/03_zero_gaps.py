"""Zeros of y1' against zeros of y2.

For a distinguished pair with v' -> 0 the critical points of one member
approach the zeros of the other; the gap table quantifies the approach.
When v' tends to a nonzero constant the phase gap settles at a positive
value instead -- both behaviours are shown here.
"""

import math

import numpy as np

from oscpairs import catalog_get, find_principal, gap_table, integrate_pair


def principal_pair(name, params, xmax):
    model = catalog_get(name, params)
    traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), xmax)
    report = find_principal(traj)
    return report.pair, report.phase


# --- decaying v': gaps shrink like x^-2
pair, phase = principal_pair("gen-airy", {"nu": 1.0 / 3.0}, 200.0)
table = gap_table(pair, phase, (1.0, 200.0))
print("gen-airy nu=1/3: %d critical points matched" % len(table.j))
print("  first gap: %.3e   last gap: %.3e" % (table.d_first, table.d_last))
print("  expected tail scale x^-2/9 at x=200: %.3e" % (1.0 / (9 * 200.0 ** 2)))
print("  last three rows of the table:")
for row in range(len(table.j) - 3, len(table.j)):
    print("   j=%3d  x_crit=%.8f  gap=%.3e  phase_gap=%.3e"
          % (table.j[row], table.x_crit[row], table.gap[row],
             table.phase_gap[row]))

# --- constant v' = 1/s: the phase gap locks at pi/6 instead of vanishing
pair, phase = principal_pair("cauchy-euler", {"gamma": 1.0}, 5e7)
table = gap_table(pair, phase, (1.0, 5e7))
print("\ncauchy-euler gamma=1 (v' -> 1/s > 0):")
print("  phase gaps:", np.array2string(table.phase_gap, precision=8))
print("  pi/6      :", math.pi / 6.0)
print("  spatial gaps grow with x while the phase gap stays put:")
print("  gaps:", np.array2string(table.gap, precision=3))

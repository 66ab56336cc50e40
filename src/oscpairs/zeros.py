"""Zeros of solutions and the critical-point/zero gap table.

For a unit-Wronskian pair, zeros of y1' and zeros of y2 share the phase
axis: y2 vanishes where alpha = pi/2 mod pi, while y1' vanishes where
cot(alpha) = -v'/2.  When v' -> 0 the two sequences merge, so the gaps
d_j = |x_crit_j - x_zero_j| measure how closely the pair realizes that
limit; when v' tends to a nonzero constant the phase gap settles at a
positive value instead.  The phase gap, the distance of alpha(x_crit)
from the lattice pi/2 + k pi on which every zero of the second member
lies, has a closed form at a critical point: atan2(|second|, |first|)
of the two members' values there, which the critical-point relation
turns into atan(|v'| / (2 |w|)).

Newton polishes every root inside its bracket, a mesh interval, and a
round reads the dense output of the pair once for all live roots of all
targets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, WindowError
from .phasekit import ResidualStats

_COLUMNS = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}  # state columns of the targets
_TARGETS = tuple(_COLUMNS)
_NEWTON_ITERS = 12  # the catalog pairs need 2-7 from the secant start


def _newton(traj, cols, a, b, roots, sa):
    """Polish the roots of every bracket at once, one read of the dense
    output (PairTrajectory._dense) at the live roots per round.

    The root of state column cols[i] is a zero of y or of y' of solution
    cols[i] // 2; the derivative of y' is y'' = -q y, with q evaluated at
    those roots only.  Each read moves the end of the bracket [a, b] on
    the iterate's side (sa: the target's sign at a) to the iterate.  The
    Newton step is taken where it lands strictly inside the bracket or
    is below 1e-14 (1 + |x|), where the root retires; else the midpoint,
    which also breaks a cycle at the roundoff floor of the dense output."""
    a, b = a.copy(), b.copy()
    second, slope = cols >= 2, cols % 2 == 1
    live = np.arange(roots.size)
    for _ in range(_NEWTON_ITERS):
        if live.size == 0:
            break
        xc = roots[live]
        _, _, (y, d) = traj._dense(xc, 1)
        on_second, on_slope = second[live], slope[live]
        y, d = np.where(on_second, y[1], y[0]), np.where(on_second, d[1], d[0])
        f = np.where(on_slope, d, y)
        if on_slope.any():
            d[on_slope] = -traj.model.q_array(xc[on_slope]) * y[on_slope]
        left = np.sign(f) == sa[live]
        a[live] = np.where(left, xc, a[live])
        b[live] = np.where(left, b[live], xc)
        lo, hi, tol = a[live], b[live], 1e-14 * (1.0 + np.abs(xc))
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xc - f / d
        short = np.abs(xn - xc) <= tol  # also from an end: xc is one now
        xn = np.where(short | ((xn > lo) & (xn < hi)), xn, 0.5 * (lo + hi))
        roots[live] = xn
        live = live[np.abs(xn - xc) > tol]
    return roots


def _zeros(traj, targets, span=None):
    """The zeros of several state components inside span, polished in one
    Newton loop; one sorted array per target.

    Node values that are 0 are zeros as they stand.  A sign change of the
    node values brackets a root in its mesh interval, and Newton (_newton)
    starts from the secant point of the two node values."""
    for target in targets:
        if target not in _TARGETS:
            raise ParameterError(f"target must be one of {_TARGETS}")
    lo, hi = (traj.x0, traj.xmax) if span is None else (float(span[0]), float(span[1]))
    if lo < traj.x0 - 1e-12 or hi > traj.xmax * (1 + 1e-12) + 1e-12:
        raise ParameterError(f"span {span} outside trajectory range")
    mesh = traj.mesh
    i0, i1 = np.searchsorted(mesh, lo), np.searchsorted(mesh, hi, side="right")
    cols = np.array([_COLUMNS[t] for t in targets])
    x, f = mesh[i0:i1], traj.states[i0:i1, cols].T
    s = np.sign(f)
    which, k = np.nonzero(s[:, :-1] * s[:, 1:] < 0)  # grouped by target
    a, b = x[k], x[k + 1]
    fa, fb = f[which, k], f[which, k + 1]
    # the secant point lies inside [a, b]
    roots = _newton(traj, cols[which], a, b, a - fa * (b - a) / (fb - fa), np.sign(fa))
    ends = np.searchsorted(which, np.arange(1, len(cols)))
    return [np.sort(np.concatenate([x[row == 0.0], polished]))
            for row, polished in zip(f, np.split(roots, ends))]


def zeros_of(traj, target, span=None):
    """All zeros of one state component inside span, each polished to
    ~1e-12 relative accuracy.

    Sign changes are located on the stored mesh (which resolves the
    oscillation by construction).  Each root starts at the secant point
    of its two bracketing node values and is polished by Newton steps
    (see _newton).  An empty array is a valid result.
    """
    return _zeros(traj, (target,), span)[0]


@dataclass(frozen=True)
class ZeroGapTable:
    """Rows matching each critical point of the sine-like solution to the
    nearest zero of the cosine-like one."""

    j: np.ndarray          # 1-based row index
    x_crit: np.ndarray     # zeros of the derivative of the first member
    x_zero: np.ndarray     # nearest zero of the second member
    gap: np.ndarray        # |x_crit - x_zero|
    phase_gap: np.ndarray  # distance of alpha(x_crit) from pi/2 + k pi, in [0, pi/2]

    @property
    def d_first(self):
        return float(self.gap[0])

    @property
    def d_last(self):
        return float(self.gap[-1])

    @property
    def delta_last(self):
        return float(self.phase_gap[-1])

    def to_csv(self):
        """The rows, then a summary comment line when there is a row."""
        lines = ["j,x_crit,x_zero,gap,phase_gap"]
        for row in range(len(self.j)):
            lines.append("%d,%.17g,%.17g,%.17g,%.17g" % (
                self.j[row], self.x_crit[row], self.x_zero[row],
                self.gap[row], self.phase_gap[row]))
        if len(self.j):
            lines.append("# summary: d_first=%.17g d_last=%.17g delta_last=%.17g"
                         % (self.d_first, self.d_last, self.delta_last))
        return "\n".join(lines) + "\n"


def gap_table(traj, phase, span=None, min_zeros=5):
    """Match zeros of the first member's derivative to nearest zeros of
    the second member.

    phase gives only the pair order (flipped when the Wronskian is +1).
    The critical points and the zeros are polished in one Newton loop.
    The phase gap at each critical point is read in closed form from one
    value-only evaluation there, atan2(|second|, |first|): alpha =
    atan2(first, second), and the zeros of the second member lie at
    alpha = pi/2 + k pi.  Critical points outside the range covered by
    zeros of the companion are dropped; ties in the nearest-zero match go
    left.
    """
    first, second = ("y2", "y1") if phase.swapped else ("y1", "y2")
    x_crit, x_zero = _zeros(traj, (first + "p", second), span)
    if len(x_crit) < min_zeros or len(x_zero) < min_zeros:
        raise WindowError(
            f"need at least {min_zeros} zeros of each target in span; found "
            f"{len(x_crit)} critical points and {len(x_zero)} zeros")
    tol = 1e-9 * (1.0 + np.abs(x_crit))
    keep = (x_crit >= x_zero[0] - tol) & (x_crit <= x_zero[-1] + tol)
    x_crit = x_crit[keep]
    idx = np.searchsorted(x_zero, x_crit)
    idx = np.clip(idx, 1, len(x_zero) - 1)
    dist_right = np.abs(x_zero[idx] - x_crit)
    dist_left = np.abs(x_crit - x_zero[idx - 1])
    nearest = np.where(dist_left <= dist_right, x_zero[idx - 1], x_zero[idx])

    # alpha = atan2(first, second), so its distance to the lattice
    # pi/2 + k pi of the second member's zeros is atan2(|second|, |first|)
    _, _, ((y1, y2),) = traj._dense(x_crit, 0)
    a1, a2 = (y2, y1) if phase.swapped else (y1, y2)
    delta = np.arctan2(np.abs(a2), np.abs(a1))
    return ZeroGapTable(j=np.arange(1, len(x_crit) + 1),
                        x_crit=x_crit, x_zero=nearest,
                        gap=np.abs(x_crit - nearest), phase_gap=delta)


def critical_point_residual(traj, phase, x_crit):
    """Mismatch of cot(alpha) = alpha''/(2 alpha'^2) at critical points
    of the first member of the pair in phase order.

    Both sides come from closed forms: alpha' = |w|/v and (by
    differentiating v alpha' = |w|) alpha'' = -|w| v'/v^2, which reduce
    the right side to -v'/(2 |w|).  w = y1 y2' - y1' y2 is the local
    Wronskian, as in the gap table's phase gap: at a critical point v' is
    2 y y' of the second member and |w| is |y' of the second times the
    first|, so the relation holds there whatever the integrator's drift
    of w from its nominal value.
    """
    x_crit = np.atleast_1d(np.asarray(x_crit, dtype=float))
    vals = traj.evaluate(x_crit, nder=1)
    y1, d1, y2, d2 = vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]
    vp = 2.0 * (y1 * d1 + y2 * d2)
    w = np.abs(y1 * d2 - d1 * y2)
    alpha = phase.alpha_at(x_crit)
    sin_a = np.sin(alpha)
    if np.any(np.abs(sin_a) < 1e-12):
        raise ParameterError("critical point falls on a zero of the first member")
    mism = np.abs(np.cos(alpha) / sin_a + 0.5 * vp / w)
    return ResidualStats(max=float(np.max(mism)),
                         rms=float(math.sqrt(np.mean(mism ** 2))),
                         count=int(mism.size))

"""Zeros of solutions and the critical-point/zero gap table.

For a unit-Wronskian pair, zeros of y1' and zeros of y2 share the phase
axis: y2 vanishes where alpha = pi/2 mod pi, while y1' vanishes where
cot(alpha) = -v'/2.  When v' -> 0 the two sequences merge, so the gaps
d_j = |x_crit_j - x_zero_j| measure how closely the pair realizes that
limit; when v' tends to a nonzero constant the phase gap settles at a
positive value instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, WindowError
from .phasekit import ResidualStats

_COLUMNS = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}  # state columns of the targets
_TARGETS = tuple(_COLUMNS)
_NEWTON_ITERS = 12  # the catalog pairs need 2-7 from the secant start


def _eval_targets(traj, xs, cols):
    """(f, f') at xs[i] of the state component in column cols[i], from one
    dense-output evaluation; the derivative of y' comes from y'' = -q y,
    with q evaluated at those points only."""
    vals = traj.evaluate(xs, nder=1)
    first = cols < 2
    y = np.where(first, vals["y1"], vals["y2"])
    d = np.where(first, vals["y1p"], vals["y2p"])
    slope = cols % 2 == 1
    f = np.where(slope, d, y)
    if slope.any():
        d[slope] = -traj.model.q_array(xs[slope]) * y[slope]
    return f, d


def _brackets(traj, col, lo, hi):
    """Node-exact zeros of state column col on the mesh nodes in [lo, hi],
    and the sign-change brackets (a, b) of the node values with the
    secant point of each."""
    mesh = traj.mesh
    i0, i1 = np.searchsorted(mesh, lo), np.searchsorted(mesh, hi, side="right")
    f = traj.states[i0:i1, col]
    x = mesh[i0:i1]
    s = np.sign(f)
    change = np.nonzero(s[:-1] * s[1:] < 0)[0]
    a, b = x[change], x[change + 1]
    fa, fb = f[change], f[change + 1]
    return x[f == 0.0], a, b, a - fa * (b - a) / (fb - fa)  # secant inside [a, b]


def _newton(traj, cols, a, b, roots):
    """Polish the roots of every bracket at once, one evaluation per round.

    Newton steps with the exact derivative, clipped to the bracket.  A
    root retires once its step falls below 1e-14 (1 + |x|), or when the
    step stops shrinking: that is the roundoff floor of the dense output
    (f and f' disagree in their last bits, so Newton would cycle), and
    such a step is not taken."""
    last = np.full(roots.shape, np.inf)
    live = np.arange(roots.size)
    for _ in range(_NEWTON_ITERS):
        if live.size == 0:
            break
        xc = roots[live]
        fc, dc = _eval_targets(traj, xc, cols[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = np.clip(xc - fc / dc, a[live], b[live])
        step = np.abs(xn - xc)
        shrinks = step < last[live]
        roots[live[shrinks]] = xn[shrinks]
        last[live] = step
        live = live[shrinks & (step > 1e-14 * (1.0 + np.abs(xc)))]
    return roots


def _zeros(traj, targets, span=None):
    """The zeros of several state components inside span, polished in one
    Newton loop; one sorted array per target."""
    for target in targets:
        if target not in _TARGETS:
            raise ParameterError(f"target must be one of {_TARGETS}")
    lo, hi = (traj.x0, traj.xmax) if span is None else (float(span[0]), float(span[1]))
    if lo < traj.x0 - 1e-12 or hi > traj.xmax * (1 + 1e-12) + 1e-12:
        raise ParameterError(f"span {span} outside trajectory range")
    found = [_brackets(traj, _COLUMNS[t], lo, hi) for t in targets]
    cols = np.concatenate([np.full(len(br[1]), _COLUMNS[t], dtype=np.intp)
                           for t, br in zip(targets, found)])
    a, b, roots = (np.concatenate([br[k] for br in found]) for k in (1, 2, 3))
    roots = _newton(traj, cols, a, b, roots)
    ends = np.cumsum([len(br[1]) for br in found])[:-1]
    out = []
    for (exact, *_), polished in zip(found, np.split(roots, ends)):
        z = np.sort(np.concatenate([exact, polished]))
        if len(z) > 1:  # dedupe node-exact hits that also bracket
            z = z[np.concatenate([[True], np.diff(z) > 1e-10 * (1.0 + np.abs(z[1:]))])]
        out.append(z)
    return out


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
    phase_gap: np.ndarray  # alpha distance mod pi, folded into [0, pi/2]

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

    The pair order follows the phase data (flipped when the Wronskian is
    +1).  The critical points and the zeros are polished in one Newton
    loop, and their phases come from one evaluation.  Critical points
    outside the range covered by zeros of the companion are dropped; ties
    in the nearest-zero match go left.
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

    alpha = phase.alpha_at(np.concatenate([x_crit, nearest]))
    r = np.abs(alpha[:len(x_crit)] - alpha[len(x_crit):]) % math.pi
    delta = np.minimum(r, math.pi - r)
    return ZeroGapTable(j=np.arange(1, len(x_crit) + 1),
                        x_crit=x_crit, x_zero=nearest,
                        gap=np.abs(x_crit - nearest), phase_gap=delta)


def critical_point_residual(traj, phase, x_crit):
    """Mismatch of cot(alpha) = alpha''/(2 alpha'^2) at critical points.

    Both sides come from closed forms: alpha' = -w/v and (by
    differentiating v alpha' = -w) alpha'' = w v'/v^2, which reduce the
    right side to -v'/2 for the increasing-phase ordering.
    """
    x_crit = np.atleast_1d(np.asarray(x_crit, dtype=float))
    if phase.alpha is None:
        raise ParameterError("phase data lacks alpha; use phase_unwrap")
    vals = traj.evaluate(x_crit, nder=1)
    y1, d1, y2, d2 = vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]
    vp = 2.0 * (y1 * d1 + y2 * d2)
    alpha = phase.alpha_at(x_crit)
    sin_a = np.sin(alpha)
    if np.any(np.abs(sin_a) < 1e-12):
        raise ParameterError("critical point falls on a zero of the first member")
    mism = np.abs(np.cos(alpha) / sin_a + 0.5 * vp)
    return ResidualStats(max=float(np.max(mism)),
                         rms=float(math.sqrt(np.mean(mism ** 2))),
                         count=int(mism.size))

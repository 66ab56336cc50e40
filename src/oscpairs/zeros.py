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

_TARGETS = ("y1", "y2", "y1p", "y2p")
_NEWTON_ITERS = 12  # the catalog pairs need 2-7 from the secant start


def _target_eval(traj, target):
    """(f, f') evaluators; derivatives of y' come from y'' = -q y."""
    col = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}[target]
    if target in ("y1", "y2"):
        def fval(xs):
            vals = traj.evaluate(xs, nder=1)
            key = "y1" if col == 0 else "y2"
            return vals[key], vals[key + "p"]
    else:
        base = "y1" if col == 1 else "y2"

        def fval(xs):
            vals = traj.evaluate(xs, nder=1)
            q = traj.model.q_array(xs)
            return vals[base + "p"], -q * vals[base]
    return fval


def zeros_of(traj, target, span=None):
    """All zeros of one state component inside span, each polished to
    ~1e-12 relative accuracy.

    Sign changes are located on the stored mesh (which resolves the
    oscillation by construction).  Each root starts at the secant point
    of its two bracketing node values and is polished by Newton steps
    with the exact derivative, clipped to the bracket.  A root retires
    once its step falls below 1e-14 (1 + |x|), or when the step stops
    shrinking: that is the roundoff floor of the dense output, and such a
    step is not taken.  An empty array is a valid result.
    """
    if target not in _TARGETS:
        raise ParameterError(f"target must be one of {_TARGETS}")
    lo, hi = (traj.x0, traj.xmax) if span is None else (float(span[0]), float(span[1]))
    if lo < traj.x0 - 1e-12 or hi > traj.xmax * (1 + 1e-12) + 1e-12:
        raise ParameterError(f"span {span} outside trajectory range")
    mesh = traj.mesh
    col = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}[target]
    fmesh = traj.states[:, col]
    i0, i1 = np.searchsorted(mesh, [lo, hi])
    i0 = max(i0, 0)
    i1 = min(i1, len(mesh))
    if i1 - i0 < 2:
        return np.array([])
    f = fmesh[i0:i1]
    x = mesh[i0:i1]

    exact = x[f == 0.0]
    s = np.sign(f)
    change = np.nonzero(s[:-1] * s[1:] < 0)[0]
    a, b = x[change], x[change + 1]
    fa, fb = f[change], f[change + 1]
    roots = a - fa * (b - a) / (fb - fa)  # fa, fb differ in sign: inside [a, b]

    fval = _target_eval(traj, target)
    last = np.full(roots.shape, np.inf)
    live = np.arange(roots.size)
    for _ in range(_NEWTON_ITERS):
        if live.size == 0:
            break
        xc = roots[live]
        fc, dc = fval(xc)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = np.clip(xc - fc / dc, a[live], b[live])
        step = np.abs(xn - xc)
        # a step that does not shrink means f and f' disagree in their
        # last bits there (Newton would cycle): keep xc and retire
        shrinks = step < last[live]
        roots[live[shrinks]] = xn[shrinks]
        last[live] = step
        live = live[shrinks & (step > 1e-14 * (1.0 + np.abs(xc)))]

    out = np.sort(np.concatenate([exact, roots]))
    if len(out) > 1:  # dedupe node-exact hits that also bracket
        keep = np.concatenate([[True], np.diff(out) > 1e-10 * (1.0 + np.abs(out[1:]))])
        out = out[keep]
    return out


@dataclass(frozen=True)
class ZeroGapTable:
    """Rows matching each critical point of the sine-like solution to the
    nearest zero of the cosine-like one."""

    j: np.ndarray          # 1-based row index
    x_crit: np.ndarray     # zeros of the derivative of the first member
    x_zero: np.ndarray     # nearest zero of the second member
    gap: np.ndarray        # |x_crit - x_zero|
    phase_gap: np.ndarray  # alpha distance mod pi, folded into [0, pi/2]
    which: str             # which stored solution played the first member

    @property
    def d_first(self):
        return float(self.gap[0])

    @property
    def d_last(self):
        return float(self.gap[-1])

    @property
    def delta_last(self):
        return float(self.phase_gap[-1])

    def to_csv(self, include_summary=False):
        lines = ["j,x_crit,x_zero,gap,phase_gap"]
        for row in range(len(self.j)):
            lines.append("%d,%.17g,%.17g,%.17g,%.17g" % (
                self.j[row], self.x_crit[row], self.x_zero[row],
                self.gap[row], self.phase_gap[row]))
        if include_summary and len(self.j):
            lines.append("# summary: d_first=%.17g d_last=%.17g delta_last=%.17g"
                         % (self.d_first, self.d_last, self.delta_last))
        return "\n".join(lines) + "\n"


def gap_table(traj, phase, span=None, min_zeros=5):
    """Match zeros of the first member's derivative to nearest zeros of
    the second member.

    The pair order follows the phase data (flipped when the Wronskian is
    +1).  Critical points outside the range covered by zeros of the
    companion are dropped; ties in the nearest-zero match go left.
    """
    first, second = ("y2", "y1") if phase.swapped else ("y1", "y2")
    x_crit = zeros_of(traj, first + "p", span)
    x_zero = zeros_of(traj, second, span)
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

    a_crit = phase.alpha_at(x_crit)
    a_zero = phase.alpha_at(nearest)
    r = np.abs(a_crit - a_zero) % math.pi
    delta = np.minimum(r, math.pi - r)
    return ZeroGapTable(j=np.arange(1, len(x_crit) + 1),
                        x_crit=x_crit, x_zero=nearest,
                        gap=np.abs(x_crit - nearest), phase_gap=delta,
                        which=first)


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
    v = y1 * y1 + y2 * y2
    vp = 2.0 * (y1 * d1 + y2 * d2)
    alpha = phase.alpha_at(x_crit)
    sin_a = np.sin(alpha)
    if np.any(np.abs(sin_a) < 1e-12):
        raise ParameterError("critical point falls on a zero of the first member")
    mism = np.abs(np.cos(alpha) / sin_a + 0.5 * vp)
    return ResidualStats(max=float(np.max(mism)),
                         rms=float(math.sqrt(np.mean(mism ** 2))),
                         count=int(mism.size))

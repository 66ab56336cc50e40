"""Phase and amplitude machinery for a unit-Wronskian solution pair.

For independent solutions y1, y2 with Wronskian w the amplitude
v = y1^2 + y2^2 never vanishes and satisfies v * alpha' = -w, where
alpha is the continuous phase with tan(alpha) = y1/y2 (Boruvka's first
phase).  The phase stored here always increases: with w = -1 the pair
is recovered as

    y1 = sqrt(v) * sin(alpha),   y2 = sqrt(v) * cos(alpha),

and with w = +1 phase_unwrap takes the pair in the order (y2, y1)
(PhaseData.swapped), so that y2 = sqrt(v) sin(alpha) and
y1 = sqrt(v) cos(alpha).  Either way v * alpha' = 1.

alpha is computed by quadrature of the exact alpha' = |w|/v, which makes
monotonicity and branch consistency structural; the pointwise
two-argument arctangent serves as an independent consistency check.
Every mesh interval gets 6-point Gauss-Legendre (Davis & Rabinowitz
1984) of |w|/v on the order-7 Hermite dense output: at fixed fractions
of an interval its basis is the same for every interval, so y and y'
there are one product of a fixed table (integrate._panel_table) with
the node data, and |w|/v needs no evaluation of q.  The table comes
from the dense output's own factored basis, so the panels read the same
values as PairTrajectory.evaluate, which round at the level of the
node data.  An interval that one panel leaves off the arctangent's
increment is split into 2, 4, ... panels.

v and any quadratic combination A y1^2 + B y2^2 + 2C y1 y2 solve the
third-order Appell companion equation v''' + 4 q v' + 2 q' v = 0, which
appell_residual verifies against a five-point finite difference.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ParameterError, PhaseConsistencyError
from .integrate import _BLOCK, _GL_WEIGHTS, _node_data, _panel_table

_ATAN2_CHECK_BOUND = 1e-4  # quadrature-vs-arctangent mismatch => grid too coarse
# relative error the quadrature of one mesh interval may keep: summed over
# 10^6 rad of phase it stays below the arctangent check
_PANEL_RTOL = 1e-10
_MAX_SUB_PANELS = 256  # an interval this far from resolved fails the check


@dataclass(frozen=True)
class PhaseData:
    """Phase and amplitude of a unit-Wronskian pair on its trajectory's
    mesh (``grid``).

    Built only by phase_unwrap, and by _combined_phase for a combination
    of an unwrapped pair, whose alpha_mismatch_max is None: its phase is
    mapped, not checked against the arctangent.  ``swapped`` records that the pair
    order was flipped internally so the effective Wronskian is -1 and
    alpha increases.  ``refined_intervals`` counts the mesh intervals
    whose phase quadrature was split into more than one Gauss-Legendre
    panel (see _phase_increments).
    """

    v: np.ndarray
    v_prime: np.ndarray
    v_second: np.ndarray
    alpha: np.ndarray
    _traj: object = field(repr=False, compare=False)
    swapped: bool = False
    alpha_mismatch_max: float | None = None
    refined_intervals: int = 0

    @property
    def grid(self):
        """The mesh of the trajectory the phase belongs to."""
        return self._traj.mesh

    @property
    def alpha_prime(self):
        """|alpha'| = 1/v for the unit pair."""
        return 1.0 / self.v

    def alpha_at(self, xs):
        """Phase at arbitrary points, machine-accurate.

        The quadrature values anchor the branch; the value itself is
        snapped to the pointwise arctangent of (y1, y2).
        """
        scalar = np.isscalar(xs)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        xs, idx, ((y1, y2),) = self._traj._dense(xs, 0)
        alpha = self._alpha_of(xs, idx, y1, y2)
        return float(alpha[0]) if scalar else alpha

    def _alpha_of(self, xs, idx, y1, y2):
        """alpha_at for points xs in the mesh intervals idx where the
        pair's values y1, y2 are already known."""
        mesh = self._traj.mesh
        a1, a2 = (y2, y1) if self.swapped else (y1, y2)
        raw = np.arctan2(a1, a2)
        # coarse anchor: one trapezoid of alpha' = 1/v from the left node
        v_here = a1 ** 2 + a2 ** 2
        approx = self.alpha[idx] + 0.5 * (xs - mesh[idx]) * (1.0 / self.v[idx] + 1.0 / v_here)
        return raw + 2.0 * math.pi * np.round((approx - raw) / (2.0 * math.pi))


def _require_unit(traj):
    if not traj.unit_wronskian:
        raise ParameterError(
            f"pair must be unit-Wronskian normalized (|w| = {abs(traj.w)!r}); "
            "call normalize_unit_wronskian first")


def _amplitude(y1, d1, y2, d2, q):
    """(v, v', v'') of the amplitude v = y1^2 + y2^2 from exact states:

    v'  = 2 (y1 y1' + y2 y2')
    v'' = 2 (y1'^2 + y2'^2) - 2 q v
    """
    v = y1 * y1 + y2 * y2
    return v, 2.0 * (y1 * d1 + y2 * d2), 2.0 * (d1 * d1 + d2 * d2) - 2.0 * q * v


def _gauss_sums(traj, idx, n):
    """Integral of |w|/v over each mesh interval idx[i], by 6-point
    Gauss-Legendre on n equal sub-panels of it.

    y and h y' of both solutions at the 6 n points of the intervals come
    from one product of _panel_table(n) with their node data per block
    of _BLOCK / n intervals, which bounds the temporaries whatever the
    size of idx; then h |w|/v = |y1 h y2' - h y1' y2| / (y1^2 + y2^2),
    with no dense-output evaluation and no q.
    """
    sums = np.empty(idx.size)
    step = max(1, _BLOCK // n)
    for i in range(0, idx.size, step):
        block = idx[i:i + step]
        m = block.size
        ys = (_panel_table(n) @ _node_data(traj, block).reshape(9, 2 * m)).reshape(2, -1, 2, m)
        (y1, y2), (s1, s2) = ys.transpose(0, 2, 1, 3)
        speed = np.abs(y1 * s2 - s1 * y2) / (y1 * y1 + y2 * y2)
        sums[i:i + step] = np.tile(_GL_WEIGHTS, n) @ speed * (0.5 / n)
    return sums


def _phase_increments(traj, turn):
    """Integral of |w|/v over every mesh interval, and the number of
    intervals split into more than one panel; turn is the arctangent's
    increment of the phase over each interval, up to a whole turn.

    Every interval gets 6-point Gauss-Legendre on one panel
    (_gauss_sums).  The size of turn wrapped into [0, pi] is the phase
    the dense output moves over an interval while it moves less than pi,
    and the quadrature of its |w|/v converges to it.  An interval whose
    result is off it by more than _PANEL_RTOL is split into 2, 4, ...
    equal sub-panels, as long as that still changes its result by more
    than the tolerance (a result that has settled elsewhere is the
    check's to report, in phase_unwrap), up to _MAX_SUB_PANELS.
    """
    turn = np.abs(turn)
    turn = np.minimum(turn, 2.0 * math.pi - turn)
    inc = _gauss_sums(traj, np.arange(turn.size), 1)
    off = np.flatnonzero(np.abs(inc - turn) > _PANEL_RTOL * turn)
    refined = off.size
    n = 2
    while off.size and n <= _MAX_SUB_PANELS:
        before, inc[off] = inc[off], _gauss_sums(traj, off, n)
        slack = _PANEL_RTOL * turn[off]
        off = off[(np.abs(inc[off] - turn[off]) > slack)
                  & (np.abs(inc[off] - before) > slack)]
        n *= 2
    return inc, refined


def phase_unwrap(traj):
    """Continuous, strictly monotone phase on the mesh from quadrature of
    alpha' = -w/v.

    alpha(x0) is fixed in (-pi, pi] by atan2(y1, y2).  If w = +1 the pair
    order is flipped internally so the stored phase increases (the result
    notes this via ``swapped``).  Raises PhaseConsistencyError when the
    quadrature disagrees with the pointwise arctangent beyond 1e-4, which
    signals a mesh too coarse for the oscillation.  PhaseData.alpha_at
    gives the phase at arbitrary points.
    """
    _require_unit(traj)
    swapped = traj.w > 0
    y1, d1, y2, d2 = traj.states.T
    a1, a2 = (y2, y1) if swapped else (y1, y2)

    raw = np.arctan2(a1, a2)
    v, vp, vpp = _amplitude(y1, d1, y2, d2, traj.q_nodes)
    inc, refined = _phase_increments(traj, np.diff(raw))
    alpha = np.concatenate([[math.atan2(a1[0], a2[0])], inc]).cumsum()

    mism = alpha - raw
    mism -= 2.0 * math.pi * np.round(mism / (2.0 * math.pi))
    mismatch = float(np.max(np.abs(mism))) if len(mism) else 0.0
    if mismatch > _ATAN2_CHECK_BOUND:
        raise PhaseConsistencyError(
            f"phase quadrature deviates from arctangent by {mismatch:.3e}; "
            "refine the trajectory (tighter rtol)")

    return PhaseData(v=v, v_prime=vp, v_second=vpp, alpha=alpha, _traj=traj,
                     swapped=swapped, alpha_mismatch_max=mismatch,
                     refined_intervals=refined)


def _combined_alpha(z1, z2, alpha, swapped):
    """Continuous phase of a combination (z1, z2) = M (y1, y2) with
    det M = 1, at nodes where the input pair's phase is alpha; the branch
    is anchored at the first of them.

    tan(alpha_bar) is a Moebius map of tan(alpha), so alpha_bar - alpha is
    a pi-periodic function of alpha whose range is shorter than pi.  The
    arctangent of the combined pair, unwrapped against alpha shifted by
    that difference at the first node, is therefore the continuous phase.
    """
    raw = np.arctan2(z2, z1) if swapped else np.arctan2(z1, z2)
    near = alpha + (raw[0] - alpha[0])
    return raw + 2.0 * math.pi * np.round((near - raw) / (2.0 * math.pi))


def _combined_phase(pair, phase):
    """PhaseData of pair = M (y1, y2), a combination with det M = 1 of the
    pair whose unwrapped phase is ``phase``, on the same mesh; no
    quadrature (see _combined_alpha).  Its alpha_at works on pair."""
    z1, p1, z2, p2 = pair.states.T
    v, vp, vpp = _amplitude(z1, p1, z2, p2, pair.q_nodes)
    return PhaseData(v=v, v_prime=vp, v_second=vpp,
                     alpha=_combined_alpha(z1, z2, phase.alpha, phase.swapped),
                     _traj=pair, swapped=phase.swapped)


def _coeff_triple(coeffs):
    if hasattr(coeffs, "A"):
        return float(coeffs.A), float(coeffs.B), float(coeffs.C)
    a, b, c = coeffs
    return float(a), float(b), float(c)


@dataclass(frozen=True)
class ResidualStats:
    max: float
    rms: float
    count: int


# The h stencil (-2, -1, 0, 1, 2) h and the h/2 stencil (-1, -1/2, 0, 1/2, 1) h
# share the points at -h, 0 and +h: seven offsets in units of h, and the
# columns of each stencil among them
_STENCIL = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_CENTER = 3
_SIDES = [0, 1, 2, 4, 5, 6]
_FULL = [0, 1, 3, 5, 6]
_HALF = [1, 2, 3, 4, 5]
_DIAGONAL = np.arange(5)


def _third_derivative_stencils(traj, A, B, C, centers, hc, v_center):
    """Five-point third derivatives of v = A y1^2 + B y2^2 + 2C y1 y2
    around each center at spacings hc and hc/2, from one evaluation of the
    six off-center points; v_center is v at the centers.  Weights are
    built for the offsets actually realized in floating point, so node
    rounding costs no accuracy: for offsets z_i (in units of the spacing)
    the third derivative at 0 of the interpolant is sum_i w_i v_i with
    w_i = -6 (sum_{j != i} z_j) / prod_{j != i} (z_i - z_j), both weight
    sets at once."""
    n = len(hc)
    pts = centers[:, None] + hc[:, None] * _STENCIL
    pv = traj.evaluate(pts[:, _SIDES].ravel(), nder=0)
    py1, py2 = pv["y1"].reshape(n, -1), pv["y2"].reshape(n, -1)
    vv = np.empty(pts.shape)
    vv[:, _SIDES] = A * py1 ** 2 + B * py2 ** 2 + 2.0 * C * py1 * py2
    vv[:, _CENTER] = v_center
    z = (pts - centers[:, None]) / hc[:, None]
    z = np.concatenate([z[:, _FULL], 2.0 * z[:, _HALF]])  # in units of each spacing
    gaps = z[:, :, None] - z[:, None, :]
    gaps[:, _DIAGONAL, _DIAGONAL] = 1.0
    spacing = np.concatenate([hc, 0.5 * hc])
    wts = (-6.0 * (z.sum(axis=1)[:, None] - z) / gaps.prod(axis=2)
           / spacing[:, None] ** 3)
    return (vv[:, _FULL] * wts[:n]).sum(axis=1), (vv[:, _HALF] * wts[n:]).sum(axis=1)


def appell_residual(traj, coeffs, grid):
    """Check v''' + 4 q v' + 2 q' v = 0 for v = A y1^2 + B y2^2 + 2C y1 y2.

    v''' is formed two ways: analytically as -4 q v' - 2 q' v, and by a
    five-point finite difference of the sampled combination on a local
    stencil around each grid point (stencil spacing follows the local
    oscillation rate).  Differences are normalized by the oscillation
    scale max(|v'''|, (2 alpha')^3 |v|), so the statistics are comparable
    across slowly and rapidly oscillating equations.
    """
    _require_unit(traj)
    A, B, C = _coeff_triple(coeffs)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5:
        raise GridError("need at least 5 grid points for the 5-point stencil")

    lo, hi = traj.x0, traj.xmax
    span = hi - lo
    vals = traj.evaluate(grid, nder=1)
    y1, d1, y2, d2 = vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]
    v = A * y1 ** 2 + B * y2 ** 2 + 2.0 * C * y1 * y2
    vp = 2.0 * A * y1 * d1 + 2.0 * B * y2 * d2 + 2.0 * C * (d1 * y2 + y1 * d2)
    q = traj.model.q_array(grid)
    qp = traj.model.q_prime_array(grid)
    qpp = traj.model.q_second_array(grid)
    ana = -4.0 * q * vp - 2.0 * qp * v

    # stencil width from balancing truncation (h^2 |v'''''| / 4) against
    # the roundoff floor (|v| eps / h^3), widened 8x because Richardson
    # extrapolation over h and h/2 removes the h^2 truncation term;
    # |v'''''| is estimated from the exact lower derivatives, so smooth
    # combinations automatically get wide stencils
    ap = 1.0 / (y1 ** 2 + y2 ** 2)  # |alpha'| for the unit pair
    vpp = (2.0 * A * (d1 * d1 - q * y1 * y1) + 2.0 * B * (d2 * d2 - q * y2 * y2)
           + 4.0 * C * (d1 * d2 - q * y1 * y2))
    v5 = (4.0 * np.abs(q * ana) + 10.0 * np.abs(qp * vpp)
          + 8.0 * np.abs(qpp * vp) + 1e-300)
    h = 8.0 * (2.6e-13 * (np.abs(v) + 1e-300) / v5) ** 0.2
    h = np.minimum(h, span / 16.0)
    h = np.minimum(h, np.minimum(grid - lo, hi - grid) / 2.0)
    keep = h > 1e-9 * (1.0 + np.abs(grid))
    if keep.sum() < 1:
        raise GridError("no interior grid points leave room for the stencil")
    centers = grid[keep]
    hc = h[keep]

    num_full, num_half = _third_derivative_stencils(traj, A, B, C, centers, hc,
                                                    v[keep])
    num = (4.0 * num_half - num_full) / 3.0

    scale = max(np.max(np.abs(ana[keep])),
                np.max((2.0 * ap[keep]) ** 3 * np.abs(v[keep])), 1e-300)
    diff = np.abs(num - ana[keep]) / scale
    return ResidualStats(max=float(diff.max()),
                         rms=float(math.sqrt(np.mean(diff ** 2))),
                         count=int(diff.size))

"""Phase and amplitude machinery for a unit-Wronskian solution pair.

For independent solutions y1, y2 with Wronskian w the amplitude
v = y1^2 + y2^2 never vanishes and satisfies v * alpha' = -w, where
alpha is the continuous phase with tan(alpha) = y1/y2 (Boruvka's first
phase).  With |w| = 1 the pair is recovered as

    y1 = eps * sqrt(v) * sin(alpha),   y2 = eps * sqrt(v) * cos(alpha).

alpha is computed by quadrature of the exact alpha' = -w/v, which makes
monotonicity and branch consistency structural; the pointwise
two-argument arctangent serves as an independent consistency check.

v and any quadratic combination A y1^2 + B y2^2 + 2C y1 y2 solve the
third-order Appell companion equation v''' + 4 q v' + 2 q' v = 0, which
appell_residual verifies against a five-point finite difference.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ParameterError, PhaseConsistencyError

_ATAN2_CHECK_BOUND = 1e-4  # quadrature-vs-arctangent mismatch => grid too coarse
_FAST_PANEL = 0.05  # phase per quadrature panel above which it is refined
_SUB_PANEL = 0.025  # largest phase per refined sub-panel


@dataclass(frozen=True)
class PhaseData:
    """Sampled phase and amplitude data for a unit-Wronskian pair.

    alpha and alpha_mismatch_max are None when only the amplitude series
    was computed.  ``swapped`` records that the pair order was flipped
    internally so the effective Wronskian is -1 and alpha increases.
    ``refined_intervals`` counts the mesh intervals whose phase quadrature
    went through sub-panel refinement.
    """

    grid: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    v_second: np.ndarray
    swapped: bool = False
    alpha: np.ndarray | None = None
    alpha_mismatch_max: float | None = None
    refined_intervals: int = 0
    _traj: object | None = field(default=None, repr=False, compare=False)

    @property
    def alpha_prime(self):
        """|alpha'| = 1/v for the unit pair."""
        return 1.0 / self.v

    def alpha_at(self, xs):
        """Phase at arbitrary points, machine-accurate.

        The quadrature values anchor the branch; the value itself is
        snapped to the pointwise arctangent of (y1, y2).
        """
        if self.alpha is None:
            raise ParameterError("phase was not unwrapped for this data")
        scalar = np.isscalar(xs)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        traj = self._traj
        mesh = traj.mesh
        idx = np.clip(np.searchsorted(mesh, xs, side="right") - 1, 0, len(mesh) - 2)
        vals = traj.evaluate(xs, nder=0)
        a1, a2 = (vals["y2"], vals["y1"]) if self.swapped else (vals["y1"], vals["y2"])
        raw = np.arctan2(a1, a2)
        # coarse anchor: one trapezoid of alpha' = 1/v from the left node
        v_here = a1 ** 2 + a2 ** 2
        approx = self.alpha[idx] + 0.5 * (xs - mesh[idx]) * (1.0 / self.v[idx] + 1.0 / v_here)
        alpha = raw + 2.0 * math.pi * np.round((approx - raw) / (2.0 * math.pi))
        return float(alpha[0]) if scalar else alpha


def _require_unit(traj):
    if not traj.unit_wronskian:
        raise ParameterError(
            f"pair must be unit-Wronskian normalized (|w| = {abs(traj.w)!r}); "
            "call normalize_unit_wronskian first")


def _states_on(traj, grid):
    """grid (the mesh for None) and y1, y1', y2, y2' and q on it."""
    if grid is None:
        return (traj.mesh, *traj.states.T, traj.q_nodes)
    grid = np.asarray(grid, dtype=float)
    vals = traj.evaluate(grid, nder=1)
    return (grid, vals["y1"], vals["y1p"], vals["y2"], vals["y2p"],
            traj.model.q_array(grid))


def _amplitude(y1, d1, y2, d2, q):
    """(v, v', v'') of the amplitude v = y1^2 + y2^2 from exact states:

    v'  = 2 (y1 y1' + y2 y2')
    v'' = 2 (y1'^2 + y2'^2) - 2 q v
    """
    v = y1 * y1 + y2 * y2
    return v, 2.0 * (y1 * d1 + y2 * d2), 2.0 * (d1 * d1 + d2 * d2) - 2.0 * q * v


def amplitude_series(traj, grid=None):
    """Amplitude v = y1^2 + y2^2 with exact first and second derivatives
    (see _amplitude).

    No numerical differentiation is involved.  The pair must be
    unit-normalized, since downstream classification assumes |w| = 1.
    """
    _require_unit(traj)
    grid, y1, d1, y2, d2, q = _states_on(traj, grid)
    v, vp, vpp = _amplitude(y1, d1, y2, d2, q)
    return PhaseData(grid=grid, v=v, v_prime=vp, v_second=vpp)


def _inv_v_derivatives(y1, d1, y2, d2, amp, q, qp):
    """(f, f', f''') for the phase speed f = |w|/v from exact states and
    their amplitude amp = (v, v', v'').

    v''' = -4 q v' - 2 q' v along solutions, so all derivatives of the
    quadrature integrand come out in closed form.  With r = 1/v and
    g = v' r they are f = w r, f' = -f g and
    f''' = f r (6 g (v'' - v' g) - v'''): one division and no powers.
    The local Wronskian is used rather than its nominal constant: the
    pointwise arctangent slope is exactly -w(x)/v, so this keeps the
    quadrature consistent with the arctangent even across the
    integrator's tiny w drift.
    """
    v, vp, vpp = amp
    w = np.abs(y1 * d2 - d1 * y2)
    vppp = -4.0 * q * vp - 2.0 * qp * v
    r = 1.0 / v
    g = vp * r
    f = w * r
    return f, -f * g, f * r * (6.0 * g * (vpp - vp * g) - vppp)


def _phase_increments(traj, amp, turn):
    """Integral of 1/v over every mesh interval, and the number of
    intervals refined; amp is the amplitude (v, v', v'') at the nodes and
    turn the arctangent's increment of the phase over each interval, up
    to a whole turn (see _refine_fast).

    Each interval first gets the Euler-Maclaurin corrected trapezoid
    (endpoint f' and f''' corrections) from exact node data, so no
    dense-output evaluations are needed.  Intervals where the phase moves
    fast (scrambled pairs can oscillate several times faster than the
    integration step control assumed) are then split into sub-panels of
    at most 0.025 rad of phase, all evaluated in one batched call
    (_refine_fast).
    """
    y1, d1, y2, d2 = traj.states.T
    f, f1, f3 = _inv_v_derivatives(y1, d1, y2, d2, amp, traj.q_nodes, traj.qp_nodes)
    inc = _corrected_trapezoid(np.diff(traj.mesh), (f[:-1], f1[:-1], f3[:-1]),
                               (f[1:], f1[1:], f3[1:]))
    return _refine_fast(traj, traj.mesh[:-1], traj.mesh[1:], inc, turn)


def _corrected_trapezoid(h, left, right):
    """Euler-Maclaurin corrected trapezoid of f over panels of width h
    from (f, f', f''') at their left and right ends."""
    (fa, f1a, f3a), (fb, f1b, f3b) = left, right
    return (0.5 * h * (fa + fb) - h * h / 12.0 * (f1b - f1a)
            + h ** 4 / 720.0 * (f3b - f3a))


def _inv_v_at(traj, xs):
    """(f, f', f''') of the phase speed at points xs, from the dense
    output and q there."""
    xs, y1, d1, y2, d2, q = _states_on(traj, xs)
    return _inv_v_derivatives(y1, d1, y2, d2, _amplitude(y1, d1, y2, d2, q), q,
                              traj.model.q_prime_array(xs))


def _refine_fast(traj, lo, hi, inc, turn):
    """Re-integrate 1/v on the panels [lo, hi] where the phase moves by
    more than _FAST_PANEL.

    A panel's move is the larger of its estimate |inc| and the size of
    turn, the arctangent's increment over it wrapped into [0, pi]: the
    corrected trapezoid misjudges a panel it does not resolve (even in
    sign), the arctangent does not while the panel moves less than pi.
    Only the fast panels' moves are formed.  Panel i is split into
    n_i = ceil(move_i / _SUB_PANEL) equal sub-panels with the n_i + 1
    edges lo_i + k (hi_i - lo_i)/n_i, the last one exactly hi_i.
    Neighbouring sub-panels share an edge, so the edges of all fast
    panels, laid end to end, are evaluated once, in one batch; the
    sub-panels' corrected trapezoids are summed back per panel.  Returns
    the updated increments and the number of panels refined.
    """
    size = np.abs(turn)
    # min(size, 2 pi - size) > _FAST_PANEL, without forming it everywhere
    seen = (size > _FAST_PANEL) & (size < 2.0 * math.pi - _FAST_PANEL)
    fast = np.flatnonzero(seen | (inc > _FAST_PANEL) | (inc < -_FAST_PANEL))
    if fast.size == 0:
        return inc, 0
    size = size[fast]
    move = np.maximum(np.abs(inc[fast]), np.minimum(size, 2.0 * math.pi - size))
    n = np.ceil(move / _SUB_PANEL).astype(np.intp)
    owner = np.repeat(np.arange(fast.size), n + 1)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    lo_k, hi_k, n_k = lo[fast][owner], hi[fast][owner], n[owner]
    step = (hi_k - lo_k) / n_k
    edges = np.where(k == n_k, hi_k, lo_k + k * step)
    f, f1, f3 = _inv_v_at(traj, edges)
    a = np.flatnonzero(k < n_k)  # left edge of every sub-panel
    b = a + 1
    sub = _corrected_trapezoid(edges[b] - edges[a], (f[a], f1[a], f3[a]),
                               (f[b], f1[b], f3[b]))
    inc = inc.copy()
    inc[fast] = np.bincount(owner[a], weights=sub)
    return inc, int(fast.size)


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
    v, vp, vpp = amp = _amplitude(y1, d1, y2, d2, traj.q_nodes)
    inc, refined = _phase_increments(traj, amp, np.diff(raw))
    alpha = np.concatenate([[math.atan2(a1[0], a2[0])], inc]).cumsum()

    mism = alpha - raw
    mism -= 2.0 * math.pi * np.round(mism / (2.0 * math.pi))
    mismatch = float(np.max(np.abs(mism))) if len(mism) else 0.0
    if mismatch > _ATAN2_CHECK_BOUND:
        raise PhaseConsistencyError(
            f"phase quadrature deviates from arctangent by {mismatch:.3e}; "
            "refine the trajectory (tighter rtol)")

    return PhaseData(grid=traj.mesh, v=v, v_prime=vp, v_second=vpp,
                     swapped=swapped, alpha=alpha, alpha_mismatch_max=mismatch,
                     refined_intervals=refined, _traj=traj)


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
    return PhaseData(grid=pair.mesh, v=v, v_prime=vp, v_second=vpp,
                     swapped=phase.swapped,
                     alpha=_combined_alpha(z1, z2, phase.alpha, phase.swapped),
                     _traj=pair)


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


def _third_derivative_stencils(traj, A, B, C, centers, hc, v_center):
    """Five-point third derivatives of v = A y1^2 + B y2^2 + 2C y1 y2
    around each center at spacings hc and hc/2, from one evaluation of the
    six off-center points; v_center is v at the centers.  Weights are
    built for the offsets actually realized in floating point, so node
    rounding costs no accuracy; both weight sets come from one batched
    solve."""
    n = len(hc)
    pts = centers[:, None] + hc[:, None] * _STENCIL
    pv = traj.evaluate(pts[:, _SIDES].ravel(), nder=0)
    py1, py2 = pv["y1"].reshape(n, -1), pv["y2"].reshape(n, -1)
    vv = np.empty(pts.shape)
    vv[:, _SIDES] = A * py1 ** 2 + B * py2 ** 2 + 2.0 * C * py1 * py2
    vv[:, _CENTER] = v_center
    z = (pts - centers[:, None]) / hc[:, None]
    z = np.concatenate([z[:, _FULL], 2.0 * z[:, _HALF]])  # in units of each spacing
    V = z[:, None, :] ** np.arange(5)[None, :, None]     # (2n, 5, 5) moments
    rhs = np.zeros((2 * n, 5, 1))
    rhs[:, 3, 0] = 6.0
    spacing = np.concatenate([hc, 0.5 * hc])
    wts = np.linalg.solve(V, rhs)[:, :, 0] / spacing[:, None] ** 3
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

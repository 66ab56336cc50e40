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


def wronskian(state):
    """y1*y2' - y1'*y2 for a state (y1, y1', y2, y2'); vectorized."""
    state = np.asarray(state, dtype=float)
    if state.ndim == 1:
        return float(state[0] * state[3] - state[1] * state[2])
    return state[:, 0] * state[:, 3] - state[:, 1] * state[:, 2]


@dataclass(frozen=True)
class PhaseData:
    """Sampled phase and amplitude data for a unit-Wronskian pair.

    alpha fields are None when only the amplitude series was computed.
    ``swapped`` records that the pair order was flipped internally so the
    effective Wronskian is -1 and alpha increases.
    ``refined_intervals`` counts the mesh intervals whose phase quadrature
    went through sub-panel refinement.
    """

    grid: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    v_second: np.ndarray
    w: float
    swapped: bool = False
    alpha: np.ndarray | None = None
    alpha_prime: np.ndarray | None = None
    alpha_mismatch_max: float | None = None
    refined_intervals: int = 0
    _traj: object | None = field(default=None, repr=False, compare=False)
    _mesh_alpha: np.ndarray | None = field(default=None, repr=False, compare=False)

    def alpha_at(self, xs):
        """Phase at arbitrary points, machine-accurate.

        The quadrature values anchor the branch; the value itself is
        snapped to the pointwise arctangent of (y1, y2).
        """
        if self._mesh_alpha is None:
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
        v_node = (traj.states[idx, 0] ** 2 + traj.states[idx, 2] ** 2)
        v_here = a1 ** 2 + a2 ** 2
        approx = self._mesh_alpha[idx] + 0.5 * (xs - mesh[idx]) * (1.0 / v_node + 1.0 / v_here)
        alpha = raw + 2.0 * math.pi * np.round((approx - raw) / (2.0 * math.pi))
        return float(alpha[0]) if scalar else alpha


@dataclass(frozen=True)
class PruferPolar:
    """Polar coordinates in the (y', y) plane: y = rho sin(phi), y' = rho cos(phi)."""

    grid: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    which: str


def _require_unit(traj):
    if not traj.unit_wronskian:
        raise ParameterError(
            f"pair must be unit-Wronskian normalized (|w| = {abs(traj.w)!r}); "
            "call normalize_unit_wronskian first")


def _states_on(traj, grid):
    if grid is None:
        return traj.mesh, traj.states[:, 0], traj.states[:, 1], traj.states[:, 2], traj.states[:, 3]
    grid = np.asarray(grid, dtype=float)
    vals = traj.evaluate(grid, nder=1)
    return grid, vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]


def amplitude_series(traj, grid=None):
    """Amplitude v = y1^2 + y2^2 with exact first and second derivatives.

    v'  = 2 (y1 y1' + y2 y2')
    v'' = 2 (y1'^2 + y2'^2) - 2 q v

    No numerical differentiation is involved.  The pair must be
    unit-normalized, since downstream classification assumes |w| = 1.
    """
    _require_unit(traj)
    grid, y1, d1, y2, d2 = _states_on(traj, grid)
    v = y1 * y1 + y2 * y2
    vp = 2.0 * (y1 * d1 + y2 * d2)
    q = traj.q_nodes if grid is traj.mesh else traj.model.q_array(grid)
    vpp = 2.0 * (d1 * d1 + d2 * d2) - 2.0 * q * v
    return PhaseData(grid=grid, v=v, v_prime=vp, v_second=vpp, w=traj.w)


def _inv_v_derivatives(traj, y1, d1, y2, d2, q, qp):
    """(f, f', f''') for the phase speed f = |w|/v from exact states.

    v'  = 2(y1 y1' + y2 y2'),  v'' = 2(y1'^2 + y2'^2) - 2 q v, and
    v''' = -4 q v' - 2 q' v along solutions, so all derivatives of the
    quadrature integrand come out in closed form.  The local Wronskian
    is used rather than its nominal constant: the pointwise arctangent
    slope is exactly -w(x)/v, so this keeps the quadrature consistent
    with the arctangent even across the integrator's tiny w drift.
    """
    v = y1 * y1 + y2 * y2
    w = np.abs(y1 * d2 - d1 * y2)
    vp = 2.0 * (y1 * d1 + y2 * d2)
    vpp = 2.0 * (d1 * d1 + d2 * d2) - 2.0 * q * v
    vppp = -4.0 * q * vp - 2.0 * qp * v
    f = w / v
    f1 = -w * vp / v ** 2
    f3 = w * (-vppp / v ** 2 + 6.0 * vp * vpp / v ** 3 - 6.0 * vp ** 3 / v ** 4)
    return f, f1, f3


def _phase_increments(traj):
    """Integral of 1/v over every mesh interval, and the number of
    intervals refined.

    Each interval first gets the Euler-Maclaurin corrected trapezoid
    (endpoint f' and f''' corrections) from exact node data, so no
    dense-output evaluations are needed.  Intervals where the phase moves
    fast (scrambled pairs can oscillate several times faster than the
    integration step control assumed) are then split into sub-panels of
    at most 0.025 rad of phase, all evaluated in one batched call
    (_refine_fast).
    """
    y1, d1, y2, d2 = traj.states.T
    f, f1, f3 = _inv_v_derivatives(traj, y1, d1, y2, d2,
                                   traj.q_nodes, traj.qp_nodes)
    h = np.diff(traj.mesh)
    inc = (0.5 * h * (f[:-1] + f[1:])
           - h * h / 12.0 * (f1[1:] - f1[:-1])
           + h ** 4 / 720.0 * (f3[1:] - f3[:-1]))
    return _refine_fast(traj, traj.mesh[:-1], traj.mesh[1:], inc)


def _refine_fast(traj, lo, hi, inc):
    """Re-integrate 1/v on the panels [lo, hi] whose estimate inc moves
    the phase by more than _FAST_PANEL.

    Panel i is split into n_i = ceil(|inc_i| / _SUB_PANEL) equal
    sub-panels with linspace edges (the last edge is exactly hi_i).  The
    sub-panels of all fast panels go through one _integrate_inv_v_local
    call and are summed back per panel.  Returns the updated increments
    and the number of panels refined.
    """
    fast = np.nonzero(np.abs(inc) > _FAST_PANEL)[0]
    if fast.size == 0:
        return inc, 0
    n = np.ceil(np.abs(inc[fast]) / _SUB_PANEL).astype(np.intp)
    owner = np.repeat(np.arange(fast.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    lo_k, hi_k, n_k = lo[fast][owner], hi[fast][owner], n[owner]
    step = (hi_k - lo_k) / n_k
    a = lo_k + k * step
    b = np.where(k + 1 == n_k, hi_k, lo_k + (k + 1) * step)
    sub = _integrate_inv_v_local(traj, a, b)
    inc = inc.copy()
    inc[fast] = np.bincount(owner, weights=sub)
    return inc, int(fast.size)


def _integrate_inv_v_local(traj, a, b):
    """Integral of 1/v over short sub-intervals [a, b] (corrected
    trapezoid with exact endpoint derivatives)."""
    va = traj.evaluate(a, nder=1)
    vb = traj.evaluate(b, nder=1)
    qa, qpa = traj.model.q_array(a), traj.model.q_prime_array(a)
    qb, qpb = traj.model.q_array(b), traj.model.q_prime_array(b)
    fa, f1a, f3a = _inv_v_derivatives(traj, va["y1"], va["y1p"], va["y2"], va["y2p"], qa, qpa)
    fb, f1b, f3b = _inv_v_derivatives(traj, vb["y1"], vb["y1p"], vb["y2"], vb["y2p"], qb, qpb)
    h = b - a
    return (0.5 * h * (fa + fb) - h * h / 12.0 * (f1b - f1a)
            + h ** 4 / 720.0 * (f3b - f3a))


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
    y1, y2 = traj.states[:, 0], traj.states[:, 2]
    a1, a2 = (y2, y1) if swapped else (y1, y2)

    inc, refined = _phase_increments(traj)
    alpha = np.concatenate([[math.atan2(a1[0], a2[0])], inc]).cumsum()

    raw = np.arctan2(a1, a2)
    mism = alpha - raw
    mism -= 2.0 * math.pi * np.round(mism / (2.0 * math.pi))
    mismatch = float(np.max(np.abs(mism))) if len(mism) else 0.0
    if mismatch > _ATAN2_CHECK_BOUND:
        raise PhaseConsistencyError(
            f"phase quadrature deviates from arctangent by {mismatch:.3e}; "
            "refine the trajectory (tighter rtol)")

    amp = amplitude_series(traj)
    return PhaseData(grid=traj.mesh, v=amp.v, v_prime=amp.v_prime,
                     v_second=amp.v_second, w=traj.w, swapped=swapped,
                     alpha=alpha, alpha_prime=1.0 / amp.v,
                     alpha_mismatch_max=mismatch, refined_intervals=refined,
                     _traj=traj, _mesh_alpha=alpha)


def _combined_phase(traj, phase, matrix):
    """PhaseData of the pair M (y1, y2), M = ((a, b), (c, d)) with
    ad - bc = 1, on the mesh of traj, from its node states and its
    unwrapped phase; no quadrature.

    tan(alpha_bar) is a Moebius map of tan(alpha), so alpha_bar - alpha is
    a pi-periodic function of alpha whose range is shorter than pi.  The
    arctangent of the combined pair, unwrapped against alpha shifted by
    that difference at the first node, is therefore the continuous phase.
    """
    a, b, c, d = matrix
    y1, d1, y2, d2 = traj.states.T
    z1, p1 = a * y1 + b * y2, a * d1 + b * d2
    z2, p2 = c * y1 + d * y2, c * d1 + d * d2
    v = z1 * z1 + z2 * z2
    raw = np.arctan2(z2, z1) if phase.swapped else np.arctan2(z1, z2)
    near = phase.alpha + (raw[0] - phase.alpha[0])
    alpha = raw + 2.0 * math.pi * np.round((near - raw) / (2.0 * math.pi))
    return PhaseData(grid=traj.mesh, v=v, v_prime=2.0 * (z1 * p1 + z2 * p2),
                     v_second=2.0 * (p1 * p1 + p2 * p2) - 2.0 * traj.q_nodes * v,
                     w=traj.w, swapped=phase.swapped, alpha=alpha,
                     alpha_prime=1.0 / v)


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


def _third_derivative_stencil(traj, A, B, C, centers, hc):
    """Five-point third derivative of A y1^2 + B y2^2 + 2C y1 y2 around
    each center.  Weights are built for the offsets actually realized in
    floating point, so node rounding costs no accuracy."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pts = centers[:, None] + hc[:, None] * offs[None, :]
    z = (pts - centers[:, None]) / hc[:, None]
    V = z[:, None, :] ** np.arange(5)[None, :, None]     # (n, 5, 5) moments
    rhs = np.zeros((len(hc), 5, 1))
    rhs[:, 3, 0] = 6.0
    wts = np.linalg.solve(V, rhs)[:, :, 0] / hc[:, None] ** 3
    pv = traj.evaluate(pts.ravel(), nder=0)
    py1, py2 = pv["y1"].reshape(pts.shape), pv["y2"].reshape(pts.shape)
    vv = A * py1 ** 2 + B * py2 ** 2 + 2.0 * C * py1 * py2
    return (vv * wts).sum(axis=1)


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

    num_full = _third_derivative_stencil(traj, A, B, C, centers, hc)
    num_half = _third_derivative_stencil(traj, A, B, C, centers, 0.5 * hc)
    num = (4.0 * num_half - num_full) / 3.0

    scale = max(np.max(np.abs(ana[keep])),
                np.max((2.0 * ap[keep]) ** 3 * np.abs(v[keep])), 1e-300)
    diff = np.abs(num - ana[keep]) / scale
    return ResidualStats(max=float(diff.max()),
                         rms=float(math.sqrt(np.mean(diff ** 2))),
                         count=int(diff.size))


def prufer_polar(traj, which="y1", grid=None):
    """Polar form y = rho sin(phi), y' = rho cos(phi) for one solution.

    phi is continuous with tan(phi) = y/y', fixed at the first node by
    atan2(y, y'); the angle satisfies phi' = cos^2(phi) + q sin^2(phi).
    """
    if which not in ("y1", "y2"):
        raise ParameterError("which must be 'y1' or 'y2'")
    col = 0 if which == "y1" else 2
    ym, dm = traj.states[:, col], traj.states[:, col + 1]
    if np.max(np.abs(ym)) == 0.0:
        raise ParameterError(f"{which} is identically zero")
    phi_mesh = np.unwrap(np.arctan2(ym, dm))

    if grid is None or grid is traj.mesh:
        grid = traj.mesh
        rho = np.hypot(ym, dm)
        phi = phi_mesh
    else:
        grid = np.asarray(grid, dtype=float)
        vals = traj.evaluate(grid, nder=1)
        y = vals["y1"] if which == "y1" else vals["y2"]
        d = vals["y1p"] if which == "y1" else vals["y2p"]
        rho = np.hypot(y, d)
        raw = np.arctan2(y, d)
        anchor = np.interp(grid, traj.mesh, phi_mesh)
        phi = raw + 2.0 * math.pi * np.round((anchor - raw) / (2.0 * math.pi))
    return PruferPolar(grid=grid, rho=rho, phi=phi, which=which)

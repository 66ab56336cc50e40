"""Finding and classifying principal pairs.

A unimodular change of pair (ybar1, ybar2) = M (y1, y2) acts on the
amplitude only through the quadratic form

    vbar = A y1^2 + B y2^2 + 2C y1 y2,
    A = a^2 + c^2,  B = b^2 + d^2,  C = ab + cd,  AB - C^2 = (ad - bc)^2,

so the search for the distinguished pair runs over (A, B, C) with
AB - C^2 = 1 and A > 0, which removes the orthogonal gauge freedom
exactly.  Along any pair,

    2 vbar' = v' (A + B) + cos(2 alpha) (K2 - v' K1) + sin(2 alpha) (K1 + v' K2),
    K1 = A - B,  K2 = 2C,

and the distinguished combination is the one whose vbar' carries no
oscillatory part (K1 = K2 = 0).  The finder minimizes the sample
variance of vbar' over a tail window.  That variance is a quadratic form
w^T Sigma w in w = (A, B, C) and the constraint is w^T J w = 1 with J the
Gram matrix of AB - C^2, so the minimizer is the one eigenvector of
Sigma w = lambda J w with w^T J w > 0.  The finite window biases that
minimizer; once the sin/cos(2 alpha) basis is fixed, the condition that
the fitted oscillatory amplitudes of vbar' vanish is linear in w, and its
root on the sheet, also in closed form, removes the bias.  The classifier
examines the limit behaviour of vbar and vbar' over dyadic windows.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, ParameterError, WindowError
from .integrate import _hermite_rule
from .phasekit import _combined_alpha, _combined_phase, phase_unwrap
from .qfunc import require_finite

_MIN_FULL_SPAN_ALPHA = 0.9 * math.pi  # below this the window is not oscillatory
_RESIDUAL_TOL = 1e-3    # |(k1, k2)| above this => undetermined
_CLASSIFY_TOL = 1e-3    # level below which window means count as zero
_VP_FLOOR = 1e-8        # relative change of the v' means that counts as settled
_PREDICATE_GRID_N = 64  # log-grid points of the hypothesis predicates
_MIN_SAMPLES = 24       # samples of a window fit: well above its 10 columns
_MIN_WINDOW_PHASE = 0.5  # rad of phase a classification window spans at least
# the finder's tail window: the last quarter of the span, grown leftward
# until it holds 3 pi of phase
_WINDOW_FRACTION = 0.25
_WINDOW_PHASE = 3.0 * math.pi
_N_WINDOWS = 4  # dyadic windows of the classifier
# 4-point Gauss-Legendre on [0, 1], exact for polynomials of degree 7: the
# nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5)) on [-1, 1] moved to [0, 1], and
# their weights (18 +- sqrt(30))/36 halved
_GAUSS_FRACTIONS = 0.5 * (1.0 + np.array([
    -0.861136311594052575223946488893, -0.339981043584856264802665759103,
    0.339981043584856264802665759103, 0.861136311594052575223946488893]))
_GAUSS_WEIGHTS = 0.5 * np.array([
    0.347854845137453857373063949222, 0.652145154862546142626936050778,
    0.652145154862546142626936050778, 0.347854845137453857373063949222])


@dataclass(frozen=True)
class CombinationCoefficients:
    """Quadratic-form coefficients (A, B, C) of a change of pair."""

    A: float
    B: float
    C: float


@dataclass(frozen=True)
class PrincipalReport:
    coeffs: CombinationCoefficients
    classification: str             # L-finite | L-zero | L-infinite | undetermined
    L: float | None
    K: float | None
    k1_est: float
    k2_est: float
    objective: float
    window: tuple
    matrix: tuple                   # (a, b, c, d) realizing the coefficients
    diagnostics: dict = field(default_factory=dict)
    # the principal pair matrix (y1, y2) on the input's mesh, and its phase
    pair: object = field(default=None, repr=False, compare=False)
    phase: object = field(default=None, repr=False, compare=False)


def transform_pair(traj, matrix):
    """New trajectory with states combined node-by-node by ((a, b), (c, d)).

    The Wronskian scales by (ad - bc); a singular matrix is rejected.  The
    result shares the mesh and the node values of q with traj.
    """
    a, b, c, d = (float(t) for t in matrix)
    det = a * d - b * c
    if det == 0.0 or abs(det) < 1e-14 * max(abs(a * d), abs(b * c), 1e-300):
        raise ParameterError(f"singular transformation matrix {matrix}")
    return traj._combined((a, b, c, d), det * traj.w)


def coefficient_matrix(coeffs):
    """A concrete (a, b, c, d) with a^2+c^2 = A, b^2+d^2 = B, ab+cd = C.

    Exists for any A > 0 with AB - C^2 = 1; the triangular choice
    ((sqrt(A), C/sqrt(A)), (0, 1/sqrt(A))) has determinant 1.
    """
    A, B, C = coeffs.A, coeffs.B, coeffs.C
    if A <= 0:
        raise ParameterError("need A > 0 to realize the combination")
    ra = math.sqrt(A)
    return (ra, C / ra, 0.0, 1.0 / ra)


def _window_points(grid, window):
    """Where a fit samples the window (lo, hi): (nodes, slice) for the
    mesh nodes in [lo, hi) when there are at least _MIN_SAMPLES of them;
    otherwise (x, None) for more than that many points, the window cut at
    the nodes inside it and each piece split evenly, so that no fit runs
    short of samples however coarse the mesh."""
    lo, hi = float(window[0]), float(window[1])
    i0, i1 = np.searchsorted(grid, [lo, hi])
    if i1 - i0 >= _MIN_SAMPLES:
        return grid[i0:i1], slice(i0, i1)
    cuts = np.concatenate([[lo], grid[i0:i1][grid[i0:i1] > lo], [hi]])
    parts = -(-_MIN_SAMPLES // (len(cuts) - 1))
    return np.append((cuts[:-1, None] + np.diff(cuts)[:, None]
                      * (np.arange(parts) / parts)).ravel(), hi), None


def _window_samples(phase, window):
    """The pair of ``phase`` sampled on the window at _window_points: the
    points x, the phase alpha, the states (y1, y1', y2, y2') and v' there,
    read from phase at the nodes, and from one dense-output read and
    PhaseData._alpha_of elsewhere."""
    x, sl = _window_points(phase.grid, window)
    traj = phase._traj
    if sl is not None:
        return x, phase.alpha[sl], tuple(traj.states[sl].T), phase.v_prime[sl]
    x, idx, ((y1, y2), (d1, d2)) = traj._dense(x, 1)
    return x, phase._alpha_of(x, idx, y1, y2), (y1, d1, y2, d2), 2.0 * (y1 * d1 + y2 * d2)


# ---------------------------------------------------------------------------
# finder

# Gram matrix of AB - C^2 in w = (A, B, C), and its inverse
_J = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, -1.0]])
_J_INV = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def _sheet_minimizer(cov):
    """Minimizer w = (A, B, C) of w^T cov w on the sheet AB - C^2 = 1, A > 0.

    Stationary points on the sheet solve cov w = lambda J w, where the
    objective equals lambda.  J has one positive and two negative
    directions, so a positive definite cov has exactly one eigenvector
    with w^T J w > 0; it is returned scaled to w^T J w = 1 and signed so
    that A > 0.  A singular cov (e.g. rank one) can admit more than one;
    the one of lowest objective is taken.  A non-finite cov, or one
    without an admissible eigenvector (e.g. cov = 0), raises
    IllConditionedError.
    """
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise IllConditionedError("variance covariance of vbar' has an inf or nan entry")
    _, vecs = np.linalg.eig(_J_INV @ cov)
    vecs = vecs.real
    jnorm = (vecs * (_J @ vecs)).sum(axis=0)
    admissible = np.flatnonzero(jnorm > 0.0)
    if admissible.size == 0:
        raise IllConditionedError(
            "no eigenvector of the variance pencil lies on AB - C^2 = 1")
    w = vecs[:, admissible] / np.sqrt(jnorm[admissible])
    w = w[:, np.argmin((w * (cov @ w)).sum(axis=0))]
    return w if w[0] > 0 else -w


def _fit(X, Y):
    """Least-squares coefficients of Y (a column or several) on the columns
    of X, from the normal equations (X^T X) beta = X^T Y.

    The designs have 3 or 10 columns of order one (a Chebyshev trend and
    sin/cos(2 alpha)), so the Gram matrix is well conditioned and one
    small solve replaces a factorization of the whole design.  A singular
    Gram matrix falls back to the minimum-norm least-squares solution.
    """
    try:
        return np.linalg.solve(X.T @ X, X.T @ Y)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(X, Y, rcond=None)[0]


def _residual_design(x, alpha):
    """Left trim and design matrix for fitting the sin/cos(2 alpha) content
    of a derivative series sampled at the window points x, where the phase
    is alpha.

    The returned offset trims the window on the left to a whole number of
    2*alpha periods (so smooth trends do not leak into the oscillatory
    amplitudes through boundary terms), and the trend is absorbed by a
    Chebyshev series whose degree grows with the number of periods
    available.
    """
    i0 = 0
    whole = math.pi * math.floor((alpha[-1] - alpha[0]) / math.pi)
    if whole >= math.pi:
        i0 = min(int(np.searchsorted(alpha, alpha[-1] - whole)),
                 len(alpha) - _MIN_SAMPLES // 2)
        x, alpha = x[i0:], alpha[i0:]
    t = 2.0 * (x - x[0]) / (x[-1] - x[0]) - 1.0
    periods = (alpha[-1] - alpha[0]) / math.pi
    degree = 7 if periods >= 2.0 else (3 if periods >= 1.0 else 1)
    # the Chebyshev polynomials T_k(t) = cos(k arccos t), k <= degree
    X = np.empty((len(t), degree + 3))
    np.cos(np.multiply.outer(np.arccos(np.clip(t, -1.0, 1.0)), np.arange(degree + 1)),
           out=X[:, :-2])
    np.sin(2.0 * alpha, out=X[:, -2])
    np.cos(2.0 * alpha, out=X[:, -1])
    return i0, X


def _residual_amplitudes(x, alpha, series):
    """Fitted sin/cos(2 alpha) amplitudes of a derivative series (one
    column or several) sampled at x, where the phase is alpha, after
    removing the polynomial trend (see _residual_design)."""
    i0, X = _residual_design(x, alpha)
    return _fit(X, series[i0:])[-2:]


def _tail_window(phase):
    """The finder's window (lo, hi) and whether it was grown: the last
    _WINDOW_FRACTION of the span or, where that holds less than
    _WINDOW_PHASE of phase, the window from the leftmost node with at
    most _WINDOW_PHASE to its right (the whole span where it holds less).
    The phase increases (phase_unwrap), by less than pi over a mesh
    interval, so that node is never the last."""
    traj, grid, alpha = phase._traj, phase.grid, phase.alpha
    lo, hi = traj.xmax - _WINDOW_FRACTION * (traj.xmax - traj.x0), traj.xmax
    if alpha[-1] - alpha[np.searchsorted(grid, lo)] >= _WINDOW_PHASE:
        return (lo, hi), False
    return (float(grid[np.searchsorted(alpha, alpha[-1] - _WINDOW_PHASE)]), hi), True


def find_principal(traj):
    """Distinguished unit-determinant combination of an integrated pair,
    which must be unit-normalized (phase_unwrap raises ParameterError).

    Minimizes the sample variance w^T Sigma w of vbar' over the window,
    subject to AB - C^2 = 1, A > 0, in closed form (``_sheet_minimizer``),
    then polishes (A, B, C) to the point of the sheet where the fitted
    sin/cos(2 alpha) amplitudes of vbar' vanish, also in closed form; a
    polish that would leave the neighbourhood of the variance minimizer
    keeps the minimizer.  The phase is unwrapped once, for the input pair;
    the phase of every combination follows from it (``_combined_alpha``).
    The polish builds its candidates on the window samples only
    (``_window_samples``: the nodes, or the dense output where the window
    holds too few), and all fits solve the normal equations (``_fit``).
    The window is the finder's own (``_tail_window``): the last quarter
    of the span, grown leftward when it holds fewer than 3 periods of
    2*alpha (short-span runs still resolve the combination when v' is
    close to constant).  A pair whose phase advances less than 0.9 pi
    over the span raises WindowError.
    ``diagnostics`` records the polish passes applied (``polish_steps``),
    whether the polish was abandoned (``polish_fallback``) and, for the
    input pair's phase, the mesh intervals its quadrature split into more
    than one panel (``refined_intervals``) and the largest
    quadrature-vs-arctangent mismatch (``alpha_mismatch_max``).  Only the
    result is built on the whole mesh.
    The report carries the principal pair itself (``pair``, on the input's
    mesh) and its phase (``phase``, whose alpha_at works on ``pair``).
    """
    phase = phase_unwrap(traj)
    total_alpha = phase.alpha[-1] - phase.alpha[0]
    if total_alpha < _MIN_FULL_SPAN_ALPHA:
        raise WindowError(
            f"trajectory spans only {total_alpha / math.pi:.2f} pi of phase; "
            "not enough oscillation to separate the pair")
    window, expanded = _tail_window(phase)
    x_win, alpha_win, (y1, d1, y2, d2), _ = _window_samples(phase, window)
    alpha_span = alpha_win[-1] - alpha_win[0]

    g = np.vstack([2.0 * y1 * d1, 2.0 * y2 * d2, 2.0 * (d1 * y2 + y1 * d2)])
    mu = g.mean(axis=1)
    cov = (g @ g.T) / g.shape[1] - np.outer(mu, mu)
    w0 = _sheet_minimizer(cov)

    # The variance optimum is biased by the covariance of the smooth
    # trend of vbar' with the oscillatory basis over a finite window.
    # With the phase basis frozen, the fitted sin/cos(2 alpha) amplitudes
    # of vbar' are linear in w, F = amps w, so they vanish on the sheet
    # at the cross product of the two rows of amps, scaled to w^T J w = 1.
    # The candidates of the polish are built on the window samples only:
    # their states there, and their phase unwrapped against the input's
    # from the first sample.
    def combined_alpha(p, m):
        a, b, c, d = coefficient_matrix(CombinationCoefficients(p, (1.0 + m * m) / p, m))
        return _combined_alpha(a * y1 + b * y2, c * y1 + d * y2, alpha_win, phase.swapped)

    p, m = float(w0[0]), float(w0[2])
    steps, ok = 0, True
    for _ in range(2):
        (a1, a2, a3), (b1, b2, b3) = _residual_amplitudes(x_win, combined_alpha(p, m), g.T)
        n = np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])
        jnorm = float(n @ _J @ n)
        ok = 0.0 < jnorm < math.inf
        if ok:
            n /= math.copysign(math.sqrt(jnorm), n[0])
            ok = max(abs(n[0] - p), abs(n[2] - m)) <= 0.25 * max(p, 1.0)
        if not ok:
            break
        p, m = float(n[0]), float(n[2])
        steps += 1
    if not ok:
        p, m = float(w0[0]), float(w0[2])

    coeffs = CombinationCoefficients(p, (1.0 + m * m) / p, m)
    matrix = coefficient_matrix(coeffs)
    w = np.array([coeffs.A, coeffs.B, coeffs.C])
    k1, k2 = (float(k) for k in _residual_amplitudes(x_win, combined_alpha(p, m), w @ g))
    fbest = float(w @ cov @ w)
    # the one whole-mesh combination: the result, which classify and the
    # gap table read
    pair = traj._combined(matrix, traj.w)
    phase_t = _combined_phase(pair, phase)
    tag, L, K, diag = classify(phase_t)
    residual = math.hypot(k1, k2)
    if residual > _RESIDUAL_TOL:
        tag, L, K = "undetermined", None, None
        diag["residual_above_tol"] = residual
    diag.update({"window_expanded": expanded, "alpha_span": alpha_span,
                 "polish_steps": steps, "polish_fallback": not ok,
                 "refined_intervals": phase.refined_intervals,
                 "alpha_mismatch_max": phase.alpha_mismatch_max})
    return PrincipalReport(coeffs=coeffs, classification=tag, L=L, K=K,
                           k1_est=k1, k2_est=k2, objective=fbest,
                           window=(float(window[0]), float(window[1])),
                           matrix=matrix, diagnostics=diag, pair=pair,
                           phase=phase_t)


# ---------------------------------------------------------------------------
# classifier

def _interpolants(phase):
    """(4, 2, N) node data of the order-7 interpolants of v and of the
    phase on the mesh intervals: v, v', v'' and v''' = -4 q v' - 2 q' v,
    and alpha, alpha' = 1/v, -v'/v^2 and (2 v'^2/v - v'')/v^2."""
    traj = phase._traj
    v, vp, vpp = phase.v, phase.v_prime, phase.v_second
    r = 1.0 / v
    return np.array([[v, phase.alpha], [vp, r], [vpp, -vp * r * r],
                     [-4.0 * traj.q_nodes * vp - 2.0 * traj.qp_nodes * v,
                      (2.0 * vp * vp * r - vpp) * r * r]])


def _read_with_integrals(traj, table, xs, extra):
    """The order-7 interpolants of the node data table (see
    PairTrajectory._interpolate) read at the points xs and extra: the
    intervals of xs, the values and the slopes at xs and then extra, and
    the integrals of the values from the left node of the interval of
    each point of xs to the point, (m, len(xs)).

    An integral is 4-point Gauss-Legendre on the same interpolant, read
    in the same call, and so exact: the interpolant has degree 7."""
    xs, j = traj._locate(xs)
    left = traj.mesh[j]
    cut = xs - left
    gauss = (left[:, None] + cut[:, None] * _GAUSS_FRACTIONS).ravel()
    _, _, value, slope = traj._interpolate(np.concatenate([xs, extra, gauss]), table)
    n = value.shape[1] - gauss.size
    # a sum per point, not a matrix product, so that a point's bits do
    # not depend on the batch it is read in
    part = cut * (value[:, n:].reshape(len(value), -1, 4) * _GAUSS_WEIGHTS).sum(axis=2)
    return j, value[:, :n], slope[:, :n], part


def _window_statistics(phase):
    """The means of v and of v' over _N_WINDOWS dyadic windows [lo, hi]
    that end at the end of the span, lo halving the distance to its
    start, in increasing order, and the amplitudes of the 2*alpha
    oscillation in v' and in v over the last window.

    The windows are taken from the end leftward while the phase advances
    by at least _MIN_WINDOW_PHASE across each: a shorter one, next to the
    start, sees the start-up of the pair rather than its limit.  The means
    are exact integrals, not sums over the nodes inside a window, so that
    a window needs no nodes.  v' integrates to v(hi) - v(lo), and v to
    the Hermite rule (integrate._hermite_rule) over whole mesh intervals
    plus the integral of the same order-7 interpolant over the parts that
    the edges cut (_read_with_integrals).  v and the phase at the edges,
    and at _window_points of the last window where it holds too few
    nodes for the fit of the oscillation, come from one read of such
    interpolants of node data (_interpolants): v is smooth for the pairs
    this classifies, so they are much closer than the dense output of y1
    and y2, which oscillate.
    """
    grid = phase.grid
    t0 = float(grid[0])
    edges = [float(grid[-1])]
    for _ in range(_N_WINDOWS):
        edges.append(t0 + 0.5 * (edges[-1] - t0))
    edges = np.array(edges[::-1])
    x, sl = _window_points(grid, edges[-2:])

    data = _interpolants(phase)
    panels = _hermite_rule(np.diff(grid), data[:, 0, :-1], data[:, 0, 1:])
    j, (v, alpha), (vp, _), (part, _) = _read_with_integrals(
        phase._traj, data, edges, x if sl is None else [])
    n = len(edges)
    integral = np.concatenate([[0.0], np.cumsum(panels)])[j] + part
    width = np.diff(edges)
    means = np.diff(integral) / width
    slopes = np.diff(v[:n]) / width
    short = np.flatnonzero(np.diff(alpha[:n]) < _MIN_WINDOW_PHASE)
    first = short[-1] + 1 if short.size else 0

    if sl is not None:
        v, vp, alpha = phase.v[sl], phase.v_prime[sl], phase.alpha[sl]
    else:
        v, vp, alpha = v[n:], vp[n:], alpha[n:]
    s2, c2 = np.sin(2.0 * alpha), np.cos(2.0 * alpha)
    beta = _fit(np.column_stack([np.ones_like(s2), s2, c2]), np.column_stack([vp, v]))
    return (means[first:].tolist(), slopes[first:].tolist(),
            math.hypot(beta[1, 0], beta[2, 0]), math.hypot(beta[1, 1], beta[2, 1]))


def _aitken(seq, floor):
    """Limit estimate of a window-mean sequence; exact for geometric decay."""
    if len(seq) < 3:
        return seq[-1]
    a1, a2, a3 = seq[-3], seq[-2], seq[-1]
    d1, d2 = a2 - a1, a3 - a2
    if abs(d2) <= floor:
        return a3
    denom = d2 - d1
    if abs(denom) <= 0.02 * abs(d2):
        return a3  # near-linear drift; no safe extrapolation
    r = d2 / d1 if d1 != 0 else 0.0
    if not -0.99 < r < 0.99:
        return a3
    return a3 - d2 * d2 / denom


def classify(phase):
    """Limit classification of the amplitude v of a pair's PhaseData over
    dyadic windows.

    Returns (tag, L, K, diagnostics) with tag one of 'L-finite',
    'L-zero', 'L-infinite', 'undetermined'.  Window means of v decide the
    trend; the limit of v' is estimated by extrapolating the window-mean
    sequence (exact when the means decay geometrically, as they do for
    power-law v').  'undetermined' is a first-class outcome, reported
    whenever the indicators conflict.
    """
    tol = _CLASSIFY_TOL
    M, m, osc_p, osc_v = _window_statistics(phase)
    diag = {"v_means": M, "vp_means": m}
    if len(M) < 2:
        diag["reason"] = "span too short for dyadic windows"
        return "undetermined", None, None, diag
    diag["osc_vprime"] = osc_p
    diag["osc_v"] = osc_v

    ratios = [M[i + 1] / M[i] for i in range(len(M) - 1)] if min(M) > 0 else []
    diag["v_mean_ratios"] = ratios
    # v' means that differ by less than the tolerance the pair was
    # integrated to cannot be told apart
    floor_m = max(_VP_FLOOR, phase._traj.rtol) * (1.0 + abs(m[-1]))
    K_est = _aitken(m, floor_m)

    decreasing = ratios and all(r <= 0.95 for r in ratios)
    increasing = ratios and all(r >= 1.05 for r in ratios)
    stable = ratios and all(0.95 < r < 1.05 for r in ratios) \
        and abs(M[-1] - M[-2]) <= tol * max(abs(M[-1]), tol)

    if decreasing and len(M) >= 3:
        lo, hi = min(ratios), max(ratios)
        if hi / max(lo, 1e-300) <= 1.5 or M[-1] < tol:
            return "L-zero", 0.0, K_est, diag
        diag["reason"] = "inconsistent decay rates"
        return "undetermined", None, None, diag
    if stable:
        if osc_v <= 5.0 * tol * max(M[-1], tol) and M[-1] > tol:
            return "L-finite", M[-1], None, diag
        diag["reason"] = "window means stable but v oscillates at window scale"
        return "undetermined", None, None, diag
    if increasing:
        dm = [m[i + 1] - m[i] for i in range(len(m) - 1)]
        converging = (abs(dm[-1]) <= floor_m
                      or (len(dm) >= 2 and abs(dm[-1]) <= 0.95 * abs(dm[-2]) + floor_m))
        if converging and K_est >= -tol and math.isfinite(K_est):
            return "L-infinite", None, max(K_est, 0.0), diag
        diag["reason"] = "v grows but v' does not settle"
        return "undetermined", None, None, diag
    diag["reason"] = "window means neither settle nor trend"
    return "undetermined", None, None, diag


# ---------------------------------------------------------------------------
# hypothesis predicates

@dataclass(frozen=True)
class PredicateResult:
    status: str                  # holds | fails | not-decidable
    first_fail_x: float | None
    n_fail: int
    n_checked: int
    note: str = ""


@dataclass(frozen=True)
class PredicateReport:
    corollary1: PredicateResult
    corollary2: PredicateResult
    remark_finite_q: PredicateResult
    q_trend: str                 # divergent | finite-positive | decaying | unclear


def _failures(bad):
    """(number of failing points, index of the first or None) of the mask
    bad."""
    n = int(bad.sum())
    return n, (int(np.argmax(bad)) if n else None)


def predicate_grid(span):
    """The log grid of span on which the hypothesis predicates sample q
    (a span starting at or below 0 starts just right of it)."""
    lo, hi = float(span[0]), float(span[1])
    if not hi > lo:
        raise ParameterError(f"empty span {span}")
    lo_eff = lo if lo > 0 else max(1e-4 * (hi - lo), 1e-12)
    return np.geomspace(lo_eff, hi, _PREDICATE_GRID_N)


def sufficient_conditions(model, span):
    """Evaluate the two sufficient-condition hypothesis sets on a log grid.

    corollary1:  q' >= 0, q'' <= 0 and q -> infinity
    corollary2:  q' <= 0 and q q'' - 3 q'^2 >= 0
    remark:      q' >= 0, q'' <= 0 and q tends to a finite positive limit

    Report-only; each predicate comes back with holds / fails (and where)
    / not-decidable, plus the estimated trend of q from the last dyadic
    windows.  A failing predicate's n_fail counts the grid points where
    any of its sign hypotheses fails, each point once, and first_fail_x
    is the first of them.
    """
    xs = predicate_grid(span)
    q, qp, qpp = (require_finite(xs, f(xs), name) for f, name in (
        (model.q_array, "q"), (model.q_prime_array, "q'"), (model.q_second_array, "q''")))
    slack_p = 1e-12 * (1.0 + np.abs(qp))
    slack_pp = 1e-12 * (1.0 + np.abs(qpp))
    h22 = q * qpp - 3.0 * qp * qp
    # slack tied to the size of the terms forming the expression, so the
    # sign test stays decisive where q q'' - 3 q'^2 decays toward zero
    slack_22 = 1e-12 * (np.abs(q * qpp) + 3.0 * qp * qp + 1e-300)

    # trend of q from the last two index-quartile blocks of the log grid
    quarter = _PREDICATE_GRID_N // 4
    m_last = float(np.mean(q[-quarter:]))
    m_prev = float(np.mean(q[-2 * quarter:-quarter]))
    if m_last > 0 and m_prev > 0:
        growth = m_last / m_prev
        trend = ("divergent" if growth > 1.2 else
                 "decaying" if growth < 1.0 / 1.2 else "finite-positive")
    else:
        trend = "unclear"

    def result(status, first=None, n_fail=0, note=""):
        return PredicateResult(status, first, n_fail, _PREDICATE_GRID_N, note)

    # corollary 1 and the remark share their sign hypotheses and differ
    # only in the trend of q they ask for; a point fails them once, where
    # q' >= 0 or q'' <= 0 fails
    n1, i1 = _failures((qp < -slack_p) | (qpp > slack_pp))
    if n1 > 0:
        c1 = rm = result("fails", float(xs[i1]), n1, "sign hypotheses fail")
    else:
        undecided = result("not-decidable", note=f"signs hold but q trend is {trend}")
        c1 = result("holds") if trend == "divergent" else undecided
        rm = (result("holds", note=f"q levels off near {m_last:.6g}")
              if trend == "finite-positive" else undecided)

    n2p, i2p = _failures(qp > slack_p)          # q' <= 0
    n2h, i2h = _failures(h22 < -slack_22)       # q q'' - 3 q'^2 >= 0
    if n2p > 0:
        c2 = result("fails", float(xs[i2p]), n2p, "q' changes sign")
    elif n2h > 0:
        c2 = result("fails", float(xs[i2h]), n2h,
                    "curvature inequality q q'' - 3 q'^2 >= 0 fails")
    else:
        c2 = result("holds")

    return PredicateReport(corollary1=c1, corollary2=c2, remark_finite_q=rm,
                           q_trend=trend)

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
from .phasekit import _combined_alpha, _combined_phase, phase_unwrap

_MIN_FULL_SPAN_ALPHA = 0.9 * math.pi  # below this the window is not oscillatory
_RESIDUAL_TOL = 1e-3    # |(k1, k2)| above this => undetermined
_CLASSIFY_TOL = 1e-3    # level below which window means count as zero
_PREDICATE_GRID_N = 64  # log-grid points of the hypothesis predicates


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


def _window_indices(grid, window):
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise WindowError(f"empty window {window}")
    i0, i1 = np.searchsorted(grid, [lo, hi])
    i1 = min(i1, len(grid))
    if i1 - i0 < 8:
        raise WindowError(f"window {window} contains too few samples ({i1 - i0})")
    return slice(i0, i1)


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
        raise IllConditionedError("variance covariance of vbar' is not finite")
    _, vecs = np.linalg.eig(_J_INV @ cov)
    vecs = vecs.real
    jnorm = np.einsum("ik,ij,jk->k", vecs, _J, vecs)
    admissible = np.flatnonzero(jnorm > 0.0)
    if admissible.size == 0:
        raise IllConditionedError(
            "no eigenvector of the variance pencil lies on AB - C^2 = 1")
    w = vecs[:, admissible] / np.sqrt(jnorm[admissible])
    w = w[:, np.argmin(np.einsum("ik,ij,jk->k", w, cov, w))]
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
    of a derivative series sampled at the window nodes x, where the phase
    is alpha.

    The returned offset trims the window on the left to a whole number of
    2*alpha periods (so smooth trends do not leak into the oscillatory
    amplitudes through boundary terms), and the trend is absorbed by a
    Chebyshev series whose degree grows with the number of periods
    available.
    """
    i0 = 0
    span = abs(alpha[-1] - alpha[0])
    whole = math.pi * math.floor(span / math.pi)
    if whole >= math.pi:
        sgn = 1.0 if alpha[-1] >= alpha[0] else -1.0
        i0 = np.searchsorted(sgn * alpha, sgn * (alpha[-1] - sgn * whole))
        i0 = min(int(i0), len(alpha) - 8)
        x, alpha = x[i0:], alpha[i0:]
    t = 2.0 * (x - x[0]) / (x[-1] - x[0]) - 1.0
    periods = abs(alpha[-1] - alpha[0]) / math.pi
    degree = 7 if periods >= 2.0 else (3 if periods >= 1.0 else 1)
    trend = np.polynomial.chebyshev.chebvander(t, degree)
    return i0, np.column_stack([trend, np.sin(2.0 * alpha), np.cos(2.0 * alpha)])


def _oscillation_residual(phase, window):
    """Amplitudes (k1, k2) of the sin/cos(2 alpha) content of v' over the
    window, after removing the polynomial trend.

    For the distinguished combination v' settles toward a constant and
    both amplitudes vanish; any other unit-determinant combination keeps
    an O(1) oscillating part, so this is the discriminating residual.
    """
    sl = _window_indices(phase.grid, window)
    i0, X = _residual_design(phase.grid[sl], phase.alpha[sl])
    beta = _fit(X, phase.v_prime[sl][i0:])
    return float(beta[-2]), float(beta[-1])


def _expand_window(phase, window, need_alpha):
    """Grow the window leftward until it spans need_alpha of phase."""
    grid, alpha = phase.grid, phase.alpha
    lo, hi = float(window[0]), float(window[1])
    i1 = min(np.searchsorted(grid, hi), len(grid) - 1)
    i0 = np.searchsorted(grid, lo)
    have = abs(alpha[i1] - alpha[i0]) if i0 < len(grid) else 0.0
    if have >= need_alpha:
        return (lo, hi), False
    total = abs(alpha[i1] - alpha[0])
    if total < need_alpha:
        return (float(grid[0]), hi), True
    sgn = 1.0 if alpha[-1] >= alpha[0] else -1.0
    target = alpha[i1] - sgn * need_alpha
    i0 = np.searchsorted(sgn * alpha, sgn * target)
    i0 = max(0, min(int(i0), i1 - 8))
    return (float(grid[i0]), hi), True


def find_principal(traj, window=None):
    """Distinguished unit-determinant combination of an integrated pair.

    Minimizes the sample variance w^T Sigma w of vbar' over the window,
    subject to AB - C^2 = 1, A > 0, in closed form (``_sheet_minimizer``),
    then polishes (A, B, C) to the point of the sheet where the fitted
    sin/cos(2 alpha) amplitudes of vbar' vanish, also in closed form; a
    polish that would leave the neighbourhood of the variance minimizer
    keeps the minimizer.  The phase is unwrapped once, for the input pair;
    the phase of every combination follows from it (``_combined_alpha``).
    The polish builds its candidates on the window slice only, and all
    fits solve the normal equations (``_fit``).
    The window defaults to the last quarter of the span and grows leftward
    when it holds fewer than 3 periods of 2*alpha (short-span runs still
    resolve the combination when v' is close to constant).
    ``diagnostics`` records the polish passes applied (``polish_steps``),
    whether the polish was abandoned (``polish_fallback``), the full-mesh
    combinations built (``full_mesh_combinations``, only the result) and,
    for the input pair's phase, the refined intervals
    (``refined_intervals``) and the largest quadrature-vs-arctangent
    mismatch (``alpha_mismatch_max``).
    The report carries the principal pair itself (``pair``, on the input's
    mesh) and its phase (``phase``, whose alpha_at works on ``pair``).
    """
    if not traj.unit_wronskian:
        raise ParameterError("normalize the pair before searching (|w| != 1)")
    phase = phase_unwrap(traj)
    x0, xmax = traj.x0, traj.xmax
    if window is None:
        window = (xmax - 0.25 * (xmax - x0), xmax)

    total_alpha = abs(phase.alpha[-1] - phase.alpha[0])
    if total_alpha < _MIN_FULL_SPAN_ALPHA:
        raise WindowError(
            f"trajectory spans only {total_alpha / math.pi:.2f} pi of phase; "
            "not enough oscillation to separate the pair")
    window, expanded = _expand_window(phase, window, 3.0 * math.pi)
    sl = _window_indices(phase.grid, window)
    alpha_span = abs(phase.alpha[sl][-1] - phase.alpha[sl][0])

    y1, d1, y2, d2 = traj.states[sl].T
    g = np.vstack([2.0 * y1 * d1, 2.0 * y2 * d2, 2.0 * (d1 * y2 + y1 * d2)])
    mu = g.mean(axis=1)
    cov = (g @ g.T) / g.shape[1] - np.outer(mu, mu)
    w0 = _sheet_minimizer(cov)

    # The variance optimum is biased by the covariance of the smooth
    # trend of vbar' with the oscillatory basis over a finite window.
    # With the phase basis frozen, the fitted sin/cos(2 alpha) amplitudes
    # of vbar' are linear in w, F = amps w, so they vanish on the sheet
    # at the cross product of the two rows of amps, scaled to w^T J w = 1.
    # The candidates of the polish are built on the window slice only:
    # their node states there, and their phase unwrapped against the
    # input's from the slice start.
    p, m = float(w0[0]), float(w0[2])
    x_win, alpha_win = phase.grid[sl], phase.alpha[sl]
    steps, ok = 0, True
    for _ in range(2):
        coeffs = CombinationCoefficients(p, (1.0 + m * m) / p, m)
        a, b, c, d = coefficient_matrix(coeffs)
        alpha = _combined_alpha(a * y1 + b * y2, c * y1 + d * y2, alpha_win,
                                phase.swapped)
        i0, X = _residual_design(x_win, alpha)
        amps = _fit(X, g[:, i0:].T)
        n = np.cross(amps[-2], amps[-1])
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
    # the whole-mesh combinations, counted as they are built: only the
    # result, which classify and the gap table read
    full_mesh = 0
    pair = traj._combined(matrix, traj.w)
    full_mesh += 1
    phase_t = _combined_phase(pair, phase)
    k1, k2 = _oscillation_residual(phase_t, window)
    w = np.array([coeffs.A, coeffs.B, coeffs.C])
    fbest = float(w @ cov @ w)
    tag, L, K, diag = classify(phase_t)
    residual = math.hypot(k1, k2)
    if residual > _RESIDUAL_TOL:
        tag, L, K = "undetermined", None, None
        diag["residual_above_tol"] = residual
    diag.update({"window_expanded": expanded, "alpha_span": alpha_span,
                 "polish_steps": steps, "polish_fallback": not ok,
                 "full_mesh_combinations": full_mesh,
                 "refined_intervals": phase.refined_intervals,
                 "alpha_mismatch_max": phase.alpha_mismatch_max})
    return PrincipalReport(coeffs=coeffs, classification=tag, L=L, K=K,
                           k1_est=k1, k2_est=k2, objective=fbest,
                           window=(float(window[0]), float(window[1])),
                           matrix=matrix, diagnostics=diag, pair=pair,
                           phase=phase_t)


# ---------------------------------------------------------------------------
# classifier

def _windowed_means(grid, values, t_end, t_start, n_windows=4):
    """Length-weighted means over dyadic windows ending at t_end."""
    means, bounds = [], []
    hi = t_end
    for _ in range(n_windows):
        lo = t_start + 0.5 * (hi - t_start)
        if hi - lo <= 0:
            break
        i0, i1 = np.searchsorted(grid, [lo, hi])
        i1 = min(i1, len(grid))
        if i1 - i0 < 4:
            break
        x = grid[i0:i1]
        y = values[i0:i1]
        means.append(float(np.trapezoid(y, x) / (x[-1] - x[0])))
        bounds.append((float(lo), float(hi)))
        hi = lo
    means.reverse()
    bounds.reverse()
    return means, bounds


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


def _osc_amplitude(phase, sl):
    """Amplitude of the 2*alpha oscillation in v' and v over a slice."""
    s2, c2 = np.sin(2.0 * phase.alpha[sl]), np.cos(2.0 * phase.alpha[sl])
    X = np.column_stack([np.ones_like(s2), s2, c2])
    beta = _fit(X, np.column_stack([phase.v_prime[sl], phase.v[sl]]))
    return math.hypot(beta[1, 0], beta[2, 0]), math.hypot(beta[1, 1], beta[2, 1])


def classify(phase):
    """Limit classification of an amplitude series over dyadic windows.

    Returns (tag, L, K, diagnostics) with tag one of 'L-finite',
    'L-zero', 'L-infinite', 'undetermined'.  Window means of v decide the
    trend; the limit of v' is estimated by extrapolating the window-mean
    sequence (exact when the means decay geometrically, as they do for
    power-law v').  'undetermined' is a first-class outcome, reported
    whenever the indicators conflict.  The phase must come from
    ``phase_unwrap``, since the oscillation test fits sin/cos(2 alpha).
    """
    if phase.alpha is None:
        raise ParameterError("phase data lacks alpha; use phase_unwrap")
    tol = _CLASSIFY_TOL
    grid = phase.grid
    t0, T = float(grid[0]), float(grid[-1])
    M, bounds = _windowed_means(grid, phase.v, T, t0)
    m, _ = _windowed_means(grid, phase.v_prime, T, t0)
    diag = {"v_means": M, "vp_means": m}
    if len(M) < 2:
        diag["reason"] = "span too short for dyadic windows"
        return "undetermined", None, None, diag

    i0 = np.searchsorted(grid, bounds[-1][0])
    sl = slice(i0, len(grid))
    osc_p, osc_v = _osc_amplitude(phase, sl)
    diag["osc_vprime"] = osc_p
    diag["osc_v"] = osc_v

    ratios = [M[i + 1] / M[i] for i in range(len(M) - 1)] if min(M) > 0 else []
    diag["v_mean_ratios"] = ratios
    floor_m = 1e-8 * (1.0 + abs(m[-1]))
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


def _sign_check(values, sign, slack):
    """Count where sign*values < -slack; return (n_fail, first_index)."""
    bad = sign * values < -slack
    n = int(bad.sum())
    first = int(np.argmax(bad)) if n else None
    return n, first


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
    windows.
    """
    xs = predicate_grid(span)
    q = model.q_array(xs)
    qp = model.q_prime_array(xs)
    qpp = model.q_second_array(xs)
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
    # only in the trend of q they ask for
    n1p, i1p = _sign_check(qp, 1.0, slack_p)     # q' >= 0
    n1pp, i1pp = _sign_check(-qpp, 1.0, slack_pp)  # q'' <= 0
    if n1p + n1pp > 0:
        c1 = rm = result("fails", float(xs[i1p] if n1p else xs[i1pp]),
                         n1p + n1pp, "sign hypotheses fail")
    else:
        undecided = result("not-decidable", note=f"signs hold but q trend is {trend}")
        c1 = result("holds") if trend == "divergent" else undecided
        rm = (result("holds", note=f"q levels off near {m_last:.6g}")
              if trend == "finite-positive" else undecided)

    n2p, i2p = _sign_check(-qp, 1.0, slack_p)    # q' <= 0
    n2h, i2h = _sign_check(h22, 1.0, slack_22)   # q q'' - 3 q'^2 >= 0
    if n2p > 0:
        c2 = result("fails", float(xs[i2p]), n2p, "q' changes sign")
    elif n2h > 0:
        c2 = result("fails", float(xs[i2h]), n2h,
                    "curvature inequality q q'' - 3 q'^2 >= 0 fails")
    else:
        c2 = result("holds")

    return PredicateReport(corollary1=c1, corollary2=c2, remark_finite_q=rm,
                           q_trend=trend)

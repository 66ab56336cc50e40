"""Integration of the two-solution system for y'' + q(x) y = 0.

A Dormand-Prince 5(4) pair advances the joint 4-dimensional state
(y1, y1', y2, y2') on one shared mesh, which keeps the Wronskian
identity tight and makes every derived quantity (amplitude, phase,
zeros) consistent between the two solutions.

The equation is linear, so one step maps (y, y') by a 2x2 transfer
matrix T that depends only on h and on q at the stage nodes, and its
embedded error estimate is E (y, y') for a matrix E of the same kind;
both solutions share them.  A pass over a fixed mesh builds T and E for
every step in numpy and chains the T by a log-depth prefix product, in
blocks of steps that carry the state from one block to the next.  The
first mesh equidistributes the Liouville-Green density sqrt(q)/0.15,
the cap of 0.15 rad of phase per step.  Where a step fails its error
test, the run of steps around it is re-meshed from the usual
controller's target step, smoothed, and the pass repeats; every other
node keeps its place.

Error control is per unit step, so the accumulated error scales about
linearly with rtol.  Dense output is a two-point Hermite interpolant of
order 7 per solution, built from the stored (y, y') node values plus the
equation-supplied y'' = -q y and y''' = -q' y - q y'.  The solutions
share the mesh and so the basis, which one evaluation computes once for
both.  The final pass also keeps the least q at the stage points of each
step, so that a dip to q <= 0 between two nodes can be refused.

References
----------
Dormand & Prince (1980), J. Comp. Appl. Math. 6, 19-26.
Blelloch (1990), "Prefix sums and their applications", CMU-CS-90-190.
"""

import math

import numpy as np

from .errors import IntegrationError, ParameterError

# Dormand-Prince 5(4) tableau: interior stage nodes (stages 1 and 6 sit
# at x and x + h), stage rows, fifth-order weights and the weights of the
# embedded error estimate (stage 7 is the FSAL stage at x + h)
_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9])
_DC = np.diff(np.concatenate([[0.0], _C, [1.0]]))
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_E_ABS = sum(abs(e) for e in _E)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
MAX_STEPS = 10 ** 7  # node budget

# a step advances the phase by at most about _PHASE_STEP rad, so that
# downstream quadrature of 1/v over mesh intervals stays accurate
_PHASE_STEP = 0.15
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_START_CELLS = 128  # cells of the grid that samples the starting density
_BLOCK = 8192  # steps per block of a pass: bounds the temporaries
# the catalog settles in 4-6 passes; a failing step shrinks to no less
# than _MIN_FACTOR of its size per pass
_MAX_PASSES = 40
_EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# order-7 two-point Hermite basis on [0, 1]
#
# H_k interpolates delta_{jk} derivative data at tau=0 and zero data at
# tau=1; the right-end basis is H_k(1 - tau) with sign (-1)^k.

def _hermite_basis():
    left = np.array([1.0, -4.0, 6.0, -4.0, 1.0])  # (1 - tau)^4
    tails = ([1.0, 4.0, 10.0, 20.0], [1.0, 4.0, 10.0], [1.0, 4.0], [1.0])
    fact = (1.0, 1.0, 2.0, 6.0)
    rows = []
    for k, tail in enumerate(tails):
        poly = np.convolve(left, np.array(tail)) / fact[k]
        poly = np.concatenate([np.zeros(k), poly])  # multiply by tau^k
        rows.append(np.pad(poly, (0, 8 - len(poly))))
    return np.vstack(rows)  # (4, 8), ascending powers


_H = _hermite_basis()
_HD = _H[:, 1:] * np.arange(1, 8)
# cubic Hermite basis used to interpolate y'' from its own nodal data
# (y'' = -q y, y''' = -q' y - q y'); differentiating the order-7 y
# interpolant twice instead would amplify roundoff by 1/h^2
_H2 = np.array([[1.0, 0.0, -3.0, 2.0], [0.0, 1.0, -2.0, 1.0]])
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])[:, None]  # right-end (-1)^k


def _polyval_many(coef, t):
    """Horner for a (k, m) coefficient table at points t; returns (k, n)."""
    out = np.zeros((coef.shape[0], t.size))
    for j in range(coef.shape[1] - 1, -1, -1):
        out *= t
        out += coef[:, j:j + 1]
    return out


class PairTrajectory:
    """Dense, interpolable record of two solutions and their derivatives.

    Immutable after construction; attributes:

    model   EquationModel integrated
    mesh    strictly increasing nodes, mesh[0] = x0
    states  (N, 4) array of (y1, y1', y2, y2') at the nodes
    w       Wronskian y1 y2' - y1' y2 at the first node
    rtol, atol   tolerances the run used
    q_nodes, qp_nodes   q and q' at the nodes
    q_step_min  smallest q at the stage points of each step, (N - 1,)
                (None for a trajectory not built by integrate_pair)
    passes, q_points    integration passes and points at which q was
                        evaluated (0 for a trajectory not built by
                        integrate_pair)

    q_nodes may be passed in when the caller has them (integrate_pair
    hands over the values of its final pass); otherwise q is evaluated.
    """

    __slots__ = ("model", "mesh", "states", "w", "rtol", "atol",
                 "q_nodes", "qp_nodes", "q_step_min", "passes", "q_points",
                 "_nodes")

    def __init__(self, model, mesh, states, w, rtol, atol, q_nodes=None,
                 passes=0, q_points=0, q_step_min=None):
        mesh = np.asarray(mesh, dtype=float)
        if mesh.ndim != 1 or len(mesh) < 2:
            raise ParameterError("trajectory needs at least two mesh nodes")
        q = model.q_array(mesh) if q_nodes is None else np.asarray(q_nodes, dtype=float)
        self._fill(model, mesh, states, w, rtol, atol,
                   q, model.q_prime_array(mesh), q_step_min, passes, q_points)

    def _restated(self, states, w):
        """A trajectory of the same model on the same mesh with new node
        states.  It shares mesh, q_nodes, qp_nodes and q_step_min (all
        read-only), so q is not evaluated again, and keeps the
        integration counters."""
        new = object.__new__(PairTrajectory)
        new._fill(self.model, self.mesh, states, w, self.rtol, self.atol,
                  self.q_nodes, self.qp_nodes, self.q_step_min, self.passes,
                  self.q_points)
        return new

    def _combined(self, matrix, w):
        """_restated with the node states combined by ((a, b), (c, d));
        w is the Wronskian of the result."""
        a, b, c, d = matrix
        y1, p1, y2, p2 = self.states.T
        # stored column by column, so that each column is contiguous
        return self._restated(np.array([a * y1 + b * y2, a * p1 + b * p2,
                                        c * y1 + d * y2, c * p1 + d * p2]).T, w)

    def _fill(self, model, mesh, states, w, rtol, atol, q, qp, q_step_min,
              passes, q_points):
        states = np.asarray(states, dtype=float)
        object.__setattr__(self, "passes", int(passes))
        object.__setattr__(self, "q_points", int(q_points))
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "rtol", float(rtol))
        object.__setattr__(self, "atol", float(atol))
        object.__setattr__(self, "q_nodes", q)
        object.__setattr__(self, "qp_nodes", qp)
        object.__setattr__(self, "q_step_min", q_step_min)
        object.__setattr__(self, "_nodes", None)
        for arr in (mesh, states, q, qp, q_step_min):
            if arr is not None:
                arr.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("PairTrajectory is immutable")

    @property
    def x0(self):
        return float(self.mesh[0])

    @property
    def xmax(self):
        return float(self.mesh[-1])

    @property
    def unit_wronskian(self):
        return abs(abs(self.w) - 1.0) <= 1e-9

    def wronskian_nodes(self):
        y1, d1, y2, d2 = self.states.T
        return y1 * d2 - d1 * y2

    # -- dense output -------------------------------------------------------

    def _locate(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < self.mesh[0] - 1e-12 * (1 + abs(self.mesh[0]))
                        or xs.max() > self.mesh[-1] + 1e-12 * (1 + abs(self.mesh[-1]))):
            raise ParameterError("sample point outside trajectory span")
        xs = np.clip(xs, self.mesh[0], self.mesh[-1])
        idx = np.clip(np.searchsorted(self.mesh, xs, side="right") - 1,
                      0, len(self.mesh) - 2)
        return xs, idx

    def _node_table(self):
        """(4, 2, N) table of y, y', y'' = -q y and y''' = -q' y - q y' of
        both solutions at the nodes, derivative-major.  Built on first
        use, so a trajectory that is never evaluated does not pay for it."""
        nodes = self._nodes
        if nodes is None:
            nodes = np.empty((4, 2, len(self.mesh)))
            nodes[:2] = self.states.T.reshape(2, 2, -1).transpose(1, 0, 2)
            np.multiply(-self.q_nodes, nodes[0], out=nodes[2])
            np.multiply(-self.qp_nodes, nodes[0], out=nodes[3])
            nodes[3] -= self.q_nodes * nodes[1]
            nodes.setflags(write=False)
            object.__setattr__(self, "_nodes", nodes)
        return nodes

    def evaluate(self, xs, nder=1):
        """Interpolated (y, y', ...) for both solutions at xs.

        Returns a dict with keys 'y1', 'y2' (and 'y1p', 'y2p' for
        nder >= 1, 'y1pp', 'y2pp' for nder == 2).  Node hits reproduce the
        stored states exactly.

        The two solutions share each interval's tau = (x - x_i)/h and so
        the Hermite basis: every basis table is run once, on tau and
        1 - tau side by side, and meets the (4, 2, n) node data of both
        solutions in one broadcast.
        """
        scalar = np.isscalar(xs)
        xs, idx = self._locate(np.atleast_1d(xs))
        n = xs.size
        nodes = self._node_table()
        x0 = self.mesh[idx]
        h = self.mesh[idx + 1] - x0
        tau = (xs - x0) / h
        both = np.concatenate([tau, 1.0 - tau])
        # left node data in the first n columns, right node data after them
        f = nodes.take(np.concatenate([idx, idx + 1]), axis=2)  # (4, 2, 2n)
        h2 = np.concatenate([h, h])
        w = f * np.stack([np.ones_like(h2), h2, h2 * h2, h2 * h2 * h2])[:, None]
        # the right-end signs (-1)^k go on the basis, which is exact
        b = _polyval_many(_H, both)
        b[:, n:] *= _SIGNS
        s = (w * b[:, None]).sum(axis=0)
        out = [s[:, :n] + s[:, n:]]
        if nder >= 1:
            # H_0' is symmetric, so the value terms give (y0 - y1) H_0'(tau):
            # the roundoff of the basis then scales with y', not with y/h
            d = _polyval_many(_HD, both)
            d[:, n:] *= -_SIGNS
            s = (w[1:] * d[1:, None]).sum(axis=0)
            out.append(((f[0, :, :n] - f[0, :, n:]) * d[0, :n] + s[:, :n] + s[:, n:]) / h)
        if nder >= 2:
            b2 = _polyval_many(_H2, both)
            out.append(f[2, :, :n] * b2[0, :n] + h * f[3, :, :n] * b2[1, :n]
                       + f[2, :, n:] * b2[0, n:] - h * f[3, :, n:] * b2[1, n:])
        # exact node hits: return stored data bit-for-bit
        for node_idx, take in ((idx, xs == x0), (idx + 1, xs == self.mesh[idx + 1])):
            if take.any():
                for k, arr in enumerate(out):
                    arr[:, take] = nodes[k][:, node_idx[take]]
        keys = (("y1", "y2"), ("y1p", "y2p"), ("y1pp", "y2pp"))
        res = {}
        for (k1, k2), (a, b) in zip(keys, out):
            res[k1], res[k2] = (float(a[0]), float(b[0])) if scalar else (a, b)
        return res


def sample(traj, x):
    """Interpolated state (y1, y1', y2, y2') at x (scalar or array).

    At mesh nodes this returns the stored state exactly; between nodes it
    evaluates the Hermite interpolant, which satisfies y'' = -q y to well
    below the integration tolerance.
    """
    vals = traj.evaluate(x, nder=1)
    if np.isscalar(vals["y1"]):
        return np.array([vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]])
    return np.column_stack([vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]])


def _combine(coef, terms):
    """sum_j coef_j terms_j over the non-zero weights."""
    acc = None
    for c, term in zip(coef, terms):
        if c:
            if acc is None:
                acc = c * term
            else:
                acc += c * term
    return acc


def _stage_terms(h, q):
    """Transfer matrix T and scaled stage matrices h K_j of one DP5(4)
    step for every step at once.

    For y'' = -q y, stage j maps the state u at the step start to
    h k_j = h K_j u, with K_j = A(q_j) M_j, A(q) = [[0, 1], [-q, 0]] and
    M_j = I + sum_i a_ji h K_i, so the step is u -> T u and its error
    estimate is sum_j e_j h K_j u.  h holds the step sizes and the rows of
    q the values of q at the six stage nodes x, x + c_2 h, ..., x + h.
    Matrices are (4, n) arrays of the entries (00, 01, 10, 11), one
    column per step; returns T (4, n) and h K (7, 4, n).
    """
    nhq = -h * q
    hk = np.empty((7, 4, len(h)))
    hk[0, ::3] = 0.0  # h A(q_1), as M_1 = I
    hk[0, 1] = h
    hk[0, 2] = nhq[0]
    for j, row in enumerate(_A + (_B,), start=1):
        m = _combine(row, hk)
        m[::3] += 1.0
        # h A(q_j) m; the FSAL stage 7 sits at x + h, as stage 6 does
        np.multiply(h, m[2:], out=hk[j, :2])
        np.multiply(nhq[min(j, 5)], m[:2], out=hk[j, 2:])
    return m, hk  # the last m, from the weights _B, is T


def _norm(scaled):
    """Root mean square over the four scaled error components of a
    (2, 2, n) array."""
    return np.sqrt(0.25 * (scaled * scaled).sum(axis=(0, 1)))


def _times(a, b):
    """Entrywise 2x2 products a b of (2, 2, n) arrays."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _prefix_states(t, s):
    """States s_k = T_k ... T_1 s after each step, by a Hillis-Steele scan:
    round r multiplies every partial product by the one 2^r steps before
    it, so log2(n) whole-array rounds replace n sequential steps."""
    p = t.reshape(2, 2, -1).copy()
    p[:, :, :1] = _times(p[:, :, :1], s[:, :, None])
    d = 1
    while d < p.shape[2]:
        p[:, :, d:] = _times(p[:, :, d:], p[:, :, :-d])
        d *= 2
    return p


def _estimate_noise(x, h, q, hk, before):
    """Bound on the roundoff in the error estimates E s of a block: eps
    times the magnitudes of their terms, plus the error that rounding x
    to a double brings into q at the stage nodes, eps |x q'|, with q'
    from the differences of the stage values.  Near a singular point of
    q the second term grows like 1/(x - x_s)^2."""
    noise = _times(_combine(np.abs(_E), np.abs(hk)).reshape(2, 2, -1), np.abs(before))
    dq = np.abs(np.diff(q, axis=0)) / (_DC[:, None] * h)
    dq = dq.max(axis=0) * np.maximum(np.abs(x), np.abs(x + h))
    noise[1] += _E_ABS * h * dq * np.abs(before[0])
    return _EPS * noise


def _integration_pass(model, mesh, start, rtol, atol):
    """Integrate on a fixed mesh in blocks of _BLOCK steps, carrying the
    state matrix from block to block.

    start is the 2x2 matrix [[y1, y2], [y1', y2']] at mesh[0].  Returns
    the node states (N, 4) as (y1, y1', y2, y2'), the error norm of every
    step, the roundoff level of that norm (filled in only in blocks with
    a failing step), the largest and the smallest q at each step's stage
    nodes and q at the nodes.
    """
    n = len(mesh) - 1
    q_nodes = model.q_array(mesh)
    states = np.empty((n + 1, 4))
    err = np.empty(n)
    noise = np.zeros(n)
    qmax = np.empty(n)
    qmin = np.empty(n)
    s = start
    states[0] = s.T.ravel()
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        x, h = mesh[i:j], mesh[i + 1:j + 1] - mesh[i:j]
        q = np.concatenate([q_nodes[None, i:j], model.q_array(x + _C[:, None] * h),
                            q_nodes[None, i + 1:j + 1]])
        if not np.isfinite(q).all():
            bad = np.flatnonzero(~np.isfinite(q).all(axis=0))[0]
            raise IntegrationError(
                f"q is not finite on the step from x = {x[bad]:.17g} "
                "(q singular there?)", x=float(x[bad]))
        t, hk = _stage_terms(h, q)
        after = _prefix_states(t, s)
        before = np.concatenate([s[:, :, None], after[:, :, :-1]], axis=2)
        scale = atol + rtol * np.maximum(np.abs(before), np.abs(after))
        err[i:j] = _norm(_times(_combine(_E, hk).reshape(2, 2, -1), before) / scale)
        if not (err[i:j] <= h).all():
            noise[i:j] = _norm(_estimate_noise(x, h, q, hk, before) / scale)
        qmax[i:j] = q.max(axis=0)
        qmin[i:j] = q.min(axis=0)
        states[i + 1:j + 1] = after.transpose(2, 1, 0).reshape(-1, 4)
        s = after[:, :, -1].copy()
    return states, err, noise, qmax, qmin, q_nodes


def _equidistribute(xs, cum, max_steps, what):
    """Nodes at which the cumulative node count cum (given at xs) passes
    whole multiples of its total over the number of steps; refuses a
    mesh over the node budget."""
    total = cum[-1]
    if not total <= max_steps:
        x_out = float(np.interp(max_steps, cum, xs)) if np.isfinite(total) else xs[0]
        raise IntegrationError(
            f"{what} needs about {total:.2g} nodes, above the node budget of "
            f"{max_steps}; the budget runs out at x = {x_out:.6g}", x=x_out)
    n = max(1, math.ceil(total))
    mesh = np.interp(np.arange(n + 1) * (total / n), cum, xs)
    mesh[0], mesh[-1] = xs[0], xs[-1]
    return mesh


def _refined_mesh(mesh, counts, fails, max_steps, what):
    """Refine each run of consecutive steps with counts > 1 that holds a
    failing step: the run gets a whole number of nodes, placed by the
    counts.  Every other node stays where it is, so that a step that
    passed keeps its place in the oscillation and passes again."""
    grow = counts > 1.0
    edge = np.diff(np.concatenate([[0], grow.view(np.int8), [0]]))
    first, end = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    nfail = np.concatenate([[0], np.cumsum(fails)])
    run = np.cumsum(edge[:-1] == 1) - 1
    active = grow & (nfail[end] > nfail[first])[run]
    c = np.where(active, counts, 1.0)
    cum = np.concatenate([[0.0], np.cumsum(c)])
    total = cum[end] - cum[first]
    c[active] *= (np.ceil(total) / total)[run[active]]
    cum = np.concatenate([[0.0], np.cumsum(c)])
    fixed = np.concatenate([[True], ~(active[:-1] & active[1:]), [True]])
    cum[fixed] = np.round(cum[fixed])
    return _equidistribute(mesh, cum, max_steps, what)


def _stalled(mesh, fails, passes):
    k = np.flatnonzero(fails)[0]
    raise IntegrationError(
        f"integration stalled: after {passes} passes the step from "
        f"x = {mesh[k]:.17g} (h = {mesh[k + 1] - mesh[k]:.3g}) still fails "
        "its error test (q singular near x?)", x=float(mesh[k]))


def _skip_overflow(mesh, states, err, fails):
    """Steps past the first node where the states overflow cannot be
    judged: leave them out of the refinement (in place).  If every step
    before that node passes, the overflow is the solutions' own growth
    and the run ends."""
    inf = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if inf.size and inf[0] > 1:
        k = inf[0]
        if not fails[:k - 1].any():
            raise IntegrationError(
                f"the solutions overflow at x = {mesh[k]:.6g} (they grow "
                "without bound where q < 0?)", x=float(mesh[k]))
        err[k - 1:], fails[k - 1:] = 0.0, False


def _next_mesh(mesh, err, noise, qmax, fails, passes, max_steps, what):
    """The mesh for the next pass.

    Each step's target size is the usual controller's, min(hcap,
    _SAFETY h (h/err)^(1/4)), shrinking by at most _MIN_FACTOR; as a
    density of nodes it is smoothed by the maximum over each step and its
    two neighbours.  A failing step whose error estimate is down to its
    roundoff level, or whose target falls below the spacing of doubles,
    cannot be resolved (near a singular point of q): the run stalls.
    """
    h = np.diff(mesh)
    factor = _SAFETY * (h / err) ** 0.25
    factor = np.maximum(np.where(np.isnan(factor), 0.0, factor), _MIN_FACTOR)
    floor = 16.0 * _EPS * np.maximum(np.abs(mesh[:-1]), np.abs(mesh[1:]))
    stuck = fails & ((err <= noise) | (h * factor <= floor))
    if stuck.any():
        _stalled(mesh, stuck, passes)
    rho = np.maximum(1.0 / (h * factor), np.sqrt(np.maximum(qmax, 0.0)) / _PHASE_STEP)
    smooth = rho.copy()
    smooth[1:] = np.maximum(smooth[1:], rho[:-1])
    smooth[:-1] = np.maximum(smooth[:-1], rho[1:])
    return _refined_mesh(mesh, smooth * h, fails, max_steps, what)


def _starting_mesh(model, x0, xmax, max_steps):
    """Equidistribute the Liouville-Green density sqrt(q)/_PHASE_STEP (a
    step of at most _PHASE_STEP rad of phase), sampled on a grid that is
    geometric in x - x0 + d (d = x0 for x0 > 0, so geometric in x);
    returns (mesh, q points evaluated)."""
    span = xmax - x0
    d = x0 if x0 > 0.0 else span / _START_CELLS
    grid = (x0 - d) + d * np.exp(np.linspace(0.0, math.log1p(span / d), _START_CELLS + 1))
    grid[0], grid[-1] = x0, xmax
    q = model.q_array(grid)
    if not np.isfinite(q).all():
        bad = float(grid[np.flatnonzero(~np.isfinite(q))[0]])
        raise IntegrationError(f"q is not finite at x = {bad:.17g}", x=bad)
    rho = np.sqrt(np.maximum(q, 0.0))
    cum = np.concatenate([[0.0], np.cumsum((0.5 / _PHASE_STEP) * (rho[1:] + rho[:-1])
                                           * np.diff(grid))])
    mesh = _equidistribute(
        grid, cum, max_steps,
        f"q is too large: its phase on [{x0:.6g}, {xmax:.6g}] at {_PHASE_STEP} rad per step")
    return mesh, len(grid)


def integrate_pair(model, ic1, ic2, xmax, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                   max_steps=MAX_STEPS):
    """Advance both solutions jointly from model.x0 to xmax.

    ic1 and ic2 are (y, y') at x0 and must be linearly independent.
    max_steps is a node budget, checked before every pass is built.
    """
    if not 1e-13 <= rtol <= 1e-3:
        raise ParameterError(f"rtol must lie in [1e-13, 1e-3], got {rtol}")
    if atol <= 0.0:
        raise ParameterError("atol must be positive")
    x0 = model.x0
    if not xmax > x0:
        raise IntegrationError(f"xmax = {xmax} must exceed x0 = {x0}", x=x0)

    y1, p1 = float(ic1[0]), float(ic1[1])
    y2, p2 = float(ic2[0]), float(ic2[1])
    w0 = y1 * p2 - p1 * y2
    scale0 = max(abs(y1), abs(p1), abs(y2), abs(p2))
    if scale0 == 0.0 or abs(w0) <= 1e-14 * scale0 * scale0:
        raise ParameterError("initial conditions have zero Wronskian")
    start = np.array([[y1, y2], [p1, p2]])

    mesh, q_points = _starting_mesh(model, x0, float(xmax), max_steps)
    # overflow and 0/0 in a step that fails anyway become inf or NaN, and
    # NaN fails the error test
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for passes in range(1, _MAX_PASSES + 1):
            states, err, noise, qmax, qmin, q_nodes = _integration_pass(
                model, mesh, start, rtol, atol)
            q_points += 5 * len(mesh) - 4
            fails = ~(err <= np.diff(mesh))  # error per unit step
            if not fails.any():
                break
            _skip_overflow(mesh, states, err, fails)
            if passes == _MAX_PASSES:
                _stalled(mesh, fails, passes)
            mesh = _next_mesh(mesh, err, noise, qmax, fails, passes, max_steps,
                              f"rtol = {rtol:g}")
            # only the mesh carries over: free this pass's arrays before
            # the next pass allocates its own
            del states, err, noise, qmax, qmin, q_nodes, fails
    return PairTrajectory(model, mesh, states, w0, rtol, atol, q_nodes=q_nodes,
                          passes=passes, q_points=q_points, q_step_min=qmin)


def normalize_unit_wronskian(traj):
    """Rescale both solutions by |w|^(-1/2) so |w| becomes 1.

    The sign of the Wronskian is preserved; an already-unit pair comes
    back rescaled by 1 (bit-identical states).
    """
    w = traj.w
    if w == 0.0:
        raise ParameterError("cannot normalize a zero Wronskian")
    scale = abs(w) ** -0.5
    if scale == 1.0:
        return traj
    return traj._restated(traj.states * scale, w / abs(w))

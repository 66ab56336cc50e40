"""Adaptive integration of the two-solution system for y'' + q(x) y = 0.

A Dormand-Prince 5(4) pair advances the joint 4-dimensional state
(y1, y1', y2, y2') with one shared step sequence, which keeps the
Wronskian identity tight and makes every derived quantity (amplitude,
phase, zeros) consistent between the two solutions.

Error control is per unit step, so the accumulated error scales about
linearly with rtol.  Dense output is a two-point Hermite interpolant of
order 7 per solution, built from the stored (y, y') node values plus the
equation-supplied y'' = -q y and y''' = -q' y - q y'.

References
----------
Dormand & Prince (1980), J. Comp. Appl. Math. 6, 19-26.
Hairer, Norsett & Wanner, "Solving ODEs I", sect. II.4 (starting step).
"""

import math

import numpy as np

from .errors import IntegrationError, ParameterError

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
MAX_STEPS = 10 ** 7

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# stall guard: at the end of every window of _STALL_WINDOW accepted steps
# the run gives up if the window advanced x no further than the window
# before it, and at that pace the whole step budget would cover less than
# _STALL_SHARE of the span still ahead.  Near a pole the error estimate
# reaches its roundoff floor, err/h stops falling with h, and the
# controller settles on a fixed tiny step (2.6e-12 for 1/(x - 5) near
# x = 5) that is always accepted and never grows.  A step that keeps
# growing, however small it starts, never trips the guard.
_STALL_WINDOW = 1000
_STALL_SHARE = 1e-3


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
    """

    __slots__ = ("model", "mesh", "states", "w", "rtol", "atol",
                 "q_nodes", "qp_nodes", "_fdata1", "_fdata2")

    def __init__(self, model, mesh, states, w, rtol, atol):
        mesh = np.asarray(mesh, dtype=float)
        if mesh.ndim != 1 or len(mesh) < 2:
            raise ParameterError("trajectory needs at least two mesh nodes")
        self._fill(model, mesh, states, w, rtol, atol,
                   model.q_array(mesh), model.q_prime_array(mesh))

    def _restated(self, states, w):
        """A trajectory of the same model on the same mesh with new node
        states.  It shares mesh, q_nodes and qp_nodes (all read-only), so
        q is not evaluated again."""
        new = object.__new__(PairTrajectory)
        new._fill(self.model, self.mesh, states, w, self.rtol, self.atol,
                  self.q_nodes, self.qp_nodes)
        return new

    def _fill(self, model, mesh, states, w, rtol, atol, q, qp):
        states = np.asarray(states, dtype=float)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "rtol", float(rtol))
        object.__setattr__(self, "atol", float(atol))
        object.__setattr__(self, "q_nodes", q)
        object.__setattr__(self, "qp_nodes", qp)
        y1, d1, y2, d2 = states.T
        object.__setattr__(self, "_fdata1",
                           np.column_stack([y1, d1, -q * y1, -qp * y1 - q * d1]))
        object.__setattr__(self, "_fdata2",
                           np.column_stack([y2, d2, -q * y2, -qp * y2 - q * d2]))
        for arr in (self.mesh, self.states, self.q_nodes, self.qp_nodes,
                    self._fdata1, self._fdata2):
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

    def _component(self, fdata, xs, idx, nder):
        """Evaluate the order-7 interpolant of one solution (and
        derivatives up to nder) at xs with located interval ids."""
        x0 = self.mesh[idx]
        h = self.mesh[idx + 1] - x0
        tau = (xs - x0) / h
        sig = 1.0 - tau
        f0 = fdata[idx]
        f1 = fdata[idx + 1]
        hk = np.stack([np.ones_like(h), h, h * h, h * h * h])  # (4, n)
        sgn = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        w0 = f0.T * hk                     # (4, n) left data scaled by h^k
        w1 = f1.T * hk * sgn               # right data with (-1)^k
        out = []
        bt, bs = _polyval_many(_H, tau), _polyval_many(_H, sig)
        out.append((w0 * bt).sum(axis=0) + (w1 * bs).sum(axis=0))
        if nder >= 1:
            dt, ds = _polyval_many(_HD, tau), _polyval_many(_HD, sig)
            out.append(((w0 * dt).sum(axis=0) - (w1 * ds).sum(axis=0)) / h)
        if nder >= 2:
            b2t, b2s = _polyval_many(_H2, tau), _polyval_many(_H2, sig)
            out.append(f0[:, 2] * b2t[0] + h * f0[:, 3] * b2t[1]
                       + f1[:, 2] * b2s[0] - h * f1[:, 3] * b2s[1])
        return out

    def evaluate(self, xs, nder=1):
        """Interpolated (y, y', ...) for both solutions at xs.

        Returns a dict with keys 'y1', 'y2' (and 'y1p', 'y2p' for
        nder >= 1, 'y1pp', 'y2pp' for nder == 2).  Node hits reproduce the
        stored states exactly.
        """
        scalar = np.isscalar(xs)
        xs, idx = self._locate(np.atleast_1d(xs))
        r1 = self._component(self._fdata1, xs, idx, nder)
        r2 = self._component(self._fdata2, xs, idx, nder)
        # exact node hits: return stored data bit-for-bit
        for node_idx, take in ((idx, xs == self.mesh[idx]),
                               (idx + 1, xs == self.mesh[idx + 1])):
            if take.any():
                for d in range(min(nder, 1) + 1):
                    r1[d][take] = self._fdata1[node_idx[take], d]
                    r2[d][take] = self._fdata2[node_idx[take], d]
                if nder >= 2:
                    r1[2][take] = self._fdata1[node_idx[take], 2]
                    r2[2][take] = self._fdata2[node_idx[take], 2]
        keys = (("y1", "y2"), ("y1p", "y2p"), ("y1pp", "y2pp"))
        out = {}
        for d in range(nder + 1):
            a, b = r1[d], r2[d]
            if scalar:
                a, b = float(a[0]), float(b[0])
            out[keys[d][0]] = a
            out[keys[d][1]] = b
        return out


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


def integrate_pair(model, ic1, ic2, xmax, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                   max_steps=MAX_STEPS):
    """Advance both solutions jointly from model.x0 to xmax.

    ic1 and ic2 are (y, y') at x0 and must be linearly independent.
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

    q = model.q

    mesh = [x0]
    states = [(y1, p1, y2, p2)]

    x = x0
    span = xmax - x0
    qx = q(x)
    k1 = (p1, -qx * y1, p2, -qx * y2)

    # starting step from the local derivative scale
    d0 = max(abs(y1), abs(p1), abs(y2), abs(p2), atol)
    d1 = max(abs(k1[0]), abs(k1[1]), abs(k1[2]), abs(k1[3]), atol)
    h = min(span, 0.01 * d0 / d1 if d1 > 0 else 0.01 * span)
    h = max(h, 1e-10 * span)

    q_here = qx
    nsteps = 0
    x_window = x
    last_advance = 0.0  # the first window has none before it
    while x < xmax:
        if nsteps >= max_steps:
            raise IntegrationError(f"step limit {max_steps} reached", x=x)
        nsteps += 1
        # keep the phase advance per step modest so that downstream
        # quadrature of 1/v over mesh intervals stays accurate
        if q_here > 0.0:
            hcap = 0.15 / math.sqrt(q_here)
            if h > hcap:
                h = hcap
        if h > xmax - x:
            h = xmax - x
        if h <= 16.0 * math.fabs(x) * 2.220446049250313e-16 + 1e-300:
            raise IntegrationError("step size underflow (q nearly singular?)", x=x)

        a, b, c, d = y1, p1, y2, p2
        k1a, k1b, k1c, k1d = k1

        xs = x + _C2 * h
        qx = q(xs)
        ya = a + h * _A21 * k1a
        yb = b + h * _A21 * k1b
        yc = c + h * _A21 * k1c
        yd = d + h * _A21 * k1d
        k2a, k2b, k2c, k2d = yb, -qx * ya, yd, -qx * yc

        xs = x + _C3 * h
        qx = q(xs)
        ya = a + h * (_A31 * k1a + _A32 * k2a)
        yb = b + h * (_A31 * k1b + _A32 * k2b)
        yc = c + h * (_A31 * k1c + _A32 * k2c)
        yd = d + h * (_A31 * k1d + _A32 * k2d)
        k3a, k3b, k3c, k3d = yb, -qx * ya, yd, -qx * yc

        xs = x + _C4 * h
        qx = q(xs)
        ya = a + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        yb = b + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        yc = c + h * (_A41 * k1c + _A42 * k2c + _A43 * k3c)
        yd = d + h * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        k4a, k4b, k4c, k4d = yb, -qx * ya, yd, -qx * yc

        xs = x + _C5 * h
        qx = q(xs)
        ya = a + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        yb = b + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        yc = c + h * (_A51 * k1c + _A52 * k2c + _A53 * k3c + _A54 * k4c)
        yd = d + h * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        k5a, k5b, k5c, k5d = yb, -qx * ya, yd, -qx * yc

        xs = x + h
        qx = q(xs)
        ya = a + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a)
        yb = b + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b)
        yc = c + h * (_A61 * k1c + _A62 * k2c + _A63 * k3c + _A64 * k4c + _A65 * k5c)
        yd = d + h * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
        k6a, k6b, k6c, k6d = yb, -qx * ya, yd, -qx * yc

        na = a + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        nb = b + h * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        nc = c + h * (_B1 * k1c + _B3 * k3c + _B4 * k4c + _B5 * k5c + _B6 * k6c)
        nd = d + h * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d + _B6 * k6d)

        k7a, k7b, k7c, k7d = nb, -qx * na, nd, -qx * nc  # FSAL stage

        ea = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
        eb = h * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
        ec = h * (_E1 * k1c + _E3 * k3c + _E4 * k4c + _E5 * k5c + _E6 * k6c + _E7 * k7c)
        ed = h * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)

        ra = ea / (atol + rtol * max(abs(a), abs(na)))
        rb = eb / (atol + rtol * max(abs(b), abs(nb)))
        rc = ec / (atol + rtol * max(abs(c), abs(nc)))
        rd = ed / (atol + rtol * max(abs(d), abs(nd)))
        err = math.sqrt(0.25 * (ra * ra + rb * rb + rc * rc + rd * rd))

        # error per unit step: global error then scales ~linearly in rtol
        if err <= h:
            x = x + h
            y1, p1, y2, p2 = na, nb, nc, nd
            k1 = (k7a, k7b, k7c, k7d)
            q_here = qx
            mesh.append(x)
            states.append((na, nb, nc, nd))
            if len(mesh) % _STALL_WINDOW == 1:
                advance = x - x_window
                if (advance <= last_advance and advance * max_steps
                        < _STALL_SHARE * _STALL_WINDOW * (xmax - x)):
                    raise IntegrationError(
                        f"integration stalled: {_STALL_WINDOW} accepted steps "
                        f"advanced x by {advance:.3g} (q singular near x?)", x=x)
                x_window, last_advance = x, advance
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * (h / err) ** 0.25)
            h *= max(1.0, factor)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * (h / err) ** 0.25)

    return PairTrajectory(model, np.array(mesh), np.array(states), w0, rtol, atol)


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

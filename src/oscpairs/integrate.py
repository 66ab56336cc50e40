"""Integration of the two-solution system for y'' + q(x) y = 0.

The eighth-order Dormand-Prince pair DOP853 advances the joint
4-dimensional state (y1, y1', y2, y2') on one shared mesh, which keeps
the Wronskian identity tight and makes every derived quantity
(amplitude, phase, zeros) consistent between the two solutions.

The equation is linear, so one step maps (y, y') by a 2x2 transfer
matrix T that depends only on h and on q at the twelve stage nodes, and
its two embedded error estimates, of fifth and third order, are E5 (y, y')
and E3 (y, y') for matrices of the same kind; both solutions share them.
A pass over a fixed mesh builds T, E5 and E3 for every step in numpy and
chains the T by a log-depth prefix product, in blocks of steps that carry
the state from one block to the next.

A step passes when scipy's DOP853 error norm,
|e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100) of the scaled estimates, is at most
h: error control is per unit step.  That norm behaves like the error of
the eighth-order solution, so the step the test allows grows like
rtol^(1/7), and the accumulated error falls a little faster than rtol.
The step is also capped: it may turn a solution by at most
_phase_step(rtol) rad, 0.25 at the default rtol and 1 at most, where a
solution turns at the rate max(sqrt(q), |q'|/q) (_rate).  The cap follows
rtol with the same power as the error test, so the mesh, and the error,
follow rtol where the cap sets the step too.  The first mesh takes, at
each point of a grid that samples the span, the shorter of the cap's step
and the step the error test allows, in closed form from q and q' there
(_first_rates): for constant q the tableau's error estimates are
polynomials in h sqrt(q), and q' adds a term one order lower.  So the
catalog settles in one pass at the default rtol, and at rtol 1e-3, where
the cap is the shorter step, the first mesh is the cap's alone.  Where a
step still fails its error test, each step of the run around it is split
by the controller's target step, _SAFETY h (h/err)^(1/7), smoothed, and
the pass repeats; every other node keeps its place.

Dense output is a two-point Hermite interpolant of order 7 per solution,
built from the stored (y, y') node values plus the equation-supplied
y'' = -q y and y''' = -q' y - q y'; its second derivative is -q y at
the evaluation points.  This module is the only one that evaluates the
Hermite basis.  It does so in factored form, (1 - t)^4 times a cubic
for the values and (1 - t)^3 times a cubic for the slopes, so that each
value rounds at the level of its inputs, also near t = 1 where the
basis vanishes.  One contraction (_contract, located by
PairTrajectory._interpolate) reads it against any derivative-major table
of node data: both solutions' (y, y', y'', y''') for evaluate, and v and
the phase for the classifier of principal.  The solutions share the mesh
and so the basis, which one evaluation computes once for both.  A read
forms only the rows it uses: a value-only one (evaluate with nder=0)
skips the slope rows of the basis and the slope contraction, and
PairTrajectory._dense hands back the points' intervals with the rows, so
that a caller that needs both locates the points once.  Every read of
the pair between nodes goes through _dense, the Newton rounds of zeros
included, except the phase quadrature of phasekit, which applies a fixed
table of the basis at its Gauss points (_panel_table).  The final pass
also keeps the least q at the stage points of each step, both ends
included, so that a dip to q <= 0 between two nodes can be refused.  A
q or q' that is not finite where the start grid samples them, or a q
that is not finite at a stage point of a pass, is a fault of the model:
qfunc.require_finite refuses it with an EvaluationError that names the
point.

References
----------
Dormand & Prince (1980), J. Comp. Appl. Math. 6, 19-26.
Hairer, Norsett & Wanner (1993), "Solving Ordinary Differential
Equations I", 2nd ed., sec. II.4 (starting step sizes) and sec. II.10
(DOP853).
Blelloch (1990), "Prefix sums and their applications", CMU-CS-90-190.
"""

import functools
import math

import numpy as np

from .errors import IntegrationError, ParameterError
from .qfunc import require_finite

# DOP853 tableau (Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I", sec. II.10; the values scipy.integrate
# tabulates): stage nodes (stage 1 sits at x and stage 12 at x + h), the
# rows of the stage matrix, the eighth-order weights and the weights of
# the fifth- and third-order error estimates
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = tuple(np.array(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636)))
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
# the third-order estimate is the eighth-order weights less those of a
# third-order solution
_E3 = _B - np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.7338466882816118, 0.0, 0.0, 0.022058823529411766])
_STAGES = len(_C)
# the rows of the stage matrix and the weights with the identity's weight 1
# in front (see _stage_terms)
_A_I = tuple(np.concatenate([[1.0], row]) for row in _A)
_B_I = np.concatenate([[1.0], _B])
_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0])[:, None]
# stage nodes in increasing order, for differences of q across a step
_ORDER = np.argsort(_C)
_DC = np.diff(_C[_ORDER])
_E5_ABS = np.abs(_E5).sum()

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
MAX_STEPS = 10 ** 7  # node budget

# a step turns a solution by at most _phase_step(rtol) rad (see there)
_PHASE_REF = 0.25  # the cap at DEFAULT_RTOL
_PHASE_MAX = 1.0
# the step, in rad of w = sqrt(q), that the error test allows for constant
# q at tol = 1e-10 and w = 1 (see _first_rates).  For y'' = -w^2 y the
# DOP853 estimates E5 and E3 of a step are polynomials in h A, whose square
# is -(h w)^2, so a step of theta rad errs, per unit step in the norm of
# _norm, by w (theta / 0.29)^7 (1e-10 / tol) at the worst phase of the pair
# (a solution crossing zero mid-step).  0.28 leaves 0.78 of that error.
_ERR_STEP = 0.28
# Where q varies, a step across a zero of a solution errs, besides, by about
# _SLOPE_ERR g w^6 h^6 per unit step (g = |q'|/q): one order lower in h,
# from the q' y' terms of the stages.  The term levels off once g/w passes
# _SLOPE_SAT, where g sets the cap's rate.  _SLOPE_ERR is fitted to the
# largest error per unit step of gen-airy (nu 0.2 to 0.45), 1/x and x^-1.5
# over steps of 0.15 to 0.35 rad at tol 1e-10, _SLOPE_SAT to the first
# passes of the catalog families.
_SLOPE_ERR = 15.0
_SLOPE_SAT = 0.3
# Where g sets the rate (q = c/x^2), the solutions are powers x^(1/2 +- i s),
# whose k-th derivatives grow like k!/x^k, faster than g^k.  At the cap the
# slopes of the order-7 dense output then err by 4e-10 (cauchy-euler gamma
# = 1 at rtol 1e-10, against 1e-11 for constant q); steps _SLOPE_RATE times
# shorter bring that to 5e-11.  g alone does not tell the scale x of that
# growth: for q = 1/x it is 1/g, half that of c/x^2, and the first step of
# inverse-x, at x = 1, still errs by 1e-9.
_SLOPE_RATE = 1.4
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_START_CELLS = 128  # cells of the grid that samples the starting density
_BLOCK = 8192  # steps per block of a pass: bounds the temporaries
# the catalog settles in one pass; a failing step shrinks to no less than
# _MIN_FACTOR of its size per pass
_MAX_PASSES = 40
_EPS = 2.220446049250313e-16


def _phase_step(rtol):
    """The most a step may turn a solution at tolerance rtol, in rad: its
    length times the rate of _rate, which is the phase it advances where
    q varies slowly.

    There the error test allows steps of about 0.29 (rtol/1e-10)^(1/7)
    sqrt(q)^(-1/7) rad (_ERR_STEP), so it binds where sqrt(q) exceeds
    about 2 and the first mesh then takes the error test's step
    (_first_rates).  The cap follows the same power of rtol, so that the
    mesh, and with it the error, follows rtol where the cap sets the
    step, as it does where the error test sets it (halving rtol then
    halves the error).  It never exceeds 1 rad: a step of a
    scrambled pair, whose phase can run several times faster than the
    pair's own, then still advances the arctangent by less than pi, and
    the order-7 Hermite dense output, whose error is about
    step^8 / (8! 2^8), stays below rtol between nodes.
    """
    return min(_PHASE_MAX, _PHASE_REF * (rtol / DEFAULT_RTOL) ** (1.0 / 7.0))


# ---------------------------------------------------------------------------
# order-7 two-point Hermite basis on [0, 1]
#
# H_k interpolates delta_{jk} derivative data at t = 0 and zero data at
# t = 1; the right end's basis is (-1)^k H_k(1 - t).  With s = 1 - t,
#
#   H_0 = s^4 (1 + 4t + 10t^2 + 20t^3)     H_0' = -140 t^3 s^3
#   H_1 = s^4 (t + 4t^2 + 10t^3)           H_1' = s^3 (1 + 3t + 6t^2 - 70t^3)
#   H_2 = s^4 (t^2 + 4t^3) / 2             H_2' = s^3 (t + 3t^2 - 14t^3)
#   H_3 = s^4 t^3 / 6                      H_3' = s^3 (3t^2 - 7t^3) / 6
#
# The monomial form, H_0 = 1 - 35t^4 + 84t^5 - 70t^6 + 20t^7, sums terms
# up to 84 into values at most 1, so near t = 1, where the basis vanishes,
# it rounds at about 100 ulp of its values.  Factored, s is exact for
# t >= 1/2 and the cubics are short: each value rounds at a few ulp of
# itself.  The rows of _TAILS are the cubics of H_k and H_k', in
# ascending powers of t.
_TAILS = np.array([[1.0, 4.0, 10.0, 20.0],
                   [0.0, 1.0, 4.0, 10.0],
                   [0.0, 0.0, 0.5, 2.0],
                   [0.0, 0.0, 0.0, 1.0 / 6.0],
                   [0.0, 0.0, 0.0, -140.0],
                   [1.0, 3.0, 6.0, -70.0],
                   [0.0, 1.0, 3.0, -14.0],
                   [0.0, 0.0, 0.5, -7.0 / 6.0]])
# the right end's signs: (-1)^k on H_k(1 - tau) and -(-1)^k on its slope
_SIGNS = np.outer([1.0, -1.0], [1.0, -1.0, 1.0, -1.0])[:, :, None]


def _hermite_rule(h, left, right):
    """Integral of f over panels of width h from (f, f', f'', f''') at
    their ends: the integral of the order-7 two-point Hermite interpolant
    of the data, exact for polynomials of degree 7.  Its weights are
    int_0^1 H_k, (1/2, 3/28, 1/84, 1/1680), applied as a trapezoid plus
    corrections from the differences and sums of the end derivatives."""
    (fa, f1a, f2a, f3a), (fb, f1b, f2b, f3b) = left, right
    d1, s2, d3 = f1a - f1b, f2a + f2b, f3a - f3b
    trapezoid = 0.5 * h * (fa + fb)
    return trapezoid + h * h * (3.0 / 28.0 * d1 + h * (s2 / 84.0 + h * d3 / 1680.0))


# 6-point Gauss-Legendre nodes on [-1, 1] and their weights
_GL_NODES = np.array([-0.932469514203152027812301554494, -0.661209386466264513661399595020,
                      -0.238619186083196908630501721681, 0.238619186083196908630501721681,
                      0.661209386466264513661399595020, 0.932469514203152027812301554494])
_GL_WEIGHTS = np.array([0.171324492379170345040296142173, 0.360761573048138607569833513838,
                        0.467913934572691047389870343990, 0.467913934572691047389870343990,
                        0.360761573048138607569833513838, 0.171324492379170345040296142173])
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)  # on [0, 1]


def _basis(t, slope=True):
    """H_k(t) at the points t, (4, len(t)), and with slope H_k'(t) after
    them, (8, len(t)): one Horner pass over the cubics of _TAILS, times
    powers of s = 1 - t.  Each point and each row is evaluated on its
    own, so that its values depend neither on the other points nor on
    the rows asked for."""
    tails = _TAILS if slope else _TAILS[:4]
    s = 1.0 - t
    out = tails[:, 3:] * t
    for j in (2, 1):
        out += tails[:, j:j + 1]
        out *= t
    out += tails[:, :1]
    out *= s * s * s
    out[:4] *= s
    return out


def _signed_basis(tau, slope=True):
    """The basis of both ends at the fractions tau, (1, 2, 4, n), and with
    slope (2, 2, 4, n): value and slope, the left end's first and the
    right end's, signs included, second."""
    n = tau.size
    b = _basis(np.concatenate([tau, 1.0 - tau]), slope).reshape(-1, 4, 2, n)
    b[:, :, 1] *= _SIGNS[:len(b)]
    return b.transpose(0, 2, 1, 3)


def _node_data(traj, idx, table=None, h=None):
    """(9, m, n) end data of order-7 interpolants on the mesh intervals
    idx, from a derivative-major (4, m, N) table of (f, f', f'', f''') of
    m functions at the nodes, traj._node_table() by default: h^k f^(k)
    (k = 0 to 3) at the left node, the same at the right node, and
    f_left - f_right.  h, the widths of the intervals, is read from the
    mesh unless the caller has it."""
    table = traj._node_table() if table is None else table
    if h is None:
        h = traj.mesh[idx + 1] - traj.mesh[idx]
    h2 = h * h
    hk = np.array([h, h2, h2 * h])[:, None]
    data = np.empty((9, table.shape[1], idx.size))
    table.take(idx, axis=2, out=data[:4])
    table.take(idx + 1, axis=2, out=data[4:8])
    np.subtract(data[0], data[4], out=data[8])
    data[1:4] *= hk
    data[5:8] *= hk
    return data


def _contract(data, tau, h, slope=True):
    """The order-7 interpolants of the end data (9, m, n) (_node_data) at
    the fractions tau of their intervals of width h: the values and, with
    slope, the slopes, each (m, n).

    Each sum is the left end's terms plus the right end's.  The value
    terms of the slope read f_left - f_right, as (f_0 - f_1) H_0'(tau):
    H_0' is symmetric, so the roundoff of the basis then scales with f'
    and not with f/h.
    """
    b = _signed_basis(tau, slope)[..., None, :]
    ends = data[:8].reshape(2, 4, -1, tau.size)
    value = (ends * b[0]).sum(axis=1)
    out = [value[0] + value[1]]
    if slope:
        part = (ends[:, 1:] * b[1, :, 1:]).sum(axis=1)
        out.append((data[8] * b[1, 0, 0] + part[0] + part[1]) / h)
    return out


@functools.cache
def _panel_table(n):
    """(12 n, 9) table that reads y and h y' of a solution at the 6 n
    Gauss-Legendre points of n equal sub-panels of a mesh interval of
    width h off its end data (_node_data); built once for each n.

    The rows are the dense output at the points' fractions of the
    interval, values first and slopes after them, with the value terms
    of the slope on y_left - y_right, as in PairTrajectory._interpolate.
    """
    tau = ((np.arange(n)[:, None] + _GL_FRACTIONS) / n).ravel()
    table = np.zeros((2, tau.size, 9))
    table[:, :, :8] = _signed_basis(tau).reshape(2, 8, -1).transpose(0, 2, 1)
    table[1, :, 8] = table[1, :, 0]
    table[1, :, [0, 4]] = 0.0
    table = table.reshape(-1, 9)
    table.setflags(write=False)
    return table


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
        lo, hi = self.mesh[0], self.mesh[-1]
        if xs.size and (xs.min() < lo - 1e-12 * (1 + abs(lo))
                        or xs.max() > hi + 1e-12 * (1 + abs(hi))):
            raise ParameterError("sample point outside trajectory span")
        xs = np.minimum(np.maximum(xs, lo), hi)
        # the interval of a point is the number of interior nodes at or
        # left of it: the last node falls in the last interval
        return xs, np.searchsorted(self.mesh[1:-1], xs, side="right")

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

    def _interpolate(self, xs, table=None, slope=True):
        """The order-7 interpolants of the node data table (see
        _node_data) at the points xs: xs clamped to the span, their
        intervals, and the values and, with slope, the slopes, each
        (m, len(xs)) (_contract)."""
        xs, idx = self._locate(xs)
        x0 = self.mesh[idx]
        h = self.mesh[idx + 1] - x0
        data = _node_data(self, idx, table, h)
        return [xs, idx, *_contract(data, (xs - x0) / h, h, slope)]

    def _dense(self, xs, nder):
        """The dense output of both solutions at the points xs (an array):
        xs clamped to the span, their intervals, and the (2, len(xs)) rows
        (y1, y2) of the values and of the first nder derivatives.  Only the
        rows asked for are formed, and node hits reproduce the stored data
        bit-for-bit."""
        nodes = self._node_table()
        xs, idx, *out = self._interpolate(xs, slope=nder >= 1)
        if nder >= 2:
            # y'' = -q y from the equation at the interpolated y: as exact
            # as y, where differentiating the order-7 y twice would lose
            # accuracy and amplify roundoff by 1/h^2
            out.append(-self.model.q_array(xs) * out[0])
        for node_idx in (idx, idx + 1):
            take = xs == self.mesh[node_idx]
            if take.any():
                for k, arr in enumerate(out):
                    arr[:, take] = nodes[k][:, node_idx[take]]
        return xs, idx, out

    def evaluate(self, xs, nder=1):
        """Interpolated (y, y', ...) for both solutions at xs.

        Returns a dict with keys 'y1', 'y2' (and 'y1p', 'y2p' for
        nder >= 1, 'y1pp', 'y2pp' for nder == 2).  Node hits reproduce the
        stored states exactly.  The two solutions share each interval's
        tau = (x - x_i)/h and so the Hermite basis (_dense).
        """
        scalar = np.isscalar(xs)
        _, _, out = self._dense(np.atleast_1d(xs), nder)
        keys = (("y1", "y2"), ("y1p", "y2p"), ("y1pp", "y2pp"))
        res = {}
        for (k1, k2), (a, b) in zip(keys, out):
            res[k1], res[k2] = (float(a[0]), float(b[0])) if scalar else (a, b)
        return res


def _combine(coef, terms):
    """sum_j coef_j terms_j over the leading axis of terms, for the first
    len(coef) of them, as one product."""
    k = len(coef)
    return np.dot(coef, terms[:k].reshape(k, -1)).reshape(terms.shape[1:])


def _stage_terms(h, q):
    """Transfer matrix T and scaled stage matrices h K_j of one DOP853
    step for every step at once.

    For y'' = -q y, stage j maps the state u at the step start to
    h k_j = h K_j u, with K_j = A(q_j) M_j, A(q) = [[0, 1], [-q, 0]] and
    M_j = I + sum_i a_ji h K_i, so the step is u -> T u and its error
    estimates are sum_j e_j h K_j u.  h holds the step sizes and the rows
    of q the values of q at the twelve stage nodes x + c_j h.  Matrices
    are (4, n) arrays of the entries (00, 01, 10, 11), one column per
    step; the identity leads the stage matrices, so that each M_j, and T,
    is one product.  Returns T (4, n) and h K (12, 4, n).
    """
    n = len(h)
    nhq = -h * q
    hk = np.empty((_STAGES + 1, 4, n))
    hk[0] = _IDENTITY
    hk[1, ::3] = 0.0  # h A(q_1), as M_1 = I
    hk[1, 1] = h
    hk[1, 2] = nhq[0]
    for j, row in enumerate(_A_I, start=2):
        m = _combine(row, hk)
        np.multiply(h, m[2:], out=hk[j, :2])  # h A(q_j) m
        np.multiply(nhq[j - 1], m[:2], out=hk[j, 2:])
    return _combine(_B_I, hk), hk[1:]


def _rate(q, dq, q_low=None):
    """How fast a solution turns, per unit x, where q and q' are q and
    (an estimate of) its derivative: the local frequency sqrt(q), or
    where q > 0 varies faster, |q'|/q, the rate at which that frequency
    and the amplitude q^(-1/4) change.  (For q = g^2/x^2 the solutions are
    x^(1/2 +- i s), whose k-th derivatives grow like k!/x^k: the dense
    output there needs steps short against x, not only against the
    wavelength.)  Over a step, q is the largest value and q_low the
    least."""
    q_low = q if q_low is None else q_low
    slope = np.divide(np.abs(dq), q_low, out=np.zeros_like(q), where=q_low > 0.0)
    return np.maximum(np.sqrt(np.maximum(q, 0.0)), slope)


def _norm(e5, e3):
    """scipy's DOP853 error norm of (2, 2, n) arrays of scaled fifth- and
    third-order estimates: |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100), with |.|
    the root mean square over the four components.  It behaves like the
    fifth-order estimate times the ratio of the two, of the order of the
    eighth-order solution's own error."""
    s5 = 0.25 * (e5 * e5).sum(axis=(0, 1))
    s3 = 0.25 * (e3 * e3).sum(axis=(0, 1))
    # 0 where both vanish; a NaN (from a step that overflowed) stays NaN
    return np.where(s5 == 0.0, 0.0, s5 / np.sqrt(s5 + 0.01 * s3))


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


def _estimate_noise(x, h, slope, hk, before):
    """Bound on the roundoff in the fifth-order error estimates E5 s of a
    block: eps times the magnitudes of their terms, plus the error that
    rounding x to a double brings into q at the stage nodes, eps |x q'|,
    with |q'| bounded by slope, the largest difference quotient of the
    stage values.  Near a singular point of q the second term grows like
    1/(x - x_s)^2."""
    noise = _times(_combine(np.abs(_E5), np.abs(hk)).reshape(2, 2, -1), np.abs(before))
    dq = slope * np.maximum(np.abs(x), np.abs(x + h))
    noise[1] += _E5_ABS * h * dq * np.abs(before[0])
    return _EPS * noise


def _integration_pass(model, mesh, start, rtol, atol):
    """Integrate on a fixed mesh in blocks of _BLOCK steps, carrying the
    state matrix from block to block.

    start is the 2x2 matrix [[y1, y2], [y1', y2']] at mesh[0].  Returns
    the node states (N, 4) as (y1, y1', y2, y2'), the error norm of every
    step, that norm with the fifth-order estimate at its roundoff level
    (filled in only in blocks with a failing step), the rate (_rate) of
    each step from q and the differences of q at its stage nodes, the
    smallest q at those nodes and q at the nodes.
    """
    n = len(mesh) - 1
    q_nodes = model.q_array(mesh)
    states = np.empty((n + 1, 4))
    err = np.empty(n)
    noise = np.zeros(n)
    rate = np.empty(n)
    qmin = np.empty(n)
    s = start
    states[0] = s.T.ravel()
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        x, h = mesh[i:j], mesh[i + 1:j + 1] - mesh[i:j]
        inner = x + _C[1:-1, None] * h  # the interior stage points
        q = require_finite(
            lambda: np.concatenate([x[None], inner, mesh[None, i + 1:j + 1]]),
            np.concatenate([q_nodes[None, i:j], model.q_array(inner),
                            q_nodes[None, i + 1:j + 1]]))
        t, hk = _stage_terms(h, q)
        after = _prefix_states(t, s)
        before = np.concatenate([s[:, :, None], after[:, :, :-1]], axis=2)
        scale = atol + rtol * np.maximum(np.abs(before), np.abs(after))
        e3 = _times(_combine(_E3, hk).reshape(2, 2, -1), before) / scale
        e5 = _times(_combine(_E5, hk).reshape(2, 2, -1), before) / scale
        err[i:j] = _norm(e5, e3)
        # |q'| across each step, from the differences of the stage values
        slope = (np.abs(np.diff(q[_ORDER], axis=0)) / (_DC[:, None] * h)).max(axis=0)
        if not (err[i:j] <= h).all():
            noise[i:j] = _norm(_estimate_noise(x, h, slope, hk, before) / scale, e3)
        qmin[i:j] = q.min(axis=0)
        rate[i:j] = _rate(q.max(axis=0), slope, qmin[i:j])
        states[i + 1:j + 1] = after.transpose(2, 1, 0).reshape(-1, 4)
        s = after[:, :, -1].copy()
    return states, err, noise, rate, qmin, q_nodes


def _equidistribute(xs, cum, what):
    """Nodes at which the cumulative node count cum (given at xs) passes
    whole multiples of its total over the number of steps; refuses a
    mesh over the node budget MAX_STEPS, and one whose count overflows."""
    total = cum[-1]
    if not total <= MAX_STEPS:
        x_out = float(np.interp(MAX_STEPS, cum, xs))
        need = (f"about {total:.2g} nodes, above" if math.isfinite(total)
                else "more nodes than")
        raise IntegrationError(
            f"{what} needs {need} the node budget of {MAX_STEPS}; the budget "
            f"runs out at x = {x_out:.6g}", x=x_out)
    n = max(1, math.ceil(total))
    mesh = np.interp(np.arange(n + 1) * (total / n), cum, xs)
    mesh[0], mesh[-1] = xs[0], xs[-1]
    return mesh


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


def _next_mesh(mesh, err, noise, rate, fails, passes, what, cap):
    """The mesh for the next pass.

    Each step's target size is the usual controller's, min(hcap,
    _SAFETY h (h/err)^(1/7)), shrinking by at most _MIN_FACTOR; as a
    density of nodes it is smoothed by the maximum over each step and its
    two neighbours.  Each step of a run of steps that count more than one
    node by it and hold a failing step splits into ceil(count) equal
    parts; every other node stays put, so that a step that passed passes
    again.  A failing step whose error estimate is down to its roundoff
    level, or whose target falls below the spacing of doubles, cannot be
    resolved (near a singular point of q): the run stalls.
    """
    h = np.diff(mesh)
    factor = _SAFETY * (h / err) ** (1.0 / 7.0)
    factor = np.maximum(np.where(np.isnan(factor), 0.0, factor), _MIN_FACTOR)
    floor = 16.0 * _EPS * np.maximum(np.abs(mesh[:-1]), np.abs(mesh[1:]))
    stuck = fails & ((err <= noise) | (h * factor <= floor))
    if stuck.any():
        _stalled(mesh, stuck, passes)
    rho = np.maximum(1.0 / (h * factor), rate / cap)
    pad = np.concatenate([[0.0], rho, [0.0]])  # rho >= 0
    counts = np.maximum(rho, np.maximum(pad[:-2], pad[2:])) * h
    grow = counts > 1.0
    run = np.cumsum(~grow)
    parts = np.where(grow & np.isin(run, run[fails]), np.ceil(counts), 1.0)
    return _equidistribute(mesh, np.concatenate([[0.0], np.cumsum(parts)]), what)


def _first_rates(q, qp, cap, tol):
    """The rate of _rate at the points of the starting grid, and the rate
    the first mesh follows there: the larger of that and the rates at
    which the error test and the dense output allow cap rad per step, at
    tol = rtol + atol (the tolerance for solutions of unit size).

    Per unit step, the error test allows steps h with (h r)^7 + h^6 s
    <= 1 (_ERR_STEP, _SLOPE_ERR), which (h r)^6 + h^6 s <= 1 implies:

      r = w^(8/7) / c,  c = _ERR_STEP (tol / 1e-10)^(1/7),  w = sqrt(q),
      s = _SLOPE_ERR g w^6 / (c^7 (1 + g / (w _SLOPE_SAT))),  g = |q'|/q.

    The dense output asks for _SLOPE_RATE g / (_PHASE_REF (tol /
    1e-10)^(1/7)).  Where neither binds, as everywhere at rtol 1e-3 below
    w of about 230, the maximum returns the rate of _rate unchanged, and
    the first mesh is the Liouville-Green one, bit for bit.  Where q <= 0
    only _rate counts.
    """
    w = np.sqrt(np.maximum(q, 0.0))
    g = np.divide(np.abs(qp), q, out=np.zeros_like(q), where=q > 0.0)
    rate = np.maximum(w, g)  # _rate(q, qp)
    t = (tol / DEFAULT_RTOL) ** (1.0 / 7.0)
    c = _ERR_STEP * t
    k = _SLOPE_ERR * _SLOPE_SAT / c
    with np.errstate(invalid="ignore", over="ignore"):
        # 0/0 where q <= 0 gives NaN, which fmax passes over
        err = (w ** (48.0 / 7.0) + k * g * w ** 7 / (_SLOPE_SAT * w + g)) ** (1.0 / 6.0) / c
        need = np.maximum(err, (_SLOPE_RATE / (_PHASE_REF * t)) * g)
    return rate, np.fmax(rate, cap * need)


@np.errstate(over="ignore")
def _cumulative(grid, rate, cap):
    """Node count from grid[0] to each grid point at cap rad per step of
    the rate (trapezoid rule); inf past where it overflows."""
    return np.concatenate([[0.0], np.cumsum((0.5 / cap) * (rate[1:] + rate[:-1])
                                            * np.diff(grid))])


def _starting_mesh(model, x0, xmax, rtol, atol):
    """Equidistribute the rate of _first_rates over steps of cap rad,
    sampled on a grid that is geometric in x - x0 + d (d = x0 for x0 > 0,
    so geometric in x); returns (mesh, q points evaluated).

    Where the cap sets the step, as everywhere at rtol 1e-3, this is the
    Liouville-Green density rate/cap, bit for bit.  The node budget
    counts the phase alone first, so that a q whose phase is over budget
    is refused with that count.
    """
    cap = _phase_step(rtol)
    span = xmax - x0
    d = x0 if x0 > 0.0 else span / _START_CELLS
    grid = (x0 - d) + d * np.exp(np.linspace(0.0, math.log1p(span / d), _START_CELLS + 1))
    grid[0], grid[-1] = x0, xmax
    q = require_finite(grid, model.q_array(grid))
    qp = require_finite(grid, model.q_prime_array(grid), "q'")
    rate, first = _first_rates(q, qp, cap, rtol + atol)
    cum = _cumulative(grid, first, cap)
    what = f"q is too large: on [{x0:.6g}, {xmax:.6g}] at rtol = {rtol:g} it"
    if not cum[-1] <= MAX_STEPS:
        phase = _cumulative(grid, rate, cap)
        if not phase[-1] <= MAX_STEPS:
            cum = phase
            what = (f"q is too large: its phase on [{x0:.6g}, {xmax:.6g}] at "
                    f"{cap:.3g} rad per step")
    return _equidistribute(grid, cum, what), len(grid)


def integrate_pair(model, ic1, ic2, xmax, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Advance both solutions jointly from model.x0 to xmax.

    ic1 and ic2 are (y, y') at x0 and must be linearly independent.
    The node budget MAX_STEPS is checked before every pass is built.  A q
    or q' that is not finite where a run samples it raises
    EvaluationError; a run over the node budget, one that stalls and
    solutions that overflow raise IntegrationError.
    """
    if not 1e-13 <= rtol <= 1e-3:
        raise ParameterError(f"rtol must lie in [1e-13, 1e-3], got {rtol}")
    if not 0.0 < atol < math.inf:
        raise ParameterError(f"atol must be positive and finite, got {atol}")
    if not math.isfinite(xmax):
        raise ParameterError(f"xmax must be finite, got {xmax}")
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

    cap = _phase_step(rtol)
    mesh, q_points = _starting_mesh(model, x0, float(xmax), rtol, atol)
    # overflow and 0/0 in a step that fails anyway become inf or NaN, and
    # NaN fails the error test
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for passes in range(1, _MAX_PASSES + 1):
            states, err, noise, rate, qmin, q_nodes = _integration_pass(
                model, mesh, start, rtol, atol)
            # q at every node and at the interior stage nodes of every step
            q_points += len(mesh) + (_STAGES - 2) * (len(mesh) - 1)
            fails = ~(err <= np.diff(mesh))  # error per unit step
            if not fails.any():
                break
            _skip_overflow(mesh, states, err, fails)
            if passes == _MAX_PASSES:
                _stalled(mesh, fails, passes)
            mesh = _next_mesh(mesh, err, noise, rate, fails, passes,
                              f"rtol = {rtol:g}", cap)
            # only the mesh carries over: free this pass's arrays before
            # the next pass allocates its own
            del states, err, noise, rate, qmin, q_nodes, fails
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

"""Coefficient functions q(x) with exact first and second derivatives.

Models come from a small catalog of oscillatory families (the tree
c * x^e) or from a parsed arithmetic expression (the tree of its text).
q' and q'' are the tree's symbolic derivatives: downstream residual checks
need far more derivative accuracy than finite differences can give.

The three trees compile once through `expressions.compile_tree`, the one
evaluator of every q, into the array forms; the scalar forms are those at
one point.  A fault (a singular or undefined point, or an overflow) is inf
or nan, which require_finite refuses wherever a run samples q.
"""

import math

import numpy as np

from .errors import EvaluationError, ParameterError
from .expressions import Num, Var, compile_tree, derivative, mul, parse_expression, pow_

CATALOG_NAMES = ("constant", "gen-airy", "inverse-x", "cauchy-euler")


class EquationModel:
    """Coefficient q of y'' + q(x) y = 0 on [x0, oo).

    Instances are immutable and evaluation is pure, so a model can be
    shared freely across threads.  `q`, `q_prime` and `q_second` are the
    scalar functions; the `*_array` methods evaluate on numpy arrays
    through the array forms q_arr, qp_arr and qpp_arr (for `catalog_get`
    and `parse_q`, a compiled tree and its two derivatives).
    """

    __slots__ = ("source", "x0", "params", "q", "q_prime", "q_second",
                 "_q_arr", "_qp_arr", "_qpp_arr")

    def __init__(self, source, x0, params, q, qp, qpp, q_arr, qp_arr, qpp_arr):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "x0", float(x0))
        object.__setattr__(self, "params", dict(params))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_prime", qp)
        object.__setattr__(self, "q_second", qpp)
        object.__setattr__(self, "_q_arr", q_arr)
        object.__setattr__(self, "_qp_arr", qp_arr)
        object.__setattr__(self, "_qpp_arr", qpp_arr)

    def __setattr__(self, name, value):
        raise AttributeError("EquationModel is immutable")

    def q_array(self, xs):
        return _on_array(xs, self._q_arr)

    def q_prime_array(self, xs):
        return _on_array(xs, self._qp_arr)

    def q_second_array(self, xs):
        return _on_array(xs, self._qpp_arr)

    def __repr__(self):
        return f"EquationModel({self.source!r}, x0={self.x0!r}, params={self.params!r})"


def _on_array(xs, array_form):
    return np.asarray(array_form(np.asarray(xs, dtype=float)), dtype=float)


def require_finite(xs, values, name="q"):
    """values, the array form `name` of a model at the points xs (of the
    same shape); the least x where they are inf or nan, a fault of the
    model, is refused with one error.  xs may be a function that returns
    the points, so that a caller builds them only on a fault."""
    if not np.isfinite(values).all():
        xs = xs() if callable(xs) else xs
        x = float(np.min(xs[~np.isfinite(values)]))
        raise EvaluationError(f"{name} is not finite at x = {x:.17g}", x=x)
    return values


def _model(source, x0, params, tree):
    """The model of the tree q: the tree and its two symbolic derivatives
    compiled, as array forms and at one point.  A parameter or x0 that is
    not finite raises ParameterError."""
    for name, value in (*params.items(), ("x0", x0)):
        if not math.isfinite(float(value)):
            raise ParameterError(f"{name} must be finite, got {value}")
    d1 = derivative(tree)
    forms = [compile_tree(t) for t in (tree, d1, derivative(d1))]
    return EquationModel(source, x0, params,
                         *(lambda x, f=f: float(_on_array(x, f)) for f in forms), *forms)


def _require_params(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ParameterError(f"{name}: unexpected parameter(s) {sorted(extra)}")


def catalog_get(name, params=None, x0=None):
    """Return a catalog equation model.

    constant      q = c            (requires c > 0;  default x0 = 0)
    gen-airy      q = (2 nu)^-2 x^(1/nu - 2)   (0 < nu <= 1/2; x0 = 1)
    inverse-x     q = 1/x                       (x0 = 1)
    cauchy-euler  q = gamma^2/x^2  (requires gamma^2 > 1/4; x0 = 1;
                  stores s = sqrt(gamma^2 - 1/4) alongside gamma)

    Parameter ranges enforce the oscillatory regime that every other
    module assumes; a parameter for which c or e overflows is refused
    with a ParameterError that names it.  Every entry is the tree c x^e.
    """
    params = dict(params or {})
    if name == "constant":
        _require_params(name, params, {"c"})
        c = float(params.get("c", 1.0))
        if not c > 0.0:
            raise ParameterError(f"constant: need c > 0, got c = {c}")
        params, c, e, default_x0 = {"c": c}, c, 0.0, 0.0
    elif name == "gen-airy":
        _require_params(name, params, {"nu"})
        if "nu" not in params:
            raise ParameterError("gen-airy: missing parameter nu")
        nu = float(params["nu"])
        if not 0.0 < nu <= 0.5:
            raise ParameterError(f"gen-airy: need 0 < nu <= 1/2, got nu = {nu}")
        try:
            c = (2.0 * nu) ** -2  # where c is finite, so is e = 1/nu - 2
        except OverflowError:
            raise ParameterError(
                f"gen-airy: q = (2 nu)^-2 x^(1/nu - 2) overflows for nu = {nu}") from None
        params, e, default_x0 = {"nu": nu}, 1.0 / nu - 2.0, 1.0
    elif name == "inverse-x":
        _require_params(name, params, set())
        c, e, default_x0 = 1.0, -1.0, 1.0
    elif name == "cauchy-euler":
        _require_params(name, params, {"gamma"})
        if "gamma" not in params:
            raise ParameterError("cauchy-euler: missing parameter gamma")
        gamma = float(params["gamma"])
        g2 = gamma * gamma
        if not g2 > 0.25:
            raise ParameterError(
                f"cauchy-euler: oscillatory only for gamma^2 > 1/4, got gamma = {gamma}")
        if math.isfinite(gamma) and not math.isfinite(g2):  # _model refuses gamma = inf
            raise ParameterError(f"cauchy-euler: gamma^2 overflows for gamma = {gamma}")
        params, c, e, default_x0 = {"gamma": gamma, "s": math.sqrt(g2 - 0.25)}, g2, -2.0, 1.0
    else:
        raise ParameterError(f"unknown catalog equation {name!r}; "
                             f"choose one of {', '.join(CATALOG_NAMES)}")
    return _model(name, default_x0 if x0 is None else x0, params,
                  mul(Num(c), pow_(Var(), Num(e))))


def parse_q(expr, params=None, x0=1.0):
    """Build a model from an arithmetic expression in x: the parsed tree
    and its two derivatives, each compiled once by
    `expressions.compile_tree`.  A domain fault or an overflow gives nan
    at the point where it occurs, not an error at parse time.  A
    parameter the expression does not read, one named x, or one that is
    not finite raises ParameterError.
    """
    params = dict(params or {})
    return _model(f"expr:{expr}", x0, params, parse_expression(expr, params))

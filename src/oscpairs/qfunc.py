"""Coefficient functions q(x) with exact first and second derivatives.

Models come from a small catalog of oscillatory families or from a parsed
arithmetic expression.  Either way the model exposes q, q' and q'' in
closed form; downstream residual checks need far more derivative accuracy
than finite differences can give.
"""

import math

import numpy as np

from .errors import EvaluationError, ParameterError
from .expressions import compile_tree, parse_expression

CATALOG_NAMES = ("constant", "gen-airy", "inverse-x", "cauchy-euler")


class EquationModel:
    """Coefficient q of y'' + q(x) y = 0 on [x0, oo).

    Instances are immutable and evaluation is pure, so a model can be
    shared freely across threads.  `q`, `q_prime` and `q_second` are the
    scalar functions themselves; the `*_array` methods evaluate on numpy
    arrays through the array forms q_arr, qp_arr and qpp_arr.
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

    def evaluate(self, x):
        """(q, q', q'') at a single point."""
        return self.q(x), self.q_prime(x), self.q_second(x)

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


# ---------------------------------------------------------------------------
# monomial helpers: every catalog entry is q(x) = c * x^e

def _mono(c, e):
    def value(x):
        if c == 0.0 or e == 0.0:
            return c
        if x > 0.0:
            return c * x ** e
        if x == 0.0:
            if e > 0.0:
                return 0.0
            raise EvaluationError(f"q singular at x = 0 (exponent {e})")
        raise EvaluationError(f"q not defined for x = {x!r} < 0")
    return value


def _mono_arr(c, e):
    def value(xs):
        if c == 0.0 or e == 0.0:
            return np.full_like(xs, c, dtype=float)
        # a point where q is singular or undefined gives inf or nan, which
        # the caller refuses, and no numpy warning
        with np.errstate(all="ignore"):
            return c * xs ** e
    return value


def _monomial_model(source, x0, params, c, e):
    return EquationModel(
        source, x0, params,
        q=_mono(c, e),
        qp=_mono(c * e, e - 1.0),
        qpp=_mono(c * e * (e - 1.0), e - 2.0),
        q_arr=_mono_arr(c, e),
        qp_arr=_mono_arr(c * e, e - 1.0),
        qpp_arr=_mono_arr(c * e * (e - 1.0), e - 2.0),
    )


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
    module assumes.
    """
    params = dict(params or {})
    if name == "constant":
        _require_params(name, params, {"c"})
        c = float(params.get("c", 1.0))
        if c <= 0.0:
            raise ParameterError(f"constant: need c > 0, got c = {c}")
        return _monomial_model("constant", 0.0 if x0 is None else x0, {"c": c}, c, 0.0)

    if name == "gen-airy":
        _require_params(name, params, {"nu"})
        if "nu" not in params:
            raise ParameterError("gen-airy: missing parameter nu")
        nu = float(params["nu"])
        if not 0.0 < nu <= 0.5:
            raise ParameterError(f"gen-airy: need 0 < nu <= 1/2, got nu = {nu}")
        c = (2.0 * nu) ** -2
        e = 1.0 / nu - 2.0
        return _monomial_model("gen-airy", 1.0 if x0 is None else x0, {"nu": nu}, c, e)

    if name == "inverse-x":
        _require_params(name, params, set())
        return _monomial_model("inverse-x", 1.0 if x0 is None else x0, {}, 1.0, -1.0)

    if name == "cauchy-euler":
        _require_params(name, params, {"gamma"})
        if "gamma" not in params:
            raise ParameterError("cauchy-euler: missing parameter gamma")
        gamma = float(params["gamma"])
        g2 = gamma * gamma
        if g2 <= 0.25:
            raise ParameterError(
                f"cauchy-euler: oscillatory only for gamma^2 > 1/4, got gamma = {gamma}")
        s = math.sqrt(g2 - 0.25)
        return _monomial_model("cauchy-euler", 1.0 if x0 is None else x0,
                               {"gamma": gamma, "s": s}, g2, -2.0)

    raise ParameterError(f"unknown catalog equation {name!r}; "
                         f"choose one of {', '.join(CATALOG_NAMES)}")


def parse_q(expr, params=None, x0=1.0):
    """Build a model from an arithmetic expression in x.

    q' and q'' come from symbolic differentiation of the parsed tree, and
    each of the three trees becomes a scalar function, its tree walk, and
    a numpy array function (`expressions.compile_tree`); the integrator
    calls only the array forms.  Domain problems
    (division by zero, log of a non-positive value, negative base under a
    fractional power) surface as EvaluationError when a point is
    evaluated, not at parse time.
    """
    params = dict(params or {})
    tree = parse_expression(expr, params)
    d1 = tree.deriv()
    (q, q_arr), (qp, qp_arr), (qpp, qpp_arr) = (
        compile_tree(t) for t in (tree, d1, d1.deriv()))
    return EquationModel(f"expr:{expr}", x0, params, q=q, qp=qp, qpp=qpp,
                         q_arr=q_arr, qp_arr=qp_arr, qpp_arr=qpp_arr)

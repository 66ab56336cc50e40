import math
import re

import numpy as np
import pytest

from oscpairs.errors import ParameterError
from oscpairs.qfunc import CATALOG_NAMES, EquationModel, catalog_get, parse_q
from oscpairs.verify import _CASES, _fd_consistency as fd_check

FD_TOL = 1e-6


def test_gen_airy_values():
    m = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
    q, qp, qpp = m.q(4.0), m.q_prime(4.0), m.q_second(4.0)
    assert q == pytest.approx(9.0, abs=1e-12)
    assert qp == pytest.approx(2.25, abs=1e-12)
    assert qpp == 0.0


def test_gen_airy_half_reduces_to_constant():
    half = catalog_get("gen-airy", {"nu": 0.5})
    one = catalog_get("constant", {"c": 1.0})
    for x in np.linspace(0.5, 100.0, 41):
        for f in ("q", "q_prime", "q_second"):
            assert getattr(half, f)(x) == getattr(one, f)(x)


def test_cauchy_euler_values_and_stored_s():
    m = catalog_get("cauchy-euler", {"gamma": 1.0})
    assert m.q(2.0) == pytest.approx(0.25)
    assert m.params["s"] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)


def test_default_left_endpoints():
    assert catalog_get("constant", {"c": 2.0}).x0 == 0.0
    assert catalog_get("gen-airy", {"nu": 0.4}).x0 == 1.0
    assert catalog_get("inverse-x").x0 == 1.0
    assert catalog_get("cauchy-euler", {"gamma": 2.0}).x0 == 1.0


@pytest.mark.parametrize("name,params", [
    ("nosuch", {}),
    ("gen-airy", {"nu": 0.6}),
    ("gen-airy", {"nu": 0.0}),
    ("gen-airy", {}),
    ("cauchy-euler", {"gamma": 0.5}),
    ("cauchy-euler", {"gamma": 0.0}),
    ("constant", {"c": 0.0}),
    ("constant", {"c": -1.0}),
    ("inverse-x", {"nu": 1.0}),
])
def test_parameter_validation(name, params):
    with pytest.raises(ParameterError):
        catalog_get(name, params)


@pytest.mark.parametrize("build, named", [
    pytest.param(lambda: catalog_get("constant", {"c": math.nan}), "c = nan", id="c=nan"),
    pytest.param(lambda: catalog_get("constant", {"c": math.inf}), "c must be finite, got inf",
                 id="c=inf"),
    pytest.param(lambda: catalog_get("constant", x0=math.nan), "x0 must be finite, got nan",
                 id="constant x0=nan"),
    pytest.param(lambda: catalog_get("cauchy-euler", {"gamma": math.nan}), "gamma = nan",
                 id="gamma=nan"),
    pytest.param(lambda: catalog_get("cauchy-euler", {"gamma": -math.inf}),
                 "gamma must be finite", id="gamma=-inf"),
    pytest.param(lambda: catalog_get("inverse-x", x0=math.inf), "x0 must be finite, got inf",
                 id="inverse-x x0=inf"),
    pytest.param(lambda: catalog_get("gen-airy", {"nu": 1e-300}),
                 "(2 nu)^-2 x^(1/nu - 2) overflows for nu = 1e-300", id="nu=1e-300"),
    pytest.param(lambda: catalog_get("gen-airy", {"nu": 1e-310}),
                 "overflows for nu = 1e-310", id="nu=1e-310"),
    pytest.param(lambda: catalog_get("cauchy-euler", {"gamma": 1e200}),
                 "gamma^2 overflows for gamma = 1e+200", id="gamma=1e200"),
    pytest.param(lambda: parse_q("1+c", {"c": math.inf}), "c must be finite, got inf",
                 id="1+c c=inf"),
    pytest.param(lambda: parse_q("1+x", x0=math.nan), "x0 must be finite, got nan",
                 id="1+x x0=nan"),
])
def test_non_finite_parameters_are_refused(build, named):
    # both routes build the model in one place, which refuses them
    with pytest.raises(ParameterError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("name,params", [
    ("constant", {"c": 1.0}),
    ("constant", {"c": 3.7}),
    ("gen-airy", {"nu": 1.0 / 3.0}),
    ("gen-airy", {"nu": 0.4}),
    ("inverse-x", {}),
    ("cauchy-euler", {"gamma": 1.0}),
    ("cauchy-euler", {"gamma": 2.5}),
])
def test_catalog_finite_difference_consistency(name, params):
    assert fd_check(catalog_get(name, params)) <= FD_TOL


@pytest.mark.parametrize("expr,params,hi", [
    ("x", {}, None),
    ("g^2/x^2", {"g": 1.0}, None),
    ("x^(1/v - 2)/(2*v)^2", {"v": 0.25}, None),
    # trig content needs the step rule's h << period, so cap the range
    ("sin(x)^2 + 2 + exp(-x/10)", {}, 40.0),
])
def test_parsed_finite_difference_consistency(expr, params, hi):
    assert fd_check(parse_q(expr, params), hi=hi) <= FD_TOL


@pytest.mark.parametrize("name,params,expr", [
    ("constant", {"c": 1.0}, "1"),
    ("gen-airy", {"nu": 1.0 / 3.0}, "x^(1/v - 2)/(2*v)^2"),
    ("inverse-x", {}, "1/x"),
    ("cauchy-euler", {"gamma": 1.0}, "g^2/x^2"),
])
def test_parsed_matches_catalog(name, params, expr):
    bind = {"v": params.get("nu"), "g": params.get("gamma")}
    bind = {k: v for k, v in bind.items() if v is not None}
    cat = catalog_get(name, params)
    par = parse_q(expr, bind)
    xs = np.geomspace(max(cat.x0, 0.5), 1000.0, 64)
    qc = cat.q_array(xs)
    assert np.all(np.abs(par.q_array(xs) - qc) <= 1e-12 * np.maximum(np.abs(qc), 1e-300))
    qpc = cat.q_prime_array(xs)
    assert np.all(np.abs(par.q_prime_array(xs) - qpc) <= 1e-12 * (1.0 + np.abs(qpc)))


def _monomial(c, e):
    """The closed form c x^e, as catalog models evaluated q, q' and q''
    before they were expression trees."""
    def value(xs):
        if c == 0.0 or e == 0.0:
            return np.full_like(xs, c)
        with np.errstate(all="ignore"):
            return c * xs ** e
    return value


def _faults_as_nan(values):
    return np.where(np.isfinite(values), values, np.nan)


# the verify cases, and two draws of the benchmark's ranges where c e and
# c e (e - 1) round (gamma = 1 and nu = 1/3 or 0.4 give exact products)
_CATALOG_SPANS = {**_CASES, "gen-airy-0.38": ("gen-airy", {"nu": 0.38}, 200.0),
                  "cauchy-euler-1.15": ("cauchy-euler", {"gamma": 1.15}, 500.0)}


@pytest.mark.parametrize("case", sorted(_CATALOG_SPANS))
def test_catalog_trees_match_the_closed_forms_bit_for_bit(case):
    # every catalog entry is c x^e; its model is the compiled tree of c*x^e
    # and of its two symbolic derivatives, and gives the same bits as the
    # closed forms c x^e, (c e) x^(e-1) and (c e (e-1)) x^(e-2) on the
    # case's span and at x = 0.  Inf and nan both mark a fault
    name, params, xmax = _CATALOG_SPANS[case]
    model = catalog_get(name, params)
    c, e = {
        "constant": lambda p: (p["c"], 0.0),
        "gen-airy": lambda p: ((2.0 * p["nu"]) ** -2, 1.0 / p["nu"] - 2.0),
        "inverse-x": lambda p: (1.0, -1.0),
        "cauchy-euler": lambda p: (p["gamma"] ** 2, -2.0),
    }[name](params)
    parsed = parse_q("c*x^e", {"c": c, "e": e})
    closed = (_monomial(c, e), _monomial(c * e, e - 1.0),
              _monomial(c * e * (e - 1.0), e - 2.0))
    xs = np.concatenate([[0.0], np.linspace(model.x0, xmax, 4001),
                         np.geomspace(max(model.x0, 1e-3), xmax, 4001)])
    forms = zip((model.q_array, model.q_prime_array, model.q_second_array),
                (parsed.q_array, parsed.q_prime_array, parsed.q_second_array), closed)
    for got, twin, want in forms:
        got = _faults_as_nan(got(xs))
        assert np.isfinite(got[1:]).all()
        assert np.array_equal(got, _faults_as_nan(twin(xs)), equal_nan=True)
        assert np.array_equal(got, _faults_as_nan(want(xs)), equal_nan=True)


def test_catalog_names_exported():
    assert set(CATALOG_NAMES) == {"constant", "gen-airy", "inverse-x",
                                  "cauchy-euler"}


def test_model_immutable():
    m = catalog_get("constant", {"c": 1.0})
    with pytest.raises(AttributeError):
        m.x0 = 5.0


def test_array_evaluation_matches_scalar():
    m = catalog_get("gen-airy", {"nu": 0.4})
    xs = np.geomspace(1.0, 50.0, 17)
    assert np.allclose(m.q_array(xs), [m.q(x) for x in xs], rtol=0, atol=0)
    assert np.allclose(m.q_prime_array(xs), [m.q_prime(x) for x in xs],
                       rtol=0, atol=0)


@pytest.mark.parametrize("expr,params", [
    ("x^(1/v - 2)/(2*v)^2", {"v": 0.4}),
    ("g^2/x^2", {"g": 1.0}),
    ("1/x", {}),
    ("c", {"c": 0.85}),
    ("sin(x)^2 + 2 + exp(-x/10)", {}),
])
def test_parsed_array_evaluation_matches_scalar(expr, params):
    # numpy's pow and exp differ from libm by an ulp on some points
    m = parse_q(expr, params)
    xs = np.geomspace(1.0, 50.0, 17)
    for arr, scalar in ((m.q_array, m.q), (m.q_prime_array, m.q_prime),
                        (m.q_second_array, m.q_second)):
        want = np.array([scalar(x) for x in xs])
        got = arr(xs)
        assert got.shape == xs.shape
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))


def test_array_forms_are_required():
    m = catalog_get("constant", {"c": 1.0})
    with pytest.raises(TypeError):
        EquationModel("q", 1.0, {}, q=m.q, qp=m.q_prime, qpp=m.q_second)


# seeded property test of parsed q: random grammar expressions on
# [_LO, _HI], where "positive" subexpressions (bounded away from 0 there)
# are the only arguments of log, sqrt, real powers and denominators
_LO, _HI = 0.5, 1.5


def _random_expression(rng, depth):
    """(text, positive) of a random expression in x."""
    if depth == 0 or rng.random() < 0.2:
        return ("x", True) if rng.random() < 0.6 else (f"{rng.uniform(0.5, 2.5):.3g}", True)
    kind = rng.integers(8)
    a, pos_a = _random_expression(rng, depth - 1)
    if kind < 4:
        b, pos_b = _random_expression(rng, depth - 1)
        if kind == 3 and not pos_b:
            b = f"(1 + ({b})^2)"
        op = "+-*/"[kind]
        return f"({a} {op} {b})", pos_a and (pos_b or kind == 3) and kind != 1
    if kind == 4:
        expo = rng.choice(["0.5", "1.5", "-1", "2", "-0.5", "x"] if pos_a else ["2", "3"])
        return f"({a})^{expo}", pos_a
    if kind == 5:
        return f"-({a})", False
    if kind == 6:
        fname = rng.choice(["sin", "cos", "exp"])
        return f"{fname}({a})", fname == "exp"
    fname = rng.choice(["log", "sqrt"])
    return f"{fname}({a if pos_a else f'1 + ({a})^2'})", fname == "sqrt"


def _draw_model(rng, xs, h):
    """A parsed model of a random expression that is defined, and at most
    1e4 in size with its derivatives, at xs and at the stencil points."""
    pts = (xs[:, None] + h * np.arange(-2, 3)).ravel()
    while True:
        model = parse_q(_random_expression(rng, 3)[0])
        # a fault is nan, which fails the test too
        if all(np.all(np.abs(f(pts)) < 1e4)
               for f in (model.q_array, model.q_prime_array, model.q_second_array)):
            return model


def test_parsed_derivatives_of_random_expressions():
    rng = np.random.default_rng(20261018)
    xs = np.linspace(_LO + 0.01, _HI - 0.01, 64)
    h = 5e-4

    def centred(f):  # fourth order: error h^4 f^(5) / 30
        return (f(xs - 2 * h) - 8 * f(xs - h) + 8 * f(xs + h) - f(xs + 2 * h)) / (12 * h)

    for k in range(40):
        model = _draw_model(rng, xs, h)
        for f, df in ((model.q_array, model.q_prime_array),
                      (model.q_prime_array, model.q_second_array)):
            want = df(xs)
            assert np.max(np.abs(centred(f) - want)) <= FD_TOL * (1.0 + np.max(np.abs(want))), model
        # the scalar forms are the array forms at one point
        i = 17 * k % len(xs)
        want = [f(xs)[i] for f in (model.q_array, model.q_prime_array, model.q_second_array)]
        x = float(xs[i])
        assert (model.q(x), model.q_prime(x), model.q_second(x)) == tuple(want), model

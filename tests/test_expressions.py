import inspect
import math
import sys

import numpy as np
import pytest

from oscpairs.errors import ParameterError, ParseError
from oscpairs.expressions import (Num, Var, add, compile_tree, derivative,
                                  parse_expression)
from oscpairs.qfunc import parse_q


def _at(tree, x):
    """The compiled array form of tree at one point (nan at a fault)."""
    return float(compile_tree(tree)(x))


def val(expr, x, params=None):
    return _at(parse_expression(expr, params), x)


def dval(expr, x, params=None, order=1):
    tree = parse_expression(expr, params)
    for _ in range(order):
        tree = derivative(tree)
    return _at(tree, x)


def test_identity_function():
    assert val("x", 2.0) == 2.0
    assert dval("x", 2.0) == 1.0
    assert dval("x", 2.0, order=2) == 0.0


def test_parameter_substitution_and_derivatives():
    # q = g^2/x^2 with g = 1: q' = -2/x^3, q'' = 6/x^4
    assert val("g^2/x^2", 2.0, {"g": 1.0}) == pytest.approx(0.25, abs=1e-15)
    assert dval("g^2/x^2", 2.0, {"g": 1.0}) == pytest.approx(-0.25, abs=1e-14)
    assert dval("g^2/x^2", 2.0, {"g": 1.0}, order=2) == pytest.approx(0.375, abs=1e-14)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x +")
    assert err.value.position == 3


def test_unbound_identifier_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x + y")
    assert err.value.position == 4


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse_expression("tan(x)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("x) + 1")


def test_precedence_unary_minus_below_power():
    assert val("-x^2", 3.0) == -9.0
    assert val("(-x)^2", 3.0) == 9.0


def test_power_right_associative():
    assert val("2^3^2", 0.0) == 512.0


def test_power_negative_exponent():
    assert val("2^-1", 0.0) == 0.5
    assert val("x^-2", 2.0) == 0.25


def test_division_left_associative():
    assert val("6/3/2", 0.0) == 1.0


def test_number_formats():
    assert val("1.5e-3", 0.0) == 1.5e-3
    assert val(".5 + 2e2", 0.0) == 200.5


@pytest.mark.parametrize("expr", ["sin(x)", "cos(x)", "exp(x)", "log(x)",
                                  "sqrt(x)", "x^3", "x*sin(x)/(1 + x^2)",
                                  "exp(-x^2/4)*cos(2*x)"])
def test_derivatives_match_finite_differences(expr):
    rng = np.random.default_rng(42)
    tree = parse_expression(expr)
    f, df = compile_tree(tree), compile_tree(derivative(tree))
    xs = rng.uniform(0.4, 3.0, 8)
    h = 1e-6 * (1.0 + xs)
    fd = (f(xs + h) - f(xs - h)) / (2 * h)
    assert df(xs) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_abs_derivative():
    tree = derivative(parse_expression("abs(x)"))
    assert _at(tree, 2.0) == 1.0
    assert _at(tree, -2.0) == -1.0
    assert math.isnan(_at(tree, 0.0))


def test_sqrt_derivative_singular_at_origin():
    tree = derivative(parse_expression("sqrt(x)"))
    assert _at(tree, 4.0) == pytest.approx(0.25)
    assert math.isnan(_at(tree, 0.0))


def test_division_by_zero_at_evaluation():
    tree = parse_expression("1/(x - 5)")
    assert _at(tree, 6.0) == 1.0
    assert math.isnan(_at(tree, 5.0))


def test_fractional_power_of_negative_base():
    assert math.isnan(val("x^0.5", -1.0))
    assert val("(0 - 2)^2", 0.0) == 4.0


def test_log_domain():
    assert math.isnan(val("log(x)", 0.0))
    assert val("log(x)", math.e) == pytest.approx(1.0)


def test_constant_quotients_and_powers_fold():
    assert isinstance(parse_expression("1/v - 2", {"v": 0.4}), Num)
    assert isinstance(parse_expression("(2*v)^2", {"v": 0.4}), Num)
    assert val("1/v - 2", 0.0, {"v": 0.4}) == 1 / 0.4 - 2
    assert val("(2*v)^2", 0.0, {"v": 0.4}) == (2 * 0.4) ** 2
    # faults are not folded: they are nan at evaluation
    for expr in ("1/0", "x + 1/(2 - 2)", "(0 - 2)^0.5", "0^-1", "10^400"):
        tree = parse_expression(expr)
        assert not isinstance(tree, Num)
        assert math.isnan(_at(tree, 1.0))


@pytest.mark.parametrize("expr,params,unused", [
    ("2 + sin(x)", {"x": 3.0}, ["x"]),  # x always reads as the variable
    ("2 + sin(x)", {"a": 1.0}, ["a"]),
    ("x*v + 1", {"v": 0.4, "g": 1.0}, ["g"]),
])
def test_unread_parameters_are_refused(expr, params, unused):
    # a parameter the expression would ignore is an error
    with pytest.raises(ParameterError) as err:
        parse_expression(expr, params)
    assert f"unused parameter(s) {unused}" in str(err.value)


# every node type and every function; the grid crosses the faults
# (x = 0, x = 2, x < 0) of most of them.  Each expression has its own
# reference written with `math`, evaluated in the tree's order; where
# `math` raises (a domain error, an overflow or a division by zero) the
# reference is nan
V, G = 0.4, 1.3
COMPILE_CASES = {
    "x": ({}, lambda x: x),
    "3": ({}, lambda x: 3.0),
    "sin(2)": ({}, lambda x: math.sin(2.0)),
    "-x^2": ({}, lambda x: -math.pow(x, 2.0)),
    "2^3^2": ({}, lambda x: math.pow(2.0, math.pow(3.0, 2.0))),
    "x^-2": ({}, lambda x: math.pow(x, -2.0)),
    "x^0.5": ({}, lambda x: math.pow(x, 0.5)),
    "(x - 2)^3": ({}, lambda x: math.pow(x - 2.0, 3.0)),
    "x^x": ({}, lambda x: math.pow(x, x)),
    "2^x": ({}, lambda x: math.pow(2.0, x)),
    "x^(1/v - 2)/(2*v)^2": ({"v": V},
                            lambda x: math.pow(x, 1.0 / V - 2.0) / math.pow(2.0 * V, 2.0)),
    "g^2/x^2": ({"g": G}, lambda x: math.pow(G, 2.0) / math.pow(x, 2.0)),
    "1/(x - 2)": ({}, lambda x: 1.0 / (x - 2.0)),
    "sin(x)^2 + 2 + exp(-x/10)": (
        {}, lambda x: math.pow(math.sin(x), 2.0) + 2.0 + math.exp(-x / 10.0)),
    "log(x)*sqrt(x) - abs(x - 2)/cos(x)": (
        {}, lambda x: math.log(x) * math.sqrt(x) - abs(x - 2.0) / math.cos(x)),
    "x*sin(x)/(1 + x^2)": ({}, lambda x: x * math.sin(x) / (1.0 + math.pow(x, 2.0))),
    "exp(-1/x)": ({}, lambda x: math.exp(-1.0 / x)),
    "1/(1/(x - 2))": ({}, lambda x: 1.0 / (1.0 / (x - 2.0))),
    "sqrt(abs(x)) - log(x^2)": ({}, lambda x: math.sqrt(abs(x)) - math.log(math.pow(x, 2.0))),
}
GRID = np.concatenate([np.linspace(-3.0, 8.0, 881), [0.0, -0.0, 2.0, 1e300]])


def _reference(f, x):
    try:
        return f(x)
    except (ArithmeticError, ValueError):
        return math.nan


def _trees(expr):
    tree = parse_expression(expr, COMPILE_CASES[expr][0])
    return [tree, derivative(tree), derivative(derivative(tree))]


@pytest.mark.parametrize("expr", list(COMPILE_CASES))
def test_compiled_scalar_matches_tree_walk(expr):
    # q, q' and q'': the array form at one point, as a model's scalar form
    # calls it, gives what the walk over the whole grid gives there, nan
    # at the same points; a fault at one point does not reach the others.
    # Every 8th grid point and the special points keep the loop short
    pts = np.concatenate([GRID[:-4:8], GRID[-4:]])
    for tree in _trees(expr):
        array = compile_tree(tree)
        one = np.array([float(array(x)) for x in pts])
        assert np.array_equal(one, array(GRID)[np.isin(GRID, pts)], equal_nan=True)


@pytest.mark.parametrize("expr", list(COMPILE_CASES))
def test_compiled_array_matches_scalar(expr):
    # the array form against the scalar `math` reference: within 2 ulp
    # (numpy's exp, log and pow may differ from libm by an ulp), and nan
    # exactly where the reference raises
    reference = COMPILE_CASES[expr][1]
    array = compile_tree(_trees(expr)[0])
    want = np.array([_reference(reference, float(x)) for x in GRID])
    got = array(GRID)
    assert got.shape == GRID.shape
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin], equal_nan=True)
    assert np.all(np.abs(got[fin] - want[fin]) <= 2.0 * np.spacing(np.abs(want[fin])))
    assert array(GRID.reshape(-1, 1)).shape == (len(GRID), 1)


@pytest.mark.parametrize("expr,x", [
    ("1/(x - 5)", 5.0), ("x^-2", 0.0), ("x^0.5", -1.0), ("(x - 6)^1.5", 5.0),
    ("log(x)", 0.0), ("log(x)", -1.0), ("sqrt(x)", -1.0), ("abs(x)", None),
    ("1/(1/(x - 5))", 5.0), ("exp(-1/x)", 0.0), ("x + 1/0", 3.0),
    # numpy's power drops a nan: nan^0 = 1 and 1^nan = 1
    ("(1/(x - 5))^(x - x)", 5.0), ("1^log(x - 5)", 4.0),
    # the factors do not fold to 0, which would drop the fault
    ("1e-300*(1e-300*log(x))", 0.0),
])
def test_compiled_forms_raise_the_tree_error(expr, x):
    # a fault is nan at its point, alone or next to another point, whose
    # value it leaves as it is; no error and no numpy warning
    tree = parse_expression(expr)
    if x is None:  # d|x|/dx = x/|x| is undefined at 0
        tree, x = derivative(tree), 0.0
    array = compile_tree(tree)
    assert math.isnan(float(array(x)))
    got = array(np.array([x, 7.0]))
    assert math.isnan(got[0])
    assert np.array_equal(got[1:], array(np.array([7.0])), equal_nan=True)


def test_constant_factors_fold_to_a_finite_product():
    assert repr(parse_expression("2*(3*x)")) == "Mul(Num(6.0), Var(x))"
    # 1e300 * 1e300 overflows: the factors stay apart
    assert val("1e300*(1e300*(x*1e-300))", 1.0) == 1e300


def test_compiled_constants_are_bound_not_printed():
    # an inf constant (no literal spells one: see
    # test_overflowing_literal_is_refused) is a constant and no fault
    array = compile_tree(add(Var(), Num(math.inf)))
    assert float(array(1.0)) == math.inf
    assert np.all(array(np.array([1.0, 2.0])) == math.inf)


def test_compiled_deep_expression():
    tree = parse_expression(" + ".join(["x"] * 300) + " - x^2")
    array = compile_tree(tree)
    assert float(array(0.5)) == 149.75
    assert array(np.array([0.5]))[0] == 149.75


@pytest.mark.parametrize("literal, offset", [("1e400", 0), ("x + 1e999", 4), ("2*2e308", 2)])
def test_overflowing_literal_is_refused(literal, offset):
    with pytest.raises(ParseError, match="overflows") as err:
        parse_expression(literal)
    assert err.value.position == offset


# 200 parentheses and sin nested 200 deep ran Python out of stack
# (RecursionError) in the parser; each is refused where it passes its limit
@pytest.mark.parametrize("expr, offset, message", [
    pytest.param("(" * 200 + "1+x" + ")" * 200, 99, "nested deeper than 98 levels",
                 id="200 parentheses"),
    pytest.param("1+" + "sin(" * 200 + "x" + ")" * 200, 2 + 4 * 99,
                 "nested deeper than 98 levels", id="sin nested 200 deep"),
])
def test_deep_expression_is_refused_at_its_offset(expr, offset, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_expression(expr)
    assert err.value.position == offset


XS = np.linspace(0.5, 3.0, 1000)


# q, q' and q'' against their closed forms.  The derivative and the
# compiler walk a tree without recursion, so no depth of a tree that the
# parser builds runs out of stack: the sum of 3 000 terms and the quotient
# chain of 83 were refused as too deep before
@pytest.mark.parametrize("expr, closed", [
    pytest.param("1" + "+x" * 3000, (1.0 + 3000.0 * XS, np.full_like(XS, 3000.0), 0.0 * XS),
                 id="3000 terms"),
    pytest.param("2 + x" + "/x" * 83, (2.0 + XS ** -82, -82.0 * XS ** -83, 6806.0 * XS ** -84),
                 id="83 quotients"),
    pytest.param("1" + " + 0.001*sin(x)" * 5000,
                 (1.0 + 5.0 * np.sin(XS), 5.0 * np.cos(XS), -5.0 * np.sin(XS)),
                 id="5000-term sum"),
    pytest.param("2+x" + "/x" * 200, (2.0 + XS ** -199, -199.0 * XS ** -200,
                                       39800.0 * XS ** -201), id="200 quotients"),
])
def test_deep_tree_builds_and_evaluates(expr, closed):
    # a stack only 100 frames deeper than the caller's, far below the
    # tree's depth: the walks do not recurse
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        model = parse_q(expr)
        got = (model.q_array(XS), model.q_prime_array(XS), model.q_second_array(XS))
    finally:
        sys.setrecursionlimit(limit)
    for g, want in zip(got, closed):
        assert np.allclose(g, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

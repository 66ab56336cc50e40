import math

import numpy as np
import pytest

from oscpairs.errors import EvaluationError, ParseError
from oscpairs.expressions import Num, compile_tree, parse_expression


def val(expr, x, params=None):
    return parse_expression(expr, params).eval(x)


def dval(expr, x, params=None, order=1):
    tree = parse_expression(expr, params)
    for _ in range(order):
        tree = tree.deriv()
    return tree.eval(x)


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
    d1 = tree.deriv()
    for x in rng.uniform(0.4, 3.0, 8):
        h = 1e-6 * (1.0 + x)
        fd = (tree.eval(x + h) - tree.eval(x - h)) / (2 * h)
        assert d1.eval(x) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_abs_derivative():
    tree = parse_expression("abs(x)").deriv()
    assert tree.eval(2.0) == 1.0
    assert tree.eval(-2.0) == -1.0
    with pytest.raises(EvaluationError):
        tree.eval(0.0)


def test_sqrt_derivative_singular_at_origin():
    tree = parse_expression("sqrt(x)").deriv()
    assert tree.eval(4.0) == pytest.approx(0.25)
    with pytest.raises(EvaluationError):
        tree.eval(0.0)


def test_division_by_zero_at_evaluation():
    tree = parse_expression("1/(x - 5)")
    assert tree.eval(6.0) == 1.0
    with pytest.raises(EvaluationError):
        tree.eval(5.0)


def test_fractional_power_of_negative_base():
    tree = parse_expression("x^0.5")
    with pytest.raises(EvaluationError):
        tree.eval(-1.0)
    assert val("(0 - 2)^2", 0.0) == 4.0


def test_log_domain():
    with pytest.raises(EvaluationError):
        val("log(x)", 0.0)
    assert val("log(x)", math.e) == pytest.approx(1.0)


def test_constant_quotients_and_powers_fold():
    assert isinstance(parse_expression("1/v - 2", {"v": 0.4}), Num)
    assert isinstance(parse_expression("(2*v)^2", {"v": 0.4}), Num)
    assert val("1/v - 2", 0.0, {"v": 0.4}) == 1 / 0.4 - 2
    assert val("(2*v)^2", 0.0, {"v": 0.4}) == (2 * 0.4) ** 2
    # faults are not folded: they still raise at evaluation
    for expr in ("1/0", "x + 1/(2 - 2)", "(0 - 2)^0.5", "0^-1"):
        tree = parse_expression(expr)
        assert not isinstance(tree, Num)
        with pytest.raises(EvaluationError):
            tree.eval(1.0)


# every node type and every function; the grid crosses the faults
# (x = 0, x = 2, x < 0) of most of them
COMPILE_CASES = [
    "x", "3", "sin(2)", "-x^2", "2^3^2", "x^-2", "x^0.5", "(x - 2)^3",
    "x^x", "2^x", "x^(1/v - 2)/(2*v)^2", "g^2/x^2", "1/(x - 2)",
    "sin(x)^2 + 2 + exp(-x/10)", "log(x)*sqrt(x) - abs(x - 2)/cos(x)",
    "x*sin(x)/(1 + x^2)", "exp(-1/x)", "1/(1/(x - 2))", "sqrt(abs(x)) - log(x^2)",
]
GRID = np.concatenate([np.linspace(-3.0, 8.0, 881), [0.0, -0.0, 2.0, 1e300]])


def _outcome(f, x):
    try:
        return float(f(x)).hex()
    except (EvaluationError, ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


def _trees(expr):
    tree = parse_expression(expr, {"v": 0.4, "g": 1.3})
    return [tree, tree.deriv(), tree.deriv().deriv()]


@pytest.mark.parametrize("expr", COMPILE_CASES)
def test_compiled_scalar_matches_tree_walk(expr):
    # q, q' and q'' point by point: the scalar form gives the tree walk's
    # outcome everywhere, and at a fault the array form raises its error
    for tree in _trees(expr):
        scalar, array = compile_tree(tree)
        for x in GRID:
            want = _outcome(tree.eval, float(x))
            assert _outcome(scalar, float(x)) == want, x
            if isinstance(want, tuple):
                assert _outcome(lambda t: array(np.array([t]))[0], float(x)) == want, x


@pytest.mark.parametrize("expr", COMPILE_CASES)
def test_compiled_array_matches_scalar(expr):
    tree = _trees(expr)[0]
    scalar, array = compile_tree(tree)
    ok = np.array([not isinstance(_outcome(scalar, float(x)), tuple) for x in GRID])
    xs = GRID[ok]
    want = np.array([scalar(float(x)) for x in xs])
    got = array(xs)
    assert got.shape == xs.shape
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin], equal_nan=True)
    assert np.all(np.abs(got[fin] - want[fin]) <= 2.0 * np.spacing(np.abs(want[fin])))
    assert array(xs.reshape(-1, 1)).shape == (len(xs), 1)


@pytest.mark.parametrize("expr,x", [
    ("1/(x - 5)", 5.0), ("x^-2", 0.0), ("x^0.5", -1.0), ("(x - 6)^1.5", 5.0),
    ("log(x)", 0.0), ("log(x)", -1.0), ("sqrt(x)", -1.0), ("abs(x)", None),
    ("1/(1/(x - 5))", 5.0), ("exp(-1/x)", 0.0), ("x + 1/0", 3.0),
])
def test_compiled_forms_raise_the_tree_error(expr, x):
    tree = parse_expression(expr)
    if x is None:  # d|x|/dx = x/|x| is undefined at 0
        tree, x = tree.deriv(), 0.0
    with pytest.raises(EvaluationError) as expected:
        tree.eval(x)
    scalar, array = compile_tree(tree)
    with pytest.raises(EvaluationError) as got:
        scalar(x)
    assert str(got.value) == str(expected.value)
    with pytest.raises(EvaluationError) as got:
        array(np.array([x, x]))
    assert str(got.value) == str(expected.value)


def test_compiled_constants_are_bound_not_printed():
    # 1e999 parses to inf
    scalar, array = compile_tree(parse_expression("x + 1e999"))
    assert scalar(1.0) == math.inf
    assert np.all(array(np.array([1.0, 2.0])) == math.inf)


def test_compiled_deep_expression():
    tree = parse_expression(" + ".join(["x"] * 300) + " - x^2")
    scalar, array = compile_tree(tree)
    assert scalar(0.5) == tree.eval(0.5)
    assert array(np.array([0.5]))[0] == tree.eval(0.5)

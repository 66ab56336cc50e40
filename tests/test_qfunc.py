import numpy as np
import pytest

from oscpairs.errors import ParameterError
from oscpairs.qfunc import CATALOG_NAMES, catalog_get, parse_q

FD_TOL = 1e-6


def fd_check(model, lo=None, hi=None, n=64):
    """Centered-difference consistency of q' and q'' on a log grid."""
    lo = lo if lo is not None else (model.x0 if model.x0 > 0 else 1.0)
    hi = hi if hi is not None else 1e3 * lo
    worst = 0.0
    for x in np.geomspace(lo, hi, n):
        h = 1e-5 * (1.0 + x)
        q_m, qp_m, _ = model.evaluate(x - h)
        q_p, qp_p, _ = model.evaluate(x + h)
        _, qp, qpp = model.evaluate(x)
        worst = max(worst, abs((q_p - q_m) / (2 * h) - qp) / (1.0 + abs(qp)))
        worst = max(worst, abs((qp_p - qp_m) / (2 * h) - qpp) / (1.0 + abs(qpp)))
    return worst


def test_gen_airy_values():
    m = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
    q, qp, qpp = m.evaluate(4.0)
    assert q == pytest.approx(9.0, abs=1e-12)
    assert qp == pytest.approx(2.25, abs=1e-12)
    assert qpp == 0.0


def test_gen_airy_half_reduces_to_constant():
    half = catalog_get("gen-airy", {"nu": 0.5})
    one = catalog_get("constant", {"c": 1.0})
    for x in np.linspace(0.5, 100.0, 41):
        assert half.evaluate(x) == one.evaluate(x)


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
    for x in np.geomspace(max(cat.x0, 0.5), 1000.0, 64):
        qc = cat.q(x)
        assert abs(par.q(x) - qc) <= 1e-12 * max(abs(qc), 1e-300)
        qpc = cat.q_prime(x)
        assert abs(par.q_prime(x) - qpc) <= 1e-12 * (1.0 + abs(qpc))


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

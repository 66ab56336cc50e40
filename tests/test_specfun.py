import math

import numpy as np
import pytest

from oscpairs.errors import ParameterError
from oscpairs.specfun import _hankel_jy, _series_jy, bessel_jy, example1_v, modulus

TWO_OVER_PI = 2.0 / math.pi


def test_half_order_closed_forms():
    # J_{1/2}(t) = sqrt(2/(pi t)) sin t, Y_{1/2}(t) = -sqrt(2/(pi t)) cos t
    v = bessel_jy(0.5, math.pi / 2.0)
    assert v.J == pytest.approx(TWO_OVER_PI, abs=1e-12)
    v = bessel_jy(0.5, math.pi)
    assert v.Y == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-12)


def test_method_tag_switches_at_the_hand_over():
    assert bessel_jy(0.3, 29.9).method == "series"
    assert bessel_jy(0.3, 30.0).method == "asymptotic"


def test_two_route_consistency():
    # the series and Hankel's expansion on both sides of the hand-over
    for nu in (0.1, 0.2, 1.0 / 3.0, 0.45, 0.9):
        for t in (20.0, 25.0, 29.9, 30.0, 35.0, 50.0):
            series, hankel = _series_jy(nu, t), _hankel_jy(nu, t)
            amp = math.hypot(series[0], series[2])
            assert max(abs(a - b) for a, b in zip(series, hankel)) <= 1e-13 * amp


def test_wronskian_relation():
    # J Y' - J' Y = 2/(pi t), which each route has to satisfy on its own
    for nu in (0.1, 1.0 / 3.0, 0.45, 0.9):
        for t in np.geomspace(0.1, 1e3, 40):
            b = bessel_jy(nu, t)
            w = b.J * b.Yp - b.Jp * b.Y
            assert abs(w * math.pi * t / 2.0 - 1.0) <= 1e-13


def test_scipy_oracle():
    special = pytest.importorskip("scipy.special")
    worst = 0.0
    for nu in (0.1, 0.25, 1.0 / 3.0, 0.45, 0.5, 0.9):
        for t in (0.05, 0.5, 1.9, 2.1, 8.0, 31.0, 99.0):
            got = bessel_jy(nu, t)
            worst = max(worst, abs(got.J - special.jv(nu, t)),
                        abs(got.Y - special.yv(nu, t)))
    assert worst <= 1e-10


def test_scipy_oracle_with_derivatives_to_a_thousand():
    # J, J', Y and Y' against scipy, relative to the amplitude sqrt(J^2 + Y^2);
    # most of the 6e-14 seen on [2, 30) is scipy's own error
    special = pytest.importorskip("scipy.special")
    for nu in (0.1, 0.25, 1.0 / 3.0, 0.4, 0.45, 0.49, 0.5, 0.9):
        for t in np.geomspace(2.0, 1e3, 60):
            got = bessel_jy(nu, t)
            want = (special.jv(nu, t), special.jvp(nu, t),
                    special.yv(nu, t), special.yvp(nu, t))
            amp = math.hypot(want[0], want[2])
            err = max(abs(a - b) for a, b in
                      zip((got.J, got.Jp, got.Y, got.Yp), want))
            assert err <= 1e-13 * amp, (nu, t, err / amp)


def test_modulus_half_order_constant():
    for t in (0.3, 1.0, 5.0, 21.0, 80.0):
        assert abs(modulus(0.5, t) - TWO_OVER_PI) <= 1e-10


def test_modulus_increases_to_two_over_pi():
    ts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    ms = [modulus(1.0 / 3.0, t) for t in ts]
    assert all(m2 > m1 for m1, m2 in zip(ms, ms[1:]))
    assert abs(ms[-1] - TWO_OVER_PI) <= 0.01 * TWO_OVER_PI


def test_modulus_asymptotic_band():
    # loose sanity band |M - 2/pi| <= (2/pi)/(4 t^2) at t = 64
    m = modulus(1.0 / 3.0, 64.0)
    assert abs(m - TWO_OVER_PI) <= TWO_OVER_PI / (4.0 * 64.0 ** 2)


@pytest.mark.parametrize("nu", [0.1, 0.25, 1.0 / 3.0, 0.45])
def test_modulus_monotone_on_log_grid(nu):
    ts = np.geomspace(0.1, 100.0, 200)
    ms = np.array([modulus(nu, t) for t in ts])
    assert np.all(np.diff(ms) > 0)
    assert np.all(ms < TWO_OVER_PI)


def test_example1_v_half_order():
    for x in (0.5, 1.0, 7.3, 50.0):
        assert abs(example1_v(0.5, x) - TWO_OVER_PI) <= 1e-12


def test_example1_v_asymptotic():
    # x^(1/2) v -> 3/pi for nu = 1/3
    nu = 1.0 / 3.0
    v = example1_v(nu, 100.0)
    assert abs(v * 10.0 - 3.0 / math.pi) <= 0.01 * 3.0 / math.pi


def test_example1_v_cross_module_with_wronskian_factor(run_genairy):
    # the catalog equation's distinguished amplitude equals
    # nu*pi * x * (J^2 + Y^2)(x^(1/(2nu))): the closed-form pair carries
    # Wronskian 1/(nu pi), which the unit normalization divides out
    nu = 1.0 / 3.0
    ph = run_genairy.principal_phase
    for x in (10.0, 50.0, 100.0):
        i = int(np.searchsorted(ph.grid, x))
        xg = float(ph.grid[i])
        t = xg ** (1.0 / (2.0 * nu))
        v_closed = nu * math.pi * (xg / t) * modulus(nu, t)
        assert abs(v_closed - ph.v[i]) / abs(ph.v[i]) <= 1e-4


def test_complete_monotonicity_spot_check():
    from oscpairs.verify import catalog_run
    run = catalog_run("gen-airy-0.4")
    ph = run.principal_phase
    idx = np.searchsorted(ph.grid, np.linspace(2.0, 200.0, 50))
    assert np.all(ph.v[idx] > 0)
    assert np.all(ph.v_prime[idx] < 0)
    assert np.all(ph.v_second[idx] > 0)


def test_validation():
    with pytest.raises(ParameterError):
        bessel_jy(0.0, 1.0)
    with pytest.raises(ParameterError):
        bessel_jy(1.0, 1.0)
    with pytest.raises(ParameterError):
        bessel_jy(0.3, 0.0)
    with pytest.raises(ParameterError):
        example1_v(0.6, 1.0)
    with pytest.raises(ParameterError):
        example1_v(0.3, -1.0)
    with pytest.raises(ParameterError, match="argument t"):
        bessel_jy(0.3, math.nan)
    with pytest.raises(ParameterError, match="argument t"):
        bessel_jy(0.3, math.inf)
    with pytest.raises(ParameterError, match="finite x"):
        example1_v(0.3, math.inf)
    # x^(1/(2 nu)) = 1e500 overflows a float
    with pytest.raises(ParameterError, match=r"x = 1e\+100 is too large"):
        example1_v(0.1, 1e100)

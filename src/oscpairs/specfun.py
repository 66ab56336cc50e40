"""Bessel functions of non-integer order in (0, 1) and the modulus
t (J^2 + Y^2), used to cross-check the generalized-Airy amplitude.

Small arguments use the ascending series for J_nu and J_{-nu} with the
connection formula Y_nu = (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi);
larger arguments propagate u = sqrt(t) Z_nu(t) through the normal-form
equation u'' + (1 - (nu^2 - 1/4)/t^2) u = 0 with the pair integrator,
seeded from series values at t = 2 (the alternating series loses digits
well before the asymptotic range begins).  That equation is a parsed
model (qfunc.parse_q), so its q' and q'' are the symbolic derivatives,
as for any other expression; the series takes Gamma from math.gamma.

References
----------
DLMF 10.2.2 (series), 10.2.3 (connection), 10.5.2 (Wronskian).
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .integrate import integrate_pair
from .qfunc import parse_q

_SERIES_PROPAGATE_SPLIT = 2.0
_PROPAGATE_RTOL = 1e-12
_PROPAGATE_ATOL = 1e-15


@dataclass(frozen=True)
class BesselValue:
    J: float
    Y: float
    method: str  # 'series' | 'propagated'


def _series_j(mu, t):
    """(J_mu(t), J_mu'(t)) by the ascending series; fine for t <= ~2."""
    term = (0.5 * t) ** mu / math.gamma(mu + 1.0)
    j = term
    jp = term * mu / t
    k = 0
    while True:
        k += 1
        term *= -(0.25 * t * t) / (k * (k + mu))
        j += term
        jp += term * (2.0 * k + mu) / t
        if abs(term) < 1e-17 * (abs(j) + 1e-300):
            break
        if k > 200:
            break
    return j, jp


def _series_jy(nu, t):
    """(J, J', Y, Y') from the two ascending series and the connection
    formula; requires non-integer nu in (0, 1)."""
    jp_, jpd = _series_j(nu, t)
    jm_, jmd = _series_j(-nu, t)
    s = math.sin(nu * math.pi)
    c = math.cos(nu * math.pi)
    y = (jp_ * c - jm_) / s
    yd = (jpd * c - jmd) / s
    return jp_, jpd, y, yd


def _normal_form_model(nu, t0):
    """u'' + (1 - (nu^2 - 1/4)/t^2) u = 0 as an equation model."""
    return parse_q("1 - a/x^2", {"a": nu * nu - 0.25}, x0=t0)


def _propagate(nu, t_from, t_to):
    """Trajectory of (u_J, u_Y) from series seeds at t_from."""
    j, jd, y, yd = _series_jy(nu, t_from)
    r = math.sqrt(t_from)
    ic_j = (r * j, 0.5 * j / r + r * jd)
    ic_y = (r * y, 0.5 * y / r + r * yd)
    model = _normal_form_model(nu, t_from)
    return integrate_pair(model, ic_j, ic_y, t_to,
                          rtol=_PROPAGATE_RTOL, atol=_PROPAGATE_ATOL)


_CACHE = {}


def _propagated_trajectory(nu, t):
    cached = _CACHE.get(nu)
    if cached is None or cached.xmax < t:
        _CACHE[nu] = _propagate(nu, _SERIES_PROPAGATE_SPLIT,
                                max(2.0 * t, 64.0))
    return _CACHE[nu]


def _validate(nu, t):
    if not 0.0 < nu < 1.0:
        raise ParameterError(f"order must lie strictly in (0, 1), got {nu}")
    if t <= 0.0:
        raise ParameterError(f"argument must be positive, got {t}")


def bessel_jy(nu, t):
    """J_nu(t) and Y_nu(t) for 0 < nu < 1, t > 0.

    Ascending series below t = 2, normal-form propagation above; the two
    routes agree to ~1e-10 where they overlap.
    """
    nu, t = float(nu), float(t)
    _validate(nu, t)
    if t <= _SERIES_PROPAGATE_SPLIT:
        j, _, y, _ = _series_jy(nu, t)
        return BesselValue(J=j, Y=y, method="series")
    traj = _propagated_trajectory(nu, t)
    u = traj.evaluate(t, nder=0)
    r = math.sqrt(t)
    return BesselValue(J=u["y1"] / r, Y=u["y2"] / r, method="propagated")


def modulus(nu, t):
    """M_nu(t) = t (J_nu^2 + Y_nu^2); increases to 2/pi for nu < 1/2."""
    val = bessel_jy(nu, t)
    return t * (val.J ** 2 + val.Y ** 2)


def example1_v(nu, x):
    """Amplitude x (J_nu^2 + Y_nu^2) evaluated at t = 2 nu x^(1/(2 nu)).

    This is the classical closed-form amplitude of the Bessel pair
    sqrt(x) Z_nu(2 nu x^(1/(2 nu))); note that this pair carries
    Wronskian 1/(nu pi), not 1, so under the unit-Wronskian convention
    used everywhere else the corresponding amplitude is nu*pi times
    this value (for the equation that pair actually solves).

    That equation is y'' + x^(1/nu - 2) y = 0, not the catalog's
    gen-airy q = (2 nu)^-2 x^(1/nu - 2): for the catalog equation the
    argument is t = x^(1/(2 nu)), and its unit-Wronskian principal
    amplitude is nu pi x (J_nu^2 + Y_nu^2)(x^(1/(2 nu))).
    """
    nu, x = float(nu), float(x)
    if not 0.0 < nu <= 0.5:
        raise ParameterError(f"need 0 < nu <= 1/2, got {nu}")
    if x <= 0.0:
        raise ParameterError(f"need x > 0, got {x}")
    t = 2.0 * nu * x ** (1.0 / (2.0 * nu))
    val = bessel_jy(nu, t)
    return x * (val.J ** 2 + val.Y ** 2)

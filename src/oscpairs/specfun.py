"""Bessel functions of non-integer order in (0, 1) and the modulus
t (J^2 + Y^2), used to cross-check the generalized-Airy amplitude.

Two closed routes, neither of which runs the pair integrator they check:
below t = 30 the ascending series for J_nu and J_{-nu} (DLMF 10.2.2) and
the connection formula Y_nu = (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi)
(DLMF 10.2.3); from t = 30 Hankel's expansion (DLMF 10.17.3 for J and Y,
10.17.9-10 for J' and Y'), summed until its terms stop decreasing or
fall below 1e-17.  The series alternates and its largest term is about
e^t / sqrt(2 pi t), so at t = 30 it cancels about 13 digits; summed in
40-digit decimal it keeps about 27.  The routes agree to ~1e-15 of the
amplitude at t = 30, and each satisfies the Wronskian
J Y' - J' Y = 2/(pi t) (DLMF 10.5.2) on its own.
"""

import decimal
import math
from dataclasses import dataclass

from .errors import ParameterError

_SERIES_HANKEL_SPLIT = 30.0
_SERIES_DIGITS = 40


@dataclass(frozen=True)
class BesselValue:
    J: float
    Y: float
    Jp: float
    Yp: float
    method: str  # 'series' | 'asymptotic'


def _series_j(mu, t):
    """(J_mu(t), J_mu'(t)) by the ascending series, summed in decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = _SERIES_DIGITS
        z = -decimal.Decimal(t) ** 2 / 4
        m = decimal.Decimal(mu)
        tol = decimal.Decimal("1e-20")
        term = decimal.Decimal(1)
        s, sp = term, m
        for k in range(1, 200):
            term *= z / (k * (k + m))
            s += term
            sp += term * (2 * k + m)
            if abs(term) < tol * abs(s):
                break
    lead = (0.5 * t) ** mu / math.gamma(mu + 1.0)
    return lead * float(s), lead * float(sp) / t


def _series_jy(nu, t):
    """(J, J', Y, Y') from the two ascending series and the connection
    formula; requires non-integer nu in (0, 1)."""
    jp_, jpd = _series_j(nu, t)
    jm_, jmd = _series_j(-nu, t)
    s, c = math.sin(nu * math.pi), math.cos(nu * math.pi)
    return jp_, jpd, (jp_ * c - jm_) / s, (jpd * c - jmd) / s


def _hankel_jy(nu, t):
    """(J, J', Y, Y') by Hankel's expansion; for t >= ~30."""
    mu = 4.0 * nu * nu
    a, last = 1.0, math.inf          # a_k(nu) / t^k, the last term's size
    sa, sb = [1.0, 0.0], [1.0, 0.0]  # sums of (-1)^(k//2) a_k / t^k, even and odd k
    for k in range(1, 200):
        b = a * (mu + 4.0 * k * k - 1.0) / (8.0 * k * t)     # b_k(nu) / t^k
        a *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * t)
        size = max(abs(a), abs(b))
        if size >= last or size < 1e-17:
            break
        last, sign = size, (-1.0) ** (k // 2)
        sa[k % 2] += sign * a
        sb[k % 2] += sign * b
    (pa, qa), (pb, qb) = sa, sb
    # cos and sin of omega = t - (nu/2 + 1/4) pi without rounding t - phi
    phi = (0.5 * nu + 0.25) * math.pi
    ct, st, cp, sp = math.cos(t), math.sin(t), math.cos(phi), math.sin(phi)
    cw, sw = ct * cp + st * sp, st * cp - ct * sp
    r = math.sqrt(2.0 / (math.pi * t))
    return (r * (cw * pa - sw * qa), -r * (sw * pb + cw * qb),
            r * (sw * pa + cw * qa), r * (cw * pb - sw * qb))


def _validate(nu, t):
    if not 0.0 < nu < 1.0:
        raise ParameterError(f"order nu must lie strictly in (0, 1), got {nu}")
    if not 0.0 < t < math.inf:
        raise ParameterError(f"argument t must be positive and finite, got {t}")


def bessel_jy(nu, t):
    """J_nu(t), Y_nu(t) and their derivatives for 0 < nu < 1, t > 0.

    Ascending series below t = 30, Hankel's expansion from there; the two
    routes agree to ~1e-15 of the amplitude where they meet.
    """
    nu, t = float(nu), float(t)
    _validate(nu, t)
    if t < _SERIES_HANKEL_SPLIT:
        j, jp, y, yp = _series_jy(nu, t)
        method = "series"
    else:
        j, jp, y, yp = _hankel_jy(nu, t)
        method = "asymptotic"
    return BesselValue(J=j, Y=y, Jp=jp, Yp=yp, method=method)


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
    if not 0.0 < x < math.inf:
        raise ParameterError(f"need finite x > 0, got {x}")
    try:
        t = 2.0 * nu * x ** (1.0 / (2.0 * nu))
    except OverflowError:
        raise ParameterError(f"x = {x} is too large: x^(1/(2 nu)) overflows") from None
    val = bessel_jy(nu, t)
    return x * (val.J ** 2 + val.Y ** 2)

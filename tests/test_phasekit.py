import math

import numpy as np
import pytest

from oscpairs.errors import GridError, ParameterError
from oscpairs.integrate import (PairTrajectory, integrate_pair,
                                normalize_unit_wronskian, sample)
from oscpairs.phasekit import (_combined_phase, _integrate_inv_v_local,
                               _inv_v_derivatives, _phase_increments,
                               _refine_fast, amplitude_series, appell_residual,
                               phase_unwrap, prufer_polar, wronskian)
from oscpairs.principal import transform_pair
from oscpairs.qfunc import catalog_get
from oscpairs.verify import unimodular_scrambles


def test_wronskian_operation():
    x = 0.7
    state = np.array([math.sin(x), math.cos(x), math.cos(x), -math.sin(x)])
    assert wronskian(state) == pytest.approx(-1.0, abs=1e-15)
    dependent = np.array([1.0, 2.0, 1.0, 2.0])
    assert wronskian(dependent) == 0.0


def test_wronskian_constant_for_ce_closed_pair():
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = integrate_pair(model, (0.0, s), (1.0, 0.5), 50.0)
    xs = np.geomspace(1.0, 50.0, 10)
    w = wronskian(sample(traj, xs))
    assert np.max(np.abs(w + s)) <= 1e-10


def test_amplitude_constant_pair(run_constant):
    ph = amplitude_series(run_constant.traj)
    assert np.max(np.abs(ph.v - 1.0)) <= 1e-10
    assert np.max(np.abs(ph.v_prime)) <= 1e-10
    assert np.max(np.abs(ph.v_second)) <= 1e-9


def test_amplitude_cauchy_euler_closed_form():
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = normalize_unit_wronskian(
        integrate_pair(model, (0.0, s), (1.0, 0.5), 200.0))
    ph = amplitude_series(traj)
    x = ph.grid
    assert np.max(np.abs(ph.v - x / s) / (x / s)) <= 1e-9
    assert np.max(np.abs(ph.v_prime - 1.0 / s)) <= 1e-9
    assert np.max(np.abs(ph.v_second)) <= 1e-9


def test_amplitude_derivative_against_finite_differences(run_genairy):
    traj = run_genairy.traj
    xs = np.linspace(5.0, 195.0, 32)
    h = 1e-5
    for x in xs:
        vm = amplitude_series(traj, np.array([x - h, x, x + h]))
        fd = (vm.v[2] - vm.v[0]) / (2 * h)
        assert abs(fd - vm.v_prime[1]) <= 1e-6 * (1.0 + abs(vm.v_prime[1]))


def test_amplitude_rejects_non_unit_pair():
    model = catalog_get("constant", {"c": 1.0})
    traj = integrate_pair(model, (0.0, 2.0), (1.0, 0.0), 5.0)  # w = -2
    with pytest.raises(ParameterError):
        amplitude_series(traj)
    with pytest.raises(ParameterError):
        phase_unwrap(traj)


def test_phase_constant_is_linear(run_constant):
    ph = phase_unwrap(run_constant.traj)
    assert np.max(np.abs(ph.alpha - ph.grid)) <= 1e-9
    assert ph.alpha_mismatch_max <= 1e-7
    assert not ph.swapped


def test_phase_cauchy_euler_is_logarithmic(run_ce):
    ph = run_ce.phase
    s = run_ce.model.params["s"]
    # alpha(x) = s log x + alpha(1) for the distinguished pair; the
    # default pair differs by a bounded reparametrization, so check on
    # the transformed (principal) trajectory instead
    php = run_ce.principal_phase
    model = php.alpha - (s * np.log(php.grid) + php.alpha[0])
    assert np.max(np.abs(model)) <= 1e-7
    assert ph.alpha_mismatch_max <= 1e-7


def test_phase_growth_unbounded(run_genairy):
    ph = run_genairy.phase
    assert ph.alpha[-1] - ph.alpha[0] > 100.0
    # independent check: quadrature of |alpha'| = 1/v by trapezoid
    lower = np.trapezoid(1.0 / ph.v, ph.grid)
    assert abs((ph.alpha[-1] - ph.alpha[0]) - lower) <= 1e-3 * lower


def test_phase_identity_and_reconstruction(run_genairy):
    ph = run_genairy.phase
    traj = run_genairy.traj
    assert np.max(np.abs(ph.v * ph.alpha_prime + traj.w)) <= 1e-9
    rec1 = traj.states[:, 0] - np.sqrt(ph.v) * np.sin(ph.alpha)
    rec2 = traj.states[:, 2] - np.sqrt(ph.v) * np.cos(ph.alpha)
    assert np.max(np.abs(rec1) / np.sqrt(ph.v)) <= 1e-7
    assert np.max(np.abs(rec2) / np.sqrt(ph.v)) <= 1e-7
    assert np.all(np.diff(ph.alpha) > 0)


def test_alpha_at_matches_arctangent(run_genairy):
    ph = run_genairy.phase
    traj = run_genairy.traj
    xs = np.linspace(2.0, 199.0, 57)
    alpha = ph.alpha_at(xs)
    st = sample(traj, xs)
    raw = np.arctan2(st[:, 0], st[:, 2])
    delta = alpha - raw
    assert np.max(np.abs(delta - 2 * math.pi * np.round(delta / (2 * math.pi)))) <= 1e-12


@pytest.mark.parametrize("fixture", ["run_constant", "run_genairy",
                                     "run_inversex", "run_ce"])
def test_combined_phase_matches_quadrature(request, fixture):
    # the phase of M (y1, y2) from the input's phase, against the
    # quadrature of the combined pair, within the C8 bound; the flipped
    # input (w = +1) unwraps in swapped order
    traj = request.getfixturevalue(fixture).traj
    scrambles = [M for M in unimodular_scrambles(1)
                 if M[0] * M[3] - M[1] * M[2] > 0][:2]
    for pair in (traj, transform_pair(traj, (0.0, 1.0, 1.0, 0.0))):
        phase = phase_unwrap(pair)
        for M in scrambles:
            got = _combined_phase(pair._combined(M, pair.w), phase)
            want = phase_unwrap(transform_pair(pair, M))
            assert got.swapped == want.swapped == (pair.w > 0)
            assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-7
            for name in ("v", "v_prime", "v_second", "alpha_prime"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_appell_identity_constant(run_constant):
    grid = np.linspace(1.0, 49.0, 64)
    r = appell_residual(run_constant.traj, (1.0, 1.0, 0.0), grid)
    assert r.max <= 1e-8


def test_appell_identity_cauchy_euler_principal(run_ce):
    grid = np.linspace(6.0, 494.0, 64)
    r = appell_residual(run_ce.principal, (1.0, 1.0, 0.0), grid)
    assert r.max <= 1e-6


def test_appell_linearity_and_random_combinations(run_genairy):
    grid = np.linspace(5.0, 195.0, 64)
    for combo in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5)):
        assert appell_residual(run_genairy.traj, combo, grid).max <= 1e-5
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = rng.uniform(0.3, 3.0)
        c = rng.uniform(-1.5, 1.5)
        r = appell_residual(run_genairy.traj, (a, (1 + c * c) / a, c), grid)
        assert r.max <= 1e-5


def test_appell_grid_too_coarse(run_constant):
    with pytest.raises(GridError):
        appell_residual(run_constant.traj, (1.0, 1.0, 0.0),
                        np.array([1.0, 2.0, 3.0]))


def test_prufer_constant(run_constant):
    pp = prufer_polar(run_constant.traj, "y1")
    assert np.max(np.abs(pp.rho - 1.0)) <= 1e-10
    assert np.max(np.abs(pp.phi - pp.grid)) <= 1e-9


def test_prufer_reconstruction_exact(run_genairy):
    pp = prufer_polar(run_genairy.traj, "y2")
    y = run_genairy.traj.states[:, 2]
    d = run_genairy.traj.states[:, 3]
    ssq = y * y + d * d
    assert np.max(np.abs(pp.rho ** 2 - ssq) / ssq) <= 1e-15
    assert np.max(np.abs(pp.rho * np.sin(pp.phi) - y)) <= 1e-9 * np.max(pp.rho)


def test_prufer_angle_equation(run_genairy):
    # phi' = cos^2(phi) + q sin^2(phi), checked by centered differences
    # with spacing tied to the local oscillation rate
    traj = run_genairy.traj
    xs = np.linspace(2.0, 199.0, 57)
    q = traj.model.q_array(xs)
    h = 2.5e-4 / np.sqrt(q)
    lo = prufer_polar(traj, "y1", xs - h)
    mid = prufer_polar(traj, "y1", xs)
    hi = prufer_polar(traj, "y1", xs + h)
    fd = (hi.phi - lo.phi) / (2.0 * h)
    model = np.cos(mid.phi) ** 2 + q * np.sin(mid.phi) ** 2
    assert np.max(np.abs(fd - model) / (1.0 + np.abs(model))) <= 1e-5


def test_prufer_invalid_selector(run_constant):
    with pytest.raises(ParameterError):
        prufer_polar(run_constant.traj, "y3")


def _loop_increments(traj):
    """Scalar reference for _phase_increments: the corrected trapezoid per
    mesh interval, then one linspace refinement per fast interval.
    Returns (unrefined, refined) increments."""
    y1, d1, y2, d2 = traj.states.T
    f, f1, f3 = _inv_v_derivatives(y1, d1, y2, d2, traj.q_nodes, traj.qp_nodes)
    h = np.diff(traj.mesh)
    coarse = (0.5 * h * (f[:-1] + f[1:])
              - h * h / 12.0 * (f1[1:] - f1[:-1])
              + h ** 4 / 720.0 * (f3[1:] - f3[:-1]))
    inc = coarse.copy()
    for idx in np.nonzero(np.abs(inc) > 0.05)[0]:
        n = int(math.ceil(abs(inc[idx]) / 0.025))
        edges = np.linspace(traj.mesh[idx], traj.mesh[idx + 1], n + 1)
        inc[idx] = float(np.sum(_integrate_inv_v_local(traj, edges[:-1], edges[1:])))
    return coarse, inc


def _coarse_traj(name, params, xmax):
    model = catalog_get(name, params)
    return normalize_unit_wronskian(
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), xmax, rtol=1e-3))


def _assert_matches_loop(traj):
    coarse, ref = _loop_increments(traj)
    inc, refined = _phase_increments(traj)
    fast = int(np.count_nonzero(np.abs(coarse) > 0.05))
    assert fast > 0 and refined == fast
    # only the summation order of the sub-panels differs from the loop
    assert np.all(np.abs(inc - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    return refined


@pytest.mark.parametrize("name,params,xmax", [
    ("constant", {"c": 1.0}, 50.0),
    ("gen-airy", {"nu": 0.4}, 60.0),
    ("cauchy-euler", {"gamma": 1.0}, 500.0),
])
def test_batched_refinement_matches_loop_coarse_tolerance(name, params, xmax):
    traj = _coarse_traj(name, params, xmax)
    refined = _assert_matches_loop(traj)
    assert phase_unwrap(traj).refined_intervals == refined


def test_batched_refinement_matches_loop_scrambled(run_inversex):
    # the first three scrambles of seed 7 that leave the pair with fast
    # intervals, so that every comparison covers refined ones
    pairs = (transform_pair(run_inversex.traj, m) for m in unimodular_scrambles(7))
    fast = [p for p in pairs if np.any(np.abs(_loop_increments(p)[0]) > 0.05)][:3]
    assert len(fast) == 3
    for pair in fast:
        _assert_matches_loop(pair)


def test_no_fast_intervals_returns_unrefined_increments():
    model = catalog_get("gen-airy", {"nu": 0.4})
    traj = normalize_unit_wronskian(
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 7.5))
    coarse, _ = _loop_increments(traj)
    inc, refined = _phase_increments(traj)
    assert refined == 0
    assert np.array_equal(inc, coarse)
    assert phase_unwrap(traj).refined_intervals == 0



def test_refinement_evaluates_each_sub_panel_edge_once(monkeypatch):
    traj = _coarse_traj("gen-airy", {"nu": 0.4}, 60.0)
    coarse, _ = _loop_increments(traj)
    fast = np.flatnonzero(np.abs(coarse) > 0.05)
    n = np.ceil(np.abs(coarse[fast]) / 0.025).astype(int)
    assert fast.size > 0

    # the sub-panels [a, b] as the per-panel linspace edges give them
    step = (traj.mesh[fast + 1] - traj.mesh[fast]) / n
    owner = np.repeat(np.arange(fast.size), n)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    lo, hi = traj.mesh[fast][owner], traj.mesh[fast + 1][owner]
    a = lo + k * step[owner]
    b = np.where(k + 1 == n[owner], hi, lo + (k + 1) * step[owner])
    want = coarse.copy()
    want[fast] = np.bincount(owner, weights=_integrate_inv_v_local(traj, a, b))

    points = []
    evaluate = PairTrajectory.evaluate

    def counting(self, xs, nder=1):
        points.append(np.size(xs))
        return evaluate(self, xs, nder)

    monkeypatch.setattr(PairTrajectory, "evaluate", counting)
    inc, refined = _refine_fast(traj, traj.mesh[:-1], traj.mesh[1:], coarse)
    assert refined == fast.size
    assert points == [int(np.sum(n + 1))]
    assert np.array_equal(inc, want)


def test_phase_speed_matches_quotient_form(run_constant, run_genairy, run_ce_long):
    for run in (run_constant, run_genairy, run_ce_long):
        traj = transform_pair(run.traj, (1.3, 0.4, -0.2, 0.92 / 1.3))
        y1, d1, y2, d2 = traj.states.T
        q, qp = traj.q_nodes, traj.qp_nodes
        f, f1, f3 = _inv_v_derivatives(y1, d1, y2, d2, q, qp)
        # the quotient form with powers of v, term by term
        v = y1 * y1 + y2 * y2
        w = np.abs(y1 * d2 - d1 * y2)
        vp = 2.0 * (y1 * d1 + y2 * d2)
        vpp = 2.0 * (d1 * d1 + d2 * d2) - 2.0 * q * v
        vppp = -4.0 * q * vp - 2.0 * qp * v
        terms = (-w * vppp / v ** 2, 6.0 * w * vp * vpp / v ** 3,
                 -6.0 * w * vp ** 3 / v ** 4)
        assert np.all(np.abs(f - w / v) <= 1e-14 * (w / v))
        assert np.all(np.abs(f1 + w * vp / v ** 2) <= 1e-14 * np.abs(w * vp / v ** 2))
        scale = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
        assert np.all(np.abs(f3 - (terms[0] + terms[1] + terms[2])) <= 1e-14 * scale)

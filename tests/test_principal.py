import dataclasses
import math

import numpy as np
import pytest

from oscpairs import principal
from oscpairs.errors import IllConditionedError, ParameterError
from oscpairs.integrate import PairTrajectory
from oscpairs.phasekit import amplitude_series, phase_unwrap
from oscpairs.principal import (CombinationCoefficients, classify,
                                coefficient_matrix, find_principal,
                                sufficient_conditions, transform_pair, _fit,
                                _oscillation_residual, _sheet_minimizer)
from oscpairs.qfunc import catalog_get
from oscpairs.verify import unimodular_scrambles


def test_rotation_preserves_amplitude(run_constant):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = transform_pair(run_constant.traj, (c, s, -s, c))
    v0 = run_constant.traj.states[:, 0] ** 2 + run_constant.traj.states[:, 2] ** 2
    v1 = rot.states[:, 0] ** 2 + rot.states[:, 2] ** 2
    assert np.max(np.abs(v1 - v0)) <= 1e-12


def test_shear_preserves_wronskian_changes_amplitude(run_constant):
    # (sin, cos) -> (sin, sin + cos): unit determinant, same Wronskian,
    # amplitude becomes sin^2 + (sin + cos)^2
    sheared = transform_pair(run_constant.traj, (1.0, 0.0, 1.0, 1.0))
    assert sheared.w == pytest.approx(run_constant.traj.w)
    y1 = run_constant.traj.states[:, 0]
    y2 = run_constant.traj.states[:, 2]
    v_expect = y1 ** 2 + (y1 + y2) ** 2
    v_got = sheared.states[:, 0] ** 2 + sheared.states[:, 2] ** 2
    assert np.max(np.abs(v_got - v_expect)) <= 1e-12
    assert np.max(np.abs(v_expect - (y1 ** 2 + y2 ** 2))) > 0.1


def test_scaling_scales_wronskian(run_constant):
    scaled = transform_pair(run_constant.traj, (2.0, 0.0, 0.0, 1.0))
    assert scaled.w == pytest.approx(2.0 * run_constant.traj.w)


def test_singular_matrix_rejected(run_constant):
    with pytest.raises(ParameterError):
        transform_pair(run_constant.traj, (1.0, 2.0, 2.0, 4.0))


def test_coefficient_matrix_realizes_form():
    c = CombinationCoefficients(2.0, 1.0, -1.0)
    a, b, cc, d = coefficient_matrix(c)
    assert a * a + cc * cc == pytest.approx(c.A)
    assert b * b + d * d == pytest.approx(c.B)
    assert a * b + cc * d == pytest.approx(c.C)
    assert a * d - b * cc == pytest.approx(1.0)


def test_decompose_principal_combination(run_constant):
    # k1 and k2 vanish at the distinguished combination
    k1, k2 = _oscillation_residual(run_constant.principal_phase,
                                   run_constant.report.window)
    assert abs(k1) <= 1e-8 and abs(k2) <= 1e-8


def test_oscillation_residual_of_other_combinations(run_constant):
    # vbar = 2 sin^2 + cos^2/2 and (sin + cos)^2 + cos^2 keep an O(1)
    # oscillating vbar'
    for A, B, C in ((2.0, 0.5, 0.0), (1.0, 2.0, 1.0)):
        coeffs = CombinationCoefficients(A, B, C)
        combo = transform_pair(run_constant.traj, coefficient_matrix(coeffs))
        k = _oscillation_residual(phase_unwrap(combo), run_constant.report.window)
        assert math.hypot(*k) > 0.5


@pytest.mark.parametrize("fixture", ["run_ce", "run_genairy", "run_inversex"])
def test_oscillation_residual_recovers_planted_amplitudes(request, fixture):
    # The finder zeroes this same estimate at the principal pair, so the
    # pair alone cannot show a broken estimator; the planted linear trend
    # is one the finder never saw, and the estimator must separate it from
    # the planted sin/cos(2 alpha) content.
    run = request.getfixturevalue(fixture)
    ph = run.principal_phase
    lo, hi = run.report.window
    trend = 0.1 * (ph.grid - 0.5 * (lo + hi)) / (hi - lo)
    k1, k2 = 3e-3, -2e-3
    planted = dataclasses.replace(
        ph, v_prime=ph.v_prime + trend + k1 * np.sin(2.0 * ph.alpha)
        + k2 * np.cos(2.0 * ph.alpha))
    got = _oscillation_residual(planted, run.report.window)
    assert abs(got[0] - k1) <= 1e-9 and abs(got[1] - k2) <= 1e-9


def test_find_principal_identity(run_constant):
    rep = run_constant.report
    assert rep.coeffs.A == pytest.approx(1.0, abs=1e-6)
    assert rep.coeffs.B == pytest.approx(1.0, abs=1e-6)
    assert rep.coeffs.C == pytest.approx(0.0, abs=1e-6)
    assert abs(rep.objective) <= 1e-12


def test_find_principal_diagonal_scramble(run_constant):
    r2 = math.sqrt(2.0)
    scr = transform_pair(run_constant.traj, (r2, 0.0, 0.0, 1.0 / r2))
    rep = find_principal(scr)
    assert rep.coeffs.A == pytest.approx(0.5, abs=1e-6)
    assert rep.coeffs.B == pytest.approx(2.0, abs=1e-6)
    assert rep.coeffs.C == pytest.approx(0.0, abs=1e-6)
    vbar = transform_pair(scr, rep.matrix)
    v = vbar.states[:, 0] ** 2 + vbar.states[:, 2] ** 2
    assert np.max(np.abs(v - 1.0)) <= 1e-8


def test_find_principal_shear_scramble(run_constant):
    # (sin, sin + cos): A sin^2 + B (sin+cos)^2 + 2C sin(sin+cos) = 1
    # forces (A, B, C) = (2, 1, -1)
    scr = transform_pair(run_constant.traj, (1.0, 0.0, 1.0, 1.0))
    rep = find_principal(scr)
    assert rep.coeffs.A == pytest.approx(2.0, abs=1e-6)
    assert rep.coeffs.B == pytest.approx(1.0, abs=1e-6)
    assert rep.coeffs.C == pytest.approx(-1.0, abs=1e-6)


def test_find_principal_matches_lattice_oracle(run_genairy):
    # coarse exhaustive search over the constraint chart must not beat
    # the refined optimum
    traj = run_genairy.traj
    rep = run_genairy.report
    wlo, whi = rep.window
    ph = phase_unwrap(traj)
    sel = (ph.grid >= wlo) & (ph.grid <= whi)
    y1, d1 = traj.states[sel, 0], traj.states[sel, 1]
    y2, d2 = traj.states[sel, 2], traj.states[sel, 3]

    def objective(p, m):
        A, B, C = p, (1 + m * m) / p, m
        vbp = 2 * A * y1 * d1 + 2 * B * y2 * d2 + 2 * C * (d1 * y2 + y1 * d2)
        return float(np.var(vbp))

    best = min(objective(2.0 ** k, m)
               for k in range(-4, 5) for m in np.arange(-2.0, 2.01, 0.25))
    found = objective(rep.coeffs.A, rep.coeffs.C)
    assert found <= best * (1.0 + 1e-9) + 1e-18


def _sheet_objective(w, cov):
    return np.einsum("i...,ij,j...->...", w, cov, w)


def test_sheet_minimizer_random_covariances():
    # the closed form must not be beaten by a dense (p, m) chart lattice
    # or by small moves along the sheet AB - C^2 = 1
    rng = np.random.default_rng(4207)
    P, Mc = np.meshgrid(np.exp(np.linspace(-5.0, 5.0, 201)),
                        np.linspace(-5.0, 5.0, 201))
    lattice = np.array([P, (1.0 + Mc * Mc) / P, Mc])
    for _ in range(200):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cov = (Q * np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3))) @ Q.T
        w = _sheet_minimizer(cov)
        A, B, C = w
        assert A > 0
        assert abs(A * B - C * C - 1.0) <= 1e-12
        f = _sheet_objective(w, cov)
        assert f <= _sheet_objective(lattice, cov).min() * (1.0 + 1e-12)
        p = A * np.exp(rng.uniform(-1e-3, 1e-3, 64))
        m = C + rng.uniform(-1e-3, 1e-3, 64)
        moved = np.array([p, (1.0 + m * m) / p, m])
        assert f <= _sheet_objective(moved, cov).min() * (1.0 + 1e-12)


def test_sheet_minimizer_rejects_nan_covariance():
    cov = np.eye(3)
    cov[1, 2] = cov[2, 1] = np.nan
    with pytest.raises(IllConditionedError):
        _sheet_minimizer(cov)


def test_sheet_minimizer_rejects_zero_covariance():
    # every vector is an eigenvector of the zero pencil; the ones numpy
    # returns have w^T J w <= 0, so none lies on the sheet
    with pytest.raises(IllConditionedError):
        _sheet_minimizer(np.zeros((3, 3)))


def test_classify_constant(run_constant):
    tag, L, K, _ = classify(run_constant.principal_phase)
    assert tag == "L-finite"
    assert L == pytest.approx(1.0, abs=1e-8)


def test_classify_gen_airy(run_genairy):
    tag, L, K, _ = classify(run_genairy.principal_phase)
    assert tag == "L-zero"
    assert abs(K) <= 1e-4


def test_classify_cauchy_euler(run_ce):
    tag, L, K, _ = classify(run_ce.principal_phase)
    assert tag == "L-infinite"
    s = run_ce.model.params["s"]
    assert K == pytest.approx(1.0 / s, abs=1e-4)


def test_classify_requires_phase(run_constant):
    with pytest.raises(ParameterError, match="lacks alpha"):
        classify(amplitude_series(run_constant.principal))


def test_classify_scrambled_constant_is_undetermined(run_constant):
    scr = transform_pair(run_constant.traj, (1.0, 0.0, 1.0, 1.0))
    tag, L, K, diag = classify(phase_unwrap(scr))
    assert tag == "undetermined"


def test_orthogonal_invariance(run_ce):
    # rotations of the distinguished pair keep the tag and the limit
    base_tag, _, base_K, _ = classify(run_ce.principal_phase)
    rng = np.random.default_rng(5)
    for ang in rng.uniform(0.0, math.pi, 3):
        c, s = math.cos(ang), math.sin(ang)
        rot = transform_pair(run_ce.principal, (c, s, -s, c))
        tag, _, K, _ = classify(phase_unwrap(rot))
        assert tag == base_tag
        assert K == pytest.approx(base_K, abs=1e-6)


def test_objective_invariance(run_constant):
    # the variance functional is basis-independent once coefficients are
    # pulled back through the transformation
    traj = run_constant.traj
    S = np.array([[1.3, 0.4], [0.5, (1 + 0.4 * 0.5) / 1.3]])
    S[1, 1] = (1.0 + S[0, 1] * S[1, 0]) / S[0, 0]  # det = 1
    scr = transform_pair(traj, (S[0, 0], S[0, 1], S[1, 0], S[1, 1]))

    def var_of(t, A, B, C):
        sel = t.mesh >= 37.5
        y1, d1 = t.states[sel, 0], t.states[sel, 1]
        y2, d2 = t.states[sel, 2], t.states[sel, 3]
        vbp = 2 * A * y1 * d1 + 2 * B * y2 * d2 + 2 * C * (d1 * y2 + y1 * d2)
        return float(np.var(vbp))

    Q2 = np.array([[1.7, -0.3], [-0.3, (1 + 0.09) / 1.7]])
    Q1 = S.T @ Q2 @ S
    j_direct = var_of(scr, Q2[0, 0], Q2[1, 1], Q2[0, 1])
    j_pulled = var_of(traj, Q1[0, 0], Q1[1, 1], Q1[0, 1])
    assert abs(j_direct - j_pulled) <= 1e-8 * max(1.0, j_direct)


def test_residual_separates_principal_member(run_genairy):
    # a scrambled pair classifies as decaying too, but only the
    # distinguished combination has a vanishing oscillation residual
    M = unimodular_scrambles(99, n=1)[0]
    scr = transform_pair(run_genairy.traj, M)
    ph_scr = phase_unwrap(scr)
    tag, _, _, _ = classify(ph_scr)
    assert tag in ("L-zero", "undetermined")
    k_scr = _oscillation_residual(ph_scr, run_genairy.report.window)
    assert math.hypot(*k_scr) > 1e-2
    rep = find_principal(scr)
    assert math.hypot(rep.k1_est, rep.k2_est) <= 1e-5


def test_scramble_recovery_matches_unscrambled(run_inversex):
    ph_ref = run_inversex.principal_phase
    wlo, whi = run_inversex.report.window
    tail = (ph_ref.grid >= wlo) & (ph_ref.grid <= whi)
    vref = ph_ref.v[tail]
    for M in unimodular_scrambles(7, n=3):
        scr = transform_pair(run_inversex.traj, M)
        rep = find_principal(scr)
        ph = phase_unwrap(transform_pair(scr, rep.matrix))
        assert np.max(np.abs(ph.v[tail] - vref) / vref) <= 1e-5


def test_find_principal_unwraps_only_its_input(run_inversex, monkeypatch):
    # the phase of every combination follows from the input's phase, so
    # the finder runs one quadrature and calls transform_pair never
    calls = {"phase_unwrap": 0, "transform_pair": 0}

    def counted(name):
        inner = getattr(principal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    scr = transform_pair(run_inversex.traj, unimodular_scrambles(7, n=1)[0])
    for name in calls:
        monkeypatch.setattr(principal, name, counted(name))
    rep = principal.find_principal(scr)
    assert calls == {"phase_unwrap": 1, "transform_pair": 0}
    assert rep.diagnostics["polish_steps"] == 2
    assert not rep.diagnostics["polish_fallback"]


def test_find_principal_builds_one_full_mesh_combination(run_inversex, monkeypatch):
    built = []
    combined = PairTrajectory._combined

    def counting(self, matrix, w):
        built.append(len(self.mesh))
        return combined(self, matrix, w)

    scr = transform_pair(run_inversex.traj, unimodular_scrambles(7, n=1)[0])
    monkeypatch.setattr(PairTrajectory, "_combined", counting)
    rep = find_principal(scr)
    assert built == [len(scr.mesh)]
    assert rep.diagnostics["full_mesh_combinations"] == len(built)
    assert rep.diagnostics["polish_steps"] == 2


@pytest.mark.parametrize("fixture", ["run_constant", "run_genairy", "run_inversex",
                                     "run_ce"])
def test_find_principal_is_gauge_invariant(request, fixture):
    # 20 random unit-determinant scrambles R(a) diag(s, +-1/s) R(b) of a
    # catalog principal pair, stretch s up to 2: each recovers the pair's
    # amplitude within the C1 bound, with the same classification
    run = request.getfixturevalue(fixture)
    ref = run.principal_phase
    wlo, whi = run.report.window
    tail = (ref.grid >= wlo) & (ref.grid <= whi)
    rng = np.random.default_rng(1105)
    for _ in range(20):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        stretch = math.exp(rng.uniform(0.0, math.log(2.0)))
        sign = rng.choice([-1.0, 1.0])
        ra = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        rb = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
        M = ra @ np.diag([stretch, sign / stretch]) @ rb
        rep = find_principal(transform_pair(run.principal, tuple(M.ravel())))
        assert rep.classification == run.report.classification
        assert np.max(np.abs(rep.phase.v[tail] - ref.v[tail]) / ref.v[tail]) <= 1e-5


def test_fit_matches_least_squares():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 10))
    Y = rng.standard_normal((200, 3))
    assert np.allclose(_fit(X, Y), np.linalg.lstsq(X, Y, rcond=None)[0],
                       rtol=0.0, atol=1e-13)
    # a zero column makes the Gram matrix singular: the minimum-norm
    # least-squares solution
    X[:, 4] = 0.0
    assert np.allclose(_fit(X, Y), np.linalg.lstsq(X, Y, rcond=None)[0],
                       rtol=0.0, atol=1e-13)


def test_find_principal_deterministic(run_ce):
    r1 = find_principal(run_ce.traj)
    r2 = find_principal(run_ce.traj)
    assert (r1.coeffs.A, r1.coeffs.B, r1.coeffs.C) == \
        (r2.coeffs.A, r2.coeffs.B, r2.coeffs.C)


def test_sufficient_conditions_gen_airy():
    model = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
    rep = sufficient_conditions(model, (1.0, 200.0))
    assert rep.corollary1.status == "holds"
    assert rep.q_trend == "divergent"


def test_sufficient_conditions_cauchy_euler():
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    rep = sufficient_conditions(model, (1.0, 500.0))
    assert rep.corollary2.status == "fails"
    assert rep.corollary2.n_fail == rep.corollary2.n_checked
    # q' <= 0 holds; the curvature inequality is what fails:
    # q q'' - 3 q'^2 = -6 gamma^4 / x^6 < 0
    x = 2.0
    q, qp, qpp = model.evaluate(x)
    assert q * qpp - 3 * qp * qp == pytest.approx(-6.0 / x ** 6)


def test_sufficient_conditions_constant():
    model = catalog_get("constant", {"c": 1.0})
    rep = sufficient_conditions(model, (0.0, 50.0))
    assert rep.corollary2.status == "holds"
    assert rep.remark_finite_q.status == "holds"
    assert rep.q_trend == "finite-positive"


import dataclasses
import math

import numpy as np
import pytest

from oscpairs import principal
from oscpairs.errors import EvaluationError, IllConditionedError, ParameterError
from oscpairs.integrate import PairTrajectory, _hermite_rule, _rate
from oscpairs.phasekit import phase_unwrap
from oscpairs.principal import (CombinationCoefficients, classify,
                                coefficient_matrix, find_principal,
                                sufficient_conditions, transform_pair, _fit,
                                _residual_amplitudes, _sheet_minimizer, _window_samples)
from oscpairs.qfunc import catalog_get, parse_q
from oscpairs.verify import catalog_run, unimodular_scrambles


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
    x, alpha, _, vp = _window_samples(run_constant.principal_phase,
                                      run_constant.report.window)
    k1, k2 = _residual_amplitudes(x, alpha, vp)
    assert abs(k1) <= 1e-8 and abs(k2) <= 1e-8


def test_oscillation_residual_of_other_combinations(run_constant):
    # vbar = 2 sin^2 + cos^2/2 and (sin + cos)^2 + cos^2 keep an O(1)
    # oscillating vbar'
    for A, B, C in ((2.0, 0.5, 0.0), (1.0, 2.0, 1.0)):
        coeffs = CombinationCoefficients(A, B, C)
        combo = transform_pair(run_constant.traj, coefficient_matrix(coeffs))
        x, alpha, _, vp = _window_samples(phase_unwrap(combo), run_constant.report.window)
        k = _residual_amplitudes(x, alpha, vp)
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
    x, alpha, _, vp = _window_samples(planted, run.report.window)
    got = _residual_amplitudes(x, alpha, vp)
    assert abs(got[0] - k1) <= 1e-9 and abs(got[1] - k2) <= 1e-9


def test_find_principal_identity(run_constant):
    rep = run_constant.report
    assert rep.coeffs.A == pytest.approx(1.0, abs=1e-6)
    assert rep.coeffs.B == pytest.approx(1.0, abs=1e-6)
    assert rep.coeffs.C == pytest.approx(0.0, abs=1e-6)
    assert abs(rep.objective) <= 1e-12


def test_phase_grid_is_the_trajectory_mesh(run_genairy):
    # a PhaseData keeps no mesh of its own: its grid is the mesh of the
    # trajectory it is the phase of, which the principal pair shares
    traj, rep = run_genairy.traj, run_genairy.report
    assert phase_unwrap(traj).grid is traj.mesh
    assert rep.pair.mesh is traj.mesh
    assert rep.phase.grid is rep.pair.mesh


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


def test_classify_scrambled_constant_is_undetermined(run_constant):
    scr = transform_pair(run_constant.traj, (1.0, 0.0, 1.0, 1.0))
    tag, L, K, diag = classify(phase_unwrap(scr))
    assert tag == "undetermined"


def _polynomial_table(mesh, coefs):
    """(4, m, N) node data (f, f', f'', f''') on mesh of the degree-7
    polynomials with the coefficients coefs on its span, and those
    polynomials."""
    polys = [np.polynomial.Polynomial(c, domain=[mesh[0], mesh[-1]]) for c in coefs]
    return np.array([[p.deriv(k)(mesh) for p in polys] for k in range(4)]), polys


def test_interpolants_are_exact_for_degree_7_data(run_genairy):
    # the read the classifier takes v and the phase through gives a
    # degree-7 polynomial's value, slope and integral from the left node,
    # the last by 4-point Gauss-Legendre on the value interpolant
    traj = run_genairy.principal
    rng = np.random.default_rng(16)
    table, polys = _polynomial_table(traj.mesh, rng.uniform(-1.0, 1.0, (2, 8)))
    xs = np.sort(rng.uniform(traj.x0, traj.xmax, 300))
    idx, value, slope, part = principal._read_with_integrals(traj, table, xs, [])
    h = traj.mesh[idx + 1] - traj.mesh[idx]
    # the integral from the Taylor series of the polynomial at the left node
    left = traj.mesh[idx]
    cut = xs - left
    for p, got in zip(polys, zip(value, slope, part)):
        integral = sum(p.deriv(k)(left) * cut ** (k + 1) / math.factorial(k + 1)
                       for k in range(8))
        want = (p(xs), p.deriv()(xs), integral)
        # to the rounding of the node data: f, f/h (of f_left - f_right)
        # and h f
        size = np.max(np.abs(want[0]))
        for g, w, scale in zip(got, want, (size, size / h, size * h)):
            assert np.all(np.abs(g - w) <= 1e-14 * scale)


def test_interpolant_over_a_whole_interval_is_the_hermite_rule(run_genairy):
    # on the classifier's node data of v and the phase, the integral over
    # an interval (a trajectory of that interval alone, read at its end)
    # is the Hermite rule of integrate
    traj, phase = run_genairy.principal, run_genairy.principal_phase
    data = principal._interpolants(phase)
    for i in np.random.default_rng(16).integers(0, len(traj.mesh) - 1, 40):
        part = slice(i, i + 2)
        one = PairTrajectory(traj.model, traj.mesh[part], traj.states[part], traj.w,
                             traj.rtol, traj.atol)
        got = principal._read_with_integrals(one, data[:, :, part], traj.mesh[i + 1:i + 2],
                                             [])[3]
        rule = _hermite_rule(traj.mesh[i + 1] - traj.mesh[i], data[:, :, i],
                             data[:, :, i + 1])
        assert np.all(np.abs(got[:, 0] - rule) <= 1e-15 * np.abs(rule))


def test_interpolants_hit_the_nodes_and_ignore_their_batch(run_genairy):
    # at a node the value is the node data's and the integral from it 0,
    # the slope h f' / h; a point alone gives the bits it gets in a batch
    traj, phase = run_genairy.principal, run_genairy.principal_phase
    data = principal._interpolants(phase)
    rng = np.random.default_rng(16)
    nodes = rng.integers(0, len(traj.mesh), 50)
    idx, value, slope, part = principal._read_with_integrals(traj, data, traj.mesh[nodes], [])
    assert np.array_equal(idx, nodes) and np.all(part == 0.0)
    assert np.array_equal(value, data[0][:, nodes])
    assert np.all(np.abs(slope - data[1][:, nodes]) <= 2.0 * np.abs(np.spacing(data[1][:, nodes])))
    xs = np.concatenate([traj.mesh[nodes], rng.uniform(traj.x0, traj.xmax, 50)])
    extra = rng.uniform(traj.x0, traj.xmax, 30)
    batch = principal._read_with_integrals(traj, data, xs, extra)
    for k in rng.integers(0, xs.size, 20):
        alone = principal._read_with_integrals(traj, data, xs[k:k + 1], [])
        assert all(np.array_equal(a, b[..., k:k + 1]) for a, b in zip(alone, batch))


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
    M = unimodular_scrambles(99)[0]
    scr = transform_pair(run_genairy.traj, M)
    ph_scr = phase_unwrap(scr)
    tag, _, _, _ = classify(ph_scr)
    assert tag in ("L-zero", "undetermined")
    x, alpha, _, vp = _window_samples(ph_scr, run_genairy.report.window)
    k_scr = _residual_amplitudes(x, alpha, vp)
    assert math.hypot(*k_scr) > 1e-2
    rep = find_principal(scr)
    assert math.hypot(rep.k1_est, rep.k2_est) <= 1e-5


def test_scramble_recovery_matches_unscrambled(run_inversex):
    ph_ref = run_inversex.principal_phase
    wlo, whi = run_inversex.report.window
    tail = (ph_ref.grid >= wlo) & (ph_ref.grid <= whi)
    vref = ph_ref.v[tail]
    for M in unimodular_scrambles(7)[:3]:
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

    scr = transform_pair(run_inversex.traj, unimodular_scrambles(7)[0])
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

    scr = transform_pair(run_inversex.traj, unimodular_scrambles(7)[0])
    monkeypatch.setattr(PairTrajectory, "_combined", counting)
    rep = find_principal(scr)
    assert built == [len(scr.mesh)]
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
    q, qp, qpp = model.q(x), model.q_prime(x), model.q_second(x)
    assert q * qpp - 3 * qp * qp == pytest.approx(-6.0 / x ** 6)


def test_sufficient_conditions_constant():
    model = catalog_get("constant", {"c": 1.0})
    rep = sufficient_conditions(model, (0.0, 50.0))
    assert rep.corollary2.status == "holds"
    assert rep.remark_finite_q.status == "holds"
    assert rep.q_trend == "finite-positive"


def test_sufficient_conditions_count_each_failing_point_once():
    # on 1/x both q' < 0 and q'' > 0 fail at every grid point: 64 of 64
    rep = sufficient_conditions(catalog_get("inverse-x"), (1.0, 400.0))
    for res in (rep.corollary1, rep.remark_finite_q):
        assert (res.status, res.n_fail, res.n_checked) == ("fails", 64, 64)
    # q = 3 - cos x: q'' = cos x > 0 fails on [1, pi/2) and (3 pi/2, 7],
    # q' = sin x < 0 on (pi, 2 pi); the stretches overlap on (3 pi/2, 2 pi)
    xs = principal.predicate_grid((1.0, 7.0))
    qp_fails, qpp_fails = np.sin(xs) < 0.0, np.cos(xs) > 0.0
    assert (qp_fails & qpp_fails).any() and (qp_fails & ~qpp_fails).any()
    rep = sufficient_conditions(parse_q("3 - cos(x)"), (1.0, 7.0))
    for res in (rep.corollary1, rep.remark_finite_q):
        assert res.status == "fails"
        assert res.n_fail == np.count_nonzero(qp_fails | qpp_fails)
        assert res.first_fail_x == xs[0]  # where q'' fails, before q' does


def test_sufficient_conditions_refuse_a_fault_on_the_grid():
    # q is finite, but its slope (x - c)/|x - c| is undefined (nan) at the
    # grid point c: the predicates refuse it rather than test a nan sign
    c = float(principal.predicate_grid((1.0, 20.0))[20])
    with pytest.raises(EvaluationError, match=f"^q' is not finite at x = {c!r}$"):
        sufficient_conditions(parse_q("2 + abs(x - c)", {"c": c}), (1.0, 20.0))


def _subsampled(traj, step=0.5):
    """The pair on a subset of its own nodes, about `step` apart in the
    integrator's measure of a step, h max(sqrt(q), |q'|/q) (twice its cap
    at the default tolerance): a mesh of the same states, just coarser."""
    rate = _rate(traj.q_nodes, traj.qp_nodes)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(traj.mesh))])
    idx = np.unique(np.concatenate([np.searchsorted(cum, np.arange(0.0, cum[-1], step)),
                                    [len(cum) - 1]]))
    return PairTrajectory(traj.model, traj.mesh[idx], traj.states[idx], traj.w,
                          traj.rtol, traj.atol)


@pytest.mark.parametrize("case, tag", [
    ("constant", "L-finite"), ("gen-airy", "L-zero"), ("inverse-x", "L-infinite"),
    ("cauchy-euler", "L-infinite"), ("cauchy-euler-long", "L-infinite"),
    ("gen-airy-0.4", "L-zero")])
def test_principal_pair_does_not_depend_on_the_node_count(case, tag):
    # the finder and the classifier sample the dense output and exact
    # interpolants where a window holds few nodes, so the integrator's
    # mesh and one with a half to a third of its nodes give the same
    # pair and the same tag
    run = catalog_run(case)
    coarse = _subsampled(run.traj)
    assert len(coarse.mesh) < 0.7 * len(run.traj.mesh)
    want = np.array([run.report.coeffs.A, run.report.coeffs.B, run.report.coeffs.C])
    for traj in (run.traj, coarse):
        rep = find_principal(traj)
        assert rep.classification == classify(rep.phase)[0] == tag
        got = np.array([rep.coeffs.A, rep.coeffs.B, rep.coeffs.C])
        assert np.max(np.abs(got - want)) <= 1e-6

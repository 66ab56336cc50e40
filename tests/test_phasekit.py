import math
import tracemalloc

import numpy as np
import pytest

from oscpairs import phasekit
from oscpairs.errors import GridError, ParameterError
from oscpairs.integrate import (_GL_FRACTIONS, _GL_NODES, _GL_WEIGHTS, PairTrajectory,
                                _hermite_rule, _node_data, _panel_table, integrate_pair,
                                normalize_unit_wronskian)
from oscpairs.cli import RunConfig, _integrated_pair
from oscpairs.phasekit import (_MAX_SUB_PANELS, _PANEL_RTOL, _amplitude, _combined_alpha,
                               _combined_phase, _gauss_sums, _phase_increments,
                               _third_derivative_stencils, appell_residual, phase_unwrap)
from oscpairs.principal import find_principal, transform_pair
from oscpairs.qfunc import EquationModel, catalog_get
from oscpairs.verify import catalog_run, unimodular_scrambles


def test_wronskian_operation():
    x = 0.7
    states = [[math.sin(x), math.cos(x), math.cos(x), -math.sin(x)],
              [1.0, 2.0, 1.0, 2.0]]  # a dependent pair at the second node
    traj = PairTrajectory(catalog_get("constant", {"c": 1.0}), [x, 1.3], states,
                          -1.0, 1e-10, 1e-12)
    w = traj.wronskian_nodes()
    assert w[0] == pytest.approx(-1.0, abs=1e-15)
    assert w[1] == 0.0


def test_wronskian_constant_for_ce_closed_pair():
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = integrate_pair(model, (0.0, s), (1.0, 0.5), 50.0)
    xs = np.geomspace(1.0, 50.0, 10)
    # the dense output at xs, as the nodes of a trajectory of its own
    st = traj.evaluate(xs)
    states = np.column_stack([st["y1"], st["y1p"], st["y2"], st["y2p"]])
    sampled = PairTrajectory(model, xs, states, traj.w, traj.rtol, traj.atol)
    w = sampled.wronskian_nodes()
    assert np.max(np.abs(w + s)) <= 1e-10


def test_amplitude_constant_pair(run_constant):
    ph = phase_unwrap(run_constant.traj)
    assert np.max(np.abs(ph.v - 1.0)) <= 1e-10
    assert np.max(np.abs(ph.v_prime)) <= 1e-10
    assert np.max(np.abs(ph.v_second)) <= 1e-9


def test_amplitude_cauchy_euler_closed_form():
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = normalize_unit_wronskian(
        integrate_pair(model, (0.0, s), (1.0, 0.5), 200.0))
    ph = phase_unwrap(traj)
    x = ph.grid
    assert np.max(np.abs(ph.v - x / s) / (x / s)) <= 1e-9
    assert np.max(np.abs(ph.v_prime - 1.0 / s)) <= 1e-9
    assert np.max(np.abs(ph.v_second)) <= 1e-9


def test_amplitude_derivative_against_finite_differences(run_genairy):
    traj = run_genairy.traj
    xs = np.linspace(5.0, 195.0, 32)
    h = 1e-5
    for x in xs:
        pts = np.array([x - h, x, x + h])
        st = traj.evaluate(pts)
        v, vp, _ = _amplitude(st["y1"], st["y1p"], st["y2"], st["y2p"],
                              traj.model.q_array(pts))
        fd = (v[2] - v[0]) / (2 * h)
        assert abs(fd - vp[1]) <= 1e-6 * (1.0 + abs(vp[1]))


def test_amplitude_rejects_non_unit_pair():
    model = catalog_get("constant", {"c": 1.0})
    traj = integrate_pair(model, (0.0, 2.0), (1.0, 0.0), 5.0)  # w = -2
    with pytest.raises(ParameterError):
        phase_unwrap(traj)
    with pytest.raises(ParameterError):
        find_principal(traj)


def test_phase_unwrap_forms_the_node_amplitude_once(monkeypatch, run_genairy):
    # one _amplitude call on the nodes gives the returned v, v', v'',
    # which match _amplitude of the node states bit for bit; the
    # quadrature reads the states, not the amplitude
    traj = run_genairy.principal
    sizes = []
    amplitude = phasekit._amplitude

    def counting(y1, d1, y2, d2, q):
        sizes.append(np.size(y1))
        return amplitude(y1, d1, y2, d2, q)

    monkeypatch.setattr(phasekit, "_amplitude", counting)
    ph = phase_unwrap(traj)
    assert ph.refined_intervals == 0 and sizes == [len(traj.mesh)]
    amp = amplitude(*traj.states.T, traj.q_nodes)
    for name, ref in zip(("v", "v_prime", "v_second"), amp):
        assert np.array_equal(getattr(ph, name), ref), name
    assert np.array_equal(ph.alpha_prime, 1.0 / amp[0])


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
    lower = np.sum(0.5 * (1.0 / ph.v[1:] + 1.0 / ph.v[:-1]) * np.diff(ph.grid))
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
    st = traj.evaluate(xs, nder=0)
    raw = np.arctan2(st["y1"], st["y2"])
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


def _third_derivative_weights(z):
    """Weights of the third derivative at 0 of the interpolant through
    offsets z (rows of 5), from the moment equations sum_i w_i z_i^k =
    6 [k = 3], solved."""
    V = z[:, None, :] ** np.arange(5)[None, :, None]
    rhs = np.zeros((len(z), 5, 1))
    rhs[:, 3, 0] = 6.0
    return np.linalg.solve(V, rhs)[:, :, 0]


def _five_point_stencil(traj, A, B, C, centers, hc):
    """Reference: the five-point third derivative at one spacing, with its
    own evaluation and its own weights, in the package's closed form."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pts = centers[:, None] + hc[:, None] * offs[None, :]
    z = (pts - centers[:, None]) / hc[:, None]
    gaps = z[:, :, None] - z[:, None, :] + np.eye(5)
    wts = -6.0 * (z.sum(axis=1)[:, None] - z) / gaps.prod(axis=2) / hc[:, None] ** 3
    # the closed form is the solution of the moment equations
    assert np.allclose(wts * hc[:, None] ** 3, _third_derivative_weights(z),
                       rtol=1e-12, atol=1e-12)
    pv = traj.evaluate(pts.ravel(), nder=0)
    py1, py2 = pv["y1"].reshape(pts.shape), pv["y2"].reshape(pts.shape)
    vv = A * py1 ** 2 + B * py2 ** 2 + 2.0 * C * py1 * py2
    return (vv * wts).sum(axis=1)


def test_shared_stencils_match_separate_ones(run_genairy, monkeypatch):
    # the h and h/2 stencils share their points at -h, 0 and +h: one
    # evaluation of the six others gives both, bit for bit
    traj = transform_pair(run_genairy.traj, (1.3, 0.4, -0.2, 0.92 / 1.3))
    A, B, C = 1.2, 0.9, 0.3
    centers = np.linspace(20.0, 190.0, 37)
    hc = np.linspace(0.01, 0.3, 37)
    want = (_five_point_stencil(traj, A, B, C, centers, hc),
            _five_point_stencil(traj, A, B, C, centers, 0.5 * hc))
    y = traj.evaluate(centers, nder=0)
    v_center = A * y["y1"] ** 2 + B * y["y2"] ** 2 + 2.0 * C * y["y1"] * y["y2"]

    points = []
    evaluate = PairTrajectory.evaluate

    def counting(self, xs, nder=1):
        points.append(np.size(xs))
        return evaluate(self, xs, nder)

    monkeypatch.setattr(PairTrajectory, "evaluate", counting)
    got = _third_derivative_stencils(traj, A, B, C, centers, hc, v_center)
    assert points == [6 * len(centers)]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_appell_grid_too_coarse(run_constant):
    with pytest.raises(GridError):
        appell_residual(run_constant.traj, (1.0, 1.0, 0.0),
                        np.array([1.0, 2.0, 3.0]))


def _unit_interval(traj, i):
    """Mesh interval i of traj as a trajectory of its own on [0, 1]: with
    x = x_i + h tau its dense output is traj's, its y' is h y', and its
    evaluate reads a fraction tau as given, to the last bit."""
    h = traj.mesh[i + 1] - traj.mesh[i]
    part = slice(i, i + 2)
    unit = object.__new__(PairTrajectory)
    unit._fill(traj.model, np.array([0.0, 1.0]), traj.states[part] * [1.0, h, 1.0, h],
               h * traj.w, traj.rtol, traj.atol, h * h * traj.q_nodes[part],
               h ** 3 * traj.qp_nodes[part], None, 0, 0)
    return unit


def _gauss_legendre_local(traj, i, n):
    """Reference: 6-point Gauss-Legendre of |w|/v on n equal sub-panels
    of mesh interval i, from the dense output at their points."""
    y = _unit_interval(traj, i).evaluate(
        ((np.arange(n)[:, None] + _GL_FRACTIONS) / n).ravel(), nder=1)
    speed = np.abs(y["y1"] * y["y2p"] - y["y1p"] * y["y2"]) / (y["y1"] ** 2 + y["y2"] ** 2)
    return float(np.sum(np.tile(_GL_WEIGHTS, n) * speed) * (0.5 / n))


def _moved(traj):
    """The size of the arctangent's phase increment over each mesh
    interval, wrapped into [0, pi]."""
    y1, y2 = traj.states[:, 0], traj.states[:, 2]
    raw = np.arctan2(y2, y1) if traj.w > 0 else np.arctan2(y1, y2)
    d = np.abs(np.diff(raw))
    return np.minimum(d, 2.0 * math.pi - d)


def test_hermite_rule_is_exact_to_degree_7():
    # the rule integrates the order-7 Hermite interpolant, so it is exact
    # for degree 7
    rng = np.random.default_rng(11)
    a, h = rng.uniform(-2.0, 2.0, 50), rng.uniform(0.1, 1.5, 50)
    for degree in (5, 6, 7):
        coef = rng.standard_normal(degree + 1)
        p = np.polynomial.Polynomial(coef)
        ends = [[p.deriv(k)(x) if k else p(x) for k in range(4)] for x in (a, a + h)]
        rule = _hermite_rule(h, *ends)
        exact = p.integ()(a + h) - p.integ()(a)
        assert np.all(np.abs(rule - exact) <= 1e-13 * (1.0 + np.abs(exact)))


def _loop_increments(traj):
    """Scalar reference for _phase_increments: Gauss-Legendre on one panel
    per mesh interval, then, per interval whose result is off the
    arctangent's increment, on 2, 4, ... sub-panels until it matches
    that increment or stops changing.  Returns the increments and the
    number of intervals split."""
    turn = _moved(traj)
    one = np.array([_gauss_legendre_local(traj, i, 1) for i in range(turn.size)])
    inc, split = one.copy(), 0
    for idx in range(turn.size):
        slack = _PANEL_RTOL * turn[idx]
        if abs(one[idx] - turn[idx]) <= slack:
            continue
        split += 1
        n = 2
        while True:
            before, inc[idx] = inc[idx], _gauss_legendre_local(traj, idx, n)
            if (abs(inc[idx] - turn[idx]) <= slack or abs(inc[idx] - before) <= slack
                    or n == _MAX_SUB_PANELS):
                break
            n *= 2
    return inc, split


def _coarse_traj(name, params, xmax):
    model = catalog_get(name, params)
    return normalize_unit_wronskian(
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), xmax, rtol=1e-3))


def _assert_matches_loop(traj):
    ref, split = _loop_increments(traj)
    inc, refined = _phase_increments(traj, _moved(traj))
    assert refined == split
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
    if name == "constant":  # sin and cos, whose v = 1 needs no refinement
        traj = transform_pair(traj, (1.3, 0.4, -0.2, 0.92 / 1.3))
    refined = _assert_matches_loop(traj)
    assert refined > 0 and phase_unwrap(traj).refined_intervals == refined


def test_batched_refinement_matches_loop_scrambled(run_inversex):
    # at the default tolerance one panel meets it on every interval of
    # these scrambles; at rtol 1e-3 most of their intervals are split
    coarse = _coarse_traj("inverse-x", {}, 400.0)
    for m in unimodular_scrambles(7)[:3]:
        assert _assert_matches_loop(transform_pair(run_inversex.traj, m)) == 0
        assert _assert_matches_loop(transform_pair(coarse, m)) > 0


def test_smooth_pairs_need_no_refinement(run_constant, run_genairy):
    # sin and cos (v = 1) and the gen-airy principal pair, whose v decays
    # smoothly: one Gauss-Legendre panel meets the tolerance on every
    # interval
    for traj in (run_constant.traj, run_genairy.principal):
        one = _gauss_sums(traj, np.arange(len(traj.mesh) - 1), 1)
        inc, refined = _phase_increments(traj, _moved(traj))
        assert refined == 0
        assert np.array_equal(inc, one)
        assert phase_unwrap(traj).refined_intervals == 0


def test_phase_unwrap_temporaries_are_bounded_by_the_states():
    # sin and cos on 200 001 nodes, 0.1 rad apart: the Gauss-Legendre
    # passes run in blocks, so what phase_unwrap allocates, its result
    # included, and what a doubling pass over every interval allocates
    # stay within a few copies of the states however long the mesh; and
    # a block sums each interval as any other batch would, bit for bit
    x = 0.1 * np.arange(200_001)
    s, c = np.sin(x), np.cos(x)
    traj = PairTrajectory(catalog_get("constant", {"c": 1.0}), x,
                          np.column_stack([s, c, c, -s]), -1.0, 1e-10, 1e-12)
    traj._node_table()
    every = np.arange(len(x) - 1)
    for run in (lambda: phase_unwrap(traj), lambda: _gauss_sums(traj, every, 2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * traj.states.nbytes
    inc, refined = _phase_increments(traj, _moved(traj))
    assert refined == 0
    assert np.array_equal(_gauss_sums(traj, every[::7], 1), inc[::7])
    assert np.array_equal(_gauss_sums(traj, every[::7], 2), _gauss_sums(traj, every, 2)[::7])


def test_refinement_reads_no_dense_output_and_no_q(monkeypatch, run_inversex):
    # the Gauss-Legendre panels read the node table at fixed fractions: a
    # scrambled pair, its coarse twin, whose intervals are nearly all
    # split, and a principal pair cost no PairTrajectory.evaluate and no
    # evaluation of q or q'
    m = unimodular_scrambles(7)[0]
    scrambled = transform_pair(run_inversex.traj, m)
    coarse = transform_pair(_coarse_traj("inverse-x", {}, 400.0), m)
    calls = []

    def counting(name):
        method = getattr(EquationModel, name)

        def call(self, xs):
            calls.append(name)
            return method(self, xs)
        return call

    evaluate = PairTrajectory.evaluate

    def counting_evaluate(self, xs, nder=1):
        calls.append("evaluate")
        return evaluate(self, xs, nder)

    monkeypatch.setattr(PairTrajectory, "evaluate", counting_evaluate)
    for name in ("q_array", "q_prime_array"):
        monkeypatch.setattr(EquationModel, name, counting(name))
    for pair in (scrambled, run_inversex.principal):
        phase_unwrap(pair)
    ph = phase_unwrap(coarse)
    assert ph.refined_intervals > 0.9 * (len(coarse.mesh) - 1)
    assert calls == []


def test_intervals_off_the_arctangent_are_split_until_they_match_it():
    # past the flat minimum of q = (x - 10)^4 + 1e-10 the default pair is
    # stretched so far that its phase moves up to 2.9 rad in a step and
    # 1/v spikes between two nodes: one Gauss-Legendre panel on such an
    # interval still misses the arctangent's increment by more than
    # 1e-4 rad, and it is split twice as finely until it matches
    _, traj = _integrated_pair(RunConfig(equation="(x - 10)^4 + 0.0000000001",
                                         x0=1.0, xmax=20.0))
    moved = _moved(traj)
    once = _gauss_sums(traj, np.arange(moved.size), 1)
    assert np.max(np.abs(once - moved)) > 1e-4
    inc, refined = _phase_increments(traj, moved)
    assert np.all(np.abs(inc - moved) <= _PANEL_RTOL * moved)
    assert phase_unwrap(traj).alpha_mismatch_max <= 1e-4
    # the loop reference on the stretch around the worst interval
    worst = int(np.argmax(np.abs(once - moved)))
    part = slice(max(worst - 40, 0), worst + 40)
    assert _assert_matches_loop(PairTrajectory(traj.model, traj.mesh[part], traj.states[part],
                                               traj.w, traj.rtol, traj.atol)) > 0


def test_doubling_stops_once_the_quadrature_settles(run_genairy):
    # every 16th node of the gen-airy pair: some intervals move more than
    # pi, so the arctangent's increment, wrapped, is not the phase they
    # move, however finely they are split; the quadrature settles on that
    # phase and their doubling stops there; the batched refinement and
    # the loop agree
    traj = run_genairy.traj
    thin = PairTrajectory(traj.model, traj.mesh[::16], traj.states[::16], traj.w,
                          traj.rtol, traj.atol)
    moved = _moved(thin)
    inc, _ = _phase_increments(thin, moved)
    off = np.flatnonzero(np.abs(inc - moved) > _PANEL_RTOL * moved)
    assert off.size > 0 and np.all(inc[off] > math.pi)
    part = slice(max(off[0] - 20, 0), off[0] + 20)
    assert _assert_matches_loop(PairTrajectory(thin.model, thin.mesh[part], thin.states[part],
                                               thin.w, thin.rtol, thin.atol)) > 0


def test_gauss_legendre_constants_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(6)
    assert np.all(np.abs(_GL_NODES - nodes) <= 4e-16)
    assert np.all(np.abs(_GL_WEIGHTS - weights) <= 4e-16)
    assert np.array_equal(_GL_FRACTIONS, 0.5 * (1.0 + _GL_NODES))


@pytest.mark.parametrize("n", [1, 4])
def test_panel_table_reproduces_the_dense_output(run_ce, n):
    # on every mesh interval, y and h y' of both solutions read off the
    # node data by the table at the fractions of n sub-panels are the
    # dense output's there (evaluated on the interval mapped to [0, 1], so
    # that both read the same fractions)
    traj = transform_pair(run_ce.traj, (1.3, 0.4, -0.2, 0.92 / 1.3))
    tau = ((np.arange(n)[:, None] + _GL_FRACTIONS) / n).ravel()
    table = _panel_table(n)
    cells = len(traj.mesh) - 1
    got = (table @ _node_data(traj, np.arange(cells)).reshape(9, -1)).reshape(2, -1, 2, cells)
    for i in range(cells):
        y = _unit_interval(traj, i).evaluate(tau, nder=1)
        want = np.array([[y["y1"], y["y2"]], [y["y1p"], y["y2p"]]]).transpose(0, 2, 1)
        scale = np.abs(want[0]) + np.abs(want[1])
        assert np.all(np.abs(got[..., i] - want) <= 1e-14 * scale)


@pytest.mark.parametrize("rtol", [1e-3, 1e-4])
def test_principal_pair_of_a_coarse_run_passes_the_arctangent_check(rtol):
    # gen-airy nu = 1/3 to 200 at a coarse rtol: one panel resolves the
    # principal pair's smooth intervals, but each one may sit a little
    # off the arctangent's increment; over 2 800 rad of phase those
    # offsets must stay below the check
    model = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
    traj = normalize_unit_wronskian(
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 200.0, rtol=rtol))
    for pair in (traj, find_principal(traj).pair):
        ph = phase_unwrap(pair)
        assert ph.alpha[-1] - ph.alpha[0] > 2500.0
        assert ph.alpha_mismatch_max <= 1e-8


def test_phase_of_a_pair_the_unrefined_rule_puts_on_the_wrong_branch():
    # the principal pair of gen-airy nu = 0.4 to 200, scrambled by a
    # unit-determinant matrix of singular value 6.66: v swings by a factor
    # of about 44, so the order-7 Hermite rule of |w|/v, from node data
    # alone, is off by whole turns on some intervals while its truncation
    # estimate (its difference from the corrected trapezoid, exact to
    # degree 5) stays below pi/2.  Taking each interval's branch from that
    # rule, as a phase snapped to the node arctangent would, then misses
    # by 2 pi k.  The Moebius map of the principal phase is the oracle.
    run = catalog_run("gen-airy-0.4")
    M = (0.8754588744764108, 5.021210482394638, -0.9283408301506615, -4.182257801404123)
    pair = transform_pair(run.principal, M)
    z1, d1, z2, d2 = pair.states.T
    want = _combined_alpha(z1, z2, run.principal_phase.alpha, run.principal_phase.swapped)
    assert np.max(np.abs(phase_unwrap(pair).alpha - want)) <= 1e-8

    i = int(np.searchsorted(pair.mesh, 186.19)) - 1  # [186.1639, 186.2123]
    # |w|/v and its first three derivatives at the nodes, in quotient form
    q, qp = pair.q_nodes, pair.qp_nodes
    w = np.abs(z1 * d2 - d1 * z2)
    v, vp, vpp = _amplitude(z1, d1, z2, d2, q)
    vppp = -4.0 * q * vp - 2.0 * qp * v
    nodes = (w / v, -w * vp / v ** 2, 2.0 * w * vp ** 2 / v ** 3 - w * vpp / v ** 2,
             -w * vppp / v ** 2 + 6.0 * w * vp * vpp / v ** 3 - 6.0 * w * vp ** 3 / v ** 4)
    h = pair.mesh[i + 1] - pair.mesh[i]
    left, right = [[f[j] for f in nodes] for j in (i, i + 1)]
    inc = _hermite_rule(h, left, right)
    (fa, f1a, _, f3a), (fb, f1b, _, f3b) = left, right
    corrected = 0.5 * h * (fa + fb) + h * h * ((f1a - f1b) / 12.0 - h * h * (f3a - f3b) / 720.0)
    est = abs(inc - corrected)
    true = want[i + 1] - want[i]
    wrapped = true % (2.0 * math.pi)  # the arctangent's increment
    branch = wrapped + 2.0 * math.pi * round((inc - wrapped) / (2.0 * math.pi))
    assert abs(inc - true) > 3.0 * math.pi and est < math.pi / 2
    assert abs(branch - true) > 3.0 * math.pi

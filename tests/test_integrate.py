import math
import re

import numpy as np
import pytest

from oscpairs.errors import IntegrationError, ParameterError
from oscpairs.integrate import (PairTrajectory, integrate_pair,
                                normalize_unit_wronskian, sample)
from oscpairs.principal import transform_pair
from oscpairs.qfunc import EquationModel, catalog_get, parse_q


def test_constant_q_closed_form(run_constant):
    st = sample(run_constant.traj, math.pi / 2.0)
    assert abs(st[0] - 1.0) <= 1e-9   # y1 = sin
    assert abs(st[2]) <= 1e-9         # y2 = cos
    st = sample(run_constant.traj, 1.0)
    assert np.allclose(st, [math.sin(1), math.cos(1), math.cos(1), -math.sin(1)],
                       atol=1e-9)


def test_cauchy_euler_closed_form_oracle():
    # seed the pair from y = sqrt(x) sin(s log x), sqrt(x) cos(s log x)
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = integrate_pair(model, (0.0, s), (1.0, 0.5), math.exp(math.pi / (2 * s)) * 1.05)
    x = math.exp(math.pi / (2 * s))
    st = sample(traj, x)
    exact = math.sqrt(x) * math.sin(s * math.log(x))
    assert abs(st[0] - exact) / abs(exact) <= 1e-7


@pytest.mark.parametrize("ic1,ic2", [((0.0, 1.0), (1.0, 0.0)),
                                     ((0.3, 1.2), (0.9, -0.4))])
def test_gen_airy_wronskian_drift(ic1, ic2):
    model = catalog_get("gen-airy", {"nu": 1.0 / 3.0})
    traj = integrate_pair(model, ic1, ic2, 200.0)
    w = traj.wronskian_nodes()
    assert np.max(np.abs(w - w[0])) <= 1e-8


def test_sample_at_node_bit_for_bit(run_constant):
    traj = run_constant.traj
    for i in (0, len(traj.mesh) // 3, len(traj.mesh) - 1):
        assert np.array_equal(sample(traj, traj.mesh[i]), traj.states[i])


def test_interpolant_midpoint_residual(run_genairy):
    traj = run_genairy.traj
    mid = 0.5 * (traj.mesh[:-1] + traj.mesh[1:])
    vals = traj.evaluate(mid, nder=2)
    q = traj.model.q_array(mid)
    res = np.abs(vals["y1pp"] + q * vals["y1"])
    scale = np.maximum(np.abs(vals["y1"]), np.abs(vals["y1p"]))
    assert np.all(res <= 10.0 * traj.rtol * scale)


def test_interpolated_derivative_is_smooth_at_roundoff_level(run_constant):
    # steps of 1e-9 resolve y' to about 1e-6 only if its roundoff stays
    # near 1e-15: basis roundoff times y/h would give about 5e-12
    traj = run_constant.traj
    xs = np.linspace(0.5, 49.5, 997)
    lo, hi = traj.evaluate(xs, nder=2), traj.evaluate(xs + 1e-9, nder=1)
    slope = (hi["y1p"] - lo["y1p"]) / ((xs + 1e-9) - xs)
    assert np.max(np.abs(slope - lo["y1pp"])) <= 1e-4


def test_wronskian_constant_on_refined_mesh(run_genairy):
    traj = run_genairy.traj
    xs = np.linspace(traj.x0, traj.xmax, 7777)
    st = sample(traj, xs)
    w = st[:, 0] * st[:, 3] - st[:, 1] * st[:, 2]
    assert np.max(np.abs(w - traj.w)) <= 100.0 * traj.rtol * (1.0 + abs(traj.w))


def test_halving_rtol_halves_error():
    model = catalog_get("constant", {"c": 1.0})
    xs = np.linspace(0.0, 8 * math.pi, 777)
    errs = []
    for rtol in (1e-7, 5e-8, 2.5e-8):
        traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 8 * math.pi,
                              rtol=rtol, atol=1e-14)
        errs.append(np.max(np.abs(sample(traj, xs)[:, 0] - np.sin(xs))))
    assert errs[0] / errs[1] >= 2.0
    assert errs[1] / errs[2] >= 2.0


def test_time_reversal():
    # u(x) = y(a + b - x) solves the same constant-q equation
    model = catalog_get("constant", {"c": 1.0}, x0=1.0)
    fwd = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 10.0)
    end = fwd.states[-1]
    back = integrate_pair(model, (end[0], -end[1]), (end[2], -end[3]), 10.0)
    recovered = back.states[-1]
    expect = np.array([0.0, -1.0, 1.0, 0.0])
    assert np.max(np.abs(recovered - expect)) <= 100.0 * fwd.rtol


def test_normalize_unit_wronskian():
    model = catalog_get("constant", {"c": 1.0})
    unit = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 5.0)
    assert normalize_unit_wronskian(unit) is unit  # already |w| = 1

    doubled = integrate_pair(model, (0.0, 2.0), (1.0, 0.0), 5.0)  # w = -2
    assert doubled.w == pytest.approx(-2.0)
    norm = normalize_unit_wronskian(doubled)
    assert norm.w == pytest.approx(-1.0)
    st = sample(norm, 1.0)
    assert st[0] == pytest.approx(math.sqrt(2.0) * math.sin(1.0), abs=1e-9)
    assert st[2] == pytest.approx(math.cos(1.0) / math.sqrt(2.0), abs=1e-9)


def test_normalize_cauchy_euler_closed_pair():
    # pair sqrt(x) sin(s log x), sqrt(x) cos(s log x) has w = -s;
    # normalization rescales the amplitude to x/s
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = integrate_pair(model, (0.0, s), (1.0, 0.5), 100.0)
    assert traj.w == pytest.approx(-s, abs=1e-14)
    norm = normalize_unit_wronskian(traj)
    xs = np.geomspace(1.0, 100.0, 21)
    st = sample(norm, xs)
    v = st[:, 0] ** 2 + st[:, 2] ** 2
    assert np.max(np.abs(v - xs / s) / (xs / s)) <= 1e-9


def test_transform_scaling_doubles_wronskian(run_constant):
    from oscpairs.principal import transform_pair
    doubled = transform_pair(run_constant.traj, (2.0, 0.0, 0.0, 1.0))
    assert doubled.w == pytest.approx(2.0 * run_constant.traj.w)


def test_error_conditions():
    model = catalog_get("constant", {"c": 1.0})
    with pytest.raises(ParameterError):
        integrate_pair(model, (1.0, 1.0), (2.0, 2.0), 5.0)  # dependent ICs
    with pytest.raises(IntegrationError):
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), -1.0)  # xmax <= x0
    with pytest.raises(ParameterError):
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 5.0, rtol=1e-2)
    traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 5.0)
    with pytest.raises(ParameterError):
        sample(traj, 6.0)  # outside span


def _counting(model, counts):
    """The model with every scalar call counted and every array call of
    q and q' recorded as (points, values)."""
    def scalar(f):
        def g(x):
            counts["scalar"] += 1
            return f(x)
        return g

    def array(f, key):
        def g(xs):
            out = f(xs)
            counts[key].append((np.array(xs), out))
            return out
        return g

    return EquationModel(model.source, model.x0, model.params,
                         q=scalar(model.q), qp=scalar(model.q_prime),
                         qpp=scalar(model.q_second), q_arr=array(model.q_array, "q"),
                         qp_arr=array(model.q_prime_array, "qp"),
                         qpp_arr=array(model.q_second_array, "qpp"))


def test_restated_pairs_reuse_node_values_of_q():
    counts = {"scalar": 0, "q": [], "qp": [], "qpp": []}
    model = _counting(catalog_get("gen-airy", {"nu": 0.4}), counts)
    traj = integrate_pair(model, (0.0, 2.0), (1.0, 0.0), 20.0)
    assert counts["scalar"] == 0 and not counts["qpp"]
    assert traj.q_points == sum(xs.size for xs, _ in counts["q"])
    # q_nodes are the node values of the final pass; after them that pass
    # evaluates q only at the interior stage nodes, and q' once at the nodes
    last = max(k for k, (xs, _) in enumerate(counts["q"])
               if np.array_equal(xs, traj.mesh))
    assert np.array_equal(counts["q"][last][1], traj.q_nodes)
    after = counts["q"][last + 1:]
    assert sum(xs.size for xs, _ in after) == 4 * (len(traj.mesh) - 1)
    assert not any(np.isin(xs, traj.mesh).any() for xs, _ in after)
    assert [xs.size for xs, _ in counts["qp"]] == [len(traj.mesh)]

    for key in ("q", "qp"):
        counts[key].clear()
    norm = normalize_unit_wronskian(traj)
    moved = transform_pair(norm, (1.3, 0.4, -0.2, 0.92 / 1.3))
    assert counts == {"scalar": 0, "q": [], "qp": [], "qpp": []}
    for new in (norm, moved):
        assert new.mesh is traj.mesh
        assert new.q_nodes is traj.q_nodes and new.qp_nodes is traj.qp_nodes
        assert new.q_step_min is traj.q_step_min
        assert (new.passes, new.q_points) == (traj.passes, traj.q_points)
    # the same trajectory as one built through the public constructor
    rebuilt = PairTrajectory(model, traj.mesh, moved.states, moved.w,
                             traj.rtol, traj.atol)
    xs = np.linspace(traj.x0, traj.xmax, 301)
    for key, vals in moved.evaluate(xs, nder=2).items():
        assert np.array_equal(vals, rebuilt.evaluate(xs, nder=2)[key])


def _sequential_states(traj):
    """Oracle: one plain Dormand-Prince 5(4) step after another on the
    trajectory's own mesh, each stage from the state vectors."""
    a = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
    b = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
    c = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
    q = traj.model.q

    def rhs(x, u):
        qx = q(x)
        return np.array([u[1], -qx * u[0], u[3], -qx * u[2]])

    out = [traj.states[0]]
    for x, h in zip(traj.mesh[:-1], np.diff(traj.mesh)):
        u, ks = out[-1], []
        for aj, cj in zip(a, c):
            ks.append(rhs(x + cj * h, u + h * sum(w * k for w, k in zip(aj, ks))))
        out.append(u + h * sum(w * k for w, k in zip(b, ks)))
    return np.array(out)


@pytest.mark.parametrize("name, params, xmax", [
    ("constant", {"c": 1.0}, 20.0), ("gen-airy", {"nu": 0.4}, 20.0),
    ("cauchy-euler", {"gamma": 1.0}, 500.0)])
def test_transfer_products_match_sequential_steps(name, params, xmax):
    traj = integrate_pair(catalog_get(name, params), (0.3, 1.2), (0.9, -0.4), xmax)
    ref = _sequential_states(traj)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(np.abs(traj.states - ref) / scale) <= 1e-13


def test_integration_counters_repeat():
    model = catalog_get("inverse-x")
    runs = [integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 100.0) for _ in range(2)]
    assert runs[0].passes >= 2 and runs[0].q_points > 5 * len(runs[0].mesh)
    assert (runs[0].passes, runs[0].q_points) == (runs[1].passes, runs[1].q_points)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_node_budget_refuses_a_large_q_before_any_pass():
    # sqrt(exp(x)) gives a phase of ~1.4e11 rad on [1, 50]
    counts = {"scalar": 0, "q": [], "qp": [], "qpp": []}
    model = _counting(parse_q("exp(x)"), counts)
    with pytest.raises(IntegrationError) as err:
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 50.0)
    message = str(err.value)
    assert "q is too large" in message and "node budget" in message
    assert 5e11 < float(re.search(r"about (\S+) nodes", message).group(1)) < 2e12
    assert "singular" not in message
    assert 1.0 < err.value.x < 50.0
    assert len(counts["q"]) == 1  # the starting grid only
    with pytest.raises(IntegrationError, match="node budget of 100;"):
        integrate_pair(catalog_get("constant"), (0.0, 1.0), (1.0, 0.0), 50.0,
                       max_steps=100)


def test_stalled_integration_raises_near_the_pole():
    # near the regular singular point x = 5 the error estimates reach
    # their roundoff floor, where a smaller step cannot pass either
    model = parse_q("1/(x - 5)", x0=1.0)
    with pytest.raises(IntegrationError) as err:
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 20.0)
    assert "stalled" in str(err.value)
    assert 4.999 < err.value.x < 5.0


def test_overflowing_solutions_end_the_run():
    # with q = -1 the solutions grow like e^x / 2, past 1.8e308 near x = 710
    model = parse_q("-1")
    with pytest.raises(IntegrationError, match="overflow") as err:
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 800.0)
    assert 709.0 < err.value.x < 715.0
    traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 600.0)
    assert traj.states[-1, 0] == pytest.approx(math.sinh(599.0), rel=1e-6)


def test_stall_guard_lets_a_growing_step_through():
    # q = gamma^2/x^2 caps the step at 0.0015 x, so the steps grow by a
    # factor 5e7 over the span
    model = catalog_get("cauchy-euler", {"gamma": 100.0})
    traj = integrate_pair(model, (1.0, 0.0), (0.0, 1.0), 5e7)
    assert traj.mesh[-1] == 5e7


def _per_solution_evaluate(traj, xs, nder):
    """Oracle: the order-7 Hermite dense output evaluated one solution at
    a time, each with its own (N, 4) table of node data and its own basis
    tables in tau and 1 - tau."""
    scalar = np.isscalar(xs)
    xs, idx = traj._locate(np.atleast_1d(xs))
    q, qp = traj.q_nodes, traj.qp_nodes
    y1, d1, y2, d2 = traj.states.T
    tables = (np.column_stack([y1, d1, -q * y1, -qp * y1 - q * d1]),
              np.column_stack([y2, d2, -q * y2, -qp * y2 - q * d2]))

    def horner(coef, t):
        out = np.zeros((coef.shape[0], t.size))
        for j in range(coef.shape[1] - 1, -1, -1):
            out *= t
            out += coef[:, j:j + 1]
        return out

    basis = np.array([[1, 0, 0, 0, -35, 84, -70, 20],
                      [0, 1, 0, 0, -20, 45, -36, 10],
                      [0, 0, 0.5, 0, -5, 10, -7.5, 2],
                      [0, 0, 0, 1 / 6, -2 / 3, 1, -2 / 3, 1 / 6]])
    dbasis = basis[:, 1:] * np.arange(1, 8)
    cubic = np.array([[1.0, 0.0, -3.0, 2.0], [0.0, 1.0, -2.0, 1.0]])
    results = []
    for fdata in tables:
        x0 = traj.mesh[idx]
        h = traj.mesh[idx + 1] - x0
        tau = (xs - x0) / h
        sig = 1.0 - tau
        f0, f1 = fdata[idx], fdata[idx + 1]
        hk = np.stack([np.ones_like(h), h, h * h, h * h * h])
        sgn = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        w0 = f0.T * hk
        w1 = f1.T * hk * sgn
        bt, bs = horner(basis, tau), horner(basis, sig)
        out = [(w0 * bt).sum(axis=0) + (w1 * bs).sum(axis=0)]
        if nder >= 1:
            dt, ds = horner(dbasis, tau), horner(dbasis, sig)
            out.append(((f0[:, 0] - f1[:, 0]) * dt[0] + (w0[1:] * dt[1:]).sum(axis=0)
                        - (w1[1:] * ds[1:]).sum(axis=0)) / h)
        if nder >= 2:
            b2t, b2s = horner(cubic, tau), horner(cubic, sig)
            out.append(f0[:, 2] * b2t[0] + h * f0[:, 3] * b2t[1]
                       + f1[:, 2] * b2s[0] - h * f1[:, 3] * b2s[1])
        for node_idx, take in ((idx, xs == traj.mesh[idx]),
                               (idx + 1, xs == traj.mesh[idx + 1])):
            for d in range(nder + 1):
                out[d][take] = fdata[node_idx[take], d]
        results.append(out)
    keys = (("y1", "y2"), ("y1p", "y2p"), ("y1pp", "y2pp"))
    vals = {}
    for d in range(nder + 1):
        for key, res in zip(keys[d], results):
            vals[key] = float(res[d][0]) if scalar else res[d]
    return vals


@pytest.mark.parametrize("fixture", ["run_constant", "run_genairy", "run_ce_long"])
def test_evaluate_matches_per_solution_kernel(request, fixture):
    traj = request.getfixturevalue(fixture).traj
    moved = transform_pair(traj, (1.3, 0.4, -0.2, 0.92 / 1.3))
    mesh = traj.mesh
    rng = np.random.default_rng(3)
    inside = np.sort(rng.uniform(mesh[0], mesh[-1], 500))
    nodes = mesh[rng.integers(0, len(mesh), 40)]
    xs = np.concatenate([[mesh[0], mesh[-1]], inside, nodes,
                         0.5 * (mesh[:40] + mesh[1:41])])
    for pair in (traj, moved):
        for nder in (0, 1, 2):
            want = _per_solution_evaluate(pair, xs, nder)
            got = pair.evaluate(xs, nder=nder)
            assert list(got) == list(want)
            for key in want:
                assert np.array_equal(got[key], want[key]), (nder, key)
            for x in (mesh[0], mesh[-1], inside[7], nodes[3]):
                one = pair.evaluate(float(x), nder=nder)
                ref = _per_solution_evaluate(pair, float(x), nder)
                assert all(type(one[k]) is float and one[k] == ref[k] for k in ref)

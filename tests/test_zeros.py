import math
from types import SimpleNamespace

import numpy as np
import pytest

from oscpairs import zeros
from oscpairs.errors import ParameterError, WindowError
from oscpairs.integrate import PairTrajectory, integrate_pair, normalize_unit_wronskian
from oscpairs.principal import find_principal, transform_pair
from oscpairs.qfunc import catalog_get
from oscpairs.zeros import critical_point_residual, gap_table, zeros_of


def test_zeros_of_sine(run_constant):
    z = zeros_of(run_constant.traj, "y1", (0.1, 10.0))
    assert np.max(np.abs(z - np.array([1, 2, 3]) * math.pi)) <= 1e-10


def test_zeros_of_cosine_derivative(run_constant):
    z = zeros_of(run_constant.traj, "y1p", (0.1, 10.0))
    assert np.max(np.abs(z - (np.arange(3) + 0.5) * math.pi)) <= 1e-10


def test_zeros_empty_result(run_constant):
    z = zeros_of(run_constant.traj, "y1", (0.1, 3.0))
    assert len(z) == 0 or np.all(z <= 3.0)
    z = zeros_of(run_constant.traj, "y1", (3.5, 6.0))
    assert len(z) == 0


def test_zeros_invalid_target(run_constant):
    with pytest.raises(ParameterError):
        zeros_of(run_constant.traj, "y5")


def test_cauchy_euler_zero_ratios():
    # zeros of y2 = sqrt(x) cos(s log x) are geometric with ratio e^{pi/s}
    from oscpairs.integrate import integrate_pair
    from oscpairs.qfunc import catalog_get
    model = catalog_get("cauchy-euler", {"gamma": 1.0})
    s = model.params["s"]
    traj = integrate_pair(model, (0.0, s), (1.0, 0.5),
                          math.exp(4.0 * math.pi), rtol=1e-12)
    z = zeros_of(traj, "y2", (1.0, math.exp(4.0 * math.pi)))
    assert len(z) >= 3
    ratios = z[1:] / z[:-1]
    assert np.max(np.abs(ratios - math.exp(math.pi / s))
                  / math.exp(math.pi / s)) <= 1e-8


def test_gap_table_constant(run_constant):
    table = gap_table(run_constant.traj, run_constant.phase, (0.1, 50.0))
    assert np.max(table.gap) <= 1e-9
    assert np.all(np.diff(table.x_crit) > 0)
    assert np.all(table.phase_gap <= math.pi / 2 + 1e-15)


def test_gap_table_gen_airy_tail(run_genairy):
    table = gap_table(run_genairy.principal, run_genairy.principal_phase,
                      (1.0, 200.0))
    assert len(table.j) >= 30
    assert np.all(np.diff(table.gap[-10:]) < 0)
    assert table.d_last <= 1e-4
    assert table.d_last < table.d_first / 10.0


def test_gap_table_cauchy_euler_offset(run_ce_long):
    table = gap_table(run_ce_long.principal, run_ce_long.principal_phase,
                      (1.0, 5e7))
    assert np.max(np.abs(table.phase_gap - math.pi / 6.0)) <= 1e-6


def test_gap_table_too_few_zeros(run_constant):
    with pytest.raises(WindowError):
        gap_table(run_constant.traj, run_constant.phase, (0.1, 8.0))


def test_critical_point_residual_constant(run_constant):
    crit = zeros_of(run_constant.traj, "y1p", (0.1, 50.0))
    stats = critical_point_residual(run_constant.traj, run_constant.phase, crit)
    assert stats.max <= 1e-9


def test_critical_point_residual_cauchy_euler(run_ce_long):
    # both sides of the critical-point condition equal -1/(2s) = -1/sqrt(3)
    ph = run_ce_long.principal_phase
    which = "y2p" if ph.swapped else "y1p"
    crit = zeros_of(run_ce_long.principal, which, (1.0, 5e7))
    stats = critical_point_residual(run_ce_long.principal, ph, crit)
    assert stats.max <= 1e-6
    alpha = ph.alpha_at(crit)
    cot = np.cos(alpha) / np.sin(alpha)
    assert np.max(np.abs(cot + 1.0 / math.sqrt(3.0))) <= 1e-6


def test_critical_point_residual_gen_airy(run_genairy):
    ph = run_genairy.principal_phase
    crit = zeros_of(run_genairy.principal, "y1p", (1.0, 200.0))[:30]
    stats = critical_point_residual(run_genairy.principal, ph, crit)
    assert stats.max <= 1e-6


def test_interlacing(run_genairy):
    z1 = zeros_of(run_genairy.principal, "y1", (1.0, 200.0))
    z2 = zeros_of(run_genairy.principal, "y2", (1.0, 200.0))
    between = np.searchsorted(z2, z1[1:]) - np.searchsorted(z2, z1[:-1])
    assert np.all(between == 1)


def test_zero_count_matches_phase(run_genairy):
    ph = run_genairy.principal_phase
    z1 = zeros_of(run_genairy.principal, "y1", (1.0, 200.0))
    dalpha = ph.alpha[-1] - ph.alpha_at(1.0)
    assert abs(len(z1) - math.floor(dalpha / math.pi)) <= 1


def test_csv_serialization(run_constant):
    table = gap_table(run_constant.traj, run_constant.phase, (0.1, 50.0))
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "j,x_crit,x_zero,gap,phase_gap"
    assert lines[-1].startswith("# summary:")
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(math.pi / 2, abs=1e-9)
    # 17 significant digits survive the round trip
    assert float(first[1]) == table.x_crit[0]


def _counting_eval_targets(monkeypatch, eval_targets):
    """Route the Newton loop of zeros_of through eval_targets and count
    its calls."""
    calls = []

    def counting(traj, xs, cols):
        calls.append(len(xs))
        return eval_targets(traj, xs, cols)

    monkeypatch.setattr(zeros, "_eval_targets", counting)
    return calls


def _bisected_roots(traj, target, eval_targets, steps=90):
    """Roots of the dense output in every sign-change bracket of the node
    values, by plain bisection."""
    col = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}[target]
    s = np.sign(traj.states[:, col])
    change = np.nonzero(s[:-1] * s[1:] < 0)[0]
    a, b, sa = traj.mesh[change], traj.mesh[change + 1], s[change]
    cols = np.full(a.shape, col)
    for _ in range(steps):
        m = 0.5 * (a + b)
        left = np.sign(eval_targets(traj, m, cols)[0]) == sa
        a, b = np.where(left, m, a), np.where(left, b, m)
    return 0.5 * (a + b)


@pytest.mark.parametrize("fixture, scramble", [
    ("run_constant", False), ("run_inversex", False), ("run_genairy", False),
    ("run_inversex", True)])
def test_zeros_of_matches_bisection_of_dense_output(monkeypatch, request,
                                                   fixture, scramble):
    pair = request.getfixturevalue(fixture).principal
    if scramble:
        pair = transform_pair(pair, (0.7060476993524358, 0.5679392598307327,
                                     -1.2033851519276002, 0.44834127752738895))
    eval_targets = zeros._eval_targets
    calls = _counting_eval_targets(monkeypatch, eval_targets)
    for target, rel in (("y1", 1e-14), ("y2", 1e-14),
                        ("y1p", 2e-12), ("y2p", 2e-12)):
        calls.clear()
        got = zeros_of(pair, target)
        assert 1 <= len(calls) <= 8
        got = got[~np.isin(got, pair.mesh)]  # node-exact zeros need no polish
        ref = _bisected_roots(pair, target, eval_targets)
        assert got.shape == ref.shape and len(ref) >= 10
        assert np.all(np.abs(got - ref) <= rel * (1.0 + np.abs(ref)))


def test_gap_table_polishes_both_targets_in_one_loop(monkeypatch, run_genairy):
    pair, phase = run_genairy.principal, run_genairy.principal_phase
    first, second = ("y2", "y1") if phase.swapped else ("y1", "y2")
    crit = zeros_of(pair, first + "p")
    zero = zeros_of(pair, second)
    calls = _counting_eval_targets(monkeypatch, zeros._eval_targets)
    table = gap_table(pair, phase)
    # one evaluation per Newton round covers the critical points and the
    # zeros together, with the same roots as one loop per target
    assert 1 <= len(calls) <= 8 and calls[0] == len(crit) + len(zero)
    assert np.all(np.isin(table.x_crit, crit)) and np.all(np.isin(table.x_zero, zero))


def test_newton_two_cycle_is_broken_by_bisection(monkeypatch):
    # f = x - r with a derivative that sends Newton from any point further
    # than 1.5 e from r to r + e, and from within 1.5 e of r across r, so
    # the iterates alternate between r + e and r - e, 2 e = 1.26e-13 apart
    # against a stop tolerance of 1.39e-14.  The node values carry a
    # positive non-constant factor, so the secant start is not r.
    r, e = 0.38673473457649354, 6.3e-14

    def synthetic(traj, xs, cols):
        f = xs - r
        far = np.abs(f) > 1.5 * e
        return f, np.where(far, f / np.where(far, f - e, 1.0), 0.5)

    calls = _counting_eval_targets(monkeypatch, synthetic)
    mesh = np.linspace(0.0, 1.0, 11)
    states = np.zeros((len(mesh), 4))
    states[:, 0] = (mesh - r) * (1.0 + mesh)
    traj = SimpleNamespace(x0=0.0, xmax=1.0, mesh=mesh, states=states)
    got = zeros_of(traj, "y1")
    # one call per Newton iteration; a loop that keeps following the cycle
    # runs to its cap of 12
    assert len(calls) < zeros._NEWTON_ITERS
    assert got.shape == (1,)
    assert abs(got[0] - r) <= 1e-12 * r


def test_newton_two_cycle_stops_early(monkeypatch):
    # A scrambled and recovered principal pair of q = 0.8504 whose first
    # critical point drew Newton into a 2-cycle between two points
    # 1.26e-13 apart, which ran the loop to its 60-iteration cap.  Whether
    # the cycle appears depends on the last bits of the pair, so the
    # synthetic test above is the one that pins the mechanism; this one
    # keeps the roots of the capped loop as a reference.
    c = 0.8504
    model = catalog_get("constant", {"c": c})
    base = normalize_unit_wronskian(
        integrate_pair(model, (0.0, 1.0), (1.0, 0.0), 50.0 / math.sqrt(c)))
    base = transform_pair(base, find_principal(base).matrix)
    scrambled = transform_pair(base, (0.7060476993524358, 0.5679392598307327,
                                      -1.2033851519276002, 0.44834127752738895))
    pair = transform_pair(scrambled, find_principal(scrambled).matrix)

    calls = _counting_eval_targets(monkeypatch, zeros._eval_targets)
    got = zeros_of(pair, "y1p", (pair.x0, pair.xmax))
    # one call per Newton iteration, 5 here; a loop that followed the
    # cycle would run to its iteration cap
    assert len(calls) <= 20
    before = np.array([  # the roots the capped loop returned
        0.38673473457649354, 3.7934689074618175, 7.20020308034802,
        10.606937253233166, 14.013671426118181, 17.420405599003523,
        20.827139771890508, 24.233873944774444, 27.64060811765973,
        31.04734229054703, 34.45407646343138, 37.860810636315904,
        41.267544809201326, 44.674278982087415, 48.081013154972,
        51.487747327857875])
    assert got.shape == before.shape
    assert np.max(np.abs(got - before) / before) <= 1e-12


def test_zeros_of_scans_the_last_mesh_interval(run_constant):
    # cut the sin/cos run at the first node past pi, so that the zero of
    # sin x lies between the last two nodes
    full = run_constant.traj
    k = int(np.searchsorted(full.mesh, math.pi))
    traj = PairTrajectory(full.model, full.mesh[:k + 1], full.states[:k + 1],
                          full.w, full.rtol, full.atol)
    for span in (None, (traj.x0, traj.xmax)):
        got = zeros_of(traj, "y1", span)
        assert got[0] == 0.0 and len(got) == 2  # x0 = 0 is a node-exact zero
        assert got[1] == pytest.approx(math.pi, abs=1e-10)

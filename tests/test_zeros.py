import math
from types import SimpleNamespace

import numpy as np
import pytest

from oscpairs import zeros
from oscpairs.errors import ParameterError, WindowError
from oscpairs.integrate import PairTrajectory, integrate_pair, normalize_unit_wronskian
from oscpairs.phasekit import phase_unwrap
from oscpairs.principal import find_principal, transform_pair
from oscpairs.qfunc import catalog_get
from oscpairs.verify import catalog_run
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


@pytest.mark.parametrize("case", ["constant", "gen-airy", "inverse-x",
                                  "cauchy-euler-long", "gen-airy-0.4"])
def test_critical_point_residual_uses_the_local_wronskian(case):
    # at rtol 1e-3 the Wronskian drifts from 1 by up to 1.4e-4; the
    # relation with the local w holds at the gap table's critical points
    # to the rounding of the dense output, for the principal pair and for
    # a scramble with det -1, which flips the pair order
    run = catalog_run(case, 1e-3)
    flipped = transform_pair(run.principal, (0.8, 0.5, 1.1, (0.5 * 1.1 - 1.0) / 0.8))
    for pair, phase in ((run.principal, run.principal_phase),
                        (flipped, phase_unwrap(flipped))):
        table = gap_table(pair, phase)
        assert critical_point_residual(pair, phase, table.x_crit).max <= 1e-11


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


def _counting_dense(monkeypatch):
    """Count the reads of PairTrajectory._dense, and the points of each:
    the Newton rounds of zeros_of read the pair through it alone."""
    calls = []
    dense = PairTrajectory._dense

    def counting(traj, xs, nder):
        calls.append(len(xs))
        return dense(traj, xs, nder)

    monkeypatch.setattr(PairTrajectory, "_dense", counting)
    return calls


def _bisected_roots(traj, target, steps=90):
    """Roots of the dense output (PairTrajectory.evaluate) in every
    sign-change bracket of the node values, by plain bisection."""
    col = {"y1": 0, "y2": 2, "y1p": 1, "y2p": 3}[target]
    s = np.sign(traj.states[:, col])
    change = np.nonzero(s[:-1] * s[1:] < 0)[0]
    a, b, sa = traj.mesh[change], traj.mesh[change + 1], s[change]
    for _ in range(steps):
        m = 0.5 * (a + b)
        left = np.sign(traj.evaluate(m, nder=1)[target]) == sa
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
    calls = _counting_dense(monkeypatch)
    for target, rel in (("y1", 1e-14), ("y2", 1e-14),
                        ("y1p", 2e-12), ("y2p", 2e-12)):
        calls.clear()
        got = zeros_of(pair, target)
        assert 1 <= len(calls) <= 8
        got = got[~np.isin(got, pair.mesh)]  # node-exact zeros need no polish
        ref = _bisected_roots(pair, target)
        assert got.shape == ref.shape and len(ref) >= 10
        assert np.all(np.abs(got - ref) <= rel * (1.0 + np.abs(ref)))


def test_gap_table_polishes_both_targets_in_one_loop(monkeypatch, run_genairy):
    pair, phase = run_genairy.principal, run_genairy.principal_phase
    first, second = ("y2", "y1") if phase.swapped else ("y1", "y2")
    crit = zeros_of(pair, first + "p")
    zero = zeros_of(pair, second)
    calls = _counting_dense(monkeypatch)
    table = gap_table(pair, phase)
    # one read per Newton round covers the critical points and the zeros
    # together, with the same roots as one loop per target; the last read
    # is the phase gap's at the critical points
    assert 2 <= len(calls) <= 9 and calls[0] == len(crit) + len(zero)
    assert calls[-1] == len(table.x_crit)
    assert np.all(np.isin(table.x_crit, crit)) and np.all(np.isin(table.x_zero, zero))


def test_newton_two_cycle_is_broken_by_bisection():
    # f = x - r with a derivative that sends Newton from any point further
    # than 1.5 e from r to r + e, and from within 1.5 e of r across r, so
    # the iterates alternate between r + e and r - e, 2 e = 1.26e-13 apart
    # against a stop tolerance of 1.39e-14.  The node values carry a
    # positive non-constant factor, so the secant start is not r.
    r, e = 0.38673473457649354, 6.3e-14

    calls = []

    def synthetic(xs, nder):
        calls.append(len(xs))
        f = xs - r
        far = np.abs(f) > 1.5 * e
        fp = np.where(far, f / np.where(far, f - e, 1.0), 0.5)
        return xs, None, [np.stack([f, f]), np.stack([fp, fp])]  # both members

    mesh = np.linspace(0.0, 1.0, 11)
    states = np.zeros((len(mesh), 4))
    states[:, 0] = (mesh - r) * (1.0 + mesh)
    traj = SimpleNamespace(x0=0.0, xmax=1.0, mesh=mesh, states=states, _dense=synthetic)
    got = zeros_of(traj, "y1")
    # one read per Newton iteration; a loop that keeps following the cycle
    # runs to its cap of 12
    assert len(calls) < zeros._NEWTON_ITERS
    assert got.shape == (1,)
    assert abs(got[0] - r) <= 1e-12 * r


def test_newton_iterate_clipped_onto_a_node_reads_the_stored_state():
    # y1 falls from 1 with slope -6.3 to -0.55 over the one interval
    # [0, 0.7].  A read of the dense output at a node, where a Newton
    # iterate may land, gives the stored state, not the order-7
    # interpolant, whose slope there is one ulp off the stored -6.3
    model = catalog_get("constant", {"c": 1.0})
    mesh = np.array([0.0, 0.7])
    states = np.array([[1.0, -6.3, 0.0, 1.0], [-0.55, 2.0, 0.7, 1.0]])
    traj = PairTrajectory(model, mesh, states, 1.0, 1e-10, 1e-12)
    assert traj._interpolate(mesh[:1])[3][0, 0] != -6.3
    _, _, (y, d) = traj._dense(mesh, 1)
    assert y.T.tolist() == [[1.0, 0.0], [-0.55, 0.7]]
    assert d.T.tolist() == [[-6.3, 1.0], [2.0, 1.0]]
    (root,) = zeros_of(traj, "y1")
    assert 0.0 < root < 0.7 and abs(traj._dense(np.array([root]), 0)[2][0][0, 0]) <= 1e-15


def test_newton_root_is_not_a_bracket_end():
    # y1 falls from -0.04 with slope 0.6 over [0, 0.5]: the interpolant
    # rises to 1.3 and crosses 0 once near 0.39, so the first Newton step
    # from the secant point leaves the bracket.  A step clipped onto the
    # end at 0.5 and clipped there again returned 0.5, where y1 = 1
    model = catalog_get("constant", {"c": 1.0})
    traj = PairTrajectory(model, [0.0, 0.5], [[1, 4, 0, 1], [-0.04, 0.6, 0.5, 1]],
                          1.0, 1e-10, 1e-12)
    (root,) = zeros_of(traj, "y1")
    assert 0.0 < root < 0.5
    assert abs(traj._dense(np.array([root]), 0)[2][0][0, 0]) <= 1e-12


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

    calls = _counting_dense(monkeypatch)
    got = zeros_of(pair, "y1p", (pair.x0, pair.xmax))
    # one call per Newton iteration, 5 here; a loop that followed the
    # cycle would run to its iteration cap
    assert len(calls) <= 20
    before = np.array([  # the roots the loop returns for this pair
        0.38673473456478, 3.7934689074648595, 7.2002030803779915,
        10.60693725321966, 14.01367142613243, 17.420405599034844,
        20.827139771892384, 24.2338739448083, 27.640608117679687,
        31.047342290571482, 34.45407646348588, 37.86081063632993,
        41.26754480924072, 44.67427898214825, 48.08101315499767,
        51.487747327913084])
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


@pytest.mark.parametrize("rtol", [None, 1e-3])
@pytest.mark.parametrize("case", ["constant", "gen-airy", "inverse-x",
                                  "cauchy-euler-long", "gen-airy-0.4"])
def test_phase_gap_is_the_critical_point_relation(case, rtol):
    # At a critical point of the first member, v' = 2 y y' of the second
    # and |w| = |y of the first times y' of the second|, so the phase gap
    # atan2(|second|, |first|) is atan(|v'| / (2 |w|)): the relation
    # cot(alpha) = -v'/(2 |w|) of critical_point_residual with the local
    # Wronskian, which drifts from 1 by up to 1.4e-4 at rtol 1e-3.  It is also the old reading, the
    # distance mod pi of alpha_at at x_crit and at the nearest zero.  A
    # scramble with det -1 flips the pair order (phase.swapped).
    run = catalog_run(case, rtol)
    flipped = transform_pair(run.principal, (0.8, 0.5, 1.1, (0.5 * 1.1 - 1.0) / 0.8))
    for pair, phase in ((run.principal, run.principal_phase),
                        (flipped, phase_unwrap(flipped))):
        assert phase.swapped == (pair is flipped)
        table = gap_table(pair, phase)
        vals = pair.evaluate(table.x_crit, nder=1)
        y1, d1, y2, d2 = vals["y1"], vals["y1p"], vals["y2"], vals["y2p"]
        vp, w = 2.0 * (y1 * d1 + y2 * d2), y1 * d2 - d1 * y2
        assert np.max(np.abs(table.phase_gap - np.arctan(np.abs(vp) / (2.0 * np.abs(w))))) <= 1e-12
        alpha = phase.alpha_at(np.concatenate([table.x_crit, table.x_zero]))
        r = np.abs(alpha[:len(table.j)] - alpha[len(table.j):]) % math.pi
        assert np.max(np.abs(table.phase_gap - np.minimum(r, math.pi - r))) <= 1e-12


def _bessel_phase(order, scale, power):
    """The closed-form phase, amplitude and slope of the amplitude of
    y'' + q y = 0 with the pair sqrt(x) (J, Y)_order(t), t = scale x^power:
    theta = atan2(Y, J), increasing as 1/v with v = pi x M / (2 power),
    M = J^2 + Y^2."""
    from scipy.special import jv, jvp, yv, yvp

    def phase(x):
        t = scale * x ** power
        j, y, dj, dy = jv(order, t), yv(order, t), jvp(order, t), yvp(order, t)
        m = j * j + y * y
        c = math.pi / (2.0 * power)
        return (np.arctan2(y, j), c * x * m, c * (m + 2.0 * power * t * (j * dj + y * dy)))
    return phase


def _log_phase(s):
    """theta = s log x of the pair sqrt(x) (sin, cos)(s log x), v = x/s."""
    def phase(x):
        return s * np.log(x), x / s, np.full_like(x, 1.0 / s)
    return phase


def _linear_phase(x):
    """theta = x of the pair (sin x, cos x) of q = 1, v = 1."""
    return x, np.ones_like(x), np.zeros_like(x)


_CLOSED_FORM_PHASES = {
    "gen-airy": _bessel_phase(1.0 / 3.0, 1.0, 1.5),
    "gen-airy-0.4": _bessel_phase(0.4, 1.0, 1.25),
    "inverse-x": _bessel_phase(1.0, 2.0, 0.5),
    "constant": _linear_phase,
    "cauchy-euler": _log_phase(math.sqrt(1.0 - 0.25)),  # s = sqrt(gamma^2 - 1/4)
}


def _closed_form_gaps(case):
    """Where the closed form puts the zeros and critical points of the
    principal pair of a catalog case, against where zeros_of finds them.

    The principal phase is the closed form theta plus a constant, so the
    zeros of each member lie on a lattice theta = c_m + k pi, the
    second's pi/2 above the first's.  Returns the distances in x of each
    member's zeros from a lattice fitted to them, the offset (rad) of the
    second lattice from pi/2 above the first, and the distances in x of
    the first member's critical points from where cot(alpha) = -v'/2."""
    run = catalog_run(case)
    pair, phase = run.report.pair, run.report.phase
    first, second = ("y2", "y1") if phase.swapped else ("y1", "y2")
    closed = _CLOSED_FORM_PHASES[case]
    dx, lattice = [], []
    for target in (first, second):
        theta, v, _ = closed(zeros_of(pair, target))
        d = theta - theta[0]
        d -= math.pi * np.round(d / math.pi)
        lattice.append(theta[0] + d.mean())
        dx.append((d - d.mean()) * v)  # alpha' = 1/v
    offset = lattice[1] - lattice[0] - 0.5 * math.pi
    offset -= math.pi * round(offset / math.pi)
    # the first member is sqrt(v) sin(alpha), alpha = theta - lattice[0];
    # a critical point is off by y'/y'' = -y'/(q y) of it
    xc = zeros_of(pair, first + "p")
    theta, v, vp = closed(xc)
    alpha = theta - lattice[0]
    dxc = ((vp * np.sin(alpha) + 2.0 * np.cos(alpha))
           / (2.0 * run.model.q_array(xc) * v * np.sin(alpha)))
    return dx, offset, dxc


@pytest.mark.parametrize("case, bound_x, bound_offset", [
    ("gen-airy", 1e-9, 1e-12),
    ("gen-airy-0.4", 1e-9, 1e-12),
    # the members' lattices sit 3.0e-7 rad off pi/2 apart: the finder's
    # window leaves the principal v 3.1e-7 (relative) off the closed form
    ("inverse-x", 5e-9, 1e-6),
    ("constant", 5e-10, 1e-11),
    ("cauchy-euler", 5e-8, 1e-11),
])
def test_principal_zeros_lie_where_the_closed_form_phase_puts_them(case, bound_x,
                                                                   bound_offset):
    # bounds about 10 times the largest distance measured: 9.9e-11 over
    # 900 zeros a member on gen-airy nu=1/3, 1.3e-10 on nu=0.4, 5.0e-10
    # on inverse-x, 4.3e-11 on constant and 5.7e-9 (2.5e-11 relative) on
    # cauchy-euler
    dx, offset, dxc = _closed_form_gaps(case)
    for d in (*dx, dxc):
        assert np.max(np.abs(d)) <= bound_x
    assert abs(offset) <= bound_offset

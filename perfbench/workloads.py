"""The three benchmark workloads: fixed inputs, request lists and oracles.

Every workload is a closed loop with one client: the next request starts
when the previous one returns.  A request is one in-process call of
`oscpairs.cli.main` (cli-mix, coarse-tol) or one scramble recovery made
of public calls (scramble-recover).  `build` makes the fixed inputs from
the seed; the seed only draws equation parameters and scramble matrices,
each from a range chosen so that the work per pass hardly depends on it.

Each request has an oracle.  It returns None when the output is right
and a one-line reason otherwise.  The bounds are the Tier-1 ones: C1
(1e-5), C2+ (1e-4), C4 and C3 K (1e-3), C5, C7 companion residual
(1e-5) and C9 (L = 1 within 1e-6).
"""

import contextlib
import io
import json
import math

import numpy as np

# Total phase t = x^(1/(2 nu)) of every gen-airy span: fixing it instead
# of xmax keeps the step count nearly independent of the drawn order.
GEN_AIRY_PHASE = {"cli-mix": 300.0, "scramble-recover": 200.0,
                  "coarse-tol": 7.5}
# Likewise for cauchy-euler, whose phase is s log(x): xmax = exp(phase / s).
CAUCHY_EULER_PHASE = {"analyze": 5.5, "scramble-recover": 14.0,
                      "coarse-tol": 5.0}
SCRAMBLE_STRETCH = 1.4  # singular value; Frobenius norm^2 = 1.4^2 + 1.4^-2 = 2.47
COARSE_RTOL = "1e-3"


class Request:
    """One request: `run()` returns its output; `check(out, by_label)`
    returns None or a reason, where by_label maps the labels of the same
    pass to their outputs (parsed twins compare against their catalog
    sibling)."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Context:
    """Package handles and the tracer slot the requests read at call time."""

    def __init__(self, op, cli):
        self.op, self.cli = op, cli
        self.tracer = None  # set by run.py for traced passes only

    def main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.call("cli.main", self.cli.main, argv)
        return code, out.getvalue(), err.getvalue()


def _draw(rng, lo, hi):
    """A parameter value with 4 significant digits, exact as CLI text."""
    return float("%.4g" % rng.uniform(lo, hi))


def _strata(rng, lo, hi, n):
    """n values, one in each of n equal parts of [lo, hi], at one seeded
    offset: the set covers the range evenly whatever the seed."""
    u = rng.uniform()
    return [float("%.4g" % (lo + (hi - lo) * (k + u) / n)) for k in range(n)]


def _cauchy_euler_xmax(s, use):
    return float("%.6g" % math.exp(CAUCHY_EULER_PHASE[use] / s))


def _cli_request(ctx, label, argv, check):
    return Request(label, lambda: ctx.main(argv), check)


# ---------------------------------------------------------------------------
# oracles shared by the CLI workloads

def _fail_if(cond, reason):
    return reason if cond else None


def _analyze_report(out, expected_tag):
    """Parse a successful analyze run; returns (report, reason)."""
    code, text, err = out
    if code != 0:
        return None, f"exit {code}: {err.strip()[:120]}"
    report = json.loads(text)
    tag = report["classification"]
    if tag != expected_tag:
        return None, f"classification {tag}, expected {expected_tag}"
    c = report["coefficients"]
    det = c["A"] * c["B"] - c["C"] ** 2
    if abs(det - 1.0) > 1e-9:
        return None, f"AB - C^2 = {det!r} is not 1"
    return report, None


def _analyze_check(expected_tag, extra=None, appell=True):
    def check(out, by_label):
        report, reason = _analyze_report(out, expected_tag)
        if reason:
            return reason
        if appell and report["appell_residual"]["max"] > 1e-5:
            return f"companion residual {report['appell_residual']['max']:.3e} > 1e-5"
        return extra(report, by_label) if extra else None
    return check


def _constant_limit(c):
    # unit pair sin/cos(sqrt(c) x) / c^(1/4): v = 1/sqrt(c)
    def extra(report, by_label):
        err = abs(report["L"] * math.sqrt(c) - 1.0)
        return _fail_if(err > 1e-6, f"L*sqrt(c) - 1 = {err:.3e} > 1e-6")
    return extra


def _k_equals(target, bound):
    def extra(report, by_label):
        K = report["K"]
        if K is None:
            return "K missing"
        return _fail_if(abs(K - target) > bound,
                        f"K = {K!r}, expected {target!r} within {bound}")
    return extra


def _twin_of(sibling, then=None):
    """A parsed twin agrees with its catalog equation."""
    def extra(report, by_label):
        ref = json.loads(by_label[sibling][1])
        if ref["classification"] != report["classification"]:
            return "twin classification differs from catalog"
        for k in "ABC":
            a, b = report["coefficients"][k], ref["coefficients"][k]
            if abs(a - b) > 1e-6 * (1.0 + abs(b)):
                return f"twin coefficient {k} = {a!r} vs catalog {b!r}"
        return then(report, by_label) if then else None
    return extra


def _zeros_rows(out):
    code, text, err = out
    if code != 0:
        return None, f"exit {code}: {err.strip()[:120]}"
    lines = text.strip().split("\n")
    if lines[0] != "j,x_crit,x_zero,gap,phase_gap" or not lines[-1].startswith("# summary:"):
        return None, "malformed gap table"
    rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:-1]])
    if len(rows) < 5 or not np.all(np.isfinite(rows)) or np.any(rows[:, 3] < 0):
        return None, f"gap table has {len(rows)} rows or bad values"
    if np.any(np.diff(rows[:, 1]) <= 0):
        return None, "critical points not increasing"
    return rows, None


def _zeros_check(extra=None):
    def check(out, by_label):
        rows, reason = _zeros_rows(out)
        if reason:
            return reason
        return extra(rows) if extra else None
    return check


def _error_check(code_expected):
    def check(out, by_label):
        code, text, err = out
        if code != code_expected:
            return f"exit {code}, expected {code_expected}"
        report = json.loads(err)
        return _fail_if(text or report.get("exit_code") != code_expected
                        or "error" not in report, "malformed error report")
    return check


# ---------------------------------------------------------------------------
# C2+: the gen-airy principal amplitude against its Bessel closed form

def _gen_airy_reference(op, nu, t_max):
    """Closed-form values for the C2+ check of an analyze report.

    The catalog equation q = (2 nu)^-2 x^(1/nu - 2) is solved by
    u_Z = sqrt(x) Z_nu(t), t = x^(1/(2 nu)), and the principal amplitude
    is nu pi x (J^2 + Y^2)(t) = nu pi (x/t) M_nu(t).  The default pair
    (y1, y1') = (0, 1), (y2, y2') = (1, 0) at x = 1 is expressed in u_J,
    u_Y through Z' = Z_{nu-1} - (nu/t) Z and the reflection formulas
    DLMF 10.4.7-8, so a report's (A, B, C) gives vbar = A y1^2 + B y2^2 +
    2C y1 y2 at any x without the integrator.
    """
    j1, k1 = op.bessel_jy(nu, 1.0), op.bessel_jy(1.0 - nu, 1.0)
    mu = 1.0 - nu
    cm, sm = math.cos(mu * math.pi), math.sin(mu * math.pi)
    jd = cm * k1.J - sm * k1.Y - nu * j1.J      # J'_nu(1)
    yd = sm * k1.J + cm * k1.Y - nu * j1.Y      # Y'_nu(1)
    basis = np.array([[j1.J, j1.Y],
                      [0.5 * j1.J + jd / (2 * nu), 0.5 * j1.Y + yd / (2 * nu)]])
    c1 = np.linalg.solve(basis, [0.0, 1.0])
    c2 = np.linalg.solve(basis, [1.0, 0.0])
    points = []
    for t in (t_max / 2.0, t_max / 4.0, t_max / 8.0):  # one propagation
        x = t ** (2.0 * nu)
        b = op.bessel_jy(nu, t)
        uj, uy = math.sqrt(x) * b.J, math.sqrt(x) * b.Y
        y1 = c1[0] * uj + c1[1] * uy
        y2 = c2[0] * uj + c2[1] * uy
        v = nu * math.pi * (x / t) * op.modulus(nu, t)
        points.append((y1, y2, v))
    return points


def _c2plus(points):
    def extra(report, by_label):
        c = report["coefficients"]
        worst = max(abs(c["A"] * y1 * y1 + c["B"] * y2 * y2
                        + 2.0 * c["C"] * y1 * y2 - v) / v
                    for y1, y2, v in points)
        return _fail_if(worst > 1e-4, f"C2+ amplitude error {worst:.3e} > 1e-4")
    return extra


# ---------------------------------------------------------------------------
# workloads

def build_cli_mix(ctx, rng, counting=None):
    """analyze on every catalog family and its parsed twin, zeros on three
    families, plus invalid inputs that must exit 2 or 3 at once.

    The list has an odd number of requests (15), so that the pooled
    median falls in the middle of one request's samples, not on the
    boundary between two requests of different cost."""
    op = ctx.op
    c = _draw(rng, 0.8, 1.25)
    gamma = _draw(rng, 1.15, 1.3)
    nu = _draw(rng, 0.38, 0.42)
    s = math.sqrt(gamma * gamma - 0.25)
    t_max = GEN_AIRY_PHASE["cli-mix"]
    ga_xmax = repr(t_max ** (2.0 * nu))
    reference = _gen_airy_reference(op, nu, t_max)

    const_span = ["--xmax", repr(50.0 / math.sqrt(c))]
    const = ["--eq", "constant", "--param", f"c={c!r}"] + const_span
    const_twin = ["--eq", "c", "--param", f"c={c!r}"] + const_span
    invx = ["--eq", "inverse-x", "--xmax", "400"]
    invx_twin = ["--eq", "1/x", "--xmax", "400"]
    ce_xmax = repr(_cauchy_euler_xmax(s, "analyze"))
    ce = ["--eq", "cauchy-euler", "--param", f"gamma={gamma!r}", "--xmax", ce_xmax]
    ce_twin = ["--eq", "g^2/x^2", "--param", f"g={gamma!r}", "--xmax", ce_xmax]
    ga = ["--eq", "gen-airy", "--param", f"nu={nu!r}", "--xmax", ga_xmax]
    ga_twin = ["--eq", "x^(1/v - 2)/(2*v)^2", "--param", f"v={nu!r}", "--xmax", ga_xmax]

    k_zero = _k_equals(0.0, 1e-3)
    k_ce = _k_equals(1.0 / s, 1e-3)

    def constant_gaps(rows):
        return _fail_if(rows[:, 3].max() > 1e-9, "constant-q gaps exceed 1e-9")

    def gen_airy_gaps(rows):  # C5
        gaps = rows[:, 3]
        return _fail_if(not (gaps[-1] < gaps[0] / 10.0 and np.all(np.diff(gaps[-10:]) < 0)),
                        "gen-airy gaps do not shrink monotonically")

    spec = [
        ("analyze constant", ["analyze"] + const,
         _analyze_check("L-finite", _constant_limit(c))),
        ("analyze c", ["analyze"] + const_twin,
         _analyze_check("L-finite", _twin_of("analyze constant", _constant_limit(c)))),
        ("zeros constant", ["zeros"] + const, _zeros_check(constant_gaps)),
        ("analyze inverse-x", ["analyze"] + invx, _analyze_check("L-infinite", k_zero)),
        ("analyze 1/x", ["analyze"] + invx_twin,
         _analyze_check("L-infinite", _twin_of("analyze inverse-x", k_zero))),
        ("zeros inverse-x", ["zeros"] + invx, _zeros_check()),
        ("analyze cauchy-euler", ["analyze"] + ce, _analyze_check("L-infinite", k_ce)),
        ("analyze g^2/x^2", ["analyze"] + ce_twin,
         _analyze_check("L-infinite", _twin_of("analyze cauchy-euler", k_ce))),
        ("analyze gen-airy", ["analyze"] + ga, _analyze_check("L-zero", _c2plus(reference))),
        ("analyze gen-airy twin", ["analyze"] + ga_twin,
         _analyze_check("L-zero", _twin_of("analyze gen-airy", _c2plus(reference)))),
        ("zeros gen-airy", ["zeros"] + ga, _zeros_check(gen_airy_gaps)),
        ("invalid expression", ["analyze", "--eq", "nosuch(", "--xmax", "50"],
         _error_check(2)),
        ("invalid parameter", ["analyze", "--eq", "cauchy-euler", "--param",
                               "gamma=0.4", "--xmax", "100"], _error_check(2)),
        ("malformed parameter", ["analyze", "--eq", "constant", "--param", "c"],
         _error_check(2)),
        ("singular q at x0", ["analyze", "--eq", "1/x", "--x0", "0", "--xmax", "50"],
         _error_check(3)),
    ]
    return [_cli_request(ctx, label, argv, check) for label, argv, check in spec]


def build_coarse_tol(ctx, rng, counting=None):
    """analyze at rtol = 1e-3, three stratified draws per family.  Spans
    are short so that a run holds 100 requests, but long enough that the
    classification is decided.  inverse-x is left out: at this tolerance
    it needs x ~ 400 (1.3 s per request) before its tag is decided."""
    t_max = GEN_AIRY_PHASE["coarse-tol"]
    tol = ["--rtol", COARSE_RTOL]
    spec = []
    for k, c in enumerate(_strata(rng, 0.8, 1.25, 3)):
        spec.append((f"coarse constant {k}",
                     ["analyze", "--eq", "constant", "--param", f"c={c!r}",
                      "--xmax", repr(5.0 / math.sqrt(c))] + tol,
                     _analyze_check("L-finite", _constant_limit(c), appell=False)))
    for k, nu in enumerate(_strata(rng, 0.35, 0.42, 3)):
        spec.append((f"coarse gen-airy {k}",
                     ["analyze", "--eq", "gen-airy", "--param", f"nu={nu!r}",
                      "--xmax", repr(t_max ** (2.0 * nu))] + tol,
                     _analyze_check("L-zero", appell=False)))
    for k, gamma in enumerate(_strata(rng, 1.0, 1.3, 3)):
        s = math.sqrt(gamma * gamma - 0.25)
        spec.append((f"coarse cauchy-euler {k}",
                     ["analyze", "--eq", "cauchy-euler", "--param", f"gamma={gamma!r}",
                      "--xmax", repr(_cauchy_euler_xmax(s, "coarse-tol"))] + tol,
                     _analyze_check("L-infinite", _k_equals(1.0 / s, 1e-3),
                                    appell=False)))
    return [_cli_request(ctx, label, argv, check) for label, argv, check in spec]


def _scrambles(rng, n):
    """n matrices R(a) diag(s, +-1/s) R(b) with |det| = 1.

    The singular value s is fixed, so every scramble stretches the
    amplitude by the same factor.  The angles lie on even grids over
    their periods and the determinant signs alternate; the seed draws
    only the grid offsets and the first sign.  A pass therefore covers
    the scrambles of one family evenly whatever the seed, and its cost
    hardly depends on the seed."""
    a0, b0 = rng.uniform(0.0, 2.0 * math.pi, 2)
    sign0 = 1.0 if rng.uniform() < 0.5 else -1.0
    out = []
    for k in range(n):
        a, b = a0 + 2.0 * math.pi * k / n, b0 + math.pi * k / n
        ra = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        rb = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
        stretch = np.diag([SCRAMBLE_STRETCH, sign0 * (-1.0) ** k / SCRAMBLE_STRETCH])
        out.append(tuple(float(e) for e in (ra @ stretch @ rb).ravel()))
    return out


def build_scramble_recover(ctx, rng, counting=None):
    """C1: base pairs are integrated and reduced to their principal pair
    here, once; each request scrambles one principal pair by a seeded
    unit-determinant matrix and recovers it.  Scrambling the principal
    pair, not the default one, makes the stretch of the amplitude depend
    on the scramble's singular value alone.

    With `counting`, each base is also rebuilt around a counting model for
    the traced passes (same mesh and states, so the same results)."""
    op = ctx.op
    nu = _draw(rng, 0.38, 0.42)
    c = _draw(rng, 0.8, 1.25)
    gamma = _draw(rng, 1.15, 1.3)
    # (family, params, xmax, expected tag, scrambles per pass); the counts
    # give the families comparable shares of the pass
    cases = (
        ("constant", {"c": c}, 50.0 / math.sqrt(c), "L-finite", 6),
        ("gen-airy", {"nu": nu}, GEN_AIRY_PHASE["scramble-recover"] ** (2.0 * nu),
         "L-zero", 6),
        ("inverse-x", {}, 400.0, "L-infinite", 5),
        ("cauchy-euler", {"gamma": gamma},
         _cauchy_euler_xmax(math.sqrt(gamma * gamma - 0.25), "scramble-recover"),
         "L-infinite", 5),
    )
    requests = []
    for name, params, xmax, tag, count in cases:
        model = op.catalog_get(name, params)
        base = op.normalize_unit_wronskian(
            op.integrate_pair(model, (0.0, 1.0), (1.0, 0.0), xmax))
        report = op.find_principal(base)
        base = op.transform_pair(base, report.matrix)
        phase = op.phase_unwrap(base)
        wlo, whi = report.window
        tail = (phase.grid >= wlo) & (phase.grid <= whi)
        vref = phase.v[tail]
        traced = None
        if counting is not None:
            traced = op.PairTrajectory(counting(model), base.mesh, base.states,
                                       base.w, base.rtol, base.atol)
        for i, m in enumerate(_scrambles(rng, count)):
            requests.append(Request(
                f"scramble {name} {i}",
                _recover(ctx, base, traced, m, tail),
                _recover_check(tag, vref)))
    return requests


def _recover(ctx, base, traced, matrix, tail):
    def run():
        op = ctx.op
        pair = base if ctx.tracer is None else traced
        scrambled = op.transform_pair(pair, matrix)
        report = op.find_principal(scrambled)
        principal = op.transform_pair(scrambled, report.matrix)
        phase = op.phase_unwrap(principal)
        table = op.gap_table(principal, phase, (pair.x0, pair.xmax), min_zeros=3)
        wlo, whi = report.window
        residual = op.appell_residual(principal, (1.0, 1.0, 0.0),
                                      np.linspace(wlo, whi, 64))
        c = report.coeffs
        return (report.classification, c.A, c.B, c.C, report.k1_est,
                report.k2_est, len(table.j), residual.max,
                phase.v[tail].tobytes())
    return run


def _recover_check(tag, vref):
    def check(out, by_label):
        got, A, B, C, k1, k2, rows, residual, vbytes = out
        if got != tag:
            return f"classification {got}, expected {tag}"
        if abs(A * B - C * C - 1.0) > 1e-9:
            return "recovered combination is not unit-determinant"
        vbar = np.frombuffer(vbytes)
        worst_v = float(np.max(np.abs(vbar - vref) / np.abs(vref)))
        if worst_v > 1e-5:
            return f"C1 vbar error {worst_v:.3e} > 1e-5"
        if max(abs(k1), abs(k2)) > 1e-5:
            return f"C1 residual k = {max(abs(k1), abs(k2)):.3e} > 1e-5"
        return _fail_if(residual > 1e-5, f"companion residual {residual:.3e} > 1e-5")
    return check


BUILDERS = {"cli-mix": build_cli_mix, "scramble-recover": build_scramble_recover,
            "coarse-tol": build_coarse_tol}
WORKLOADS = tuple(BUILDERS)


def build(name, ctx, seed, counting=None):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](ctx, rng, counting)

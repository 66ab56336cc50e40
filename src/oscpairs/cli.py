"""Command-line front end: analyze, zeros, verify.

Reports are JSON (17 significant digits, fixed key order, so identical
configurations produce byte-identical output) or CSV for the gap table.
Exit codes: 0 success, 2 configuration error (including a non-finite
number and an --out path that cannot be written), 3 numeric failure
(including q <= 0 in the span, a q too large for the node budget and a
stalled integration), 4 verification failure.
"""

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
# a str as a JSON string literal, as json.dumps(s, ensure_ascii=False)
# writes it: quotes, backslashes and control characters escaped
from json.encoder import encode_basestring as _json_string

import numpy as np

from .errors import (NonOscillatoryError, OscpairsError, ParameterError,
                     ParseError)
from .integrate import (DEFAULT_ATOL, DEFAULT_RTOL, integrate_pair,
                        normalize_unit_wronskian)
from .phasekit import appell_residual
from .principal import (DEFAULT_WINDOW_FRACTION, find_principal, predicate_grid,
                        sufficient_conditions)
# not called here since the finder hands back the principal pair and its
# phase; the traced benchmark run (perfbench/tracing.py) still rebinds
# both names in this module
from .phasekit import phase_unwrap  # noqa: F401
from .principal import transform_pair  # noqa: F401
from .qfunc import CATALOG_NAMES, catalog_get, parse_q, require_finite
from .zeros import gap_table

NORMALIZATION_NOTE = (
    "Amplitudes refer to the unit-Wronskian normalized pair; a closed-form "
    "pair carrying Wronskian w corresponds to v_unit = v/|w| (e.g. the "
    "x^(1/2) sin/cos(s log x) pair has w = -s, so its unit amplitude is x/s).")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_CONFIG_ERRORS = (ParameterError, ParseError)


@dataclass
class RunConfig:
    equation: str
    params: dict = field(default_factory=dict)
    x0: float | None = None
    xmax: float = 100.0
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    window_fraction: float = DEFAULT_WINDOW_FRACTION

    def validate(self):
        for name in ("x0", "xmax", "rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0.0 < self.window_fraction <= 0.5:
            raise ParameterError(
                f"window fraction must lie in (0, 0.5], got {self.window_fraction}")


def build_model(config):
    if config.equation in CATALOG_NAMES:
        return catalog_get(config.equation, config.params, x0=config.x0)
    return parse_q(config.equation, config.params,
                   x0=1.0 if config.x0 is None else config.x0)


def _refuse_nonpositive(lo, hi, q, where):
    """NonOscillatoryError naming the stretches where q <= 0; q[i] is the
    least q seen on [lo[i], hi[i]] (lo = hi for sample points)."""
    bad = np.concatenate([[False], q <= 0.0, [False]])
    if bad.any():
        ends = np.flatnonzero(bad[1:] != bad[:-1]).reshape(-1, 2)
        runs = ", ".join(f"[{lo[i]:.6g}, {hi[j - 1]:.6g}]" for i, j in ends)
        raise NonOscillatoryError(
            f"q <= 0 on {runs} ({where}); y'' + q y = 0 need not oscillate there")


def _hermite_argmin(mesh, q, qp):
    """Where on each step, as a fraction t of the step, the cubic Hermite
    interpolant of q and q' at the step's two ends is least, and its value
    there.  The interpolant is not a bound on q (for q = u^4 it is
    u^4 - (u-a)^2 (u-b)^2 on [a, b]), so it only picks the point at which
    q itself is tested."""
    h = np.diff(mesh)
    q0, q1, d0, d1 = q[:-1], q[1:], h * qp[:-1], h * qp[1:]
    # p(t) = q0 + d0 t + c2 t^2 + c3 t^3 on t in [0, 1]
    c2 = 3.0 * (q1 - q0) - 2.0 * d0 - d1
    c3 = 2.0 * (q0 - q1) + d0 + d1
    # the roots of p'(t) = d0 + 2 c2 t + 3 c3 t^2, in the cancellation-free
    # form; without real roots the points tried lie inside [0, 1] anyway
    s = -(c2 + np.copysign(np.sqrt(np.maximum(c2 * c2 - 3.0 * c3 * d0, 0.0)), c2))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1, t2 = (np.clip(np.nan_to_num(t, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
                  for t in (s / (3.0 * c3), d0 / s))
    p1, p2 = (q0 + t * (d0 + t * (c2 + t * c3)) for t in (t1, t2))
    second = p2 < p1
    return np.where(second, t2, t1), np.where(second, p2, p1)


def _integrated_pair(config):
    """The normalized default pair.  A q that is not finite (singular or
    overflowing) or is <= 0 is refused on the predicate grid (and, when
    x0 <= 0, on evenly spaced points from x0 to that grid's first point)
    before any integration, so that the phase work downstream does not
    fail only after the whole run.  q <= 0 is refused after it at the
    stage points of every step, which include both of its ends, and last,
    on the steps whose cubic Hermite of q and q' dips to 0 or below, at
    that cubic's least point; these catch a dip between two grid points
    and one between two stage points."""
    model = build_model(config)
    if not config.xmax > model.x0:
        raise ParameterError(
            f"xmax = {config.xmax} must exceed x0 = {model.x0}")
    xs = predicate_grid((model.x0, config.xmax))
    where = f"sampled at {len(xs)} log-spaced points"
    if model.x0 <= 0.0:  # that grid starts right of 0: sample [x0, xs[0]) too
        n = len(xs)
        xs = np.concatenate([np.linspace(model.x0, xs[0], n, endpoint=False), xs])
        where = f"sampled at {n} evenly spaced and {n} log-spaced points"
    _refuse_nonpositive(xs, xs, require_finite(xs, model.q_array(xs)), where)
    traj = integrate_pair(model, (0.0, 1.0), (1.0, 0.0), config.xmax,
                          rtol=config.rtol, atol=config.atol)
    mesh = traj.mesh
    bad = int(np.count_nonzero(traj.q_step_min <= 0.0))
    _refuse_nonpositive(mesh[:-1], mesh[1:], traj.q_step_min,
                        f"at the stage points of {bad} of {len(mesh) - 1} steps")
    t, low = _hermite_argmin(mesh, traj.q_nodes, traj.qp_nodes)
    dips = np.flatnonzero(low <= 0.0)
    if len(dips):
        q_min = np.full_like(low, np.inf)
        q_min[dips] = model.q_array(
            mesh[dips] + t[dips] * (mesh[dips + 1] - mesh[dips]))
        bad = int(np.count_nonzero(q_min <= 0.0))
        _refuse_nonpositive(mesh[:-1], mesh[1:], q_min,
                            f"at the least point of the cubic Hermite of q and "
                            f"q' on {bad} of {len(mesh) - 1} steps")
    return model, normalize_unit_wronskian(traj)


def _window(config, traj):
    lo = traj.xmax - config.window_fraction * (traj.xmax - traj.x0)
    return (lo, traj.xmax)


def cmd_analyze(config):
    """Integrate the default pair, find and classify the distinguished
    combination, evaluate the hypothesis predicates and the companion
    third-order identity; returns the report as a dict."""
    config.validate()
    model, traj = _integrated_pair(config)
    report = find_principal(traj, window=_window(config, traj))
    sc = sufficient_conditions(model, (model.x0, config.xmax))
    wlo, whi = report.window
    grid = np.linspace(wlo, whi, 64)
    appell = appell_residual(traj, report.coeffs, grid)

    def _pred(p):
        return {"status": p.status, "first_fail_x": p.first_fail_x,
                "n_fail": p.n_fail, "n_checked": p.n_checked, "note": p.note}

    diagnostics = dict(report.diagnostics, mesh_nodes=len(traj.mesh),
                       integration_passes=traj.passes, q_points=traj.q_points)
    return {
        "equation": model.source,
        "params": dict(model.params),
        "span": [model.x0, float(config.xmax)],
        "tolerances": {"rtol": config.rtol, "atol": config.atol},
        "wronskian": traj.w,
        "coefficients": {"A": report.coeffs.A, "B": report.coeffs.B,
                         "C": report.coeffs.C},
        "classification": report.classification,
        "L": report.L,
        "K": report.K,
        "k1": report.k1_est,
        "k2": report.k2_est,
        "objective": report.objective,
        "appell_residual": {"max": appell.max, "rms": appell.rms,
                            "count": appell.count},
        "corollary1": _pred(sc.corollary1),
        "corollary2": _pred(sc.corollary2),
        "remark_finite_q": _pred(sc.remark_finite_q),
        "q_trend": sc.q_trend,
        "window": [wlo, whi],
        "normalization_note": NORMALIZATION_NOTE,
        "diagnostics": diagnostics,
        "config": {"equation": config.equation, "params": dict(config.params),
                   "x0": config.x0, "xmax": config.xmax, "rtol": config.rtol,
                   "atol": config.atol, "window_fraction": config.window_fraction},
    }


def cmd_zeros(config):
    """Gap table of the distinguished pair as CSV text."""
    config.validate()
    model, traj = _integrated_pair(config)
    report = find_principal(traj, window=_window(config, traj))
    table = gap_table(report.pair, report.phase, (model.x0, config.xmax))
    return table.to_csv()


def cmd_verify(suite="fast", seed=0, rtol=None):
    """Run the verification suite; returns (lines, all_passed).  The
    suite's module is imported here, so that analyze and zeros do not
    load it."""
    from . import verify
    if suite == "fast":
        checks = verify.fast_suite(rtol=rtol)
    elif suite == "all":
        checks = verify.full_suite(seed=seed, rtol=rtol)
    else:
        raise ParameterError(f"suite must be 'fast' or 'all', got {suite!r}")
    lines = [verify.format_check(c) for c in checks]
    return lines, all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits

def _json_float(x):
    # x - x is 0.0 for a finite x and NaN for NaN and +-inf
    if x - x:
        return '"%s"' % repr(x)
    return format(x, ".17g")


def _json_scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _json_float(float(x))
    if isinstance(x, str):
        return _json_string(x)
    raise TypeError(f"cannot serialize {type(x)}")


def to_json(obj, indent=0):
    """obj as indented JSON.  The exact types a report is made of (float,
    dict, list, tuple, str, None) are served first; anything else, such
    as a numpy scalar or a subclass, takes _json_scalar's isinstance
    chain."""
    kind = type(obj)
    if kind is float:
        return _json_float(obj)
    if kind is str:
        return _json_string(obj)
    if obj is None:
        return "null"
    if kind is dict or isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + 1
        pad = "\n" + "  " * inner
        items = ",".join([pad + _json_string(k) + ": " + to_json(v, inner)
                          for k, v in obj.items()])
        return "{%s\n%s}" % (items, "  " * indent)
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join([to_json(v, indent) for v in obj])
    return _json_scalar(obj)


# ---------------------------------------------------------------------------
# argument handling

def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ParameterError(f"--param expects name=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ParameterError(f"parameter {key!r} has non-numeric value {value!r}")
    return params


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every main()
    call in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oscpairs",
        description="Analyze oscillatory equations y'' + q(x) y = 0: phase "
                    "and amplitude functions, distinguished solution pairs, "
                    "and zero-gap tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--eq", required=True,
                       help="catalog name (%s) or an expression in x"
                            % ", ".join(CATALOG_NAMES))
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="equation parameter; repeatable")
        p.add_argument("--x0", type=float, default=None)
        p.add_argument("--xmax", type=float, default=100.0)
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
        p.add_argument("--window", type=float, default=DEFAULT_WINDOW_FRACTION,
                       help="tail window fraction in (0, 0.5]")
        p.add_argument("--out", default=None)

    common(sub.add_parser("analyze", help="classification report"))
    common(sub.add_parser("zeros", help="gap table between critical points "
                                        "and companion zeros"))
    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--suite", choices=("fast", "all"), default="fast")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--rtol", type=float, default=None)
    pv.add_argument("--out", default=None)
    return parser


def _check_out(out):
    """Refuse an --out path that cannot be written, before the run."""
    if os.path.isdir(out):
        raise ParameterError(f"--out {out!r} is a directory")
    target = out if os.path.exists(out) else os.path.dirname(out) or "."
    if not os.access(target, os.W_OK):
        raise ParameterError(
            f"--out {out!r}: {target!r} does not exist or is not writable")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_json(exc, code):
    return to_json({"error": type(exc).__name__, "message": str(exc),
                    "exit_code": code}) + "\n"


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.out:
            _check_out(args.out)
        if args.command == "verify":
            lines, ok = cmd_verify(args.suite, seed=args.seed, rtol=args.rtol)
            text = "\n".join(lines) + "\n"
            _emit(text, args.out)
            return EXIT_OK if ok else EXIT_VERIFY

        config = RunConfig(
            equation=args.eq, params=_parse_params(args.param),
            x0=args.x0, xmax=args.xmax, rtol=args.rtol, atol=args.atol,
            window_fraction=args.window)
        if args.command == "analyze":
            report = cmd_analyze(config)
            _emit(to_json(report) + "\n", args.out)
        else:
            _emit(cmd_zeros(config), args.out)
        return EXIT_OK
    except (*_CONFIG_ERRORS, OSError) as exc:  # OSError: writing --out
        sys.stderr.write(_error_json(exc, EXIT_CONFIG))
        return EXIT_CONFIG
    except OscpairsError as exc:
        sys.stderr.write(_error_json(exc, EXIT_NUMERIC))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

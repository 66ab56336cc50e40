import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oscpairs import cli, integrate
from oscpairs.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY,
                          RunConfig, cmd_analyze, cmd_verify, cmd_zeros, main,
                          to_json)
from oscpairs.integrate import PairTrajectory
from oscpairs.verify import catalog_run


def _fresh_process(argv):
    """The oscpairs command line run in a new interpreter, on this package."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "oscpairs.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


SCHEMA_KEYS = {"equation", "params", "span", "tolerances", "wronskian",
               "coefficients", "classification", "L", "K", "k1", "k2",
               "objective", "appell_residual", "corollary1", "corollary2",
               "remark_finite_q"}


def test_analyze_constant_report():
    report = cmd_analyze(RunConfig(equation="constant", params={"c": 1.0},
                                   xmax=50.0))
    assert SCHEMA_KEYS <= set(report)
    assert report["classification"] == "L-finite"
    assert abs(report["L"] - 1.0) <= 1e-6
    assert report["wronskian"] == -1.0
    assert set(report["coefficients"]) == {"A", "B", "C"}
    assert "normalization_note" in report
    assert report["config"]["xmax"] == 50.0


def test_analyze_gen_airy():
    report = cmd_analyze(RunConfig(equation="gen-airy", params={"nu": 1.0 / 3.0},
                                   xmax=200.0))
    assert report["classification"] == "L-zero"
    assert report["corollary1"]["status"] == "holds"
    assert report["appell_residual"]["max"] <= 1e-5


def test_analyze_cauchy_euler():
    report = cmd_analyze(RunConfig(equation="cauchy-euler",
                                   params={"gamma": 1.0}, xmax=500.0))
    assert report["classification"] == "L-infinite"
    assert abs(report["K"] - 2.0 / math.sqrt(3.0)) <= 1e-3
    assert report["corollary2"]["status"] == "fails"


def test_analyze_parsed_equation():
    report = cmd_analyze(RunConfig(equation="g^2/x^2", params={"g": 1.0},
                                   x0=1.0, xmax=500.0))
    assert report["classification"] == "L-infinite"
    assert abs(report["K"] - 2.0 / math.sqrt(3.0)) <= 1e-3


def test_json_determinism():
    cfg = dict(equation="constant", params={"c": 1.0}, xmax=50.0)
    a = to_json(cmd_analyze(RunConfig(**cfg)))
    b = to_json(cmd_analyze(RunConfig(**cfg)))
    assert a == b


def test_analyze_reports_finder_diagnostics(monkeypatch):
    built = []
    combined = PairTrajectory._combined

    def counting(self, matrix, w):
        built.append(len(self.mesh))
        return combined(self, matrix, w)

    monkeypatch.setattr(PairTrajectory, "_combined", counting)
    report = cmd_analyze(RunConfig(equation="constant", params={"c": 1.0},
                                   xmax=50.0))
    diag = report["diagnostics"]
    assert {"polish_steps", "polish_fallback", "refined_intervals",
            "alpha_mismatch_max"} <= set(diag)
    assert isinstance(diag["polish_steps"], int) and diag["polish_steps"] >= 0
    # the polish works on the window slice; only the result is built on
    # the whole mesh
    assert len(built) == 1
    assert diag["polish_fallback"] is False
    assert isinstance(diag["refined_intervals"], int)
    # the input pair's quadrature-vs-arctangent check, below its 1e-4 bound
    assert 0.0 <= diag["alpha_mismatch_max"] <= 1e-4
    assert '"alpha_mismatch_max": ' in to_json(report)


def test_json_float_formatting():
    text = to_json({"a": 1.0, "b": 0.1, "c": None, "d": True, "e": [1, 2.5]})
    assert '"a": 1' in text
    assert '"b": 0.10000000000000001' in text
    assert '"c": null' in text
    assert '"d": true' in text


@pytest.mark.parametrize("eq, param", [("1 +\t0*x\n", None), ("1 + 0*x", 'a"b=1')])
def test_analyze_json_escapes_strings_and_keys(capsys, eq, param):
    # the tokenizer skips the tab and newline, so they reach "equation";
    # the quote reaches the message of the error that refuses a parameter
    # the expression does not read (test_json_strings_escape_control_characters
    # checks escaped keys)
    argv = ["analyze", "--eq", eq, "--xmax", "30"] + (["--param", param] if param else [])
    if param:
        assert main(argv) == EXIT_CONFIG
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ParameterError"
        assert """unused parameter(s) ['a"b']""" in report["message"]
        return
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["equation"] == "expr:" + eq
    assert report["config"]["equation"] == eq


def test_json_strings_escape_control_characters():
    obj = {"k\x01\"\\": ["\t\n\x1f\x7f \u00e9\u2028 \\ \""], "ascii": 'a"b\\c'}
    text = to_json(obj)
    assert json.loads(text) == obj
    assert '"ascii": "a\\"b\\\\c"' in text and "\u00e9" in text


def test_zeros_csv():
    text = cmd_zeros(RunConfig(equation="constant", params={"c": 1.0},
                               xmax=50.0))
    lines = text.strip().split("\n")
    assert lines[0] == "j,x_crit,x_zero,gap,phase_gap"
    assert lines[-1].startswith("# summary:")
    gaps = [float(row.split(",")[3]) for row in lines[1:-1]]
    assert max(gaps) <= 1e-9


def test_zeros_runs_one_phase_quadrature(monkeypatch):
    # the gap table reads the principal pair and phase the finder built;
    # the CSV is the one of the principal pair's own quadrature
    from oscpairs import phasekit, principal, zeros

    config = RunConfig(equation="inverse-x", xmax=100.0)
    model, traj = cli._integrated_pair(config)
    report = principal.find_principal(traj)
    pair = principal.transform_pair(traj, report.matrix)
    want = zeros.gap_table(pair, phasekit.phase_unwrap(pair), (model.x0, 100.0))

    calls = []
    for module in (cli, principal):
        monkeypatch.setattr(module, "phase_unwrap",
                            lambda t: calls.append(t) or phasekit.phase_unwrap(t))
    assert cmd_zeros(config) == want.to_csv()
    assert len(calls) == 1


def test_a_span_under_0_9_pi_of_phase_is_refused(capsys):
    # the finder needs 0.9 pi of phase to separate the pair
    assert main(["analyze", "--eq", "constant", "--xmax", "2"]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "WindowError"
    assert err["message"].startswith("trajectory spans only 0.64 pi of phase;")


@pytest.mark.parametrize("rtol", [1e-10, 1e-3])
def test_a_span_too_short_for_dyadic_windows_is_undetermined(rtol):
    # the phase is s log x with s = 0.33: each dyadic window spans about
    # s log 2 = 0.23 rad, under the 0.5 rad a window needs, so the
    # classifier has no window means to compare
    report = cmd_analyze(RunConfig(equation="cauchy-euler", params={"gamma": 0.6},
                                   xmax=1e4, rtol=rtol))
    assert report["classification"] == "undetermined"
    assert report["L"] is None and report["K"] is None
    assert report["diagnostics"]["reason"] == "span too short for dyadic windows"


@pytest.mark.parametrize("eq, xmax, fallback", [
    ("1 + 0.6*cos(2*x)", 25.0, True),
    ("1 + 0.3*sin(2*x)", 60.0, False),
])
def test_a_pair_in_a_resonance_band_is_undetermined(eq, xmax, fallback):
    # y'' + (1 + a cos 2x) y = 0, or with sin 2x, is a Mathieu equation in
    # its first band of instability: its solutions grow exponentially, and no combination
    # has a v' without oscillation.  The finder's residual stays above its
    # tolerance, after a polish that left the variance minimizer's
    # neighbourhood (and fell back to it) or one that did not
    report = cmd_analyze(RunConfig(equation=eq, xmax=xmax))
    diagnostics = report["diagnostics"]
    assert report["classification"] == "undetermined"
    assert report["L"] is None and report["K"] is None
    assert diagnostics["residual_above_tol"] > 1e-3
    assert math.hypot(report["k1"], report["k2"]) == diagnostics["residual_above_tol"]
    assert diagnostics["polish_fallback"] is fallback


def test_readme_lists_the_flags_of_each_command(capsys):
    # the "Command line" paragraph of README names every flag --help shows
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme.split("Flags of `analyze` and `zeros`:")[1].split("\n\n")[0]
    analyze, verify = paragraph.split("`verify` takes")
    flag = re.compile(r"--[a-z][a-z0-9-]*")
    for command, listed in (("analyze", analyze), ("zeros", analyze), ("verify", verify)):
        assert main([command, "--help"]) == EXIT_OK
        shown = set(flag.findall(capsys.readouterr().out)) - {"--help"}
        assert set(flag.findall(listed)) == shown, command


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    # success
    out = tmp_path / "report.json"
    code = main(["analyze", "--eq", "constant", "--param", "c=1",
                 "--xmax", "50", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("{")

    # unknown equation name that is not a valid expression either
    code = main(["analyze", "--eq", "nosuch(", "--xmax", "50"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert '"error"' in err and "ParseError" in err

    # parameter out of the oscillatory range
    code = main(["analyze", "--eq", "cauchy-euler", "--param", "gamma=0.4",
                 "--xmax", "100"])
    assert code == EXIT_CONFIG

    # malformed parameter
    code = main(["analyze", "--eq", "constant", "--param", "c"])
    assert code == EXIT_CONFIG

    # numeric failure: parsed q < 0 on [1, 5), refused before integrating
    code = main(["analyze", "--eq", "1/(x - 5)", "--x0", "1",
                 "--xmax", "20"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert '"error"' in err

    # q singular at x0 = 0, as a catalog equation and as a parsed one:
    # one error, naming x = 0, before any integration
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate_pair called")

    monkeypatch.setattr(cli, "integrate_pair", no_integration)
    for eq in ("inverse-x", "1/x"):
        code = main(["analyze", "--eq", eq, "--x0", "0", "--xmax", "30"])
        assert code == EXIT_NUMERIC
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "EvaluationError"
        assert report["message"].startswith("q is not finite at x = 0")


@pytest.mark.parametrize("eq, x0, xmax, stretch", [
    pytest.param("x^2 - 100", "1", "50", "[1, 9.94965]", id="x^2 - 100-50-9.94965"),
    pytest.param("1/(x - 5)", "1", "20", "[1, 4.80277]", id="1/(x - 5)-20-4.80277"),
    # a span from x0 <= 0 is sampled from x0 on, not only right of 0
    pytest.param("x", "-5", "300", "[-5, -0.0481016]", id="x-from-5"),
    pytest.param("inverse-x", "-1", "100", "[-1, -0.00568281]",
                 id="inverse-x-from-1"),
    # q <= 0 on [-10, 10]: the stretch starts at the first sample there,
    # one step (50/64) of the even grid right of -10
    pytest.param("x^2 - 100", "-50", "50", "[-9.36688, 9.87198]",
                 id="x^2 - 100-from-50"),
])
def test_nonpositive_q_fails_before_integrating(monkeypatch, capsys, eq, x0, xmax,
                                                stretch):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate_pair called")

    monkeypatch.setattr(cli, "integrate_pair", no_integration)
    for command in ("analyze", "zeros"):
        start = time.perf_counter()
        code = main([command, "--eq", eq, "--x0", x0, "--xmax", xmax])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "NonOscillatoryError" in err
        assert f"q <= 0 on {stretch}" in err


@pytest.mark.parametrize("eq, param", [
    ("inverse-x", None), ("cauchy-euler", "gamma=1"), ("gen-airy", "nu=0.4"),
])
def test_catalog_q_singular_at_x0_writes_only_the_json_error(eq, param):
    # q or one of its derivatives is infinite at x0 = 0; no numpy
    # warning may precede the error report on stderr
    argv = ["analyze", "--eq", eq, "--x0", "0", "--xmax", "30"]
    if param:
        argv += ["--param", param]
    run = _fresh_process(argv)
    assert run.returncode == EXIT_NUMERIC
    assert json.loads(run.stderr)["exit_code"] == EXIT_NUMERIC


@pytest.mark.parametrize("eq, lo, hi", [
    ("(x - 20)^2 - 0.01", 19.9, 20.1),
    ("(x - 10)^2 - 0.0001", 9.99, 10.01),
])
def test_narrow_nonpositive_dip_is_caught_at_the_stage_points(capsys, eq, lo, hi):
    # both dips, q < 0 on (lo, hi), fall between two points of the
    # predicate grid; the stage points of every step include its ends
    start = time.perf_counter()
    code = main(["analyze", "--eq", eq, "--x0", "1", "--xmax", "50"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "NonOscillatoryError" in err and "stage points" in err
    left, right = (float(t) for t in err.split("q <= 0 on [")[1].split("]")[0].split(", "))
    assert left < lo and right > hi


def test_dip_between_mesh_nodes_is_caught_at_the_stage_points(capsys):
    # q < 0 on (11.999, 12.001): no mesh node falls inside, the stage
    # points of one step do
    code = main(["analyze", "--eq", "(x - 12)^2 - 0.000001", "--x0", "1",
                 "--xmax", "50"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "NonOscillatoryError" in err and "stage points of 1 of" in err
    lo, hi = (float(t) for t in err.split("q <= 0 on [")[1].split("]")[0].split(", "))
    assert lo < 11.999 and hi > 12.001 and hi - lo < 0.1


def test_dip_between_stage_points_is_caught_at_the_hermite_minimum(capsys):
    # q < 0 on (10 - 1e-4, 10 + 1e-4): no node or stage point of the step
    # from 9.983 to 10.0004 falls inside; the cubic Hermite of q and q' at
    # its ends (exact for this quadratic) is least at x = 10, where q is
    # tested
    start = time.perf_counter()
    code = main(["analyze", "--eq", "(x - 10)^2 - 0.00000001", "--x0", "1",
                 "--xmax", "50"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "NonOscillatoryError" in err
    assert "least point of the cubic Hermite of q and q' on 1 of" in err
    lo, hi = (float(t) for t in err.split("q <= 0 on [")[1].split("]")[0].split(", "))
    assert lo < 10.0 - 1e-4 and hi > 10.0 + 1e-4 and hi - lo < 0.1


def test_flat_positive_minimum_is_not_refused(capsys):
    # the cubic Hermite of (x - 10)^4 on a step [a, b] around 10 is
    # (x - 10)^4 - (x - a)^2 (x - b)^2, below 0 near 10, but q itself
    # stays above 1e-10 there
    _, low = cli._hermite_argmin(np.array([9.995, 10.006]),
                                 np.array([0.005 ** 4, 0.006 ** 4]),
                                 np.array([-4 * 0.005 ** 3, 4 * 0.006 ** 3]))
    assert low[0] < 0.0
    code = main(["analyze", "--eq", "(x - 10)^4 + 0.0000000001", "--x0", "1",
                 "--xmax", "20"])
    assert code == EXIT_OK
    assert "NonOscillatoryError" not in capsys.readouterr().err


def test_hermite_argmin_is_the_interior_minimum_of_a_cubic():
    # the cubic Hermite reproduces a cubic q, so on each step with an
    # interior minimum it finds that minimum and where it lies
    mesh = np.linspace(0.0, 3.0, 7)
    u = mesh - 1.3
    t, low = cli._hermite_argmin(mesh, u ** 3 - 2.0 * u ** 2 + 0.5,
                                 3.0 * u ** 2 - 4.0 * u)
    x_min = mesh[:-1] + t * np.diff(mesh)
    xs = np.linspace(mesh[:-1], mesh[1:], 20001)
    v = xs - 1.3
    vals = v ** 3 - 2.0 * v ** 2 + 0.5
    ref = vals.min(axis=0)
    # the local minimum of the cubic is at u = 4/3, inside the step [2.5, 3]
    assert abs(x_min[5] - (1.3 + 4.0 / 3.0)) <= 1e-12
    assert abs(low[5] - (0.5 - 32.0 / 27.0)) <= 1e-12
    # on every step the least of the cubic's critical points, clipped to
    # the step, is not below the step's minimum (sampled at 20001 points)
    assert np.all(low >= ref - 1e-8)
    assert np.all((x_min >= mesh[:-1]) & (x_min <= mesh[1:]))


def test_q_too_large_for_the_node_budget_fails_fast(capsys):
    start = time.perf_counter()
    code = main(["analyze", "--eq", "exp(x)", "--xmax", "50"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "IntegrationError" in err and "q is too large" in err
    assert "node budget" in err and "singular" not in err


@pytest.mark.parametrize("eq, xmax", [
    ("exp(x)", "900"), ("1 + x^400", "900"), ("x^x", "200"), ("1 + 1/exp(x^2)", "40"),
])
def test_overflow_in_q_is_refused_as_not_finite(capsys, eq, xmax):
    # an overflow inside q is a non-finite value of q, refused on the
    # predicate grid like a singular point, before any integration
    start = time.perf_counter()
    code = main(["analyze", "--eq", eq, "--xmax", xmax])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_NUMERIC
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "EvaluationError"
    assert report["message"].startswith("q is not finite at x =")


def test_overflow_in_q_writes_only_the_json_error():
    # no traceback and no numpy warning precede the error report
    run = _fresh_process(["analyze", "--eq", "exp(x)", "--xmax", "900"])
    assert run.returncode == EXIT_NUMERIC
    assert json.loads(run.stderr)["message"].startswith("q is not finite at x =")


@pytest.mark.parametrize("param", ["x=3", "a=1"])
def test_parameter_the_expression_does_not_read_exits_2(capsys, param):
    # x always reads as the variable, and 2 + sin(x) reads no parameter
    code = main(["analyze", "--eq", "2 + sin(x)", "--param", param, "--xmax", "30"])
    assert code == EXIT_CONFIG
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ParameterError"
    assert f"unused parameter(s) {[param[0]]}" in report["message"]


@pytest.mark.parametrize("option, value, named", [
    ("--atol", "inf", "atol"),
    ("--atol", "nan", "atol"),
    ("--xmax", "inf", "xmax"),
    ("--out", "/nonexistent/dir/x.json", "/nonexistent/dir/x.json"),
])
def test_unusable_inputs_exit_2_at_once(capsys, option, value, named):
    # the run these options ride on takes seconds: the refusal comes first
    argv = ["analyze", "--eq", "gen-airy", "--param", "nu=0.3333333333333333",
            "--xmax", "200", option, value]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and err["exit_code"] == EXIT_CONFIG
    assert named in err["message"]


@pytest.mark.parametrize("eq, param, error, named", [
    ("constant", "c=nan", "ParameterError", "c = nan"),
    ("constant", "c=inf", "ParameterError", "c must be finite, got inf"),
    ("cauchy-euler", "gamma=nan", "ParameterError", "gamma = nan"),
    ("cauchy-euler", "gamma=inf", "ParameterError", "gamma must be finite, got inf"),
    ("1 + c", "c=nan", "ParameterError", "c must be finite, got nan"),
    ("gen-airy", "nu=1e-300", "ParameterError", "overflows for nu = 1e-300"),
    ("gen-airy", "nu=1e-310", "ParameterError", "overflows for nu = 1e-310"),
    ("cauchy-euler", "gamma=1e200", "ParameterError", "gamma^2 overflows for gamma = 1e+200"),
    ("1e400", None, "ParseError", "'1e400' overflows"),
    pytest.param("1+" + "sin(" * 200 + "x" + ")" * 200, None, "ParseError",
                 "nested deeper than 98", id="sin nested 200 deep"),
])
def test_non_finite_or_too_deep_input_exits_2_at_once(capsys, eq, param, error, named):
    # non-finite numbers are configuration errors, not a q that is not
    # finite at x0; an expression too deep for the stack is refused
    argv = ["analyze", "--eq", eq, "--xmax", "5"] + (["--param", param] if param else [])
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and err["exit_code"] == EXIT_CONFIG
    assert named in err["message"]


@pytest.mark.parametrize("deepest, deeper", [
    # the deepest nesting the parser takes
    pytest.param("(" * 98 + "1 + x" + ")" * 98, "(" * 99 + "1 + x" + ")" * 99,
                 id="98 parentheses"),
])
def test_expression_at_the_depth_limits_analyzes(capsys, deepest, deeper):
    assert main(["analyze", "--eq", deepest, "--xmax", "5"]) == EXIT_OK
    assert main(["analyze", "--eq", deeper, "--xmax", "5"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("expr", [
    pytest.param("1" + "+0.001*sin(x)" * 489, id="489-term sum"),
    pytest.param("1+" + "sin(" * 98 + "x" + ")" * 98, id="sin nested 98 deep"),
    pytest.param("2+x" + "/x" * 82, id="82 quotients"),
    pytest.param("2+" + "*".join(["sin(x)"] * 163), id="product of 163 sin(x)"),
])
def test_deep_expression_analyzes_in_under_a_second(capsys, expr):
    # q' and q'' share the subtrees of q that they read, and each distinct
    # node is differentiated and evaluated once: a walk per reference took
    # seconds here, and the 489-term sum was refused as too deep
    start = time.perf_counter()
    assert main(["analyze", "--eq", expr, "--xmax", "5"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["classification"]


@pytest.mark.parametrize("argv, x_out", [
    (["analyze", "--eq", "constant", "--xmax", "1e308"], 2.5e6),
    (["zeros", "--eq", "constant", "--xmax", "1.7e308"], 2.5e6),
    (["analyze", "--eq", "gen-airy", "--param", "nu=0.4", "--xmax", "1e308"], 98893.5),
])
def test_node_count_that_overflows_names_where_the_budget_runs_out(capsys, argv, x_out):
    # the count overflows to inf: no numpy warning (an error here), and the
    # message names the point where the count passes the budget, not x0,
    # and says the run needs more nodes than the budget, not "about inf"
    start = time.perf_counter()
    assert main(argv) == EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == "IntegrationError"
    assert f"the budget runs out at x = {x_out:.6g}" in err["message"]
    assert "needs more nodes than the node budget of 10000000;" in err["message"]
    assert "inf" not in err["message"]


def test_failed_write_of_out_exits_2(tmp_path, capsys):
    # a path below a regular file passes the check made before the run
    # and fails when written; that is a configuration error too
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "x.json")
    code = main(["analyze", "--eq", "constant", "--param", "c=1", "--xmax", "20",
                 "--out", out])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotADirectoryError" and out in err["message"]


def test_coarse_cauchy_euler_near_the_threshold_is_l_infinite():
    report = cmd_analyze(RunConfig(equation="cauchy-euler", params={"gamma": 1.026},
                                   xmax=265.295, rtol=1e-3))
    assert report["classification"] == "L-infinite"


def test_analyze_reports_integration_counters():
    # the first mesh does not settle this q: the run takes a second pass
    cfg = dict(equation="1 + 0.9*sin(20*x)", x0=1.0, xmax=50.0)
    diag = cmd_analyze(RunConfig(**cfg))["diagnostics"]
    assert {"mesh_nodes", "integration_passes", "q_points"} <= set(diag)
    # every pass evaluates q at the nodes and the interior stage nodes
    nodes = diag["mesh_nodes"]
    assert diag["integration_passes"] >= 2
    assert diag["q_points"] > nodes + (integrate._STAGES - 2) * (nodes - 1)
    again = cmd_analyze(RunConfig(**cfg))["diagnostics"]
    for key in ("mesh_nodes", "integration_passes", "q_points"):
        assert isinstance(diag[key], int) and again[key] == diag[key]


def test_byte_identical_cli_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for eq in (["constant", "--param", "c=1"], ["g^2/x^2", "--param", "g=1"]):
        argv = ["analyze", "--eq", *eq, "--xmax", "50"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_verify_fast_passes():
    lines, ok = cmd_verify("fast")
    assert ok, "\n".join(line for line in lines if line.startswith("FAIL"))
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_verify_fast_reports_y2_representation_residual():
    # the fast suite runs criterion 8, whose representation residual
    # covers y2 = sqrt(v) cos(alpha) as well as y1
    lines, _ = cmd_verify("fast")
    for case in ("constant", "gen-airy", "inverse-x", "cauchy-euler"):
        run = catalog_run(case)
        ph = run.phase
        y2 = run.traj.states[:, 0 if ph.swapped else 2]
        r2 = np.max(np.abs(y2 - np.sqrt(ph.v) * np.cos(ph.alpha)) / np.sqrt(ph.v))
        found = [line for line in lines
                 if f"C8 representation residual ({case})" in line]
        assert len(found) == 1
        measured = float(found[0].split("measured ")[1].split()[0])
        assert measured >= r2 * (1.0 - 1e-5)


def test_verify_detects_corrupted_tolerance():
    # a deliberately loose tolerance must surface in the companion
    # residual check and flip the exit status
    lines, ok = cmd_verify("fast", rtol=1e-3)
    assert not ok
    assert any("FAIL" in line and "companion" in line for line in lines)


def test_verify_cli_exit_code():
    assert main(["verify", "--suite", "fast", "--rtol", "1e-3",
                 "--out", "/dev/null"]) == EXIT_VERIFY


def test_main_called_twice_matches_fresh_processes(capsys):
    # the parser is built once per process; reusing it for another
    # subcommand must not change what main prints or returns
    runs = (["analyze", "--eq", "constant", "--param", "c=1", "--xmax", "20"],
            ["zeros", "--eq", "inverse-x", "--xmax", "100"],
            ["analyze", "--eq", "nosuch(", "--xmax", "50"],
            ["zeros", "--eq", "constant", "--param", "c"],
            ["analyze", "--xmax", "50"])
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr()
        fresh = _fresh_process(argv)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser() is cli._parser()

"""oscpairs benchmark.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one client, no threads: each workload is a closed
loop over a fixed request list (see workloads.py and README.md).

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of SETUP_REPEATS fresh imports plus fixed-input builds), pass
time, per-request p50/p90, the share of requests that pass their oracle
and peak RSS.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics from the spans of the traced ones, plus
the tracing overhead and coverage; it also checks that the work counts
repeat exactly and compares the integrator's mesh sizes with the
reference table in ROADMAP.md.  Spans are written to
.perfbench/trace-<workload>-<seed>.json.

Times are reported in seconds at a fixed reference speed: see Speed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# pin BLAS before numpy is imported: one client, one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # every import compiles the same way

import numpy as np  # noqa: E402  (imported before any timed set-up)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_SAMPLES = 100  # so that at least ten lie beyond p90
CAL_REF_S = 0.004  # calibration kernel time that defines the reference speed
CAL_WINDOW_S = 2.0  # kernel samples this close to a timing set its scale
_CAL_X = np.linspace(0.0, 1.0, 16)

# ROADMAP.md per-layer table: mesh nodes at the default tolerances
ROADMAP_MESH = (
    ("constant", {"c": 1.0}, 50.0, 3642),
    ("gen-airy", {"nu": 0.4}, 200.0, 77850),
    ("inverse-x", {}, 400.0, 1711),
    ("cauchy-euler", {"gamma": 1.0}, 5e7, 386),
)

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "req_p50_s": "s",
                    "req_p90_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "qfunc.q_calls": "count", "qfunc.q_array_points": "count",
    "qfunc.build_s": "s",
    "integrate.integrate_pair_s": "s", "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count", "integrate.steps_per_osc": "steps/pi",
    "integrate.traj_mb_computed": "MB",
    "integrate.roadmap_mesh_matched": "count",
    "phasekit.phase_unwrap_s": "s", "phasekit.appell_residual_s": "s",
    "phasekit.refined_intervals": "count", "phasekit.alpha_mismatch_max": "rad",
    "principal.find_principal_s": "s", "principal.transform_pair_s": "s",
    "principal.sufficient_conditions_s": "s", "principal.find_calls": "count",
    "principal.k_residual_max": "1",
    "zeros.gap_table_s": "s", "zeros.gap_rows": "count",
    "specfun.modulus_cold_s": "s", "specfun.modulus_calls": "count",
    "cli.to_json_s": "s", "cli.error_exit_s": "s",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}


def _kernel():
    """Fixed work that uses no oscpairs code: scalar float arithmetic like
    the integrator's stages, then small-array numpy calls like phasekit's."""
    a, b = 0.3, 0.7
    for _ in range(25000):
        a, b = b, a * 0.5 + b * 0.25 + 0.1
    x = _CAL_X
    for _ in range(250):
        x = np.sin(x) * 0.5 + np.cumsum(x) * 1e-3
    return a, x


class Speed:
    """The machine's current speed, from a fixed kernel timed before every
    request and around every set-up.

    On a machine whose cores are shared, speed drifts by tens of per cent
    over seconds to minutes.  Each timing is scaled by CAL_REF_S over the
    median kernel time within CAL_WINDOW_S of it, which gives seconds at
    a fixed reference speed and removes most of that drift.  The kernel
    uses no oscpairs code, so a change to the package moves scaled times
    as much as raw ones.  The raw figures are printed too."""

    def __init__(self):
        self.times, self.durations = [], []

    def sample(self):
        t0 = time.perf_counter()
        _kernel()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def scale(self, t):
        lo = bisect.bisect_left(self.times, t - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.durations[lo:hi])


def fresh_import():
    """Import oscpairs from ./src with empty module state (so the specfun
    cache starts cold); returns (package, namespaces for the tracer)."""
    for name in [n for n in sys.modules if n == "oscpairs" or n.startswith("oscpairs.")]:
        del sys.modules[name]
    op = importlib.import_module("oscpairs")
    cli = importlib.import_module("oscpairs.cli")
    if Path(op.__file__).resolve().parent != SRC / "oscpairs":
        raise RuntimeError(f"oscpairs imported from {op.__file__}, not {SRC}")
    modules = {"": op, "cli": cli,
               "principal": importlib.import_module("oscpairs.principal")}
    return op, cli, modules


class Pass:
    """Timings of one pass: request start times and raw latencies."""

    def __init__(self, starts, latencies):
        self.starts, self.latencies = starts, latencies
        self.raw_s = sum(latencies)

    def rescale(self, speed):
        """Latencies at the reference speed; called once the run is over,
        so that kernel samples after each request count too."""
        self.scaled = [lat * speed.scale(t + 0.5 * lat)
                       for t, lat in zip(self.starts, self.latencies)]
        self.scaled_s = sum(self.scaled)


def run_pass(requests, ctx, speed):
    """One closed-loop pass; returns (Pass, outputs).  A calibration kernel
    runs before each request, outside its timing.  An exception from a
    request is its output, so the loop keeps going and the oracle counts
    it as a failure."""
    gc.collect()
    starts, latencies, outputs = [], [], []
    for i, req in enumerate(requests):
        if ctx.tracer is not None:
            ctx.tracer.rid = i
        speed.sample()
        t0 = time.perf_counter()
        try:
            out = req.run()
        except Exception as exc:  # noqa: BLE001 - reported as a failed request
            out = ("raised", f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        outputs.append(out)
    speed.sample()
    return Pass(starts, latencies), outputs


def check_pass(requests, outputs, reference, failures):
    """Oracle plus byte-identity against the warm-up pass; returns the
    number of failed requests and records the first reasons."""
    by_label = {r.label: o for r, o in zip(requests, outputs)}
    failed = 0
    for req, out, ref in zip(requests, outputs, reference):
        if isinstance(out, tuple) and out and out[0] == "raised":
            reason = out[1]
        else:
            try:
                reason = req.check(out, by_label)
            except Exception as exc:  # noqa: BLE001 - malformed output
                reason = f"oracle raised {type(exc).__name__}: {exc}"
            if reason is None and out != ref:
                reason = "output differs from the same request in the warm-up pass"
        if reason is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{req.label}: {reason}")
    return failed


def measured_loop(requests, ctx, speed, seconds, reference, failures,
                  tracer=None, setup=None):
    """Whole passes until `seconds` have elapsed.

    Untraced, the loop also runs until MIN_SAMPLES requests were timed.
    With a tracer, every second pass runs with the tracer installed, and
    the loop runs at least two passes of each kind; traced passes are
    returned separately.  `setup`, if given, is called between passes at
    evenly spaced times, so that the repeated set-ups sample the same
    machine conditions as the passes."""
    plain, traced = [], []
    attempted = failed = 0
    setup_due = [seconds * j / SETUP_REPEATS for j in range(1, SETUP_REPEATS)] if setup else []
    min_samples = 0 if tracer else MIN_SAMPLES
    start = time.perf_counter()
    n = 0
    while (time.perf_counter() - start < seconds or setup_due
           or sum(len(p.latencies) for p in plain) < min_samples
           or len(traced) < 2 * bool(tracer)):
        if setup_due and time.perf_counter() - start >= setup_due[0]:
            setup_due.pop(0)
            setup()
            continue
        trace_this = tracer is not None and n % 2 == 1
        if trace_this:
            first_span = len(tracer.spans)
            q0 = (tracer.counter.q_calls, tracer.counter.q_array_points)
            tracer.install()
            ctx.tracer = tracer
        try:
            timing, outs = run_pass(requests, ctx, speed)
        finally:
            if trace_this:
                tracer.uninstall()
                ctx.tracer = None
        failed += check_pass(requests, outs, reference, failures)
        attempted += len(requests)
        if trace_this:
            q = (tracer.counter.q_calls - q0[0],
                 tracer.counter.q_array_points - q0[1])
            traced.append((timing, tracer.spans[first_span:], q))
        else:
            plain.append(timing)
        n += 1
    return plain, traced, attempted, failed


def timed_setup(args, speed, setups):
    """Fresh import plus the workload's fixed inputs; appends (start, raw
    duration) to setups.  The kernel samples around it set its scale."""
    gc.collect()
    speed.sample()
    t0 = time.perf_counter()
    op, cli, _ = fresh_import()
    ctx = workloads.Context(op, cli)
    requests = workloads.build(args.workload, ctx, args.seed)
    setups.append((t0, time.perf_counter() - t0))
    speed.sample()
    return ctx, requests


def end_to_end(args, failures):
    speed, setups = Speed(), []
    ctx, requests = timed_setup(args, speed, setups)
    _, reference = run_pass(requests, ctx, speed)  # warm-up, untimed
    failed = check_pass(requests, reference, reference, failures)
    # the remaining set-ups build throwaway copies between passes
    plain, _, attempted, failed_timed = measured_loop(
        requests, ctx, speed, args.seconds, reference, failures,
        setup=lambda: timed_setup(args, speed, setups))
    for p in plain:
        p.rescale(speed)
    scaled = [x for p in plain for x in p.scaled]
    raw = [x for p in plain for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(d * speed.scale(t + 0.5 * d) for t, d in setups),
        "pass_s": statistics.median(p.scaled_s for p in plain),
        "req_p50_s": statistics.median(scaled),
        "req_p90_s": statistics.quantiles(scaled, n=10)[-1],
        "ok_frac": (attempted - failed_timed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {"passes": len(plain), "samples": len(scaled),
               "fail_frac": failed_timed / attempted, "warmup_failed": failed,
               "raw setup_s": statistics.median(d for _, d in setups),
               "raw pass_s": statistics.median(p.raw_s for p in plain),
               "raw req_p50_s": statistics.median(raw),
               "raw req_p90_s": statistics.quantiles(raw, n=10)[-1],
               "median kernel_s": statistics.median(speed.durations)}
    return metrics, attempted, failed + failed_timed, summary, END_TO_END_UNITS


def roadmap_mesh(op, tracer):
    """Integrate the ROADMAP reference cases under the tracer and count how
    many reproduce the recorded mesh size."""
    matched = 0
    for name, params, xmax, nodes in ROADMAP_MESH:
        tracer.rid = f"roadmap {name}"
        model = tracer.counting_model(op.catalog_get(name, params))
        traj = tracer.call("integrate.integrate_pair", op.integrate_pair,
                           model, (0.0, 1.0), (1.0, 0.0), xmax)
        span = next(s for s in reversed(tracer.spans)
                    if s.name == "integrate.integrate_pair")
        ok = (len(traj.mesh) == nodes
              and (span.info["q_calls"] - 1) % tracing.Q_CALLS_PER_STEP == 0)
        matched += ok
        print(f"roadmap mesh {name} to {xmax:g}: {len(traj.mesh)} nodes "
              f"(ROADMAP {nodes}), {span.info['q_calls']} q calls")
    return matched


def per_layer(args, failures):
    speed = Speed()
    op, cli, modules = fresh_import()
    tracer = tracing.Tracer(op, modules)
    ctx = workloads.Context(op, cli)
    tracer.rid = "setup"
    tracer.install(prefixes=("specfun.",))
    speed.sample()
    try:
        requests = workloads.build(args.workload, ctx, args.seed,
                                   counting=tracer.counting_model)
    finally:
        tracer.uninstall()
    speed.sample()
    setup_spans = [s for s in tracer.spans if s.name.startswith("specfun.")]

    _, reference = run_pass(requests, ctx, speed)  # warm-up, untimed
    failed = check_pass(requests, reference, reference, failures)
    plain, traced, attempted, failed_timed = measured_loop(
        requests, ctx, speed, args.seconds, reference, failures, tracer=tracer)
    for p in plain + [p for p, _, _ in traced]:
        p.rescale(speed)

    per_pass, top_level, errors = zip(*(tracing.pass_metrics(spans, q, speed.scale)
                                        for _, spans, q in traced))
    counts_repeat = all(p[k] == per_pass[0][k]
                        for p in per_pass for k in tracing.COUNT_METRICS)
    if not counts_repeat:
        failures.append("work counts differ between traced passes")
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    errors = [x for e in errors for x in e]
    metrics["cli.error_exit_s"] = statistics.median(errors) if errors else 0.0
    metrics["specfun.modulus_cold_s"] = sum((s.end - s.start) * speed.scale(s.start)
                                            for s in setup_spans)
    metrics["specfun.modulus_calls"] = len(setup_spans)
    metrics["trace.overhead_frac"] = (statistics.median(p.scaled_s for p, _, _ in traced)
                                      / statistics.median(p.scaled_s for p in plain) - 1.0)
    metrics["trace.coverage_frac"] = statistics.median(
        t / p.raw_s for t, (p, _, _) in zip(top_level, traced))
    metrics["integrate.roadmap_mesh_matched"] = roadmap_mesh(op, tracer)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["id", "name", "start", "end", "parent", "request", "info"],
                   "spans": [s.as_list() for s in tracer.spans]}, fh)
    summary = {"traced_passes": len(traced), "untraced_passes": len(plain),
               "counts_repeat": counts_repeat, "warmup_failed": failed}
    return (metrics, attempted, failed + failed_timed + (not counts_repeat),
            summary, PER_LAYER_UNITS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscpairs" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no oscpairs package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    failures = []
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, summary, units = measure(args, failures)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in summary.items() if not k.startswith("raw")))
    for reason in failures:
        print(f"FAIL {reason}")
    for key, value in metrics.items():
        print(f"{key:36s} {value:.6g} {units[key]}")
    if "median kernel_s" in summary:
        print(f"raw (unscaled) medians: setup_s {summary['raw setup_s']:.6g}, "
              f"pass_s {summary['raw pass_s']:.6g}, req_p50_s {summary['raw req_p50_s']:.6g}, "
              f"req_p90_s {summary['raw req_p90_s']:.6g}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

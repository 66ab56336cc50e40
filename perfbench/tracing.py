"""In-memory span tracer for the traced benchmark run.

The tracer rebinds public oscpairs functions, in the namespaces that call
them, to wrappers that record one span per call: name, start, end, parent
span and request id.  The package source is not changed, and `uninstall`
restores the original bindings, so untraced passes run the plain code.

While installed, every model built through `catalog_get` or `parse_q` is
wrapped in a counting `EquationModel` (built through the public
constructor around the model's own q, q', q'' and array forms), which
gives the q-evaluation counts the integrator does not report itself.

Count extraction after a call (mesh size, refined phase intervals, ...)
is recorded as a `trace.hook` child span, so it is charged to the tracer
and not to the layer that made the call.
"""

import math
import time

import numpy as np

# (span name, function name, modules whose binding is replaced); "" is the
# package namespace, which the benchmark's own direct calls go through
TARGETS = (
    ("qfunc.catalog_get", "catalog_get", ("cli", "")),
    ("qfunc.parse_q", "parse_q", ("cli", "")),
    ("integrate.integrate_pair", "integrate_pair", ("cli", "")),
    ("principal.find_principal", "find_principal", ("cli", "")),
    ("principal.transform_pair", "transform_pair", ("cli", "principal", "")),
    ("principal.sufficient_conditions", "sufficient_conditions", ("cli", "")),
    ("phasekit.phase_unwrap", "phase_unwrap", ("cli", "principal", "")),
    ("phasekit.appell_residual", "appell_residual", ("cli", "")),
    ("zeros.gap_table", "gap_table", ("cli", "")),
    ("cli.to_json", "to_json", ("cli",)),
    ("specfun.modulus", "modulus", ("",)),
    ("specfun.bessel_jy", "bessel_jy", ("",)),
)

# an accepted or rejected step evaluates q at stages 2..6 and at x + h;
# the seventh (FSAL) stage reuses the value at x + h
Q_CALLS_PER_STEP = 5
REFINE_THRESHOLD = 0.05  # phasekit refines mesh intervals with |dalpha| above this
TRAJ_DOUBLES_PER_NODE = 15  # mesh, 4 states, q, q', 2 x 4 dense-output columns


class Counter:
    def __init__(self):
        self.q_calls = 0
        self.q_array_points = 0


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "info")

    def __init__(self, sid, name, start, parent, rid):
        self.sid, self.name, self.start = sid, name, start
        self.end, self.parent, self.rid, self.info = None, parent, rid, {}

    def as_list(self):
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.rid, self.info]


def _phase_span(traj):
    """Total phase of an integrated pair, from the node states."""
    alpha = np.unwrap(np.arctan2(traj.states[:, 0], traj.states[:, 2]))
    return float(abs(alpha[-1] - alpha[0]))


class Tracer:
    def __init__(self, op, modules):
        self.op = op
        self.modules = modules  # namespace key -> module object
        self.counter = Counter()
        self.spans = []
        self.stack = []
        self.rid = None
        self._saved = []

    # -- models --------------------------------------------------------------

    def counting_model(self, model):
        counter = self.counter

        def scalar(f):
            def g(x):
                counter.q_calls += 1
                return f(x)
            return g

        def array(f):
            def g(xs):
                counter.q_array_points += int(np.size(xs))
                return f(xs)
            return g

        return self.op.EquationModel(
            model.source, model.x0, model.params,
            q=scalar(model.q), qp=scalar(model.q_prime),
            qpp=scalar(model.q_second), q_arr=array(model.q_array),
            qp_arr=array(model.q_prime_array),
            qpp_arr=array(model.q_second_array))

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; direct recursion into the same name is
        not traced again (to_json calls itself)."""
        if self.stack and self.stack[-1].name == name:
            return fn(*args, **kwargs)
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.rid)
        self.spans.append(span)
        self.stack.append(span)
        q_before = self.counter.q_calls
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info["raised"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        return self._hook(span, result, q_before)

    def _hook(self, span, result, q_before):
        start = time.perf_counter()
        info = span.info
        name = span.name
        if name in ("qfunc.catalog_get", "qfunc.parse_q"):
            result = self.counting_model(result)
        elif name == "integrate.integrate_pair":
            info["nodes"] = len(result.mesh)
            info["q_calls"] = self.counter.q_calls - q_before
            info["phase"] = _phase_span(result)
        elif name == "phasekit.phase_unwrap":
            info["refined"] = int(np.count_nonzero(
                np.abs(np.diff(result.alpha)) > REFINE_THRESHOLD))
            info["mismatch"] = float(result.alpha_mismatch_max)
        elif name == "principal.find_principal":
            info["k"] = max(abs(result.k1_est), abs(result.k2_est))
        elif name == "zeros.gap_table":
            info["rows"] = len(result.j)
        elif name == "cli.main":
            info["exit"] = int(result)
        hook = Span(len(self.spans), "trace.hook", start, span.parent, span.rid)
        hook.end = time.perf_counter()
        self.spans.append(hook)
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, prefixes=("",)):
        """Rebind the targets whose span name starts with one of prefixes."""
        if self._saved:
            return
        for name, attr, where in TARGETS:
            if not name.startswith(prefixes):
                continue
            original = getattr(self.modules[where[0]], attr)
            wrapped = self._wrapper(name, original)
            for key in where:
                module = self.modules[key]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

SPAN_METRICS = (
    ("qfunc.build_s", ("qfunc.catalog_get", "qfunc.parse_q")),
    ("integrate.integrate_pair_s", ("integrate.integrate_pair",)),
    ("phasekit.phase_unwrap_s", ("phasekit.phase_unwrap",)),
    ("phasekit.appell_residual_s", ("phasekit.appell_residual",)),
    ("principal.find_principal_s", ("principal.find_principal",)),
    ("principal.transform_pair_s", ("principal.transform_pair",)),
    ("principal.sufficient_conditions_s", ("principal.sufficient_conditions",)),
    ("zeros.gap_table_s", ("zeros.gap_table",)),
    ("cli.to_json_s", ("cli.to_json",)),
)

# counts that must repeat exactly from one traced pass to the next
COUNT_METRICS = ("qfunc.q_calls", "qfunc.q_array_points",
                 "integrate.steps_accepted", "integrate.steps_rejected",
                 "phasekit.refined_intervals", "principal.find_calls",
                 "zeros.gap_rows")


def self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def pass_metrics(spans, q_counts, scale):
    """Per-layer numbers for one traced pass.

    q_counts is the (q_calls, q_array_points) delta of the pass; scale(t)
    converts a duration starting at t to the reference speed.  Returns
    (metrics, time covered by top-level spans, durations of the CLI
    requests that exited with an error)."""
    own = self_times(spans)
    own = {s.sid: own[s.sid] * scale(s.start) for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    # counts come from calls that returned; a call that raised has none
    done = {name: [s for s in group if "raised" not in s.info]
            for name, group in by_name.items()}
    out = {}
    for metric, names in SPAN_METRICS:
        out[metric] = sum(own[s.sid] for n in names for s in by_name.get(n, ()))

    integ = done.get("integrate.integrate_pair", [])
    accepted = sum(s.info["nodes"] - 1 for s in integ)
    attempted = sum((s.info["q_calls"] - 1) // Q_CALLS_PER_STEP for s in integ)
    phase = sum(s.info["phase"] for s in integ)
    out["qfunc.q_calls"] = q_counts[0]
    out["qfunc.q_array_points"] = q_counts[1]
    out["integrate.steps_accepted"] = accepted
    out["integrate.steps_rejected"] = attempted - accepted
    out["integrate.steps_per_osc"] = accepted / (phase / math.pi) if phase else 0.0
    out["integrate.traj_mb_computed"] = max(
        (s.info["nodes"] * TRAJ_DOUBLES_PER_NODE * 8 / 1e6 for s in integ),
        default=0.0)
    unwraps = done.get("phasekit.phase_unwrap", [])
    out["phasekit.refined_intervals"] = sum(s.info["refined"] for s in unwraps)
    out["phasekit.alpha_mismatch_max"] = max(
        (s.info["mismatch"] for s in unwraps), default=0.0)
    finds = done.get("principal.find_principal", [])
    out["principal.find_calls"] = len(finds)
    out["principal.k_residual_max"] = max((s.info["k"] for s in finds),
                                          default=0.0)
    out["zeros.gap_rows"] = sum(s.info["rows"]
                                for s in done.get("zeros.gap_table", []))
    top_level = sum(s.end - s.start for s in spans
                    if s.parent is None and s.name != "trace.hook")
    errors = [(s.end - s.start) * scale(s.start)
              for s in done.get("cli.main", []) if s.info["exit"] != 0]
    return out, top_level, errors

"""The traced benchmark run (perfbench/run.py --trace 1) rebinds package
functions by name and rebuilds models through the public EquationModel
constructor; these tests fail when an API change breaks either."""

import types
from pathlib import Path

import numpy as np

import oscpairs
from oscpairs import cli, principal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # executed from source, so nothing is written next to the harness
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _tracer(tracing):
    return tracing.Tracer(oscpairs, {"": oscpairs, "cli": cli,
                                     "principal": principal})


def test_trace_targets_resolve():
    tracing = _tracing()
    modules = _tracer(tracing).modules
    for name, attr, where in tracing.TARGETS:
        for key in where:
            assert callable(getattr(modules[key], attr, None)), (name, key)


def test_counting_model_wraps_catalog_model():
    tracer = _tracer(_tracing())
    model = oscpairs.catalog_get("gen-airy", {"nu": 0.4})
    counted = tracer.counting_model(model)
    xs = np.linspace(1.0, 5.0, 7)
    for name in ("q", "q_prime", "q_second"):
        assert getattr(counted, name)(2.0) == getattr(model, name)(2.0)
        arr = name + "_array"
        assert np.array_equal(getattr(counted, arr)(xs), getattr(model, arr)(xs))
    assert tracer.counter.q_calls == 3
    assert tracer.counter.q_array_points == 3 * xs.size
    assert (counted.source, counted.x0, counted.params) == (
        model.source, model.x0, model.params)

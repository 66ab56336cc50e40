"""The pipeline's outputs on the catalog cases against recorded values.

reference_outputs.json holds, for every verify._CASES entry at the
default tolerance and at the coarse rtol 1e-3 (keyed "<case>@rtol=0.001"),
the classification, L, K and (A, B, C) of the finder and the row count
of the principal pair's gap table (null where the span holds too few
zeros for one).  A change that is meant to keep the outputs, such as a
rewrite of a kernel, must keep these: the same tags and row counts,
and L, K and the coefficients to 1e-12 relative (K to 1e-15 absolute
where that is more).

Run this file as a script to record the values of the code as it
stands:

    PYTHONPATH=src python tests/test_reference_outputs.py
"""

import json
import pathlib

import pytest

from oscpairs.errors import WindowError
from oscpairs.verify import _CASES, catalog_run
from oscpairs.zeros import gap_table

_REFERENCE = pathlib.Path(__file__).with_name("reference_outputs.json")
_RTOL = 1e-12
_COARSE = 1e-3  # the coarse tolerance users pass to analyze --rtol


def _key(case, rtol):
    return case if rtol is None else f"{case}@rtol={rtol:g}"


def _outputs(case, rtol=None):
    run = catalog_run(case, rtol)
    report = run.report
    try:
        rows = len(gap_table(run.principal, run.principal_phase,
                             (run.model.x0, _CASES[case][2])).j)
    except WindowError:
        rows = None
    c = report.coeffs
    return {"classification": report.classification, "L": report.L, "K": report.K,
            "coefficients": [c.A, c.B, c.C], "k1": report.k1_est, "k2": report.k2_est,
            "zeros_rows": rows}


def _close(got, want, floor=0.0):
    return (got is None) == (want is None) and (
        want is None or abs(got - want) <= max(_RTOL * abs(want), floor))


def _assert_matches_the_recorded_values(case, rtol):
    want = json.loads(_REFERENCE.read_text())[_key(case, rtol)]
    got = _outputs(case, rtol)
    assert got["classification"] == want["classification"]
    assert got["zeros_rows"] == want["zeros_rows"]
    # K, the limit of v', is extrapolated from window means of v',
    # (v(hi) - v(lo)) / width: where it is near 0 (K ~ 1e-5 on gen-airy)
    # it moves with the last bits of v at the window edges, about 1e-17,
    # and not with a fraction of itself
    assert _close(got["L"], want["L"]) and _close(got["K"], want["K"], 1e-15)
    # the coefficients relative to the largest of them: C = 0 for the
    # constant case, where a relative test of C alone would ask for bits
    scale = max(abs(a) for a in want["coefficients"])
    assert all(abs(a - b) <= _RTOL * scale
               for a, b in zip(got["coefficients"], want["coefficients"]))
    assert abs(got["k1"]) <= 1e-12 and abs(got["k2"]) <= 1e-12


@pytest.mark.parametrize("case", sorted(_CASES))
def test_catalog_outputs_match_the_recorded_values(case):
    _assert_matches_the_recorded_values(case, None)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_coarse_catalog_outputs_match_the_recorded_values(case):
    _assert_matches_the_recorded_values(case, _COARSE)


if __name__ == "__main__":
    values = {_key(case, rtol): _outputs(case, rtol)
              for case in sorted(_CASES) for rtol in (None, _COARSE)}
    _REFERENCE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")

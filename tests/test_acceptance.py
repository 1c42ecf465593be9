"""Acceptance gate: each criterion runs at its shipped tolerance and
prints one pass/fail line."""

from __future__ import annotations

import numpy as np
import pytest

from graphmass import acceptance
from graphmass.acceptance import CRITERIA, CriterionResult, run_criteria
from graphmass.jets import RadialProfile
from graphmass.mass import spherical_mass

CASES = [(i, name) for i, (name, _) in enumerate(CRITERIA, 1)]


@pytest.mark.parametrize(
    ("index", "name"), CASES,
    ids=[f"{i:02d}_{name.replace(' ', '_')}" for i, name in CASES])
def test_criterion(index, name):
    result = run_criteria(only=index)[0]
    print(result.gate_line())
    assert result.name == name
    assert type(result.passed) is bool
    assert result.passed, result.gate_line()


def test_gate_line_prints_milliseconds():
    result = CriterionResult(index=3, name="divergence identity",
                             passed=True, detail="ok", runtime=0.0123)
    assert result.gate_line() == \
        "criterion  3 [PASS] divergence identity (12.3 ms) ok"


@pytest.mark.parametrize(("index", "detail"), [
    (7, "1000 random profiles, 0 negatives; worst flux agreement 2.2e-16"),
    (8, "1000 area vectors, 0 nonpositive gaps, 0 inexact singletons")])
def test_array_criteria_keep_their_detail_lines(index, detail):
    """Criteria 7 and 8 check their draws in array calls; their detail
    lines are those of the scalar loops they replaced, byte for byte."""
    assert run_criteria(only=index)[0].detail == detail


def test_criterion_7_batch_matches_scalar_calls(monkeypatch):
    """Criterion 7 evaluates its 1000 draws in one spherical_mass call on
    arrays of radii and dimensions.  Each value is within 4 ulp of the
    scalar call on that draw's own profile, drawn in the same generator
    order."""
    calls = []

    def spy(profile, r, n):
        calls.append((r, n, spherical_mass(profile, r, n)))
        return calls[-1][2]

    monkeypatch.setattr(acceptance, "spherical_mass", spy)
    assert acceptance._criterion_7()[0]
    radii, dims, batch = calls[0]
    assert len(calls) == 5 and batch.shape == (1000,)
    rng = np.random.default_rng(acceptance.SEED)
    zero = lambda r: np.zeros_like(np.asarray(r, float))  # noqa: E731
    for i in range(1000):
        n = int(rng.integers(3, 6))
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        r = float(rng.uniform(0.2, 50.0))
        assert (n, r) == (dims[i], radii[i])
        slopes = (lambda r, k: [a * np.sin(b * r) / (1.0 + r)
                                + c * r / (1.0 + r * r) + d]
                  + [zero(r)] * (k - 1))
        want = spherical_mass(RadialProfile(zero, slopes), r, n)
        assert abs(batch[i] - want) <= 4 * np.spacing(want), i

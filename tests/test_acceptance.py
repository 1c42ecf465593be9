"""Acceptance gate: each criterion runs at its shipped tolerance and
prints one pass/fail line."""

from __future__ import annotations

import numpy as np
import pytest

from graphmass import acceptance
from graphmass.acceptance import CRITERIA, CriterionResult, run_criteria
from graphmass.convexgeom import SmoothLevelSet
from graphmass.jets import RadialProfile
from graphmass.mass import spherical_mass
from graphmass.quad import sphere_rule

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


def test_criterion_5_keeps_its_detail_line():
    """Criterion 5's detail line, but for its trailing timing."""
    detail = run_criteria(only=5)[0].detail
    assert detail.rsplit(", ", 1)[0] == (
        "sphere rel gap 2.3e-14; ratio 1.5: gap 6.154e+00 > 2x err 1.7e-13; "
        "ratio 2.5: gap 6.656e+01 > 2x err 1.7e-09; ratio 4.0: gap "
        "2.907e+02 > 2x err 1.6e-04; worst chain rel gap -2.0e-14")


# the notes of criterion 9's 27 probes: the 7 registry fields, then the
# 20 expressions drawn at SEED + 9, as a max-abs reduction per step and
# part and np.polyfit's log-log slope gave them
FD_NOTES = ("exact", "2.00", "2.00", "2.00", "1.99", "2.00", "2.00",
            "1.92", "2.00", "2.00", "1.99", "2.00", "1.93", "2.00", "2.00",
            "2.00", "1.89", "2.00", "2.03", "2.00", "2.00", "1.83", "2.01",
            "1.99", "2.00", "2.00", "1.96")


def test_criterion_9_keeps_its_slope_notes(monkeypatch):
    """One reduction per jet part over all four steps and a closed-form
    slope on centred logs leave every probe's note as it was."""
    notes = []
    slope = acceptance._fd_slope
    monkeypatch.setattr(acceptance, "_fd_slope",
                        lambda field, x: notes.append(slope(field, x))
                        or notes[-1])
    assert acceptance._criterion_9() == (
        True, "all built-ins and 20 random expressions at slope 2")
    assert [note for _, note in notes] == list(FD_NOTES)


def test_criterion_6_solves_the_quartic_radii_once(monkeypatch):
    """Criterion 6 builds its quartic on the 64-node rule it reads it on,
    so the construction's radius solve is the only one, and the detail
    line stays the same."""
    solves = []
    solve = SmoothLevelSet._solve_radii
    monkeypatch.setattr(SmoothLevelSet, "_solve_radii",
                        lambda self, dirs: (solves.append(len(dirs)),
                                            solve(self, dirs))[1])
    assert acceptance._criterion_6() == (
        True, "7 bodies, worst defect 1.0e-13")
    assert solves == [len(sphere_rule(3, 64).weights)]


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

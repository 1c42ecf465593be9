"""Acceptance gate: each criterion runs at its shipped tolerance and
prints one pass/fail line."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from graphmass import acceptance, expr
from graphmass.acceptance import CRITERIA, CriterionResult, run_criteria
from graphmass.convexgeom import SmoothLevelSet, superadditivity_gap
from graphmass.jets import RadialProfile, ScalarField
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
    """One max-abs reduction over every jet part and all four steps and a
    closed-form slope on centred logs leave every probe's note as it
    was."""
    notes = []
    slope = acceptance._fd_slope
    monkeypatch.setattr(acceptance, "_fd_slope",
                        lambda field, x: notes.append(slope(field, x))
                        or notes[-1])
    assert acceptance._criterion_9() == (
        True, "all built-ins and 20 random expressions at slope 2")
    assert [note for _, note in notes] == list(FD_NOTES)


def test_criterion_9_calls_each_layer_once_per_probe(monkeypatch):
    """Each of criterion 9's 27 probes makes one fd_jet and one analytic
    jet, and each expression is parsed once per run: the 20 drawn ones
    and the registry's two (flat's and bump's).  A second run repeats
    every call, so nothing is kept from one run to the next."""
    calls = []

    def counting(name, fn):
        return lambda *args, **kwargs: (calls.append((name, args[0])),
                                        fn(*args, **kwargs))[1]
    monkeypatch.setattr(expr, "parse", counting("parse", expr.parse))
    monkeypatch.setattr(acceptance, "fd_jet",
                        counting("fd_jet", acceptance.fd_jet))
    monkeypatch.setattr(ScalarField, "jet3",
                        counting("jet3", ScalarField.jet3))
    rng = np.random.default_rng(acceptance.SEED + 9)
    texts = Counter(["0", "a*exp(-r^2)"])
    for _ in range(20):
        texts[acceptance._random_expression(rng)] += 1
        rng.uniform(-0.8, 0.8, 3)  # the probe point drawn after each text
    for run in (1, 2):
        assert acceptance._criterion_9()[0]
        names = Counter(name for name, _ in calls)
        assert names == {"parse": 22 * run, "fd_jet": 27 * run,
                         "jet3": 27 * run}
        assert Counter(text for name, text in calls if name == "parse") \
            == Counter({text: k * run for text, k in texts.items()})


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


class _CountingRng:
    """A Generator that records each method call and what it returned."""

    def __init__(self, seed, calls):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._calls = calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._calls.append((name, args, method(*args, **kwargs)))
            return self._calls[-1][2]
        return call


def _draws(monkeypatch, criterion):
    """Run one criterion on counting generators; return its calls."""
    calls = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _CountingRng(seed, calls))
    assert criterion()[0]
    return calls


def test_criteria_7_and_8_draw_their_cases_as_arrays(monkeypatch):
    """Each criterion draws its 1000 cases in three array calls on one
    generator, where a draw per case took 3,000, and the draws cover the
    supports they are drawn from."""
    (i7, d7, dims7), (u7, c7, coefs), (u7r, r7, radii) = _draws(
        monkeypatch, acceptance._criterion_7)
    assert (i7, u7, u7r) == ("integers", "uniform", "uniform")
    assert (d7, c7, r7) == ((3, 6, 1000), (-2.0, 2.0, (4, 1000)),
                            (0.2, 50.0, 1000))
    (i8, p8, parts), (i8d, d8, dims8), (u8, a8, areas) = _draws(
        monkeypatch, acceptance._criterion_8)
    assert (i8, i8d, u8) == ("integers", "integers", "uniform")
    assert (p8, d8, a8) == ((1, 7, 1000), (3, 6, 1000),
                            (0.01, 50.0, (1000, 6)))
    for dims in (dims7, dims8):
        assert set(dims.tolist()) == {3, 4, 5}
    assert set(parts.tolist()) == {1, 2, 3, 4, 5, 6}
    assert np.all(np.abs(coefs) <= 2.0)
    assert radii.min() >= 0.2 and radii.max() < 50.0
    assert areas.min() >= 0.01 and areas.max() < 50.0


def test_criterion_7_batch_matches_scalar_calls(monkeypatch):
    """Criterion 7 evaluates its 1000 draws in one spherical_mass call on
    arrays of radii and dimensions.  Each value is within 4 ulp of the
    scalar call on that draw's own profile, the columns i of its three
    array draws."""
    calls = []

    def spy(profile, r, n):
        calls.append((r, n, spherical_mass(profile, r, n)))
        return calls[-1][2]

    monkeypatch.setattr(acceptance, "spherical_mass", spy)
    assert acceptance._criterion_7()[0]
    radii, dims, batch = calls[0]
    assert len(calls) == 5 and batch.shape == (1000,)
    rng = np.random.default_rng(acceptance.SEED)
    drawn = (rng.integers(3, 6, 1000), rng.uniform(-2.0, 2.0, (4, 1000)),
             rng.uniform(0.2, 50.0, 1000))
    zero = lambda r: np.zeros_like(np.asarray(r, float))  # noqa: E731
    for i, (n, (a, b, c, d), r) in enumerate(zip(*(x.T for x in drawn))):
        assert (n, r) == (dims[i], radii[i])
        slopes = (lambda r, k: [a * np.sin(b * r) / (1.0 + r)
                                + c * r / (1.0 + r * r) + d]
                  + [zero(r)] * (k - 1))
        want = spherical_mass(RadialProfile(zero, slopes), float(r), int(n))
        assert abs(batch[i] - want) <= 4 * np.spacing(want), i


def test_criterion_8_groups_match_one_row_calls(monkeypatch):
    """Criterion 8 takes one superadditivity_gap call per (k, n) group of
    its draws.  Each gap equals the one-row call on the same k areas, bit
    for bit, and the groups hold the 1000 rows once each."""
    calls = []

    def spy(areas, n):
        calls.append((areas, n, superadditivity_gap(areas, n)))
        return calls[-1][2]

    monkeypatch.setattr(acceptance, "superadditivity_gap", spy)
    assert acceptance._criterion_8()[0]
    rng = np.random.default_rng(acceptance.SEED)
    parts, dims = rng.integers(1, 7, 1000), rng.integers(3, 6, 1000)
    areas = rng.uniform(0.01, 50.0, (1000, 6))
    assert len(calls) == len(set(zip(parts.tolist(), dims.tolist())))
    rows = []
    for group, n, gaps in calls:
        k = group.shape[1]
        [picked] = np.nonzero((parts == k) & (dims == n))
        assert np.array_equal(group, areas[picked, :k])
        rows += picked.tolist()
        for row, gap in zip(group, gaps):
            assert superadditivity_gap(row[None], n)[0] == gap
    assert sorted(rows) == list(range(1000))

"""Acceptance gate: each criterion runs at its shipped tolerance and
prints one pass/fail line."""

from __future__ import annotations

import pytest

from graphmass.acceptance import CRITERIA, run_criteria

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

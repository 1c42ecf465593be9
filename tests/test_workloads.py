"""The benchmark's workloads call package names from outside; building
each one must still work, so a removed name fails here first."""

from __future__ import annotations

from graphmass import acceptance, cli, mass


def test_suite_builds(workloads):
    suite = workloads.Suite(1)
    assert suite.cli is cli
    assert isinstance(suite.config, cli.RunConfig)
    assert [e.name for e in suite.config.entries] == list(
        workloads.SUITE_ENTRIES)


def test_verify_builds(workloads, monkeypatch):
    # Verify taps adm_mass in both modules; the fixture puts them back
    monkeypatch.setattr(mass, "adm_mass", mass.adm_mass)
    monkeypatch.setattr(acceptance, "adm_mass", acceptance.adm_mass)
    verify = workloads.Verify(1)
    assert verify.acceptance is acceptance
    assert mass.adm_mass is acceptance.adm_mass
    assert callable(acceptance.run_criteria)


def test_suite_passes_are_correct_and_repeatable(workloads):
    """The benchmark's own gate: every operation of a suite pass is ok,
    and two passes give the same report body."""
    suite = workloads.Suite(7)
    first, second = suite.run_pass(), suite.run_pass()
    for result in (first, second):
        assert [op.label for op in result.ops] == list(
            workloads.SUITE_ENTRIES)
        assert all(op.ok for op in result.ops), [
            (op.label, op.note) for op in result.ops if not op.ok]
    assert first.digest is not None and first.digest == second.digest

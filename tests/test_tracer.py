"""The traced benchmark instruments package names from outside; every
name it lists has to exist where it looks for it."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from graphmass import acceptance, mass
from graphmass.scenarios import make_scenario

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_names_resolve(tracer):
    for module, attr, _, _ in tracer.INSTRUMENTED:
        owner = importlib.import_module(f"graphmass.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method where the class defines it
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr)), attr


# one field per instrumented jet3_many, by class name
FIELDS = {"ExprField": "bump", "RadialField": "schwarzschild3",
          "PiecewiseRadialField": "two_body_glued"}


def test_jet_order_keyword_is_traced(tracer):
    """Each instrumented jet3_many takes ``order`` as a keyword, and a
    call through the installed wrapper still records its point count."""
    jet_entries = [(mod, attr, span) for mod, attr, span, _
                   in tracer.INSTRUMENTED if attr.endswith(".jet3_many")]
    assert {attr.split(".")[0] for _, attr, _ in jet_entries} == set(FIELDS)
    for mod, attr, _ in jet_entries:
        cls = getattr(importlib.import_module(f"graphmass.{mod}"),
                      attr.split(".")[0])
        assert "order" in inspect.signature(cls.jet3_many).parameters
    recorder = tracer.Recorder()
    recorder.install()
    try:
        recorder.begin_op("jets")
        for _, attr, span in jet_entries:
            scn = make_scenario(FIELDS[attr.split(".")[0]])
            pts = scn.sample_points(17, 3)
            before = len(recorder.spans)
            jet = scn.field.jet3_many(pts, order=2)
            assert jet.third is None
            assert np.array_equal(
                jet.hess, scn.field.jet3_many(pts, order=3).hess)
            first = recorder.spans[before]
            assert first[tracer.NAME] == span
            assert first[tracer.POINTS] == len(pts)
        recorder.end_op()
    finally:
        recorder.uninstall()


# instrumented names that only tests call: no workload pass reaches them
UNREACHED = {"jets.flatness_report", "graphgeom.mass_flux_integrand",
             "graphgeom.flat_mean_curvature", "mass.adm_flux_mass"}


def test_workload_passes_reach_every_instrumented_name(tracer, workloads,
                                                       monkeypatch):
    """One suite pass and one verify pass record at least one span of
    each instrumented name outside UNREACHED, and none of those: a name
    that drops off the path the benchmark runs reads 0 in its metrics."""
    # Verify taps adm_mass in both modules; monkeypatch puts them back
    monkeypatch.setattr(mass, "adm_mass", mass.adm_mass)
    monkeypatch.setattr(acceptance, "adm_mass", acceptance.adm_mass)
    passes = (workloads.Suite(5), workloads.Verify(5))
    recorder = tracer.Recorder()
    recorder.install()
    try:
        results = [workload.run_pass(recorder) for workload in passes]
    finally:
        recorder.uninstall()
    for result in results:
        assert all(op.ok for op in result.ops), [
            (op.label, op.note) for op in result.ops if not op.ok]
    seen = {span[tracer.NAME] for span in recorder.spans}
    names = {span for _, _, span, _ in tracer.INSTRUMENTED}
    assert UNREACHED <= names
    assert names - seen == UNREACHED

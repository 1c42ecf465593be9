"""The traced benchmark instruments package names from outside; every
name it lists has to exist where it looks for it."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

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

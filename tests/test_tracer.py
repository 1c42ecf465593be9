"""The traced benchmark instruments package names from outside; every
name it lists has to exist where it looks for it."""

from __future__ import annotations

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


def test_instrumented_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.INSTRUMENTED:
        owner = importlib.import_module(f"graphmass.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method where the class defines it
            assert meth in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr)), attr

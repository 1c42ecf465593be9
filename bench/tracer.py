"""Span recorder for the traced benchmark run.

The package is instrumented from outside: each public function listed in
``INSTRUMENTED`` is replaced by a wrapper that records a span (name, start,
end, parent span, operation id) and, where the function does work on a
batch of points, the batch size.  Because the package imports names with
``from .x import y``, a wrapper is bound into every ``graphmass`` module
that holds the original object, not only the defining one.

Spans stay in memory while the run lasts; ``Recorder.layer_metrics``
reduces them to the per-layer table and ``Recorder.dump`` writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span record layout
ID, PARENT, OP, NAME, START, END, POINTS = range(7)


def _field_points(args, kwargs):
    field, points = args[0], args[1]
    return int(np.size(points)) // int(field.n)


def _rule_points(args, kwargs):
    rule = args[2] if len(args) > 2 else kwargs["rule"]
    half = rule.half
    return len(rule.weights) + (len(half.weights) if half is not None else 0)


# (module, attribute, span name, points counter).  The layer of a span is
# the part of its name before the first dot.  jet3_many of the glued
# two-body field lives in ``scenarios`` but is jet work, so it is traced
# as a ``jets`` span, as is ``radial_jet`` wherever it is imported.
INSTRUMENTED = (
    ("jets", "ExprField.jet3_many", "jets.expr", _field_points),
    ("jets", "RadialField.jet3_many", "jets.radial", _field_points),
    ("scenarios", "PiecewiseRadialField.jet3_many", "jets.piecewise",
     _field_points),
    ("jets", "ScalarField.jet3", "jets.jet3", None),
    ("jets", "radial_jet", "jets.radial_jet", None),
    ("jets", "fd_jet", "jets.fd_jet", None),
    ("jets", "flatness_report", "jets.flatness_report", None),
    ("expr", "parse", "expr.parse", None),
    ("graphgeom", "scalar_curvature", "graphgeom.scalar_curvature",
     _field_points),
    ("graphgeom", "divergence_of_V", "graphgeom.divergence_of_V",
     _field_points),
    ("graphgeom", "mass_flux_integrand", "graphgeom.mass_flux_integrand",
     _field_points),
    ("graphgeom", "boundary_integrand", "graphgeom.boundary_integrand",
     _field_points),
    ("graphgeom", "flat_mean_curvature", "graphgeom.flat_mean_curvature",
     _field_points),
    ("quad", "sphere_rule", "quad.sphere_rule", None),
    ("quad", "sphere_integrate", "quad.sphere_integrate", _rule_points),
    ("quad", "exterior_volume_integrate", "quad.exterior_volume_integrate",
     None),
    ("quad", "extrapolate_limit", "quad.extrapolate_limit", None),
    ("convexgeom", "quermassintegrals", "convexgeom.quermassintegrals",
     None),
    ("convexgeom", "af_gap", "convexgeom.af_gap", None),
    ("convexgeom", "af_chain_gaps", "convexgeom.af_chain_gaps", None),
    ("convexgeom", "penrose_bound", "convexgeom.penrose_bound", None),
    ("convexgeom", "horizon_mean_curvature_term",
     "convexgeom.horizon_mean_curvature_term", None),
    ("convexgeom", "superadditivity_gap", "convexgeom.superadditivity_gap",
     None),
    ("mass", "adm_mass", "mass.adm_mass", None),
    ("mass", "flux_series", "mass.flux_series", None),
    ("mass", "adm_flux_mass", "mass.adm_flux_mass", None),
    ("mass", "bulk_mass", "mass.bulk_mass", None),
    ("mass", "mass_decomposition", "mass.mass_decomposition", None),
    ("mass", "horizon_hypotheses", "mass.horizon_hypotheses", None),
    ("mass", "horizon_flux_convergence", "mass.horizon_flux_convergence",
     None),
    ("mass", "spherical_mass", "mass.spherical_mass", None),
    ("mass", "Scenario.sample_points", "mass.sample_points", None),
    ("mass", "ScenarioEvaluation.run", "mass.evaluation_run", None),
    ("mass", "ScenarioEvaluation.summary", "mass.evaluation_summary", None),
    ("scenarios", "make_scenario", "scenarios.make_scenario", None),
    ("report", "encode_body", "report.encode_body", None),
    ("report", "ReportDocument.to_json", "report.to_json", None),
    ("report", "ReportDocument.body_bytes", "report.body_bytes", None),
    ("cli", "execute_run", "cli.execute_run", None),
    ("cli", "_build_scenario", "cli.build_scenario", None),
    ("cli", "_bulk_convergence", "cli.bulk_convergence", None),
    ("cli", "_run_entry", "cli.entry", None),
    ("acceptance", "run_criteria", "acceptance.run_criteria", None),
)

# spans whose jets have their third-derivative tensor read
ORDER3_READERS = ("graphgeom.divergence_of_V", "jets.flatness_report",
                  "jets.jet3")
JET_KINDS = ("jets.expr", "jets.radial", "jets.piecewise")
LAYERS = ("jets", "expr", "graphgeom", "quad", "convexgeom", "mass",
          "scenarios", "report", "cli", "acceptance")


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    Nothing is recorded outside an operation, so work the benchmark does
    around the timed passes (input building, digests) leaves no spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op: int | None = None
        self.op_labels: dict[int, str] = {}
        self.bodies: dict[int, object] = {}  # kept alive so ids stay unique
        self.radii: set[tuple] = set()
        self.bulk_scenarios: set[tuple] = set()
        self._restore: list[tuple] = []

    # -- operations and spans ---------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels[self.op] = label

    def end_op(self) -> None:
        self.op = None

    def wrap(self, name, fn, points=None, new_op=False):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            outer_op = rec.op
            if new_op:
                rec.begin_op(args[0].name)
            parent = rec.stack[-1][ID] if rec.stack else -1
            span = [len(rec.spans), parent, rec.op, name, 0.0, 0.0, 0]
            if points is not None:
                span[POINTS] = points(args, kwargs)
            rec.spans.append(span)
            rec.stack.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                rec.stack.pop()
                rec.op = outer_op
            rec._note(name, span, args, out)
            return out

        return traced

    def _note(self, name, span, args, out) -> None:
        """Keep what a metric needs beyond time and points."""
        if name == "quad.exterior_volume_integrate":
            span[POINTS] = int(out.panels)
        elif name == "convexgeom.quermassintegrals":
            self.bodies[id(args[0])] = args[0]
        elif name == "mass.adm_flux_mass":
            self.radii.add((span[OP], args[0].name, float(args[1])))
        elif name == "mass.bulk_mass":
            # copies made with other quadrature settings count as the
            # same scenario; other parameters make another one
            scn = args[0]
            self.bulk_scenarios.add(
                (span[OP], scn.name, repr(sorted(scn.params.items()))))
        elif name == "report.body_bytes":
            span[POINTS] = len(out)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"graphmass.{m}")
                   for m in LAYERS}
        for mod_name, attr, span_name, points in INSTRUMENTED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span_name, original, points))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, points,
                                new_op=(span_name == "cli.entry"))
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("graphmass"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, passes: int, entry_metrics) -> dict[str, float]:
        """Per-layer table.  Counts and times are per traced pass; ratios
        are taken over all traced passes.

        ``entry_metrics`` holds (prefix, span name, ((suffix, operation
        label), ...)): metric ``prefix.suffix`` is the time in that span
        within operations of that label.
        """
        spans = self.spans
        names = [s[NAME] for s in spans]
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        self_t = [d - c for d, c in zip(dur, child)]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, n in enumerate(names):
            by_name[n].append(i)

        def ancestors(i):
            p = spans[i][PARENT]
            while p >= 0:
                yield p
                p = spans[p][PARENT]

        def calls(name):
            return len(by_name[name])

        def total(name, label=None):
            """Time in the outermost spans of a name (nested calls of
            the same function are not counted twice)."""
            return sum(dur[i] for i in by_name[name]
                       if (label is None
                           or self.op_labels[spans[i][OP]] == label)
                       and all(names[a] != name for a in ancestors(i)))

        def pts(name, under=None):
            return sum(spans[i][POINTS] for i in by_name[name]
                       if under is None
                       or any(names[a] in under for a in ancestors(i)))

        def layer_self(layer):
            return sum(t for n, t in zip(names, self_t)
                       if n.split(".", 1)[0] == layer)

        def span_self(name):
            return sum(self_t[i] for i in by_name[name])

        jet_points = sum(pts(k) for k in JET_KINDS)
        order3 = sum(pts(k, ORDER3_READERS) for k in JET_KINDS)
        flux_jets = sum(pts(k, ("mass.adm_flux_mass",)) for k in JET_KINDS)
        bodies = len(self.bodies)
        radii = len(self.radii)
        bulk_scenarios = len(self.bulk_scenarios)
        report_outer = sum(
            d for i, d in enumerate(dur)
            if names[i].startswith("report.")
            and not any(names[a].startswith("report.")
                        for a in ancestors(i)))

        totals: dict[str, float] = {
            "jets.calls": sum(calls(k) for k in JET_KINDS),
            "jets.points": jet_points,
            "jets.self_s": layer_self("jets"),
            "jets.radial.points": pts("jets.radial"),
            "jets.expr.points": pts("jets.expr"),
            "jets.piecewise.points": pts("jets.piecewise"),
            "jets.fd.calls": calls("jets.fd_jet"),
            "expr.parse.calls": calls("expr.parse"),
            "expr.parse_s": total("expr.parse"),
            "graphgeom.curvature.points": pts("graphgeom.scalar_curvature"),
            "graphgeom.flux.points": (pts("graphgeom.mass_flux_integrand")
                                      + pts("graphgeom.boundary_integrand")),
            "graphgeom.divergence.points": pts("graphgeom.divergence_of_V"),
            "graphgeom.self_s": layer_self("graphgeom"),
            "quad.volume.calls": calls("quad.exterior_volume_integrate"),
            "quad.volume.panels": pts("quad.exterior_volume_integrate"),
            "quad.volume.points": pts("graphgeom.scalar_curvature",
                                      ("quad.exterior_volume_integrate",)),
            "quad.volume.self_s": span_self("quad.exterior_volume_integrate"),
            "quad.sphere.calls": calls("quad.sphere_integrate"),
            "quad.sphere.points": pts("quad.sphere_integrate"),
            "quad.sphere.self_s": span_self("quad.sphere_integrate"),
            "quad.rule.calls": calls("quad.sphere_rule"),
            "quad.rule_s": total("quad.sphere_rule"),
            "quad.extrapolate.calls": calls("quad.extrapolate_limit"),
            "quad.extrapolate_s": total("quad.extrapolate_limit"),
            "convexgeom.quermass.calls":
                calls("convexgeom.quermassintegrals"),
            "convexgeom.self_s": layer_self("convexgeom"),
            "mass.adm.calls": calls("mass.adm_mass"),
            "mass.adm_s": total("mass.adm_mass"),
            "mass.flux_radius.calls": calls("mass.adm_flux_mass"),
            "mass.bulk.calls": calls("mass.bulk_mass"),
            "mass.bulk_s": total("mass.bulk_mass"),
            "mass.decomposition.self_s": span_self("mass.mass_decomposition"),
            "mass.hypotheses_s": total("mass.horizon_hypotheses"),
            "mass.boundary_convergence_s":
                total("mass.horizon_flux_convergence"),
            "mass.sample_points_s": total("mass.sample_points"),
            "scenarios.build.calls": calls("scenarios.make_scenario"),
            "scenarios.build_s": total("scenarios.make_scenario"),
            "report.encode_s": report_outer,
            "report.body_bytes": pts("report.body_bytes"),
            "cli.self_s": layer_self("cli"),
            "trace.spans": len(spans),
        }
        for prefix, span_name, keys in entry_metrics:
            for key, label in keys:
                totals[f"{prefix}.{key}"] = total(span_name, label)
        out = {k: v / passes for k, v in totals.items()}
        out.update({
            "jets.order3_use_ratio":
                order3 / jet_points if jet_points else 0.0,
            "convexgeom.quermass.per_body":
                calls("convexgeom.quermassintegrals") / bodies
                if bodies else 0.0,
            "mass.flux.jet_points_per_radius":
                flux_jets / radii if radii else 0.0,
            "mass.bulk.calls_per_scenario":
                calls("mass.bulk_mass") / bulk_scenarios
                if bulk_scenarios else 0.0,
            "trace.entry_coverage_min": self._coverage(dur, self_t),
        })
        return out

    def _coverage(self, dur, self_t) -> float:
        """Smallest share of an operation longer than 1 s that the spans
        of lower layers account for.

        An operation's root is its first span; time spent in code of the
        root's own layer inside the operation (for a suite entry, the
        ``cli`` code itself) is the uncovered part.
        """
        spans = self.spans
        own: dict[int, float] = defaultdict(float)
        roots: dict[int, int] = {}
        for i, s in enumerate(spans):
            roots.setdefault(s[OP], i)
        for i, s in enumerate(spans):
            root = spans[roots[s[OP]]]
            if s[NAME].split(".", 1)[0] == root[NAME].split(".", 1)[0]:
                own[s[OP]] += self_t[i]
        worst = 1.0
        for op, r in roots.items():
            if dur[r] > 1.0:
                worst = min(worst, 1.0 - own[op] / dur[r])
        return worst

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "op": s[OP],
                    "op_label": self.op_labels[s[OP]], "name": s[NAME],
                    "start": s[START], "end": s[END],
                    "points": s[POINTS]}) + "\n")

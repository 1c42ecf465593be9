"""The benchmark's workloads: what one pass runs and how it is checked.

Constructing a workload is its set-up: it imports the package and builds
the inputs from the seed.  ``run_pass`` runs every entry once and returns
the timings and the correctness verdict of each operation.  Nothing here
imports ``graphmass`` at module level, so that import is timed as part of
the set-up.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

clock = time.perf_counter

# `graphmass run` with no target runs every registry scenario, in order.
SUITE_ENTRIES = ("flat", "schwarzschild3", "schwarzschild_n", "radial_custom",
                 "bump", "schwarzschild_perturbed", "ellipsoid_horizon",
                 "two_body_glued")

# criterion 10 is two suite passes with workers=2; the suite covers it
VERIFY_CRITERIA = tuple(range(1, 10))


def mass_error(value: float, expected: float) -> float:
    return abs(value - expected) / (1.0 + abs(expected))


@dataclass
class Operation:
    label: str
    seconds: float
    ok: bool
    note: str = ""


@dataclass
class PassResult:
    wall: float
    ops: list[Operation]
    mass_errors: list[float] = field(default_factory=list)
    digest: str | None = None

    @property
    def slowest(self) -> float:
        return max(op.seconds for op in self.ops)


class _NoTrace:
    """Stand-in recorder for untraced passes."""

    def begin_op(self, label):
        pass

    def end_op(self):
        pass


NO_TRACE = _NoTrace()


class Suite:
    """`cli.execute_run` over the whole registry, as `graphmass run` does:
    checks "all", convergence tables on, one worker, RunConfig.seed set."""

    name = "suite"
    warmup = False

    def __init__(self, seed: int):
        from graphmass import cli, scenarios
        self.cli = cli
        self.config = cli.RunConfig(
            entries=[cli.EntryConfig(name=n) for n in SUITE_ENTRIES],
            checks=("all",), seed=seed, workers=1)
        for entry in self.config.entries:
            scenarios.make_scenario(entry.name, **entry.params)

    def run_pass(self, rec=NO_TRACE) -> PassResult:
        rec.begin_op("suite")
        t0 = clock()
        try:
            code, document, results = self.cli.execute_run(self.config)
            document.to_json()           # what `graphmass run` prints
            body = document.body_bytes()  # what criterion 10 compares
        except Exception as exc:  # the gate reports, it does not crash
            wall = clock() - t0
            return PassResult(wall, [Operation(n, wall, False, repr(exc))
                                     for n in SUITE_ENTRIES])
        finally:
            rec.end_op()
        wall = clock() - t0
        ops = []
        for res in results:
            bad = [f"{o.name}: passed={o.passed} "
                   f"hypothesis_ok={o.hypothesis_ok}"
                   for o in res["outcomes"]
                   if not (o.passed and o.hypothesis_ok)]
            if res["error"] is not None:
                bad.append(f"{res['error_kind']} error: {res['error']}")
            if code != 0 and not bad:
                bad.append(f"run exit code {code}")
            ops.append(Operation(res["name"], res["runtime"], not bad,
                                 "; ".join(bad)))
        errors = [mass_error(s["adm_mass"]["value"], s["expected_mass"])
                  for s in document.body["scenarios"]
                  if "adm_mass" in s and "expected_mass" in s]
        digest = hashlib.sha256(body).hexdigest()
        return PassResult(wall, ops, errors, digest)


class Verify:
    """`acceptance.run_criteria` for criteria 1-9.  The criteria fix their
    own inputs through acceptance.SEED, so the workload seed is unused."""

    name = "verify"
    warmup = True

    def __init__(self, seed: int):
        from graphmass import acceptance, mass
        self.acceptance = acceptance
        self.masses: list[tuple[float, float]] = []
        self._tap_adm_mass(mass, acceptance)

    def _tap_adm_mass(self, *modules) -> None:
        """Record (value, expected) of every adm_mass call the criteria
        make; the criteria return only a verdict and a text line."""
        original = modules[0].adm_mass
        masses = self.masses

        def adm_mass(scenario, *args, **kwargs):
            est = original(scenario, *args, **kwargs)
            if "mass" in scenario.expected:
                masses.append((est.value, scenario.expected["mass"]))
            return est

        for module in modules:
            module.adm_mass = adm_mass

    def run_pass(self, rec=NO_TRACE) -> PassResult:
        ops = []
        self.masses.clear()
        start = clock()
        for index in VERIFY_CRITERIA:
            rec.begin_op(f"c{index}")
            try:
                (res,) = self.acceptance.run_criteria(index)
            finally:
                rec.end_op()
            ops.append(Operation(f"c{index}", res.runtime, bool(res.passed),
                                 "" if res.passed else res.detail))
        wall = clock() - start
        return PassResult(wall, ops,
                          [mass_error(v, e) for v, e in self.masses])


WORKLOADS = {w.name: w for w in (Suite, Verify)}

# Per-entry layer metrics: (metric prefix, span name, ((suffix, operation
# label), ...)).  Every traced run reports all of them; an entry that the
# workload does not run reads 0.
ENTRY_METRICS = (
    ("cli.entry_s", "cli.entry", tuple((n, n) for n in SUITE_ENTRIES)),
    ("mass.adm_s", "mass.adm_mass",
     tuple((n, n) for n in SUITE_ENTRIES if n != "ellipsoid_horizon")),
    ("acceptance", "acceptance.run_criteria",
     tuple((f"c{i}_s", f"c{i}") for i in VERIFY_CRITERIA)),
)

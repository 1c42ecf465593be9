"""Acceptance suite: ten numbered criteria with hard tolerances.

Each criterion is a self-contained function returning (passed, detail).
The tolerances are part of the package contract and are not to be
loosened to make a run pass; a red criterion means the implementation
regressed or the machine is far slower than the desk-scale target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .convexgeom import (Ellipsoid, SmoothLevelSet, Sphere, af_chain_gaps,
                         af_gap, quermassintegrals, superadditivity_gap)
from .graphgeom import scalar_curvature
from .jets import ExprField, RadialProfile, fd_jet
from .mass import (ScenarioEvaluation, adm_mass, bulk_mass,
                   divergence_identity_sup, flux_series, identity_tolerance,
                   spherical_mass)
from .quad import sphere_rule, unit_sphere_area
from .scenarios import make_scenario, scenario_names

SEED = 20260817
FD_STEPS = (0.16, 0.08, 0.04, 0.02)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime: float

    def gate_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index:2d} [{flag}] {self.name} "
                f"({1e3 * self.runtime:.1f} ms) {self.detail}")


def _probe_direction(n: int) -> np.ndarray:
    d = np.array([0.9, -0.35, 0.2, 0.45, -0.3][:n])
    return d / np.linalg.norm(d)


def _criterion_1() -> tuple[bool, str]:
    """Exterior Schwarzschild, n=3: every mass route hits m."""
    parts = []
    ok = True
    for m in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        scenario = make_scenario("schwarzschild3", m=m)
        ev = ScenarioEvaluation(scenario)
        adm = ev.adm
        dec = ev.decomposition
        pb = ev.bound
        dt = time.perf_counter() - t0
        adm_err = abs(adm.value - m)
        bnd_err = abs(dec.boundary - m)
        blk = abs(dec.bulk)
        pb_err = abs(pb - m)
        margin = abs(adm.value - pb)
        case_ok = (adm_err <= 1e-3 * m and bnd_err <= 1e-6 * m
                   and blk <= 1e-6 and pb_err <= 1e-8 * m
                   and margin <= 1e-3 * max(1.0, m) and dt <= 10.0)
        ok = ok and case_ok
        parts.append(f"m={m}: adm {adm_err:.1e}, boundary {bnd_err:.1e}, "
                     f"|bulk| {blk:.1e}, bound {pb_err:.1e}, "
                     f"margin {margin:.1e}, {1e3 * dt:.1f} ms")
    return ok, "; ".join(parts)


def _criterion_2() -> tuple[bool, str]:
    """Schwarzschild in n=4 and n=5: mass, flatness, Penrose equality."""
    parts = []
    ok = True
    for n in (4, 5):
        t0 = time.perf_counter()
        scenario = make_scenario("schwarzschild_n", n=n, m=1.0)
        ev = ScenarioEvaluation(scenario)
        adm = ev.adm
        pts = scenario.sample_points(1000, seed=SEED)
        max_r = float(np.max(np.abs(
            scalar_curvature(scenario.require_field(), pts))))
        pb = ev.bound
        dt = time.perf_counter() - t0
        adm_err = abs(adm.value - 1.0)
        eq_err = abs(adm.value - pb)
        case_ok = (adm_err <= 1e-2 and max_r <= 1e-9
                   and abs(pb - 1.0) <= 1e-6
                   and eq_err <= 1e-2 * max(1.0, pb) and dt <= 60.0)
        ok = ok and case_ok
        parts.append(f"n={n}: adm {adm_err:.1e}, max|R| {max_r:.1e}, "
                     f"equality {eq_err:.1e}, {1e3 * dt:.1f} ms")
    return ok, "; ".join(parts)


def _criterion_3() -> tuple[bool, str]:
    """div V = R pointwise across every scenario with a field."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for name in scenario_names():
        scenario = make_scenario(name)
        if scenario.field is None:
            continue
        worst = max(worst, divergence_identity_sup(
            scenario.field, scenario.sample_points(1000, seed=SEED)))
        count += 1
    dt = time.perf_counter() - t0
    ok = count >= 5 and worst <= 1e-9 and dt <= 5.0
    return ok, (f"{count} scenarios x 1000 points, worst scaled residual "
                f"{worst:.1e}, {1e3 * dt:.1f} ms")


def _criterion_4() -> tuple[bool, str]:
    """Flux and bulk mass agree on compactly concentrated bumps."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    for alpha in (0.05, 0.1, 0.2):
        scenario = make_scenario("bump", alpha=alpha)
        adm = adm_mass(scenario)
        blk = bulk_mass(scenario)
        gap = abs(adm.value - blk.value)
        tol = identity_tolerance(adm.value,
                                 adm.uncertainty + blk.uncertainty)
        case_ok = gap <= tol
        ok = ok and case_ok
        parts.append(f"alpha={alpha}: gap {gap:.2e} vs tol {tol:.2e}")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 60.0
    return ok, "; ".join(parts) + f", {1e3 * dt:.1f} ms"


def _criterion_5() -> tuple[bool, str]:
    """Aleksandrov-Fenchel gaps: zero on spheres, resolved elsewhere."""
    t0 = time.perf_counter()
    notes = []
    ok = True

    sphere = Sphere([0.2, -0.1, 0.4], 1.3)
    sph_rel = max(abs(rel) for _, _, rel
                  in af_chain_gaps(quermassintegrals(sphere)))
    ok = ok and sph_rel <= 1e-8
    notes.append(f"sphere rel gap {sph_rel:.1e}")

    for ratio in (1.5, 2.5, 4.0):
        body = Ellipsoid(np.zeros(3), [ratio, 1.1, 1.0])
        g_hi = af_gap(quermassintegrals(body, sphere_rule(3, 64)))
        g_lo = af_gap(quermassintegrals(body, sphere_rule(3, 32)))
        err = abs(g_hi - g_lo)
        strict = g_hi > 0.0 and g_hi > 2.0 * err
        ok = ok and strict
        notes.append(f"ratio {ratio}: gap {g_hi:.3e} > 2x err {err:.1e}"
                     if strict else f"ratio {ratio}: UNRESOLVED")

    chain_bodies = [
        Ellipsoid(np.zeros(3), [2.0, 1.5, 1.0]),
        SmoothLevelSet(ExprField("x1^4 + x2^4 + x3^4", 3), 1.0),
        Sphere(np.zeros(4), 2.0),
        Ellipsoid(np.zeros(4), [1.8, 1.4, 1.1, 1.0]),
    ]
    worst_chain = 0.0
    for body in chain_bodies:
        for _, _, rel in af_chain_gaps(quermassintegrals(body)):
            worst_chain = min(worst_chain, rel)
    ok = ok and worst_chain >= -1e-9
    notes.append(f"worst chain rel gap {worst_chain:.1e}")
    dt = time.perf_counter() - t0
    ok = ok and dt <= 30.0
    return ok, "; ".join(notes) + f", {1e3 * dt:.1f} ms"


def _criterion_6() -> tuple[bool, str]:
    """Gauss-Bonnet: V_{n-1} equals the unit sphere area on every body."""
    bodies = [
        Sphere([0.0, 0.0, 0.0], 0.8),
        Sphere([0.3, -0.2, 0.5], 1.7),
        Sphere(np.zeros(4), 1.2),
        Sphere(np.zeros(5), 1.0),
        Ellipsoid(np.zeros(3), [1.5, 1.2, 0.9]),
        Ellipsoid(np.zeros(4), [1.5, 1.2, 1.0, 0.8]),
        SmoothLevelSet(ExprField("x1^4 + x2^4 + x3^4", 3), 1.0,
                       rule=sphere_rule(3, 64)),
    ]
    worst = 0.0
    for body in bodies:
        rule = sphere_rule(body.n, 64 if body.n == 3 else 32) \
            if body.n <= 4 else None
        v = quermassintegrals(body, rule)
        rel = abs(v[-1] / unit_sphere_area(body.n) - 1.0)
        worst = max(worst, rel)
    ok = bool(worst <= 1e-6)
    return ok, f"{len(bodies)} bodies, worst defect {worst:.1e}"


def _criterion_7() -> tuple[bool, str]:
    """Radial masses: nonnegative by construction, equal to the flux."""
    rng = np.random.default_rng(SEED)  # case i: column i of each draw
    dims = rng.integers(3, 6, 1000)
    coefs = rng.uniform(-2.0, 2.0, (4, 1000))
    radii = rng.uniform(0.2, 50.0, 1000)
    order = np.argsort(radii)

    def slopes(r, k):  # at each drawn radius, the profile drawn with it
        a, b, c, d = coefs[:, order[np.searchsorted(radii[order], r)]]
        return [a * np.sin(b * r) / (1.0 + r) + c * r / (1.0 + r * r) + d
                ] + [np.zeros_like(r)] * (k - 1)

    sm = spherical_mass(RadialProfile(np.zeros_like, slopes, label="random"),
                        radii, dims)
    negatives = int(np.count_nonzero(~(sm >= 0.0)))
    worst = 0.0
    for name in ("schwarzschild3", "schwarzschild_n", "radial_custom",
                 "schwarzschild_perturbed"):
        scenario = make_scenario(name)
        sm = spherical_mass(scenario.profile, np.array(scenario.quad.radii),
                            scenario.n)
        gap = np.abs(np.array(flux_series(scenario).plain) - sm)
        worst = max(worst, float(np.max(gap / np.maximum(1.0, np.abs(sm)))))
    ok = negatives == 0 and worst <= 1e-10
    return ok, (f"1000 random profiles, {negatives} negatives; worst "
                f"flux agreement {worst:.1e}")


def _criterion_8() -> tuple[bool, str]:
    """Splitting a horizon area never lowers the Penrose bound."""
    rng = np.random.default_rng(SEED)  # case i: row i, its first k areas
    parts = rng.integers(1, 7, 1000)
    dims = rng.integers(3, 6, 1000)
    areas = rng.uniform(0.01, 50.0, (1000, 6))
    failures = zero_misses = 0
    for k, n in set(zip(parts.tolist(), dims.tolist())):
        gap = superadditivity_gap(areas[(parts == k) & (dims == n), :k], n)
        if k == 1:
            zero_misses += int(np.count_nonzero(gap != 0.0))
        else:
            failures += int(np.count_nonzero(~(gap > 0.0)))
    ok = failures == 0 and zero_misses == 0
    return ok, (f"1000 area vectors, {failures} nonpositive gaps, "
                f"{zero_misses} inexact singletons")


def _fd_slope(field, x) -> tuple[bool, str]:
    x = np.asarray(x, float)
    analytic = field.jet3(x)
    hs = np.array(FD_STEPS)
    fd = fd_jet(field, x, hs)  # a leading step axis: one reduction in all
    parts = ("grad", "hess", "third")
    a = np.hstack([getattr(analytic, p).ravel() for p in parts])
    d = np.hstack([getattr(fd, p).reshape(len(hs), -1) for p in parts])
    scale = 1.0 + float(np.abs(a).max())
    errs = np.abs(d - a).max(axis=1)
    if errs.max() <= 1e-9 * scale:
        return True, "exact"
    keep = errs > 1e-13 * scale
    if int(keep.sum()) < 3:
        return True, "roundoff"
    lh, le = np.log(hs[keep]), np.log(errs[keep])
    lh -= lh.mean()  # a least-squares slope, on centred logs
    slope = float(lh @ (le - le.mean()) / (lh @ lh))
    return 1.8 <= slope <= 2.2, f"{slope:.2f}"


def _random_expression(rng) -> str:
    def c() -> str:
        v = float(rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            v = -v
        return f"{v:.3f}"

    kind = int(rng.integers(0, 5))
    if kind == 0:
        return (f"{c()}*x1^3 + {c()}*x1*x2 + {c()}*x2^2*x3 + {c()}*x3")
    if kind == 1:
        return f"{c()}*exp({c()}*(x1^2 + x2^2 + x3^2)/4)"
    if kind == 2:
        return f"{c()}*sin({c()}*x1 + {c()}*x2) + {c()}*cos({c()}*x3)"
    if kind == 3:
        return f"sqrt(1 + ({c()}*x1 + {c()}*x2*x3)^2)"
    return f"{c()}*log(2 + x1^2 + x2^2) / (1 + x3^2)"


def _criterion_9() -> tuple[bool, str]:
    """Analytic jets match central differences at second order."""
    bad = []
    slopes = []
    for name in scenario_names():
        scenario = make_scenario(name)
        if scenario.field is None:
            continue
        if len(scenario.horizons) > 0:
            body = scenario.horizons.bodies[0]
            x = body.center + 2.2 * body.outer_radius() \
                * _probe_direction(scenario.n)
        else:
            x = 0.9 * _probe_direction(scenario.n)
        good, note = _fd_slope(scenario.field, x)
        slopes.append(f"{name}:{note}")
        if not good:
            bad.append(f"{name} ({note})")
    rng = np.random.default_rng(SEED + 9)
    for i in range(20):
        text = _random_expression(rng)
        field = ExprField(text, 3)
        x = rng.uniform(-0.8, 0.8, 3)
        good, note = _fd_slope(field, x)
        if not good:
            bad.append(f"expr {i} {text!r} ({note})")
    ok = not bad
    detail = "all built-ins and 20 random expressions at slope 2" \
        if ok else "failed: " + "; ".join(bad)
    return ok, detail


def _criterion_10() -> tuple[bool, str]:
    """Identical-seed suite runs produce byte-identical report bodies."""
    from .cli import EntryConfig, RunConfig, execute_run
    t0 = time.perf_counter()

    def one_run():
        run = RunConfig(entries=[EntryConfig(name=n)
                                 for n in scenario_names()],
                        checks=("all",), workers=2)
        code, document, _ = execute_run(run)
        return code, document.body_bytes()

    code_a, body_a = one_run()
    code_b, body_b = one_run()
    dt = time.perf_counter() - t0
    ok = body_a == body_b and code_a == code_b == 0
    return ok, (f"exit codes {code_a}/{code_b}, bodies "
                f"{'identical' if body_a == body_b else 'DIFFER'} "
                f"({len(body_a)} bytes), {1e3 * dt:.1f} ms")


CRITERIA = (
    ("schwarzschild n=3 mass chain", _criterion_1),
    ("higher-dimensional schwarzschild", _criterion_2),
    ("divergence identity", _criterion_3),
    ("bump flux vs bulk", _criterion_4),
    ("aleksandrov-fenchel gaps", _criterion_5),
    ("gauss-bonnet areas", _criterion_6),
    ("radial mass positivity", _criterion_7),
    ("bound superadditivity", _criterion_8),
    ("fd jet convergence", _criterion_9),
    ("report determinism", _criterion_10),
)


def run_criteria(only: int | None = None) -> list[CriterionResult]:
    results = []
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        if only is not None and idx != only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # the gate must report, not crash
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(index=idx, name=name, passed=passed,
                                       detail=detail,
                                       runtime=time.perf_counter() - t0))
    return results

"""Mass formulas for asymptotically flat graphs and the inequality checks.

The ADM mass is computed three ways and reconciled:

* boundary route: flux of (f_ii f_j - f_ij f_i) nu_j over large spheres,
  extrapolated in the radius (both the plain integrand and the variant
  carrying the extra 1/(1+|grad f|^2) factor);
* bulk route: integral of the scalar curvature in the flat measure over
  the exterior region, plus the geometric horizon term
  integral(H_0)/(2(n-1) omega) when a horizon is present;
* radial route: the closed form f_r(r)^2 r^{n-2}/2 for rotationally
  symmetric graphs, nonnegative term by term.

Checks package these into pass/fail outcomes: "identities" reconciles
the routes and the pointwise divergence identity, "pmt" tests mass
nonnegativity under sampled R >= 0, "penrose" tests the quermassintegral
lower bound.  Hypotheses are verified by sampling and reported; a failed
hypothesis is distinguished from a failed inequality.  A
``ScenarioEvaluation`` computes each quantity once: the flux estimate,
the bulk integral (one panel walk per bulk region) and one
quermassintegral vector per horizon body, which the horizon term, the
Penrose bound and the geometry table read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field
from functools import cached_property, partial
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .convexgeom import (HorizonSet, af_chain_gaps,
                         horizon_mean_curvature_term, penrose_bound,
                         quermassintegrals, superadditivity_gap)
from .errors import ConfigError, DomainError, NonConvexError
from .graphgeom import (boundary_integrand, divergence_of_V,
                        flux_integrands_from_jet, scalar_curvature)
from .jets import RadialField, RadialProfile, ScalarField
from .quad import (HORIZON_OFFSET, ExtrapolationResult, ExteriorRegion,
                   QuadConfig, SphereRule, exterior_volume_integrate,
                   extrapolate_limit, sphere_directions, sphere_integrate,
                   unit_sphere_area)

DIV_IDENTITY_TOL = 1e-9      # pointwise |div V - R| / (1 + |R|)
R_SIGN_TOL = 1e-9            # sampled scalar-curvature sign tolerance
IDENTITY_REL = 5e-3          # route-agreement relative tolerance
UNC_FACTOR = 5.0             # route-agreement quadrature-uncertainty factor
EQUALITY_ABS = 1e-3          # equality-case margin tolerance
HORIZON_OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)  # boundary-flux study


def mass_normalization(n: int) -> float:
    """The constant 2(n-1) omega_{n-1} dividing every mass integral."""
    return 2.0 * (n - 1) * unit_sphere_area(n)


def shell_sampler(n: int, lo: float, hi: float
                  ) -> Callable[[int, int], np.ndarray]:
    """Quasi-random point generator on the shell lo <= |x| <= hi.

    Radii are log-uniform, directions uniform.  The draw is rounded up
    to a power of two, which Sobol balance asks for; its first ``count``
    points do not depend on the draw size.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")

    def sample(count: int, seed: int) -> np.ndarray:
        eng = qmc.Sobol(d=n + 1, scramble=True, seed=seed)
        u = eng.random(1 << (count - 1).bit_length())[:count]
        radii = lo * (hi / lo) ** u[:, 0]
        return radii[:, None] * sphere_directions(u[:, 1:])

    return sample


@dataclass
class Scenario:
    """A graph configuration with everything needed to evaluate it."""

    name: str
    n: int
    field: ScalarField | None
    horizons: HorizonSet
    quad: QuadConfig
    bulk_region: tuple[ExteriorRegion, ...]  # disjoint supports of R
    params: dict = _field(default_factory=dict)
    expected: dict = _field(default_factory=dict)
    checks: tuple[str, ...] = ("identities",)
    sampler: Callable[[int, int], np.ndarray] | None = None
    description: str = ""
    exercises: tuple[str, ...] = ()

    @property
    def geometry_only(self) -> bool:
        return self.field is None

    @property
    def profile(self) -> RadialProfile | None:
        """The radial profile of a rotationally symmetric field."""
        return (self.field.profile if isinstance(self.field, RadialField)
                else None)

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        if self.sampler is None:
            raise ConfigError(f"scenario '{self.name}' has no point sampler")
        pts = np.asarray(self.sampler(count, seed), float)
        if pts.shape != (count, self.n):
            raise ConfigError("sampler returned a mismatched shape")
        return pts

    def require_field(self) -> ScalarField:
        if self.field is None:
            raise ConfigError(
                f"scenario '{self.name}' is geometry-only; the requested "
                "quantity needs a graph field")
        return self.field


# ----------------------------------------------------------------------
# boundary route
# ----------------------------------------------------------------------

@dataclass
class FluxSeries:
    """Flux masses per radius for both integrand variants."""

    radii: tuple[float, ...]
    plain: tuple[float, ...]
    weighted: tuple[float, ...]
    plain_err: tuple[float, ...]
    weighted_err: tuple[float, ...]


@dataclass
class MassEstimate:
    value: float
    uncertainty: float
    series: FluxSeries
    plain_limit: ExtrapolationResult
    weighted_limit: ExtrapolationResult


def horizon_clearance(scenario: Scenario) -> float:
    """Radius of the smallest origin-centered ball holding every horizon."""
    return max((np.linalg.norm(body.center) + body.outer_radius()
                for body in scenario.horizons), default=0.0)


def _flux_pair(scenario: Scenario, r: float, rule: SphereRule) -> tuple:
    """((plain, weighted) flux masses, their advisory errors) at radius r,
    both integrands taken from one jet per node set."""
    fld = scenario.require_field()
    clearance = horizon_clearance(scenario)
    if r <= clearance:
        raise DomainError(
            f"flux radius {r} does not enclose a horizon component "
            f"(needs r > {clearance:.3g})")

    def fn(pts):
        nu = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return np.stack(flux_integrands_from_jet(fld.jet3_many(pts, order=2),
                                                 nu))

    raw, err = sphere_integrate(fn, r, rule)
    c = mass_normalization(scenario.n)
    return (raw[0] / c, raw[1] / c), (err[0] / c, err[1] / c)


def adm_flux_mass(scenario: Scenario, r: float, weighted: bool = False,
                  rule: SphereRule | None = None) -> tuple[float, float]:
    """Flux mass at one radius: the sphere integral of
    (f_ii f_j - f_ij f_i) nu_j over S_r divided by 2(n-1) omega_{n-1}.

    ``weighted`` selects the variant with the extra 1/(1+|grad f|^2)
    factor; both converge to the ADM mass.  Returns (mass, advisory
    quadrature error).
    """
    rule = rule or scenario.quad.flux_rule(scenario.n)
    values, errors = _flux_pair(scenario, float(r), rule)
    return values[int(weighted)], errors[int(weighted)]


def flux_series(scenario: Scenario,
                rule: SphereRule | None = None) -> FluxSeries:
    radii = tuple(float(r) for r in scenario.quad.radii)
    rule = rule or scenario.quad.flux_rule(scenario.n)
    values, errors = zip(*(_flux_pair(scenario, r, rule) for r in radii))
    plain, weighted = zip(*values)
    plain_err, weighted_err = zip(*errors)
    return FluxSeries(radii, plain, weighted, plain_err, weighted_err)


def adm_mass(scenario: Scenario,
             rule: SphereRule | None = None) -> MassEstimate:
    """Extrapolated ADM mass from the flux series.

    The plain-integrand limit is the estimate; the uncertainty covers
    the extrapolation spread, the disagreement between the two
    integrand variants, and the per-radius quadrature advisories.
    """
    series = flux_series(scenario, rule)
    ep = extrapolate_limit(list(zip(series.radii, series.plain)))
    ew = extrapolate_limit(list(zip(series.radii, series.weighted)))
    unc = max(ep.uncertainty, ew.uncertainty, abs(ep.limit - ew.limit),
              max(series.plain_err), max(series.weighted_err))
    return MassEstimate(value=ep.limit, uncertainty=unc, series=series,
                        plain_limit=ep, weighted_limit=ew)


# ----------------------------------------------------------------------
# bulk route
# ----------------------------------------------------------------------

@dataclass
class BulkResult:
    value: float
    uncertainty: float
    tail_bound: float
    q_fit: float | None
    panels: int
    min_R: float
    max_abs_R: float
    sign_nodes: int
    regions: tuple[tuple[float, float, int], ...] = ()


def bulk_mass(scenario: Scenario,
              rule: SphereRule | None = None) -> BulkResult:
    """Exterior integral of R in the flat measure over 2(n-1) omega,
    summed over the scenario's bulk regions.

    Quadrature nodes feed a running min of R, each distinct node counted
    once.  A ``graded`` region, whose inner edge is a horizon, leaves out
    a 1% guard band there: the boundary layer evaluates R as a 0/0 form
    whose float noise says nothing about the sign hypothesis.
    ``regions`` holds (value, uncertainty, panels) of each region, in
    the same normalisation; they sum to the totals.
    """
    fld = scenario.require_field()
    cfg = scenario.quad
    rule = rule or cfg.body_rule(scenario.n)
    state = {"min": math.inf, "maxabs": 0.0, "count": 0}

    def fn(region, pts):
        vals = scalar_curvature(fld, pts)
        seen = vals
        if region.graded:
            center = np.asarray(region.center or (0.0,) * scenario.n)
            seen = vals[np.linalg.norm(pts - center, axis=1)
                        >= 1.01 * region.r_inner]
        if seen.size:
            state["min"] = min(state["min"], float(seen.min()))
            state["maxabs"] = max(state["maxabs"], float(np.abs(seen).max()))
            state["count"] += seen.size
        return vals

    parts = [exterior_volume_integrate(partial(fn, region), region, cfg, rule)
             for region in scenario.bulk_region]
    c = mass_normalization(scenario.n)
    return BulkResult(value=sum(vi.value for vi in parts) / c,
                      uncertainty=sum(vi.uncertainty for vi in parts) / c,
                      panels=sum(vi.panels for vi in parts),
                      tail_bound=sum(vi.tail_bound for vi in parts) / c,
                      q_fit=min((vi.q_fit for vi in parts
                                 if vi.q_fit is not None), default=None),
                      min_R=state["min"] if state["count"] else 0.0,
                      max_abs_R=state["maxabs"], sign_nodes=state["count"],
                      regions=tuple((vi.value / c, vi.uncertainty / c,
                                     vi.panels) for vi in parts))


# ----------------------------------------------------------------------
# radial route
# ----------------------------------------------------------------------

def spherical_mass(profile: RadialProfile, r, n: int):
    """Flux mass of a rotationally symmetric graph at radius r:
    f_r(r)^2 r^{n-2} / 2, nonnegative by the square."""
    rr = np.asarray(r, float)
    if np.any(rr <= profile.r_min):
        raise DomainError("radius is inside the profile domain boundary")
    out = 0.5 * np.asarray(profile.fr(rr), float) ** 2 * rr ** (n - 2)
    return float(out) if np.isscalar(r) or rr.ndim == 0 else out


# ----------------------------------------------------------------------
# horizon hypotheses and the decomposition
# ----------------------------------------------------------------------

@dataclass
class HypothesisReport:
    component: int
    level_variance: float
    level_ok: bool
    grad_min: float
    grad_floor: float
    grad_ok: bool

    @property
    def ok(self) -> bool:
        return self.level_ok and self.grad_ok


def horizon_hypotheses(scenario: Scenario,
                       rule: SphereRule | None = None
                       ) -> tuple[HypothesisReport, ...]:
    """Sampled checks that each horizon sits in a level set of f and
    that |grad f| blows up toward it.

    The level check measures the variance of f over a homothetic copy
    of the boundary at relative offset 1e-8 (bound 1e-8).  The gradient
    check samples |grad f| at relative offset eps = HORIZON_OFFSET and
    requires (1 - 1e-6)/sqrt((n-2) eps), the exact magnitude of a
    Schwarzschild profile there, at threshold 10^3 for n = 3, eps = 1e-6.
    """
    fld = scenario.require_field()
    rule = rule or scenario.quad.flux_rule(scenario.n)
    eps = HORIZON_OFFSET
    floor = (1.0 - 1e-6) / math.sqrt((scenario.n - 2) * eps)
    out = []
    for i, body in enumerate(scenario.horizons):
        pts, _ = body.surface_sample(rule)
        rays = pts - body.center
        lvl = fld.value(body.center + rays * (1.0 + 1e-8))
        var = float(np.var(lvl))
        jet = fld.jet3_many(body.center + rays * (1.0 + eps), order=2)
        gmin = float(np.linalg.norm(jet.grad, axis=1).min())
        out.append(HypothesisReport(
            component=i, level_variance=var, level_ok=var <= 1e-8,
            grad_min=gmin, grad_floor=floor, grad_ok=gmin >= floor))
    return tuple(out)


@dataclass
class Decomposition:
    """Boundary + bulk mass split and its reconciliation with the flux."""

    boundary: float
    bulk: float
    total: float
    adm: float
    adm_uncertainty: float
    bulk_uncertainty: float
    residual: float
    tolerance: float
    identity_ok: bool
    hypotheses: tuple[HypothesisReport, ...]

    @property
    def hypothesis_ok(self) -> bool:
        return all(h.ok for h in self.hypotheses)


def identity_tolerance(mass: float, uncertainty: float) -> float:
    return max(IDENTITY_REL * abs(mass), UNC_FACTOR * uncertainty)


def mass_decomposition(scenario: Scenario, est: MassEstimate,
                       bulk: BulkResult, quermass, rule: SphereRule
                       ) -> Decomposition:
    """Geometric boundary term plus bulk term, against the flux mass.

    ``quermass`` holds the quermassintegral vector of each horizon body;
    ``rule`` samples the horizon hypotheses.
    """
    scenario.require_field()
    hyps = (horizon_hypotheses(scenario, rule)
            if len(scenario.horizons) else ())
    boundary = horizon_mean_curvature_term(quermass)
    total = boundary + bulk.value
    residual = est.value - total
    tol = identity_tolerance(est.value, est.uncertainty + bulk.uncertainty)
    return Decomposition(boundary=boundary, bulk=bulk.value, total=total,
                         adm=est.value, adm_uncertainty=est.uncertainty,
                         bulk_uncertainty=bulk.uncertainty,
                         residual=residual, tolerance=tol,
                         identity_ok=abs(residual) <= tol,
                         hypotheses=hyps)


def horizon_flux_convergence(scenario: Scenario, quermass,
                             rule: SphereRule) -> list[dict]:
    """Gap between the f-dependent boundary flux at offset surfaces and
    the geometric mean-curvature term, with a fitted decay rate.

    ``quermass`` holds each horizon body's V vector, whose V_1/(2 omega)
    is the geometric term; ``rule`` samples the offset spheres.  How
    fast the offset flux approaches integral(H_0) is not prescribed;
    this measures it.  A gap already at roundoff reports rate None.
    """
    fld = scenario.require_field()
    n = scenario.n
    omega = unit_sphere_area(n)
    norm_c = mass_normalization(n)
    out = []
    for idx, (body, V) in enumerate(zip(scenario.horizons, quermass)):
        a = body.outer_radius()
        geo = float(V[1]) / (2.0 * omega)
        fluxes = []
        for eps in HORIZON_OFFSETS:
            r = a * (1.0 + eps)
            pts = body.center + r * rule.nodes
            vals = boundary_integrand(fld, pts, rule.nodes)
            fluxes.append(r ** (n - 1) * float(rule.weights @ vals) / norm_c)
        gaps = [abs(v - geo) for v in fluxes]
        keep = [(e, g) for e, g in zip(HORIZON_OFFSETS, gaps)
                if g > 1e-13 * (1.0 + abs(geo))]
        rate = None
        if len(keep) >= 3:
            le = np.log([e for e, _ in keep])
            lg = np.log([g for _, g in keep])
            rate = float(np.polyfit(le, lg, 1)[0])
        out.append({"component": idx, "radius": a, "geometric": geo,
                    "offsets": HORIZON_OFFSETS, "fluxes": tuple(fluxes),
                    "gaps": tuple(gaps), "rate": rate})
    return out


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

@dataclass
class CheckOutcome:
    name: str
    scenario: str
    passed: bool
    hypothesis_ok: bool
    vacuous: bool
    values: dict
    notes: tuple[str, ...]


class ScenarioEvaluation:
    """Caches the expensive per-scenario quantities across checks."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def flux_rule(self) -> SphereRule:
        return self.scenario.quad.flux_rule(self.scenario.n)

    @cached_property
    def adm(self) -> MassEstimate:
        return adm_mass(self.scenario, rule=self.flux_rule)

    @cached_property
    def bulk(self) -> BulkResult:
        return bulk_mass(self.scenario)

    @cached_property
    def quermass(self) -> list[np.ndarray]:
        """V_0..V_{n-1} of each horizon body: its one surface pass."""
        return [quermassintegrals(body, self.flux_rule)
                for body in self.scenario.horizons]

    @cached_property
    def decomposition(self) -> Decomposition:
        return mass_decomposition(self.scenario, self.adm, self.bulk,
                                  self.quermass, self.flux_rule)

    @cached_property
    def sampled_R(self) -> tuple[float, float, int]:
        """(min R, max |R|, count) over quasi-random bulk points plus the
        volume-quadrature nodes outside the boundary guard band."""
        pts = self.scenario.sample_points(10_000, self.scenario.quad.seed + 1)
        vals = scalar_curvature(self.scenario.require_field(), pts)
        bulk = self.bulk
        return (min(float(vals.min()), bulk.min_R),
                max(float(np.abs(vals).max()), bulk.max_abs_R),
                len(pts) + bulk.sign_nodes)

    @cached_property
    def geometry(self) -> list[dict]:
        """Quermassintegral table and inequality gaps per horizon body."""
        omega = unit_sphere_area(self.scenario.n)
        out = []
        for idx, V in enumerate(self.quermass):
            chain = af_chain_gaps(V)
            out.append({
                "component": idx,
                "quermassintegrals": tuple(float(v) for v in V),
                "area": float(V[0]),
                "gauss_defect": float(V[-1] / omega - 1.0),
                "min_chain_gap_rel": min(g for _, _, g in chain),
            })
        return out

    @cached_property
    def bound(self) -> float:
        """The Penrose area bound of the horizon components."""
        return penrose_bound([g["area"] for g in self.geometry],
                             self.scenario.n)

    def check(self, name: str) -> CheckOutcome:
        if name == "identities":
            return self._identities()
        if name == "pmt":
            return self._pmt()
        if name == "penrose":
            return self._penrose()
        raise ConfigError(f"unknown check '{name}'")

    def run(self, names=("all",)) -> list[CheckOutcome]:
        requested: list[str] = []
        for name in names:
            if name == "all":
                requested.extend(self.scenario.checks)
            else:
                requested.append(name)
        return [self.check(name) for name in dict.fromkeys(requested)]

    # -- individual checks ------------------------------------------------

    def _identities(self) -> CheckOutcome:
        scn = self.scenario
        values: dict = {}
        notes: list[str] = []
        ok = True

        if scn.field is not None:
            pts = scn.sample_points(1000, scn.quad.seed)
            dv = divergence_of_V(scn.field, pts)
            R = scalar_curvature(scn.field, pts)
            sup = float(np.max(np.abs(dv - R) / (1.0 + np.abs(R))))
            values["div_identity_sup"] = sup
            if sup > DIV_IDENTITY_TOL:
                ok = False
                notes.append(f"divergence identity off by {sup:.3e}")

            dec = self.decomposition
            values.update(adm=dec.adm, boundary_term=dec.boundary,
                          bulk_term=dec.bulk, residual=dec.residual,
                          residual_tolerance=dec.tolerance)
            if not dec.identity_ok:
                ok = False
                notes.append(
                    f"mass routes disagree: residual {dec.residual:.3e} "
                    f"exceeds {dec.tolerance:.3e}")

            ep, ew = self.adm.plain_limit, self.adm.weighted_limit
            gap = abs(ep.limit - ew.limit)
            # two independently extrapolated limits: 2 sigma agreement
            budget = 2.0 * (ep.uncertainty + ew.uncertainty) + 1e-10 * (
                1.0 + abs(ep.limit))
            values["variant_gap"] = gap
            values["variant_budget"] = budget
            if gap > budget:
                ok = False
                notes.append("integrand variants extrapolate apart")

            if scn.profile is not None:
                rel = 0.0
                series = self.adm.series
                for r, flux in zip(series.radii, series.plain):
                    closed = spherical_mass(scn.profile, r, scn.n)
                    rel = max(rel, abs(flux - closed) / (1.0 + abs(closed)))
                values["radial_agreement"] = rel
                if rel > 1e-10:
                    ok = False
                    notes.append("radial closed form disagrees with flux")

        if len(scn.horizons):
            defect = max(abs(g["gauss_defect"]) for g in self.geometry)
            chain = min(g["min_chain_gap_rel"] for g in self.geometry)
            values["gauss_defect"] = defect
            values["min_chain_gap_rel"] = chain
            if defect > 1e-6:
                ok = False
                notes.append("Gauss-map normalization violated")
            if chain < -1e-9:
                ok = False
                notes.append("a quermassintegral chain inequality failed")
            if len(scn.horizons) > 1:
                gap = superadditivity_gap(
                    [g["area"] for g in self.geometry], scn.n)
                values["superadditivity_gap"] = gap
                if gap < 0.0:
                    ok = False
                    notes.append("bound superadditivity failed")

        return CheckOutcome(name="identities", scenario=scn.name,
                            passed=ok, hypothesis_ok=True, vacuous=False,
                            values=values, notes=tuple(notes))

    def _pmt(self) -> CheckOutcome:
        scn = self.scenario
        scn.require_field()
        min_R, max_abs_R, count = self.sampled_R
        est = self.adm
        dec = self.decomposition
        values = {"mass": est.value, "uncertainty": est.uncertainty,
                  "min_R": min_R, "max_abs_R": max_abs_R,
                  "sign_sample_size": count,
                  "identity_residual": dec.residual}
        notes: list[str] = []
        hyp_ok = min_R >= -R_SIGN_TOL * (1.0 + max_abs_R)
        if scn.profile is not None:
            lo = scn.profile.r_min if scn.profile.r_min > 0 else 1e-3
            radii = np.geomspace(lo * (1.0 + 1e-6) if scn.profile.r_min > 0
                                 else lo, scn.quad.r_max, 64)
            sm = spherical_mass(scn.profile, radii, scn.n)
            values["min_radial_flux_mass"] = float(np.min(sm))
            notes.append("rotationally symmetric: flux mass nonnegative "
                         "at every sampled radius")
        if not hyp_ok:
            notes.append("hypothesis not met (R changes sign); "
                         "identity still verified" if dec.identity_ok
                         else "hypothesis not met and the mass identity "
                              "residual is out of tolerance")
            return CheckOutcome(name="pmt", scenario=scn.name,
                                passed=dec.identity_ok, hypothesis_ok=False,
                                vacuous=True, values=values,
                                notes=tuple(notes))
        tol = max(est.uncertainty, 1e-12 * (1.0 + abs(est.value)))
        passed = est.value >= -tol
        if not passed:
            notes.append(f"mass {est.value:.3e} is negative beyond "
                         f"tolerance {tol:.3e}")
        return CheckOutcome(name="pmt", scenario=scn.name, passed=passed,
                            hypothesis_ok=True, vacuous=False,
                            values=values, notes=tuple(notes))

    def _penrose(self) -> CheckOutcome:
        scn = self.scenario
        scn.require_field()
        notes: list[str] = []
        convex = True
        try:
            self.geometry  # the curvature solve rejects non-convex bodies
        except NonConvexError as exc:
            convex = False
            notes.append(f"horizon convexity violated: {exc}")
        hyp_ok = convex
        min_R, max_abs_R, count = self.sampled_R
        if min_R < -R_SIGN_TOL * (1.0 + max_abs_R):
            hyp_ok = False
            notes.append(f"sampled min R = {min_R:.3e} violates the "
                         "sign hypothesis")
        # the bound needs the same curvature solve, so it has no value
        # for a non-convex horizon
        bound = self.bound if convex else math.nan
        est = self.adm
        bulk = self.bulk
        margin = est.value - bound - bulk.value
        tol = max(UNC_FACTOR * (est.uncertainty + bulk.uncertainty),
                  EQUALITY_ABS * (1.0 + abs(est.value)))
        values = {"mass": est.value, "bound": bound, "bulk": bulk.value,
                  "margin": margin, "tolerance": tol, "min_R": min_R,
                  "sign_sample_size": count}
        if not hyp_ok:
            return CheckOutcome(name="penrose", scenario=scn.name,
                                passed=False, hypothesis_ok=False,
                                vacuous=False, values=values,
                                notes=tuple(notes))
        passed = est.value >= bound - tol
        if not passed:
            notes.append(f"mass {est.value:.6g} falls below the bound "
                         f"{bound:.6g}")
        elif margin > tol:
            notes.append("inequality holds strictly")
        else:
            notes.append("equality case within tolerance")
        return CheckOutcome(name="penrose", scenario=scn.name,
                            passed=passed, hypothesis_ok=True,
                            vacuous=False, values=values,
                            notes=tuple(notes))

    # -- report assembly ---------------------------------------------------

    def summary(self) -> dict:
        scn = self.scenario
        out: dict = {
            "scenario": scn.name,
            "dimension": scn.n,
            "parameters": dict(scn.params),
            "geometry_only": scn.geometry_only,
            "description": scn.description,
            "exercises": list(scn.exercises),
        }
        if scn.field is not None:
            est = self.adm
            series = est.series
            dec = self.decomposition
            min_R, max_abs_R, count = self.sampled_R
            out["flux_table"] = {
                "radii": list(series.radii),
                "plain": list(series.plain),
                "weighted": list(series.weighted),
            }
            out["adm_mass"] = {
                "value": est.value,
                "uncertainty": est.uncertainty,
                "plain_rate": est.plain_limit.rate,
                "weighted_rate": est.weighted_limit.rate,
                "monotone": est.plain_limit.monotone,
            }
            out["bulk_mass"] = {
                "value": self.bulk.value,
                "uncertainty": self.bulk.uncertainty,
                "tail_bound": self.bulk.tail_bound,
                "q_fit": self.bulk.q_fit,
                "panels": self.bulk.panels,
            }
            out["decomposition"] = {
                "boundary": dec.boundary,
                "bulk": dec.bulk,
                "total": dec.total,
                "residual": dec.residual,
                "tolerance": dec.tolerance,
                "identity_ok": dec.identity_ok,
            }
            out["scalar_curvature_sample"] = {
                "min": min_R, "max_abs": max_abs_R, "count": count}
            if len(scn.horizons):
                out["hypotheses"] = [
                    {"component": h.component,
                     "level_variance": h.level_variance,
                     "level_ok": h.level_ok,
                     "grad_min": h.grad_min,
                     "grad_floor": h.grad_floor,
                     "grad_ok": h.grad_ok}
                    for h in dec.hypotheses]
                out["boundary_convergence"] = horizon_flux_convergence(
                    scn, self.quermass, self.flux_rule)
        if len(scn.horizons):
            out["penrose_bound"] = self.bound
            out["bodies"] = self.geometry
        if "mass" in scn.expected:
            out["expected_mass"] = scn.expected["mass"]
        if "bound" in scn.expected:
            out["expected_bound"] = scn.expected["bound"]
        return out

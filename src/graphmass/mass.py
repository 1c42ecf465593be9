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
Penrose bound and the geometry table read.  Every sphere integral is
one ``quad`` core call, on a rule that the scenario's config names or,
where ``ScalarField.radial_about`` says the field is radial about the
sphere's centre, on ``quad.point_rule``: one point per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .convexgeom import (HorizonSet, Sphere, af_chain_gaps,
                         horizon_mean_curvature_term, penrose_bound,
                         quermassintegrals, superadditivity_gap)
from .errors import ConfigError, DomainError, NonConvexError
from .graphgeom import (boundary_integrand, curvature_and_scale,
                        divergence_of_V, flux_integrands_from_jet,
                        scalar_curvature)
from .jets import RadialField, RadialProfile, ScalarField, _profile_at
from .quad import (HORIZON_OFFSET, ExtrapolationResult, ExteriorRegion,
                   QuadConfig, exterior_volume_integrate, extrapolate_limit,
                   point_rule, sobol, sphere_directions, sphere_integrals,
                   sphere_integrate, unit_sphere_area)

DIV_IDENTITY_TOL = 1e-9      # pointwise |div V - R| / (1 + |R|)
R_SIGN_TOL = 1e-9            # sampled scalar-curvature sign tolerance
IDENTITY_REL = 5e-3          # route-agreement relative tolerance
UNC_FACTOR = 5.0             # route-agreement quadrature-uncertainty factor
EQUALITY_ABS = 1e-3          # equality-case margin tolerance
HORIZON_OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)  # boundary-flux study
# Bytes of third tensors in one order-3 jet batch.  Much smaller batches
# cost resident memory instead of saving it: each freed batch raises
# glibc's mmap threshold, which then keeps later temporaries on the heap.
JET3_BATCH_BYTES = 1 << 25


def mass_normalization(n: int) -> float:
    """The constant 2(n-1) omega_{n-1} dividing every mass integral."""
    return 2.0 * (n - 1) * unit_sphere_area(n)


@lru_cache(maxsize=16)
def _unit_draw(d: int, count: int, seed: int) -> tuple:
    """The first coordinate of ``sobol(d, count, seed)`` and the unit
    directions of the others, drawn once per process and read-only:
    every shell sampler of one dimension shares them."""
    u = sobol(d, count, seed)
    first, dirs = u[:, 0].copy(), sphere_directions(u[:, 1:])
    first.flags.writeable = dirs.flags.writeable = False
    return first, dirs


def shell_sampler(n: int, lo: float, hi: float
                  ) -> Callable[[int, int], np.ndarray]:
    """Quasi-random point generator on the shell lo <= |x| <= hi.

    Radii are log-uniform, directions uniform.  Exactly ``count`` Sobol
    points are drawn; they are the first ``count`` of any longer draw.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")

    def sample(count: int, seed: int) -> np.ndarray:
        first, dirs = _unit_draw(n + 1, count, seed)
        return (lo * (hi / lo) ** first)[:, None] * dirs

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


def flux_series(scenario: Scenario, radii=None) -> FluxSeries:
    """Flux masses of both integrand variants at each radius (the
    scenario's flux radii when ``radii`` is None), both from one jet per
    radius: on the nodes of the flux rule and its ``half``, or on
    ``point_rule`` where the field is radial about the origin over the
    radii."""
    fld = scenario.require_field()
    radii = tuple(float(r) for r in (
        scenario.quad.radii if radii is None else radii))
    clearance = horizon_clearance(scenario)
    if min(radii) <= clearance:
        raise DomainError(
            f"flux radius {min(radii)} does not enclose a horizon component "
            f"(needs r > {clearance:.3g})")

    def fn(pts):
        nu = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return np.stack(flux_integrands_from_jet(fld.jet3_many(pts, order=2),
                                                 nu))

    c = mass_normalization(scenario.n)
    rule = (point_rule(scenario.n)
            if fld.radial_about(np.zeros(scenario.n), min(radii), max(radii))
            else scenario.quad.flux_rule(scenario.n))
    values, errors = zip(*(sphere_integrate(fn, r, rule) for r in radii))
    plain, weighted = (tuple(v / c for v in col) for col in zip(*values))
    plain_err, weighted_err = (tuple(e / c for e in col)
                               for col in zip(*errors))
    return FluxSeries(radii, plain, weighted, plain_err, weighted_err)


def adm_flux_mass(scenario: Scenario, r: float,
                  weighted: bool = False) -> tuple[float, float]:
    """(flux mass, advisory quadrature error) at one radius from
    ``flux_series``; ``weighted`` picks the 1/(1+|grad f|^2) variant."""
    s = flux_series(scenario, (r,))
    return ((s.weighted[0], s.weighted_err[0]) if weighted
            else (s.plain[0], s.plain_err[0]))


def adm_mass(scenario: Scenario) -> MassEstimate:
    """Extrapolated ADM mass from the flux series.

    The plain-integrand limit is the estimate; the uncertainty covers
    the extrapolation spread, the disagreement between the two
    integrand variants, and the per-radius quadrature advisories, which
    are exactly 0 on a field radial about the origin.
    """
    series = flux_series(scenario)
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


def bulk_mass(scenario: Scenario) -> BulkResult:
    """Exterior integral of R in the flat measure over 2(n-1) omega,
    summed over the scenario's bulk regions.

    A region whose field is radial about its centre on the whole walked
    annulus (``ScalarField.radial_about``) walks its shells on
    ``point_rule``: R is evaluated once per radius, at c + r e_1, and
    each shell integral is r^{n-1} |S^{n-1}| R(r).  That holds for the
    radial profiles, for each annulus of the glued field, and for an
    expression that reads no coordinate x_i, such as flat's ``0`` and
    bump's ``a*exp(-r^2)``.  Other regions walk the body rule: R at every
    node of it and of its ``half``.  The tail fit past r_max takes the
    walk's route, without the ``half``, and reads R and the size T of
    its cancelling terms from the same derivatives, at the tail radii
    only: a radius whose shell value of R is at most ``quad.ROUNDOFF_K``
    eps times that of T is roundoff, not tail.

    Every R value feeds a running min of R and max of |R|.  ``sign_nodes``
    counts the distinct nodes of every evaluated shell, tail included:
    on the point rule each node of the body rule and of its ``half``
    carries the radius' value by symmetry, and on the nodes it counts
    those evaluated.  A ``graded`` region, whose inner edge is a
    horizon, leaves out a 1% guard band there: the boundary layer
    evaluates R as a 0/0 form whose float noise says nothing about the
    sign hypothesis.  ``regions`` holds (value, uncertainty, panels) of
    each region, in the same normalisation; they sum to the totals.
    """
    fld = scenario.require_field()
    cfg = scenario.quad
    n = scenario.n
    rule = cfg.body_rule(n)
    shell_nodes = sum(len(q.weights) for q in (rule, rule.half)
                      if q is not None)
    state = {"min": math.inf, "maxabs": 0.0, "count": 0}

    def fn(region, center, nodes_each, pts, scale=False):
        if scale:
            vals, cancelling = curvature_and_scale(fld, pts)
        else:
            vals = scalar_curvature(fld, pts)
        seen = vals
        if region.graded:
            seen = vals[np.linalg.norm(pts - center, axis=1)
                        >= 1.01 * region.r_inner]
        if seen.size:
            state["min"] = min(state["min"], float(seen.min()))
            state["maxabs"] = max(state["maxabs"], float(np.abs(seen).max()))
            state["count"] += seen.size * nodes_each
        return np.stack([vals, cancelling]) if scale else vals

    parts = []
    for region in scenario.bulk_region:
        center = np.asarray(region.center or (0.0,) * n, float)
        r_outer = cfg.r_max if region.r_outer is None else region.r_outer
        radial = fld.radial_about(center, region.r_inner, r_outer)
        each = shell_nodes if radial else 1
        parts.append(exterior_volume_integrate(
            partial(fn, region, center, 1), region, cfg, rule,
            partial(fn, region, center, each) if radial else None,
            partial(fn, region, center, each, scale=True)))
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
    out = 0.5 * _profile_at(profile, rr, (1,))[0] ** 2 * rr ** (n - 2)
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


def horizon_hypotheses(scenario: Scenario) -> tuple[HypothesisReport, ...]:
    """Sampled checks that each horizon sits in a level set of f and
    that |grad f| blows up toward it.

    The level check measures the variance of f over a homothetic copy
    of the boundary at relative offset 1e-8 (bound 1e-8), on the flux
    rule's nodes, or on one node where the horizon is a sphere and the
    field is radial about its centre out to offset eps = HORIZON_OFFSET:
    f is then one value on the copy, so its variance is 0.  The gradient
    check samples |grad f| at offset eps on every node, as |h_r| where
    the field has radial derivatives and from an order-2 jet elsewhere,
    and requires (1 - 1e-6)/sqrt((n-2) eps), the exact magnitude of a
    Schwarzschild profile there, at threshold 10^3 for n = 3, eps = 1e-6.
    """
    fld = scenario.require_field()
    rule = scenario.quad.flux_rule(scenario.n)
    eps = HORIZON_OFFSET
    floor = (1.0 - 1e-6) / math.sqrt((scenario.n - 2) * eps)
    out = []
    for i, body in enumerate(scenario.horizons):
        pts, _ = body.surface_sample(rule)
        rays = pts - body.center
        a = body.outer_radius()
        level_rays = (rays[:1] if isinstance(body, Sphere) and
                      fld.radial_about(body.center, a, a * (1.0 + eps))
                      else rays)
        lvl = fld.value(body.center + level_rays * (1.0 + 1e-8))
        var = float(np.var(lvl))
        near = body.center + rays * (1.0 + eps)
        radial = fld.radial_derivatives(near)
        grad = (np.linalg.norm(fld.jet3_many(near, order=2).grad, axis=1)
                if radial is None else np.abs(radial[1]))
        gmin = float(grad.min())
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
    residual: float
    tolerance: float
    identity_ok: bool
    hypotheses: tuple[HypothesisReport, ...]

    @property
    def hypothesis_ok(self) -> bool:
        return all(h.ok for h in self.hypotheses)


def divergence_identity_sup(field: ScalarField, pts: np.ndarray) -> float:
    """sup of |div V - R| / (1 + |R|) over the points: the order-3 route
    against the closed form, its jets built in batches of at most
    JET3_BATCH_BYTES of third tensors."""
    step = max(1, JET3_BATCH_BYTES // (8 * field.n ** 3))
    dv = np.concatenate([divergence_of_V(field, pts[i:i + step])
                         for i in range(0, len(pts), step)])
    R = scalar_curvature(field, pts)
    return float(np.max(np.abs(dv - R) / (1.0 + np.abs(R))))


def identity_tolerance(mass: float, uncertainty: float) -> float:
    return max(IDENTITY_REL * abs(mass), UNC_FACTOR * uncertainty)


def mass_decomposition(scenario: Scenario, est: MassEstimate,
                       bulk: BulkResult, quermass) -> Decomposition:
    """Geometric boundary term plus bulk term, against the flux mass.

    ``quermass`` holds the quermassintegral vector of each horizon body.
    """
    scenario.require_field()
    hyps = (horizon_hypotheses(scenario)
            if len(scenario.horizons) else ())
    boundary = horizon_mean_curvature_term(quermass)
    total = boundary + bulk.value
    residual = est.value - total
    tol = identity_tolerance(est.value, est.uncertainty + bulk.uncertainty)
    return Decomposition(boundary=boundary, bulk=bulk.value, total=total,
                         adm=est.value, residual=residual, tolerance=tol,
                         identity_ok=abs(residual) <= tol,
                         hypotheses=hyps)


def horizon_flux_convergence(scenario: Scenario, quermass) -> list[dict]:
    """Gap between the f-dependent boundary flux at offset surfaces and
    the geometric mean-curvature term, with a fitted decay rate.

    ``quermass`` holds each horizon body's V vector, whose V_1/(2 omega)
    is the geometric term.  The offset spheres about each body take the
    flux rule's nodes without its ``half``, or ``point_rule`` where the
    field is radial about the body's centre, all offsets in one batch;
    the rule's nodes are the outward normals.  How fast the offset flux
    approaches integral(H_0) is not prescribed; this measures it.  A gap
    already at roundoff reports rate None.
    """
    fld = scenario.require_field()
    n = scenario.n
    omega = unit_sphere_area(n)
    norm_c = mass_normalization(n)
    node_rule = replace(scenario.quad.flux_rule(n), half=None)
    out = []
    for idx, (body, V) in enumerate(zip(scenario.horizons, quermass)):
        a = body.outer_radius()
        geo = float(V[1]) / (2.0 * omega)
        radii = a * (1.0 + np.array(HORIZON_OFFSETS))
        rule = (point_rule(n)
                if fld.radial_about(body.center, radii.min(), radii.max())
                else node_rule)
        normals = np.tile(rule.nodes, (len(radii), 1))
        fluxes = [float(v) / norm_c for v in sphere_integrals(
            lambda pts: boundary_integrand(fld, pts, normals), radii, rule,
            body.center)[0]]
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
    def adm(self) -> MassEstimate:
        return adm_mass(self.scenario)

    @cached_property
    def bulk(self) -> BulkResult:
        return bulk_mass(self.scenario)

    @cached_property
    def quermass(self) -> list[np.ndarray]:
        """V_0..V_{n-1} of each horizon body: its one surface pass."""
        rule = self.scenario.quad.flux_rule(self.scenario.n)
        return [quermassintegrals(body, rule)
                for body in self.scenario.horizons]

    @cached_property
    def decomposition(self) -> Decomposition:
        return mass_decomposition(self.scenario, self.adm, self.bulk,
                                  self.quermass)

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
    def R_sign_ok(self) -> bool:
        """Whether the sampled R meets the sign hypothesis R >= 0, to
        ``R_SIGN_TOL`` relative to the largest |R| sampled."""
        min_R, max_abs_R, _ = self.sampled_R
        return min_R >= -R_SIGN_TOL * (1.0 + max_abs_R)

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
            sup = divergence_identity_sup(
                scn.field, scn.sample_points(1000, scn.quad.seed))
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
                series = self.adm.series
                closed = spherical_mass(scn.profile, np.array(series.radii),
                                        scn.n)
                rel = float(np.max(np.abs(np.subtract(series.plain, closed))
                                   / (1.0 + np.abs(closed))))
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
        if scn.profile is not None:
            lo = scn.profile.r_min if scn.profile.r_min > 0 else 1e-3
            radii = np.geomspace(lo * (1.0 + 1e-6) if scn.profile.r_min > 0
                                 else lo, scn.quad.r_max, 64)
            sm = spherical_mass(scn.profile, radii, scn.n)
            values["min_radial_flux_mass"] = float(np.min(sm))
            notes.append("rotationally symmetric: flux mass nonnegative "
                         "at every sampled radius")
        if not self.R_sign_ok:
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
        hyp_ok = convex and self.R_sign_ok
        min_R, _, count = self.sampled_R
        if not self.R_sign_ok:
            notes.append(f"sampled min R = {min_R:.3e} violates the "
                         "sign hypothesis")
        # the bound needs the same curvature solve, so it has no value
        # for a non-convex horizon
        bound = self.bound if convex else math.nan
        # the AF inequality bounds the horizon term by the area bound
        af_deficit = (horizon_mean_curvature_term(self.quermass) - bound
                      if convex else math.nan)
        est = self.adm
        bulk = self.bulk
        slack = est.value - bound
        # margin is the mass identity's residual, not the bound's slack
        margin = slack - bulk.value
        tol = max(UNC_FACTOR * (est.uncertainty + bulk.uncertainty),
                  EQUALITY_ABS * (1.0 + abs(est.value)))
        values = {"mass": est.value, "bound": bound, "bulk": bulk.value,
                  "margin": margin, "slack": slack, "af_deficit": af_deficit,
                  "tolerance": tol, "min_R": min_R,
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
        elif slack > tol:
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
                    scn, self.quermass)
        if len(scn.horizons):
            out["penrose_bound"] = self.bound
            out["bodies"] = self.geometry
        if "mass" in scn.expected:
            out["expected_mass"] = scn.expected["mass"]
        if "bound" in scn.expected:
            out["expected_bound"] = scn.expected["bound"]
        return out

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
the bulk integral (one panel walk per bulk region), one quermassintegral
vector per horizon body (read by the horizon term, the Penrose bound and
the geometry table), the decomposition, whose horizon term the Penrose
check also reads, and the horizon hypotheses, which only the report
reads.  Every sphere integral is one ``quad`` core call, on a rule that
the scenario's config names or, where ``ScalarField.radial_about`` says
the field is radial about the sphere's centre, on ``quad.point_rule``:
one point per radius.  ``_rule_about`` makes that choice, also for the
horizon hypotheses, which read one node of a round horizon; ``quad``
walks the rule it is given.  The same test picks the scenario's sample
shells (``Shell``) on which the sign and identity samples read R once
per radius of a geometric grid; other shells keep
``Scenario.sample_points``' Sobol points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field, replace
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

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
                   SphereRule, norm_sq, point_rule, sobol, sphere_directions,
                   sphere_integrals, sphere_integrate, unit_sphere_area)

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
# R radial on a sample shell: radii per decade of its geometric grid, and
# the batched rounds refining its minimum and their radii, as powers of
# the last round's spacing
SAMPLE_RADII_PER_DECADE = 32
REFINE_ROUNDS, REFINE_POINTS = 3, 33
_REFINE_STEPS = np.linspace(-1.0, 1.0, REFINE_POINTS)


def mass_normalization(n: int) -> float:
    """The constant 2(n-1) omega_{n-1} dividing every mass integral."""
    return 2.0 * (n - 1) * unit_sphere_area(n)


@lru_cache(maxsize=16)
def _unit_draw(d: int, count: int, seed: int) -> tuple:
    """The first coordinate of ``sobol(d, count, seed)`` and the unit
    directions of the others, drawn once per process and read-only:
    every sample shell of one dimension shares them."""
    u = sobol(d, count, seed)
    first, dirs = u[:, 0].copy(), sphere_directions(u[:, 1:])
    first.flags.writeable = dirs.flags.writeable = False
    return first, dirs


class Shell(NamedTuple):
    """lo <= |x - center| <= hi (center None: the origin), drawing
    ``weight`` shares of a scenario's sample points."""

    lo: float
    hi: float
    center: tuple[float, ...] | None = None
    weight: int = 1


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
    shells: tuple[Shell, ...] = ()  # where the hypothesis samples draw
    description: str = ""
    exercises: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(0 < s.lo < s.hi for s in self.shells):
            raise ValueError("need 0 < lo < hi")

    @property
    def geometry_only(self) -> bool:
        return self.field is None

    @property
    def profile(self) -> RadialProfile | None:
        """The radial profile of a rotationally symmetric field."""
        return (self.field.profile if isinstance(self.field, RadialField)
                else None)

    def sample_points(self, count: int, seed: int, skip=()) -> np.ndarray:
        """Quasi-random points on the shells not in ``skip``, shell by
        shell: radii log-uniform, directions uniform.  Of ``count`` points
        shell i takes count * weight_i // (sum of weights), the last shell
        the rest, drawn at seed + i: the first points of any longer draw
        of that shell."""
        if not self.shells:
            raise ConfigError(f"scenario '{self.name}' has no point sampler")
        w = [s.weight for s in self.shells]
        ks = [count * x // sum(w) for x in w[:-1]]
        out = [np.empty((0, self.n))]
        for i, (s, k) in enumerate(zip(self.shells, ks + [count - sum(ks)])):
            if s not in skip:
                first, dirs = _unit_draw(self.n + 1, k, seed + i)
                pts = (s.lo * (s.hi / s.lo) ** first)[:, None] * dirs
                out.append(pts if s.center is None else s.center + pts)
        return np.concatenate(out)

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


def _on_rays(centers: np.ndarray, radii, dirs) -> np.ndarray:
    """c + r d for each centre c and the radii r in its row of ``radii``,
    d the one row of ``dirs`` or the row of each radius."""
    r = np.concatenate([np.empty(0), *radii])
    return (np.repeat(centers, [len(x) for x in radii], axis=0)
            + r[:, None] * dirs)


def _R_at(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    """``scalar_curvature``, without its fixed cost on no points."""
    return scalar_curvature(field, pts) if len(pts) else np.empty(0)


def horizon_clearance(scenario: Scenario) -> float:
    """Radius of the smallest origin-centered ball holding every horizon."""
    return max((np.linalg.norm(body.center) + body.outer_radius()
                for body in scenario.horizons), default=0.0)


def _rule_about(fld: ScalarField, rule: SphereRule, center, r_lo: float,
                r_hi: float) -> SphereRule:
    """``point_rule`` where fld is radial about ``center`` on radii
    [r_lo, r_hi] (``ScalarField.radial_about``), else ``rule``."""
    return (point_rule(rule.n) if fld.radial_about(center, r_lo, r_hi)
            else rule)


def flux_series(scenario: Scenario, radii=None) -> FluxSeries:
    """Flux masses of both integrand variants at each radius (the
    scenario's flux radii when ``radii`` is None), all from one jet: on
    the nodes of the flux rule and its ``half`` at every radius, or on
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
        nu = pts / np.sqrt(norm_sq(pts))[:, None]
        return np.stack(flux_integrands_from_jet(fld.jet3_many(pts, order=2),
                                                 nu))

    c = mass_normalization(scenario.n)
    rule = _rule_about(fld, scenario.quad.flux_rule(scenario.n),
                       np.zeros(scenario.n), min(radii), max(radii))
    values, errors = sphere_integrate(fn, radii, rule)
    plain, weighted, plain_err, weighted_err = (
        tuple(v / c for v in row.tolist()) for row in (*values, *errors))
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
    each variant's extrapolation error (``extrapolate_limit``: the gap
    between the two-term and one-term limits on the radius ladder, or
    the roundoff floor of a converged series), the disagreement between
    the two integrand variants, and the per-radius quadrature
    advisories, which are exactly 0 on a field radial about the origin.
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
    walk's rule, without the ``half``, and reads R and the size T of
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
            seen = vals[np.sqrt(norm_sq(pts - center))
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
        walk = _rule_about(fld, rule, center, region.r_inner, r_outer)
        each = 1 if walk is rule else shell_nodes
        parts.append(exterior_volume_integrate(
            partial(fn, region, center, each), region, cfg, walk,
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

    Both read the nodes of the flux rule, or the one node of
    ``point_rule`` where the horizon is a sphere and the field is radial
    about its centre out to offset eps = HORIZON_OFFSET (``_rule_about``):
    f and |grad f| then take one value on each copy of the sphere.  The
    level check measures the variance of f over a homothetic copy of the
    boundary at relative offset 1e-8 (bound 1e-8).  The gradient check
    samples |grad f| at offset eps, as |h_r| where the field has radial
    derivatives and from an order-2 jet elsewhere, and requires
    (1 - 1e-6)/sqrt((n-2) eps), the exact magnitude of a Schwarzschild
    profile there, at threshold 10^3 for n = 3, eps = 1e-6.
    """
    fld = scenario.require_field()
    rule = scenario.quad.flux_rule(scenario.n)
    eps = HORIZON_OFFSET
    floor = (1.0 - 1e-6) / math.sqrt((scenario.n - 2) * eps)
    out = []
    for i, body in enumerate(scenario.horizons):
        a = body.outer_radius()
        pts, _ = body.surface_sample(
            _rule_about(fld, rule, body.center, a, a * (1.0 + eps))
            if isinstance(body, Sphere) else rule)
        rays = pts - body.center
        lvl = fld.value(body.center + rays * (1.0 + 1e-8))
        var = float(np.var(lvl))
        near = body.center + rays * (1.0 + eps)
        radial = fld.radial_derivatives(near)
        grad = (np.sqrt(norm_sq(fld.jet3_many(near, order=2).grad))
                if radial is None else np.abs(radial[1]))
        gmin = float(grad.min())
        out.append(HypothesisReport(
            component=i, level_variance=var, level_ok=var <= 1e-8,
            grad_min=gmin, grad_floor=floor, grad_ok=gmin >= floor))
    return tuple(out)


@dataclass
class Decomposition:
    """Boundary + bulk mass split reconciled with the flux mass, fields in
    the report's order; the ADM mass and the horizon hypotheses are
    ``ScenarioEvaluation.adm`` and ``ScenarioEvaluation.hypotheses``."""

    boundary: float
    bulk: float
    total: float
    residual: float
    tolerance: float
    identity_ok: bool


def divergence_identity_sup(field: ScalarField, pts: np.ndarray,
                            R: np.ndarray | None = None) -> float:
    """sup of |div V - R| / (1 + |R|) over the points: the order-3 route
    against the closed form (``R`` if given, read at the points' radii),
    its jets built in batches of at most JET3_BATCH_BYTES of third
    tensors."""
    step = max(1, JET3_BATCH_BYTES // (8 * field.n ** 3))
    dv = np.concatenate([divergence_of_V(field, pts[i:i + step])
                         for i in range(0, len(pts), step)])
    R = scalar_curvature(field, pts) if R is None else R
    return float(np.max(np.abs(dv - R) / (1.0 + np.abs(R))))


def identity_tolerance(mass: float, uncertainty: float) -> float:
    return max(IDENTITY_REL * abs(mass), UNC_FACTOR * uncertainty)


def mass_decomposition(est: MassEstimate, bulk: BulkResult,
                       quermass) -> Decomposition:
    """Geometric boundary term plus bulk term, against the flux mass.

    ``quermass`` holds the quermassintegral vector of each horizon body.
    """
    boundary = horizon_mean_curvature_term(quermass)
    total = boundary + bulk.value
    residual = est.value - total
    tol = identity_tolerance(est.value, est.uncertainty + bulk.uncertainty)
    return Decomposition(boundary=boundary, bulk=bulk.value, total=total,
                         residual=residual, tolerance=tol,
                         identity_ok=abs(residual) <= tol)


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
        rule = _rule_about(fld, node_rule, body.center, radii.min(),
                           radii.max())
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
        return mass_decomposition(self.adm, self.bulk, self.quermass)

    @cached_property
    def hypotheses(self) -> tuple[HypothesisReport, ...]:
        return horizon_hypotheses(self.scenario)

    @cached_property
    def radial_grid(self) -> tuple:
        """(shells, centres, grids, R): the sample shells about whose centre
        the field is radial (``ScalarField.radial_about``), a geometric
        grid of SAMPLE_RADII_PER_DECADE radii per decade over each, and R
        on the grids at c + r e_1, in one call."""
        scn = self.scenario
        fld, zero = scn.require_field(), (0.0,) * scn.n
        shells = [s for s in scn.shells
                  if fld.radial_about(s.center or zero, s.lo, s.hi)]
        ks = [math.ceil(SAMPLE_RADII_PER_DECADE * math.log10(s.hi / s.lo))
              for s in shells]
        grids = [s.lo * (s.hi / s.lo) ** (np.arange(k + 1) / k)
                 for s, k in zip(shells, ks)]
        centers = np.array([s.center or zero for s in shells]).reshape(
            -1, scn.n)
        return shells, centers, grids, _R_at(
            fld, _on_rays(centers, grids, np.eye(scn.n)[0]))

    def _other(self, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """The sample points (count, seed) on the shells outside
        ``radial_grid``, and R there."""
        pts = self.scenario.sample_points(count, seed, self.radial_grid[0])
        return pts, _R_at(self.scenario.field, pts)

    @cached_property
    def sampled_R(self) -> tuple[float, float, int]:
        """(min R, max |R|, count) over the radial shells' grids, the
        10,000 sample points on the other shells, the volume-quadrature
        nodes outside the boundary guard band, and REFINE_ROUNDS batched
        bracket rounds (Brent 1973, ch. 5) about each radial shell's lowest
        grid radius: REFINE_POINTS geometric radii one previous spacing
        either side of the last round's lowest, clipped to the shell,
        every shell in one call."""
        shells, centers, grids, R = self.radial_grid
        vals = [R, self._other(10_000, self.scenario.quad.seed + 1)[1]]
        e1 = np.eye(self.scenario.n)[0]
        if shells:
            lo, hi = np.array([[s.lo, s.hi] for s in shells]).T[..., None]
            q = np.array([[g[1] / g[0]] for g in grids])
            r = np.array([[g[v.argmin()]] for g, v in zip(grids, np.split(
                R, np.cumsum([len(g) for g in grids])[:-1]))])
            for _ in range(REFINE_ROUNDS):
                rs = np.clip(r * q ** _REFINE_STEPS, lo, hi)
                vals.append(_R_at(self.scenario.field,
                                  _on_rays(centers, rs, e1)))
                r = np.take_along_axis(
                    rs, vals[-1].reshape(rs.shape).argmin(1)[:, None], 1)
                q = q ** (2.0 / (REFINE_POINTS - 1))
        vals, bulk = np.concatenate(vals), self.bulk
        return (min(float(vals.min()), bulk.min_R),
                max(float(np.abs(vals).max()), bulk.max_abs_R),
                len(vals) + bulk.sign_nodes)

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
        if name not in ("identities", "pmt", "penrose"):
            raise ConfigError(f"unknown check '{name}'")
        return getattr(self, "_" + name)()

    def run(self, names=("all",)) -> list[CheckOutcome]:
        """The named checks, "all" the scenario's, each once in order."""
        requested = [check for name in names for check in (
            self.scenario.checks if name == "all" else (name,))]
        return [self.check(name) for name in dict.fromkeys(requested)]

    # -- individual checks ------------------------------------------------

    def _identities(self) -> CheckOutcome:
        scn = self.scenario
        values: dict = {}
        notes: list[str] = []  # one per failed part

        if scn.field is not None:
            # the radial shells' grid radii along Sobol directions, against
            # the grid's R, and the sample points on the other shells
            _, centers, grids, R = self.radial_grid
            dirs = _unit_draw(scn.n + 1, len(R), scn.quad.seed)[1]
            other, R_other = self._other(1000, scn.quad.seed)
            sup = divergence_identity_sup(scn.field, np.concatenate(
                [_on_rays(centers, grids, dirs), other]), np.concatenate(
                [R, R_other]))
            values["div_identity_sup"] = sup
            if sup > DIV_IDENTITY_TOL:
                notes.append(f"divergence identity off by {sup:.3e}")

            dec = self.decomposition
            values.update(adm=self.adm.value, boundary_term=dec.boundary,
                          bulk_term=dec.bulk, residual=dec.residual,
                          residual_tolerance=dec.tolerance)
            if not dec.identity_ok:
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
                notes.append("integrand variants extrapolate apart")

            if scn.profile is not None:
                series = self.adm.series
                closed = spherical_mass(scn.profile, np.array(series.radii),
                                        scn.n)
                rel = float(np.max(np.abs(np.subtract(series.plain, closed))
                                   / (1.0 + np.abs(closed))))
                values["radial_agreement"] = rel
                if rel > 1e-10:
                    notes.append("radial closed form disagrees with flux")

        if len(scn.horizons):
            defect = max(abs(g["gauss_defect"]) for g in self.geometry)
            chain = min(g["min_chain_gap_rel"] for g in self.geometry)
            values["gauss_defect"] = defect
            values["min_chain_gap_rel"] = chain
            if defect > 1e-6:
                notes.append("Gauss-map normalization violated")
            if chain < -1e-9:
                notes.append("a quermassintegral chain inequality failed")
            if len(scn.horizons) > 1:
                gap = superadditivity_gap(
                    [g["area"] for g in self.geometry], scn.n)
                values["superadditivity_gap"] = gap
                if gap < 0.0:
                    notes.append("bound superadditivity failed")

        return CheckOutcome(name="identities", scenario=scn.name,
                            passed=not notes, hypothesis_ok=True,
                            vacuous=False, values=values, notes=tuple(notes))

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
        # without R >= 0 the check is vacuous and passes on the identity
        hyp_ok = self.R_sign_ok
        tol = max(est.uncertainty, 1e-12 * (1.0 + abs(est.value)))
        passed = est.value >= -tol if hyp_ok else dec.identity_ok
        if not hyp_ok:
            notes.append("hypothesis not met (R changes sign); "
                         "identity still verified" if dec.identity_ok
                         else "hypothesis not met and the mass identity "
                              "residual is out of tolerance")
        elif not passed:
            notes.append(f"mass {est.value:.3e} is negative beyond "
                         f"tolerance {tol:.3e}")
        return CheckOutcome(name="pmt", scenario=scn.name, passed=passed,
                            hypothesis_ok=hyp_ok, vacuous=not hyp_ok,
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
        af_deficit = (self.decomposition.boundary - bound
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
        passed = hyp_ok and est.value >= bound - tol
        if hyp_ok:
            notes.append(f"mass {est.value:.6g} falls below the bound "
                         f"{bound:.6g}" if not passed
                         else "inequality holds strictly" if slack > tol
                         else "equality case within tolerance")
        return CheckOutcome(name="penrose", scenario=scn.name,
                            passed=passed, hypothesis_ok=hyp_ok,
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
            # plain rows in field order: __init__ sets the fields in order
            out["decomposition"] = dict(vars(self.decomposition))
            out["scalar_curvature_sample"] = {
                "min": min_R, "max_abs": max_abs_R, "count": count}
            if len(scn.horizons):
                out["hypotheses"] = [dict(vars(h)) for h in self.hypotheses]
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

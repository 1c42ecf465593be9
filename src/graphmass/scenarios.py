"""Built-in graph configurations with known or constructed mass data.

Each factory assembles a Scenario: the graph function (as jets), its
horizon bodies, quadrature settings tuned to the field's decay, the
sample shells on which the hypothesis checks test R >= 0 and R = div V,
and whatever exact values exist for that configuration.

The two-body configuration deserves a note: no closed-form graph with
two exact horizon components is available, so it glues two
rotationally symmetric pieces to a common far field through C^3
windows.  The pieces are exact near each horizon and exact outside the
gluing annuli, so the ADM mass is exactly the sum of the component
masses, while the gluing annuli carry sign-indefinite curvature that
integrates to zero against the far-field window.  The bulk integral
runs over each annulus on shells about its own piece's centre, where
the field is radial, so each shell takes one value of R per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .convexgeom import Ellipsoid, HorizonSet, Sphere
from .errors import ConfigError, DomainError
from .jets import (Jet3, RadialField, RadialProfile, ScalarField, ExprField,
                   check_order, horizon_profile, profile_from_gradsq,
                   radial_jet, schwarzschild_profile)
from .mass import Scenario, Shell
from .quad import ExteriorRegion, QuadConfig, norm_sq


# ----------------------------------------------------------------------
# C^3 window machinery for the glued two-body graph
# ----------------------------------------------------------------------

# the septic smoothstep and its first three derivatives, in Horner form
_S7_ORDERS = (
    lambda t: t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t))),
    lambda t: 140.0 * (t * (1.0 - t)) ** 3,
    lambda t: t ** 2 * (420.0 + t * (-1680.0 + t * (2100.0 - 840.0 * t))),
    lambda t: t * (840.0 + t * (-5040.0 + t * (8400.0 - 4200.0 * t))))


def _s7(t: np.ndarray, orders) -> list[np.ndarray]:
    """Septic smoothstep 35t^4 - 84t^5 + 70t^6 - 20t^7 and its
    derivatives of the given orders (0 to 3), all on one copy of t
    clipped to [0, 1]: each polynomial is exactly 0 or 1 at the ends, as
    the step and its derivatives are past them.

    Flat to third order at both ends, so windowed products keep C^3
    regularity, which is all the order-3 jets need.
    """
    t = np.asarray(t, float)
    # 1-D even for one t: a numpy scalar's ** rounds unlike an array's
    flat = np.clip(t.reshape(-1), 0.0, 1.0)
    return [_S7_ORDERS[j](flat).reshape(t.shape) for j in orders]


def window_profile(lo: float, width: float, rising: bool) -> RadialProfile:
    """Radial window: smoothstep from ``lo`` over ``width``.

    rising=True goes 0 -> 1 (far-field switch); rising=False goes
    1 -> 0 (near-zone cutoff).  ``slopes(r, k)`` reads one ``_s7`` call.
    """
    sign = 1.0 if rising else -1.0

    def f(r):
        val, = _s7((np.asarray(r, float) - lo) / width, (0,))
        return val if rising else 1.0 - val

    def slopes(r, k):
        table = _s7((np.asarray(r, float) - lo) / width, range(1, k + 1))
        return [sign * (d / width ** j) for j, d in enumerate(table, 1)]

    return RadialProfile(f, slopes, r_min=0.0,
                         label=f"window[{lo},{lo + width}]")


def windowed(profile: RadialProfile, window: RadialProfile) -> RadialProfile:
    """The profile times the window, differentiated by the Leibniz rule
    over one table of each factor, each sum started from its first term;
    where the window is 1 the derivatives are the profile's, bit for
    bit."""

    def leibniz(r, k):
        """[(f w), ..., (f w)^(k)] at radii r."""
        fs, ws = [profile.f(r)], [window.f(r)]
        if k:
            fs += profile.slopes(r, k)
            ws += window.slopes(r, k)
        return [sum((math.comb(i, j) * fs[j] * ws[i - j]
                     for j in range(1, i + 1)), fs[0] * ws[i])
                for i in range(k + 1)]

    return RadialProfile(lambda r: leibniz(r, 0)[0],
                         lambda r, k: leibniz(r, k)[1:], r_min=profile.r_min,
                         label=f"{profile.label} x {window.label}")


@dataclass
class _Piece:
    """One windowed radial term of the glued graph."""

    field: RadialField  # its windowed profile about its centre
    r_lo: float         # evaluation floor (just outside the profile domain)
    r_hi: float         # support ceiling (window identically zero beyond)


class PiecewiseRadialField(ScalarField):
    """Sum of windowed radial pieces with pairwise disjoint supports.

    Points outside every support get exactly zero values and derivatives,
    so the field is identically flat in the dead zones between the
    pieces; elsewhere it is radial about the centre of the one piece
    whose support holds it.  Its jets, like radial ones, carry no value.
    """

    def __init__(self, pieces: list[_Piece], n: int):
        self.pieces = pieces
        self.n = n
        self._centers = np.array([p.field.center for p in pieces])
        self._bounds = np.array([[p.r_lo, p.r_hi] for p in pieces]).T

    def _split(self, points):
        """The batch, and (field, selection, radii of the selected points
        about the piece's centre) of each piece it meets: the distances to
        every centre in one pass."""
        pts = np.atleast_2d(np.asarray(points, float))
        rad = np.sqrt(norm_sq(pts[:, None, :] - self._centers))
        sel = (rad > self._bounds[0]) & (rad < self._bounds[1])
        return pts, [(piece.field, sel[:, i], rad[sel[:, i], i])
                     for i, piece in enumerate(self.pieces)
                     if sel[:, i].any()]

    def value(self, points):
        pts, parts = self._split(points)
        out = np.zeros(len(pts))
        for fld, sel, _ in parts:
            out[sel] = fld.value(pts[sel])
        return out

    def jet3_many(self, points, order=3):
        check_order(order)
        pts, parts = self._split(points)
        m, n = len(pts), self.n
        jet = Jet3(None, np.zeros((m, n)), np.zeros((m, n, n)),
                   np.zeros((m, n, n, n)) if order == 3 else None)
        for fld, sel, _ in parts:
            part = radial_jet(fld.profile, pts[sel], center=fld.center,
                              order=order)
            for name in ("grad", "hess", "third")[:order]:
                getattr(jet, name)[sel] = getattr(part, name)
        return jet

    def radial_derivatives(self, points):
        """Outside every support h_r = h_rr = 0 (with r = 1), so R = 0."""
        pts, parts = self._split(points)
        r, hr, hrr = np.ones(len(pts)), np.zeros(len(pts)), np.zeros(len(pts))
        for fld, sel, rad in parts:
            r[sel], hr[sel], hrr[sel] = fld.radial_derivatives(pts[sel], rad)
        return r, hr, hrr

    def radial_about(self, center, r_lo, r_hi):
        """True when every piece whose support meets the annulus is
        centred at ``center``: the field is zero outside the supports.
        The annulus, connected for n >= 2, holds the points at distance
        max(0, d - r_hi, r_lo - d) to d + r_hi from a piece centred at
        distance d, and meets its support when that range overlaps
        (r_lo, r_hi) of the piece."""
        for piece in self.pieces:
            d = math.dist(piece.field.center, center)
            if (max(0.0, d - r_hi, r_lo - d) < piece.r_hi
                    and d + r_hi > piece.r_lo
                    and not piece.field.radial_about(center, r_lo, r_hi)):
                return False
        return True


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------

def _flat(n: int) -> Scenario:
    quad = QuadConfig(radii=(100.0, 200.0, 400.0, 800.0), r_max=100.0)
    return Scenario(
        name="flat", n=n, field=ExprField("0", n), horizons=HorizonSet(()),
        quad=quad, bulk_region=(ExteriorRegion(),), params={"n": n},
        expected={"mass": 0.0, "bound": 0.0},
        checks=("identities", "pmt"),
        shells=(Shell(0.1, 50.0),),
        description="Euclidean space as the graph of f = 0.",
        exercises=("zero-mass baseline", "divergence identity"))


def _horizon_graph(profile: RadialProfile, n: int, **scenario) -> Scenario:
    """A rotationally symmetric graph outside the horizon sphere at the
    profile's r_min, with its bulk on the graded exterior and every check."""
    a = profile.r_min
    return Scenario(
        n=n, field=RadialField(profile, n),
        horizons=HorizonSet((Sphere(np.zeros(n), a),)),
        bulk_region=(ExteriorRegion(r_inner=a, graded=True),),
        checks=("identities", "pmt", "penrose"),
        shells=(Shell(1.05 * a, 50.0 * a),), **scenario)


def _schwarzschild(n: int, m: float) -> Scenario:
    profile = schwarzschild_profile(m, n)
    scale = max(1.0, profile.r_min)
    if n == 3:
        radii = tuple(r * scale for r in (100.0, 200.0, 400.0, 800.0))
        r_max = 400.0 * scale
    else:  # the ladder in units of the mass past m = 1
        scale = max(1.0, m) ** (1.0 / (n - 2))
        radii = tuple(r * scale for r in ((20.0, 40.0, 80.0, 160.0) if n == 4
                                      else (10.0, 20.0, 40.0, 80.0)))
        r_max = 120.0 if n == 4 else 60.0
    return _horizon_graph(
        profile, n, name="schwarzschild3" if n == 3 else "schwarzschild_n",
        quad=QuadConfig(radii=radii, r_max=r_max), params={"n": n, "m": m},
        expected={"mass": m, "bound": m, "boundary": m, "bulk": 0.0},
        description="Scalar-flat rotationally symmetric graph with a "
                    "minimal-sphere horizon; the equality case of the "
                    "mass and area bounds.",
        exercises=("mass equality case", "horizon boundary term",
                   "Penrose equality", "radial closed form"))


def _radial_custom(m: float, n: int) -> Scenario:
    """Horizonless positive-curvature graph with f_r^2 = 2m r^2/(1+r^n)."""

    def gradsq(r, k):
        q = np.power(r, n)
        out = [2.0 * m * r * r / (1.0 + q)]
        if k > 1:
            out.append(2.0 * m * (2.0 * r / (1.0 + q)
                                  - n * np.power(r, n + 1) / (1.0 + q) ** 2))
        if k > 2:
            out.append(2.0 * m * (2.0 / (1.0 + q)
                                  - n * (n + 3) * q / (1.0 + q) ** 2
                                  + 2.0 * n * n * q * q / (1.0 + q) ** 3))
        return out

    profile = profile_from_gradsq(gradsq, r_min=0.0, branch=1,
                                  label=f"radial_custom(m={m})")
    quad = QuadConfig(radii=(20.0, 40.0, 80.0, 160.0), r_max=200.0)
    return Scenario(
        name="radial_custom", n=n, field=RadialField(profile, n),
        horizons=HorizonSet(()), quad=quad,
        bulk_region=(ExteriorRegion(),), params={"n": n, "m": m},
        expected={"mass": m}, checks=("identities", "pmt"),
        shells=(Shell(0.05, 40.0),),
        description="Smooth horizonless radial graph whose flux mass "
                    "approaches m from below.",
        exercises=("radial nonnegativity", "flux vs bulk identity",
                   "positive mass"))


def _bump(alpha: float, n: int) -> Scenario:
    expr = "a*exp(-r^2)"
    quad = QuadConfig(radii=(2.0, 4.0, 8.0, 16.0), r_max=12.0)
    return Scenario(
        name="bump", n=n, field=ExprField(expr, n, {"a": alpha}),
        horizons=HorizonSet(()), quad=quad,
        bulk_region=(ExteriorRegion(),), params={"alpha": alpha, "n": n},
        expected={"mass": 0.0}, checks=("identities",),
        shells=(Shell(0.05, 6.0),),
        description="Gaussian bump graph: zero mass with sign-indefinite "
                    "curvature canceling between the two routes.",
        exercises=("flux vs bulk identity", "sign-indefinite curvature"))


def _schwarzschild_perturbed(m: float, beta: float, n: int) -> Scenario:
    """Horizon graph with psi = 1 - beta exp(-(r-a)); strictly positive
    scalar curvature."""
    a = (2.0 * m * (1.0 - beta)) ** (1.0 / (n - 2))

    def psi(r):
        e = beta * np.exp(-(r - a))
        return 1.0 - e, e, -e

    profile = horizon_profile(
        m, n, a, psi, label=f"perturbed graph with m = {m:g} and "
                            f"beta = {beta:g}",
        psi_rise=lambda d: -beta * np.expm1(-d))
    return _horizon_graph(
        profile, n, name="schwarzschild_perturbed",
        quad=QuadConfig(radii=(100.0, 200.0, 400.0, 800.0), r_max=60.0),
        params={"n": n, "m": m, "beta": beta},
        expected={"mass": m, "bound": m * (1.0 - beta), "bulk": m * beta,
                  "boundary": m * (1.0 - beta)},
        description="Exponentially perturbed horizon graph with R > 0: "
                    "the area bound holds strictly, with margin carried "
                    "by the bulk term.",
        exercises=("strict area bound", "boundary plus bulk decomposition",
                   "positive curvature hypothesis"))


def _ellipsoid_horizon(ratio: float) -> Scenario:
    axes = np.array([ratio, 0.5 * (1.0 + ratio), 1.0])
    bodies = (Ellipsoid(np.array([-4.0 * ratio, 0.0, 0.0]), axes),
              Sphere(np.array([4.0 * ratio, 0.0, 0.0]), 1.5))
    quad = QuadConfig(radii=(10.0, 20.0, 40.0, 80.0), r_max=40.0)
    return Scenario(
        name="ellipsoid_horizon", n=3, field=None,
        horizons=HorizonSet(bodies), quad=quad,
        bulk_region=(ExteriorRegion(),), params={"ratio": ratio},
        expected={}, checks=("identities",),
        description="Geometry-only horizon pair (ellipsoid and sphere): "
                    "curvature integrals without a graph function.",
        exercises=("quermassintegral chain", "Gauss-map normalization",
                   "bound superadditivity"))


def _two_body_glued(m1: float, m2: float) -> Scenario:
    n = 3
    total = m1 + m2
    sep = 100.0
    centers = (np.array([-sep, 0.0, 0.0]), np.array([sep, 0.0, 0.0]))
    near_cut, near_width = 16.0, 40.0
    far_cut, far_width = 200.0, 120.0

    pieces = []
    horizons = []
    for center, m in zip(centers, (m1, m2)):
        prof = schwarzschild_profile(m, n)
        near = windowed(prof, window_profile(near_cut, near_width,
                                             rising=False))
        pieces.append(_Piece(RadialField(near, n, center),
                             r_lo=prof.r_min * (1.0 + 1e-9),
                             r_hi=near_cut + near_width))
        horizons.append(Sphere(center, 2.0 * m))
    far = windowed(schwarzschild_profile(total, n),
                   window_profile(far_cut, far_width, rising=True))
    pieces.append(_Piece(RadialField(far, n), r_lo=far_cut, r_hi=math.inf))
    field = PiecewiseRadialField(pieces, n)

    # R vanishes outside the gluing annuli: the pieces are scalar-flat
    # where their windows are constant, and f = 0 between the near zones
    # and the far switch.  Each annulus is integrated about its own piece.
    regions = tuple(ExteriorRegion(center=tuple(c.tolist()), r_inner=near_cut,
                                   r_outer=near_cut + near_width)
                    for c in centers) + (
        ExteriorRegion(r_inner=far_cut, r_outer=far_cut + far_width),)
    quad = QuadConfig(radii=(400.0, 800.0, 1600.0, 3200.0), r_max=400.0,
                      radial_tol=1e-4)

    # 2/5 of the points near each body
    shells = tuple(
        Shell(2.5 * m, near_cut + near_width, tuple(c.tolist()), 2)
        for c, m in zip(centers, (m1, m2))) + (Shell(far_cut * 0.4, 390.0),)

    return Scenario(
        name="two_body_glued", n=n, field=field,
        horizons=HorizonSet(tuple(horizons)), quad=quad,
        bulk_region=regions, params={"m1": m1, "m2": m2},
        expected={"mass": total}, checks=("identities",), shells=shells,
        description="Two far-separated horizon components glued to a "
                    "common far field; exact total mass, and a bulk term "
                    "that cancels between the gluing annuli.",
        exercises=("mass additivity", "multi-horizon superadditivity",
                   "centred bulk shells"))


@dataclass(frozen=True)
class Box:
    """The numbers a registry parameter accepts: ``lo`` to ``hi``, each
    end closed unless marked open, integers only when ``integer``.  The
    ends are finite, so NaN and the infinities fall outside."""

    default: float
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False
    integer: bool = False

    def __contains__(self, value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return ((self.lo < value if self.lo_open else self.lo <= value)
                and (value < self.hi if self.hi_open else value <= self.hi)
                and (not self.integer or float(value).is_integer()))

    def __str__(self) -> str:
        return (f"{'an integer' if self.integer else 'a number'} in "
                f"{'(' if self.lo_open else '['}{self.lo:g}, "
                f"{self.hi:g}{')' if self.hi_open else ']'}")


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    factory: Callable[..., Scenario]
    boxes: dict[str, Box]


# Each upper end runs every check and passes at the other parameters'
# defaults, except schwarzschild_perturbed's m: its end is coupled to beta
# and n (at n = 3 the horizon needs 2 m beta < 1, and even beta = 0.009
# puts it past r_max = 60; m = 50 runs at n = 4, beta = 0.01).  Past
# radial_custom's m end the tail window [50, 200] is not yet asymptotic:
# the fit reads q = 2.98 <= n at m = 52 and 2.68 at m = 100, and the run
# exits 2.  Its n end, like flat's and schwarzschild_n's, is the Sobol
# table: a sample draws n + 1 <= 33 coordinates.  schwarzschild3's tail
# is R = 0 roundoff, which is no tail, and m from 2e7 to 1e30 passes (the
# fit to that noise failed at m = 1e8 with q = 2.91); its end stays until
# a test covers the scale covariance of the checks.  bump's flux radii
# 2-16 reach its exp(-2 r^2) decay to roundoff (|adm| 6.0e-214 at n = 9,
# 9.6e-213 at n = 10), so they no longer set its n end, which stays at 9
# until a run past it is tested.
# Limits that couple a parameter to another one, or to the fixed flux
# radii and r_max, are checked when the scenario or the run is built.
REGISTRY: dict[str, RegistryEntry] = {
    e.name: e for e in (
        RegistryEntry("flat", _flat, {"n": Box(3, 3, 32, integer=True)}),
        RegistryEntry("schwarzschild3", partial(_schwarzschild, 3),
                      {"m": Box(1.0, 0.0, 1e7, lo_open=True)}),
        RegistryEntry("schwarzschild_n", _schwarzschild,
                      {"n": Box(4, 4, 32, integer=True),
                       "m": Box(1.0, 0.0, 100.0, lo_open=True)}),
        RegistryEntry("radial_custom", _radial_custom,
                      {"m": Box(0.7, 0.0, 50.0, lo_open=True),
                       "n": Box(3, 3, 32, integer=True)}),
        RegistryEntry("bump", _bump,
                      {"alpha": Box(0.1, 0.0, 0.5, lo_open=True),
                       "n": Box(3, 3, 9, integer=True)}),
        # beta < 0.5 keeps a single horizon
        RegistryEntry("schwarzschild_perturbed", _schwarzschild_perturbed,
                      {"m": Box(1.0, 0.0, 50.0, lo_open=True),
                       "beta": Box(0.3, 0.0, 0.5, lo_open=True,
                                   hi_open=True),
                       "n": Box(3, 3, 4, integer=True)}),
        RegistryEntry("ellipsoid_horizon", _ellipsoid_horizon,
                      {"ratio": Box(2.0, 1.0, 4.0)}),
        # the windows are tuned for horizons of radius 2m <= 4, a quarter
        # of the near cut at 16
        RegistryEntry("two_body_glued", _two_body_glued,
                      {"m1": Box(1.0, 0.0, 2.0, lo_open=True),
                       "m2": Box(0.8, 0.0, 2.0, lo_open=True)}),
    )
}


def make_scenario(name: str, **params) -> Scenario:
    entry = REGISTRY.get(name)
    if entry is None:
        import difflib
        near = difflib.get_close_matches(name, REGISTRY, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise ConfigError(f"unknown scenario '{name}'{hint}")
    for key in params:
        if key not in entry.boxes:
            raise ConfigError(
                f"scenario '{name}' takes no parameter '{key}' "
                f"(accepts: {', '.join(sorted(entry.boxes))})")
    admitted = {}
    for key, box in entry.boxes.items():
        value = params.get(key, box.default)
        if value not in box:
            raise ConfigError(f"scenario '{name}': parameter '{key}' must "
                              f"be {box}, not {value!r}")
        admitted[key] = (int if box.integer else float)(value)
    try:
        return entry.factory(**admitted)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"scenario '{name}': {exc}") from exc


def scenario_names() -> list[str]:
    return list(REGISTRY)

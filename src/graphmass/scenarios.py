"""Built-in graph configurations with known or constructed mass data.

Each factory assembles a Scenario: the graph function (as jets), its
horizon bodies, quadrature settings tuned to the field's decay, a
quasi-random point sampler for the hypothesis checks, and whatever
exact values exist for that configuration.

The two-body configuration deserves a note: no closed-form graph with
two exact horizon components is available, so it glues two
rotationally symmetric pieces to a common far field through C^3
windows.  The pieces are exact near each horizon and exact outside the
gluing annuli, so the ADM mass is exactly the sum of the component
masses, while the gluing annuli carry sign-indefinite curvature that
integrates to zero against the far-field window.  The bulk integral
runs over each annulus on shells about its own piece's centre, where
the field is radial and the angular quadrature exact.
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
                   check_order, profile_from_gradsq, radial_jet,
                   schwarzschild_profile)
from .mass import Scenario, shell_sampler
from .quad import ExteriorRegion, QuadConfig


# ----------------------------------------------------------------------
# C^3 window machinery for the glued two-body graph
# ----------------------------------------------------------------------

def _s7(t: np.ndarray, order: int) -> np.ndarray:
    """Septic smoothstep 35t^4 - 84t^5 + 70t^6 - 20t^7 and derivatives.

    Flat to third order at both ends, so windowed products keep C^3
    regularity, which is all the order-3 jets need.
    """
    t = np.asarray(t, float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    if order == 0:
        out[t >= 1.0] = 1.0
    if inside.any():
        ti = t[inside]
        if order == 0:
            val = ti ** 4 * (35.0 + ti * (-84.0 + ti * (70.0 - 20.0 * ti)))
        elif order == 1:
            val = 140.0 * (ti * (1.0 - ti)) ** 3
        elif order == 2:
            val = ti ** 2 * (420.0 + ti * (-1680.0 + ti
                                           * (2100.0 - 840.0 * ti)))
        else:
            val = ti * (840.0 + ti * (-5040.0 + ti
                                      * (8400.0 - 4200.0 * ti)))
        out[inside] = val
    return out


def window_profile(lo: float, width: float, rising: bool) -> RadialProfile:
    """Radial window: smoothstep from ``lo`` over ``width``.

    rising=True goes 0 -> 1 (far-field switch); rising=False goes
    1 -> 0 (near-zone cutoff).
    """
    sign = 1.0 if rising else -1.0

    def deriv(order: int) -> Callable:
        def call(r):
            t = (np.asarray(r, float) - lo) / width
            val = _s7(t, order) / width ** order
            if order == 0:
                return val if rising else 1.0 - val
            return sign * val
        return call

    return RadialProfile(f=deriv(0), fr=deriv(1), frr=deriv(2),
                         frrr=deriv(3), r_min=0.0,
                         label=f"window[{lo},{lo + width}]")


def windowed(profile: RadialProfile, window: RadialProfile) -> RadialProfile:
    """The profile times the window, differentiated by the Leibniz rule;
    where the window is 1 the derivatives are the profile's, bit for bit."""
    fs = (profile.f, profile.fr, profile.frr, profile.frrr)
    ws = (window.f, window.fr, window.frr, window.frrr)

    def deriv(k: int) -> Callable:
        return lambda r: sum(math.comb(k, j) * fs[j](r) * ws[k - j](r)
                             for j in range(k + 1))

    return RadialProfile(*(deriv(k) for k in range(4)), r_min=profile.r_min,
                         label=f"{profile.label} x {window.label}")


@dataclass
class _Piece:
    """One windowed radial term of the glued graph."""

    field: RadialField  # its windowed profile about its centre
    r_lo: float         # evaluation floor (just outside the profile domain)
    r_hi: float         # support ceiling (window identically zero beyond)


class PiecewiseRadialField(ScalarField):
    """Sum of windowed radial pieces with pairwise disjoint supports.

    Points outside every support get exactly zero jets, so the field is
    identically flat in the dead zones between the pieces; elsewhere it
    is radial about the centre of the one piece whose support holds it.
    """

    def __init__(self, pieces: list[_Piece], n: int):
        self.pieces = pieces
        self.n = n

    def _split(self, points):
        """The batch, and (field, selection) of each piece it meets."""
        pts = np.atleast_2d(np.asarray(points, float))
        parts = []
        for piece in self.pieces:
            d = pts - piece.field.center
            r = np.sqrt(np.sum(d * d, axis=-1))
            sel = (r > piece.r_lo) & (r < piece.r_hi)
            if sel.any():
                parts.append((piece.field, sel))
        return pts, parts

    def value(self, points):
        pts, parts = self._split(points)
        out = np.zeros(len(pts))
        for fld, sel in parts:
            out[sel] = fld.value(pts[sel])
        return out

    def jet3_many(self, points, order=3):
        check_order(order)
        pts, parts = self._split(points)
        m, n = len(pts), self.n
        jet = Jet3(np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n)),
                   np.zeros((m, n, n, n)) if order == 3 else None)
        for fld, sel in parts:
            part = radial_jet(fld.profile, pts[sel], center=fld.center,
                              order=order)
            for name in ("value", "grad", "hess", "third")[:order + 1]:
                getattr(jet, name)[sel] = getattr(part, name)
        return jet

    def radial_derivatives(self, points):
        """Outside every support h_r = h_rr = 0 (with r = 1), so R = 0."""
        pts, parts = self._split(points)
        r, hr, hrr = np.ones(len(pts)), np.zeros(len(pts)), np.zeros(len(pts))
        for fld, sel in parts:
            r[sel], hr[sel], hrr[sel] = fld.radial_derivatives(pts[sel])
        return r, hr, hrr


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------

def _dimension(n) -> int:
    """n as an int; a non-integral value is rejected, not truncated."""
    if float(n) != int(n):
        raise ConfigError(f"dimension must be an integer, not {n!r}")
    return int(n)


def _flat(n: int) -> Scenario:
    n = _dimension(n)
    if n < 3:
        raise ConfigError("dimension must be >= 3")
    quad = QuadConfig(radii=(100.0, 200.0, 400.0, 800.0), r_max=100.0)
    return Scenario(
        name="flat", n=n, field=ExprField("0", n), horizons=HorizonSet(()),
        quad=quad, bulk_region=(ExteriorRegion(),), params={"n": n},
        expected={"mass": 0.0, "bound": 0.0},
        checks=("identities", "pmt"),
        sampler=shell_sampler(n, 0.1, 50.0),
        description="Euclidean space as the graph of f = 0.",
        exercises=("zero-mass baseline", "divergence identity"))


def _schwarzschild(n: int, m: float) -> Scenario:
    m = float(m)
    if m <= 0:
        raise ConfigError("mass parameter must be positive")
    a = (2.0 * m) ** (1.0 / (n - 2))
    profile = schwarzschild_profile(m, n)
    scale = max(1.0, a)
    if n == 3:
        radii = tuple(r * scale for r in (100.0, 200.0, 400.0, 800.0))
        r_max = 400.0 * scale
    elif n == 4:
        radii = (20.0, 40.0, 80.0, 160.0)
        r_max = 120.0
    else:
        radii = (10.0, 20.0, 40.0, 80.0)
        r_max = 60.0
    quad = QuadConfig(radii=radii, r_max=r_max)
    name = "schwarzschild3" if n == 3 else "schwarzschild_n"
    return Scenario(
        name=name, n=n, field=RadialField(profile, n),
        horizons=HorizonSet((Sphere(np.zeros(n), a),)), quad=quad,
        bulk_region=(ExteriorRegion(r_inner=a, graded=True),),
        params={"n": n, "m": m},
        expected={"mass": m, "bound": m, "boundary": m, "bulk": 0.0},
        checks=("identities", "pmt", "penrose"),
        sampler=shell_sampler(n, 1.05 * a, 50.0 * a),
        description="Scalar-flat rotationally symmetric graph with a "
                    "minimal-sphere horizon; the equality case of the "
                    "mass and area bounds.",
        exercises=("mass equality case", "horizon boundary term",
                   "Penrose equality", "radial closed form"))


def _schwarzschild_n(n: int, m: float) -> Scenario:
    n = _dimension(n)
    if n < 4:
        raise ConfigError("use schwarzschild3 for n = 3")
    if n > 6:
        raise ConfigError("dimensions above 6 are not tuned")
    return _schwarzschild(n, m)


def _radial_custom(m: float, n: int) -> Scenario:
    """Horizonless positive-curvature graph with f_r^2 = 2m r^2/(1+r^n)."""
    m = float(m)
    n = _dimension(n)
    if m <= 0:
        raise ConfigError("mass parameter must be positive")
    if n < 3:
        raise ConfigError("dimension must be >= 3")

    def u(r):
        q = np.power(r, n)
        return 2.0 * m * r * r / (1.0 + q)

    def du(r):
        q = np.power(r, n)
        return 2.0 * m * (2.0 * r / (1.0 + q)
                          - n * np.power(r, n + 1) / (1.0 + q) ** 2)

    def d2u(r):
        q = np.power(r, n)
        return 2.0 * m * (2.0 / (1.0 + q)
                          - n * (n + 3) * q / (1.0 + q) ** 2
                          + 2.0 * n * n * q * q / (1.0 + q) ** 3)

    profile = profile_from_gradsq(u, du, d2u, r_min=0.0, branch=1,
                                  label=f"radial_custom(m={m})")
    quad = QuadConfig(radii=(20.0, 40.0, 80.0, 160.0), r_max=200.0)
    return Scenario(
        name="radial_custom", n=n, field=RadialField(profile, n),
        horizons=HorizonSet(()), quad=quad,
        bulk_region=(ExteriorRegion(),), params={"n": n, "m": m},
        expected={"mass": m}, checks=("identities", "pmt"),
        sampler=shell_sampler(n, 0.05, 40.0),
        description="Smooth horizonless radial graph whose flux mass "
                    "approaches m from below.",
        exercises=("radial nonnegativity", "flux vs bulk identity",
                   "positive mass"))


def _bump(alpha: float, n: int) -> Scenario:
    alpha = float(alpha)
    n = _dimension(n)
    if not 0 < alpha <= 0.5:
        raise ConfigError("amplitude must lie in (0, 0.5]")
    if n != 3:
        raise ConfigError("the bump scenario is tuned for n = 3")
    expr = "a*exp(-(x1^2+x2^2+x3^2))"
    quad = QuadConfig(radii=(2.0, 2.5, 3.0, 3.5), r_max=12.0)
    return Scenario(
        name="bump", n=n, field=ExprField(expr, n, {"a": alpha}),
        horizons=HorizonSet(()), quad=quad,
        bulk_region=(ExteriorRegion(),), params={"alpha": alpha, "n": n},
        expected={"mass": 0.0}, checks=("identities",),
        sampler=shell_sampler(n, 0.05, 6.0),
        description="Gaussian bump graph: zero mass with sign-indefinite "
                    "curvature canceling between the two routes.",
        exercises=("flux vs bulk identity", "sign-indefinite curvature"))


def _schwarzschild_perturbed(m: float, beta: float, n: int) -> Scenario:
    """Horizon graph with f_r^2 = 2m psi/(r^{n-2} - 2m psi),
    psi = 1 - beta exp(-(r-a)); strictly positive scalar curvature."""
    m = float(m)
    beta = float(beta)
    n = _dimension(n)
    if m <= 0:
        raise ConfigError("mass parameter must be positive")
    if not 0 < beta < 0.5:
        raise ConfigError("beta must lie in (0, 0.5) for a single horizon")
    if n not in (3, 4):
        raise ConfigError("the perturbed scenario is tuned for n = 3, 4")
    a = (2.0 * m * (1.0 - beta)) ** (1.0 / (n - 2))
    # r^{n-2} - 2m psi vanishes at a and must grow past it
    if (n - 2) * a ** (n - 3) <= 2.0 * m * beta:
        raise ConfigError(
            f"m = {m:g} and beta = {beta:g} leave no single horizon: need "
            "(n-2) a^(n-3) > 2 m beta")

    def psi(r):
        return 1.0 - beta * np.exp(-(r - a))

    def u(r):
        return 2.0 * m * psi(r) / (np.power(r, n - 2) - 2.0 * m * psi(r))

    def du(r):
        ps = psi(r)
        dps = beta * np.exp(-(r - a))
        D = np.power(r, n - 2) - 2.0 * m * ps
        dD = (n - 2) * np.power(r, n - 3) - 2.0 * m * dps
        return 2.0 * m * (dps * D - ps * dD) / (D * D)

    def d2u(r):
        ps = psi(r)
        dps = beta * np.exp(-(r - a))
        d2ps = -dps
        D = np.power(r, n - 2) - 2.0 * m * ps
        dD = (n - 2) * np.power(r, n - 3) - 2.0 * m * dps
        d2D = ((n - 2) * (n - 3) * np.power(r, max(n - 4, 0))
               if n > 3 else np.zeros_like(np.asarray(r, float)))
        d2D = d2D - 2.0 * m * d2ps
        num = dps * D - ps * dD
        dnum = d2ps * D - ps * d2D
        return 2.0 * m * (dnum * D - 2.0 * dD * num) / (D ** 3)

    profile = profile_from_gradsq(u, du, d2u, r_min=a, branch=-1,
                                  label=f"perturbed(m={m}, beta={beta})")
    quad = QuadConfig(radii=(100.0, 200.0, 400.0, 800.0), r_max=60.0)
    return Scenario(
        name="schwarzschild_perturbed", n=n,
        field=RadialField(profile, n),
        horizons=HorizonSet((Sphere(np.zeros(n), a),)), quad=quad,
        bulk_region=(ExteriorRegion(r_inner=a, graded=True),),
        params={"n": n, "m": m, "beta": beta},
        expected={"mass": m, "bound": m * (1.0 - beta),
                  "bulk": m * beta, "boundary": m * (1.0 - beta)},
        checks=("identities", "pmt", "penrose"),
        sampler=shell_sampler(n, 1.05 * a, 50.0 * a),
        description="Exponentially perturbed horizon graph with R > 0: "
                    "the area bound holds strictly, with margin carried "
                    "by the bulk term.",
        exercises=("strict area bound", "boundary plus bulk decomposition",
                   "positive curvature hypothesis"))


def _ellipsoid_horizon(ratio: float) -> Scenario:
    ratio = float(ratio)
    if not 1.0 <= ratio <= 4.0:
        raise ConfigError("axis ratio must lie in [1, 4]")
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


MAX_GLUED_MASS = 2.0  # largest component mass the gluing windows allow


def _two_body_glued(m1: float, m2: float) -> Scenario:
    m1, m2 = float(m1), float(m2)
    if m1 <= 0 or m2 <= 0:
        raise ConfigError("component masses must be positive")
    if max(m1, m2) > MAX_GLUED_MASS:
        # The windows are tuned for horizons of radius 2m <= 4, a
        # quarter of the near cut at 16.
        raise ConfigError(
            f"m1 = {m1:g} and m2 = {m2:g}: component masses above "
            f"{MAX_GLUED_MASS:g} collide with the gluing windows")
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

    def sampler(count, seed):
        k1 = count * 2 // 5
        k2 = count * 2 // 5
        k0 = count - k1 - k2
        near1 = shell_sampler(n, 2.5 * m1, near_cut + near_width)
        near2 = shell_sampler(n, 2.5 * m2, near_cut + near_width)
        far = shell_sampler(n, far_cut * 0.4, 390.0)
        pts = np.concatenate([
            centers[0] + near1(k1, seed),
            centers[1] + near2(k2, seed + 1),
            far(k0, seed + 2)], axis=0)
        return pts

    return Scenario(
        name="two_body_glued", n=n, field=field,
        horizons=HorizonSet(tuple(horizons)), quad=quad,
        bulk_region=regions, params={"m1": m1, "m2": m2},
        expected={"mass": total}, checks=("identities",), sampler=sampler,
        description="Two far-separated horizon components glued to a "
                    "common far field; exact total mass, and a bulk term "
                    "that cancels between the gluing annuli.",
        exercises=("mass additivity", "multi-horizon superadditivity",
                   "centred bulk shells"))


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    factory: Callable[..., Scenario]
    defaults: dict


REGISTRY: dict[str, RegistryEntry] = {
    e.name: e for e in (
        RegistryEntry("flat", _flat, {"n": 3}),
        RegistryEntry("schwarzschild3", partial(_schwarzschild, 3),
                      {"m": 1.0}),
        RegistryEntry("schwarzschild_n", _schwarzschild_n,
                      {"n": 4, "m": 1.0}),
        RegistryEntry("radial_custom", _radial_custom, {"m": 0.7, "n": 3}),
        RegistryEntry("bump", _bump, {"alpha": 0.1, "n": 3}),
        RegistryEntry("schwarzschild_perturbed", _schwarzschild_perturbed,
                      {"m": 1.0, "beta": 0.3, "n": 3}),
        RegistryEntry("ellipsoid_horizon", _ellipsoid_horizon,
                      {"ratio": 2.0}),
        RegistryEntry("two_body_glued", _two_body_glued,
                      {"m1": 1.0, "m2": 0.8}),
    )
}


def make_scenario(name: str, **params) -> Scenario:
    entry = REGISTRY.get(name)
    if entry is None:
        import difflib
        near = difflib.get_close_matches(name, REGISTRY, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise ConfigError(f"unknown scenario '{name}'{hint}")
    for key, value in params.items():
        if key not in entry.defaults:
            raise ConfigError(
                f"scenario '{name}' takes no parameter '{key}' "
                f"(accepts: {', '.join(sorted(entry.defaults))})")
        try:
            finite = math.isfinite(float(value))
        except (OverflowError, TypeError):  # a huge int; None, a list
            finite = False
        except ValueError:
            finite = True  # a string: the factory's own check rejects it
        if not finite:
            raise ConfigError(f"scenario '{name}': parameter '{key}' must be "
                              f"a finite number, not {value!r}")
    try:
        return entry.factory(**{**entry.defaults, **params})
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"scenario '{name}': {exc}") from exc


def scenario_names() -> list[str]:
    return list(REGISTRY)

"""Convex horizon components: curvatures, quermassintegrals, Penrose bound.

A body is a smooth closed convex hypersurface in R^n.  Curvature comes
from the Weingarten map of the defining function phi: with outward unit
normal m = grad phi/|grad phi| and any orthonormal tangent frame T, the
shape operator is T' (Hess phi) T / |grad phi|, whose eigenvalues are
the principal curvatures.  Surface integrals map a unit-sphere rule onto
the body with the exact area-element Jacobian of the parametrization.

Quermassintegrals are V_k = integral over the surface of sigma_k, the
binomially normalized elementary symmetric function of the principal
curvatures; V_0 is the area, V_1 = (integral of H_0)/(n-1), and V_{n-1}
equals the unit-sphere area by the degree of the Gauss map.  A body's
``elementary`` gives e_0..e_{n-1} of its curvatures.  In general they
come from the eigenvalues of the Weingarten map.  An ellipsoid has a
diagonal Hessian c = 2/a^2, and Cauchy-Binet expands the curvature
functions of its level set in closed form (Reilly 1973):
e_k = sum_i m_i^2 e_k(c without c_i) / |grad phi|^k, with no eigen-solve.
``quermassintegrals(body, rule)`` is the only surface pass; it reads the
weights and e_k from the body's ``surface_terms(rule)``.  The
Aleksandrov-Fenchel gaps, the Penrose bound and the horizon boundary
term are pure functions of its V vectors (or of the areas V_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BodyError, NonConvexError
from .jets import ScalarField
from .quad import SphereRule, sphere_rule, unit_sphere_area

_CONVEXITY_TOL = 1e-10
# The Gauss map of a closed convex surface covers the sphere once, so
# V_{n-1} = |S^{n-1}|.  A level set's probe pass misses it by at most
# 2.7e-4 relative on the bounded test sets (a quartic at n = 4), and by
# 0.5 on the unbounded exp(x1) + x2^2 + x3^2 < 3.
_GAUSS_MAP_TOL = 0.05
_EPS = np.finfo(float).eps


def _unit_normal(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit normals grad/|grad| and the norms |grad| of a batch."""
    gn = np.linalg.norm(grad, axis=-1)
    if np.any(gn == 0.0):
        raise BodyError("defining function has a critical point "
                        "on the surface")
    return grad / gn[:, None], gn


def _tangent_frame(normals: np.ndarray) -> np.ndarray:
    """Orthonormal tangent vectors (N, n, n-1) via Householder frames."""
    m = normals
    npts, n = m.shape
    s = np.where(m[:, 0] >= 0.0, -1.0, 1.0)
    w = m.copy()
    w[:, 0] -= s
    wsq = np.einsum("...i,...i->...", w, w)
    H = (np.eye(n)[None, :, :]
         - 2.0 * w[:, :, None] * w[:, None, :] / wsq[:, None, None])
    return H[:, :, 1:]


class ConvexBody:
    """Base class; subclasses provide the surface map and curvature data."""

    n: int
    center: np.ndarray

    def surface_sample(self, rule: SphereRule
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points on the boundary and their area weights."""
        raise NotImplementedError

    def shape_spectrum(self, points: np.ndarray) -> np.ndarray:
        """Principal curvatures (ascending) at on-surface points."""
        raise NotImplementedError

    def elementary(self, points: np.ndarray) -> np.ndarray:
        """e_0..e_{n-1} of the principal curvatures, shape (N, n)."""
        return _elementary_all(self.shape_spectrum(points))

    def surface_terms(self, rule: SphereRule):
        """Area weights and e_0..e_{n-1} at the rule's surface points."""
        pts, w = self.surface_sample(rule)
        return w, self.elementary(pts)

    def outer_radius(self) -> float:
        """Radius of a center-based bounding sphere (for disjointness)."""
        raise NotImplementedError

    def _weingarten(self, grad, hess) -> np.ndarray:
        m, gn = _unit_normal(grad)
        T = _tangent_frame(m)
        S = (np.swapaxes(T, -1, -2) @ hess @ T) / gn[:, None, None]
        kappas = np.linalg.eigvalsh(S)
        if np.min(kappas) < -_CONVEXITY_TOL:
            raise NonConvexError(
                f"principal curvature {np.min(kappas):.3e} < 0: "
                "surface is not convex")
        return kappas


@dataclass
class Sphere(ConvexBody):
    center: np.ndarray
    radius: float

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, float)
        self.radius = float(radius)
        self.n = len(self.center)
        if self.radius <= 0:
            raise BodyError("sphere radius must be positive")

    def surface_sample(self, rule):
        pts = self.center + self.radius * rule.nodes
        w = rule.weights * self.radius ** (self.n - 1)
        return pts, w

    def shape_spectrum(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        return np.full((len(pts), self.n - 1), 1.0 / self.radius)

    def outer_radius(self):
        return self.radius


@dataclass
class Ellipsoid(ConvexBody):
    center: np.ndarray
    semiaxes: np.ndarray

    def __init__(self, center, semiaxes):
        self.center = np.asarray(center, float)
        self.semiaxes = np.asarray(semiaxes, float)
        self.n = len(self.center)
        if self.semiaxes.shape != (self.n,):
            raise BodyError("semiaxes/center dimension mismatch")
        if np.any(self.semiaxes <= 0):
            raise BodyError("semiaxes must be positive")

    def surface_sample(self, rule):
        u = rule.nodes
        pts = self.center + u * self.semiaxes
        jac = np.prod(self.semiaxes) * np.linalg.norm(
            u / self.semiaxes, axis=1)
        return pts, rule.weights * jac

    def shape_spectrum(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        c = 2.0 / self.semiaxes ** 2
        hess = np.broadcast_to(np.diag(c), (len(pts), self.n, self.n))
        return self._weingarten(c * (pts - self.center), hess)

    def elementary(self, points):
        """Closed form: e_k = sum_i m_i^2 e_k(c without c_i) / |grad|^k
        with c = diag(Hess phi), so every e_k > 0 (see module docstring)."""
        pts = np.atleast_2d(np.asarray(points, float))
        c = 2.0 / self.semiaxes ** 2
        m, gn = _unit_normal(c * (pts - self.center))
        table = np.array([_elementary_all(np.delete(c, i))
                          for i in range(self.n)])
        e = (m * m) @ table / gn[:, None] ** np.arange(self.n)
        e[:, 0] = 1.0  # sum_i m_i^2 = 1 up to roundoff
        return e

    def outer_radius(self):
        return float(np.max(self.semiaxes))


class SmoothLevelSet(ConvexBody):
    """Boundary {phi = level} of a smooth convex sublevel set.

    ``phi`` is any ScalarField whose Hessian is positive semidefinite on
    the surface (validated by sampling at construction).  The center
    must be an interior point (phi(center) < level); the surface is
    parametrized radially from it.  Each ray's radius is bracketed by
    doubling, narrowed to a few ulp by Chandrupatla's method and halved
    until its ends are adjacent floats, inside and outside.  A surface
    pass takes weights and curvatures from one order-2 jet of phi; the
    construction's convexity check makes that pass on its probe rule,
    the default ``sphere_rule``, and keeps it for that rule object.  The
    same pass rejects an unbounded set, whose V_{n-1} misses the unit
    sphere's area.
    """

    def __init__(self, phi: ScalarField, level: float, center=None,
                 name: str = "levelset"):
        self.phi = phi
        self.level = float(level)
        self.n = phi.n
        self.center = (np.zeros(self.n) if center is None
                       else np.asarray(center, float))
        self.name = name
        self._excess0 = float(phi.value(self.center[None, :])[0]) - self.level
        if self._excess0 >= 0.0:
            raise BodyError("center is not interior to the level set")
        probe = sphere_rule(self.n)
        radii = self._solve_radii(probe.nodes)
        self._outer = float(np.max(radii))
        self._probe = (probe, radii, None)
        # a probe pass; it raises NonConvexError if not convex
        self._probe = (probe, radii, self._terms(probe))
        _, w, e = self._probe[2]
        cover = float(w @ e[:, -1]) / unit_sphere_area(self.n)
        if abs(cover - 1.0) > _GAUSS_MAP_TOL:
            raise BodyError(
                f"level set is unbounded: its Gauss map covers {cover:.3g} "
                "of the unit sphere, not all of it once")

    def _excess(self, t: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """phi - level at distances t along the rays dirs."""
        return self.phi.value(self.center + t[:, None] * dirs) - self.level

    def _solve_radii(self, dirs: np.ndarray) -> np.ndarray:
        lo, hi = np.zeros(len(dirs)), np.ones(len(dirs))
        f_lo = np.full(len(dirs), self._excess0)
        for _ in range(80):
            f_hi = self._excess(hi, dirs)
            grow = f_hi < 0.0
            if not grow.any():
                break
            lo[grow], f_lo[grow] = hi[grow], f_hi[grow]
            hi[grow] *= 2.0
        else:
            raise BodyError("level set is unbounded along a ray")
        # Chandrupatla's steps until each bracket is at most 4 ulp wide:
        # per ray, a is the newest point, b the other end of the bracket
        # [lo, hi] (lo inside, hi outside) and c the end that a replaced
        rays, a, fa, b, fb, t = np.arange(len(dirs)), lo, f_lo, hi, f_hi, 0.5
        for _ in range(60):
            x = a + t * (b - a)
            fx = self._excess(x, dirs[rays])
            same = (fx < 0.0) == (fa < 0.0)
            a, b, c = x, np.where(same, b, a), np.where(same, a, b)
            fa, fb, fc = fx, np.where(same, fb, fa), np.where(same, fa, fb)
            lo[rays], hi[rays] = np.where(fa < 0.0, (a, b), (b, a))
            keep = np.abs(b - a) > 4.0 * _EPS * np.maximum(a, b)
            if not keep.any():
                break
            rays, a, b, c, fa, fb, fc = (
                v[keep] for v in (rays, a, b, c, fa, fb, fc))
            with np.errstate(all="ignore"):  # iqi is taken only where safe
                xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
                iqi = (fa / (fb - fa) * fc / (fb - fc)
                       + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
                t = np.where((ph * ph < xi) & ((1 - ph) ** 2 < 1 - xi),
                             iqi, 0.5)
            tl = 2.0 * _EPS * np.maximum(a, b) / np.abs(b - a)
            t = np.clip(t, tl, 1.0 - tl)
        return self._halve(dirs, lo, hi)

    def _halve(self, dirs, lo, hi):
        """Halve the brackets [lo, hi] (lo inside, hi outside) until no
        end moves: the radii of 90 halvings, in fewer steps."""
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            # lo is inside and hi outside, so a midpoint equal to either
            # leaves both in place: every later step would repeat it
            if np.all((mid == lo) | (mid == hi)):
                break
            inside = self._excess(mid, dirs) < 0.0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)

    def _terms(self, rule, curvatures=True):
        """Points, area weights and (with ``curvatures``) e_0..e_{n-1} on
        the rule's rays from one order-2 jet; the probe's are kept."""
        probe, radii, kept = self._probe
        if rule is probe and kept is not None:
            return kept
        rho = radii if rule is probe else self._solve_radii(rule.nodes)
        pts = self.center + rho[:, None] * rule.nodes
        jet = self.phi.jet3_many(pts, order=2)
        e = (_elementary_all(self._weingarten(jet.grad, jet.hess))
             if curvatures else None)
        gn = np.linalg.norm(jet.grad, axis=1)
        gu = np.einsum("ij,ij->i", jet.grad, rule.nodes)
        if np.any(gu <= 0.0):
            raise BodyError("surface is not star-shaped about the center")
        return pts, rule.weights * rho ** (self.n - 1) * gn / gu, e

    def surface_sample(self, rule):
        return self._terms(rule, curvatures=False)[:2]

    def surface_terms(self, rule):
        return self._terms(rule)[1:]

    def shape_spectrum(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        jet = self.phi.jet3_many(pts, order=2)
        return self._weingarten(jet.grad, jet.hess)

    def outer_radius(self):
        return self._outer


def _elementary_all(kappas: np.ndarray) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_d along the last axis."""
    d = kappas.shape[-1]
    e = np.zeros(kappas.shape[:-1] + (d + 1,))
    e[..., 0] = 1.0
    for i in range(d):
        k = kappas[..., i]
        top = min(i + 1, d)
        for j in range(top, 0, -1):
            e[..., j] += k * e[..., j - 1]
    return e


def quermassintegrals(body: ConvexBody,
                      rule: SphereRule | None = None) -> np.ndarray:
    """All V_k, k = 0..n-1, from a single surface-quadrature pass."""
    rule = rule or sphere_rule(body.n)
    w, e = body.surface_terms(rule)
    d = body.n - 1
    norms = np.array([math.comb(d, j) for j in range(d + 1)], float)
    return (w @ e) / norms


def af_gap(V) -> float:
    """V_1^{n-1} - V_0^{n-2} V_{n-1} of one body's quermassintegrals V;
    nonnegative for convex bodies, zero exactly on spheres."""
    n = len(V)
    return float(V[1] ** (n - 1) - V[0] ** (n - 2) * V[n - 1])


def af_chain_gaps(V) -> list[tuple[tuple[int, int, int], float, float]]:
    """All chain inequalities V_j^{k-i} >= V_i^{k-j} V_k^{j-i}.

    Returns (indices, gap, relative_gap) per admissible (i, j, k); the
    relative gap divides by the right-hand side.
    """
    out = []
    n = len(V)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                lhs = V[j] ** (k - i)
                rhs = V[i] ** (k - j) * V[k] ** (j - i)
                out.append(((i, j, k), float(lhs - rhs),
                            float((lhs - rhs) / rhs)))
    return out


@dataclass
class HorizonSet:
    """Pairwise-disjoint convex bodies acting as horizon components."""

    bodies: tuple[ConvexBody, ...]

    def __init__(self, bodies=()):
        self.bodies = tuple(bodies)
        dims = {b.n for b in self.bodies}
        if len(dims) > 1:
            raise BodyError(f"mixed dimensions {sorted(dims)}")
        for i, a in enumerate(self.bodies):
            for b in self.bodies[i + 1:]:
                gap = (np.linalg.norm(a.center - b.center)
                       - a.outer_radius() - b.outer_radius())
                if gap <= 0:
                    raise BodyError(
                        "bodies are not disjoint (bounding spheres "
                        f"overlap by {-gap:.3g})")

    def __len__(self):
        return len(self.bodies)

    def __iter__(self):
        return iter(self.bodies)


def penrose_bound(areas, n: int):
    """Sum over components of (1/2)(|Sigma_i|/omega_{n-1})^{(n-2)/(n-1)}:
    shape (...) for areas of shape (..., k), a float for one vector.  The
    powers are scalar ones and the sums run left to right, so each row
    equals its own call bit for bit, as a vectorised power need not."""
    a = np.asarray(areas, float)
    expo = (n - 2) / (n - 1)
    terms = np.reshape([0.5 * x ** expo for x in
                        (a / unit_sphere_area(n)).ravel().tolist()], a.shape)
    total = sum((terms[..., j] for j in range(a.shape[-1])),
                np.zeros(a.shape[:-1]))
    return float(total) if total.ndim == 0 else total


def superadditivity_gap(areas, n: int):
    """Componentwise bound minus merged-area bound; >= 0, zero iff one
    part.  Broadcasts over leading axes as ``penrose_bound`` does."""
    a = np.asarray(areas, float)
    if a.ndim == 0 or a.shape[-1] == 0 or np.any(a <= 0):
        raise ValueError("areas must be positive")
    merged = np.cumsum(a, axis=-1)[..., -1:]
    return penrose_bound(a, n) - penrose_bound(merged, n)


def horizon_mean_curvature_term(quermass) -> float:
    """Sum of integral(H_0)/(2(n-1) omega_{n-1}) = sum of V_1/(2 omega)
    over the quermassintegral vectors of the horizon components."""
    if len(quermass) == 0:
        return 0.0
    omega = unit_sphere_area(len(quermass[0]))
    return sum(float(V[1]) for V in quermass) / (2.0 * omega)

"""Convex horizon components: curvatures, quermassintegrals, Penrose bound.

A body is a smooth closed convex hypersurface in R^n.  Curvature comes
from the Weingarten map of the defining function phi: with outward unit
normal m = grad phi/|grad phi| and the Householder tangent frame T, the
shape operator is T' (Hess phi) T / |grad phi|, whose eigenvalues are
the principal curvatures: eigvalsh finds them, but at n = 3 they come in
closed form from the three entries of that 2x2 matrix, formed without a
frame.  Surface integrals map a unit-sphere rule onto the body with the
exact area-element Jacobian of the parametrization.

Quermassintegrals are V_k = integral over the surface of sigma_k, the
binomially normalized elementary symmetric function of the principal
curvatures; V_0 is the area, V_1 = (integral of H_0)/(n-1), and V_{n-1}
equals the unit-sphere area by the degree of the Gauss map.
``quermassintegrals(body, rule)`` is the only surface pass: it reads the
weights and e_0..e_{n-1} from ``surface_terms(rule)``, one pass over the
rule's nodes.  A level set takes e_k from Weingarten eigenvalues on radii
solved once per rule; a sphere repeats one point's constant e row.  An
ellipsoid has a diagonal Hessian c = 2/a^2, and Cauchy-Binet expands the
curvature functions of its level set in closed form (Reilly 1973):
e_k = sum_i m_i^2 e_k(c without c_i) / |grad phi|^k, with no eigen-solve.
The Aleksandrov-Fenchel gaps, the Penrose bound and the horizon boundary
term are pure functions of its V vectors (or of the areas V_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BodyError, NonConvexError
from .jets import ScalarField
from .quad import SphereRule, norm_sq, sphere_rule, unit_sphere_area

_CONVEXITY_TOL = 1e-10
# The Gauss map of a closed convex surface covers the sphere once, so
# V_{n-1} = |S^{n-1}|.  A level set's probe pass misses it by at most
# 2.7e-4 relative on the bounded test sets (a quartic at n = 4), and by
# 0.5 on the unbounded exp(x1) + x2^2 + x3^2 < 3.
_GAUSS_MAP_TOL = 0.05
_EPS = np.finfo(float).eps


def _householder(normals: np.ndarray):
    """w and |w|^2 of the reflections I - 2ww'/|w|^2 that swap each unit
    normal m with +-e_0, so that columns 1..n-1 are tangent vectors."""
    w = normals.copy()
    w[:, 0] -= np.where(w[:, 0] >= 0.0, -1.0, 1.0)
    return w, np.einsum("...i,...i->...", w, w)


def _principal_n(normals, hess, gn) -> np.ndarray:
    """Ascending principal curvatures: eigvalsh of S = T'HT/|grad phi|,
    with T the Householder tangent frame (N, n, n-1)."""
    w, wsq = _householder(normals)
    T = (np.eye(normals.shape[1])[:, 1:]
         - 2.0 * w[:, :, None] * w[:, None, 1:] / wsq[:, None, None])
    return np.linalg.eigvalsh(
        (np.swapaxes(T, -1, -2) @ hess @ T) / gn[:, None, None])


def _principal_3(normals, hess, gn) -> np.ndarray:
    """The same at n = 3, in closed form: with the tangents t_i = e_i -
    c w_i w (i = 1, 2; c = 2/|w|^2) and u = Hw, S = [[a, b], [b, d]] has
    entries (H_ij - c (w_i u_j + w_j u_i) + c^2 w_i w_j w'u)/|grad phi|,
    with no frame, and eigenvalues (a + d)/2 -+ hypot((a - d)/2, b)."""
    w, wsq = _householder(normals)
    c = 2.0 / wsq
    u = np.einsum("nij,nj->ni", hess, w)
    q = np.einsum("ni,ni->n", w, u)
    a, b, d = ((hess[:, i, j] - c * (w[:, i] * u[:, j] + w[:, j] * u[:, i])
                + c * c * w[:, i] * w[:, j] * q) / gn
               for i, j in ((1, 1), (1, 2), (2, 2)))
    mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
    return np.stack([mean - r, mean + r], axis=-1)


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

    def surface_terms(self, rule: SphereRule) -> tuple[np.ndarray, ...]:
        """Area weights and e_0..e_{n-1} (N, n) at the surface points."""
        raise NotImplementedError

    def outer_radius(self) -> float:
        """Radius of a center-based bounding sphere (for disjointness)."""
        raise NotImplementedError

    def _weingarten(self, grad, hess) -> np.ndarray:
        gn = np.sqrt(norm_sq(grad))
        if np.any(gn == 0.0):
            raise BodyError("defining function has a critical point "
                            "on the surface")
        principal = _principal_3 if self.n == 3 else _principal_n
        kappas = principal(grad / gn[:, None], hess, gn)
        if np.min(kappas) < -_CONVEXITY_TOL:
            raise NonConvexError(
                f"principal curvature {np.min(kappas):.3e} < 0: "
                "surface is not convex")
        return kappas


@dataclass(eq=False)
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

    def surface_terms(self, rule):
        """The curvatures are constant: one point's e row, repeated."""
        e = _elementary_all(self.shape_spectrum(
            self.center + self.radius * rule.nodes[:1]))
        return (rule.weights * self.radius ** (self.n - 1),
                np.repeat(e, len(rule.weights), axis=0))

    def outer_radius(self):
        return self.radius


@dataclass(eq=False)
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
        jac = np.prod(self.semiaxes) * np.sqrt(norm_sq(
            rule.nodes / self.semiaxes))
        return self.center + rule.nodes * self.semiaxes, rule.weights * jac

    def shape_spectrum(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        c = 2.0 / self.semiaxes ** 2
        hess = np.broadcast_to(np.diag(c), (len(pts), self.n, self.n))
        return self._weingarten(c * (pts - self.center), hess)

    def surface_terms(self, rule):
        """One pass over the nodes u: with q = u/a the area element is
        prod(a)|q|, and grad phi = 2q at center + a u, so m = q/|q| and
        e_k = sum_i m_i^2 e_k(c without c_i) / (2|q|)^k, c = 2/a^2."""
        q = rule.nodes / self.semiaxes
        qn = np.sqrt(norm_sq(q))
        c = 2.0 / self.semiaxes ** 2
        table = np.array([_elementary_all(np.delete(c, i))
                          for i in range(self.n)])
        q /= qn[:, None]  # m, then m^2, in q's own buffer
        e = np.square(q, out=q) @ table
        e[:, 0] = 1.0  # sum_i m_i^2 = 1 up to roundoff
        inv = power = 0.5 / qn
        for k in range(1, self.n):  # a running product, column by column
            e[:, k] *= power
            power = power * inv
        return rule.weights * (np.prod(self.semiaxes) * qn), e

    def outer_radius(self):
        return float(np.max(self.semiaxes))


class SmoothLevelSet(ConvexBody):
    """Boundary {phi = level} of a smooth convex sublevel set.

    ``phi`` is any ScalarField whose Hessian is positive semidefinite on the
    surface (validated by sampling at construction).  The center must be an
    interior point (phi(center) < level); the surface is parametrized
    radially from it.  Each ray's radius is bracketed by doubling, narrowed
    to a few ulp by Chandrupatla's method and halved until its ends are
    adjacent floats, inside and outside.  Rays close in the last step or
    two, so the Chandrupatla steps run on the full arrays until the first
    one does.  A surface pass takes weights and curvatures from one order-2
    jet of phi; the construction's convexity check makes that pass on
    ``rule`` (default ``sphere_rule(n)``) and keeps it for that rule object,
    so a body read on the rule it was built on solves its radii once.  The
    same pass rejects an unbounded set, whose V_{n-1} misses the unit
    sphere's area.
    """

    def __init__(self, phi: ScalarField, level: float, center=None,
                 rule: SphereRule | None = None):
        self.phi = phi
        self.level = float(level)
        self.n = phi.n
        probe = sphere_rule(self.n) if rule is None else rule
        if probe.n != self.n:
            raise BodyError(f"rule has n = {probe.n}, phi has n = {self.n}")
        self.center = (np.zeros(self.n) if center is None
                       else np.asarray(center, float))
        self._excess0 = float(phi.value(self.center[None, :])[0]) - self.level
        if self._excess0 >= 0.0:
            raise BodyError("center is not interior to the level set")
        radii = self._solve_radii(probe.nodes)
        self._outer = float(np.max(radii))
        # a probe pass; it raises NonConvexError if not convex
        self._kept = (probe, self._terms(probe, radii))
        _, w, e = self._kept[1]
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
        rays, a, fa, b, fb, t, d = slice(None), lo, f_lo, hi, f_hi, 0.5, dirs
        for _ in range(60):
            x = a + t * (b - a)
            fx = self._excess(x, d)
            same = (fx < 0.0) == (fa < 0.0)
            a, b, c = x, np.where(same, b, a), np.where(same, a, b)
            fa, fb, fc = fx, np.where(same, fb, fa), np.where(same, fa, fb)
            ins = fa < 0.0
            lo[rays], hi[rays] = np.where(ins, a, b), np.where(ins, b, a)
            keep = np.abs(b - a) > 4.0 * _EPS * np.maximum(a, b)
            if not keep.any():
                break
            if not keep.all():
                rays = np.arange(len(dirs))[rays][keep]
                a, b, c, fa, fb, fc, d = (
                    v[keep] for v in (a, b, c, fa, fb, fc, d))
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

    def _terms(self, rule, rho=None, curvatures=True):
        """Points, weights and (with ``curvatures``) e_0..e_{n-1} from one
        order-2 jet at radii rho, solved if None; kept for the probe rule."""
        if rho is None and rule is self._kept[0]:
            return self._kept[1]
        rho = self._solve_radii(rule.nodes) if rho is None else rho
        pts = self.center + rho[:, None] * rule.nodes
        jet = self.phi.jet3_many(pts, order=2)
        e = (_elementary_all(self._weingarten(jet.grad, jet.hess))
             if curvatures else None)
        gn = np.sqrt(norm_sq(jet.grad))
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


@dataclass(eq=False)
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

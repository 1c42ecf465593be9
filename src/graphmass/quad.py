"""Quadrature over spheres and unbounded exteriors.

Sphere rules by dimension:

* n = 2: uniform angles (trapezoid on the circle, spectrally exact).
* n = 3: Gauss-Legendre in cos(theta) x uniform in phi.
* n = 4: Gauss-Chebyshev (2nd kind) in the polar cosine x the n = 3 rule,
  from dS_3 = sqrt(1 - t^2) dt dS_2.
* n >= 5: scrambled-Sobol Gaussian directions, normalized, in antithetic
  pairs so odd integrands cancel exactly; fully determined by the seed.
  ``sobol`` generates the points from Joe and Kuo's direction numbers,
  tabulated here for d <= 33, and returns exactly what scipy's
  ``qmc.Sobol(d, scramble=True, seed=seed)`` does; ``ndtri`` is
  Wichura's AS241 inverse normal CDF.  The package imports numpy only.

Volume integrals over exteriors (``exterior_volume_integrate``) use
shells about the region's centre, adaptive Gauss panels in the radius,
an optional geometrically graded start near an excised boundary, and a
power-law tail fit past r_max unless the region has an outer radius.
Every sphere integral, shells included, is one ``sphere_integrals`` call
per batch of radii; ``sphere_rule`` builds each rule once and shares it
read-only, and ``point_rule`` integrates a rotation-invariant integrand
exactly on one node.  ``extrapolate_limit`` fits the limit r -> infinity
of a flux series in closed form on floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, IntegrabilityError, QuadratureError

HORIZON_OFFSET = 1e-6   # relative offset of the graded start at a horizon
MAX_DEPTH = 8           # bisection depth of an adaptive radial panel
TAIL_POINTS = 8         # shell samples in the tail fit
TAIL_FIT_FROM = 0.25    # the tail fit samples [TAIL_FIT_FROM r_max, r_max]
# A value within ROUNDOFF_K eps T of 0 is roundoff, where T is the size of
# the terms that cancel in it.  On R at 13 fields, the divergence
# identity's residual measured at most 5.3 eps T, and R >= -3 eps T
# where R >= 0 exactly.
ROUNDOFF_K = 64.0
DEFAULT_ORDER = {2: 64, 3: 48, 4: 20}  # sphere rule orders; Sobol for n >= 5
SOBOL_BITS = 30         # digits of each Sobol coordinate, as in scipy
FIT_XTOL = 1e-13        # tolerance of a fitted rate, relative past 1
_EPS = np.finfo(float).eps

# Joe and Kuo's primitive polynomial and initial direction numbers of
# dimensions 0 to 32, the rows of scipy's _sobol_direction_numbers.npz
# (poly, vinit) without their trailing zeros
SOBOL_TABLE = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)),
)


def unit_sphere_area(n: int) -> float:
    """Volume of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ----------------------------------------------------------------------
# sphere rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SphereRule:
    """Nodes on the unit sphere with weights summing to its total area."""

    n: int
    nodes: np.ndarray    # (N, n), unit vectors
    weights: np.ndarray  # (N,)
    half: "SphereRule | None" = None  # coarser companion for error estimates


def _normalize(nodes: np.ndarray, weights: np.ndarray, n: int) -> tuple:
    norms = np.linalg.norm(nodes, axis=1, keepdims=True)
    nodes = nodes / norms
    weights = weights * (unit_sphere_area(n) / weights.sum())
    return nodes, weights


def _circle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    m = 2 * order
    ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return nodes, np.full(m, 2.0 * math.pi / m)


def _product_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule on S^{n-1}, n <= 4, from dS_{n-1} = (1 - t^2)^{(n-3)/2}
    dt dS_{n-2}: a rule in the polar cosine t (Gauss-Legendre at n = 3,
    Gauss-Chebyshev of the second kind at n = 4) times the rule one
    dimension down, scaled by sqrt(1 - t^2)."""
    if n == 2:
        return _circle_rule(order)
    if n == 3:
        t, wt = np.polynomial.legendre.leggauss(order)
    else:
        k = np.arange(1, order + 1)
        t = np.cos(k * math.pi / (order + 1))
        wt = (math.pi / (order + 1)) * np.sin(k * math.pi / (order + 1)) ** 2
    base_nodes, base_w = _product_rule(n - 1, order)
    s = np.sqrt(1.0 - t * t)
    nodes = np.concatenate([
        np.repeat(t, len(base_nodes))[:, None],
        np.einsum("i,jk->ijk", s, base_nodes).reshape(-1, n - 1),
    ], axis=1)
    weights = np.outer(wt, base_w).ravel()
    return nodes, weights


@lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, SOBOL_BITS) direction numbers, column j scaled by
    2^(SOBOL_BITS - 1 - j)."""
    if d > len(SOBOL_TABLE):
        raise ConfigError(
            f"Sobol points of dimension d = {d} requested; direction "
            f"numbers are tabulated for d <= {len(SOBOL_TABLE)}")
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        p, vinit = SOBOL_TABLE[k]
        m = p.bit_length() - 1
        v[k, :m] = vinit
        for j in range(m, SOBOL_BITS):
            new = v[k, j - m]
            for i in range(m):
                if (p >> (m - 1 - i)) & 1:
                    new ^= v[k, j - i - 1] << (i + 1)
            v[k, j] = new
    return (v << np.arange(SOBOL_BITS - 1, -1, -1)).astype(np.uint32)


def sobol(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of the scrambled Sobol sequence in
    [0, 1)^d, bit for bit those of ``qmc.Sobol(d=d, scramble=True,
    seed=seed).random(count)``: Matousek's linear matrix scrambling plus
    a digital shift, drawn in Gray-code order.  Prefixes agree across
    ``count``."""
    rng = np.random.default_rng(seed)
    powers = 1 << np.arange(SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) @ powers
    ltm = np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS),
                               dtype=np.uint32))
    ltm |= np.eye(SOBOL_BITS, dtype=np.uint32)
    # direction j of dimension k becomes ltm[k] times its bits over GF(2),
    # both read most significant bit first
    msb_first = powers[::-1]
    bits = _sobol_directions(d)[:, :, None] // msb_first & 1
    sv = (np.einsum("kpi,kji->kjp", ltm, bits) & 1) @ msb_first
    # row i is row i - 1 XOR the direction of the lowest set bit of i
    i = np.arange(1, count)
    steps = np.vstack([shift, sv.T[np.frexp(i & -i)[1] - 1]])[:count]
    return np.bitwise_xor.accumulate(steps, axis=0) * 2.0 ** -SOBOL_BITS


# Wichura's AS241 (PPND16): numerator and denominator coefficients of
# its rational approximations, constant term first, in 0.425^2 - q^2 on
# |q| = |p - 1/2| <= 0.425, and in t - 1.6 for t <= 5 and t - 5 beyond,
# with t = sqrt(-log(min(p, 1 - p)))
_NDTRI_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2,
     1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
     5.3941960214247511077e3, 2.1213794301586595867e4,
     3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3))
_NDTRI_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0,
     5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
     6.89767334985100004550e-1, 1.48103976427480074590e-1,
     1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9))
_NDTRI_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0,
     1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
     1.48753612908506148525e-2, 7.86869131145613259100e-4,
     1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15))


def _horner(coefs: tuple, x: np.ndarray) -> np.ndarray:
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc


def ndtri(p) -> np.ndarray:
    """The inverse of the standard normal CDF on (0, 1), by Wichura's
    AS241.  Its approximations are good to about 1e-16 relative; in
    double the result is within 5 ulp of the exact quantile."""
    shape = np.shape(p)
    p = np.ravel(np.asarray(p, float))
    q = p - 0.5
    # the central approximation everywhere, kept finite where |q| > 0.425;
    # those tails are then replaced
    r = 0.180625 - np.minimum(q * q, 0.180625)
    num, den = _NDTRI_CENTRAL
    z = q * _horner(num, r) / _horner(den, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    t = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    for part, (num, den), shift in ((t <= 5.0, _NDTRI_NEAR, 1.6),
                                    (t > 5.0, _NDTRI_FAR, 5.0)):
        x = t[part] - shift
        t[part] = _horner(num, x) / _horner(den, x)
    z[tail] = np.copysign(t, q[tail])
    return z.reshape(shape)


def sphere_directions(u: np.ndarray) -> np.ndarray:
    """Unit vectors from rows of uniform (Sobol) samples: the inverse
    normal CDF of each coordinate, then each row normalized."""
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _qmc_rule(n: int, samples: int, seed: int) -> tuple:
    pairs = max(8, samples // 2)
    z = sphere_directions(sobol(n, pairs, seed))
    nodes = np.concatenate([z, -z], axis=0)
    weights = np.full(2 * pairs, unit_sphere_area(n) / (2 * pairs))
    return nodes, weights


def sphere_rule(n: int, order: int | None = None,
                samples: int | None = None, seed: int = 0,
                with_half: bool = True) -> SphereRule:
    """The quadrature rule on S^{n-1}, built once per distinct rule: the
    same arguments return the same object, whose arrays are read-only.
    ``order`` applies to n <= 4, ``samples`` and ``seed`` to n >= 5."""
    if n < 2:
        raise ValueError("sphere rules need n >= 2")
    if n <= 4:
        return _build_rule(n, order or DEFAULT_ORDER[n], None, 0, with_half)
    return _build_rule(n, None, samples or 4096, seed, with_half)


@lru_cache(maxsize=None)
def _build_rule(n: int, order: int | None, samples: int | None, seed: int,
                with_half: bool) -> SphereRule:
    if n <= 4:
        nodes, weights = _product_rule(n, order)
    else:
        nodes, weights = _qmc_rule(n, samples, seed)
    nodes, weights = _normalize(nodes, weights, n)
    nodes.flags.writeable = weights.flags.writeable = False
    half = None
    if with_half and n <= 4:
        half = _build_rule(n, max(4, order // 2), None, 0, False)
    elif with_half:
        half = _build_rule(n, None, max(16, len(weights) // 2), seed, False)
    return SphereRule(n=n, nodes=nodes, weights=weights, half=half)


@lru_cache(maxsize=None)
def point_rule(n: int) -> SphereRule:
    """The one-node rule on S^{n-1}: e_1 with weight |S^{n-1}|, exact for
    integrands invariant under rotations about the sphere's centre.
    Built once per n; its arrays are read-only and it has no ``half``."""
    nodes, weights = np.eye(1, n), np.array([unit_sphere_area(n)])
    nodes.flags.writeable = weights.flags.writeable = False
    return SphereRule(n=n, nodes=nodes, weights=weights)


def _checked(vals, count: int) -> np.ndarray:
    """An integrand's values, one per point or (k, points), all finite."""
    vals = np.asarray(vals, float)
    if vals.ndim > 2 or vals.shape[-1:] != (count,):
        raise QuadratureError("integrand returned a mismatched shape")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand is not finite on a sphere")
    return vals


def _radius_powers(radii: np.ndarray, n: int) -> list[float]:
    """The area factor r^{n-1} of each sphere; an overflow names its radius."""
    scale = []
    for r in radii:
        try:
            scale.append(float(r) ** (n - 1))
        except OverflowError:
            raise QuadratureError(
                f"the area factor r^{n - 1} of a sphere integral overflows "
                f"at radius r = {float(r):g}") from None
    return scale


def sphere_integrals(fn: Callable[[np.ndarray], np.ndarray], radii,
                     rule: SphereRule, center=0.0) -> np.ndarray:
    """Integrals of fn over the spheres of the given radii about
    ``center`` (default the origin), on the rule and on its ``half``.

    fn is called once, on the nodes of both rules at every radius, and
    returns one value per point or a (k, points) array; every value is
    checked.  Returns r^{n-1} (weights . values) per rule, row and
    radius, as an array (rules, k, radii) or (rules, radii).
    """
    radii = np.atleast_1d(np.asarray(radii, float))
    rules = (rule,) if rule.half is None else (rule, rule.half)
    # an overflowing area factor is named before fn meets that radius
    scale = _radius_powers(radii, rule.n)
    nodes = np.concatenate([q.nodes for q in rules])
    pts = center + (radii[:, None, None] * nodes).reshape(-1, rule.n)
    vals = _checked(fn(pts), len(pts))
    rows = np.atleast_2d(vals).reshape(-1, len(radii), len(nodes))
    parts = np.split(rows, [len(rule.weights)], axis=2)
    # one 1-D dot per row and radius: a matrix product may sum in another order
    out = np.array([[[s * float(q.weights @ v) for s, v in zip(scale, row)]
                     for row in part] for q, part in zip(rules, parts)])
    return out if vals.ndim == 2 else out[:, 0]


def sphere_integrate(fn: Callable[[np.ndarray], np.ndarray], r: float,
                     rule: SphereRule) -> tuple:
    """Integral of fn over the origin-centered sphere of radius r.

    fn returns one value per node, or a (k, nodes) array holding k
    integrands on the same nodes, each integrated on its own.  Returns
    (value, error_estimate), as floats or as k-tuples; the estimate
    compares against the rule's coarser companion and is advisory only,
    and exactly 0 on a rule without one, such as ``point_rule``.
    """
    ints = sphere_integrals(fn, r, rule)[..., 0]
    value, err = ints[0], np.abs(ints[0] - ints[-1])
    if value.ndim:
        return tuple(map(float, value)), tuple(map(float, err))
    return float(value), float(err)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadConfig:
    """Resolution and reproducibility knobs shared by the integrators."""

    seed: int = 20260817
    radii: tuple[float, ...] = (100.0, 200.0, 400.0, 800.0)
    r_max: float = 1000.0
    radial_tol: float = 1e-6

    def __post_init__(self):
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")

    def flux_rule(self, n: int) -> SphereRule:
        return sphere_rule(n, seed=self.seed)

    def body_rule(self, n: int) -> SphereRule:
        """The shells' rule: the flux rule's ``half``, given a ``half`` of
        its own for the angular error, drawn with the next seed so that
        for n >= 5 it repeats no Sobol node of the rule."""
        rule = self.flux_rule(n).half
        return replace(rule, half=sphere_rule(
            n, order=max(4, DEFAULT_ORDER.get(n, 0) // 4),
            samples=len(rule.weights) // 2, seed=self.seed + 1,
            with_half=False))


@dataclass(frozen=True)
class ExteriorRegion:
    """Radial description of the integration domain.

    The integral runs over |x - center| in [r_inner, r_outer] (r_max from
    the config if None; the origin if ``center`` is None).  An outer
    radius means the integrand vanishes beyond it: no tail fit.
    ``graded`` marks r_inner as a horizon: a geometric panel cascade
    starts at offset ``HORIZON_OFFSET * r_inner`` outside it, for
    integrands whose derivatives blow up there, and the radial skeleton
    is sized in units of r_inner instead of 1.
    """

    r_inner: float = 0.0
    graded: bool = False
    center: tuple[float, ...] | None = None
    r_outer: float | None = None


@dataclass
class VolumeIntegral:
    value: float
    tail_bound: float
    uncertainty: float
    q_fit: float | None
    panels: int


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# the panels of jets' graded profile antiderivative
_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


class _ShellIntegrand:
    """F(r) = r^{n-1} * (integral of fn over the sphere of radius r about
    ``center``), one row per rule: the rule, then its ``half``.  A batch
    of panels passes fn at most ``max_points`` points per call, by
    default one panel's worth on this rule."""

    def __init__(self, fn, rule: SphereRule, center,
                 max_points: int | None = None):
        self.fn, self.rule, self.center = fn, rule, center
        self.panel_points = len(_GL_NODES) * sum(
            len(q.weights) for q in (rule, rule.half) if q is not None)
        self.per_call = max(1, (max_points or self.panel_points)
                            // self.panel_points)

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        return sphere_integrals(self.fn, radii, self.rule, self.center)

    def panels(self, spans) -> list[np.ndarray]:
        """The Gauss panel of F on each span (lo, hi), from one call per
        batch of at most ``per_call`` spans."""
        out = []
        for i in range(0, len(spans), self.per_call):
            lo, hi = np.array(spans[i:i + self.per_call], float).T
            mid, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
            rows = self((mid[:, None] + h[:, None] * _GL_NODES).ravel())
            # one product per span: a batched product may sum in another order
            blocks = rows.reshape(len(rows), len(h), -1)
            out += [w * (blocks[:, j] @ _GL_WEIGHTS) for j, w in enumerate(h)]
        return out


def _adaptive_panels(shell: _ShellIntegrand, roots, floor: float) -> list:
    """(value, discrepancy, panels) of each root (lo, hi, whole, budget),
    where ``whole`` is the root's own panel; a value holds one entry per
    shell rule, and the first rule's decides.

    The refinement runs breadth first: at each level the halves of
    every open panel go out in one ``panels`` batch.  A panel closes when
    its halves' sum is within max(budget, floor) of its whole, or at
    MAX_DEPTH; otherwise each half opens with half the budget and itself
    as whole.  Closed panels are summed left then right from the leaves
    up, so each result is that of the depth-first recursion to the bit.
    """
    nodes = list(roots)
    done: list = [None] * len(nodes)
    kids = {}
    level = list(range(len(nodes)))
    for depth in range(MAX_DEPTH + 1):
        if not level:
            break
        halves = []
        for lo, hi, _, _ in (nodes[i] for i in level):
            mid = 0.5 * (lo + hi)
            halves += [(lo, mid), (mid, hi)]
        vals = shell.panels(halves)
        opened = []
        for k, i in enumerate(level):
            whole, budget = nodes[i][2:]
            left, right = vals[2 * k:2 * k + 2]
            both = left + right
            disc = abs(whole[0] - both[0])
            if disc <= max(budget, floor) or depth >= MAX_DEPTH:
                done[i] = (both, disc, 1)
                continue
            kids[i] = (len(nodes), len(nodes) + 1)
            opened += kids[i]
            nodes += [(*halves[2 * k], left, budget / 2),
                      (*halves[2 * k + 1], right, budget / 2)]
            done += [None, None]
        level = opened
    # kids come after their parent, so a backward pass sums them first
    for i in sorted(kids, reverse=True):
        (lv, le, lp), (rv, re, rp) = (done[k] for k in kids[i])
        done[i] = (lv + rv, le + re, lp + rp)
    return done[:len(roots)]


def _tail_fit(shell: _ShellIntegrand, r_lo: float, r_max: float,
              n: int) -> tuple[float, float | None]:
    """Fit |F(r)| ~ C r^{-s} on the outer decade; tail = 2C R^{1-s}/(s-1).

    ``shell`` gives two rows per radius: F(r), and the same shell
    integral of the scale T of the terms that cancel in the integrand.
    A radius whose |F| is at most ROUNDOFF_K eps times the latter is
    roundoff and left out; with fewer than 3 radii left there is no tail.
    """
    radii = np.geomspace(r_lo, r_max, TAIL_POINTS)
    values, scales = shell(radii)[0]
    mags = np.abs(values)
    good = mags > ROUNDOFF_K * _EPS * scales
    if good.sum() < 3:
        return 0.0, None
    logr, logm = np.log(radii[good]), np.log(mags[good])
    slope, intercept = np.polyfit(logr, logm, 1)
    scatter = float(np.sqrt(np.mean((intercept + slope * logr - logm) ** 2)))
    s = -slope
    q = s + (n - 1)
    if q <= n:
        if scatter > 0.5:
            # No credible power law: the shell values are cancellation
            # noise, not a resolved decay.  Bound the tail crudely by
            # constant continuation over one more outer length.
            return float(np.max(mags)) * r_max, None
        raise IntegrabilityError(
            f"tail decay exponent q = {q:.3g} <= n = {n}; "
            "the exterior integral does not converge")
    s = min(s, 400.0)
    c = math.exp(min(intercept, 700.0))
    tail = 2.0 * c * r_max ** (1.0 - s) / (s - 1.0)
    return tail, q


def _graded_edges(r0: float, offset: float, stop: float) -> list[float]:
    edges = [r0 + offset]
    while edges[-1] < stop:
        step = edges[-1] - r0
        edges.append(min(r0 + 2.0 * step, stop))
    return edges


def exterior_volume_integrate(fn, region: ExteriorRegion, cfg: QuadConfig,
                              rule: SphereRule, radial=None, tail=None
                              ) -> VolumeIntegral:
    """Integral of fn over the exterior region, in shell decomposition.

    Returns the truncated integral, a (conservative) bound on the
    discarded tail, and an advisory uncertainty: the panel refinement
    discrepancies plus the gap to the integral on the rule's ``half``.
    A panel splits until its discrepancy meets its share of ``radial_tol``;
    the panels of each refinement level are evaluated together.

    Without ``radial`` every shell evaluates fn on the nodes of the rule
    and of its ``half``.  A caller whose integrand is invariant under
    rotations about the region's centre on [r_inner, r_outer] may pass
    ``radial``, fn or fn with other bookkeeping: the walk's shells then
    integrate it on ``point_rule``, one point per radius with no angular
    error.

    The tail fit past r_max takes the walk's route: the nodes of the
    rule without its ``half``, or one point per radius with ``radial``.
    There it calls ``tail``, which returns two rows: the integrand, and
    the size T >= 0 of the terms that cancel in it, whose shell integral
    times ROUNDOFF_K eps is each radius' roundoff floor.  By default
    ``tail`` is the walked integrand with T = |integrand|: the floor of
    the sphere sum alone.
    """
    r_outer = cfg.r_max if region.r_outer is None else region.r_outer
    r0 = region.r_inner
    # a graded region's first shell starts at the horizon offset
    offset = HORIZON_OFFSET * r0 if region.graded and r0 > 0.0 else 0.0
    if r_outer <= r0 + offset:
        raise ValueError(
            f"the outer radius {r_outer} must exceed the inner radius {r0}"
            + (f" plus its horizon offset {offset:g}" if offset else ""))
    center = np.asarray(region.center or (0.0,) * rule.n, float)
    on_nodes = _ShellIntegrand(fn, rule, center)
    # no fn call gets more points than one panel on the rule and its half
    shell = (on_nodes if radial is None else _ShellIntegrand(
        radial, point_rule(rule.n), center, on_nodes.panel_points))
    start = r0
    cascade, skeleton = [], []
    if offset:
        stop = min(r0 * 1.01 + offset, r_outer)
        edges = _graded_edges(r0, offset, stop)
        cascade = list(zip(edges[:-1], edges[1:]))
        start = edges[-1]
    if start < r_outer:
        # coarse skeleton, refined adaptively
        scale = r0 if region.graded else 1.0
        k = max(2, min(12, int(math.ceil(math.log2(
            1.0 + (r_outer - start) / max(scale, 1e-12))))))
        edges = np.linspace(start, r_outer, k + 1)
        skeleton = list(zip(edges[:-1], edges[1:]))

    # the cascade and the skeleton's whole panels go out as one batch
    vals = shell.panels(cascade + skeleton)
    vals, wholes = vals[:len(cascade)], vals[len(cascade):]
    total = sum(vals, 0.0)  # becomes one entry per shell rule
    disc_sum, panels = 0.0, len(vals)
    # skipped sliver [r0, r0 + offset]: extrapolate the geometric trend
    first = [abs(v[0]) for v in vals[:2]]
    if len(first) == 2 and first[1] > 0:
        rho = first[0] / first[1]
        disc_sum += first[0] * (rho / (1.0 - rho) if rho < 0.9 else 1.0)
    roots = [(a, b, whole,
              cfg.radial_tol * max((b - a) / (r_outer - r0), 0.0))
             for (a, b), whole in zip(skeleton, wholes)]
    for v, e, p in _adaptive_panels(shell, roots, cfg.radial_tol * 1e-3):
        total += v
        disc_sum += e
        panels += p

    tail_bound, q = 0.0, None
    if region.r_outer is None:
        if tail is None:
            walked = fn if radial is None else radial

            def tail(pts):
                vals = walked(pts)
                return np.stack([vals, np.abs(vals)])

        tail_rule = (replace(rule, half=None) if radial is None
                     else point_rule(rule.n))
        tail_bound, q = _tail_fit(_ShellIntegrand(tail, tail_rule, center),
                                  cfg.r_max * TAIL_FIT_FROM, cfg.r_max,
                                  rule.n)
    angular = abs(total[0] - total[-1])
    unc = max(disc_sum, 0.5 * cfg.radial_tol) + tail_bound + angular
    return VolumeIntegral(float(total[0]), tail_bound, float(unc), q, panels)


# ----------------------------------------------------------------------
# radius extrapolation
# ----------------------------------------------------------------------

@dataclass
class ExtrapolationResult:
    limit: float
    uncertainty: float
    rate: float | None = None
    monotone: bool = True


_LOG_TINY = -math.log(np.finfo(float).tiny)


def _brent(f: Callable[[float], float], a: float, b: float,
           fa: float, fb: float) -> float:
    """A sign change of f between a and b, given fa = f(a) and fb = f(b)
    of opposite signs or 0, to a bracket of width FIT_XTOL (relative past
    1): Brent's method (Algorithms for Minimization without Derivatives,
    1973, ch. 4), inverse quadratic or secant steps where they stay in
    the bracket and shrink it fast enough, bisection where they do not."""
    if fa == 0.0:
        return a
    c, fc, d = a, fa, b - a
    e = d
    while fb != 0.0:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d = a, fa, b - a
            e = d
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * FIT_XTOL * max(1.0, abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def _solve_triple(r, v):
    """Exact fit of v = L + c r^{-s} through three samples, on floats."""
    d1, d2 = v[0] - v[1], v[1] - v[2]
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0.0:
        return None

    def mismatch(s):
        p0, p1, p2 = (x ** -s for x in r)
        return d1 * (p1 - p2) - d2 * (p0 - p1)

    # r^{-s} must stay a normal float at the largest radius, or the
    # mismatch underflows to 0 and the bracket end passes for a root
    lo, hi = 1e-3, min(64.0, _LOG_TINY / math.log(max(r[-1], 2.0)))
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo * f_hi > 0:
        return None
    s = _brent(mismatch, lo, hi, f_lo, f_hi)
    c = (v[0] - v[2]) / (r[0] ** -s - r[2] ** -s)
    return v[2] - c * r[2] ** -s, c, s


def _dot(x, y) -> float:
    return sum(map(operator.mul, x, y))


def _projection(r, v, s: float, terms: int):
    """The least-squares fit of v = L + c_1 r^{-s} (+ c_2 r^{-(s+1)} with
    two terms) at the fixed rate s, which is linear in the coefficients:
    (coefficients, residuals, d(residual sum of squares)/ds).  Closed form
    on floats: p = r^{-s} and q = r^{-(s+1)} centred on the constant
    column, q made orthogonal to p by a Gram-Schmidt step taken twice.  As
    in a solver's rank cutoff, a column below eps m times the basis' size,
    for m samples, gets coefficient 0."""
    m = len(v)
    p = [x ** -s for x in r]
    q = [a / x for a, x in zip(p, r)]
    floor = (_EPS * m) ** 2 * (m + _dot(p, p) + (terms - 1) * _dot(q, q))
    vbar, pbar, qbar = sum(v) / m, sum(p) / m, sum(q) / m
    res = [y - vbar for y in v]
    pc = [x - pbar for x in p]
    spp = _dot(pc, pc)
    c1 = _dot(pc, res) / spp if spp > floor else 0.0
    res = [a - c1 * b for a, b in zip(res, pc)]
    c2 = 0.0
    if terms == 2:
        u, g = [x - qbar for x in q], 0.0
        for _ in range(2 if spp > floor else 0):
            h = _dot(pc, u) / spp
            u, g = [a - h * b for a, b in zip(u, pc)], g + h
        uu = _dot(u, u)
        c2 = _dot(u, res) / uu if uu > floor else 0.0
        res = [a - c2 * b for a, b in zip(res, u)]
        # c1 pc + c2 u = (c1 - c2 g) pc + c2 (q - qbar)
        c1 -= c2 * g
    coef = (vbar - c1 * pbar - c2 * qbar, c1, c2)[:terms + 1]
    # the optimal coefficients' own change with s drops out of the slope
    slope = 2.0 * sum(e * math.log(x) * (c1 * a + c2 * b)
                      for e, x, a, b in zip(res, r, p, q))
    return coef, res, slope


def _fit_rate(r, v, terms: int, start: float) -> float:
    """The rate of the least-squares minimum nearest ``start`` downhill,
    within [start/2, 2 start] (variable projection, Golub and Pereyra
    1973): steps of doubling length from ``start`` until the slope of
    the residual changes sign, then Brent's method; a bracket end that
    is still downhill is the answer."""
    def slope(s):
        return _projection(r, v, s, terms)[2]

    lo, hi = 0.5 * start, 2.0 * start
    a, f_a = start, slope(start)
    step = 1e-3 * start * (1.0 if f_a < 0.0 else -1.0)
    while f_a != 0.0:
        b = min(max(a + step, lo), hi)
        f_b = slope(b)
        if f_b == 0.0 or (f_b > 0.0) != (f_a > 0.0):
            return _brent(slope, a, b, f_a, f_b)
        if b in (lo, hi):
            return b
        a, f_a, step = b, f_b, 2.0 * step
    return a


def extrapolate_limit(samples: Sequence[tuple[float, float]]
                      ) -> ExtrapolationResult:
    """Limit of v(r) as r -> infinity from samples (r, v), fitted as
    v = L + c r^{-s}.

    Needs >= 3 samples for a fit; constants return uncertainty 0; a
    non-monotone diff pattern falls back to the largest-radius value
    with an inflated uncertainty and monotone=False.  With more than
    three samples the rate is refitted by least squares from the last
    triple's exact fit, within a factor 2 of its rate.
    """
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) == 0:
        raise ValueError("no samples")
    r, v = [p[0] for p in pts], [p[1] for p in pts]
    if len(pts) == 1 or all(x == v[0] for x in v):
        return ExtrapolationResult(v[0], 0.0)
    if len(pts) == 2:
        return ExtrapolationResult(v[-1], abs(v[1] - v[0]))

    diffs = [b - a for a, b in zip(v, v[1:])]
    shrinking = all(abs(b) <= abs(a) * (1 + 1e-9)
                    for a, b in zip(diffs, diffs[1:]))
    same_sign = all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
    fits = []
    if same_sign and shrinking:
        for i in range(len(pts) - 2):
            fit = _solve_triple(r[i:i + 3], v[i:i + 3])
            if fit is not None:
                fits.append(fit)
    if not fits:
        # a non-monotone diff pattern, or no triple with a fit
        spread = float(np.max(np.abs(np.subtract(v, v[-1]))))
        return ExtrapolationResult(v[-1], max(spread, 1e-15),
                                   rate=None, monotone=False)

    L0, _, s0 = fits[-1]
    resid_rms = 0.0
    trunc = 0.0
    if len(pts) > 3:
        s0 = _fit_rate(r, v, 1, s0)
        coef, res, _ = _projection(r, v, s0, 1)
        L0 = coef[0]
        resid_rms = math.sqrt(_dot(res, res) / len(res))

        # Single-term fits of a multi-term decay are biased the same way
        # in every window, so the inter-fit spread misses the systematic
        # model error.  Gauge it against a two-term refit with a shared
        # rate, v = L + c1 r^-s + c2 r^-(s+1), started at the one-term
        # rate: four samples fit it exactly at many rates, so only the
        # nearest minimum is the same decay.
        coef2 = _projection(r, v, _fit_rate(r, v, 2, s0), 2)[0]
        trunc = abs(L0 - coef2[0])

    spread = max((abs(f[0] - L0) for f in fits), default=0.0)
    unc = max(spread, resid_rms, 2.0 * trunc, 1e-15 * (1.0 + abs(L0)))
    return ExtrapolationResult(L0, unc, rate=s0, monotone=True)

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
per batch of radii on the rule the caller picks; ``sphere_rule`` builds
each rule once and shares it read-only, and ``point_rule`` integrates a
rotation-invariant integrand exactly on one node.  ``extrapolate_limit``
takes the limit r -> infinity of a flux series on a geometric radius
ladder (``ladder_ratio``) in closed form: two-term Richardson
extrapolation, with the gap to Aitken's one-term limit as its error.
"""

from __future__ import annotations

import math
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
# At most this many points per shell-walk call, and at least one panel: a
# body-rule panel (17,280-36,864) goes alone, a point_rule level at once
SHELL_CALL_POINTS = 1 << 15
DEFAULT_ORDER = {2: 64, 3: 48, 4: 20}  # sphere rule orders; Sobol for n >= 5
SOBOL_BITS = 30         # digits of each Sobol coordinate, as in scipy
_EPS = float(np.finfo(float).eps)

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


def norm_sq(x: np.ndarray) -> np.ndarray:
    """Sum of x_i^2 over the last axis, added column by column: a few array
    operations instead of a reduction's per-row overhead on short rows.
    Bit for bit ``np.sum(x * x, axis=-1)`` for up to 7 columns; from 8 on
    numpy sums 8 ways at once, so the two differ at roundoff."""
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


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
    if not np.isfinite(vals).all():
        raise QuadratureError("integrand is not finite on a sphere")
    return vals


def _radius_powers(radii: np.ndarray, n: int) -> list[float]:
    """The area factor r^{n-1} of each sphere; an overflow names the
    first radius whose factor overflows."""
    rs = radii.tolist()
    try:
        return [r ** (n - 1) for r in rs]
    except OverflowError:
        pass
    for r in rs:
        try:
            r ** (n - 1)
        except OverflowError:
            raise QuadratureError(
                f"the area factor r^{n - 1} of a sphere integral overflows "
                f"at radius r = {r:g}") from None


def sphere_integrals(fn: Callable[[np.ndarray], np.ndarray], radii,
                     rule: SphereRule, center=0.0) -> np.ndarray:
    """Integrals of fn over the spheres of the given radii about
    ``center`` (default the origin), on the rule and on its ``half``.

    fn is called once, on the nodes of both rules at every radius, and
    returns one value per point or a (k, points) array; every value is
    checked.  Returns r^{n-1} (weights . values) per rule, row and
    radius, as an array (rules, k, radii) or (rules, radii); on
    ``point_rule`` as one array product, the 1-element dots exactly.
    """
    radii = np.atleast_1d(np.asarray(radii, float))
    rules = (rule,) if rule.half is None else (rule, rule.half)
    # an overflowing area factor is named before fn meets that radius
    scale = _radius_powers(radii, rule.n)
    nodes = np.concatenate([q.nodes for q in rules])
    pts = center + (radii[:, None, None] * nodes).reshape(-1, rule.n)
    vals = _checked(fn(pts), len(pts))
    rows = np.atleast_2d(vals).reshape(-1, len(radii), len(nodes))
    if len(nodes) == 1:
        # + 0.0 turns a product -0.0 into 0.0, as the dot's 0 + w v does
        out = scale * (rule.weights * rows[..., 0] + 0.0)[None]
        return out if vals.ndim == 2 else out[:, 0]
    parts = np.split(rows, [len(rule.weights)], axis=2)
    # one 1-D dot per row and radius: a matrix product may sum in another order
    out = np.array([[[s * float(q.weights @ v) for s, v in zip(scale, row)]
                     for row in part] for q, part in zip(rules, parts)])
    return out if vals.ndim == 2 else out[:, 0]


def sphere_integrate(fn: Callable[[np.ndarray], np.ndarray], radii,
                     rule: SphereRule) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of fn over the origin-centered spheres of the given
    radii (a number or a 1-D sequence), in one fn call.

    fn returns one value per point, or a (k, points) array of k
    integrands, each integrated on its own.  Returns (values, error
    estimates) as arrays (radii,) or (k, radii).  The estimate compares
    against the rule's ``half``: advisory, and exactly 0 without one.
    """
    ints = sphere_integrals(fn, radii, rule)
    return ints[0], np.abs(ints[0] - ints[-1])


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
    of panels passes fn as many whole panels per call as fit in
    SHELL_CALL_POINTS points, and at least one."""

    def __init__(self, fn, rule: SphereRule, center):
        self.fn, self.rule, self.center = fn, rule, center
        panel_points = len(_GL_NODES) * sum(
            len(q.weights) for q in (rule, rule.half) if q is not None)
        self.per_call = max(1, SHELL_CALL_POINTS // panel_points)

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
                              rule: SphereRule, tail=None) -> VolumeIntegral:
    """Integral of fn over the exterior region, in shell decomposition.

    Returns the truncated integral, a (conservative) bound on the
    discarded tail, and an advisory uncertainty: the panel refinement
    discrepancies plus the gap to the integral on the rule's ``half``.
    A panel splits until its discrepancy meets its share of ``radial_tol``;
    the panels of each refinement level are evaluated together.

    Every shell evaluates fn on the nodes of ``rule`` and of its
    ``half``.  The caller picks the rule: ``point_rule`` for an integrand
    invariant under rotations about the region's centre on [r_inner,
    r_outer] makes each shell one point per radius with no angular error.

    The tail fit past r_max evaluates on the rule without its ``half``.
    There it calls ``tail``, which returns two rows: the integrand, and
    the size T >= 0 of the terms that cancel in it, whose shell integral
    times ROUNDOFF_K eps is each radius' roundoff floor.  By default
    ``tail`` is fn with T = |fn|: the floor of the sphere sum alone.
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
    shell = _ShellIntegrand(fn, rule, center)
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
            def tail(pts):
                vals = fn(pts)
                return np.stack([vals, np.abs(vals)])

        tail_rule = rule if rule.half is None else replace(rule, half=None)
        tail_bound, q = _tail_fit(_ShellIntegrand(tail, tail_rule, center),
                                  cfg.r_max * TAIL_FIT_FROM, cfg.r_max, rule.n)
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


def ladder_ratio(radii) -> float:
    """The ratio q > 1 of a geometric ladder r_k = r_0 q^k: the sorted
    radii's successive ratios agree to 1e-12 relative, which also rules
    out repeats; else a ValueError."""
    r = sorted(float(x) for x in radii)
    ratios = [b / a for a, b in zip(r, r[1:])]
    q = ratios[0] if ratios else 0.0
    if not q > 1.0 or any(abs(x - q) > 1e-12 * q for x in ratios):
        raise ValueError(f"radii {tuple(r)} are not a geometric ladder "
                         "r_0 q^k with q > 1")
    return q


def extrapolate_limit(samples: Sequence[tuple[float, float]]
                      ) -> ExtrapolationResult:
    """Limit of v(r) as r -> infinity from samples (r, v) on a geometric
    ladder r_k = r_0 q^k (``ladder_ratio``), at least four of them.

    The last four samples fix the two-term model v = L + c_1 r^{-s} +
    c_2 r^{-(s+1)} in closed form (Richardson 1927; Sidi, Practical
    Extrapolation Methods, 2003, ch. 1): its differences are
    d_k = A x^k + B y^k with x = q^{-s} and y = x/q, so the last three
    fix x through (d_0/q) x^2 - (1 + 1/q) d_1 x + d_2 = 0, and the tail
    d_3 + d_4 + ... follows from their recurrence.  The uncertainty is
    the gap to Aitken's one-term limit, x = d_2/d_1.  A last difference
    within the roundoff floor ROUNDOFF_K eps max|v| returns the last
    value, the floor as uncertainty and no rate; differences that do not
    shrink with one sign, or no root x in (0, 1), fall back to the last
    value with the series' spread about it and monotone=False.
    """
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) < 4:
        raise ValueError(f"need at least four samples, not {len(pts)}")
    q = ladder_ratio(p[0] for p in pts)
    v = [p[1] for p in pts]
    floor = ROUNDOFF_K * _EPS * max(abs(x) for x in v)
    d0, d1, d2 = (b - a for a, b in zip(v[-4:], v[-3:]))
    if abs(d2) <= floor:
        return ExtrapolationResult(v[-1], floor)
    roots = []
    if d0 and d1 and 0.0 < d1 / d0 < 1.0 and 0.0 < d2 / d1 < 1.0:
        x1 = d2 / d1
        # the quadratic over d_1: a x^2 + b x + x1, with a > 0 and b < 0
        a, b = d0 / (q * d1), -(1.0 + 1.0 / q)
        disc = b * b - 4.0 * a * x1
        if disc >= 0.0:
            h = 0.5 * (math.sqrt(disc) - b)
            roots = [x for x in (h / a, x1 / h) if 0.0 < x < 1.0]
    if not roots:
        spread = max(abs(x - v[-1]) for x in v)
        return ExtrapolationResult(v[-1], spread, rate=None, monotone=False)
    x = min(roots, key=lambda t: abs(t - x1))
    y = x / q
    aitken = v[-1] + d2 * x1 / (1.0 - x1)
    limit = v[-1] + ((x + y) * d2 - x * y * (d1 + d2)) / ((1.0 - x)
                                                          * (1.0 - y))
    return ExtrapolationResult(limit, max(abs(limit - aitken), floor),
                               rate=-math.log(x) / math.log(q))

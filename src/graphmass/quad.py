"""Quadrature over spheres and unbounded exteriors.

Sphere rules by dimension:

* n = 2: uniform angles (trapezoid on the circle, spectrally exact).
* n = 3: Gauss-Legendre in cos(theta) x uniform in phi.
* n = 4: Gauss-Chebyshev (2nd kind) in the polar cosine x the n = 3 rule,
  from dS_3 = sqrt(1 - t^2) dt dS_2.
* n >= 5: scrambled-Sobol Gaussian directions, normalized, in antithetic
  pairs so odd integrands cancel exactly; fully determined by the seed.

Volume integrals over exteriors use shells about the region's centre,
adaptive Gauss panels in the radius, an optional geometrically graded
start near an excised boundary, and a power-law tail fit past r_max
unless the region has an outer radius.  Shells are also integrated on
the rule's ``half``, so the uncertainty covers the angular error.
The adaptive split evaluates each panel once: a refined half becomes
its child's whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, stats
from scipy.stats import qmc

from .errors import IntegrabilityError, QuadratureError

HORIZON_OFFSET = 1e-6   # relative offset of the graded start at a horizon
MAX_DEPTH = 8           # bisection depth of an adaptive radial panel
TAIL_POINTS = 8         # shell samples in the tail fit
DEFAULT_ORDER = {2: 64, 3: 48, 4: 20}  # sphere rule orders; Sobol for n >= 5


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
    label: str = ""
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


def _s2_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    t, wt = np.polynomial.legendre.leggauss(order)
    m = 2 * order
    ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    s = np.sqrt(1.0 - t * t)
    nodes = np.stack([
        np.repeat(t, m),
        np.outer(s, np.cos(ang)).ravel(),
        np.outer(s, np.sin(ang)).ravel(),
    ], axis=1)
    weights = np.repeat(wt, m) * (2.0 * math.pi / m)
    return nodes, weights


def _s3_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, order + 1)
    t = np.cos(k * math.pi / (order + 1))
    wt = (math.pi / (order + 1)) * np.sin(k * math.pi / (order + 1)) ** 2
    base_nodes, base_w = _s2_rule(order)
    s = np.sqrt(1.0 - t * t)
    nodes = np.concatenate([
        np.repeat(t, len(base_nodes))[:, None],
        np.einsum("i,jk->ijk", s, base_nodes).reshape(-1, 3),
    ], axis=1)
    weights = np.outer(wt, base_w).ravel()
    return nodes, weights


def sphere_directions(u: np.ndarray) -> np.ndarray:
    """Unit vectors from rows of uniform (Sobol) samples: the inverse
    normal CDF of each coordinate, then each row normalized."""
    z = stats.norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _qmc_rule(n: int, samples: int, seed: int) -> tuple:
    pairs = max(8, samples // 2)
    z = sphere_directions(qmc.Sobol(d=n, scramble=True, seed=seed)
                          .random(pairs))
    nodes = np.concatenate([z, -z], axis=0)
    weights = np.full(2 * pairs, unit_sphere_area(n) / (2 * pairs))
    return nodes, weights


def sphere_rule(n: int, order: int | None = None,
                samples: int | None = None, seed: int = 0,
                with_half: bool = True) -> SphereRule:
    """Build a quadrature rule on S^{n-1}."""
    if n < 2:
        raise ValueError("sphere rules need n >= 2")
    if n <= 4:
        order = order or DEFAULT_ORDER[n]
    if n == 2:
        nodes, weights = _circle_rule(order)
        label = f"circle-{order}"
    elif n <= 4:
        nodes, weights = (_s2_rule if n == 3 else _s3_rule)(order)
        label = f"gauss-{order}"
    else:
        samples = samples or 4096
        nodes, weights = _qmc_rule(n, samples, seed)
        label = f"sobol-{len(weights)}"
    nodes, weights = _normalize(nodes, weights, n)
    half = None
    if with_half:
        if n <= 4:
            half = sphere_rule(n, order=max(4, order // 2), seed=seed,
                               with_half=False)
        else:
            half = sphere_rule(n, samples=max(16, len(weights) // 2),
                               seed=seed, with_half=False)
    return SphereRule(n=n, nodes=nodes, weights=weights, label=label,
                      half=half)


def sphere_integrate(fn: Callable[[np.ndarray], np.ndarray], r: float,
                     rule: SphereRule) -> tuple:
    """Integral of fn over the origin-centered sphere of radius r.

    fn returns one value per node, or a (k, nodes) array holding k
    integrands on the same nodes, each integrated on its own.  Returns
    (value, error_estimate), as floats or as k-tuples; the estimate
    compares against the rule's coarser companion and is advisory only.
    """
    scale = float(r) ** (rule.n - 1)
    vals = np.asarray(fn(r * rule.nodes), float)
    if vals.ndim > 2 or vals.shape[-1:] != (len(rule.weights),):
        raise QuadratureError("integrand returned a mismatched shape")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand is not finite on the sphere")
    # one dot per row: a 2-d product may sum in another order
    value = [scale * float(rule.weights @ row) for row in np.atleast_2d(vals)]
    err = [0.0] * len(value)
    if rule.half is not None:
        coarse = np.atleast_2d(np.asarray(fn(r * rule.half.nodes), float))
        err = [abs(v - scale * float(rule.half.weights @ row))
               for v, row in zip(value, coarse)]
    if vals.ndim == 2:
        return tuple(value), tuple(err)
    return value[0], err[0]


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


class _ShellIntegrand:
    """F(r) = r^{n-1} * (integral of fn over the sphere of radius r about
    ``center``), one row per rule: the rule, then its ``half`` if it has
    one.  fn sees the nodes of both rules in one batch."""

    def __init__(self, fn, rule: SphereRule, center: np.ndarray):
        self.fn, self.center, self.n = fn, center, rule.n
        self.rules = (rule,) if rule.half is None else (rule, rule.half)
        self.nodes = np.concatenate([q.nodes for q in self.rules])

    def __call__(self, radii: np.ndarray) -> np.ndarray:
        radii = np.asarray(radii, float)
        pts = self.center + (radii[:, None, None]
                             * self.nodes[None, :, :]).reshape(-1, self.n)
        vals = np.asarray(self.fn(pts), float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is not finite inside a shell")
        parts = np.split(vals.reshape(len(radii), -1),
                         [len(self.rules[0].weights)], axis=1)
        return radii ** (self.n - 1) * np.array(
            [v @ q.weights for v, q in zip(parts, self.rules)])

    def panel(self, lo: float, hi: float) -> np.ndarray:
        mid, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return h * (self(mid + h * _GL_NODES) @ _GL_WEIGHTS)


def _adaptive_panel(shell: _ShellIntegrand, lo: float, hi: float,
                    whole: np.ndarray, budget: float, floor: float,
                    depth: int) -> tuple:
    """(value, discrepancy, panels) of [lo, hi]; a value holds one entry
    per shell rule, and the first rule's decides.  ``whole`` is a half
    of the parent."""
    mid = 0.5 * (lo + hi)
    left, right = shell.panel(lo, mid), shell.panel(mid, hi)
    halves = left + right
    disc = abs(whole[0] - halves[0])
    if disc <= max(budget, floor) or depth >= MAX_DEPTH:
        return halves, disc, 1
    lv, le, lp = _adaptive_panel(shell, lo, mid, left, budget / 2, floor,
                                 depth + 1)
    rv, re, rp = _adaptive_panel(shell, mid, hi, right, budget / 2, floor,
                                 depth + 1)
    return lv + rv, le + re, lp + rp


def _tail_fit(shell: _ShellIntegrand, r_lo: float, r_max: float,
              n: int) -> tuple[float, float | None]:
    """Fit |F(r)| ~ C r^{-s} on the outer decade; tail = 2C R^{1-s}/(s-1)."""
    radii = np.geomspace(r_lo, r_max, TAIL_POINTS)
    mags = np.abs(shell(radii)[0])
    floor = 1e-250
    if np.all(mags < floor):
        return 0.0, None
    good = mags > floor
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
                              rule: SphereRule) -> VolumeIntegral:
    """Integral of fn over the exterior region, in shell decomposition.

    Returns the truncated integral, a (conservative) bound on the
    discarded tail, and an advisory uncertainty: the panel refinement
    discrepancies plus the gap to the integral on the rule's ``half``.
    A panel splits until its discrepancy meets its share of ``radial_tol``.
    """
    r_outer = cfg.r_max if region.r_outer is None else region.r_outer
    if r_outer <= region.r_inner:
        raise ValueError("the outer radius must exceed the inner radius")
    shell = _ShellIntegrand(
        fn, rule, np.asarray(region.center or (0.0,) * rule.n, float))
    r0 = region.r_inner
    start = r0
    total = np.zeros(len(shell.rules))
    disc_sum, panels = 0.0, 0
    if region.graded and r0 > 0.0:
        offset = HORIZON_OFFSET * r0
        stop = min(r0 * 1.01 + offset, r_outer)
        edges = _graded_edges(r0, offset, stop)
        vals = [shell.panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        panels += len(vals)
        total += sum(vals)
        # skipped sliver [r0, r0 + offset]: extrapolate the geometric trend
        first = [abs(v[0]) for v in vals[:2]]
        if len(first) == 2 and first[1] > 0:
            rho = first[0] / first[1]
            disc_sum += first[0] * (rho / (1.0 - rho) if rho < 0.9 else 1.0)
        start = edges[-1]

    if start < r_outer:
        # coarse skeleton, refined adaptively panel by panel
        scale = r0 if region.graded else 1.0
        k = max(2, min(12, int(math.ceil(math.log2(
            1.0 + (r_outer - start) / max(scale, 1e-12))))))
        edges = np.linspace(start, r_outer, k + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            budget = cfg.radial_tol * max((b - a) / (r_outer - r0), 0.0)
            v, e, p = _adaptive_panel(shell, a, b, shell.panel(a, b),
                                      budget, cfg.radial_tol * 1e-3, 0)
            total += v
            disc_sum += e
            panels += p

    tail, q = 0.0, None
    if region.r_outer is None:
        tail, q = _tail_fit(shell, cfg.r_max / 4.0, cfg.r_max, rule.n)
    angular = abs(total[0] - total[-1])
    unc = max(disc_sum, 0.5 * cfg.radial_tol) + tail + angular
    return VolumeIntegral(float(total[0]), tail, float(unc), q, panels)


# ----------------------------------------------------------------------
# radius extrapolation
# ----------------------------------------------------------------------

@dataclass
class ExtrapolationResult:
    limit: float
    uncertainty: float
    rate: float | None = None
    monotone: bool = True


def _solve_triple(r: np.ndarray, v: np.ndarray):
    """Exact fit of v = L + c r^{-s} through three samples."""
    d1, d2 = v[0] - v[1], v[1] - v[2]
    if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0.0:
        return None

    def mismatch(s):
        p = r ** (-s)
        return (v[0] - v[1]) * (p[1] - p[2]) - (v[1] - v[2]) * (p[0] - p[1])

    lo, hi = 1e-3, 64.0
    if mismatch(lo) * mismatch(hi) > 0:
        return None
    s = optimize.brentq(mismatch, lo, hi, xtol=1e-13)
    p = r ** (-s)
    c = (v[0] - v[2]) / (p[0] - p[2])
    L = v[2] - c * p[2]
    return L, c, s


def extrapolate_limit(samples: Sequence[tuple[float, float]]
                      ) -> ExtrapolationResult:
    """Limit of v(r) as r -> infinity from samples (r, v), fitted as
    v = L + c r^{-s}.

    Needs >= 3 samples for a fit; constants return uncertainty 0; a
    non-monotone diff pattern falls back to the largest-radius value
    with an inflated uncertainty and monotone=False.
    """
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) == 0:
        raise ValueError("no samples")
    r = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if len(pts) == 1:
        return ExtrapolationResult(v[0], 0.0)
    if np.all(v == v[0]):
        return ExtrapolationResult(float(v[0]), 0.0)
    if len(pts) == 2:
        return ExtrapolationResult(float(v[-1]), float(abs(v[1] - v[0])))

    diffs = np.diff(v)
    shrinking = np.all(np.abs(diffs[1:]) <= np.abs(diffs[:-1]) * (1 + 1e-9))
    same_sign = np.all(diffs > 0) or np.all(diffs < 0)
    if not (same_sign and shrinking):
        spread = float(np.max(np.abs(v - v[-1])))
        return ExtrapolationResult(float(v[-1]), max(spread, 1e-15),
                                   rate=None, monotone=False)

    fits = []
    for i in range(len(pts) - 2):
        fit = _solve_triple(r[i:i + 3], v[i:i + 3])
        if fit is not None:
            fits.append(fit)
    if not fits:
        spread = float(np.max(np.abs(v - v[-1])))
        return ExtrapolationResult(float(v[-1]), max(spread, 1e-15),
                                   rate=None, monotone=False)

    L0, c0, s0 = fits[-1]
    resid_rms = 0.0
    trunc = 0.0
    if len(pts) > 3:
        def resid(x):
            return x[0] + x[1] * r ** (-abs(x[2])) - v

        sol = optimize.least_squares(resid, x0=[L0, c0, s0], xtol=1e-14,
                                     ftol=1e-14, gtol=1e-14)
        L0, c0, s0 = sol.x[0], sol.x[1], abs(sol.x[2])
        resid_rms = float(np.sqrt(np.mean(sol.fun ** 2)))

        # Single-term fits of a multi-term decay are biased the same way
        # in every window, so the inter-fit spread misses the systematic
        # model error.  Gauge it against a two-term refit with a free
        # shared exponent: v = L + c1 r^-s + c2 r^-(s+1).
        def resid2(x):
            s = abs(x[3])
            return (x[0] + x[1] * r ** (-s)
                    + x[2] * r ** (-(s + 1.0)) - v)

        sol2 = optimize.least_squares(resid2, x0=[L0, c0, 0.0, s0],
                                      xtol=1e-14, ftol=1e-14, gtol=1e-14)
        if np.all(np.isfinite(sol2.x)):
            trunc = abs(L0 - float(sol2.x[0]))

    spread = max((abs(f[0] - L0) for f in fits), default=0.0)
    unc = max(spread, resid_rms, 2.0 * trunc, 1e-15 * (1.0 + abs(L0)))
    return ExtrapolationResult(float(L0), float(unc), rate=float(s0),
                               monotone=True)

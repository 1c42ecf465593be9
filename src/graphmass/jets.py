"""Jets of scalar fields on R^n, to order 2 or 3.

A :class:`Jet3` carries the value, gradient, Hessian, and totally symmetric
third-derivative tensor of a function at one point or at a batch of points
(all arrays share an arbitrary leading batch shape).  An order-2 jet leaves
the third tensor as None and computes the rest with the same arithmetic:
the curvature, flux and level-set consumers read only the gradient and
Hessian, so they ask for order 2.  A radial or piecewise radial jet leaves
the value as None, since its profile value f is an integral that no
derivative needs: ``field.value(points)`` reads f.  Order 3 serves the
divergence route, the finite-difference comparison and the decay probe.
An expression field's values and jets come from one walk,
``expr.evaluate``, which checks the domain rules; a function of r alone
is walked on the 1-D points r and its n-D jet assembled as a radial
profile's.  Values apply no derivative rule, so :func:`fd_jet` stays an
independent check of the forward-mode rules the jets apply:

* product:   (fg)''' = f''' g + 3 sym(f'' o g') + 3 sym(f' o g'') + f g'''
* scalar chain rule for phi(w):
      h_i   = phi' w_i
      h_ij  = phi'' w_i w_j + phi' w_ij
      h_ijk = phi''' w_i w_j w_k
              + phi'' (w_ij w_k + w_ik w_j + w_jk w_i) + phi' w_ijk

Symmetry of the Hessian and third tensor is enforced by construction: every
rule above produces symmetric output from symmetric input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import expr as ex
from .errors import DomainError, UnboundParameterError
from .quad import (_GL24_NODES, _GL24_WEIGHTS, norm_sq, sobol,
                   sphere_directions)

_EPS = np.finfo(float).eps


# ----------------------------------------------------------------------
# jet container and algebra
# ----------------------------------------------------------------------

def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...j->...ij", a, b)


def _outer3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _outer(a, b)[..., None] * c[..., None, None, :]


def _sym_vec_mat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v_i m_jk + v_j m_ik + v_k m_ij (symmetric if m is)."""
    t = v[..., :, None, None] * m[..., None, :, :]  # t_ijk = v_i m_jk
    return (t + np.swapaxes(t, -3, -2)  # + v_k m_ij, by two swaps
            + np.swapaxes(np.swapaxes(t, -3, -1), -3, -2))


def check_order(order: int) -> None:
    """Reject a jet order other than 2 or 3."""
    if order not in (2, 3):
        raise ValueError(f"jet order must be 2 or 3, not {order!r}")


def _lift(fn, *parts):
    """fn of jet parts, or None if any is (order-2 third, radial value)."""
    return None if any(t is None for t in parts) else fn(*parts)


@dataclass
class Jet3:
    """Value (None if radial) and derivatives to order 3 (or 2) at points;
    a plain number in ``+ - * /`` is a constant, added or scaled by."""

    __array_ufunc__ = None  # a numpy scalar defers to the reflected operators

    value: np.ndarray | None   # shape B; None on a radial jet
    grad: np.ndarray           # shape B + (n,)
    hess: np.ndarray           # shape B + (n, n)
    third: np.ndarray | None   # shape B + (n, n, n); None at order 2

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.value + other.value, self.grad + other.grad,
                        self.hess + other.hess,
                        _lift(np.add, self.third, other.third))
        return Jet3(self.value + other, self.grad.copy(), self.hess.copy(),
                    _lift(np.copy, self.third))

    def __neg__(self):
        return Jet3(-self.value, -self.grad, -self.hess,
                    _lift(np.negative, self.third))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.value * other, self.grad * other,
                        self.hess * other,
                        _lift(lambda t: t * other, self.third))
        a, b = self, other
        av = a.value[..., None]
        bv = b.value[..., None]
        cross = _outer(a.grad, b.grad)
        hess = (av[..., None] * b.hess + bv[..., None] * a.hess
                + cross + np.swapaxes(cross, -1, -2))
        third = _lift(lambda at, bt: (av[..., None, None] * bt
                                      + bv[..., None, None] * at
                                      + _sym_vec_mat(b.grad, a.hess)
                                      + _sym_vec_mat(a.grad, b.hess)),
                      a.third, b.third)
        return Jet3(a.value * b.value, av * b.grad + bv * a.grad, hess, third)

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * jet_recip(other)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return jet_recip(self) * other

    __radd__, __rmul__ = __add__, __mul__

    def __getitem__(self, index) -> "Jet3":
        """The jet at one index (or slice) of the leading batch axis."""
        return Jet3(_lift(lambda v: np.asarray(v[index]), self.value),
                    self.grad[index], self.hess[index],
                    _lift(lambda t: t[index], self.third))

    def check_finite(self, context: str | Callable[[], str] = "jet"):
        for part in (self.value, self.grad, self.hess, self.third):
            if part is not None and not np.isfinite(part).all():
                raise DomainError("non-finite derivatives in " + (
                    context() if callable(context) else context))
        return self


def _leaf(shape: tuple[int, ...], order: int, value, grad=None,
          hess=None) -> Jet3:
    """Jet over points of shape (..., n) with the given value, gradient and
    Hessian (zero where not given), each broadcast to the batch, and a zero
    third tensor."""
    batch, n = shape[:-1], shape[-1]
    parts = [np.zeros(batch + (n,) * k) for k in range(order + 1)] + [None]
    for part, given in zip(parts, (value, grad, hess)):
        if given is not None:
            np.copyto(part, given)
    return Jet3(*parts[:4])


def jet_compose(w: Jet3, d0, d1, d2, d3) -> Jet3:
    """Chain rule for phi(w) given derivative values d0..d3 of phi at w
    (d3 is not read for an order-2 w)."""
    g, h = w.grad, w.hess
    d1e = np.asarray(d1)[..., None]
    d2e = np.asarray(d2)[..., None, None]
    hess = d2e * _outer(g, g) + d1e[..., None] * h
    third = _lift(lambda wt: (np.asarray(d3)[..., None, None, None]
                              * _outer3(g, g, g)
                              + d2e[..., None] * _sym_vec_mat(g, h)
                              + d1e[..., None, None] * wt), w.third)
    return Jet3(np.broadcast_to(np.asarray(d0, float), w.value.shape).copy(),
                d1e * g, hess, third)


# jet_sqrt, jet_log and jet_pow trust the walk's domain rules; jet_recip
# checks its own, since it also backs the public ``Jet3 /``.

def jet_recip(w: Jet3) -> Jet3:
    v = w.value
    if np.any(v == 0.0):
        raise DomainError("division by zero")
    inv = 1.0 / v
    return jet_compose(w, inv, -inv ** 2, 2 * inv ** 3, -6 * inv ** 4)


def jet_sqrt(w: Jet3) -> Jet3:
    v = w.value
    s = np.sqrt(v)
    return jet_compose(w, s, 0.5 / s, -0.25 * v ** -1.5, 0.375 * v ** -2.5)


def jet_exp(w: Jet3) -> Jet3:
    e = np.exp(w.value)
    return jet_compose(w, e, e, e, e)


def jet_log(w: Jet3) -> Jet3:
    v = w.value
    return jet_compose(w, np.log(v), 1.0 / v, -v ** -2.0, 2 * v ** -3.0)


def jet_sin(w: Jet3) -> Jet3:
    s, c = np.sin(w.value), np.cos(w.value)
    return jet_compose(w, s, c, -s, -c)


def jet_cos(w: Jet3) -> Jet3:
    s, c = np.sin(w.value), np.cos(w.value)
    return jet_compose(w, c, -s, -c, s)


def jet_pow(w: Jet3, c: float) -> Jet3:
    """w**c for a constant exponent c."""
    if c == 0.0:
        return _leaf(w.grad.shape, w.order, 1.0)
    if c == 1.0:
        return Jet3(w.value.copy(), w.grad.copy(), w.hess.copy(),
                    _lift(np.copy, w.third))
    v = w.value
    coef2 = c * (c - 1)
    coef3 = c * (c - 1) * (c - 2)
    d0 = ex.power(v, c)
    d1 = c * ex.power(v, c - 1)
    d2 = coef2 * ex.power(v, c - 2) if coef2 != 0 else np.zeros_like(v)
    d3 = coef3 * ex.power(v, c - 3) if coef3 != 0 else np.zeros_like(v)
    return jet_compose(w, d0, d1, d2, d3)


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------

def _on_jets(jet_op: Callable, value_op: Callable) -> Callable:
    """jet_op on a jet, value_op on a constant (a plain number)."""
    return lambda w, *c: (jet_op(w, *c) if isinstance(w, Jet3)
                          else value_op(w, *c))


# the jet operations of the expression walk, keyed as ``expr.VALUES``; a
# constant stays a number, so a product with it is a scaling
_JET_OPS = {
    "const": lambda v, pts, order: float(v),
    "coord": lambda pts, i, order: _leaf(pts.shape, order, pts[..., i],
                                         np.eye(pts.shape[-1])[i]),
    "radius_sq": lambda pts, order: _leaf(
        pts.shape, order, norm_sq(pts), 2.0 * pts,
        2.0 * np.eye(pts.shape[-1])),
    "value": lambda w: w.value if isinstance(w, Jet3) else w,
    **{key: _on_jets(op, ex.VALUES[key]) for key, op in (
        ("^", jet_pow), ("sqrt", jet_sqrt), ("exp", jet_exp),
        ("log", jet_log), ("sin", jet_sin), ("cos", jet_cos))}}


# ----------------------------------------------------------------------
# radial profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """1-D profile f(r) with derivatives to order 3; defined for r > r_min.

    ``f(r)`` is the value and ``slopes(r, k)`` the list [f_r, ..., f^(k)]
    for 1 <= k <= 3, taken in one pass; both accept numpy arrays.
    """

    f: Callable[[np.ndarray], np.ndarray]
    slopes: Callable[[np.ndarray, int], list]
    r_min: float = 0.0
    label: str = "profile"


def _graded_gauss_value(fr: Callable, r_min: float) -> Callable:
    """Antiderivative from r_min of an integrand ``fr(d)`` of the offset
    d = r - r_min.  With an inverse-square-root singularity at r_min,
    substituting d = t^2 makes it smooth, so plain Gauss panels on t
    converge fast: max(4, ceil(T)) of them on [0, T], T = sqrt(r - r_min).
    Radii with the same panel count are integrated in one batch, on
    24-point Gauss-Legendre panels.
    """

    def value(r):
        r = np.asarray(r, float)
        T = np.sqrt(np.maximum(r.reshape(-1) - r_min, 0.0))
        # 0 at r_min; a count too large to allocate raises in linspace
        panels = np.where(T > 0.0, np.maximum(4.0, np.ceil(T)), 0.0)
        flat = np.zeros(T.shape)
        for count in np.unique(panels[panels > 0.0]):
            sel = panels == count
            edges = np.linspace(0.0, T[sel], int(count) + 1, axis=-1)
            lo, hi = edges[:, :-1, None], edges[:, 1:, None]
            t = 0.5 * (hi - lo) * _GL24_NODES + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * _GL24_WEIGHTS
            terms = w * 2.0 * t * fr(t * t)
            flat[sel] = np.sum(terms.reshape(len(t), -1), axis=-1)
        return flat.reshape(r.shape) if r.shape else float(flat[0])

    return value


def profile_from_gradsq(gradsq: Callable, r_min: float = 0.0,
                        branch: int = -1,
                        label: str = "profile") -> RadialProfile:
    """Profile with prescribed squared slope u(r) = f_r(r)^2 >= 0, where
    ``gradsq(r, k)`` returns [u, ..., u^(k-1)].

    ``branch`` selects the sign of f_r.  The value f(r) is recovered by
    integrating |f_r| from r_min with a singularity-absorbing substitution.
    """
    sign = 1.0 if branch > 0 else -1.0

    def slopes(r, k):
        ur, *dus = gradsq(r, k)
        if np.less(ur, 0.0).any():  # ur may be a float
            raise DomainError(f"negative squared slope in {label}")
        root = np.sqrt(ur)
        out = [sign * root]
        if k > 1:
            h = dus[0] / (2.0 * root)
            out.append(sign * h)
        if k > 2:
            # h^2/sqrt(u), not u'^2/(4 u^{3/2}): u^{3/2} underflows first
            out.append(sign * (dus[1] / (2.0 * root) - h * h / root))
        return out

    antider = _graded_gauss_value(
        lambda d: np.sqrt(np.maximum(gradsq(r_min + d, 1)[0], 0.0)), r_min)

    def f(r):
        return sign * antider(r)

    return RadialProfile(f, slopes, r_min=r_min, label=label)


def horizon_profile(m: float, n: int, a: float,
                    psi: Callable | None = None,
                    label: str = "horizon graph",
                    psi_rise: Callable | None = None) -> RadialProfile:
    """Profile with f_r^2 = 2 mu/D, D = r^{n-2} - 2 mu, f_r < 0, outside its
    horizon r = a, a single root of D: raises ValueError unless D'(a) > 0.

    mu = m psi(r) is the weighted flux mass at radius r, and the scalar
    curvature is R = 2(n-1) mu'/r^{n-1}.  ``psi(r)`` returns (psi, psi',
    psi''); None means psi = 1, the Schwarzschild graph.  f integrates
    f_r in the offset d = r - a, by D(a + d) = a^{n-2} expm1((n-2)
    log1p(d/a)) - 2m psi_rise(d) with its digits as d -> 0, where
    ``psi_rise(d)`` is psi(a + d) - psi(a) (None: the difference)."""

    def parts(r, k):
        """psi, psi', psi'' and D to its k-th derivative at radii r."""
        r = np.asarray(r, float)
        ps = (1.0, 0.0, 0.0) if psi is None else psi(r)
        coefs = (1, n - 2, (n - 2) * (n - 3))[:k + 1]
        return ps, [c * np.power(r, max(n - 2 - j, 0)) - 2.0 * m * ps[j]
                    for j, c in enumerate(coefs)]

    if not parts(a, 1)[1][1] > 0.0:  # D'(a)
        raise ValueError(f"{label} leaves no single horizon: need "
                         "D'(a) > 0 for D = r^(n-2) - 2 m psi")

    psi_a = parts(a, 0)[0][0]
    rise = psi_rise or (lambda d: 0.0 if psi is None
                        else psi(a + d)[0] - psi_a)

    def abs_slope(d):
        """|f_r| at the radii a + d, from the offsets d."""
        dpsi = rise(d)
        D = a ** (n - 2) * np.expm1((n - 2) * np.log1p(d / a)) - 2 * m * dpsi
        return np.sqrt(np.maximum(2.0 * m * (psi_a + dpsi) / D, 0.0))

    def gradsq(r, k):
        (ps, dps, d2ps), D = parts(r, k - 1)
        out = [2.0 * m * ps / D[0]]
        if k > 1:
            num = dps * D[0] - ps * D[1]
            out.append(2.0 * m * num / (D[0] * D[0]))
        if k > 2:
            dnum = d2ps * D[0] - ps * D[2]
            out.append(2.0 * m * (dnum * D[0] - 2.0 * D[1] * num)
                       / (D[0] * D[0] * D[0]))
        return out

    antider = _graded_gauss_value(abs_slope, a)
    return replace(profile_from_gradsq(gradsq, r_min=a, label=label),
                   f=lambda r: -antider(r))


def schwarzschild_profile(m: float, n: int) -> RadialProfile:
    """Profile with f_r^2 = 2m/(r^{n-2} - 2m); horizon at r = (2m)^{1/(n-2)}.

    The branch is the decreasing one, f_r < 0.  For n = 3, 4 the
    antiderivative is closed-form; higher n integrates numerically.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if m <= 0:
        raise ValueError("mass must be positive")
    a = (2.0 * m) ** (1.0 / (n - 2))
    prof = horizon_profile(m, n, a, label=f"schwarzschild(n={n}, m={m})")
    if n == 3:
        return replace(prof, f=lambda r: -np.sqrt(
            8.0 * m * (np.asarray(r, float) - 2.0 * m)))
    if n == 4:
        s2m = math.sqrt(2.0 * m)

        def f4(r):
            r = np.asarray(r, float)
            return -s2m * np.log((r + np.sqrt(r * r - 2.0 * m)) / s2m)

        return replace(prof, f=f4)
    return prof


# ----------------------------------------------------------------------
# radial jets
# ----------------------------------------------------------------------

def _profile_at(profile: RadialProfile, r: np.ndarray, orders):
    """The profile's derivatives of the given orders (0 is f) at radii r
    outside r_min: the elementwise slopes from one call on the batch as
    given, f from one call on the distinct radii (batches repeat a
    handful; a lone radius is its own).  Only ``RadialField.value``
    asks for f, an integral of f_r (a numerical one on most profiles)."""
    if (r <= profile.r_min).any():
        raise DomainError(
            f"radius {float(np.min(r)):.6g} inside r_min={profile.r_min:.6g} "
            f"of {profile.label}")
    table = [None, *(profile.slopes(r, max(orders)) if max(orders) else [])]
    if 0 in orders:
        uniq, inverse = ((r, ...) if r.size < 2
                         else np.unique(r.reshape(-1), return_inverse=True))
        table[0] = np.asarray(profile.f(uniq), float)[inverse].reshape(r.shape)
    return [np.asarray(table[k], float) for k in orders]


@functools.lru_cache(maxsize=None)
def _sym3_table(n: int) -> np.ndarray:
    """The (n, n^3) table C, built once per n, with (u @ C)_ijk = d_ij u_k
    + d_ik u_j + d_jk u_i: one term u_m per entry, or 3 u_i at i = j = k."""
    eye = np.eye(n)
    table = _sym_vec_mat(eye, eye).reshape(n, n ** 3)
    table.flags.writeable = False
    return table


def _radial_tensors(pts, r, fr, frr, frrr=None):
    """Gradient, Hessian and, given f_rrr, third tensor (else None) of
    f(|x|) at the offsets ``pts`` from the centre, r = |pts|, from the
    profile's derivatives at r, by the radial decomposition (u = x/r):
        grad  = f_r u
        hess  = f_rr u o u + (f_r / r)(I - u o u)
        third = f_rrr u o u o u + (f_rr/r - f_r/r^2) sym3(I, u)
    where sym3(I, u)_ijk = d_ij u_k + d_ik u_j + d_jk u_i - 3 u_i u_j u_k,
    its first three terms one product u @ ``_sym3_table(n)``.
    """
    n = pts.shape[-1]
    u = pts / r[..., None]
    uu = _outer(u, u)
    hess = (frr[..., None, None] * uu
            + (fr / r)[..., None, None] * (np.eye(n) - uu))
    third = None
    if frrr is not None:
        uuu = uu[..., None] * u[..., None, None, :]
        sym = (u @ _sym3_table(n)).reshape(uuu.shape) - 3.0 * uuu
        third = (frrr[..., None, None, None] * uuu
                 + (frr / r - fr / r ** 2)[..., None, None, None] * sym)
    return fr[..., None] * u, hess, third


def radial_jet(profile: RadialProfile, point, center=None,
               order: int = 3) -> Jet3:
    """Jet of f(|x - center|) from the 1-D profile derivatives
    (``_radial_tensors``); at order 2 neither f_rrr nor the third tensor
    is evaluated, and at no order the value f, which
    ``RadialField.value`` reads: value=None.
    """
    check_order(order)
    pts = np.asarray(point, float)
    if center is not None:
        pts = pts - np.asarray(center, float)
    r = np.sqrt(norm_sq(pts))
    derivs = _profile_at(profile, r, range(1, order + 1))
    return Jet3(None, *_radial_tensors(pts, r, *derivs)).check_finite(
        profile.label)


# ----------------------------------------------------------------------
# scalar fields
# ----------------------------------------------------------------------

class ScalarField:
    """A scalar function on (a region of) R^n exposing jets.

    ``jet3_many(points, order)`` is the one jet entry point: order 3
    (the default) fills the third tensor, order 2 leaves it None, and
    any other order raises ValueError.
    """

    n: int

    def value(self, points) -> np.ndarray:
        raise NotImplementedError

    def jet3_many(self, points, order: int = 3) -> Jet3:
        raise NotImplementedError

    def radial_derivatives(self, points):
        """(r, h_r, h_rr) per point of a batch (m, n) where the field is
        h(|x - c|) near each point, c varying or not; else None."""
        return None

    def radial_about(self, center, r_lo: float, r_hi: float) -> bool:
        """Whether the field is h(|x - center|) on the whole annulus
        r_lo <= |x - center| <= r_hi, so that every sphere about
        ``center`` there carries one value of each radial quantity."""
        return False

    def jet3(self, point) -> Jet3:
        return self.jet3_many(np.asarray(point, float))


class ExprField(ScalarField):
    """Field defined by a parsed expression.

    An expression that reads no coordinate x_i is radial: through ``r``
    it is a function of |x|, radial about the origin, and with no
    variable at all it is a constant, radial about every centre, as
    decided once, at construction.  A function of r takes its jets and
    the radial derivatives that R reads from one walk on the 1-D points
    r; its n-D jets are assembled as ``radial_jet`` assembles a profile's.
    """

    def __init__(self, expression: ex.Expr | str, n: int,
                 params: dict[str, float] | None = None):
        if isinstance(expression, str):
            expression = ex.parse(expression, n)
        self.expression = expression
        self.n = n
        self.params = dict(params or {})
        symbols = ex.free_symbols(expression)
        missing = sorted(e.name for e in symbols if isinstance(e, ex.Param)
                         and e.name not in self.params)
        if missing:
            raise UnboundParameterError(
                f"parameters {missing} are not bound")
        self._reads_x = any(isinstance(e, ex.Coord) for e in symbols)
        self._reads_r = ex.Radial() in symbols

    def value(self, points):
        # an overflow, and a NaN it leads to, is reported as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            vals = ex.evaluate(self.expression, self.params, points)
        if not np.isfinite(vals).all():
            raise DomainError(
                f"non-finite value of '{ex.to_text(self.expression)}'")
        return vals

    def _walk(self, points, order):
        """The expression walk's jet at points (..., d), any d."""
        # an overflow, and a NaN it leads to, is reported as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            jet = ex.evaluate(self.expression, self.params, points, order,
                              _JET_OPS)
        if not isinstance(jet, Jet3):  # a constant expression
            jet = _leaf(np.shape(points), order, jet)
        return jet.check_finite(lambda: f"'{ex.to_text(self.expression)}'")

    def jet3_many(self, points, order=3):
        check_order(order)
        if self._reads_x or not self._reads_r:
            return self._walk(points, order)
        pts = np.asarray(points, float)
        r = np.sqrt(norm_sq(pts))
        jet = self._walk(r[..., None], order)
        return Jet3(jet.value, *_radial_tensors(
            pts, r, jet.grad[..., 0], jet.hess[..., 0, 0],
            _lift(lambda t: t[..., 0, 0, 0], jet.third))).check_finite(
                lambda: f"'{ex.to_text(self.expression)}'")

    def radial_derivatives(self, points):
        """From an order-2 walk on the 1-D points r = |x| if the expression
        reads no x_i (a constant takes r = 1 at the origin, about e_1)."""
        if self._reads_x:
            return None
        r = np.sqrt(norm_sq(np.asarray(points, float)))
        if not self._reads_r:
            r = np.where(r > 0.0, r, 1.0)
        jet = self._walk(r[..., None], 2)
        return r, jet.grad[..., 0], jet.hess[..., 0, 0]

    def radial_about(self, center, r_lo, r_hi):
        return not self._reads_x and (not self._reads_r
                                      or not np.any(center))


class RadialField(ScalarField):
    """Field f(|x - center|) defined by a radial profile."""

    def __init__(self, profile: RadialProfile, n: int, center=None):
        self.profile = profile
        self.n = n
        self.center = (np.zeros(n) if center is None
                       else np.asarray(center, float))

    def _radii(self, points):
        pts = np.asarray(points, float) - self.center
        return np.sqrt(norm_sq(pts))

    def value(self, points):
        return _profile_at(self.profile, self._radii(points), (0,))[0]

    def jet3_many(self, points, order=3):
        return radial_jet(self.profile, points, center=self.center,
                          order=order)

    def radial_derivatives(self, points, r=None):
        """``r``: the points' distances to the centre, if known."""
        r = self._radii(points) if r is None else r
        hr, hrr = _profile_at(self.profile, r, (1, 2))
        if np.isfinite(hr + hrr).all():
            return r, hr, hrr
        raise DomainError(f"non-finite derivatives in {self.profile.label}")

    def radial_about(self, center, r_lo, r_hi):
        return bool(np.array_equal(np.asarray(center, float), self.center))


# ----------------------------------------------------------------------
# finite-difference oracle
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fd_stencil(n: int):
    """The central-difference stencil in R^n, built once per n: its points'
    offsets from x in steps (x first); the ordered pairs i != j and the
    triples i < j < k; the parities si sj sk; and the indices of the
    points x + m e_i (m = 1, -1, 2, -2), x + si e_i + sj e_j and
    x + si e_i + sj e_j + sk e_k, signs in product order."""
    index = {(): 0}

    def at(*steps):
        return index.setdefault(tuple(sorted(steps)), len(index))

    signs = list(itertools.product((1, -1), repeat=3))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    triples = list(itertools.combinations(range(n), 3))
    tables = ([[at((i, m)) for i in range(n)] for m in (1, -1, 2, -2)],
              [[at((i, si), (j, sj)) for i, j in pairs]
               for si, sj in itertools.product((1, -1), repeat=2)],
              [[at(*zip(t, s)) for t in triples] for s in signs])
    offsets = np.zeros((len(index), n))
    for key, k in index.items():
        for axis, mult in key:
            offsets[k, axis] = mult
    out = (offsets, np.array(pairs, int).reshape(-1, 2).T,
           np.array(triples, int).reshape(-1, 3).T,
           np.prod(signs, axis=1).astype(float),
           *(np.array(t, int).reshape(len(t), -1) for t in tables))
    for table in out:  # the cache hands the same arrays to every call
        table.flags.writeable = False
    return out


def fd_jet(field: ScalarField, point, h=None) -> Jet3:
    """Central-difference jet, O(h^2) accurate in every component.

    Only ``field.value`` is used, so this is an independent check of the
    analytic propagation rules.  A 1-D array ``h`` of steps gives a jet
    with a leading step axis from one ``field.value`` call; each step's
    2h, h^2 and h^3 are Python floats, so its components equal those of
    a call with that step alone.
    """
    x = np.asarray(point, float)
    n = x.shape[-1]
    if x.ndim != 1:
        raise ValueError("fd_jet takes a single point")
    if h is None:
        h = _EPS ** (1.0 / 3.0) * max(1.0, float(np.max(np.abs(x))))
    if np.ndim(h) > 1:
        raise ValueError("fd_jet takes one step or a 1-D array of steps")
    steps = [float(s) for s in np.atleast_1d(h)]
    offsets, (I, J), tri, parity, one, two, three = _fd_stencil(n)
    pts = x + offsets * np.array(steps)[:, None, None]
    vals = np.asarray(field.value(pts.reshape(-1, n)), float).reshape(
        len(steps), -1)
    d1, d2, d3, d2x, d3x = np.array(
        [[2 * s, s ** 2, 2 * s ** 3, 4 * s ** 2, 8 * s ** 3]
         for s in steps]).T[:, :, None]
    p1, m1, p2, m2, pp, pm, mp, mm = (vals[:, k] for k in (*one, *two))
    diag, upper = np.arange(n), I < J
    hess = np.zeros((len(steps), n, n))
    hess[:, diag, diag] = (p1 - 2 * vals[:, :1] + m1) / d2
    # formed for i < j only, as hess[j, i] would sum in another order
    hess[:, I[upper], J[upper]] = hess[:, J[upper], I[upper]] = (
        pp - pm - mp + mm)[:, upper] / d2x
    third = np.zeros((len(steps), n, n, n))
    third[:, diag, diag, diag] = (p2 - 2 * p1 + 2 * m1 - m2) / d3
    third[:, I, I, J] = third[:, I, J, I] = third[:, J, I, I] = (
        pp - 2 * p1[:, J] + mp - pm + 2 * m1[:, J] - mm) / d3
    acc = np.zeros((len(steps), tri.shape[1]))
    for k, sign in zip(three, parity):
        acc = acc + sign * vals[:, k]
    for a, b, c in itertools.permutations(tri):
        third[:, a, b, c] = acc / d3x
    jet = Jet3(vals[:, 0], (p1 - m1) / d1, hess, third)
    return jet if np.ndim(h) else jet[0]


# ----------------------------------------------------------------------
# decay diagnostics
# ----------------------------------------------------------------------

@dataclass
class FlatnessReport:
    """Scaled derivative suprema by radius; bounded columns support decay.

    Column c_k(R) = sup_dirs |D^k f| * R^(k - 1 + p/2); the asymptotic
    decay hypothesis with rate p predicts each column stays bounded.
    """

    p: float
    radii: np.ndarray
    grad_sup: np.ndarray
    hess_sup: np.ndarray
    third_sup: np.ndarray
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not any(self.flags.values())


def flatness_report(field: ScalarField, p: float, radii,
                    n_dirs: int = 64, seed: int = 7) -> FlatnessReport:
    """Probe |grad f| r^{p/2}, |hess f| r^{1+p/2}, |D^3 f| r^{2+p/2}."""
    radii = np.sort(np.asarray(radii, float))
    dirs = sphere_directions(sobol(field.n, n_dirs, seed))
    cols = {"grad": [], "hess": [], "third": []}
    for r in radii:
        jet = field.jet3_many(r * dirs)
        cols["grad"].append(np.max(np.abs(jet.grad)) * r ** (p / 2))
        cols["hess"].append(np.max(np.abs(jet.hess)) * r ** (1 + p / 2))
        cols["third"].append(np.max(np.abs(jet.third)) * r ** (2 + p / 2))
    arrays = {k: np.asarray(v) for k, v in cols.items()}
    flags = {}
    for name, col in arrays.items():
        floor = 1e-14 * (1.0 + float(col.max(initial=0.0)))
        tail_rising = bool(len(col) >= 3 and col[-1] > col[len(col) // 2]
                           and col[-1] > col[-2])
        flags[name] = bool(col[-1] > max(2.0 * col.min(), floor)
                           and tail_rising)
    return FlatnessReport(p=p, radii=radii, grad_sup=arrays["grad"],
                          hess_sup=arrays["hess"], third_sup=arrays["third"],
                          flags=flags)

"""Pointwise geometry of the graph metric g = delta + df (x) df.

Every quantity reduces to contractions of the gradient and Hessian of f,
so the curvature, flux and level-set functions ask for order-2 jets:

    g_ij       = delta_ij + f_i f_j
    g^ij       = delta_ij - f_i f_j / W,          W = 1 + |grad f|^2
    Gamma^k_ij = f_ij f_k / W
    det g      = W
    R          = (1/W) [ f_ii f_jj - f_ij f_ij
                         - (2 f_j f_k / W)(f_ii f_jk - f_ij f_ik) ]

The scalar curvature is also the flat divergence of the field

    V_j = (f_ii f_j - f_ij f_i) / W,

which is the identity behind the boundary-flux mass formulas.  Every
flux integrand is a row of V . nu's one contraction, A . nu and A . nu/W
(A = W V) in :func:`flux_integrands_from_jet`.  Only
:func:`divergence_of_V` asks for the order-3 jet: it expands div V
through the third derivatives, an independent route to R.  On a field
radial about a centre at each point, :func:`scalar_curvature` builds no
n-D jet: R = (n-1)/(r W) (2 h_r h_rr / W + (n-2) h_r^2 / r), with
:func:`curvature_from_jet` as its oracle.  :func:`curvature_and_scale`
also returns T, the size of the terms that cancel in R, from the same
derivatives: a value of R within a few ulp of T is roundoff.  All
functions accept a batch (..., n) of points and return matching shapes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .jets import Jet3, ScalarField


def _curvature_parts(jet: Jet3):
    """Shared contractions: (W, tr, frob, Hg, gHg)."""
    g = jet.grad
    H = jet.hess
    W = 1.0 + np.einsum("...i,...i->...", g, g)
    tr = np.einsum("...ii->...", H)
    frob = np.einsum("...ij,...ij->...", H, H)
    Hg = np.einsum("...ij,...j->...i", H, g)
    gHg = np.einsum("...i,...i->...", g, Hg)
    return W, tr, frob, Hg, gHg


def _jet_curvature(jet: Jet3, scale: bool):
    """R and, with ``scale``, T (else None) from a jet of f."""
    W, tr, frob, Hg, gHg = _curvature_parts(jet)
    HgHg = np.einsum("...i,...i->...", Hg, Hg)
    R = (tr * tr - frob - 2.0 * (tr * gHg - HgHg) / W) / W
    if not scale:
        return R, None
    return R, (tr * tr + frob + 2.0 * (np.abs(tr * gHg) + HgHg) / W) / W


def curvature_from_jet(jet: Jet3) -> np.ndarray:
    """Scalar curvature of the graph metric from a jet of f."""
    return _jet_curvature(jet, False)[0]


def scalar_curvature(field: ScalarField, points):
    """R from the field's radial derivatives when it has them, else from
    its order-2 jet."""
    return curvature_and_scale(field, points, scale=False)[0]


def curvature_and_scale(field: ScalarField, points, scale: bool = True):
    """(R, T) as :func:`scalar_curvature` forms R, with T the size of the
    terms that cancel in it, from the same derivatives; T is None
    without ``scale``.  From the jet, T = (tr^2 + |H|^2 + 2(|tr gHg| +
    |Hg|^2)/W)/W; from the radial derivatives, T = (n-1)/(r W)
    (|2 h_r h_rr / W| + (n-2) h_r^2 / r)."""
    pts = np.asarray(points, float)
    radial = field.radial_derivatives(pts)
    if radial is None:
        return _jet_curvature(field.jet3_many(pts, order=2), scale)
    n, (r, hr, hrr) = field.n, radial
    W = 1.0 + hr * hr
    factor = (n - 1) / (r * W)
    bend, spread = 2.0 * hr * hrr / W, (n - 2) * hr * hr / r
    R = factor * (bend + spread)
    return R, factor * (np.abs(bend) + spread) if scale else None


def divergence_of_V(field: ScalarField, points):
    """Flat divergence of V, expanded through the quotient rule.

    Uses the order-3 jet: with A_j = f_ii f_j - f_ij f_i,

        div V = (div A)/W - A.(grad W)/W^2
        div A = f_iij f_j + f_ii f_jj - f_ijj f_i - f_ij f_ij

    The two third-order contractions cancel analytically; they are kept
    as written so this route exercises the full expansion rather than
    the simplified curvature formula.
    """
    pts = np.asarray(points, float)
    jet = field.jet3_many(pts, order=3)
    W, tr, frob, Hg, gHg = _curvature_parts(jet)
    g = jet.grad
    c_iij = np.einsum("...iij->...j", jet.third)
    c_jji = np.einsum("...ijj->...i", jet.third)
    div_A = (np.einsum("...j,...j->...", c_iij, g) + tr * tr
             - np.einsum("...i,...i->...", c_jji, g) - frob)
    HgHg = np.einsum("...i,...i->...", Hg, Hg)
    return div_A / W - 2.0 * (tr * gHg - HgHg) / (W * W)


def flat_mean_curvature(field: ScalarField, points):
    """Mean curvature H0 of the level set of f, outward normal -grad f/|grad f|.

    H0 = (-laplacian f + Hess f(grad f, grad f)/|grad f|^2) / |grad f|;
    with this sign a sphere of radius a given by f = -|x| has
    H0 = (n-1)/a > 0.
    """
    pts = np.asarray(points, float)
    jet = field.jet3_many(pts, order=2)
    _, tr, _, Hg, gHg = _curvature_parts(jet)
    gsq = np.einsum("...i,...i->...", jet.grad, jet.grad)
    if np.any(gsq == 0.0):
        raise DomainError("level set is degenerate: grad f vanishes")
    return (-tr + gHg / gsq) / np.sqrt(gsq)


def flux_integrands_from_jet(jet: Jet3, nu):
    """(A . nu, A . nu / W) with A_j = f_ii f_j - f_ij f_i."""
    W, tr, _, Hg, _ = _curvature_parts(jet)
    A = tr[..., None] * jet.grad - Hg
    plain = np.einsum("...j,...j->...", A, nu)
    return plain, plain / W


def _flux_rows(field: ScalarField, points, nu):
    jet = field.jet3_many(np.asarray(points, float), order=2)
    return flux_integrands_from_jet(jet, np.asarray(nu, float))


def boundary_integrand(field: ScalarField, points, nu):
    """V . nu = (f_ii f_j - f_ij f_i) nu_j / W.

    With nu = -grad f/|grad f| this equals |grad f|^2 H0 / W, the
    horizon-limit form of the boundary mass term.
    """
    return _flux_rows(field, points, nu)[1]


def mass_flux_integrand(field: ScalarField, points, nu, weighted: bool):
    """(f_ii f_j - f_ij f_i) nu_j, optionally with the extra 1/W factor.

    The unweighted form is the large-sphere mass-flux integrand; the
    weighted form (V . nu) is its algebraically equivalent variant whose
    flux converges faster for the model profiles.
    """
    return _flux_rows(field, points, nu)[weighted]

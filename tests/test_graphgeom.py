"""Curvature and flux-field identities for graph metrics g = I + df o df."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from field_helpers import RotatedField, flux_field
from graphmass import expr, quad
from graphmass.convexgeom import SmoothLevelSet
from graphmass.errors import DomainError
from graphmass.graphgeom import (boundary_integrand, curvature_and_scale,
                                 curvature_from_jet, divergence_of_V,
                                 flat_mean_curvature, mass_flux_integrand,
                                 scalar_curvature)
from graphmass.jets import (ExprField, RadialField, RadialProfile, ScalarField,
                            schwarzschild_profile)
from graphmass.mass import adm_flux_mass, horizon_hypotheses
from graphmass.scenarios import make_scenario

GENERIC = ExprField("0.3*x1^2*x2 + sin(1.1*x2)*x3 + 0.2*exp(x3)", 3)


def curvature_by_christoffel(field, x):
    """Scalar curvature of g = I + df o df assembled from first principles.

    Builds the Levi-Civita connection of the metric componentwise and
    contracts the Riemann tensor, using nothing from the closed-form
    route: only the jet of f and dense linear algebra.
    """
    x = np.asarray(x, float)
    jet = field.jet3_many(x[None, :])
    n = len(x)
    g1, H, T = jet.grad[0], jet.hess[0], jet.third[0]
    g = np.eye(n) + np.outer(g1, g1)
    ginv = np.linalg.inv(g)
    # dg[k, i, j] = d_k g_ij, d2g[l, k, i, j] = d_l d_k g_ij
    dg = np.einsum("ki,j->kij", H, g1) + np.einsum("i,kj->kij", g1, H)
    d2g = (np.einsum("lki,j->lkij", T, g1) + np.einsum("ki,lj->lkij", H, H)
           + np.einsum("li,kj->lkij", H, H) + np.einsum("i,lkj->lkij", g1, T))
    S = dg + dg.transpose(1, 0, 2) - np.moveaxis(dg, 0, 2)
    gam = 0.5 * np.einsum("kl,ijl->kij", ginv, S)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dS = d2g + d2g.transpose(0, 2, 1, 3) - np.moveaxis(d2g, 1, 3)
    dgam = (0.5 * np.einsum("mkl,ijl->mkij", dginv, S)
            + 0.5 * np.einsum("kl,mijl->mkij", ginv, dS))
    ric = (np.einsum("kkij->ij", dgam) - np.einsum("ikkj->ij", dgam)
           + np.einsum("kkm,mij->ij", gam, gam)
           - np.einsum("kim,mkj->ij", gam, gam))
    return float(np.einsum("ij,ij->", ginv, ric))


class TestScalarCurvature:
    def test_against_christoffel_assembly(self):
        """The closed form must match the connection-based computation."""
        rng = np.random.default_rng(20260817)
        for _ in range(8):
            x = rng.uniform(-0.8, 0.8, 3)
            direct = float(scalar_curvature(GENERIC, x[None, :])[0])
            assembled = curvature_by_christoffel(GENERIC, x)
            assert abs(direct - assembled) <= 1e-11 * (1.0 + abs(direct)), x

    def test_against_christoffel_assembly_n4(self):
        fld = ExprField("0.2*x1^2*x4 + 0.1*sin(x2)*x3 + 0.05*x4^3", 4)
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = rng.uniform(-0.8, 0.8, 4)
            direct = float(scalar_curvature(fld, x[None, :])[0])
            assembled = curvature_by_christoffel(fld, x)
            assert abs(direct - assembled) <= 1e-11 * (1.0 + abs(direct)), x

    def test_flat_and_linear_are_exactly_zero(self):
        pts = np.random.default_rng(1).uniform(-2, 2, (20, 3))
        assert np.all(scalar_curvature(ExprField("0", 3), pts) == 0.0)
        # constant gradient: every hessian contraction vanishes identically
        linear = ExprField("2*x1 - 0.5*x2 + x3", 3)
        assert np.all(scalar_curvature(linear, pts) == 0.0)

    def test_schwarzschild_is_scalar_flat(self):
        fld = RadialField(schwarzschild_profile(1.0, 3), 3)
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.concatenate([r * dirs for r in (2.5, 4.0, 10.0, 50.0)])
        assert float(np.max(np.abs(scalar_curvature(fld, pts)))) <= 1e-10

    def test_rotation_invariance(self):
        """R is a scalar: R_h(x) = R_f(Qx) for h = f o Q."""
        Q = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
        rot = RotatedField(GENERIC, Q)
        pts = np.random.default_rng(9).uniform(-0.7, 0.7, (25, 3))
        Ra = scalar_curvature(rot, pts)
        Rb = scalar_curvature(GENERIC, pts @ Q.T)
        assert float(np.max(np.abs(Ra - Rb))) <= 1e-12 * (
            1.0 + float(np.max(np.abs(Rb))))

    def test_perturbed_profile_curvature_formula(self):
        """f_r^2 = 2m psi/(r^{n-2} - 2m psi) with psi = 1 - b e^{-(r-a)}
        gives R = 2m (n-1) r^{1-n} psi'."""
        m, beta = 1.2, 0.25
        scn = make_scenario("schwarzschild_perturbed", m=m, beta=beta)
        a = 2.0 * m * (1.0 - beta)
        pts = np.array([[3.0, 0.4, -0.2], [5.0, 1.0, 2.0], [2.1, 0.3, 0.1],
                        [0.0, 4.0, 3.0]])
        r = np.linalg.norm(pts, axis=1)
        expected = 2.0 * m * 2.0 * r ** -2 * beta * np.exp(-(r - a))
        got = scalar_curvature(scn.field, pts)
        rel = float(np.max(np.abs(got - expected) / expected))
        assert rel <= 1e-8, rel

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.49])
    def test_perturbed_curvature_is_the_mass_function_slope(self, n, beta):
        """R = 2(n-1) mu'/r^{n-1} with mu = m psi, psi' = b e^{-(r-a)}, from
        the horizon out to r_max; where R has decayed below 1e-8 of its
        peak the closed form carries roundoff only, and is not compared."""
        m = 1.0
        scn = make_scenario("schwarzschild_perturbed", m=m, beta=beta, n=n)
        a = (2.0 * m * (1.0 - beta)) ** (1.0 / (n - 2))
        rng = np.random.default_rng(11)
        dirs = rng.standard_normal((400, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = np.geomspace(a * (1.0 + 1e-6), 60.0, len(dirs))
        exact = (2.0 * (n - 1) * m * beta * np.exp(-(r - a))
                 / r ** (n - 1))
        got = scalar_curvature(scn.field, r[:, None] * dirs)
        keep = exact > 1e-8 * exact.max()
        rel = float(np.max(np.abs(got[keep] - exact[keep]) / exact[keep]))
        assert rel <= 1e-9, rel


class TestDivergenceIdentity:
    def test_div_V_equals_R(self):
        """The uncanceled quotient-rule expansion agrees with the closed
        form pointwise; they share no simplification steps."""
        rng = np.random.default_rng(13)
        pts = rng.uniform(-0.9, 0.9, (500, 3))
        dv = divergence_of_V(GENERIC, pts)
        R = scalar_curvature(GENERIC, pts)
        sup = float(np.max(np.abs(dv - R) / (1.0 + np.abs(R))))
        assert sup <= 1e-10, sup

    def test_div_V_equals_R_radial(self):
        fld = RadialField(schwarzschild_profile(0.7, 3), 3)
        rng = np.random.default_rng(14)
        dirs = rng.standard_normal((100, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = 3.0 * dirs
        dv = divergence_of_V(fld, pts)
        R = scalar_curvature(fld, pts)
        assert float(np.max(np.abs(dv - R))) <= 1e-12

    def test_V_rotation_covariance(self):
        Q = np.linalg.qr(np.random.default_rng(21).standard_normal((3, 3)))[0]
        rot = RotatedField(GENERIC, Q)
        pts = np.random.default_rng(22).uniform(-0.7, 0.7, (10, 3))
        Va = flux_field(rot, pts)
        Vb = flux_field(GENERIC, pts @ Q.T) @ Q
        assert float(np.max(np.abs(Va - Vb))) <= 1e-13 * (
            1.0 + float(np.max(np.abs(Vb))))


class TestMeanCurvature:
    def test_sphere_anchor(self):
        """For f = -|x| the level spheres have H0 = (n-1)/a with the
        outward normal -grad f/|grad f|."""
        prof = RadialProfile(
            f=lambda r: -r,
            slopes=lambda r, k: [-np.ones_like(r), np.zeros_like(r),
                                 np.zeros_like(r)][:k])
        for n, a in ((3, 2.0), (4, 0.5)):
            fld = RadialField(prof, n)
            dirs = np.random.default_rng(n).standard_normal((50, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            h0 = flat_mean_curvature(fld, a * dirs)
            expected = (n - 1) / a
            assert float(np.max(np.abs(h0 - expected))) <= 1e-12 * expected

    def test_degenerate_gradient_raises(self):
        fld = ExprField("x1^2 + x2^2 + x3^2", 3)
        with pytest.raises(DomainError):
            flat_mean_curvature(fld, np.zeros((1, 3)))


class TestBoundaryIntegrand:
    def test_equals_V_dot_nu(self):
        pts = np.random.default_rng(31).uniform(0.3, 0.9, (40, 3))
        nu = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        bi = boundary_integrand(GENERIC, pts, nu)
        vdot = np.einsum("ij,ij->i", flux_field(GENERIC, pts), nu)
        assert float(np.max(np.abs(bi - vdot))) <= 1e-15 * (
            1.0 + float(np.max(np.abs(vdot))))

    def test_horizon_limit_form(self):
        """With nu = -grad f/|grad f|, V.nu = |grad f|^2 H0 / W.  This is
        the identity that turns the offset-surface flux into the mean
        curvature boundary term."""
        fld = RadialField(schwarzschild_profile(1.0, 3), 3)
        rng = np.random.default_rng(32)
        dirs = rng.standard_normal((60, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for radius in (2.0 * (1.0 + 1e-6), 2.5, 6.0):
            pts = radius * dirs
            j = fld.jet3_many(pts)
            gn = np.linalg.norm(j.grad, axis=1)
            nu = -j.grad / gn[:, None]
            W = 1.0 + gn * gn
            lhs = boundary_integrand(fld, pts, nu)
            rhs = gn * gn * flat_mean_curvature(fld, pts) / W
            rel = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
            # both sides cancel intermediates of size ~W, so the rounding
            # budget grows with the gradient blow-up near the horizon
            tol = 1e-14 * (100.0 + float(np.max(W)))
            assert rel <= tol, (radius, rel, tol)

    def test_weighted_flux_is_plain_over_W(self):
        pts = np.random.default_rng(33).uniform(0.2, 0.8, (25, 3))
        nu = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        plain = mass_flux_integrand(GENERIC, pts, nu, weighted=False)
        weighted = mass_flux_integrand(GENERIC, pts, nu, weighted=True)
        j = GENERIC.jet3_many(pts)
        W = 1.0 + np.einsum("ij,ij->i", j.grad, j.grad)
        assert float(np.max(np.abs(weighted - plain / W))) <= 1e-15 * (
            1.0 + float(np.max(np.abs(plain))))


class OrderLog(ScalarField):
    """Wraps a field and records the jet order of every request."""

    def __init__(self, base):
        self.base, self.n, self.orders = base, base.n, []

    def value(self, points):
        return self.base.value(points)

    def jet3_many(self, points, order=3):
        self.orders.append(order)
        return self.base.jet3_many(points, order=order)


class TestJetOrderRequests:
    """Every consumer of grad and hess asks for order 2; only the
    divergence route, which reads the third tensor, asks for order 3."""

    @pytest.fixture
    def scn3(self):
        scn = make_scenario("schwarzschild3")
        return dataclasses.replace(scn, field=OrderLog(scn.field))

    def pts_nu(self):
        pts = np.random.default_rng(40).uniform(3.0, 9.0, (20, 3))
        return pts, pts / np.linalg.norm(pts, axis=1, keepdims=True)

    def test_pointwise_consumers(self, scn3):
        fld = scn3.field
        pts, nu = self.pts_nu()
        for call, order in (
                (lambda: scalar_curvature(fld, pts), 2),
                (lambda: flat_mean_curvature(fld, pts), 2),
                (lambda: boundary_integrand(fld, pts, nu), 2),
                (lambda: mass_flux_integrand(fld, pts, nu, True), 2),
                (lambda: divergence_of_V(fld, pts), 3)):
            fld.orders.clear()
            call()
            assert fld.orders == [order]

    def test_flux_pair_and_horizon_probe(self, scn3):
        adm_flux_mass(scn3, 100.0)   # full rule and its half, one batch
        assert scn3.field.orders == [2]
        scn3.field.orders.clear()
        horizon_hypotheses(scn3)
        assert scn3.field.orders == [2]

    def test_level_set_curvatures(self):
        phi = OrderLog(ExprField("x1^4 + x2^4 + x3^4", 3))
        body = SmoothLevelSet(phi, level=1.0)
        rule = make_scenario("schwarzschild3").quad.body_rule(3)
        pts, _ = body.surface_sample(rule)
        body.shape_spectrum(pts)
        assert phi.orders and set(phi.orders) == {2}


def _shell_points(center, lo, hi, count, seed):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.asarray(center, float) + rng.uniform(lo, hi, (count, 1)) * dirs


class TestCancellingScale:
    """``curvature_and_scale`` gives R as ``scalar_curvature`` does, and
    T >= |R|, the size of the terms that cancel in R, on the radial and
    on the jet route; on a scalar-flat graph R is within the roundoff
    floor ROUNDOFF_K eps T, at masses from 1e-4 to 1e7."""

    @pytest.mark.parametrize(("name", "params"), [
        ("schwarzschild3", {}), ("schwarzschild3", {"m": 1e-4}),
        ("schwarzschild3", {"m": 1e7}), ("schwarzschild_n", {"n": 6}),
        ("radial_custom", {}), ("schwarzschild_perturbed", {}),
        ("bump", {})])
    def test_scale_bounds_R(self, name, params):
        scn = make_scenario(name, **params)
        pts = scn.sample_points(500, 1)
        eps = np.finfo(float).eps
        # the scenario's field, then the jet route alone
        for fld in (scn.field, OrderLog(scn.field)):
            R, T = curvature_and_scale(fld, pts)
            assert np.array_equal(R, scalar_curvature(fld, pts))
            assert curvature_and_scale(fld, pts, scale=False)[1] is None
            assert np.all(np.abs(R) <= T * (1.0 + 4.0 * eps))
            if scn.expected.get("bulk") == 0.0:
                assert np.all(np.abs(R) <= quad.ROUNDOFF_K * eps * T)


class TestRadialRoute:
    """scalar_curvature of a radial field comes from (r, h_r, h_rr); the
    closed form on the order-2 jet is its oracle."""

    @staticmethod
    def agree(field, pts):
        assert field.radial_derivatives(pts) is not None
        radial = scalar_curvature(field, pts)
        jet = curvature_from_jet(field.jet3_many(pts, order=2))
        assert np.max(np.abs(radial - jet) / (1.0 + np.abs(jet))) <= 1e-13
        return radial, jet

    @pytest.mark.parametrize(("name", "params"), [
        ("schwarzschild3", {}), ("schwarzschild_n", {"n": 4}),
        ("schwarzschild_n", {"n": 5}), ("radial_custom", {}),
        ("schwarzschild_perturbed", {}), ("two_body_glued", {}),
        ("bump", {}), ("bump", {"n": 5}), ("flat", {})])
    def test_matches_jet_route(self, name, params):
        scn = make_scenario(name, **params)
        self.agree(scn.field, scn.sample_points(2000, 3))

    def test_two_body_zones(self):
        """Both near annuli, the far annulus, and the dead zones between
        them, where both routes give exactly zero."""
        field = make_scenario("two_body_glued").field
        body1, body2 = (-100.0, 0.0, 0.0), (100.0, 0.0, 0.0)
        for pts in (_shell_points(body1, 16.0, 56.0, 500, 1),
                    _shell_points(body2, 16.0, 56.0, 500, 2),
                    _shell_points((0.0, 0.0, 0.0), 200.0, 320.0, 500, 3)):
            radial, _ = self.agree(field, pts)
            assert np.all(radial != 0.0)
        dead = np.concatenate([
            _shell_points(body1, 56.0, 80.0, 300, 4),
            _shell_points(body2, 56.0, 80.0, 300, 5),
            _shell_points((0.0, 0.0, 0.0), 0.0, 40.0, 300, 6),
            _shell_points((0.0, 0.0, 0.0), 180.0, 200.0, 300, 7)])
        radial, jet = self.agree(field, dead)
        assert np.all(radial == 0.0) and np.all(jet == 0.0)

    def test_asks_for_no_jet(self, monkeypatch):
        """The radial route builds no jet: a jet request would raise."""
        scn = make_scenario("schwarzschild3")

        def no_jet(self, points, order=3):
            raise AssertionError("jet requested")

        monkeypatch.setattr(RadialField, "jet3_many", no_jet)
        pts = scn.sample_points(100, 1)
        assert np.all(np.isfinite(scalar_curvature(scn.field, pts)))

    def test_radial_expression_asks_for_no_n_d_jet(self, monkeypatch):
        """bump's R comes from one order-2 walk on the 1-D points r and
        builds no jet; its div V, the order-3 expansion of the jet that
        another walk and the radial assembly give, is as independent a
        route to R as on a RadialField."""
        scn = make_scenario("bump")
        walks = []
        evaluate = expr.evaluate

        def logged(node, params, points, order=0, ops=expr.VALUES):
            walks.append((np.shape(points), order))
            return evaluate(node, params, points, order, ops)

        def no_jet(self, points, order=3):
            raise AssertionError("jet requested")

        monkeypatch.setattr(expr, "evaluate", logged)
        monkeypatch.setattr(ExprField, "jet3_many", no_jet)
        pts = scn.sample_points(100, 1)
        assert np.all(np.isfinite(scalar_curvature(scn.field, pts)))
        assert walks == [((100, 1), 2)]

    def test_inside_profile_domain_rejected(self):
        fld = RadialField(schwarzschild_profile(1.0, 3), 3)
        with pytest.raises(DomainError, match="inside r_min"):
            scalar_curvature(fld, np.array([[1.5, 0.0, 0.0]]))

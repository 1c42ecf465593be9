"""Sphere rules, exterior volume integration, and radius extrapolation."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from graphmass import (
    ExteriorRegion,
    IntegrabilityError,
    QuadConfig,
    QuadratureError,
    exterior_volume_integrate,
    extrapolate_limit,
    make_scenario,
    scalar_curvature,
    sphere_integrate,
    sphere_rule,
    unit_sphere_area,
)
from graphmass import quad


class TestSphereArea:
    def test_known_values(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2,
                                                    rel=1e-15)
        assert unit_sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3,
                                                    rel=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_sphere_area(0)


class TestSphereRules:
    def test_weights_sum_to_area(self):
        for n in (2, 3, 4, 5):
            rule = sphere_rule(n)
            assert float(rule.weights.sum()) == pytest.approx(
                unit_sphere_area(n), rel=1e-13)
            assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0,
                               atol=1e-14)

    def test_even_monomials_s2(self):
        """Product Gauss rules integrate low even monomials exactly:
        int x1^2 = 4pi/3, int x1^4 = 4pi/5, int x1^2 x2^2 = 4pi/15."""
        rule = sphere_rule(3)
        x = rule.nodes
        w = rule.weights
        cases = ((x[:, 0] ** 2, 4 * math.pi / 3),
                 (x[:, 0] ** 4, 4 * math.pi / 5),
                 (x[:, 0] ** 2 * x[:, 1] ** 2, 4 * math.pi / 15))
        for vals, exact in cases:
            assert float(w @ vals) == pytest.approx(exact, rel=1e-12)

    def test_odd_monomials_vanish(self):
        for n in (3, 4, 5):
            rule = sphere_rule(n)
            x, w = rule.nodes, rule.weights
            for vals in (x[:, 0], x[:, 0] ** 3, x[:, 0] * x[:, 1] ** 2):
                assert abs(float(w @ vals)) <= 1e-13

    def test_even_monomial_s3(self):
        rule = sphere_rule(4)
        got = float(rule.weights @ rule.nodes[:, 0] ** 2)
        assert got == pytest.approx(unit_sphere_area(4) / 4, rel=1e-12)

    def test_qmc_rule_second_moment(self):
        """n=5 uses scrambled low-discrepancy directions; only statistical
        accuracy is available for even integrands."""
        rule = sphere_rule(5)
        got = float(rule.weights @ rule.nodes[:, 0] ** 2)
        exact = unit_sphere_area(5) / 5
        assert abs(got - exact) <= 0.05 * exact

    def test_half_rule_attached(self):
        rule = sphere_rule(3)
        assert rule.half is not None
        assert rule.half.half is None
        assert len(rule.half.weights) < len(rule.weights)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            sphere_rule(1)


class TestSphereIntegrate:
    def test_constant_scales_with_radius(self):
        rule = sphere_rule(3)
        val, err = sphere_integrate(lambda p: np.ones(len(p)), 2.5, rule)
        assert val == pytest.approx(4 * math.pi * 2.5 ** 2, rel=1e-13)
        assert err >= 0.0

    def test_rejects_nonfinite(self):
        rule = sphere_rule(3)
        with pytest.raises(QuadratureError):
            sphere_integrate(lambda p: np.full(len(p), np.nan), 1.0, rule)

    def test_rejects_shape_mismatch(self):
        rule = sphere_rule(3)
        with pytest.raises(QuadratureError):
            sphere_integrate(lambda p: np.ones(3), 1.0, rule)

    def test_rows_integrate_like_single_integrands(self):
        """A (k, nodes) integrand gives, row by row, the bits of k calls."""
        rule = sphere_rule(3)
        fns = (lambda p: p[:, 0] ** 2, lambda p: 1.0 + p[:, 1] * p[:, 2])
        vals, errs = sphere_integrate(
            lambda p: np.stack([fn(p) for fn in fns]), 2.0, rule)
        singles = [sphere_integrate(fn, 2.0, rule) for fn in fns]
        assert vals == tuple(v for v, _ in singles)
        assert errs == tuple(e for _, e in singles)

    def test_rejects_nonfinite_row(self):
        rule = sphere_rule(3)
        with pytest.raises(QuadratureError):
            sphere_integrate(lambda p: np.stack(
                [np.ones(len(p)), np.full(len(p), np.inf)]), 1.0, rule)


class TestExteriorVolume:
    def test_gaussian_reference_value(self):
        """int_{R^3} exp(-|x|^2) dV = pi^{3/2} = 5.568327996831708."""
        cfg = QuadConfig(r_max=12.0, radial_tol=1e-9)
        vi = exterior_volume_integrate(
            lambda p: np.exp(-np.sum(p * p, axis=1)),
            ExteriorRegion(), cfg, sphere_rule(3))
        assert abs(vi.value - 5.568327996831708) <= 1e-9
        assert abs(vi.value - math.pi ** 1.5) <= vi.uncertainty

    def test_annulus_of_inverse_square(self):
        """int over 1 <= r <= R of r^{-4} dV = 4pi (1 - 1/R)."""
        cfg = QuadConfig(r_max=50.0, radial_tol=1e-9)
        vi = exterior_volume_integrate(
            lambda p: np.sum(p * p, axis=1) ** -2,
            ExteriorRegion(r_inner=1.0), cfg, sphere_rule(3))
        exact = 4 * math.pi * (1.0 - 1.0 / 50.0)
        # the tail fit adds back an estimate of the discarded r > 50 part
        assert abs(vi.value - exact) <= 1e-7 * exact
        assert vi.q_fit == pytest.approx(4.0, abs=0.1)
        assert vi.tail_bound >= 4 * math.pi / 50.0

    def test_slow_decay_raises(self):
        """q <= n means the exterior integral diverges; this must abort
        rather than return a truncated number."""
        cfg = QuadConfig(r_max=40.0, radial_tol=1e-6)
        with pytest.raises(IntegrabilityError):
            exterior_volume_integrate(
                lambda p: (1.0 + np.sum(p * p, axis=1)) ** -1.5,
                ExteriorRegion(), cfg, sphere_rule(3, order=16))

    def test_roundoff_noise_is_not_divergence(self):
        """Shell values at the last-digit level fit a junk exponent; the
        scatter test must classify them as noise, not slow decay."""
        cfg = QuadConfig(r_max=40.0, radial_tol=1e-6)

        def noisy(p):
            r = np.linalg.norm(p, axis=1)
            return 1e-15 * (1.0 + 0.999 * np.cos(7.0 * r))

        vi = exterior_volume_integrate(noisy, ExteriorRegion(r_inner=1.0),
                                       cfg, sphere_rule(3, order=16))
        assert vi.q_fit is None
        assert abs(vi.value) <= 1e-8
        assert vi.tail_bound <= 1e-8

    def test_centred_bounded_region(self):
        """A Gaussian about c on shells about c: the shells see a radial
        function, and the outer radius replaces the tail fit."""
        c = (3.0, -1.0, 2.0)
        cfg = QuadConfig(r_max=1.0, radial_tol=1e-9)
        vi = exterior_volume_integrate(
            lambda p: np.exp(-np.sum((p - c) ** 2, axis=1)),
            ExteriorRegion(center=c, r_outer=8.0), cfg, sphere_rule(3))
        assert abs(vi.value - math.pi ** 1.5) <= 1e-9
        assert vi.tail_bound == 0.0 and vi.q_fit is None

    def test_uncertainty_covers_angular_error(self):
        """Off centre a coarse rule misses the Gaussian by far more than
        the radial tolerance; the gap to the rule's half covers it."""
        cfg = QuadConfig(r_max=12.0, radial_tol=1e-9)
        vi = exterior_volume_integrate(
            lambda p: np.exp(-np.sum((p - (1.5, 0.0, 0.0)) ** 2, axis=1)),
            ExteriorRegion(), cfg, sphere_rule(3, order=8))
        error = abs(vi.value - math.pi ** 1.5)
        assert error > 1e-6
        assert error <= vi.uncertainty

    def test_r_max_must_exceed_inner(self):
        cfg = QuadConfig(r_max=1.0)
        with pytest.raises(ValueError):
            exterior_volume_integrate(lambda p: np.ones(len(p)),
                                      ExteriorRegion(r_inner=2.0), cfg,
                                      sphere_rule(3))


class TestExtrapolateLimit:
    def test_exact_power_law(self):
        res = extrapolate_limit([(r, 3.0 + 5.0 * r ** -2)
                                 for r in (10.0, 20.0, 40.0, 80.0)])
        assert abs(res.limit - 3.0) <= 1e-9
        assert res.rate == pytest.approx(2.0, abs=1e-5)
        assert res.monotone

    def test_two_term_decay_covered_by_uncertainty(self):
        """A single-rate fit of 1 + r^-1 + 10 r^-2 lands off the true limit
        by a few 1e-3; the reported uncertainty has to cover that."""
        res = extrapolate_limit([(r, 1.0 + 1.0 / r + 10.0 / r ** 2)
                                 for r in (10.0, 20.0, 40.0, 80.0)])
        assert abs(res.limit - 1.0) <= res.uncertainty
        assert res.uncertainty <= 0.05

    def test_constant_series(self):
        res = extrapolate_limit([(r, 7.25) for r in (1.0, 2.0, 4.0)])
        assert res.limit == 7.25
        assert res.uncertainty == 0.0

    def test_non_monotone_falls_back(self):
        res = extrapolate_limit([(1.0, 1.0), (2.0, 2.0), (4.0, 1.5),
                                 (8.0, 1.8)])
        assert not res.monotone
        assert res.limit == 1.8
        assert res.uncertainty >= 0.8

    def test_two_samples(self):
        res = extrapolate_limit([(1.0, 1.0), (2.0, 1.5)])
        assert res.limit == 1.5
        assert res.uncertainty == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_limit([])


class TestQuadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(r_max=-1.0)
        with pytest.raises(ValueError):
            QuadConfig(radii=(10.0, -5.0))

    def test_body_rule_size_and_half(self):
        """The shells use the nodes of the flux rule's half and carry a
        coarser half of their own that repeats none of their nodes."""
        cfg = QuadConfig()
        for n in (3, 4, 5):
            body, flux_half = cfg.body_rule(n), cfg.flux_rule(n).half
            assert np.array_equal(body.nodes, flux_half.nodes)
            assert np.array_equal(body.weights, flux_half.weights)
            assert body.half is not None and body.half.half is None
            assert len(body.half.weights) < len(body.weights)
            shared = set(map(tuple, body.nodes)) & set(
                map(tuple, body.half.nodes))
            assert not shared, n


class TestShellMemo:
    @pytest.mark.parametrize(("name", "refines"),
                             [("schwarzschild_perturbed", False),
                              ("radial_custom", True)])
    def test_each_radii_batch_evaluated_once(self, name, refines,
                                             monkeypatch):
        """A refined half becomes its child's whole without a second
        request, so no panel is requested twice and fn never sees the
        same batch twice, whether or not the walk refines."""
        scn = make_scenario(name)
        requests, seen = [], []
        panel = quad._ShellIntegrand.panel

        def logged_panel(self, lo, hi):
            requests.append((lo, hi))
            return panel(self, lo, hi)

        def fn(pts):
            seen.append(pts.tobytes())
            return scalar_curvature(scn.field, pts)

        monkeypatch.setattr(quad._ShellIntegrand, "panel", logged_panel)
        res = exterior_volume_integrate(fn, scn.bulk_region[0], scn.quad,
                                        scn.quad.body_rule(scn.n))
        assert seen and len(seen) == len(set(seen))
        assert len(set(requests)) == len(requests)
        coarse = exterior_volume_integrate(
            fn, scn.bulk_region[0],
            replace(scn.quad, radial_tol=100.0 * scn.quad.radial_tol),
            scn.quad.body_rule(scn.n))
        assert (res.panels > coarse.panels) == refines

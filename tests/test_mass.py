"""Mass routes: boundary flux, bulk integral, radial closed form, checks."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from field_helpers import CountingField
from graphmass import quad
from graphmass.convexgeom import HorizonSet, Sphere
from graphmass.errors import ConfigError, DomainError, NonConvexError
from graphmass.jets import RadialField, RadialProfile, schwarzschild_profile
from graphmass.mass import (HORIZON_OFFSETS, Scenario, ScenarioEvaluation,
                            adm_flux_mass, adm_mass, bulk_mass, flux_series,
                            horizon_flux_convergence, horizon_hypotheses,
                            identity_tolerance, mass_normalization,
                            shell_sampler, spherical_mass)
from graphmass.quad import ExteriorRegion, QuadConfig
from graphmass.scenarios import make_scenario


def check(scenario, name):
    return ScenarioEvaluation(scenario).check(name)


def boundary_rows(scenario):
    return horizon_flux_convergence(scenario,
                                    ScenarioEvaluation(scenario).quermass)


@pytest.fixture(scope="module")
def scn3():
    return make_scenario("schwarzschild3")


@pytest.fixture(scope="module")
def bump():
    return make_scenario("bump")


class TestNormalization:
    def test_known_constants(self):
        """2(n-1) omega_{n-1}: 16 pi in n=3, 12 pi^2 in n=4."""
        assert mass_normalization(3) == pytest.approx(16.0 * math.pi,
                                                      rel=1e-15)
        assert mass_normalization(4) == pytest.approx(12.0 * math.pi ** 2,
                                                      rel=1e-15)


class TestShellSampler:
    def test_shape_and_bounds(self):
        sample = shell_sampler(3, 0.5, 20.0)
        pts = sample(500, 7)
        assert pts.shape == (500, 3)
        r = np.linalg.norm(pts, axis=1)
        assert r.min() >= 0.5 and r.max() <= 20.0

    def test_same_seed_is_deterministic(self):
        sample = shell_sampler(4, 1.0, 10.0)
        assert np.array_equal(sample(200, 3), sample(200, 3))
        assert not np.array_equal(sample(200, 3), sample(200, 4))

    def test_samplers_share_one_unit_draw(self, monkeypatch):
        """Samplers of one dimension draw each (count, seed) once and
        share its read-only arrays; their points equal those of an
        uncached draw bit for bit."""
        from graphmass import mass
        mass._unit_draw.cache_clear()
        draws = []

        def counted(*key):
            draws.append(key)
            return quad.sobol(*key)

        monkeypatch.setattr(mass, "sobol", counted)
        near, far = shell_sampler(3, 0.5, 20.0), shell_sampler(3, 2.0, 90.0)
        points = near(300, 5), far(300, 5)
        assert draws == [(4, 300, 5)]
        assert not any(a.flags.writeable for a in mass._unit_draw(4, 300, 5))
        u = quad.sobol(4, 300, 5)
        for (lo, hi), pts in zip(((0.5, 20.0), (2.0, 90.0)), points):
            radii = lo * (hi / lo) ** u[:, 0]
            assert np.array_equal(
                pts, radii[:, None] * quad.sphere_directions(u[:, 1:]))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            shell_sampler(3, 0.0, 5.0)
        with pytest.raises(ValueError):
            shell_sampler(3, 5.0, 1.0)


class TestFluxMass:
    def test_schwarzschild3_closed_forms(self, scn3):
        """Plain flux is m r/(r - 2m); the weighted variant is m at
        every radius, not just in the limit."""
        for r in (100.0, 400.0):
            plain, err = adm_flux_mass(scn3, r)
            weighted, _ = adm_flux_mass(scn3, r, weighted=True)
            exact = r / (r - 2.0)
            assert abs(plain - exact) <= 1e-12 * exact, (r, plain)
            assert abs(weighted - 1.0) <= 1e-12
            assert err >= 0.0

    def test_schwarzschild4_closed_forms(self):
        scn = make_scenario("schwarzschild_n", m=0.8)
        r = 40.0
        plain, _ = adm_flux_mass(scn, r)
        weighted, _ = adm_flux_mass(scn, r, weighted=True)
        exact = 0.8 * r * r / (r * r - 1.6)
        assert abs(plain - exact) <= 1e-12 * exact
        assert abs(weighted - 0.8) <= 1e-12

    def test_radius_must_clear_horizon(self, scn3):
        with pytest.raises(DomainError, match="does not enclose"):
            adm_flux_mass(scn3, 1.5)

    def test_one_jet_per_radius(self, scn3):
        """Both integrands come from one jet per radius: at one point on a
        field radial about the origin, and on the nodes of the full rule
        and of its half companion on a field that is not."""
        counting = CountingField(scn3.field)
        series = flux_series(dataclasses.replace(scn3, field=counting))
        radii = len(scn3.quad.radii)
        assert (counting.calls, counting.jet_points) == (radii, radii)
        assert series == adm_mass(scn3).series
        off = CountingField(RadialField(schwarzschild_profile(1.0, 3), 3,
                                        center=(0.5, 0.0, 0.0)))
        flux_series(dataclasses.replace(scn3, field=off))
        rule = scn3.quad.flux_rule(3)
        assert off.calls == radii
        assert off.jet_points == radii * (len(rule.weights)
                                          + len(rule.half.weights))

    def test_monotone_approach(self, scn3):
        """The plain series decreases to m from above as r grows."""
        series = adm_mass(scn3).series
        assert series.radii == scn3.quad.radii
        plain = np.array(series.plain)
        assert np.all(np.diff(plain) < 0.0)
        assert np.all(plain > 1.0)


class TestAdmMass:
    def test_schwarzschild3_limit(self, scn3):
        est = adm_mass(scn3)
        assert abs(est.value - 1.0) <= 1e-3
        assert abs(est.value - 1.0) <= est.uncertainty
        assert est.plain_limit.rate == pytest.approx(1.0, abs=0.2)

    def test_flat_is_exactly_zero(self):
        est = adm_mass(make_scenario("flat"))
        assert est.value == 0.0
        assert est.uncertainty == 0.0
        assert est.series.plain == (0.0, 0.0, 0.0, 0.0)


class TestSphericalMass:
    def test_known_values(self):
        profile = schwarzschild_profile(1.0, 3)
        assert spherical_mass(profile, 4.0, 3) == 2.0
        out = spherical_mass(profile, np.array([4.0, 8.0]), 3)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_matches_flux_at_quad_radii(self, scn3):
        for r in scn3.quad.radii:
            flux, _ = adm_flux_mass(scn3, r)
            closed = spherical_mass(scn3.profile, r, 3)
            assert abs(flux - closed) <= 1e-10 * closed

    def test_nonnegative_for_any_slope(self):
        """The radial mass is half a square: no profile makes it negative."""
        rng = np.random.default_rng(20260817)
        zero = lambda r: np.zeros_like(np.asarray(r, float))  # noqa: E731
        for _ in range(200):
            a, b, c = rng.uniform(-3.0, 3.0, 3)
            fr = (lambda r, a=a, b=b, c=c:
                  a * np.cos(b * r) + c * r / (1.0 + r * r))
            prof = RadialProfile(zero, fr, zero, zero, r_min=0.0,
                                 label="sweep")
            n = int(rng.integers(3, 6))
            r = float(rng.uniform(0.1, 30.0))
            assert spherical_mass(prof, r, n) >= 0.0

    def test_inside_domain_rejected(self):
        profile = schwarzschild_profile(1.0, 3)
        with pytest.raises(DomainError):
            spherical_mass(profile, 1.5, 3)


class TestBulkMass:
    def test_scalar_flat_integrates_to_noise(self, scn3):
        """Exterior Schwarzschild has R = 0: the bulk route returns
        float dust and a clean sign sample."""
        res = bulk_mass(scn3)
        assert abs(res.value) <= 1e-9
        assert res.min_R >= -1e-10
        assert res.sign_nodes > 0
        assert res.panels > 0

    def test_perturbed_carries_m_beta(self):
        """f_r^2 = 2m psi/(r^{n-2} - 2m psi) with psi = 1 - beta e^{-(r-a)}
        puts exactly m beta into the bulk term."""
        res = bulk_mass(make_scenario("schwarzschild_perturbed"))
        assert abs(res.value - 0.3) <= 1e-4
        assert res.min_R >= -1e-12

    def test_flat_value_exact(self):
        res = bulk_mass(make_scenario("flat"))
        assert res.value == 0.0
        assert res.min_R == 0.0

    @pytest.mark.parametrize("name", ["schwarzschild_perturbed",
                                      "radial_custom", "two_body_glued"])
    def test_sign_nodes_are_distinct_nodes(self, name, monkeypatch):
        """The sign sample counts each evaluated node once: the nodes of
        the rule and of its half on the shells about each region's
        centre, outside the guard band at a graded (horizon) edge."""
        scn = make_scenario(name)
        batches: dict = {}
        call = quad._ShellIntegrand.__call__

        def logged_call(self, radii):
            batches.setdefault(tuple(self.center), []).append(
                np.asarray(radii, float))
            return call(self, radii)

        monkeypatch.setattr(quad._ShellIntegrand, "__call__", logged_call)
        res = bulk_mass(scn)
        rule = scn.quad.body_rule(scn.n)
        nodes = np.concatenate([rule.nodes, rule.half.nodes])
        assert len(batches) == len(scn.bulk_region)
        count = 0
        for region in scn.bulk_region:
            radii = np.concatenate(
                batches[region.center or (0.0,) * scn.n])
            assert len(np.unique(radii)) == len(radii)
            dist = np.linalg.norm(radii[:, None, None] * nodes[None, :, :],
                                  axis=2)
            band = 1.01 * region.r_inner if region.graded else 0.0
            count += int(np.sum(dist >= band))
        assert res.sign_nodes == count

    @pytest.mark.parametrize("name", ["flat", "schwarzschild3",
                                      "schwarzschild_n", "radial_custom",
                                      "bump", "schwarzschild_perturbed",
                                      "two_body_glued"])
    def test_uncertainty_covers_half_rule(self, name, monkeypatch):
        """The bulk uncertainty covers the gap to the same integral
        walked on the body rule's half alone."""
        scn = make_scenario(name)
        res = bulk_mass(scn)
        body_rule = QuadConfig.body_rule
        monkeypatch.setattr(QuadConfig, "body_rule",
                            lambda cfg, n: body_rule(cfg, n).half)
        half = bulk_mass(scn)
        assert abs(res.value - half.value) <= res.uncertainty


# flat ("0") and bump ("a*exp(-r^2)") are expression fields that read no
# coordinate, so they take the radial route too
RADIAL_CONFIGS = [("schwarzschild3", {}), ("schwarzschild_n", {}),
                  ("schwarzschild_n", {"n": 5}), ("schwarzschild_n", {"n": 6}),
                  ("radial_custom", {}), ("schwarzschild_perturbed", {}),
                  ("two_body_glued", {}), ("flat", {}), ("bump", {})]


class TestRadialShells:
    @pytest.mark.parametrize(("name", "params"), RADIAL_CONFIGS)
    def test_radial_walk_matches_node_walk(self, name, params, monkeypatch):
        """Each radial default walks its shells on the radial route; the
        node route, forced by denying the symmetry, is the reference:
        the same panels, sign count and tail fit, and the same values to
        roundoff."""
        scn = make_scenario(name, **params)
        radial = bulk_mass(scn)
        monkeypatch.setattr(type(scn.field), "radial_about",
                            lambda self, center, r_lo, r_hi: False)
        nodes = bulk_mass(scn)
        assert radial.panels == nodes.panels
        assert [p for _, _, p in radial.regions] == [
            p for _, _, p in nodes.regions]
        assert radial.sign_nodes == nodes.sign_nodes
        assert radial.q_fit == nodes.q_fit
        assert radial.tail_bound == nodes.tail_bound
        scale = 1.0 + sum(abs(v) for v, _, _ in nodes.regions)
        assert abs(radial.value - nodes.value) <= 1e-12 * scale
        assert abs(radial.uncertainty - nodes.uncertainty) <= 1e-12 * scale
        assert abs(radial.min_R - nodes.min_R) <= 1e-12 * (
            1.0 + nodes.max_abs_R)
        assert abs(radial.max_abs_R - nodes.max_abs_R) <= 1e-12 * (
            1.0 + nodes.max_abs_R)

    @pytest.mark.parametrize(("name", "params"), RADIAL_CONFIGS)
    def test_one_curvature_point_per_walked_radius(self, name, params,
                                                   monkeypatch):
        """The walk asks for R at one point per radius; only the tail
        fit evaluates the nodes of the rule and of its half."""
        scn = make_scenario(name, **params)
        counting = CountingField(scn.field)
        walked, tail = [], []
        call = quad._ShellIntegrand.__call__

        def logged_call(self, radii):
            (tail if self.radial is None else walked).append(len(radii))
            return call(self, radii)

        monkeypatch.setattr(quad._ShellIntegrand, "__call__", logged_call)
        bulk_mass(dataclasses.replace(scn, field=counting))
        rule = scn.quad.body_rule(scn.n)
        shell_nodes = len(rule.weights) + len(rule.half.weights)
        assert sum(walked) > 0
        assert sum(tail) == sum(r.r_outer is None
                                for r in scn.bulk_region) * quad.TAIL_POINTS
        assert counting.points == sum(walked) + sum(tail) * shell_nodes

    def test_radial_bulk_route_bounds_the_high_n_peak(self):
        """flat at n = 32 walks its shells on the radial route: one point
        per radius instead of 3072 nodes with a 32 x 32 Hessian each.
        The node route's traced peak was 526 MiB and the bound is half
        of it; what remains is the tail fit's node batch."""
        scn = make_scenario("flat", n=32)
        tracemalloc.start()
        try:
            assert bulk_mass(scn).value == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 263 * 2 ** 20


class TestRadialSpheres:
    @pytest.mark.parametrize(("name", "params"), RADIAL_CONFIGS)
    def test_one_point_route_matches_node_route(self, name, params,
                                                monkeypatch):
        """Each radial default takes the flux and horizon-offset spheres
        at one point per radius; the node route, forced by denying the
        symmetry, is the reference: the same values to roundoff."""
        scn = make_scenario(name, **params)
        quermass = ScenarioEvaluation(scn).quermass
        radial = flux_series(scn)
        radial_rows = horizon_flux_convergence(scn, quermass)
        monkeypatch.setattr(type(scn.field), "radial_about",
                            lambda self, center, r_lo, r_hi: False)
        nodes = flux_series(scn)
        node_rows = horizon_flux_convergence(scn, quermass)
        assert radial.plain_err == radial.weighted_err == (0.0,) * len(
            radial.radii)
        for one, many in zip(radial.plain + radial.weighted,
                             nodes.plain + nodes.weighted):
            assert abs(one - many) <= 1e-13 * abs(many)
        assert len(radial_rows) == len(node_rows) == len(scn.horizons)
        for one, many in zip(radial_rows, node_rows):
            for a, b in zip(one["fluxes"], many["fluxes"]):
                assert abs(a - b) <= 1e-11 * abs(b)


class TestDecomposition:
    def test_schwarzschild3_boundary_only(self, scn3):
        """adm = boundary + bulk with boundary = V_1/(2 omega) = m and a
        bulk term at roundoff."""
        dec = ScenarioEvaluation(scn3).decomposition
        assert abs(dec.boundary - 1.0) <= 1e-9
        assert abs(dec.bulk) <= 1e-9
        assert abs(dec.residual) <= dec.tolerance
        assert dec.identity_ok
        assert dec.hypothesis_ok
        assert dec.total == dec.boundary + dec.bulk

    def test_perturbed_split(self):
        scn = make_scenario("schwarzschild_perturbed")
        dec = ScenarioEvaluation(scn).decomposition
        assert abs(dec.boundary - 0.7) <= 1e-9
        assert abs(dec.bulk - 0.3) <= 1e-4
        assert abs(dec.adm - 1.0) <= 1e-3
        assert abs(dec.residual) <= dec.tolerance
        assert dec.identity_ok and dec.hypothesis_ok

    def test_tolerance_formula(self):
        assert identity_tolerance(2.0, 1e-5) == 0.01
        assert identity_tolerance(0.0, 1e-3) == 5e-3


class TestHorizonHypotheses:
    def test_schwarzschild3_passes(self, scn3):
        rep = horizon_hypotheses(scn3)[0]
        assert rep.level_ok and rep.grad_ok and rep.ok
        assert rep.level_variance <= 1e-12
        assert rep.grad_min >= rep.grad_floor

    def _bump_scenario(self, bump, center):
        return Scenario(
            name="fake", n=3, field=bump.field,
            horizons=HorizonSet((Sphere(np.asarray(center, float), 0.3),)),
            quad=QuadConfig(radii=(2.0, 2.5, 3.0, 3.5), r_max=12.0),
            bulk_region=(ExteriorRegion(),))

    def test_off_center_breaks_level_set(self, bump):
        """A bump is constant on centered spheres only; shifting the
        body off the origin leaves f varying along it."""
        rep = horizon_hypotheses(
            self._bump_scenario(bump, (0.4, 0.0, 0.0)))[0]
        assert not rep.level_ok
        assert not rep.ok

    def test_smooth_field_fails_gradient_blowup(self, bump):
        rep = horizon_hypotheses(
            self._bump_scenario(bump, (0.0, 0.0, 0.0)))[0]
        assert rep.level_ok
        assert not rep.grad_ok
        assert rep.grad_min < 1.0 < rep.grad_floor


class TestHorizonFluxConvergence:
    def test_exact_horizon_gap_is_roundoff(self, scn3):
        """For exact Schwarzschild the offset flux equals the geometric
        term identically, so there is no rate to fit."""
        row = boundary_rows(scn3)[0]
        assert row["rate"] is None
        assert max(row["gaps"]) <= 1e-12
        assert abs(row["geometric"] - 1.0) <= 1e-12
        assert row["radius"] == 2.0

    def test_one_call_per_offset(self):
        """Each offset sphere is one jet: at one point on a field radial
        about the body's centre, on the flux rule's nodes, none of its
        half's, on a field that is not."""
        scn = make_scenario("schwarzschild_perturbed")
        quermass = ScenarioEvaluation(scn).quermass
        counting = CountingField(scn.field)
        horizon_flux_convergence(dataclasses.replace(scn, field=counting),
                                 quermass)
        offsets = len(HORIZON_OFFSETS)
        assert (counting.calls, counting.jet_points) == (offsets, offsets)
        # a Schwarzschild field centred off the body, clear of its horizon
        off = CountingField(RadialField(schwarzschild_profile(0.4, 3), 3,
                                        center=(0.5, 0.0, 0.0)))
        horizon_flux_convergence(dataclasses.replace(scn, field=off),
                                 quermass)
        rule = scn.quad.flux_rule(scn.n)
        assert off.calls == offsets
        assert off.jet_points == offsets * len(rule.weights)

    @pytest.mark.parametrize(("name", "params"), [
        *[("schwarzschild3", {"m": m}) for m in (0.5, 2.0, 50.0)],
        *[("schwarzschild_n", {"n": n, "m": m})
          for n in (4, 5, 6) for m in (0.3, 5.0, 30.0)],
        ("two_body_glued", {"m1": 2.0, "m2": 2.0})])
    def test_roundoff_gaps_fit_no_rate(self, name, params):
        """On exact Schwarzschild horizons each offset flux is one
        evaluation, whose roundoff gap (up to a few 1e-12 at large m)
        may pass the keep-floor at some offsets; no rate is fitted to
        that noise."""
        rows = boundary_rows(make_scenario(name, **params))
        assert rows and all(row["rate"] is None for row in rows)

    def test_perturbed_first_order_rate(self):
        scn = make_scenario("schwarzschild_perturbed")
        row = boundary_rows(scn)[0]
        assert row["rate"] is not None
        assert 0.9 <= row["rate"] <= 1.1
        assert max(row["gaps"]) <= 0.01


class TestChecks:
    def test_schwarzschild3_all(self, scn3):
        ev = ScenarioEvaluation(scn3)
        assert ev.adm is ev.adm
        assert ev.bulk is ev.bulk
        outcomes = ev.run(("all",))
        assert [o.name for o in outcomes] == ["identities", "pmt",
                                              "penrose"]
        for o in outcomes:
            assert o.passed and o.hypothesis_ok and not o.vacuous, o.notes

    def test_run_deduplicates(self, scn3):
        ev = ScenarioEvaluation(scn3)
        names = [o.name for o in ev.run(("pmt", "all"))]
        assert names == ["pmt", "identities", "penrose"]

    def test_unknown_check(self, scn3):
        with pytest.raises(ConfigError, match="unknown check"):
            ScenarioEvaluation(scn3).check("bogus")

    def test_identities_values(self, scn3):
        out = check(scn3, "identities")
        assert out.passed
        assert out.values["div_identity_sup"] <= 1e-12
        assert out.values["radial_agreement"] <= 1e-10
        assert out.values["variant_gap"] <= out.values["variant_budget"]
        assert abs(out.values["gauss_defect"]) <= 1e-9

    def test_order3_jets_come_in_bounded_batches(self):
        """At n = 32 an order-3 jet holds 32^3 floats per point, 256 MiB
        for the 1000 sample points at once; the identities check builds
        them in batches, so its traced peak stays far below that."""
        ev = ScenarioEvaluation(make_scenario("flat", n=32))
        ev.decomposition
        tracemalloc.start()
        try:
            assert ev.check("identities").passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("min_R", [-1.9e-9, -2.1e-9])
    def test_one_sign_rule(self, scn3, min_R):
        """pmt and penrose read the one R >= 0 rule: at max |R| = 1 the
        sampled minimum may reach -2e-9."""
        ev = ScenarioEvaluation(scn3)
        ev.sampled_R = (min_R, 1.0, 10)
        assert ev.R_sign_ok is (min_R > -2e-9)
        assert ev.check("pmt").hypothesis_ok is ev.R_sign_ok
        assert ev.check("penrose").hypothesis_ok is ev.R_sign_ok

    def test_bump_pmt_is_vacuous(self, bump):
        """Sign-indefinite curvature: the sign hypothesis fails, the
        check reports that, and the identity still reconciles."""
        out = check(bump, "pmt")
        assert out.vacuous
        assert not out.hypothesis_ok
        assert out.passed
        assert out.values["min_R"] < -1e-3

    def test_bump_identities(self, bump):
        out = check(bump, "identities")
        assert out.passed
        assert abs(out.values["adm"]) <= 1e-3

    def test_flat_pmt(self):
        out = check(make_scenario("flat"), "pmt")
        assert out.passed and out.hypothesis_ok and not out.vacuous
        assert out.values["mass"] == 0.0
        assert out.values["min_R"] == 0.0

    def test_radial_custom_penrose_degenerates(self):
        """No horizon: the bound is zero and positivity decides."""
        out = check(make_scenario("radial_custom"), "penrose")
        assert out.passed and out.hypothesis_ok
        assert out.values["bound"] == 0.0
        assert abs(out.values["mass"] - 0.7) <= 1e-6

    @pytest.mark.parametrize("name, params", [
        ("schwarzschild_perturbed", {}),
        ("schwarzschild_perturbed", {"beta": 0.2}),
        ("radial_custom", {})])
    def test_penrose_note_reads_the_slack(self, name, params):
        """These masses clear their area bounds by far more than the
        tolerance, although the identity residual `margin` is below it;
        the note follows slack = mass - bound."""
        out = check(make_scenario(name, **params), "penrose")
        values = out.values
        assert out.passed
        assert values["slack"] == values["mass"] - values["bound"]
        assert values["slack"] > values["tolerance"] > values["margin"]
        assert abs(values["af_deficit"]) <= 1e-12
        assert out.notes == ("inequality holds strictly",)

    @pytest.mark.parametrize("name, params", [
        ("schwarzschild3", {}), ("schwarzschild_n", {}),
        ("schwarzschild_n", {"n": 5})])
    def test_penrose_equality_cases(self, name, params):
        out = check(make_scenario(name, **params), "penrose")
        assert out.passed
        assert abs(out.values["slack"]) <= out.values["tolerance"]
        assert abs(out.values["af_deficit"]) <= 1e-12
        assert out.notes == ("equality case within tolerance",)

    def test_glued_penrose_reports_the_sign_hypothesis(self):
        """The gluing windows make R negative, so the check is a
        hypothesis failure whatever the slack, which is at equality."""
        out = check(make_scenario("two_body_glued"), "penrose")
        assert not out.passed and not out.hypothesis_ok
        assert abs(out.values["slack"]) <= out.values["tolerance"]
        assert len(out.notes) == 1
        assert "violates the sign hypothesis" in out.notes[0]

    def test_penrose_hypothesis_failure(self, bump):
        """A fake horizon under a bump field: convexity is fine but the
        sampled curvature changes sign, so the verdict is a hypothesis
        failure, not a counterexample."""
        scn = Scenario(
            name="fake", n=3, field=bump.field,
            horizons=HorizonSet((Sphere(np.zeros(3), 0.5),)),
            quad=QuadConfig(radii=(2.0, 2.5, 3.0, 3.5), r_max=12.0),
            bulk_region=(ExteriorRegion(),),
            sampler=shell_sampler(3, 0.05, 6.0))
        out = check(scn, "penrose")
        assert not out.passed
        assert not out.hypothesis_ok
        assert not out.vacuous
        assert out.values["bound"] == pytest.approx(0.25, rel=1e-12)
        assert any("sign hypothesis" in note for note in out.notes)

    def test_penrose_nonconvex_horizon(self, bump):
        """A horizon whose curvature solve rejects it is a hypothesis
        failure; the bound, which needs that solve, is skipped."""

        class NonConvexSphere(Sphere):
            def shape_spectrum(self, points):
                raise NonConvexError("principal curvature below zero")

        scn = Scenario(
            name="fake", n=3, field=bump.field,
            horizons=HorizonSet((NonConvexSphere(np.zeros(3), 0.5),)),
            quad=QuadConfig(radii=(2.0, 2.5, 3.0, 3.5), r_max=12.0),
            bulk_region=(ExteriorRegion(),),
            sampler=shell_sampler(3, 0.05, 6.0))
        out = check(scn, "penrose")
        assert not out.passed
        assert not out.hypothesis_ok
        assert math.isnan(out.values["bound"])
        assert any("convexity violated" in note for note in out.notes)


class TestScenarioPlumbing:
    def test_geometry_only_has_no_field(self):
        scn = make_scenario("ellipsoid_horizon")
        with pytest.raises(ConfigError, match="geometry-only"):
            scn.require_field()
        with pytest.raises(ConfigError, match="no point sampler"):
            scn.sample_points(10, 0)

    def test_sampler_shape_guard(self, scn3):
        bad = dataclasses.replace(
            scn3, sampler=lambda count, seed: np.zeros((count, 2)))
        with pytest.raises(ConfigError, match="mismatched shape"):
            bad.sample_points(5, 0)

"""Mass routes: boundary flux, bulk integral, radial closed form, checks."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from field_helpers import CountingField, RotatedField
from graphmass import mass, quad
from graphmass.convexgeom import Ellipsoid, HorizonSet, Sphere
from graphmass.errors import ConfigError, DomainError, NonConvexError
from graphmass.jets import (ExprField, RadialField, RadialProfile,
                            schwarzschild_profile)
from graphmass.mass import (HORIZON_OFFSETS, Scenario, ScenarioEvaluation,
                            Shell, adm_flux_mass, adm_mass, bulk_mass,
                            flux_series, horizon_flux_convergence,
                            horizon_hypotheses, identity_tolerance,
                            mass_normalization, spherical_mass)
from graphmass.quad import HORIZON_OFFSET, ExteriorRegion, QuadConfig
from graphmass.scenarios import make_scenario, scenario_names


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


def shelled(n, *shells):
    """A field-less scenario that states only its sample shells."""
    return Scenario(name="shells", n=n, field=None, horizons=HorizonSet(()),
                    quad=QuadConfig(), bulk_region=(), shells=shells)


def hand_draw(scn, count, seed):
    """``scn.sample_points(count, seed)`` written out from ``quad.sobol``:
    shell i takes count * weight_i // (sum of weights), the last the rest,
    at seed + i, radii log-uniform and directions from the other
    coordinates."""
    w = [s.weight for s in scn.shells]
    ks = [count * x // sum(w) for x in w[:-1]]
    out = []
    for i, (s, k) in enumerate(zip(scn.shells, ks + [count - sum(ks)])):
        u = quad.sobol(scn.n + 1, k, seed + i)
        pts = (s.lo * (s.hi / s.lo) ** u[:, 0])[:, None] * (
            quad.sphere_directions(u[:, 1:]))
        out.append(pts if s.center is None else s.center + pts)
    return np.concatenate(out)


class TestShellSampler:
    """The shell draw of ``Scenario.sample_points``."""

    def test_shape_and_bounds(self):
        pts = shelled(3, Shell(0.5, 20.0)).sample_points(500, 7)
        assert pts.shape == (500, 3)
        r = np.linalg.norm(pts, axis=1)
        assert r.min() >= 0.5 and r.max() <= 20.0

    def test_same_seed_is_deterministic(self):
        scn = shelled(4, Shell(1.0, 10.0))
        assert np.array_equal(scn.sample_points(200, 3),
                              scn.sample_points(200, 3))
        assert not np.array_equal(scn.sample_points(200, 3),
                                  scn.sample_points(200, 4))

    def test_samplers_share_one_unit_draw(self, monkeypatch):
        """Scenarios of one dimension draw each (count, seed) once and
        share its read-only arrays; their points equal those of an
        uncached draw bit for bit."""
        mass._unit_draw.cache_clear()
        draws = []

        def counted(*key):
            draws.append(key)
            return quad.sobol(*key)

        monkeypatch.setattr(mass, "sobol", counted)
        near, far = shelled(3, Shell(0.5, 20.0)), shelled(3, Shell(2.0, 90.0))
        points = near.sample_points(300, 5), far.sample_points(300, 5)
        assert draws == [(4, 300, 5)]
        assert not any(a.flags.writeable for a in mass._unit_draw(4, 300, 5))
        for scn, pts in zip((near, far), points):
            assert np.array_equal(pts, hand_draw(scn, 300, 5))

    def test_bad_bounds(self):
        """A shell with lo <= 0 or lo >= hi is rejected when the scenario
        is built, whether it states one shell or three."""
        glued = make_scenario("two_body_glued")
        for lo, hi in ((0.0, 5.0), (-1.0, 5.0), (5.0, 5.0), (5.0, 1.0)):
            with pytest.raises(ValueError, match="0 < lo < hi"):
                shelled(3, Shell(lo, hi))
            with pytest.raises(ValueError, match="0 < lo < hi"):
                dataclasses.replace(glued, shells=glued.shells[:1] + (
                    Shell(lo, hi, (100.0, 0.0, 0.0), 2), glued.shells[2]))

    def test_glued_shells_are_the_hand_written_draw(self):
        """two_body_glued states its three shells; its points are those
        of 2/5 of the draw on each near shell (seeds s, s + 1) and the
        rest on the far shell (seed s + 2), bit for bit."""
        scn = make_scenario("two_body_glued")
        near = [shelled(3, Shell(2.5 * m, 56.0)) for m in (1.0, 0.8)]
        for count, seed in ((1000, 7), (10_000, 8), (3, 0)):
            k = count * 2 // 5
            want = np.concatenate([
                (-100.0, 0.0, 0.0) + near[0].sample_points(k, seed),
                (100.0, 0.0, 0.0) + near[1].sample_points(k, seed + 1),
                shelled(3, Shell(80.0, 390.0)).sample_points(
                    count - 2 * k, seed + 2)])
            assert np.array_equal(scn.sample_points(count, seed), want)
        assert [s.center for s in scn.shells] == [
            (-100.0, 0.0, 0.0), (100.0, 0.0, 0.0), None]

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_shells_are_the_hand_written_draw(self, name):
        """Every registry default that states shells draws the points of
        ``hand_draw`` bit for bit, at both sample sizes and seeds of a
        run; one without shells (the geometry-only ellipsoid_horizon) has
        no point sampler."""
        scn = make_scenario(name)
        if not scn.shells:
            assert scn.geometry_only
            with pytest.raises(ConfigError, match="no point sampler"):
                scn.sample_points(10, 0)
            return
        seed = scn.quad.seed
        for count, seed in ((1000, seed), (10_000, seed + 1), (3, 0)):
            assert np.array_equal(scn.sample_points(count, seed),
                                  hand_draw(scn, count, seed))


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

    @pytest.mark.parametrize("radii", [[100.0, 200.0],
                                       np.array([100.0, 200.0]),
                                       (100.0, 200.0)])
    def test_radii_as_list_or_array(self, scn3, radii):
        """Given radii replace the scenario's whatever their container."""
        series = flux_series(scn3, radii)
        assert series.radii == (100.0, 200.0)
        assert series.plain == tuple(adm_flux_mass(scn3, r)[0]
                                     for r in (100.0, 200.0))

    def test_one_jet_per_series(self, scn3):
        """Both integrands at every radius come from one jet: at one point
        per radius on a field radial about the origin, and on the nodes of
        the full rule and of its half companion at every radius on a field
        that is not."""
        counting = CountingField(scn3.field)
        series = flux_series(dataclasses.replace(scn3, field=counting))
        radii = len(scn3.quad.radii)
        assert (counting.calls, counting.jet_points) == (1, radii)
        assert series == adm_mass(scn3).series
        off = CountingField(RadialField(schwarzschild_profile(1.0, 3), 3,
                                        center=(0.5, 0.0, 0.0)))
        flux_series(dataclasses.replace(scn3, field=off))
        rule = scn3.quad.flux_rule(3)
        assert off.calls == 1
        assert off.jet_points == radii * (len(rule.weights)
                                          + len(rule.half.weights))

    @pytest.mark.parametrize("name", [n for n in scenario_names()
                                      if n != "ellipsoid_horizon"])
    def test_one_call_equals_a_call_per_radius(self, name):
        """The series from one jet equals the series of one radius at a
        time bit for bit, on every registry default, and on fields that
        take the node rule."""
        scn = make_scenario(name)
        cases = [scn]
        if name == "schwarzschild3":
            cases += [dataclasses.replace(scn, field=RadialField(
                scn.profile, 3, center=(0.5, 0.0, 0.0))),
                dataclasses.replace(scn, field=ExprField(
                    "0.2*x1/(1 + r^2) + 0.1*x2*x3/(1 + r^3)", 3))]
        for case in cases:
            whole = flux_series(case)
            for i, r in enumerate(whole.radii):
                one = flux_series(case, (r,))
                for key in ("plain", "weighted", "plain_err",
                            "weighted_err"):
                    assert (getattr(one, key)[0].hex()
                            == getattr(whole, key)[i].hex()), (name, key, r)

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

    @pytest.mark.parametrize(("name", "params"), [
        *(("schwarzschild3", {"m": m}) for m in (1e-4, 1e-2, 1.0, 100.0,
                                                 1e7)),
        *(("schwarzschild_n", {"n": n, "m": m}) for n in (4, 5, 6)
          for m in (0.01, 1.0, 100.0)),
        *(("radial_custom", {"n": n, "m": m}) for n in (3, 5, 9, 32)
          for m in (0.01, 0.7, 50.0)),
        *(("schwarzschild_perturbed", {"n": n, "beta": b}) for n in (3, 4)
          for b in (0.01, 0.3, 0.49)),
        *(("bump", {"n": n, "alpha": a}) for n in (3, 6, 9)
          for a in (0.01, 0.5)),
        *(("two_body_glued", {"m1": m1, "m2": m2})
          for m1, m2 in ((1.0, 0.8), (2.0, 2.0), (0.1, 0.1))),
        *(("schwarzschild_n", {"n": n, "m": m}) for n in (16, 32)
          for m in (0.01, 1.0, 100.0)),
        *(("schwarzschild_perturbed", {"n": n, "beta": b}) for n in (16, 32)
          for b in (0.01, 0.3, 0.49))])
    def test_each_limit_covers_the_expected_mass(self, name, params):
        """Each variant's limit lies within its own uncertainty of the
        expected mass across the registry boxes, at large masses, high
        dimensions and on series flat to roundoff alike."""
        scn = make_scenario(name, **params)
        est = adm_mass(scn)
        for res in (est.plain_limit, est.weighted_limit):
            assert abs(res.limit - scn.expected["mass"]) <= res.uncertainty

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_large_mass_ladder_fits_two_terms(self, n):
        """At the m box end the n >= 4 flux radii scale as m^{1/(n-2)}:
        the plain series takes the two-term fit, not the fallback."""
        est = adm_mass(make_scenario("schwarzschild_n", n=n, m=100.0))
        assert est.plain_limit.rate is not None
        assert abs(est.value - 100.0) <= est.uncertainty <= 1e-4


class TestSphericalMass:
    def test_known_values(self):
        profile = schwarzschild_profile(1.0, 3)
        assert spherical_mass(profile, 4.0, 3) == 2.0
        out = spherical_mass(profile, np.array([4.0, 8.0]), 3)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_one_radius_keeps_its_shape_and_matches_a_batch(self):
        profile = schwarzschild_profile(1.0, 4)
        batch = spherical_mass(profile, np.array([3.0, 7.0, 3.0]), 4)
        for shape in ((), (1,), (1, 1)):
            one = spherical_mass(profile, np.full(shape, 7.0), 4)
            assert np.shape(one) == shape
            assert float(np.ravel(one)[0]) == batch[1]

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
            slopes = (lambda r, k, a=a, b=b, c=c:
                      [a * np.cos(b * r) + c * r / (1.0 + r * r)]
                      + [zero(r)] * (k - 1))
            prof = RadialProfile(zero, slopes, r_min=0.0, label="sweep")
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


# relative agreement of the two routes' tail fits, where one resolves a
# decay; the other radial defaults have R = 0 or no tail, and neither
# route fits a tail to them.  schwarzschild_perturbed's tail values sit
# near the roundoff floor.
TAIL_AGREEMENT = {"radial_custom": 1e-9, "bump": 1e-9,
                  "schwarzschild_perturbed": 1e-4}


class TestRadialShells:
    @pytest.mark.parametrize(("name", "params"), RADIAL_CONFIGS)
    def test_radial_walk_matches_node_walk(self, name, params, monkeypatch):
        """Each radial default walks its shells on the radial route; the
        node route, forced by denying the symmetry, is the reference:
        the same panels and the same values to roundoff.  The node
        route's tail evaluates no ``half``, so its sign count is short of
        those nodes; its tail fit agrees, and neither route fits a tail
        to the roundoff of R = 0."""
        scn = make_scenario(name, **params)
        radial = bulk_mass(scn)
        monkeypatch.setattr(type(scn.field), "radial_about",
                            lambda self, center, r_lo, r_hi: False)
        nodes = bulk_mass(scn)
        assert radial.panels == nodes.panels
        assert [p for _, _, p in radial.regions] == [
            p for _, _, p in nodes.regions]
        tails = sum(r.r_outer is None for r in scn.bulk_region)
        half = len(scn.quad.body_rule(scn.n).half.weights)
        assert radial.sign_nodes == (nodes.sign_nodes
                                     + tails * quad.TAIL_POINTS * half)
        rel = TAIL_AGREEMENT.get(name)
        if rel is None:
            assert radial.q_fit is nodes.q_fit is None
            assert radial.tail_bound == nodes.tail_bound == 0.0
        else:
            assert radial.q_fit == pytest.approx(nodes.q_fit, rel=rel,
                                                 abs=0.0)
            assert radial.tail_bound == pytest.approx(nodes.tail_bound,
                                                      rel=10 * rel, abs=0.0)
        scale = 1.0 + sum(abs(v) for v, _, _ in nodes.regions)
        assert abs(radial.value - nodes.value) <= 1e-12 * scale
        assert abs(radial.uncertainty - nodes.uncertainty) <= 1e-12 * scale
        assert abs(radial.min_R - nodes.min_R) <= 1e-12 * (
            1.0 + nodes.max_abs_R)
        assert abs(radial.max_abs_R - nodes.max_abs_R) <= 1e-12 * (
            1.0 + nodes.max_abs_R)

    @pytest.mark.parametrize(("name", "params"),
                             [("schwarzschild3", {"m": 1e7}),
                              ("radial_custom", {"n": 32}),
                              ("schwarzschild_n", {"n": 6})])
    def test_roundoff_tail_is_no_tail(self, name, params, monkeypatch):
        """Tail values below the roundoff floor are no tail on either
        route: the node route fitted q = 3.14, 32.4 and 7.71 to them."""
        scn = make_scenario(name, **params)
        for route in ("radial", "nodes"):
            if route == "nodes":
                monkeypatch.setattr(type(scn.field), "radial_about",
                                    lambda self, center, r_lo, r_hi: False)
            res = bulk_mass(scn)
            assert res.q_fit is None and res.tail_bound == 0.0

    @pytest.mark.parametrize(("name", "params"), RADIAL_CONFIGS)
    def test_one_curvature_point_per_walked_radius(self, name, params,
                                                   monkeypatch):
        """The walk and the tail fit ask for R at one point per radius:
        every shell call is on ``point_rule``, and each region with a
        tail makes one tail call."""
        scn = make_scenario(name, **params)
        counting = CountingField(scn.field)
        radii, on_points = [], set()
        call = quad._ShellIntegrand.__call__

        def logged_call(self, batch):
            on_points.add(self.rule is quad.point_rule(scn.n))
            radii.append(np.asarray(batch, float))
            return call(self, batch)

        monkeypatch.setattr(quad._ShellIntegrand, "__call__", logged_call)
        bulk_mass(dataclasses.replace(scn, field=counting))
        cfg = scn.quad
        tail = np.geomspace(cfg.r_max * quad.TAIL_FIT_FROM, cfg.r_max,
                            quad.TAIL_POINTS)
        assert on_points == {True}
        assert sum(np.array_equal(r, tail) for r in radii) == sum(
            r.r_outer is None for r in scn.bulk_region)
        assert counting.points == sum(map(len, radii)) > quad.TAIL_POINTS

    def test_radial_bulk_route_bounds_the_high_n_peak(self):
        """flat at n = 32 walks its shells on the radial route: one point
        per radius instead of 3072 nodes with a 32 x 32 Hessian each.
        The node route's traced peak was 526 MiB and the bound is half
        of it; the tail fit takes one point per radius too."""
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
        ev = ScenarioEvaluation(scn3)
        dec = ev.decomposition
        assert abs(dec.boundary - 1.0) <= 1e-9
        assert abs(dec.bulk) <= 1e-9
        assert abs(dec.residual) <= dec.tolerance
        assert dec.identity_ok
        assert all(h.ok for h in ev.hypotheses)
        assert dec.total == dec.boundary + dec.bulk

    def test_perturbed_split(self):
        scn = make_scenario("schwarzschild_perturbed")
        ev = ScenarioEvaluation(scn)
        dec = ev.decomposition
        assert abs(dec.boundary - 0.7) <= 1e-9
        assert abs(dec.bulk - 0.3) <= 1e-4
        assert abs(ev.adm.value - 1.0) <= 1e-3
        assert abs(dec.residual) <= dec.tolerance
        assert dec.identity_ok and all(h.ok for h in ev.hypotheses)

    def test_hypotheses_evaluated_once_by_the_report(self, scn3,
                                                     monkeypatch):
        """The decomposition reads no horizon hypothesis; the report
        evaluates them once per evaluation."""
        calls = []
        probe = mass.horizon_hypotheses
        monkeypatch.setattr(mass, "horizon_hypotheses",
                            lambda scn: calls.append(scn) or probe(scn))
        ev = ScenarioEvaluation(scn3)
        ev.decomposition
        assert calls == []
        first, second = ev.summary(), ev.summary()
        assert calls == [scn3]
        assert first["hypotheses"] == second["hypotheses"] == [
            dataclasses.asdict(h) for h in probe(scn3)]

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
            quad=QuadConfig(radii=(2.0, 4.0, 8.0, 16.0), r_max=12.0),
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


HYPOTHESIS_CASES = [("schwarzschild3", {}), ("schwarzschild_perturbed", {}),
                    ("two_body_glued", {}),
                    ("two_body_glued", {"m1": 0.001, "m2": 0.001})]


@pytest.fixture(scope="module", params=HYPOTHESIS_CASES,
                ids=["schwarzschild3", "schwarzschild_perturbed",
                     "two_body_glued", "two_body_glued-small"])
def horizon_scn(request):
    name, params = request.param
    return make_scenario(name, **params)


class TestHorizonHypothesisRoutes:
    """Where a round horizon's field is radial about its centre, the
    level check reads f and the gradient check |h_r| at one node, that
    of ``quad.point_rule``; a field that hides its radial structure
    (here a rotation by the identity) takes the node route through jets
    on every node of the flux rule."""

    @staticmethod
    def one_node(scn, body):
        """The point at offset HORIZON_OFFSET outside the body's one node."""
        pts, _ = body.surface_sample(quad.point_rule(scn.n))
        return body.center + (pts - body.center) * (1.0 + HORIZON_OFFSET)

    def test_radial_route_agrees_with_node_route(self, horizon_scn):
        """The flags are the node route's, save grad_ok at m1 = m2 =
        0.001: there the node route's minimum over 4,608 nodes reads the
        roundoff of r - a next to centres at x = +-100 (999.99770, below
        the floor 999.99900) and the one node reads 1000.00290."""
        counting = CountingField(horizon_scn.field)
        radial = horizon_hypotheses(
            dataclasses.replace(horizon_scn, field=counting))
        assert counting.value_points == len(horizon_scn.horizons)
        assert counting.points == len(horizon_scn.horizons)
        assert counting.jet_points == 0
        rotated = RotatedField(horizon_scn.field, np.eye(horizon_scn.n))
        node = horizon_hypotheses(dataclasses.replace(horizon_scn,
                                                      field=rotated))
        assert len(radial) == len(node) == len(horizon_scn.horizons)
        small = horizon_scn.params.get("m1") == 0.001
        for a, b, body in zip(radial, node, horizon_scn.horizons):
            assert a.level_ok == b.level_ok
            if small:
                assert a.grad_ok and not b.grad_ok
            else:
                assert a.grad_ok == b.grad_ok
            jet = rotated.jet3_many(self.one_node(horizon_scn, body), order=2)
            want = float(np.linalg.norm(jet.grad, axis=1)[0])
            assert a.grad_min == pytest.approx(want, rel=1e-9)

    def test_grad_min_is_the_jet_minimum(self, horizon_scn):
        """|h_r| at the one node equals the order-2 jet's |grad f| at
        that node, to within 4 ulp."""
        counting = CountingField(horizon_scn.field)
        reps = horizon_hypotheses(
            dataclasses.replace(horizon_scn, field=counting))
        assert counting.points == len(horizon_scn.horizons)
        for rep, body in zip(reps, horizon_scn.horizons, strict=True):
            near = self.one_node(horizon_scn, body)
            jet = horizon_scn.field.jet3_many(near, order=2)
            want = np.linalg.norm(jet.grad, axis=1).min()
            assert abs(rep.grad_min - want) <= 4 * np.spacing(want)

    def test_non_round_horizon_takes_every_node(self, scn3):
        """A field radial about an ellipsoid's centre varies on it."""
        counting = CountingField(scn3.field)
        body = Ellipsoid(np.zeros(3), np.array([2.5, 3.0, 3.5]))
        [rep] = horizon_hypotheses(dataclasses.replace(
            scn3, field=counting, horizons=HorizonSet((body,))))
        assert counting.value_points == len(scn3.quad.flux_rule(3).nodes)
        assert not rep.level_ok


class TestHorizonFluxConvergence:
    def test_exact_horizon_gap_is_roundoff(self, scn3):
        """For exact Schwarzschild the offset flux equals the geometric
        term identically, so there is no rate to fit."""
        row = boundary_rows(scn3)[0]
        assert row["rate"] is None
        assert max(row["gaps"]) <= 1e-12
        assert abs(row["geometric"] - 1.0) <= 1e-12
        assert row["radius"] == 2.0

    def test_one_call_per_body(self):
        """All offset spheres of a body are one jet: at one point per
        offset on a field radial about the body's centre, on the flux
        rule's nodes, none of its half's, on a field that is not."""
        scn = make_scenario("schwarzschild_perturbed")
        quermass = ScenarioEvaluation(scn).quermass
        counting = CountingField(scn.field)
        horizon_flux_convergence(dataclasses.replace(scn, field=counting),
                                 quermass)
        offsets = len(HORIZON_OFFSETS)
        assert (counting.calls, counting.jet_points) == (1, offsets)
        # a Schwarzschild field centred off the body, clear of its horizon
        off = CountingField(RadialField(schwarzschild_profile(0.4, 3), 3,
                                        center=(0.5, 0.0, 0.0)))
        horizon_flux_convergence(dataclasses.replace(scn, field=off),
                                 quermass)
        rule = scn.quad.flux_rule(scn.n)
        assert off.calls == 1
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

    def test_rescaled_bump_refines_below_the_sobol_sample(self, bump):
        """f(x) = l a exp(-(r/l)^2) at l = 1e-3, on shells scaled by l:
        the shell is radial, the grid and its refinement read R once per
        radius, and their minimum lies at or below that of the 10,000
        Sobol points of ``sample_points``; the sign hypothesis fails."""
        lam = 1e-3
        scn = Scenario(
            name="bump_small", n=3,
            field=ExprField("l*a*exp(-(r/l)^2)", 3, {"a": 0.1, "l": lam}),
            horizons=HorizonSet(()),
            quad=QuadConfig(radii=tuple(lam * r for r in bump.quad.radii),
                            r_max=12.0 * lam),
            # a bounded region: the tail fit past r_max is not yet scale
            # covariant (its power of r_max overflows at this scale)
            bulk_region=(ExteriorRegion(r_outer=12.0 * lam),),
            shells=(Shell(0.05 * lam, 6.0 * lam),))
        ev = ScenarioEvaluation(scn)
        assert len(ev.radial_grid[0]) == 1
        sobol = mass.scalar_curvature(
            scn.field, scn.sample_points(10_000, scn.quad.seed + 1)).min()
        assert ev.sampled_R[0] <= min(sobol, ev.bulk.min_R)
        assert ev.sampled_R[0] < -1e3
        assert not ev.check("pmt").hypothesis_ok

    def test_glued_far_shell_keeps_its_sobol_points(self):
        """two_body_glued's near shells are radial about their centres and
        read grids; its far shell, which the near pieces cross, keeps its
        share of the Sobol points: 2,000 of 10,000 and 200 of 1,000."""
        scn = make_scenario("two_body_glued")
        ev = ScenarioEvaluation(scn)
        shells, _, grids, _ = ev.radial_grid
        assert shells == list(scn.shells[:2])
        seed = scn.quad.seed
        for count, seed in ((10_000, seed + 1), (1000, seed)):
            far, R = ev._other(count, seed)
            assert np.array_equal(far, scn.sample_points(count, seed)[
                -count // 5:])
            assert np.array_equal(R, mass.scalar_curvature(scn.field, far))
        assert ev.sampled_R[2] == (
            sum(map(len, grids)) + 2 * mass.REFINE_ROUNDS * mass.REFINE_POINTS
            + 2000 + ev.bulk.sign_nodes)

    @pytest.mark.parametrize(("name", "end"), [("schwarzschild_n", 0),
                                               ("radial_custom", 1)])
    def test_refinement_stays_on_the_shell(self, name, end, monkeypatch):
        """The lowest grid R sits at the inner end of schwarzschild_n's
        shell, next to the horizon, and at the outer end of radial_custom's:
        the bracket rounds are clipped there, and every radius read lies in
        [lo, hi] to roundoff."""
        scn, seen = make_scenario(name), []
        lo, hi = scn.shells[0][:2]
        orig = mass._R_at

        def spy(fld, pts):
            seen.append(np.sqrt(quad.norm_sq(pts)))
            return orig(fld, pts)

        monkeypatch.setattr(mass, "_R_at", spy)
        ScenarioEvaluation(scn).sampled_R
        rounds = [r for r in seen if len(r)]
        assert len(rounds) == 1 + mass.REFINE_ROUNDS
        r = np.concatenate(rounds)
        assert r.min() == pytest.approx(lo, rel=1e-12)
        assert r.max() == pytest.approx(hi, rel=1e-12)
        assert rounds[-1][[0, -1][end]] == pytest.approx((lo, hi)[end],
                                                         rel=1e-12)

    def test_non_radial_field_keeps_the_sobol_samples(self, bump):
        """A field that reads x_i is not radial on its shell, so both
        samples read ``sample_points`` on the whole shell, bit for bit."""
        scn = dataclasses.replace(
            bump, name="twist",
            field=ExprField("0.1*x1*x2*exp(-r^2)", 3))
        ev = ScenarioEvaluation(scn)
        seed = scn.quad.seed
        out = ev.check("identities").values
        assert out["div_identity_sup"] == mass.divergence_identity_sup(
            scn.field, scn.sample_points(1000, seed))
        R = mass.scalar_curvature(scn.field,
                                  scn.sample_points(10_000, seed + 1))
        bulk = ev.bulk
        assert ev.sampled_R == (min(float(R.min()), bulk.min_R),
                                max(float(np.abs(R).max()), bulk.max_abs_R),
                                10_000 + bulk.sign_nodes)
        assert ev.check("pmt").values["sign_sample_size"] == (
            10_000 + bulk.sign_nodes)

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
            quad=QuadConfig(radii=(2.0, 4.0, 8.0, 16.0), r_max=12.0),
            bulk_region=(ExteriorRegion(),),
            shells=(Shell(0.05, 6.0),))
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
            quad=QuadConfig(radii=(2.0, 4.0, 8.0, 16.0), r_max=12.0),
            bulk_region=(ExteriorRegion(),),
            shells=(Shell(0.05, 6.0),))
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

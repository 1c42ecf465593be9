"""Scenario registry, parameter validation, and the glued two-body field."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from graphmass import jets, scenarios
from graphmass.errors import ConfigError
from graphmass.graphgeom import scalar_curvature
from graphmass.jets import RadialField, fd_jet, schwarzschild_profile
from graphmass.mass import adm_flux_mass, bulk_mass
from graphmass.scenarios import (REGISTRY, PiecewiseRadialField,
                                 make_scenario, scenario_names,
                                 window_profile)


class TestRegistry:
    def test_names_and_order(self):
        assert scenario_names() == [
            "flat", "schwarzschild3", "schwarzschild_n", "radial_custom",
            "bump", "schwarzschild_perturbed", "ellipsoid_horizon",
            "two_body_glued"]
        assert set(REGISTRY) == set(scenario_names())

    def test_defaults_and_overrides(self):
        scn = make_scenario("schwarzschild3", m=2.0)
        assert scn.params == {"n": 3, "m": 2.0}
        assert scn.horizons.bodies[0].radius == 4.0
        assert make_scenario("bump").params["alpha"] == 0.1

    def test_expected_values(self):
        assert make_scenario("schwarzschild3").expected == {
            "mass": 1.0, "bound": 1.0, "boundary": 1.0, "bulk": 0.0}
        assert make_scenario("schwarzschild_perturbed").expected == {
            "mass": 1.0, "bound": 0.7, "bulk": 0.3, "boundary": 0.7}
        assert make_scenario("two_body_glued").expected == {"mass": 1.8}
        assert make_scenario("flat").expected["mass"] == 0.0

    def test_check_lists(self):
        assert make_scenario("schwarzschild3").checks == (
            "identities", "pmt", "penrose")
        assert make_scenario("bump").checks == ("identities",)
        assert make_scenario("ellipsoid_horizon").geometry_only

    def test_unknown_name_suggests(self):
        with pytest.raises(ConfigError, match="did you mean"):
            make_scenario("schwarz")

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(ConfigError, match=r"accepts: m"):
            make_scenario("schwarzschild3", mass=1.0)

    def test_value_validation(self):
        cases = [
            ("schwarzschild3", "m", -1.0, "a number in (0, 1e+07]"),
            ("schwarzschild_n", "n", 3, "an integer in [4, 32]"),
            ("schwarzschild_n", "n", 33, "an integer in [4, 32]"),
            ("bump", "alpha", 0.6, "a number in (0, 0.5]"),
            ("schwarzschild_perturbed", "beta", 0.7, "a number in (0, 0.5)"),
            ("two_body_glued", "m1", 3.0, "a number in (0, 2]"),
            ("ellipsoid_horizon", "ratio", 5.0, "a number in [1, 4]"),
            ("flat", "n", 2, "an integer in [3, 32]"),
        ]
        for name, key, value, box in cases:
            message = f"parameter '{key}' must be {box}, not {value!r}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                make_scenario(name, **{key: value})

    def test_every_parameter_has_a_box(self):
        """Every registry parameter's default lies in its box; a closed
        end is admitted and an open one is not; and values just outside,
        fractions of integer parameters, NaN and non-numbers are
        rejected with the key, the value and the box."""
        for name, entry in REGISTRY.items():
            params = make_scenario(name).params
            for key, box in entry.boxes.items():
                assert box.default in box and params[key] == box.default
                assert (box.lo in box) != box.lo_open
                assert (box.hi in box) != box.hi_open
                step = 1 if box.integer else 1e-6 * box.hi
                bad = [box.lo - step, box.hi + step, math.nan, math.inf,
                       "1", None, True]
                if box.integer:
                    bad.append(box.lo + 0.5)
                for value in bad:
                    message = (f"scenario '{name}': parameter '{key}' must "
                               f"be {box}, not {value!r}")
                    with pytest.raises(ConfigError, match=re.escape(message)):
                        make_scenario(name, **{key: value})


class TestWindowProfile:
    def test_flat_ends(self):
        """The septic step and its first three derivatives vanish at the
        window edges exactly, which is what keeps glued jets C^3."""
        w = window_profile(2.0, 3.0, rising=True)
        lo, hi = np.array([2.0]), np.array([5.0])
        assert w.f(lo)[0] == 0.0 and w.f(hi)[0] == 1.0
        for d_lo, d_hi in zip(w.slopes(lo, 3), w.slopes(hi, 3)):
            assert d_lo[0] == 0.0 and d_hi[0] == 0.0

    def test_falling_is_complement(self):
        rise = window_profile(2.0, 3.0, rising=True)
        fall = window_profile(2.0, 3.0, rising=False)
        r = np.linspace(1.5, 5.5, 41)
        assert np.max(np.abs(rise.f(r) + fall.f(r) - 1.0)) <= 1e-15
        assert np.max(np.abs(rise.slopes(r, 1)[0]
                             + fall.slopes(r, 1)[0])) == 0.0

    def test_interior_derivative_consistency(self):
        w = window_profile(2.0, 3.0, rising=True)
        r = np.array([2.4, 3.3, 4.1])
        h = 1e-5
        fr, frr = w.slopes(r, 2)
        fd = (w.f(r + h) - w.f(r - h)) / (2.0 * h)
        assert np.max(np.abs(fd - fr)) <= 1e-8
        fd2 = (w.slopes(r + h, 1)[0] - w.slopes(r - h, 1)[0]) / (2.0 * h)
        assert np.max(np.abs(fd2 - frr)) <= 1e-7


def _parent_s7(t, order):
    """The septic step's table of one order, formed as before the orders
    shared one mask."""
    t = np.asarray(t, float)
    inside = (t > 0.0) & (t < 1.0)
    out = np.zeros_like(t)
    if order == 0:
        out[t >= 1.0] = 1.0
    if inside.any():
        ti = t[inside]
        if order == 0:
            val = ti ** 4 * (35.0 + ti * (-84.0 + ti * (70.0 - 20.0 * ti)))
        elif order == 1:
            val = 140.0 * (ti * (1.0 - ti)) ** 3
        elif order == 2:
            val = ti ** 2 * (420.0 + ti * (-1680.0 + ti
                                           * (2100.0 - 840.0 * ti)))
        else:
            val = ti * (840.0 + ti * (-5040.0 + ti
                                      * (8400.0 - 4200.0 * ti)))
        out[inside] = val
    return out


def _parent_window(lo, width, rising):
    sign = 1.0 if rising else -1.0

    def f(r):
        val = _parent_s7((np.asarray(r, float) - lo) / width, 0)
        return val if rising else 1.0 - val

    def slopes(r, k):
        t = (np.asarray(r, float) - lo) / width
        return [sign * (_parent_s7(t, j) / width ** j)
                for j in range(1, k + 1)]

    return jets.RadialProfile(f, slopes, label=f"window[{lo},{lo + width}]")


def _parent_windowed(profile, window):
    """The Leibniz sums as generator sums from the int 0."""

    def leibniz(r, k):
        fs, ws = [profile.f(r)], [window.f(r)]
        if k:
            fs += profile.slopes(r, k)
            ws += window.slopes(r, k)
        return [sum(math.comb(i, j) * fs[j] * ws[i - j] for j in range(i + 1))
                for i in range(k + 1)]

    return jets.RadialProfile(lambda r: leibniz(r, 0)[0],
                              lambda r, k: leibniz(r, k)[1:],
                              r_min=profile.r_min,
                              label=f"{profile.label} x {window.label}")


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWindowTables:
    """One ``_s7`` call per table gives the per-order formulas' values,
    and the Leibniz sums started from their first term the generator
    sums', bit for bit: on a grid across t = 0 and t = 1, and on
    two_body_glued's identity sample."""

    T = np.concatenate([np.linspace(-0.5, 1.5, 81), [
        0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
        np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])

    def test_s7_orders(self):
        for orders in ((0,), range(1, 2), range(1, 4), range(4)):
            table = scenarios._s7(self.T, orders)
            assert len(table) == len(orders)
            for j, got in zip(orders, table):
                assert _same_bits(got, _parent_s7(self.T, j)), (orders, j)
        for t in self.T[::7]:  # a lone t stays a 0-d array, as before
            for j, got in enumerate(scenarios._s7(t, range(4))):
                assert _same_bits(got, _parent_s7(t, j)), (t, j)

    @pytest.mark.parametrize("rising", [True, False])
    def test_window_profile(self, rising):
        lo, width = 16.0, 40.0
        r = lo + width * self.T
        got = window_profile(lo, width, rising)
        want = _parent_window(lo, width, rising)
        assert _same_bits(got.f(r), want.f(r))
        for k in (1, 2, 3):
            for g, w in zip(got.slopes(r, k), want.slopes(r, k), strict=True):
                assert _same_bits(g, w), k

    def test_windowed_field_on_the_identity_sample(self, two_body,
                                                   monkeypatch):
        monkeypatch.setattr(scenarios, "window_profile", _parent_window)
        monkeypatch.setattr(scenarios, "windowed", _parent_windowed)
        parent = make_scenario("two_body_glued").field
        pts = two_body.sample_points(1000, two_body.quad.seed)
        for got, want in zip(two_body.field.radial_derivatives(pts),
                             parent.radial_derivatives(pts), strict=True):
            assert _same_bits(got, want)
        got, want = (f.jet3_many(pts, order=3) for f in (two_body.field,
                                                         parent))
        for part in ("grad", "hess", "third"):
            assert _same_bits(getattr(got, part), getattr(want, part)), part
        # each piece's profile across its window, t = 0 and t = 1 included:
        # bit for bit on the open support, the radii the field evaluates;
        # where the window and its slopes are 0 (at and past the support's
        # ends) equal, up to the sign of a product of zeros
        for piece, old, (lo, width) in zip(
                two_body.field.pieces, parent.pieces,
                [(16.0, 40.0), (16.0, 40.0), (200.0, 120.0)], strict=True):
            prof, ref = piece.field.profile, old.field.profile
            r = lo + width * self.T
            r = r[r > prof.r_min * (1.0 + 1e-6)]
            support = (r > piece.r_lo) & (r < piece.r_hi)
            assert support.sum() > 40 and (~support).sum() > 5
            for got, want in zip([prof.f(r)] + prof.slopes(r, 3),
                                 [ref.f(r)] + ref.slopes(r, 3)):
                assert _same_bits(got[support], want[support])
                assert np.array_equal(got, want)


class TestRadialCustomProfile:
    def test_slope_squared(self):
        """The profile realizes f_r^2 = 2m r^2/(1 + r^n) exactly."""
        prof = make_scenario("radial_custom").profile
        r = np.array([0.5, 1.0, 2.0, 7.0])
        exact = 2.0 * 0.7 * r ** 2 / (1.0 + r ** 3)
        fr, = prof.slopes(r, 1)
        assert np.max(np.abs(fr ** 2 - exact) / exact) <= 1e-12

    def test_higher_derivatives_consistent(self):
        prof = make_scenario("radial_custom").profile
        r = np.array([0.5, 1.0, 2.0, 7.0])
        h = 1e-5
        _, frr, frrr = prof.slopes(r, 3)
        (fr_hi, frr_hi), (fr_lo, frr_lo) = (prof.slopes(r + h, 2),
                                            prof.slopes(r - h, 2))
        fd_frr = (fr_hi - fr_lo) / (2.0 * h)
        rel = np.abs(fd_frr - frr) / (1.0 + np.abs(frr))
        assert np.max(rel) <= 1e-8
        fd_frrr = (frr_hi - frr_lo) / (2.0 * h)
        rel = np.abs(fd_frrr - frrr) / (1.0 + np.abs(frrr))
        assert np.max(rel) <= 1e-8


@pytest.fixture(scope="module")
def two_body():
    return make_scenario("two_body_glued")


def _counted(calls: list, fn):
    """fn, recording the arguments after the radii of every call."""
    def wrapped(r, *args):
        calls.append(args)
        return fn(r, *args)
    return wrapped


class TestProfileSlopes:
    RADII = np.geomspace(0.1, 400.0, 61)

    def test_prefix_consistency(self, two_body):
        """slopes(r, k) is slopes(r, 3)[:k] bit for bit in every profile
        family, so the (h_r, h_rr) of radial_derivatives equal the jets'
        on the same radii."""
        pieces = two_body.field.pieces
        profiles = [schwarzschild_profile(1.0, n) for n in (3, 4, 5)] + [
            make_scenario("schwarzschild_perturbed").profile,
            make_scenario("radial_custom").profile,
            window_profile(2.0, 3.0, rising=True),
            pieces[0].field.profile, pieces[-1].field.profile]
        assert [p.label for p in profiles[-2:]] == [
            "schwarzschild(n=3, m=1.0) x window[16.0,56.0]",
            "schwarzschild(n=3, m=1.8) x window[200.0,320.0]"]
        for prof in profiles:
            r = self.RADII[self.RADII > prof.r_min * (1.0 + 1e-6)]
            full = prof.slopes(r, 3)
            assert len(full) == 3
            for k in (1, 2):
                head = prof.slopes(r, k)
                assert len(head) == k
                for got, want in zip(head, full):
                    assert np.array_equal(got, want), (prof.label, k)

    def test_one_gradsq_call_per_request(self, monkeypatch):
        """radial_derivatives asks gradsq once, for (u, u'); an order-3
        jet asks once, for (u, u', u''), and never for the antiderivative
        of a value it does not carry."""
        calls = []
        monkeypatch.setattr(
            scenarios, "profile_from_gradsq",
            lambda gradsq, **kw: jets.profile_from_gradsq(
                _counted(calls, gradsq), **kw))
        field = make_scenario("radial_custom").field
        pts = np.random.default_rng(3).uniform(-4.0, 4.0, (50, 3))
        calls.clear()
        field.radial_derivatives(pts)
        assert calls == [(2,)]
        calls.clear()
        field.jet3_many(pts, order=3)
        assert calls == [(3,)]

    def test_one_psi_call_per_slope_request(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            scenarios, "horizon_profile",
            lambda m, n, a, psi, **kw: jets.horizon_profile(
                m, n, a, _counted(calls, psi), **kw))
        scenario = make_scenario("schwarzschild_perturbed")
        r = scenario.profile.r_min * np.array([1.01, 2.0, 5.0, 40.0])
        for k in (1, 2, 3):
            calls.clear()
            scenario.profile.slopes(r, k)
            assert len(calls) == 1, k
        calls.clear()
        scenario.field.radial_derivatives(r[:, None] * np.eye(3)[0])
        assert len(calls) == 1


class TestTwoBodyField:
    def test_dead_zone_is_exactly_flat(self, two_body):
        """Between the near windows and the far switch the value and
        every jet are the zero of the flat graph, bit for bit."""
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 30.0, 0.0],
                        [-30.0, 0.0, 110.0]])
        jet = two_body.field.jet3_many(pts)
        assert np.all(two_body.field.value(pts) == 0.0)
        assert np.all(jet.grad == 0.0)
        assert np.all(jet.hess == 0.0)
        assert np.all(jet.third == 0.0)

    def test_far_zone_is_total_mass_profile(self, two_body):
        far = RadialField(schwarzschild_profile(1.8, 3), 3)
        pts = np.array([[400.0, 3.0, -2.0], [-350.0, 120.0, 80.0]])
        ja, jb = two_body.field.jet3_many(pts), far.jet3_many(pts)
        assert np.array_equal(ja.grad, jb.grad)
        assert np.array_equal(ja.hess, jb.hess)
        assert np.array_equal(ja.third, jb.third)

    def test_near_zone_is_component_profile(self, two_body):
        near = RadialField(schwarzschild_profile(1.0, 3), 3,
                           center=np.array([-100.0, 0.0, 0.0]))
        pts = np.array([[-96.0, 2.0, 1.0], [-100.0, 0.0, 3.0]])
        ja, jb = two_body.field.jet3_many(pts), near.jet3_many(pts)
        assert np.array_equal(ja.grad, jb.grad)
        assert np.array_equal(ja.third, jb.third)

    def test_seams_are_c3(self, two_body):
        """Central differences straddling every gluing edge agree with
        the analytic jets: no derivative jump up to third order."""
        center = np.array([-100.0, 0.0, 0.0])
        u = np.array([0.6, 0.8, 0.0])
        probes = [center + d * u for d in (16.0, 30.0, 56.0)]
        v = np.array([0.48, -0.6, 0.64])
        v /= np.linalg.norm(v)
        probes += [r0 * v for r0 in (200.0, 260.0, 320.0)]
        for x in probes:
            fd = fd_jet(two_body.field, x, h=0.02)
            an = two_body.field.jet3_many(x[None, :])
            sup = max(float(np.max(np.abs(fd.grad - an.grad[0]))),
                      float(np.max(np.abs(fd.hess - an.hess[0]))),
                      float(np.max(np.abs(fd.third - an.third[0]))))
            assert sup <= 1e-4, (x, sup)

    def test_flux_sees_total_mass(self, two_body):
        """Outside the far switch the graph is exactly the m1+m2
        profile, so the flux closed forms hold with M = 1.8."""
        M, r = 1.8, 3200.0
        plain, _ = adm_flux_mass(two_body, r)
        weighted, _ = adm_flux_mass(two_body, r, weighted=True)
        assert abs(plain - M * r / (r - 2.0 * M)) <= 1e-12 * M
        assert abs(weighted - M) <= 1e-12 * M

    def test_bulk_regions_hold_all_curvature(self, two_body):
        """Just outside each gluing annulus R is zero: exactly on the
        dead-zone side (past the near windows, inside the far switch),
        and to roundoff of its terms on the Schwarzschild side (inside
        the near windows, past the far switch).  So the annuli carry the
        whole bulk term, and no tail fit is needed past them."""
        rng = np.random.default_rng(8)
        dirs = rng.standard_normal((400, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        regions = two_body.bulk_region
        assert len(regions) == 3
        for region in regions:
            center = (np.zeros(3) if region.center is None
                      else np.asarray(region.center))
            inner = center + region.r_inner * (1.0 - 1e-9) * dirs
            outer = center + region.r_outer * (1.0 + 1e-9) * dirs
            near = region.center is not None
            dead, flat = (outer, inner) if near else (inner, outer)
            assert np.all(scalar_curvature(two_body.field, dead) == 0.0)
            r, hr, hrr = two_body.field.radial_derivatives(flat)
            terms = 2.0 * np.abs(hr * hrr) + hr * hr / r
            R = scalar_curvature(two_body.field, flat)
            assert np.all(np.abs(R) <= 1e-13 * terms)

    @pytest.mark.parametrize(("m1", "m2"), [(1.0, 0.8), (1.2, 1.2),
                                            (1.5, 1.5), (1.9, 0.3),
                                            (2.0, 2.0)])
    def test_bulk_cancels_between_annuli(self, m1, m2):
        """The near annuli carry -m1 and -m2, the far one +(m1 + m2):
        on shells centred on each piece the sum is zero to roundoff."""
        res = bulk_mass(make_scenario("two_body_glued", m1=m1, m2=m2))
        assert abs(res.value) <= 1e-8
        assert res.tail_bound == 0.0 and res.q_fit is None

    def test_radial_about_each_region(self, two_body):
        """Each gluing annulus meets only its own piece's support.  An
        annulus about one body that reaches the other body's support
        (r > 56 about x = 100, so past r = 144 about x = -100) does not
        see a radial field."""
        for region in two_body.bulk_region:
            assert two_body.field.radial_about(
                region.center or (0.0, 0.0, 0.0), region.r_inner,
                region.r_outer)
        near = PiecewiseRadialField(two_body.field.pieces[:2], 3)
        assert near.radial_about((-100.0, 0.0, 0.0), 16.0, 140.0)
        assert not near.radial_about((-100.0, 0.0, 0.0), 16.0, 150.0)
        assert not two_body.field.radial_about((-100.0, 0.0, 0.0), 16.0,
                                               150.0)

    def test_sampler_deterministic(self, two_body):
        a = two_body.sample_points(50, 11)
        assert a.shape == (50, 3)
        assert np.array_equal(a, two_body.sample_points(50, 11))

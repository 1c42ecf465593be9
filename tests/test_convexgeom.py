"""Quermassintegrals, Aleksandrov-Fenchel gaps, and horizon bookkeeping."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from graphmass import convexgeom
from graphmass.convexgeom import (Ellipsoid, HorizonSet, SmoothLevelSet,
                                  Sphere, _elementary_all, af_chain_gaps,
                                  af_gap, horizon_mean_curvature_term,
                                  penrose_bound, quermassintegrals,
                                  superadditivity_gap)
from graphmass.errors import BodyError, NonConvexError
from graphmass.jets import ExprField
from graphmass.quad import sphere_rule, unit_sphere_area
from graphmass.scenarios import make_scenario


def quermass(horizons):
    return [quermassintegrals(body) for body in horizons]


def areas(horizons):
    return [float(V[0]) for V in quermass(horizons)]


class TestSphereSpectrum:
    def test_quermassintegrals_exact(self):
        """V_k of a radius-a sphere is omega a^{n-1-k} for k = 0..n-1."""
        for n, a in ((3, 2.0), (4, 1.3), (5, 1.7)):
            V = quermassintegrals(Sphere(np.zeros(n), a))
            omega = unit_sphere_area(n)
            expected = np.array([omega * a ** (n - 1 - k) for k in range(n)])
            rel = float(np.max(np.abs(V - expected) / expected))
            assert rel <= 1e-12, (n, rel)

    def test_af_gap_vanishes(self):
        gap = af_gap(quermassintegrals(Sphere(np.zeros(3), 2.0)))
        V0 = unit_sphere_area(3) * 4.0
        assert abs(gap) <= 1e-12 * V0 ** 2

    def test_chain_equalities(self):
        """Spheres saturate every chain inequality; there are C(n,3)."""
        for n, count in ((3, 1), (4, 4), (5, 10)):
            gaps = af_chain_gaps(quermassintegrals(Sphere(np.zeros(n), 1.4)))
            assert len(gaps) == count
            for (_, gap, rel) in gaps:
                assert abs(rel) <= 1e-12

    def test_principal_curvatures_constant(self):
        body = Sphere(np.zeros(3), 0.5)
        pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, -0.5]])
        assert np.array_equal(body.shape_spectrum(pts),
                              np.full((2, 2), 2.0))

    def test_positive_radius_required(self):
        with pytest.raises(BodyError):
            Sphere(np.zeros(3), 0.0)


class TestEllipsoid:
    def test_prolate_area_closed_form(self):
        """Prolate spheroid with semiaxes (2,1,1): surface area
        2 pi (1 + 4 sqrt(3) pi / 9) = 21.478435327883737."""
        area = quermassintegrals(Ellipsoid(np.zeros(3), (2.0, 1.0, 1.0)))[0]
        exact = 2.0 * math.pi * (1.0 + 4.0 * math.sqrt(3.0) * math.pi / 9.0)
        assert abs(area - exact) <= 1e-9 * exact

    def test_pole_curvatures(self):
        """At the pole on the a-axis the meridian curvatures are a/b^2
        and a/c^2."""
        body = Ellipsoid(np.zeros(3), (2.0, 1.25, 1.0))
        kap = body.shape_spectrum(np.array([2.0, 0.0, 0.0]))[0]
        assert kap[0] == pytest.approx(2.0 / 1.25 ** 2, rel=1e-12)
        assert kap[1] == pytest.approx(2.0, rel=1e-12)

    def test_af_gap_positive_and_resolved(self):
        """Nonspherical bodies have a strictly positive gap, and it must
        clear the quadrature error estimated by halving the rule order."""
        for ratio in (1.5, 2.5, 4.0):
            body = Ellipsoid(np.zeros(3), (ratio, 1.1, 1.0))
            g64 = af_gap(quermassintegrals(body, sphere_rule(3, order=64)))
            g32 = af_gap(quermassintegrals(body, sphere_rule(3, order=32)))
            assert g64 > 0.0
            assert g64 > 2.0 * abs(g64 - g32), (ratio, g64, g64 - g32)

    def test_chain_gaps_nonnegative(self):
        rule = sphere_rule(4, order=32)
        body = Ellipsoid(np.zeros(4), (1.8, 1.4, 1.1, 1.0))
        gaps = af_chain_gaps(quermassintegrals(body, rule))
        assert len(gaps) == 4
        for (idx, gap, rel) in gaps:
            assert rel >= -1e-9, (idx, rel)

    def test_gauss_map_normalization(self):
        """V_{n-1} is the Gauss-Bonnet invariant omega_{n-1} for every
        convex body, not just spheres."""
        body = Ellipsoid(np.zeros(3), (1.9, 1.2, 0.8))
        V = quermassintegrals(body)
        assert abs(V[-1] / unit_sphere_area(3) - 1.0) <= 1e-10
        body4 = Ellipsoid(np.zeros(4), (1.6, 1.3, 1.1, 1.0))
        V4 = quermassintegrals(body4, sphere_rule(4, order=32))
        assert abs(V4[-1] / unit_sphere_area(4) - 1.0) <= 1e-8

    def test_scaling_covariance(self):
        """V_k(lam K) = lam^{n-1-k} V_k(K)."""
        axes = np.array([1.7, 1.2, 1.0])
        lam = 2.5
        rule = sphere_rule(3)
        V1 = quermassintegrals(Ellipsoid(np.zeros(3), axes), rule)
        V2 = quermassintegrals(Ellipsoid(np.zeros(3), lam * axes), rule)
        for k in range(3):
            assert V2[k] == pytest.approx(lam ** (2 - k) * V1[k], rel=1e-10)

    def test_validation(self):
        with pytest.raises(BodyError):
            Ellipsoid(np.zeros(3), (1.0, 1.0))
        with pytest.raises(BodyError):
            Ellipsoid(np.zeros(3), (1.0, -1.0, 1.0))


class TestEllipsoidClosedForm:
    """``surface_terms`` of spheres and ellipsoids takes one pass over the
    rule's nodes: a sphere repeats one point's e row, an ellipsoid expands
    e_k from the Hessian diagonal.  The eigenvalues of the Weingarten map
    at ``surface_sample``'s points are the reference."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_weingarten_eigenvalues(self, n):
        rng = np.random.default_rng(100 + n)
        rule = sphere_rule(n)
        bodies = [Sphere(rng.uniform(-2.0, 2.0, n), rng.uniform(0.3, 3.0))
                  for _ in range(2)]
        bodies += [Ellipsoid(rng.uniform(-2.0, 2.0, n),
                             rng.uniform(0.3, 3.0, n)) for _ in range(3)]
        for body in bodies:
            assert np.any(body.center != 0.0)
            pts, w_ref = body.surface_sample(rule)
            ref = _elementary_all(body.shape_spectrum(pts))
            w, e = body.surface_terms(rule)
            assert np.array_equal(w, w_ref)
            assert e.shape == (len(pts), n)
            rel = float(np.max(np.abs(e - ref) / np.abs(ref)))
            assert rel <= 1e-13, (body, rel)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_semiaxes_reproduce_sphere(self, n):
        center = np.linspace(-1.0, 1.0, n)
        ball = Ellipsoid(center, np.full(n, 1.3))
        assert np.all(ball.surface_terms(sphere_rule(n))[1] > 0.0)
        V = quermassintegrals(ball)
        ref = quermassintegrals(Sphere(center, 1.3))
        assert np.max(np.abs(V - ref) / ref) <= 1e-14

    def test_no_eigen_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        body = Ellipsoid(np.zeros(4), (1.8, 1.4, 1.1, 1.0))
        V = quermassintegrals(body, sphere_rule(4, order=32))
        assert abs(V[-1] / unit_sphere_area(4) - 1.0) <= 1e-8
        with pytest.raises(AssertionError, match="eigvalsh"):
            body.shape_spectrum(np.array([1.8, 0.0, 0.0, 0.0]))


class TestSmoothLevelSet:
    def test_matches_ellipsoid(self):
        """The same surface through the implicit route: every V_k agrees."""
        ax = (1.5, 1.3, 1.0)
        phi = ExprField(
            f"x1^2/{ax[0] ** 2} + x2^2/{ax[1] ** 2} + x3^2/{ax[2] ** 2}", 3)
        lvl = SmoothLevelSet(phi, level=1.0)
        rule = sphere_rule(3, order=64)
        Va = quermassintegrals(lvl, rule)
        Vb = quermassintegrals(Ellipsoid(np.zeros(3), ax), rule)
        assert float(np.max(np.abs(Va - Vb) / np.abs(Vb))) <= 1e-10

    def test_quartic_body(self):
        body = SmoothLevelSet(ExprField("x1^4 + x2^4 + x3^4", 3), level=1.0)
        V = quermassintegrals(body, sphere_rule(3, order=64))
        assert abs(V[-1] / unit_sphere_area(3) - 1.0) <= 1e-9
        assert af_gap(quermassintegrals(body, sphere_rule(3, order=64))) > 0.0
        # sampled outer radius sits just below the diagonal max 3^{1/4}
        assert 0.99 * 3.0 ** 0.25 <= body.outer_radius() <= 3.0 ** 0.25 + 1e-9

    def test_nonconvex_rejected_at_construction(self):
        """A dumbbell level set has negative curvature at the waist; the
        message names the least one, from the closed-form 2x2 route."""
        phi = ExprField("x1^4 - 1.5*x1^2 + x2^4 + x3^4", 3)
        with pytest.raises(NonConvexError, match=(
                r"^principal curvature -2\.906e\+00 < 0: surface is not "
                r"convex$")):
            SmoothLevelSet(phi, level=0.2)

    def test_nonconvex_rejected_at_n4(self):
        """The same waist at n = 4, where eigvalsh finds the curvatures."""
        phi = ExprField("x1^4 - 1.5*x1^2 + x2^4 + x3^4 + x4^4", 4)
        with pytest.raises(NonConvexError, match=(
                r"^principal curvature -2\.765e\+00 < 0: surface is not "
                r"convex$")):
            SmoothLevelSet(phi, level=0.2)

    def test_unbounded_ray_rejected(self):
        with pytest.raises(BodyError,
                           match="level set is unbounded along a ray"):
            SmoothLevelSet(ExprField("x1", 3), 1.0)

    def test_unbounded_set_rejected(self):
        """exp(x1) + x2^2 + x3^2 < 3 runs off along -x1, yet every probe
        ray leaves it: its Gauss map covers half the sphere (V_2 = 2 pi,
        not 4 pi)."""
        with pytest.raises(BodyError,
                           match=r"unbounded: its Gauss map covers 0\.5 "):
            SmoothLevelSet(ExprField("exp(x1) + x2^2 + x3^2", 3), 3.0,
                           center=(0.1, 0.2, -0.1))

    def test_bounded_sets_clear_the_cover_test_by_100x(self):
        """Each bounded test set's probe V_{n-1} is within a hundredth of
        the tolerance of the unit sphere's area."""
        for text, n, level, center in LEVEL_SETS.values():
            body = SmoothLevelSet(ExprField(text, n), level, center=center)
            cover = quermassintegrals(body)[-1] / unit_sphere_area(n)
            assert abs(cover - 1.0) <= convexgeom._GAUSS_MAP_TOL / 100.0

    def test_center_must_be_interior(self):
        with pytest.raises(BodyError):
            SmoothLevelSet(ExprField("x1^2 + x2^2 + x3^2", 3), level=1.0,
                           center=(2.0, 0.0, 0.0))

    def test_rule_dimension_must_match(self):
        """A rule on another sphere than phi's is refused, and the
        message names both dimensions."""
        with pytest.raises(BodyError, match=r"rule has n = 4, phi has n = 3"):
            SmoothLevelSet(ExprField("x1^2 + x2^2 + x3^2", 3), 1.0,
                           rule=sphere_rule(4))


class TestShapeOperator3:
    """At n = 3 the two principal curvatures come in closed form from the
    entries of T'HT/|grad phi|; eigvalsh of that matrix, with T the
    Householder frame, is the reference, to 4 ulp of max|kappa|."""

    @staticmethod
    def eigvalsh(grad, hess):
        """eigvalsh of T'HT/|grad phi|, T the last n - 1 columns of the
        Householder reflection that swaps m and -sign(m_0) e_0."""
        gn = np.linalg.norm(grad, axis=1)
        w = grad / gn[:, None]
        w[:, 0] += np.where(w[:, 0] >= 0.0, 1.0, -1.0)
        T = (np.eye(3) - 2.0 * w[:, :, None] * w[:, None, :]
             / np.einsum("ni,ni->n", w, w)[:, None, None])[:, :, 1:]
        return np.linalg.eigvalsh(
            np.swapaxes(T, -1, -2) @ hess @ T / gn[:, None, None])

    def assert_matches(self, body, grad, hess):
        got = body._weingarten(grad, hess)
        want = self.eigvalsh(grad, hess)
        assert got.shape == want.shape == (len(grad), 2)
        assert np.all(got[:, 0] <= got[:, 1])
        tol = 4 * np.spacing(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol

    @staticmethod
    def surface_jet(name):
        text, n, level, center = LEVEL_SETS[name]
        body = SmoothLevelSet(ExprField(text, n), level, center=center)
        pts, _ = body.surface_sample(sphere_rule(3, 32))
        jet = body.phi.jet3_many(pts, order=2)
        return body, jet.grad, jet.hess

    @pytest.mark.parametrize("name", ["quartic3", "ellipsoid"])
    def test_matches_eigvalsh_on_level_sets(self, name):
        self.assert_matches(*self.surface_jet(name))

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_matches_eigvalsh_on_scaled_entries(self, scale):
        body, grad, hess = self.surface_jet("quartic3")
        self.assert_matches(body, grad, scale * hess)

    def test_umbilic(self):
        """With the normal on an axis, a = d and b = 0: both curvatures
        equal k/|grad phi| exactly, on either side of the axis."""
        body, _, _ = self.surface_jet("quartic3")
        grad = np.array([[2.0, 0.0, 0.0], [-4.0, 0.0, 0.0]])
        hess = np.broadcast_to(np.diag([5.0, 3.0, 3.0]), (2, 3, 3))
        assert np.array_equal(body._weingarten(grad, hess),
                              [[1.5, 1.5], [0.75, 0.75]])
        self.assert_matches(body, grad, hess)


def inside(body, t, dirs):
    """Whether phi < level at distances t along the rays dirs."""
    return body.phi.value(body.center + t[:, None] * dirs) < body.level


def doubled(body, dirs):
    """The outer ends hi of the brackets [0, hi] that doubling from 1
    gives."""
    hi = np.ones(len(dirs))
    for _ in range(80):
        grow = inside(body, hi, dirs)
        if not grow.any():
            break
        hi[grow] *= 2.0
    return hi


def fixed_bisection(body, dirs, lo=None, hi=None):
    """Each ray's radius after all 90 halvings of its bracket [lo, hi]
    (lo inside, hi outside), by default [0, doubled(body, dirs)]: the
    reference for the halving loop that stops once the brackets do."""
    if hi is None:
        lo, hi = np.zeros(len(dirs)), doubled(body, dirs)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        ins = inside(body, mid, dirs)
        lo = np.where(ins, mid, lo)
        hi = np.where(ins, hi, mid)
    return 0.5 * (lo + hi)


def count_solves(monkeypatch):
    """The ray counts of every ``SmoothLevelSet._solve_radii`` call from
    now on, in a list."""
    solves = []
    solve = SmoothLevelSet._solve_radii
    monkeypatch.setattr(SmoothLevelSet, "_solve_radii",
                        lambda self, dirs: (solves.append(len(dirs)),
                                            solve(self, dirs))[1])
    return solves


def count_calls(obj, name):
    """Counts the calls of obj.name from now on, in a list."""
    calls = []
    method = getattr(obj, name)
    setattr(obj, name, lambda *a, **k: (calls.append(1), method(*a, **k))[1])
    return calls


LEVEL_SETS = {
    "quartic3": ("x1^4 + x2^4 + x3^4", 3, 1.0, None),
    "quartic4": ("x1^4 + x2^4 + x3^4 + x4^4", 4, 1.0, None),
    "ellipsoid": ("x1^2/2.25 + x2^2/1.69 + x3^2", 3, 1.0, None),
    "exp": ("exp(x1) + x1^2 + x2^2 + x3^2", 3, 3.0, (0.1, 0.2, -0.1)),
}


def level_set_rays(name, order):
    text, n, level, center = LEVEL_SETS[name]
    body = SmoothLevelSet(ExprField(text, n), level, center=center)
    return body, sphere_rule(n, order).nodes


each_level_set = pytest.mark.parametrize(
    "name, order", [(name, order) for name in sorted(LEVEL_SETS)
                    for order in (None, 32)])


class TestLevelSetRadii:
    @each_level_set
    def test_early_exit_matches_fixed_bisection(self, name, order):
        """From the doubling bracket [0, hi] and from [r/2, 2r], the
        halving loop stops once no bracket moves, in fewer steps than
        the fixed 90, and leaves every radius bit-identical to them."""
        body, dirs = level_set_rays(name, order)
        r = body._solve_radii(dirs)
        for lo, hi in ((np.zeros(len(dirs)), doubled(body, dirs)),
                       (0.5 * r, 2.0 * r)):
            calls = count_calls(body.phi, "value")
            radii = body._halve(dirs, lo, hi)
            early = len(calls)
            assert np.array_equal(radii, fixed_bisection(body, dirs, lo, hi))
            assert early < len(calls) - early
            del body.phi.value

    @each_level_set
    def test_radius_is_a_one_ulp_sign_change(self, name, order):
        """Each radius is the midpoint of two adjacent floats, the inner
        one inside the body and the outer one outside."""
        body, dirs = level_set_rays(name, order)
        r = body._solve_radii(dirs)
        at_r = inside(body, r, dirs)
        lo = np.where(at_r, r, np.nextafter(r, 0.0))
        hi = np.nextafter(lo, np.inf)
        assert np.array_equal(0.5 * (lo + hi), r)
        assert inside(body, lo, dirs).all()
        assert not inside(body, hi, dirs).any()

    @each_level_set
    def test_few_calls_near_fixed_bisection(self, name, order):
        """A solve makes at most 20 value calls (55-60 for bisection from
        the doubling bracket), and every radius lies within 2 ulp of the
        bisection's; roundoff can flip phi < level more than once there."""
        body, dirs = level_set_rays(name, order)
        calls = count_calls(body.phi, "value")
        r = body._solve_radii(dirs)
        assert len(calls) <= 20
        ref = fixed_bisection(body, dirs)
        assert np.all(np.abs(r - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize(("name", "order", "digest"), [
        ("quartic3", None, "99fba2eac36c5609"),
        ("quartic3", 64, "67be209be7c5cebf"),
        ("exp", 32, "0a6ed6fbb1d522de"),
        ("quartic4", None, "2a9ddb1202d0121f")])
    def test_radii_are_pinned(self, name, order, digest):
        """sha256[:16] of the radii, pinned bit for bit: the solve's
        steps may be reorganised, never their arithmetic."""
        body, dirs = level_set_rays(name, order)
        r = body._solve_radii(dirs)
        assert hashlib.sha256(r.tobytes()).hexdigest()[:16] == digest

    def test_probe_rule_is_solved_once(self, monkeypatch):
        """Construction solves the radii on the default rule; a surface
        pass on that same rule object reuses them, and an equal rule
        that is another object solves them again, to the same bits."""
        body = SmoothLevelSet(ExprField("x1^4 + x2^4 + x3^4", 3), 1.0)
        solves = count_solves(monkeypatch)
        V = quermassintegrals(body)
        assert solves == []
        copy = dataclasses.replace(sphere_rule(3))
        assert np.array_equal(quermassintegrals(body, copy), V)
        assert solves == [len(copy.weights)]

    @pytest.mark.parametrize("name", sorted(LEVEL_SETS))
    def test_built_on_the_rule_it_is_read_on(self, name, monkeypatch):
        """A body built with ``rule=R`` solves its radii once, on R, and
        its V on R equals a default-built body's bit for bit."""
        text, n, level, center = LEVEL_SETS[name]
        rule = sphere_rule(n, 32)
        want = quermassintegrals(
            SmoothLevelSet(ExprField(text, n), level, center=center), rule)
        solves = count_solves(monkeypatch)
        body = SmoothLevelSet(ExprField(text, n), level, center=center,
                              rule=rule)
        assert np.array_equal(quermassintegrals(body, rule), want)
        assert solves == [len(rule.weights)]


class TestLevelSetPasses:
    QUARTIC = "x1^4 + x2^4 + x3^4"
    # V of the quartic body as bisected radii, one jet per pass and the
    # closed-form 2x2 shape operator give it
    V_RULE64 = ("0x1.1965205d857d7p+4", "0x1.e54187a1335bbp+3",
                "0x1.921fb54442d1ap+3")
    V_PROBE = ("0x1.1965205d858a6p+4", "0x1.e54187a1270d6p+3",
               "0x1.921fb543edb56p+3")

    def test_one_jet_per_node_set(self, monkeypatch):
        """A pass on a new rule builds one order-2 jet; a pass on the
        construction's probe rule builds none and solves no eigenproblem;
        the V vectors are unchanged bit for bit."""
        body = SmoothLevelSet(ExprField(self.QUARTIC, 3), 1.0)
        jets = count_calls(body.phi, "jet3_many")
        V64 = quermassintegrals(body, sphere_rule(3, 64))
        assert len(jets) == 1
        assert tuple(float(v).hex() for v in V64) == self.V_RULE64

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        V = quermassintegrals(body)
        assert len(jets) == 1
        assert tuple(float(v).hex() for v in V) == self.V_PROBE


class TestHorizonSet:
    def test_bodies_compare_by_identity(self):
        """Bodies hold numpy arrays, so they compare by identity and hash
        as objects; equal-looking bodies, horizon sets and the scenarios
        that reach them compare unequal instead of raising."""
        a, b = Sphere([0.0, 0.0, 0.0], 1.0), Sphere([0.0, 0.0, 0.0], 1.0)
        ell = Ellipsoid(np.zeros(3), (1.0, 2.0, 3.0))
        assert a == a and a != b
        assert len({a, b, ell, HorizonSet((a,)), HorizonSet((a,))}) == 5
        assert ell != Ellipsoid(np.zeros(3), (1.0, 2.0, 3.0))
        assert make_scenario("ellipsoid_horizon") != \
            make_scenario("ellipsoid_horizon")
        assert repr(a) == "Sphere(center=array([0., 0., 0.]), radius=1.0)"

    def test_disjoint_pair(self):
        hs = HorizonSet((Sphere(np.array([-3.0, 0.0, 0.0]), 1.0),
                         Sphere(np.array([3.0, 0.0, 0.0]), 1.5)))
        assert len(hs) == 2

    def test_overlap_rejected(self):
        with pytest.raises(BodyError, match="disjoint"):
            HorizonSet((Sphere(np.zeros(3), 2.0),
                        Sphere(np.array([3.0, 0.0, 0.0]), 1.5)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(BodyError):
            HorizonSet((Sphere(np.zeros(3), 1.0), Sphere(np.zeros(4), 1.0)))

    def test_empty_set(self):
        hs = HorizonSet(())
        assert len(hs) == 0
        assert penrose_bound(areas(hs), 3) == 0.0
        assert horizon_mean_curvature_term(quermass(hs)) == 0.0


class TestPenroseBound:
    def test_single_sphere(self):
        """(area/omega)^{1/2}/2 = a/2 in three dimensions."""
        hs = HorizonSet((Sphere(np.zeros(3), 3.0),))
        assert penrose_bound(areas(hs), 3) == pytest.approx(1.5, rel=1e-13)

    def test_components_add(self):
        a = HorizonSet((Sphere(np.array([-5.0, 0, 0]), 1.0),))
        b = HorizonSet((Sphere(np.array([5.0, 0, 0]), 2.0),))
        both = HorizonSet((a.bodies[0], b.bodies[0]))
        assert penrose_bound(areas(both), 3) == pytest.approx(
            penrose_bound(areas(a), 3) + penrose_bound(areas(b), 3),
            rel=1e-13)

    def test_one_vector_is_a_left_to_right_float_sum(self):
        """A 1-D call returns the Python float of scalar powers summed
        left to right, bit for bit; leading axes broadcast."""
        areas = [3.7, 12.1, 0.4, 50.0, 7.3, 0.01, 22.2, 9.9, 1.5]
        for n in (3, 4, 5, 9):
            omega, expo, want = unit_sphere_area(n), (n - 2) / (n - 1), 0.0
            for area in areas:
                want += 0.5 * (area / omega) ** expo
            got = penrose_bound(np.array(areas), n)
            assert type(got) is float and got == want
            assert penrose_bound(areas, n) == want
        assert penrose_bound(np.ones((2, 3, 4)), 3).shape == (2, 3)
        assert penrose_bound(np.ones((2, 0)), 3).tolist() == [0.0, 0.0]

    def test_mean_curvature_term_sphere(self):
        """V_1/(2 omega) = a^{n-2}/2; at a = 2m this is exactly m."""
        for n, m in ((3, 1.0), (4, 0.7), (5, 1.3)):
            a = (2.0 * m) ** (1.0 / (n - 2))
            hs = HorizonSet((Sphere(np.zeros(n), a),))
            assert horizon_mean_curvature_term(quermass(hs)) == pytest.approx(
                m, rel=1e-12)


class TestSuperadditivity:
    def test_single_component_is_exact_zero(self):
        assert superadditivity_gap([12.566], 3) == 0.0

    def test_random_splits_nonnegative(self):
        rng = np.random.default_rng(20260817)
        for _ in range(500):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(3, 6))
            areas = rng.uniform(0.1, 50.0, k)
            gap = superadditivity_gap(areas, n)
            assert gap > 0.0, (areas, n)

    def test_rejects_nonpositive_areas(self):
        with pytest.raises(ValueError):
            superadditivity_gap([1.0, -2.0], 3)
        with pytest.raises(ValueError):
            superadditivity_gap([], 3)
        with pytest.raises(ValueError):
            superadditivity_gap(np.ones((3, 0)), 3)

    def test_batch_equals_rows(self):
        """A (cases, k) array gives each row's own gap, within 4 ulp, and
        exactly 0 on singletons; a row's call returns a Python float."""
        rng = np.random.default_rng(7)
        for k in range(1, 7):
            for n in (3, 4, 5):
                batch = rng.uniform(0.01, 50.0, (40, k))
                gaps = superadditivity_gap(batch, n)
                rows = [superadditivity_gap(row, n) for row in batch]
                assert gaps.shape == (40,)
                assert all(type(g) is float for g in rows)
                assert np.all(np.abs(gaps - rows)
                              <= 4 * np.spacing(np.abs(rows)))
                assert np.all(gaps == 0.0) if k == 1 else np.all(gaps > 0.0)

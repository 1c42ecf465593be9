"""Jet propagation against finite differences and closed forms, and the
order-2 jets the curvature consumers ask for."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from field_helpers import RotatedField, loop_fd_jet
from graphmass import acceptance
from graphmass.errors import DomainError, UnboundParameterError
from graphmass.expr import evaluate, parse
from graphmass.jets import (_JET_OPS, ExprField, RadialField, RadialProfile,
                            fd_jet, flatness_report, horizon_profile,
                            profile_from_gradsq, radial_jet,
                            schwarzschild_profile)
from graphmass.scenarios import (PiecewiseRadialField, _Piece,
                                 make_scenario, scenario_names)


def sup(a):
    return float(np.max(np.abs(a)))


def jet_at(field, x):
    """Unbatched jet of a field at one point, via the batched interface."""
    j = field.jet3_many(np.asarray(x, float)[None, :])
    return j.value[0], j.grad[0], j.hess[0], j.third[0]


class TestExprJets:
    FIELD = ExprField("0.4*x1^2*x2 + sin(1.3*x2)*x3 - 0.2*exp(x3) + x1/(2+x2^2)", 3)

    def test_grad_hess_match_fd(self):
        """Value-only central differences reproduce grad and hess to ~1e-7."""
        rng = np.random.default_rng(20260817)
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, 3)
            fd = fd_jet(self.FIELD, x)
            _, g, h, _ = jet_at(self.FIELD, x)
            assert sup(fd.grad - g) <= 1e-7 * (1.0 + sup(g)), f"grad at {x}"
            assert sup(fd.hess - h) <= 1e-5 * (1.0 + sup(h)), f"hess at {x}"

    def test_third_matches_fd(self):
        """Third derivatives against a coarse step; truncation is O(h^2)."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, 3)
            fd = fd_jet(self.FIELD, x, h=0.02)
            _, _, _, t = jet_at(self.FIELD, x)
            assert sup(fd.third - t) <= 5e-3 * (1.0 + sup(t)), f"third at {x}"

    def test_value_matches(self):
        x = np.array([0.2, -0.4, 0.6])
        v, _, _, _ = jet_at(self.FIELD, x)
        assert v == float(self.FIELD.value(x[None, :])[0])

    def test_hessian_and_third_symmetric(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.8, 0.8, (50, 3))
        j = self.FIELD.jet3_many(pts)
        assert sup(j.hess - np.swapaxes(j.hess, -1, -2)) == 0.0
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            t2 = np.transpose(j.third, (0,) + tuple(p + 1 for p in perm))
            assert sup(j.third - t2) <= 1e-14 * (1.0 + sup(j.third))

    def test_fd_jet_rejects_batches(self):
        with pytest.raises(ValueError):
            fd_jet(self.FIELD, np.zeros((4, 3)))


def fd_probes():
    """Acceptance criterion 9's probe points (every registry field with
    one, then the 20 seeded random expressions) and one point each in
    n = 4 and n = 5."""
    out = []
    for name in scenario_names():
        scn = make_scenario(name)
        if scn.field is None:
            continue
        direction = acceptance._probe_direction(scn.n)
        if len(scn.horizons) > 0:
            body = scn.horizons.bodies[0]
            x = body.center + 2.2 * body.outer_radius() * direction
        else:
            x = 0.9 * direction
        out.append((name, scn.field, x))
    rng = np.random.default_rng(acceptance.SEED + 9)
    for _ in range(20):
        text = acceptance._random_expression(rng)
        out.append((text, ExprField(text, 3), rng.uniform(-0.8, 0.8, 3)))
    out.append(("n4", ExprField("x1*x2*x3*x4 + exp(x1 - x4) + sin(x2)*x3^2",
                                4), np.array([0.3, -0.2, 0.5, 0.1])))
    out.append(("n5", ExprField("x1*x3*x5 + x2^2*x4 + cos(x1 + x5)", 5),
                np.array([0.3, -0.2, 0.5, 0.1, -0.4])))
    return out


class TestFdSteps:
    def test_one_value_call_equals_the_per_step_loop(self):
        """fd_jet over an array of steps makes one field.value call, and
        each step's value, grad, hess and third equal the one-step loop's
        bit for bit."""
        probes = fd_probes()
        assert len(probes) == 29
        steps = acceptance.FD_STEPS
        for name, field, x in probes:
            calls = []
            value = field.value
            field.value = lambda pts: (calls.append(1), value(pts))[1]
            fd = fd_jet(field, x, np.array(steps))
            assert len(calls) == 1, name
            del field.value
            assert fd.grad.shape == (len(steps), len(x))
            for k, h in enumerate(steps):
                ref = loop_fd_jet(field, x, h)
                for part in ("value", "grad", "hess", "third"):
                    assert np.array_equal(getattr(fd[k], part),
                                          getattr(ref, part)), (name, h, part)

    def test_one_step_keeps_the_unbatched_shapes(self):
        x = np.array([0.2, -0.4, 0.6])
        fd = fd_jet(TestExprJets.FIELD, x, 0.02)
        assert fd.value.shape == () and fd.third.shape == (3, 3, 3)
        ref = loop_fd_jet(TestExprJets.FIELD, x, 0.02)
        assert np.array_equal(fd.third, ref.third)
        with pytest.raises(ValueError):
            fd_jet(TestExprJets.FIELD, x, np.ones((2, 2)))


class TestDomainRules:
    """One set of domain rules for values (order 0) and jets (orders 2
    and 3): each case gives a value at every order or raises at every
    order, except sqrt and r at 0, where only the jet's slope is
    infinite."""

    CASES = [
        ("x1^(-1)", [0.0, 1.0, 1.0], "negative power of zero in 'x1^(-1)'"),
        ("1/x1", [0.0, 1.0, 1.0], "division by zero in '1/x1'"),
        ("log(x1)", [0.0, 1.0, 1.0], "log of a non-positive value in "
         "'log(x1)'"),
        ("x1^0.5", [-1.0, 1.0, 1.0], "non-integer power of a non-positive "
         "value in 'x1^0.5'"),
        ("sqrt(x1)", [0.0, 1.0, 1.0], 0.0),
        ("r", [0.0, 0.0, 0.0], 0.0),
        ("2 + a*x1", [1.0, 1.0, 1.0], UnboundParameterError),
    ]

    @pytest.mark.parametrize("order", [0, 2, 3])
    @pytest.mark.parametrize(("text", "point", "expected"), CASES,
                             ids=[c[0] for c in CASES])
    def test_value_or_named_error_at_every_order(self, text, point,
                                                 expected, order):
        node = parse(text, 3)
        pts = np.asarray(point, float)[None, :]

        def run():
            if order == 0:
                return evaluate(node, {}, pts)
            return evaluate(node, {}, pts, order, _JET_OPS)

        if expected is UnboundParameterError:
            with pytest.raises(UnboundParameterError, match="'a'"):
                run()
        elif isinstance(expected, str):
            with pytest.raises(DomainError, match=re.escape(expected)):
                run()
        elif order == 0:
            assert run()[0] == expected
        else:  # sqrt and r at 0: the slope is infinite
            with pytest.raises(DomainError,
                               match=re.escape(f"sqrt at 0 in '{text}'")):
                run()


    @pytest.mark.parametrize("text", ["exp(x1)", "exp(x1) - exp(x1)"])
    def test_non_finite_value_raises(self, text):
        """An overflow, or the NaN it leads to, raises naming the
        expression instead of passing as inf or NaN."""
        with pytest.raises(DomainError, match=re.escape(
                f"non-finite value of '{text}'")):
            ExprField(text, 3).value([[1000.0, 0.0, 0.0]])


class TestHorizonOracle:
    """Schwarzschild n = 3 written as an expression whose sqrt vanishes on
    the horizon r = 2m: the form of a non-round convex horizon graph."""

    FIELD = ExprField("-sqrt(8*m*(r - 2*m))", 3, {"m": 1.0})

    def test_matches_the_radial_field_outside(self):
        scn = make_scenario("schwarzschild3", m=1.0)
        pts = scn.sample_points(200, 13)
        got, want = self.FIELD.jet3_many(pts), scn.field.jet3_many(pts)
        want.value = scn.field.value(pts)  # a radial jet carries none
        for name in ("value", "grad", "hess", "third"):
            a, b = getattr(got, name), getattr(want, name)
            axes = tuple(range(1, b.ndim))  # per point
            scale = np.max(np.abs(b), axis=axes)
            err = np.max(np.abs(a - b), axis=axes)
            assert np.all(err <= 1e-12 * scale), name

    def test_zero_on_the_horizon_where_the_jet_raises(self):
        on = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
        assert np.all(self.FIELD.value(on) == 0.0)
        for order in (2, 3):
            with pytest.raises(DomainError, match="sqrt at 0"):
                self.FIELD.jet3_many(on, order=order)


class TestJetAlgebra:
    def test_product_rule(self):
        """Jet of u*v equals the product of the jets of u and v."""
        u = ExprField("x1^2 + sin(x2)", 3)
        v = ExprField("exp(0.3*x3) - x1", 3)
        w = ExprField("(x1^2 + sin(x2))*(exp(0.3*x3) - x1)", 3)
        pts = np.random.default_rng(5).uniform(-1, 1, (30, 3))
        ju, jv, jw = u.jet3_many(pts), v.jet3_many(pts), w.jet3_many(pts)
        jp = ju * jv
        for a, b in ((jp.value, jw.value), (jp.grad, jw.grad),
                     (jp.hess, jw.hess), (jp.third, jw.third)):
            assert sup(a - b) <= 1e-12 * (1.0 + sup(b))


class TestSchwarzschildProfile:
    def test_frozen_derivatives_n3(self):
        """Increasing branch, m=1: f_r = sqrt(2/(r-2)), so at r=4 the jet
        values are f=4, f_r=1, f_rr=-1/4, f_rrr=3/16."""
        prof = schwarzschild_profile(1.0, 3, branch=+1)
        fr, frr, frrr = prof.slopes(4.0, 3)
        assert float(prof.f(4.0)) == pytest.approx(4.0, abs=1e-13)
        assert float(fr) == pytest.approx(1.0, rel=1e-14)
        assert float(frr) == pytest.approx(-0.25, rel=1e-14)
        assert float(frrr) == pytest.approx(3.0 / 16.0, rel=1e-13)

    def test_decreasing_branch_flips_sign(self):
        plus = schwarzschild_profile(1.0, 3, branch=+1)
        minus = schwarzschild_profile(1.0, 3)
        for r in (2.5, 4.0, 9.0):
            assert float(minus.f(r)) == -float(plus.f(r))
            assert (float(minus.slopes(r, 1)[0])
                    == -float(plus.slopes(r, 1)[0]))

    def test_horizon_radius(self):
        assert schwarzschild_profile(1.0, 3).r_min == 2.0
        assert schwarzschild_profile(1.0, 4).r_min == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        assert schwarzschild_profile(0.5, 5).r_min == 1.0

    def test_closed_form_n4(self):
        """n=4 antiderivative: f = -sqrt(2m) log((r + sqrt(r^2-2m))/sqrt(2m))."""
        prof = schwarzschild_profile(0.5, 4)
        expected = -math.log(2.0 + math.sqrt(3.0))  # r=2, 2m=1
        assert float(prof.f(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            schwarzschild_profile(1.0, 2)
        with pytest.raises(ValueError):
            schwarzschild_profile(-1.0, 3)


class TestHorizonProfile:
    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_psi_one_n3_matches_closed_form_derivatives(self, m):
        """psi = 1 in n = 3 is f = -sqrt(8m(r - 2m)): with x = r - 2m,
        f_r = -sqrt(2m) x^{-1/2}, f_rr = (sqrt(2m)/2) x^{-3/2} and
        f_rrr = -(3 sqrt(2m)/4) x^{-5/2}."""
        prof = horizon_profile(m, 3, 2.0 * m)
        r = np.geomspace(2.0 * m * (1.0 + 1e-3), 2000.0 * m, 500)
        x = r - 2.0 * m
        s = math.sqrt(2.0 * m)
        fr, frr, frrr = prof.slopes(r, 3)
        for got, exact in ((fr, -s * x ** -0.5),
                           (frr, 0.5 * s * x ** -1.5),
                           (frrr, -0.75 * s * x ** -2.5)):
            assert sup(got / exact - 1.0) <= 1e-13

    def test_no_single_horizon_is_rejected(self):
        """psi = 1 + b(r - a) at n = 3 has D'(a) = 1 - 2 m b; the horizon
        is single only for 2 m b < 1."""
        def psi(b):
            return lambda r: (1.0 + b * (r - 2.0), b + 0.0 * r, 0.0 * r)

        assert horizon_profile(1.0, 3, 2.0, psi(0.49)).r_min == 2.0
        for b in (0.5, 0.7):
            with pytest.raises(ValueError, match="no single horizon"):
                horizon_profile(1.0, 3, 2.0, psi(b), label="linear psi")


class TestNumericAntiderivative:
    def test_matches_closed_form_n3_and_n4(self):
        """horizon_profile integrates f_r numerically from the horizon;
        in n=3,4 the closed forms are available for comparison."""
        for n, m in ((3, 1.0), (4, 0.8)):
            closed = schwarzschild_profile(m, n)
            a = (2.0 * m) ** (1.0 / (n - 2))
            numeric = horizon_profile(m, n, a)
            for r in (a * 1.5, a * 3.0, a * 10.0):
                c, v = float(closed.f(r)), float(numeric.f(r))
                assert abs(c - v) <= 1e-10 * (1.0 + abs(c)), (n, r, c, v)

    def test_fr_is_derivative_of_f_n5(self):
        """No closed form in n=5: check f against f_r by central difference."""
        prof = schwarzschild_profile(1.0, 5)
        h = 1e-5
        for r in (1.8, 3.0, 6.0):
            fd = (float(prof.f(r + h)) - float(prof.f(r - h))) / (2 * h)
            fr = float(prof.slopes(r, 1)[0])
            assert abs(fd - fr) <= 1e-8 * (1.0 + abs(fr)), (r, fd, fr)

    def test_batch_equals_one_radius_at_a_time(self):
        """Radii that share a panel count are integrated in one batch,
        bit for bit as each radius alone; r_min itself gives 0."""
        prof = schwarzschild_profile(1.0, 5)
        r = np.concatenate([[prof.r_min], np.linspace(1.3, 400.0, 301)])
        batch = prof.f(r)
        assert batch[0] == 0.0
        assert np.array_equal(batch, [prof.f(x) for x in r])
        assert np.array_equal(prof.f(r.reshape(2, -1)), batch.reshape(2, -1))

    def test_unallocatable_panel_count_raises(self):
        """sqrt(r) panels at r = 1e100 cannot be allocated; the request
        raises instead of wrapping to a few panels."""
        with pytest.raises(ValueError):
            schwarzschild_profile(1.0, 5).f(np.array([3.0, 1e100]))

    def test_gauss_table_built_at_import(self, monkeypatch):
        """The 24-node Gauss-Legendre table of the antiderivative is built
        once, when the package is imported: building scenarios with
        numeric profiles, and evaluating one, computes no rule."""
        calls = []
        built = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda deg: calls.append(deg) or built(deg))
        for name in ("schwarzschild3", "two_body_glued"):
            make_scenario(name)
        assert np.all(schwarzschild_profile(1.0, 5).f(
            np.array([1.5, 3.0, 40.0])) < 0.0)  # numeric in n = 5
        assert calls == []

    def test_negative_slope_squared_rejected(self):
        prof = profile_from_gradsq(
            lambda r, k: [1.0 - r, -np.ones_like(r), np.zeros_like(r)][:k])
        with pytest.raises(DomainError):
            prof.slopes(np.array([2.0]), 1)


class TestRadialJet:
    def test_matches_expression_jet(self):
        """f(|x|) = sqrt(1+r^2) has an elementary expression form."""
        prof = RadialProfile(
            f=lambda r: np.sqrt(1.0 + r * r),
            slopes=lambda r, k: [r / np.sqrt(1.0 + r * r),
                                 (1.0 + r * r) ** -1.5,
                                 -3.0 * r * (1.0 + r * r) ** -2.5][:k])
        radial = RadialField(prof, 3)
        expr = ExprField("sqrt(1 + x1^2 + x2^2 + x3^2)", 3)
        pts = np.random.default_rng(9).uniform(0.3, 2.0, (40, 3))
        ja, jb = radial.jet3_many(pts), expr.jet3_many(pts)
        for a, b in ((radial.value(pts), jb.value), (ja.grad, jb.grad),
                     (ja.hess, jb.hess), (ja.third, jb.third)):
            assert sup(a - b) <= 1e-12 * (1.0 + sup(b))

    def test_repeated_radii_batch(self):
        """Many directions at few distinct radii (the quadrature layout)."""
        prof = schwarzschild_profile(1.0, 3)
        rng = np.random.default_rng(4)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.concatenate([5.0 * dirs, 8.0 * dirs])
        batch = radial_jet(prof, pts)
        single = radial_jet(prof, pts[7])
        assert sup(batch.grad[7] - single.grad) == 0.0
        assert sup(batch.third[7] - single.third) == 0.0

    def test_domain_error_inside_horizon(self):
        prof = schwarzschild_profile(1.0, 3)
        with pytest.raises(DomainError):
            radial_jet(prof, np.array([1.5, 0.0, 0.0]))

    @pytest.mark.parametrize("order", [2, 3])
    def test_no_antiderivative(self, order):
        """Radial and piecewise radial jets carry no value, so neither
        evaluates the profile's antiderivative (a numerical one at
        n = 5); the field's value evaluates it once per distinct radius."""
        prof = schwarzschild_profile(1.0, 5)
        radii = []
        counted = replace(prof, f=lambda r: radii.append(np.size(r))
                          or prof.f(r))
        field = RadialField(counted, 5, center=np.full(5, 0.5))
        piecewise = PiecewiseRadialField(
            [_Piece(field, r_lo=prof.r_min, r_hi=math.inf)], 5)
        pts = np.random.default_rng(2).uniform(2.0, 4.0, (30, 5))
        for fld in (field, piecewise):
            jet = fld.jet3_many(pts, order=order)
            assert jet.value is None and jet[0].value is None
            assert jet.order == order
        assert radii == []
        field.value(pts)
        assert radii == [len(pts)]

    def test_off_center(self):
        prof = schwarzschild_profile(1.0, 3)
        c = np.array([10.0, -3.0, 1.0])
        j1 = radial_jet(prof, c + np.array([4.0, 0.0, 0.0]), center=c)
        j2 = radial_jet(prof, np.array([4.0, 0.0, 0.0]))
        assert sup(j1.hess - j2.hess) == 0.0


class TestRadialAbout:
    def test_radial_field_only_about_its_centre(self):
        prof = schwarzschild_profile(1.0, 3)
        fld = RadialField(prof, 3, center=np.array([1.0, 0.0, 0.0]))
        assert fld.radial_about((1.0, 0.0, 0.0), 3.0, 10.0)
        assert not fld.radial_about((0.0, 0.0, 0.0), 3.0, 10.0)
        assert RadialField(prof, 3).radial_about((0.0, 0.0, 0.0), 3.0, 10.0)

    def test_expression_field_claims_no_symmetry(self):
        fld = ExprField("exp(-(x1^2+x2^2+x3^2))", 3)
        assert not fld.radial_about((0.0, 0.0, 0.0), 0.0, 10.0)

    def test_expression_in_r_is_radial_about_the_origin(self):
        fld = ExprField("a*exp(-r^2)", 3, {"a": 0.1})
        assert fld.radial_about((0.0, 0.0, 0.0), 0.0, 12.0)
        assert not fld.radial_about((0.4, 0.0, 0.0), 0.0, 12.0)

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.4, 0.0, 0.0),
                                        (-100.0, 3.0, 7.0)])
    def test_constant_is_radial_about_every_centre(self, center):
        assert ExprField("0", 3).radial_about(center, 0.0, 100.0)
        assert ExprField("b*2", 3, {"b": 1.5}).radial_about(center, 1.0, 2.0)

    @pytest.mark.parametrize("text", ["x1", "r + 0*x1", "exp(-r^2)*cos(x1)",
                                      "1/(1 + x1^2 + x2^2 + x3^2)"])
    def test_expression_reading_a_coordinate_is_not_radial(self, text):
        fld = ExprField(text, 3)
        for center in ((0.0, 0.0, 0.0), (0.4, 0.0, 0.0)):
            assert not fld.radial_about(center, 0.0, 10.0)


class TestRotatedField:
    def test_jets_transform_covariantly(self):
        base = ExprField("x1^2*x2 + 0.5*sin(x3)", 3)
        Q = np.linalg.qr(np.random.default_rng(12).standard_normal((3, 3)))[0]
        rot = RotatedField(base, Q)
        x = np.array([0.3, -0.5, 0.7])
        _, g_r, h_r, _ = jet_at(rot, x)
        _, g_b, h_b, _ = jet_at(base, Q @ x)
        assert sup(g_r - Q.T @ g_b) <= 1e-14 * (1.0 + sup(g_b))
        assert sup(h_r - Q.T @ h_b @ Q) <= 1e-14 * (1.0 + sup(h_b))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            RotatedField(ExprField("x1", 3), np.diag([1.0, 2.0, 1.0]))


class TestFlatnessReport:
    def test_decaying_profile_passes(self):
        """Schwarzschild slope |f_r| ~ r^{-1/2} satisfies the p=1 decay."""
        fld = RadialField(schwarzschild_profile(1.0, 3), 3)
        rep = flatness_report(fld, p=1.0, radii=np.geomspace(10, 500, 8))
        assert rep.holds, rep.flags

    def test_growing_gradient_flagged(self):
        fld = ExprField("x1^2 + x2^2", 3)
        rep = flatness_report(fld, p=1.0, radii=np.geomspace(10, 500, 8))
        assert not rep.holds
        assert rep.flags["grad"]


class TestJetOrder:
    """Order 2 computes value, grad and hess with the order-3 arithmetic
    and leaves the third tensor out."""

    # bump: ExprField; schwarzschild: RadialField; two_body_glued:
    # PiecewiseRadialField, probed also in the dead zones between pieces
    SCENARIOS = [("bump", {}), ("schwarzschild3", {}),
                 ("schwarzschild_n", {"n": 5}), ("two_body_glued", {})]
    EXTRA = {"two_body_glued": [[0.0, 0.0, 0.0], [0.0, 30.0, 0.0],
                                [-30.0, 0.0, 110.0], [400.0, 3.0, -2.0],
                                [-96.0, 2.0, 1.0]]}

    @pytest.mark.parametrize(("name", "params"), SCENARIOS,
                             ids=[f"{n}{p}" for n, p in SCENARIOS])
    def test_order2_is_order3_without_third(self, name, params):
        scn = make_scenario(name, **params)
        pts = scn.sample_points(300, 5)
        if name in self.EXTRA:
            pts = np.concatenate([pts, self.EXTRA[name]])
        j2 = scn.field.jet3_many(pts, order=2)
        j3 = scn.field.jet3_many(pts, order=3)
        assert j2.third is None and j2.order == 2
        assert j3.third is not None and j3.order == 3
        for a, b in ((j2.value, j3.value), (j2.grad, j3.grad),
                     (j2.hess, j3.hess)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["bump", "schwarzschild3",
                                      "two_body_glued"])
    @pytest.mark.parametrize("order", [1, 4])
    def test_other_orders_rejected(self, name, order):
        scn = make_scenario(name)
        with pytest.raises(ValueError, match="order"):
            scn.field.jet3_many(scn.sample_points(4, 5), order=order)

    def test_algebra_keeps_order(self):
        """Sums, products, quotients and compositions of order-2 jets
        stay order 2 and match the order-3 value, grad and hess."""
        fld = ExprField("(x1 - 2*x2)^3 / (1 + x3^2) * exp(sin(x1))"
                        " + sqrt(r) - log(1 + r^2) + cos(x2)", 3)
        pts = np.random.default_rng(8).uniform(0.3, 1.5, (50, 3))
        j2, j3 = fld.jet3_many(pts, order=2), fld.jet3_many(pts)
        assert j2.third is None
        for a, b in ((j2.value, j3.value), (j2.grad, j3.grad),
                     (j2.hess, j3.hess)):
            assert np.array_equal(a, b)

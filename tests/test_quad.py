"""Sphere rules, exterior volume integration, and radius extrapolation."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from graphmass import mass, quad
from graphmass.errors import ConfigError, IntegrabilityError, QuadratureError
from graphmass.graphgeom import scalar_curvature
from graphmass.jets import ExprField
from graphmass.mass import flux_series
from graphmass.quad import (ExteriorRegion, QuadConfig,
                            exterior_volume_integrate, extrapolate_limit,
                            norm_sq, point_rule, sphere_integrals,
                            sphere_integrate, sphere_rule, unit_sphere_area)
from graphmass.scenarios import make_scenario, scenario_names

SRC = os.path.dirname(os.path.dirname(quad.__file__))

# A fresh interpreter in which importing any scipy module fails.
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"no module named {name!r} (refused)")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestNormSq:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_for_bit_the_numpy_reductions(self, n):
        """Summed column by column, it is np.sum(x * x, axis=-1) and the
        square of np.linalg.norm(x, axis=1) to the bit, on batches of any
        leading shape and on a strided view."""
        rng = np.random.default_rng(n)
        for shape in ((n,), (1000, n), (3, 5, n)):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
            got, want = norm_sq(x), np.sum(x * x, axis=-1)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        x = rng.standard_normal((n, 500)).T
        assert norm_sq(x).tobytes() == np.sum(x * x, axis=-1).tobytes()
        assert (np.sqrt(norm_sq(x)).tobytes()
                == np.linalg.norm(x, axis=1).tobytes())


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

    def test_rules_built_once_and_read_only(self):
        """Equal arguments give the same rule object, whose arrays cannot
        be written; the seed enters only the Sobol rules of n >= 5."""
        for n in (3, 5):
            rule = sphere_rule(n)
            assert sphere_rule(n) is rule
            for arr in (rule.nodes, rule.weights, rule.half.nodes,
                        rule.half.weights):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        assert sphere_rule(3, order=48, seed=7) is sphere_rule(3)
        assert sphere_rule(5, seed=7) is not sphere_rule(5)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_point_rule_built_once_and_read_only(self, n):
        """One node, e_1, carrying the sphere's whole area, no half."""
        rule = point_rule(n)
        assert point_rule(n) is rule
        assert rule.half is None and rule.n == n
        assert np.array_equal(rule.nodes, np.eye(n)[:1])
        assert rule.weights.tolist() == [unit_sphere_area(n)]
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestSobol:
    """The in-package generator and inverse normal CDF against scipy's,
    which only the tests import: a change in scipy's generator or in its
    direction-number file fails here."""

    # measured against 50-digit quantiles on these points: AS241 in
    # double is within 5 ulp of the exact value, scipy's ndtri within 4
    NDTRI_ULPS = 6

    def test_bit_identical_to_scipy(self):
        from scipy.stats import qmc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # m not 2^k
            for d in range(1, 34):  # box dimension n <= 32, plus a radius
                for seed in (0, 1, 7, 2 ** 31):
                    for m in (1, 2, 1000, 4096):
                        want = qmc.Sobol(d=d, scramble=True,
                                         seed=seed).random(m)
                        got = quad.sobol(d, m, seed)
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), (d, seed, m)

    def test_prefix_stable(self):
        for d in (4, 7, 33):
            whole = quad.sobol(d, 1024, 3)
            for count in (0, 1, 643, 1000):
                assert np.array_equal(quad.sobol(d, count, 3),
                                      whole[:count])

    def test_vendored_table_is_scipys(self):
        import scipy
        path = os.path.join(os.path.dirname(scipy.__file__), "stats",
                            "_sobol_direction_numbers.npz")
        with np.load(path) as table:
            poly, vinit = table["poly"], table["vinit"]
        assert len(quad.SOBOL_TABLE) == 33
        for k, (p, row) in enumerate(quad.SOBOL_TABLE):
            assert p == poly[k]
            padded = np.zeros(vinit.shape[1], dtype=vinit.dtype)
            padded[:len(row)] = row
            assert np.array_equal(padded, vinit[k]), k

    def test_dimension_past_the_table_is_config_error(self):
        with pytest.raises(ConfigError, match=r"d = 34\b"):
            quad.sobol(34, 8, 0)

    @staticmethod
    def _ndtri_points() -> np.ndarray:
        u = np.clip(quad.sobol(6, 4096, 11), 1e-12, 1.0 - 1e-12)
        u[:3, 0] = (1e-12, 0.5, 1.0 - 1e-12)
        return u

    def test_ndtri_matches_scipy(self):
        from scipy import special
        u = self._ndtri_points()
        want = special.ndtri(u)
        got = quad.ndtri(u)
        assert got[1, 0] == 0.0
        for x, z in zip(u[:5, 0], got[:5, 0]):  # scalars, both branches
            assert quad.ndtri(x) == z
        assert ulps(got[want != 0], want[want != 0]).max() <= self.NDTRI_ULPS
        # past the clip the tails run down to the smallest normal floats
        p = np.geomspace(np.finfo(float).tiny, 0.07, 2000)
        for u in (p, 1.0 - p[p > 1e-16]):
            assert ulps(quad.ndtri(u), special.ndtri(u)).max() \
                <= self.NDTRI_ULPS

    def test_ndtri_is_norm_ppf(self):
        from scipy import stats
        u = self._ndtri_points()
        want = stats.norm.ppf(u)
        got = quad.ndtri(u)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert ulps(got[want != 0], want[want != 0]).max() <= self.NDTRI_ULPS


class TestNumpyOnlyRuntime:
    """A run needs numpy alone: scipy is a test oracle, and the thread
    pool is imported only by a run with more than one worker."""

    def run_fresh(self, code: str, tmp_path) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items()
               if k != "GRAPHMASS_OUTDIR"}
        env["PYTHONPATH"] = SRC
        return subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)

    def test_package_import_leaves_out_scipy(self, tmp_path):
        out = self.run_fresh(
            "import sys, graphmass, graphmass.cli, graphmass.acceptance\n"
            "print(sorted(k for k in sys.modules"
            " if k.split('.')[0] == 'scipy'))", tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_cli_import_leaves_out_thread_pool(self, tmp_path):
        out = self.run_fresh(
            "import sys, graphmass.cli\n"
            "print('concurrent.futures' in sys.modules)", tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_run_with_scipy_refused(self, tmp_path):
        """`graphmass run flat` and the n >= 5 mass criterion, which
        draws Sobol directions and fits the flux limit, pass in an
        interpreter that cannot import scipy."""
        out = self.run_fresh(REFUSE_SCIPY + """
from graphmass import acceptance, cli
code = cli.main(["run", "flat"])
(criterion,) = acceptance.run_criteria(2)
loaded = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print(code, criterion.passed, loaded)
""", tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "0 True []"


class TestSphereIntegrate:
    def test_constant_scales_with_radius(self):
        rule = sphere_rule(3)
        [val], [err] = sphere_integrate(lambda p: np.ones(len(p)), 2.5,
                                        rule)
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_point_rule_integrates_radial_functions(self, n):
        """About an off-origin centre, a function of the distance to it
        integrates on the one point as on the rule's nodes, in one row."""
        c = np.linspace(0.5, -1.5, n)
        radii = np.array([0.5, 2.0, 7.0])

        def fn(p):
            d2 = np.sum((p - c) ** 2, axis=1)
            return np.stack([np.exp(-d2), 1.0 / (1.0 + d2)])

        one = sphere_integrals(fn, radii, point_rule(n), c)
        nodes = sphere_integrals(fn, radii, sphere_rule(n), c)
        assert one.shape == (1, 2, len(radii))
        assert np.max(np.abs(one[0] - nodes[0]) / np.abs(nodes[0])) <= 1e-13
        [value], [err] = sphere_integrate(lambda p: np.ones(len(p)), 2.0,
                                          point_rule(n))
        assert value == pytest.approx(unit_sphere_area(n) * 2.0 ** (n - 1),
                                      rel=1e-15)
        assert err == 0.0

    @pytest.mark.parametrize("n", [3, 5])
    def test_point_rule_is_the_one_node_dot(self, n):
        """On point_rule the integrals of every row and radius are one
        array product, bit for bit r^{n-1} (w . v) of the 1-element dot,
        signed zeros included."""
        rule = point_rule(n)
        radii = np.geomspace(0.3, 900.0, 41)

        def fn(pts):
            r = pts[:, 0]
            return np.stack([np.cos(r) * r ** -1.5,
                             np.where(r > 100.0, -0.0, -np.exp(-r))])

        got = sphere_integrals(fn, radii, rule)
        rows = fn(radii[:, None] * rule.nodes)
        want = np.array([[[r ** (n - 1) * float(rule.weights @ row[i:i + 1])
                           for i, r in enumerate(radii.tolist())]
                          for row in rows]])
        assert got.tobytes() == want.tobytes()
        assert (sphere_integrals(lambda p: fn(p)[1], radii, rule).tobytes()
                == want[:, 1].tobytes())

    def test_radii_sequence_is_one_call(self):
        """A 1-D sequence of radii makes one fn call and returns arrays
        over the radii whose columns equal one-radius batches."""
        rule = sphere_rule(3)
        calls = []

        def fn(pts):
            calls.append(len(pts))
            return np.stack([pts[:, 2] ** 2, np.exp(pts[:, 0] / 9.0)])

        radii = (1.0, 2.5, 7.0)
        value, err = sphere_integrate(fn, radii, rule)
        assert len(calls) == 1 and value.shape == err.shape == (2, 3)
        for i, r in enumerate(radii):
            one_value, one_err = sphere_integrate(fn, [r], rule)
            assert one_value.shape == one_err.shape == (2, 1)
            assert np.array_equal(one_value[:, 0], value[:, i])
            assert np.array_equal(one_err[:, 0], err[:, i])

    def test_rows_integrate_like_single_integrands(self):
        """A (k, nodes) integrand gives, row by row, the bits of k calls."""
        rule = sphere_rule(3)
        fns = (lambda p: p[:, 0] ** 2, lambda p: 1.0 + p[:, 1] * p[:, 2])
        vals, errs = sphere_integrate(
            lambda p: np.stack([fn(p) for fn in fns]), [2.0], rule)
        singles = [sphere_integrate(fn, [2.0], rule) for fn in fns]
        assert vals.shape == errs.shape == (2, 1)
        assert np.array_equal(vals, [v for v, _ in singles])
        assert np.array_equal(errs, [e for _, e in singles])

    def test_rejects_nonfinite_row(self):
        rule = sphere_rule(3)
        with pytest.raises(QuadratureError):
            sphere_integrate(lambda p: np.stack(
                [np.ones(len(p)), np.full(len(p), np.inf)]), 1.0, rule)

    def test_rejects_nonfinite_on_half_nodes(self):
        """The values on the half's nodes are checked like the rule's."""
        rule = sphere_rule(3)
        half = set(map(tuple, rule.half.nodes))
        with pytest.raises(QuadratureError):
            sphere_integrate(lambda p: np.where(
                [tuple(x) in half for x in p], np.nan, 1.0), 1.0, rule)

    def test_rejects_shape_mismatch_on_half_nodes(self):
        rule = sphere_rule(3)
        half = set(map(tuple, rule.half.nodes))

        def fn(p):
            return np.ones(3 if any(tuple(x) in half for x in p) else len(p))

        with pytest.raises(QuadratureError):
            sphere_integrate(fn, 1.0, rule)


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

    def test_radial_shells_match_node_shells(self):
        """On shells about the Gaussian's own centre, the walk on
        ``point_rule`` gives the node walk's integral, and a shell is one
        row with one value per radius."""
        c = (3.0, -1.0, 2.0)
        cfg = QuadConfig(r_max=1.0, radial_tol=1e-9)
        region = ExteriorRegion(center=c, r_outer=8.0)
        rule = sphere_rule(3)

        def gauss(p):
            return np.exp(-np.sum((p - c) ** 2, axis=1))

        nodes = exterior_volume_integrate(gauss, region, cfg, rule)
        radial = exterior_volume_integrate(gauss, region, cfg, point_rule(3))
        assert radial.panels == nodes.panels
        assert abs(radial.value - nodes.value) <= 1e-13 * nodes.value
        shell = quad._ShellIntegrand(gauss, point_rule(3), np.asarray(c))
        r = np.array([0.5, 1.0, 2.0])
        rows = shell(r)
        assert rows.shape == (1, 3)
        assert np.allclose(rows[0], 4.0 * math.pi * r * r * np.exp(-r * r),
                           rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_radial_shells_reject_nonfinite(self, value):
        cfg = QuadConfig(r_max=1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            exterior_volume_integrate(
                lambda p: np.where(p[:, 0] > 4.0, value, 1.0),
                ExteriorRegion(r_outer=8.0), cfg, point_rule(3))

    @pytest.mark.parametrize("route", ["nodes", "radial"])
    def test_overflowing_shell_names_its_radius(self, route):
        """r^{n-1} past the float range raises an error that names the
        radius and the operation on both shell routes."""
        cfg = QuadConfig(r_max=1.0)
        rule = point_rule(3) if route == "radial" else sphere_rule(3)
        with pytest.raises(QuadratureError,
                           match=r"area factor r\^2 .* overflows at radius"):
            exterior_volume_integrate(
                lambda p: np.ones(len(p)),
                ExteriorRegion(r_inner=1e200, r_outer=2e200), cfg, rule)

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

    @pytest.mark.parametrize("r_outer", [1.0000005, 1.000001])
    def test_graded_region_thinner_than_its_offset_is_rejected(self,
                                                               r_outer):
        """A graded region whose outer radius does not pass the first
        shell at r_inner (1 + HORIZON_OFFSET) holds no panel: a
        ValueError names both radii."""
        region = ExteriorRegion(r_inner=1.0, graded=True, r_outer=r_outer)
        message = (f"outer radius {r_outer} must exceed the inner radius "
                   "1.0 plus its horizon offset 1e-06")
        with pytest.raises(ValueError, match=re.escape(message)):
            exterior_volume_integrate(lambda p: np.ones(len(p)), region,
                                      QuadConfig(r_max=1.0), sphere_rule(3))
        thin = ExteriorRegion(r_inner=1.0, graded=True, r_outer=1.000002)
        vi = exterior_volume_integrate(lambda p: np.ones(len(p)), thin,
                                       QuadConfig(r_max=1.0), sphere_rule(3))
        assert vi.panels > 0


class TestExtrapolateLimit:
    def test_exact_power_law(self):
        res = extrapolate_limit([(r, 3.0 + 5.0 * r ** -2)
                                 for r in (10.0, 20.0, 40.0, 80.0)])
        assert abs(res.limit - 3.0) <= 1e-9
        assert res.rate == pytest.approx(2.0, abs=1e-5)
        assert res.monotone

    def test_two_term_decay_covered_by_uncertainty(self):
        """Aitken's one-term limit of 1 + r^-1 + 10 r^-2 lands off the
        true limit by a few 1e-3; the reported uncertainty, its gap to the
        two-term limit, has to cover that."""
        res = extrapolate_limit([(r, 1.0 + 1.0 / r + 10.0 / r ** 2)
                                 for r in (10.0, 20.0, 40.0, 80.0)])
        assert abs(res.limit - 1.0) <= res.uncertainty
        assert res.uncertainty <= 0.05

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_two_term_model_is_exact(self, s, q):
        """v = L + a r^-s + b r^-(s+1) on a ladder gives back L to 1e-12
        relative, and its rate s."""
        radii = 10.0 * q ** np.arange(4)
        res = extrapolate_limit([(r, 2.5 + 3.0 * r ** -s - 7.0 * r ** -(s + 1))
                                 for r in radii])
        assert res.limit == pytest.approx(2.5, rel=1e-12)
        assert res.rate == pytest.approx(s, rel=1e-9)
        assert res.monotone

    def test_large_radii(self):
        """At 2000 x the default flux radii the differences are still
        far above the roundoff floor of a series of size 1000."""
        res = extrapolate_limit([(r, 1000.0 + 3.0e4 / r)
                                 for r in (2e5, 4e5, 8e5, 1.6e6)])
        assert abs(res.limit - 1000.0) <= 1e-9 * 1000.0
        assert res.rate == pytest.approx(1.0, abs=1e-5)
        assert res.monotone

    def test_constant_series(self):
        res = extrapolate_limit([(r, 7.25) for r in (1.0, 2.0, 4.0, 8.0)])
        assert res.limit == 7.25
        assert res.uncertainty == quad.ROUNDOFF_K * quad._EPS * 7.25
        assert res.rate is None and res.monotone

    def test_gaussian_decay_is_converged(self):
        """bump's flux decays like exp(-2 r^2): on its ladder 2-16 the
        series reaches roundoff, so each variant returns its last value,
        the roundoff floor as uncertainty and no rate."""
        series = flux_series(make_scenario("bump"))
        for v in (series.plain, series.weighted):
            res = extrapolate_limit(zip(series.radii, v))
            floor = quad.ROUNDOFF_K * quad._EPS * max(map(abs, v))
            assert (res.limit, res.uncertainty) == (v[-1], floor)
            assert res.rate is None and res.monotone
            assert abs(res.limit) <= 1e-200

    def test_non_monotone_falls_back(self):
        res = extrapolate_limit([(1.0, 1.0), (2.0, 2.0), (4.0, 1.5),
                                 (8.0, 1.8)])
        assert not res.monotone
        assert res.limit == 1.8
        assert res.uncertainty >= 0.8

    def test_two_samples(self):
        """Two samples fix no two-term model: a ValueError, not a limit."""
        with pytest.raises(ValueError, match="at least four samples"):
            extrapolate_limit([(1.0, 1.0), (2.0, 1.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_limit([])

    def test_short_or_non_ladder_series_rejected(self):
        """Three samples, or radii whose ratios differ (a repeat
        included), raise a ValueError."""
        for radii in ((1.0, 2.0, 4.0), (1.0, 2.0, 3.0, 4.0),
                      (1.0, 2.0, 2.0, 4.0),
                      (1.0, 2.0, 4.0, 8.0 * (1.0 + 1e-9))):
            with pytest.raises(ValueError):
                extrapolate_limit([(r, 1.0 / r) for r in radii])


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
        request, so no span is requested twice and fn never sees the
        same batch twice, whether or not the walk refines."""
        scn = make_scenario(name)
        requests, seen = [], []
        panels = quad._ShellIntegrand.panels

        def logged_panels(self, spans):
            requests.extend((float(lo), float(hi)) for lo, hi in spans)
            return panels(self, spans)

        def fn(pts):
            seen.append(pts.tobytes())
            return scalar_curvature(scn.field, pts)

        monkeypatch.setattr(quad._ShellIntegrand, "panels", logged_panels)
        region = scn.bulk_region[0]
        for rule in (scn.quad.body_rule(scn.n), point_rule(scn.n)):
            requests.clear()
            seen.clear()
            res = exterior_volume_integrate(fn, region, scn.quad, rule)
            assert seen and len(seen) == len(set(seen))
            assert len(set(requests)) == len(requests)
            coarse = exterior_volume_integrate(
                fn, region,
                replace(scn.quad, radial_tol=100.0 * scn.quad.radial_tol),
                rule)
            assert (res.panels > coarse.panels) == refines


def depth_first_panel(shell, lo, hi):
    mid, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return h * (shell(mid + h * quad._GL_NODES) @ quad._GL_WEIGHTS)


def depth_first_refine(shell, lo, hi, whole, budget, floor, depth):
    """(value, discrepancy, panels) of [lo, hi] by recursion, one panel
    per call: the order the level walk replaces.  ``whole`` is a half of
    the parent."""
    mid = 0.5 * (lo + hi)
    left = depth_first_panel(shell, lo, mid)
    right = depth_first_panel(shell, mid, hi)
    halves = left + right
    disc = abs(whole[0] - halves[0])
    if disc <= max(budget, floor) or depth >= quad.MAX_DEPTH:
        return halves, disc, 1
    lv, le, lp = depth_first_refine(shell, lo, mid, left, budget / 2, floor,
                                    depth + 1)
    rv, re, rp = depth_first_refine(shell, mid, hi, right, budget / 2,
                                    floor, depth + 1)
    return lv + rv, le + re, lp + rp


def depth_first_volume(fn, region, cfg, rule, tail=None):
    """(value, uncertainty, panels, tail bound, q_fit) of
    ``exterior_volume_integrate`` walked one panel per call, depth first;
    ``tail`` returns the integrand and its roundoff scale, by default
    the walked integrand and its modulus."""
    r_outer = cfg.r_max if region.r_outer is None else region.r_outer
    center = np.asarray(region.center or (0.0,) * rule.n, float)
    shell = quad._ShellIntegrand(fn, rule, center)
    r0 = start = region.r_inner
    total, disc_sum, panels = 0.0, 0.0, 0
    if region.graded and r0 > 0.0:
        offset = quad.HORIZON_OFFSET * r0
        edges = quad._graded_edges(r0, offset,
                                   min(r0 * 1.01 + offset, r_outer))
        vals = [depth_first_panel(shell, lo, hi)
                for lo, hi in zip(edges[:-1], edges[1:])]
        panels += len(vals)
        total += sum(vals)
        first = [abs(v[0]) for v in vals[:2]]
        if len(first) == 2 and first[1] > 0:
            rho = first[0] / first[1]
            disc_sum += first[0] * (rho / (1.0 - rho) if rho < 0.9 else 1.0)
        start = edges[-1]
    if start < r_outer:
        scale = r0 if region.graded else 1.0
        k = max(2, min(12, int(math.ceil(math.log2(
            1.0 + (r_outer - start) / max(scale, 1e-12))))))
        edges = np.linspace(start, r_outer, k + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            budget = cfg.radial_tol * max((b - a) / (r_outer - r0), 0.0)
            v, e, p = depth_first_refine(
                shell, a, b, depth_first_panel(shell, a, b), budget,
                cfg.radial_tol * 1e-3, 0)
            total += v
            disc_sum += e
            panels += p
    bound, q = 0.0, None
    if region.r_outer is None:
        if tail is None:
            def tail(pts):
                vals = fn(pts)
                return np.stack([vals, np.abs(vals)])

        tail_rule = rule if rule.half is None else replace(rule, half=None)
        bound, q = quad._tail_fit(
            quad._ShellIntegrand(tail, tail_rule, center),
            cfg.r_max * quad.TAIL_FIT_FROM, cfg.r_max, rule.n)
    angular = abs(total[0] - total[-1])
    unc = max(disc_sum, 0.5 * cfg.radial_tol) + bound + angular
    return float(total[0]), float(unc), panels, bound, q


def bulk_walks(scn, monkeypatch) -> list:
    """(level walk, depth-first reference, points of each fn call of the
    level walk) for each bulk region of ``bulk_mass(scn)``."""
    walks = []
    level_walk = mass.exterior_volume_integrate

    def both(fn, region, cfg, rule, tail=None):
        calls = []

        def counted(f):
            def g(pts):
                calls.append(len(pts))
                return f(pts)
            return None if f is None else g

        got = level_walk(counted(fn), region, cfg, rule, counted(tail))
        walks.append((got, depth_first_volume(fn, region, cfg, rule, tail),
                      calls))
        return got

    monkeypatch.setattr(mass, "exterior_volume_integrate", both)
    mass.bulk_mass(scn)
    return walks


FIELD_DEFAULTS = [name for name in scenario_names()
                  if not make_scenario(name).geometry_only]


class TestLevelWalk:
    """The walk refines one level at a time, every open panel of a level
    in one batch, and gives the depth-first recursion's numbers."""

    @pytest.mark.parametrize("name", FIELD_DEFAULTS)
    def test_registry_walks_match_depth_first(self, name, monkeypatch):
        walks = bulk_walks(make_scenario(name), monkeypatch)
        assert walks
        for got, want, _ in walks:
            assert (got.value, got.uncertainty, got.panels, got.tail_bound,
                    got.q_fit) == want

    def test_body_rule_walk_matches_depth_first(self, monkeypatch):
        """A field that reads x1 walks the body rule's nodes."""
        scn = replace(make_scenario("bump"), field=ExprField(
            "a*exp(-r^2)*(1 + x1/4)", 3, {"a": 0.1}))
        [(got, want, calls)] = bulk_walks(scn, monkeypatch)
        assert (got.value, got.uncertainty, got.panels, got.tail_bound,
                got.q_fit) == want
        assert got.panels > 1
        # the tail fit reads the rule alone, not its half, to the same bits
        rule = scn.quad.body_rule(3)
        assert calls[-1] == quad.TAIL_POINTS * len(rule.weights)
        radii = np.geomspace(3.0, 12.0, quad.TAIL_POINTS)

        def curvature(pts):
            return scalar_curvature(scn.field, pts)

        alone = sphere_integrals(curvature, radii, replace(rule, half=None))
        assert np.array_equal(alone[0],
                              sphere_integrals(curvature, radii, rule)[0])

    @pytest.mark.parametrize("route", ["nodes", "radial"])
    def test_refined_walk_matches_depth_first(self, route):
        """A kink at |x| = 1.3 refines several levels deep, where a sum
        in another order than left then right from the leaves up moves
        the low bits."""
        def kink(pts):
            r = np.linalg.norm(pts, axis=1)
            return np.exp(-r * r) * np.abs(r - 1.3)

        cfg, region = QuadConfig(radial_tol=1e-9), ExteriorRegion(r_outer=6.0)
        rule = point_rule(3) if route == "radial" else sphere_rule(3, order=8)
        got = exterior_volume_integrate(kink, region, cfg, rule)
        assert (got.value, got.uncertainty, got.panels, got.tail_bound,
                got.q_fit) == depth_first_volume(kink, region, cfg, rule)
        assert got.panels >= 8

    @pytest.mark.parametrize("name", FIELD_DEFAULTS)
    def test_few_calls_per_walk(self, name, monkeypatch):
        """The cascade and skeleton, one batch per level and the tail
        fit: one call more than one per level of the deepest walk."""
        for got, _, calls in bulk_walks(make_scenario(name), monkeypatch):
            assert len(calls) <= quad.MAX_DEPTH + 3
            assert got.panels > len(calls)

    @pytest.mark.parametrize("n", [3, 5])
    def test_no_call_past_one_body_rule_panel(self, n):
        """No fn call gets more points than one panel on the body rule
        and its half: the walk on that rule asks for one panel at a
        time, even past SHELL_CALL_POINTS at n = 5, and the walk on
        ``point_rule`` for many panels per call, within that cap."""
        cfg = QuadConfig(r_max=12.0)
        rule = cfg.body_rule(n)
        panel = len(quad._GL_NODES) * (len(rule.weights)
                                       + len(rule.half.weights))
        sizes = []

        def gauss(pts):
            sizes.append(len(pts))
            return np.exp(-np.sum(pts * pts, axis=1))

        def tilted(pts):
            return gauss(pts) * (1.0 + pts[:, 0] / 4.0)

        for fn, walk in ((tilted, rule), (gauss, point_rule(n))):
            sizes.clear()
            res = exterior_volume_integrate(fn, ExteriorRegion(), cfg, walk)
            assert max(sizes) <= panel
            walked = sizes[:-1]  # the last call is the tail fit's
            if walk is rule:
                assert set(walked) == {panel}
            else:
                assert len(quad._GL_NODES) < max(walked)
                assert max(walked) <= quad.SHELL_CALL_POINTS
            assert res.panels > 1

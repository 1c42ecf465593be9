"""Driver behavior: argument handling, exit codes, emitted artifacts."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from field_helpers import CountingField
from graphmass import cli
from graphmass.cli import EntryConfig, RunConfig, execute_run, main
from graphmass.errors import (BodyError, ConfigError, DomainError,
                              IntegrabilityError, NonConvexError, ParseError,
                              QuadratureError, UnboundParameterError)
from graphmass.mass import CheckOutcome, ScenarioEvaluation, bulk_mass
from graphmass.scenarios import make_scenario


@pytest.fixture(autouse=True)
def _no_ambient_outdir(monkeypatch):
    monkeypatch.delenv("GRAPHMASS_OUTDIR", raising=False)


def write_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_single_scenario_passes(self, capsys):
        code = main(["run", "flat", "--checks", "identities"])
        out, err = capsys.readouterr()
        assert code == 0
        assert '"tool":"graphmass"' in out
        assert "[PASS] flat/identities" in err

    def test_hypothesis_violation_exits_two(self, capsys):
        """The bump has no horizon sign hypothesis to lean on, so the
        pmt check is vacuous and the run flags it."""
        code = main(["run", "bump", "--checks", "pmt"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "hypothesis violated" in err

    def test_large_mass_runs(self, capsys):
        """m = 1000 puts the flux radii at 2e5-1.6e6, where the radius
        extrapolation has to keep r^-s a normal float."""
        code = main(["run", "schwarzschild3", "--m", "1000"])
        out, _ = capsys.readouterr()
        assert code == 0
        adm = json.loads(out)["body"]["scenarios"][0]["adm_mass"]
        assert abs(adm["value"] - 1000.0) <= 1e-3 * 1000.0

    def test_unknown_scenario_suggests(self, capsys):
        code = main(["run", "schwarz"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "did you mean" in err

    def test_unknown_override_rejected(self, capsys):
        code = main(["run", "flat", "--bogus", "1"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "takes no parameter" in err

    def test_bad_radii_is_numerical_failure(self, capsys):
        # radius 2 sits on the horizon, so the flux shell is illegal; the
        # driver rejects it as configuration before any numerics run
        code = main(["run", "schwarzschild3", "--radii", "2,3,4",
                     "--checks", "identities"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "must exceed 2" in err

    def test_unrealisable_perturbation_is_config_error(self, capsys):
        """2 m beta >= 1 in n = 3 leaves the profile without a single
        horizon; the parameters are rejected, not run into a failure."""
        code = main(["run", "schwarzschild_perturbed", "--m", "2"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "m = 2 and beta = 0.3" in err

    def test_two_body_box_edge_passes_identities(self, capsys):
        code = main(["run", "two_body_glued", "--m1", "2", "--m2", "2",
                     "--checks", "identities"])
        _, err = capsys.readouterr()
        assert code == 0
        assert "[PASS] two_body_glued/identities" in err

    @pytest.mark.parametrize("key", ["m1", "m2"])
    def test_two_body_past_the_edge_is_config_error(self, capsys, key):
        """Past the largest mass the gluing windows are tuned for the
        run is rejected up front."""
        code = main(["run", "two_body_glued", f"--{key}", "2.01",
                     "--checks", "identities"])
        _, err = capsys.readouterr()
        assert code == 3
        assert f"parameter '{key}' must be a number in (0, 2], not 2.01" \
            in err

    def test_r_max_inside_horizon_is_config_error(self, capsys):
        """m = 50 puts the horizon at 99.5, beyond the fixed r_max = 60;
        the entry is rejected before the bulk route starts."""
        code = main(["run", "schwarzschild_perturbed", "--m", "50",
                     "--beta", "0.005"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "r_max = 60" in err

    def test_tail_fit_inside_horizon_is_config_error(self, capsys):
        """m = 20 puts the horizon at 39.6: inside r_max = 60 but past 15,
        where the bulk tail fit starts sampling the field."""
        code = main(["run", "schwarzschild_perturbed", "--m", "20",
                     "--beta", "0.01"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "r_max = 60 (tail fit from 15)" in err

    def test_overflowing_radii_are_numerical_failures(self, capsys):
        """Radii near the float limit overflow in the sphere quadrature;
        the run records an error that names the radius and the operation,
        and exits 4 instead of raising.  The area factor is checked before
        the integrand runs, so no numpy overflow warning leaks."""
        code = main(["run", "flat", "--radii", "1e300,2e300,3e300"])
        out, _ = capsys.readouterr()
        assert code == 4
        [error] = json.loads(out)["body"]["errors"]
        assert error["kind"] == "numerical"
        assert error["message"] == ("the area factor r^2 of a sphere "
                                    "integral overflows at radius r = 1e+300")

    def test_unallocatable_profile_is_numerical_failure(self, capsys):
        """Radii near 1e100 ask the profile antiderivative for more
        panels than numpy can allocate: the run reports the ValueError
        in-band, under its type name, and exits 4."""
        code = main(["run", "radial_custom", "--radii", "1e100,2e100,4e100"])
        out, err = capsys.readouterr()
        assert code == 4
        [error] = json.loads(out)["body"]["errors"]
        assert error["kind"] == "numerical"
        assert error["message"].startswith("ValueError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(("name", "key", "edge", "past"), [
        ("radial_custom", "m", "50", "100"),
        ("radial_custom", "n", "32", "40"),
        ("schwarzschild3", "m", "1e7", "1e8"),
        ("schwarzschild_n", "n", "6", "7"),
        ("schwarzschild_n", "m", "100", "101"),
        ("schwarzschild_perturbed", "n", "4", "5"),
        ("bump", "n", "9", "10"),
        ("bump", "alpha", "0.5", "0.6"),
        ("flat", "n", "32", "33"),
        ("ellipsoid_horizon", "ratio", "4", "5")])
    def test_box_upper_ends(self, capsys, name, key, edge, past):
        """Each upper end runs every check, and the value past it exits 3
        naming the parameter.  Where a box ends at a measured failure
        (tail fit q <= n, the identity residual, or bump's mass off by
        more than 1e-3 at n = 10), the past value is the first seen to
        fail."""
        assert main(["run", name, f"--{key}", edge]) == 0
        code = main(["run", name, f"--{key}", past])
        _, err = capsys.readouterr()
        assert code == 3
        assert f"parameter '{key}' must be" in err
        assert f"not {json.loads(past)!r}" in err

    def test_non_integral_dimension_is_config_error(self, capsys):
        """A fractional dimension is rejected, not truncated to n = 3."""
        code = main(["run", "flat", "--n", "3.7"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "parameter 'n' must be an integer in [3, 32], not 3.7" in err

    @pytest.mark.parametrize(("argv", "needle"), [
        (["run", "flat", "--seed", "abc"], "--seed"),
        (["run", "flat", "--workers", "x"], "--workers"),
        (["verify", "--only", "x"], "--only"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["run", "flat", "--seed", "-5"], "'seed'"),
        (["run", "flat", "--radii", "nan,10,20"], "'radii'"),
        (["run", "flat", "--radii", "inf,inf,inf"], "'radii'"),
        (["run", "flat", "--format", "xml"], "'format'"),
        (["verify", "--only", "0"], "1-10"),
        (["verify", "--only", "11"], "1-10")])
    def test_bad_arguments_exit_three(self, capsys, argv, needle):
        """Usage errors and rejected settings are configuration errors,
        not argparse's exit 2 (the code for a violated hypothesis)."""
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert needle in err and out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        assert exc.value.code == 0
        assert "--radii" in capsys.readouterr().out

    @pytest.mark.parametrize(("name", "key", "value"), [
        ("two_body_glued", "m1", "nan"), ("radial_custom", "m", "nan"),
        ("schwarzschild3", "m", "inf"),
        ("schwarzschild_perturbed", "m", "nan")])
    def test_nonfinite_parameter_is_config_error(self, capsys, name, key,
                                                 value):
        """NaN passes every range comparison a factory makes, so a
        non-finite value is rejected up front, naming its key."""
        code = main(["run", name, f"--{key}", value])
        _, err = capsys.readouterr()
        assert code == 3
        assert f"parameter '{key}'" in err


class TestConfigFile:
    PAYLOAD = {"scenarios": [{"name": "flat"},
                             {"name": "bump", "params": {"alpha": 0.2}}],
               "checks": ["identities"]}

    def test_runs_all_entries(self, tmp_path, capsys):
        code = main(["run", write_config(tmp_path, self.PAYLOAD)])
        out, err = capsys.readouterr()
        assert code == 0
        assert '"alpha":0.20000000000000001' in out
        assert "[PASS] flat/identities" in err
        assert "[PASS] bump/identities" in err

    def test_scenario_filter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PAYLOAD)
        code = main(["run", cfg, "--scenario", "flat"])
        _, err = capsys.readouterr()
        assert code == 0
        assert "flat/identities" in err
        assert "bump" not in err

    def test_scenario_filter_miss(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PAYLOAD)
        code = main(["run", cfg, "--scenario", "nope"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "config has no scenario named" in err

    def test_overrides_need_a_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PAYLOAD)
        code = main(["run", cfg, "--alpha", "0.3"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "not a config file" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        code = main(["run", str(path)])
        _, err = capsys.readouterr()
        assert code == 3
        assert "not valid JSON" in err

    def test_unknown_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenarios": ["flat"], "bogus": 1})
        code = main(["run", cfg])
        _, err = capsys.readouterr()
        assert code == 3
        assert "unknown config keys" in err

    @pytest.mark.parametrize(("payload", "key"), [
        ({"scenarios": ["flat"], "seed": "abc"}, "seed"),
        ({"scenarios": ["flat"], "workers": "two"}, "workers"),
        ({"scenarios": [{"name": "flat", "seed": "x"}]}, "seed"),
        ({"scenarios": [{"name": "flat", "params": 5}]}, "params"),
        ({"scenarios": ["flat"], "format": "xml"}, "format"),
        ({"scenarios": ["flat"], "workers": 0}, "workers"),
        ({"scenarios": [{"name": "flat", "params": {"n": None}}]}, "n"),
        ({"scenarios": [{"name": "flat", "params": {"n": [3]}}]}, "n"),
        ({"scenarios": ["flat"], "checks": 5}, "checks"),
        ({"scenarios": ["flat"], "radii": 5}, "radii"),
        ({"scenarios": [{"name": "flat", "checks": 5}]}, "checks"),
        ({"scenarios": [{"name": "flat", "radii": 5}]}, "radii"),
        ({"scenarios": ["flat"], "seed": 1.5}, "seed"),
        ({"scenarios": ["flat"], "workers": 2.5}, "workers"),
        ({"scenarios": ["flat"], "seed": "7"}, "seed"),
        ({"scenarios": ["flat"], "seed": -5}, "seed"),
        ({"scenarios": [{"name": "flat", "seed": -5}]}, "seed"),
        ({"scenarios": ["flat"], "radii": [math.nan, 10, 20]}, "radii"),
        ({"scenarios": ["flat"], "radii": [math.inf] * 3}, "radii"),
        ({"scenarios": [{"name": "flat", "radii": [-1, 2, 3]}]}, "radii"),
        ({"scenarios": ["flat"], "out": 5}, "out"),
    ])
    def test_malformed_values_are_config_errors(self, tmp_path, capsys,
                                                payload, key):
        """Each bad value exits 3 naming its key, before any scenario
        runs, instead of escaping as a traceback or running silently."""
        code = main(["run", write_config(tmp_path, payload)])
        out, err = capsys.readouterr()
        assert code == 3
        assert f"'{key}'" in err
        assert out == ""


class TestArtifacts:
    def test_out_dir_writes_report_and_tables(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "flat", "--checks", "identities",
                     "--out", str(out_dir), "--format", "both"])
        out, err = capsys.readouterr()
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["bulk.csv", "flux.csv", "report.json"]
        bulk = (out_dir / "bulk.csv").read_text().splitlines()
        assert bulk[0] == ("scenario,region,r_inner,r_outer,bulk_mass,"
                           "uncertainty,panels")
        assert len(bulk) == 2 and bulk[1].startswith("flat,0 0 0,0,100,")
        # gates and "wrote" lines move to stdout when files are written
        assert "[PASS] flat/identities" in out
        assert out.count("wrote ") == 3
        assert err == ""
        doc = json.loads((out_dir / "report.json").read_text())
        assert set(doc) == {"header", "body"}
        assert doc["body"]["tool"] == "graphmass"

    def test_stdout_carries_what_out_writes(self, tmp_path, capsys):
        """``--format both`` prints the report line, then the two tables
        that ``--out`` writes as files for the same run."""
        args = ["run", "flat", "--checks", "identities", "--format", "both"]
        assert main(args) == 0
        out, _ = capsys.readouterr()
        out_dir = tmp_path / "artifacts"
        assert main(args + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        tables = ((out_dir / "flux.csv").read_text()
                  + (out_dir / "bulk.csv").read_text())
        report, rest = out.split("\n", 1)
        assert rest == tables
        assert json.loads(report)["body"] == json.loads(
            (out_dir / "report.json").read_text())["body"]

    def test_outdir_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHMASS_OUTDIR", str(tmp_path / "env_out"))
        code = main(["run", "flat", "--checks", "identities"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "env_out" / "report.json").exists()
        assert "[PASS] flat/identities" in out

    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys):
        """An output directory under a regular file cannot be made: the
        run exits 3 naming the path, with no traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out_dir = str(blocker / "sub")
        code = main(["run", "flat", "--checks", "identities",
                     "--out", out_dir])
        _, err = capsys.readouterr()
        assert code == 3
        assert f"cannot write the report to '{out_dir}'" in err
        assert "Traceback" not in err


class TestOtherCommands:
    def test_list(self, capsys):
        code = main(["list"])
        out, _ = capsys.readouterr()
        assert code == 0
        for name in ("schwarzschild3", "two_body_glued"):
            assert name in out
        assert "[geometry-only]" in out
        assert ("defaults: m1=1.0 (a number in (0, 2]), "
                "m2=0.8 (a number in (0, 2])") in out

    def test_list_rejects_extras(self, capsys):
        code = main(["list", "--extra"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "unexpected arguments" in err

    def test_verify_single_criterion(self, capsys):
        code = main(["verify", "--only", "8"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "criterion  8 [PASS]" in out
        assert "1/1 criteria passed" in out


def make_outcome(name, passed=True, hypothesis_ok=True, vacuous=False):
    return CheckOutcome(name=name, scenario="flat", passed=passed,
                        hypothesis_ok=hypothesis_ok, vacuous=vacuous,
                        values={}, notes=())


def make_result(outcomes=(), error=None, error_kind=None):
    return {"name": "flat", "outcomes": list(outcomes), "error": error,
            "error_kind": error_kind, "summary": None, "runtime": 0.0}


class TestExitPrecedence:
    """More diagnostic exit codes win when several conditions apply."""

    def run_with(self, monkeypatch, results):
        queue = list(results)
        monkeypatch.setattr(cli, "_run_entry",
                            lambda entry, run, scenario: queue.pop(0))
        run = RunConfig(entries=[EntryConfig(name="flat")
                                 for _ in results])
        code, document, _ = execute_run(run)
        return code, document

    def test_failed_check(self, monkeypatch):
        code, doc = self.run_with(monkeypatch, [
            make_result([make_outcome("pmt", passed=False)])])
        assert code == 1
        assert doc.body["verdicts"][0]["passed"] is False

    def test_hypothesis_beats_failure(self, monkeypatch):
        code, _ = self.run_with(monkeypatch, [
            make_result([make_outcome("pmt", passed=False),
                         make_outcome("penrose", hypothesis_ok=False)])])
        assert code == 2

    def test_numerical_beats_hypothesis(self, monkeypatch):
        code, doc = self.run_with(monkeypatch, [
            make_result([make_outcome("penrose", hypothesis_ok=False)]),
            make_result(error="tail fit failed", error_kind="numerical")])
        assert code == 4
        assert doc.body["errors"][0]["kind"] == "numerical"

    def test_config_error_propagates(self, monkeypatch):
        with pytest.raises(ConfigError, match="bad knob"):
            self.run_with(monkeypatch, [
                make_result(error="bad knob", error_kind="config")])


class TestFailureKinds:
    """One row per exception type: raised inside a run, it is reported
    in-band with its kind, and the run exits with that kind's code."""

    ROWS = [
        (BodyError("no body"), "config", 3, "no body"),
        (ParseError("bad token", 4), "config", 3,
         "bad token (at position 4)"),
        (UnboundParameterError("parameter 'a' is not bound"), "config", 3,
         "parameter 'a' is not bound"),
        (NonConvexError("not convex"), "hypothesis", 2, "not convex"),
        (DomainError("log of 0"), "numerical", 4, "log of 0"),
        (QuadratureError("no rule"), "numerical", 4, "no rule"),
        (IntegrabilityError("q <= n"), "numerical", 4, "q <= n"),
        (ZeroDivisionError("float division by zero"), "numerical", 4,
         "ZeroDivisionError: float division by zero"),
        (np.linalg.LinAlgError("Singular matrix"), "numerical", 4,
         "LinAlgError: Singular matrix"),
        (ValueError("Maximum allowed size exceeded"), "numerical", 4,
         "ValueError: Maximum allowed size exceeded"),
    ]

    @pytest.mark.parametrize(("exc", "kind", "code", "message"), ROWS,
                             ids=[type(row[0]).__name__ for row in ROWS])
    def test_kind_and_exit_code(self, monkeypatch, capsys, exc, kind, code,
                                message):
        def raising(self, names=("all",)):
            raise exc

        monkeypatch.setattr(ScenarioEvaluation, "run", raising)
        entry = EntryConfig(name="flat", checks=("identities",))
        result = cli._run_entry(entry, RunConfig(entries=[entry]),
                                make_scenario("flat"))
        assert (result["error_kind"], result["error"]) == (kind, message)
        assert main(["run", "flat", "--checks", "identities"]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(("exc", "code"), [
        (NonConvexError("not convex"), 2), (QuadratureError("no rule"), 4),
        (BodyError("no body"), 3)],
        ids=["NonConvexError", "QuadratureError", "BodyError"])
    def test_package_errors_outside_a_run(self, monkeypatch, capsys, exc,
                                          code):
        """A package error raised while the run is being set up exits with
        its kind's code."""
        def raising(name, **params):
            raise exc

        monkeypatch.setattr(cli, "make_scenario", raising)
        assert main(["run", "flat"]) == code
        assert str(exc) in capsys.readouterr().err


class TestBulkConvergenceMemo:
    @pytest.mark.parametrize("name", ["bump", "schwarzschild_perturbed",
                                      "radial_custom"])
    def test_rows_equal_fresh_runs(self, name):
        """The region rows are read off the evaluation's bulk walk: they
        evaluate no curvature, and the one row of a single-region
        scenario equals a separate bulk run bit for bit."""
        scn = make_scenario(name)
        counting = CountingField(scn.field)
        evaluation = ScenarioEvaluation(replace(scn, field=counting))
        evaluation.bulk
        evaluations = counting.calls
        rows = cli._bulk_convergence(evaluation.scenario, evaluation)
        assert evaluations > 0 and counting.calls == evaluations
        fresh = bulk_mass(scn)
        [row] = rows
        assert (row["value"], row["uncertainty"], row["panels"]) == (
            fresh.value, fresh.uncertainty, fresh.panels)

    def test_one_volume_walk_per_evaluation(self, monkeypatch):
        """Checks, summary and the region rows of one evaluation read a
        single exterior integral."""
        from graphmass import mass
        calls = []
        original = mass.exterior_volume_integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mass, "exterior_volume_integrate", counted)
        scn = make_scenario("radial_custom")
        evaluation = ScenarioEvaluation(scn)
        evaluation.run(("all",))
        evaluation.summary()
        cli._bulk_convergence(scn, evaluation)
        assert len(calls) == 1

    def test_repeat_runs_give_the_same_body(self):
        run = RunConfig(entries=[EntryConfig(name="bump"),
                                 EntryConfig(name="schwarzschild_perturbed")])
        first = execute_run(run)[1].body_bytes()
        assert execute_run(run)[1].body_bytes() == first


FIELD_SCENARIOS = ["flat", "schwarzschild3", "schwarzschild_n",
                   "radial_custom", "bump", "schwarzschild_perturbed",
                   "two_body_glued"]


class TestBulkRegions:
    @pytest.mark.parametrize("masses", [(1.0, 0.8), (2.0, 2.0)])
    def test_two_body_rows_show_the_cancellation(self, masses):
        """Each near annulus takes its component's mass out and the far
        annulus puts the total back."""
        m1, m2 = masses
        scn = make_scenario("two_body_glued", m1=m1, m2=m2)
        rows = cli._bulk_convergence(scn, ScenarioEvaluation(scn))
        assert [row["center"] for row in rows] == [
            [-100.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert [(row["r_inner"], row["r_outer"]) for row in rows] == [
            (16.0, 56.0), (16.0, 56.0), (200.0, 320.0)]
        for row, exact in zip(rows, (-m1, -m2, m1 + m2)):
            assert abs(row["value"] - exact) <= 1e-8

    @pytest.mark.parametrize("name", FIELD_SCENARIOS)
    def test_rows_add_up_to_the_bulk_block(self, name):
        """In the report the region rows' panels sum exactly to the bulk
        block's, their values to its value up to roundoff, and a single
        row is the block itself."""
        run = RunConfig(entries=[EntryConfig(name=name)],
                        checks=("identities",))
        [summary] = execute_run(run)[1].body["scenarios"]
        block, rows = summary["bulk_mass"], summary["bulk_regions"]
        scn = make_scenario(name)
        assert len(rows) == len(scn.bulk_region)
        assert sum(row["panels"] for row in rows) == block["panels"]
        assert abs(sum(row["value"] for row in rows)
                   - block["value"]) <= 1e-14 * sum(
                       abs(row["value"]) for row in rows)
        if len(rows) == 1:
            assert rows[0]["value"] == block["value"]
            assert rows[0]["uncertainty"] == block["uncertainty"]
            assert rows[0]["r_outer"] == scn.quad.r_max


class TestOneGeometryPass:
    @pytest.mark.parametrize("name", ["schwarzschild_perturbed",
                                      "ellipsoid_horizon",
                                      "two_body_glued"])
    def test_one_quermass_call_per_body(self, name, monkeypatch):
        """Checks, summary and the bulk region rows of one evaluation
        all read a single quermassintegral pass per body."""
        from graphmass import convexgeom, mass
        calls = []
        original = convexgeom.quermassintegrals

        def counted(body, rule=None):
            calls.append(id(body))
            return original(body, rule)

        for module in (convexgeom, mass):
            monkeypatch.setattr(module, "quermassintegrals", counted)
        scn = make_scenario(name)
        evaluation = ScenarioEvaluation(scn)
        evaluation.run(("all",))
        evaluation.summary()
        if scn.field is not None:
            cli._bulk_convergence(scn, evaluation)
        assert sorted(calls) == sorted(id(b) for b in scn.horizons)

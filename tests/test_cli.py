"""Driver behavior: argument handling, exit codes, emitted artifacts."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from graphmass import ScalarField, cli, make_scenario
from graphmass.cli import EntryConfig, RunConfig, execute_run, main
from graphmass.errors import ConfigError
from graphmass.mass import CheckOutcome, ScenarioEvaluation, bulk_mass


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
        assert "m1 = " in err and "m2 = " in err
        assert "2.01" in err

    def test_r_max_inside_horizon_is_config_error(self, capsys):
        """m = 50 puts the horizon at 99.5, beyond the fixed r_max = 60;
        the entry is rejected before the bulk route starts."""
        code = main(["run", "schwarzschild_perturbed", "--m", "50",
                     "--beta", "0.005"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "r_max = 60" in err

    def test_non_integral_dimension_is_config_error(self, capsys):
        """A fractional dimension is rejected, not truncated to n = 3."""
        code = main(["run", "flat", "--n", "3.7"])
        _, err = capsys.readouterr()
        assert code == 3
        assert "dimension must be an integer, not 3.7" in err

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

    def test_outdir_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHMASS_OUTDIR", str(tmp_path / "env_out"))
        code = main(["run", "flat", "--checks", "identities"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "env_out" / "report.json").exists()
        assert "[PASS] flat/identities" in out


class TestOtherCommands:
    def test_list(self, capsys):
        code = main(["list"])
        out, _ = capsys.readouterr()
        assert code == 0
        for name in ("schwarzschild3", "two_body_glued"):
            assert name in out
        assert "[geometry-only]" in out
        assert "defaults:" in out

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


class CountingField(ScalarField):
    """Forwards to ``base`` and counts every request for derivatives, so
    a radial base keeps its radial curvature route."""

    def __init__(self, base):
        self.base, self.n, self.calls = base, base.n, 0

    def jet3_many(self, points, order=3):
        self.calls += 1
        return self.base.jet3_many(points, order=order)

    def radial_derivatives(self, points):
        self.calls += 1
        return self.base.radial_derivatives(points)


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

"""Command line driver: scenario registry, batch runs, reports.

Exit codes: 0 all requested checks passed; 1 an inequality or identity
check failed; 2 a scenario hypothesis was violated (reported, not
silently passed); 3 configuration error; 4 numerical failure (tail fit,
extrapolation, quadrature).  When several apply, the more diagnostic
code wins: 3 > 4 > 2 > 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, DomainError, GraphMassError, QuadratureError
from .mass import (CheckOutcome, Scenario, ScenarioEvaluation,
                   horizon_clearance)
from .report import ReportDocument, bulk_csv, flux_csv
from .scenarios import REGISTRY, make_scenario, scenario_names

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_HYPOTHESIS = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

VALID_CHECKS = ("pmt", "penrose", "identities", "all")
VALID_FORMATS = ("json", "csv", "both")


@dataclass
class EntryConfig:
    name: str
    params: dict = field(default_factory=dict)
    checks: tuple[str, ...] | None = None
    seed: int | None = None
    radii: tuple[float, ...] | None = None


@dataclass
class RunConfig:
    entries: list[EntryConfig]
    checks: tuple[str, ...] = ("all",)
    seed: int | None = None
    radii: tuple[float, ...] | None = None
    out: str | None = None
    format: str = "json"
    workers: int = 1


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _list_value(text, key: str) -> list:
    if isinstance(text, str):
        return [t.strip() for t in text.split(",") if t.strip()]
    if not isinstance(text, list):
        raise ConfigError(f"'{key}' must be a list, not {text!r}")
    return text


def _parse_checks(text) -> tuple[str, ...]:
    items = [str(t) for t in _list_value(text, "checks")]
    if not items:
        raise ConfigError("empty check list")
    for item in items:
        if item not in VALID_CHECKS:
            raise ConfigError(
                f"unknown check '{item}' (choose from "
                f"{', '.join(VALID_CHECKS)})")
    return tuple(items)


def _parse_radii(text) -> tuple[float, ...]:
    try:
        radii = tuple(float(t) for t in _list_value(text, "radii"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad radii list: {exc}") from exc
    if len(radii) < 3:
        raise ConfigError("need at least three flux radii")
    if any(r <= 0 for r in radii):
        raise ConfigError("flux radii must be positive")
    return radii


def _collect_overrides(extras: list[str]) -> dict:
    """Turn trailing '--key value' pairs into scenario parameters."""
    params: dict = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) <= 2:
            raise ConfigError(f"unexpected argument '{token}'")
        body = token[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(extras):
                raise ConfigError(f"missing value for '--{key}'")
            value = extras[i + 1]
            i += 2
        params[key] = _parse_scalar(value)
    return params


def _config_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"config key '{key}' must be an integer, not {value!r}")
    return value


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    known = {"scenarios", "checks", "seed", "radii", "format", "workers",
             "out"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    entries_raw = raw.get("scenarios")
    if not isinstance(entries_raw, list) or not entries_raw:
        raise ConfigError("config needs a nonempty 'scenarios' list")
    entries = []
    for item in entries_raw:
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict) or "name" not in item:
            raise ConfigError("each scenario entry needs a 'name'")
        extra = set(item) - {"name", "params", "checks", "seed", "radii"}
        if extra:
            raise ConfigError(
                f"unknown scenario entry keys: {sorted(extra)}")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("scenario entry key 'params' must be an "
                              "object")
        entries.append(EntryConfig(
            name=str(item["name"]),
            params=dict(params),
            checks=_parse_checks(item["checks"])
            if "checks" in item else None,
            seed=_config_int(item["seed"], "seed")
            if "seed" in item else None,
            radii=_parse_radii(item["radii"])
            if "radii" in item else None))
    cfg = RunConfig(entries=entries)
    if "checks" in raw:
        cfg.checks = _parse_checks(raw["checks"])
    if "seed" in raw:
        cfg.seed = _config_int(raw["seed"], "seed")
    if "radii" in raw:
        cfg.radii = _parse_radii(raw["radii"])
    if "format" in raw:
        if raw["format"] not in VALID_FORMATS:
            raise ConfigError(
                f"config key 'format' must be one of "
                f"{', '.join(VALID_FORMATS)}, not {raw['format']!r}")
        cfg.format = raw["format"]
    if "workers" in raw:
        cfg.workers = _config_int(raw["workers"], "workers")
    if "out" in raw:
        cfg.out = str(raw["out"])
    return cfg


def _build_scenario(entry: EntryConfig, run: RunConfig) -> Scenario:
    scenario = make_scenario(entry.name, **entry.params)
    quad = scenario.quad
    seed = entry.seed if entry.seed is not None else run.seed
    radii = entry.radii if entry.radii is not None else run.radii
    if seed is not None:
        quad = replace(quad, seed=int(seed))
    if radii is not None:
        quad = replace(quad, radii=radii)
    scenario.quad = quad
    clearance = horizon_clearance(scenario)
    # geometry-only scenarios use neither the flux radii nor r_max
    if scenario.field and min(quad.r_max, *quad.radii) <= clearance:
        raise ConfigError(
            f"scenario '{entry.name}': r_max = {quad.r_max:g} and the flux "
            f"radii (smallest {min(quad.radii):g}) must exceed "
            f"{clearance:.6g}, the radius enclosing every horizon")
    return scenario


def _entry_echo(entry: EntryConfig, run: RunConfig) -> dict:
    return {
        "name": entry.name,
        "params": {k: entry.params[k] for k in sorted(entry.params)},
        "checks": list(entry.checks if entry.checks is not None
                       else run.checks),
        "seed": entry.seed if entry.seed is not None else run.seed,
        "radii": list(entry.radii) if entry.radii is not None
        else (list(run.radii) if run.radii is not None else None),
    }


# the old name stays: bench/tracer.py instruments it, test_tracer checks it
def _bulk_convergence(scenario: Scenario,
                      evaluation: ScenarioEvaluation) -> list[dict]:
    """One row per bulk region, read off the evaluation's bulk walks;
    the rows sum to the scenario's bulk term."""
    return [{"center": list(region.center or (0.0,) * scenario.n),
             "r_inner": region.r_inner,
             "r_outer": (scenario.quad.r_max if region.r_outer is None
                         else region.r_outer),
             "value": value, "uncertainty": unc, "panels": panels}
            for region, (value, unc, panels)
            in zip(scenario.bulk_region, evaluation.bulk.regions)]


def _run_entry(entry: EntryConfig, run: RunConfig,
               scenario: Scenario) -> dict:
    """Evaluate one built scenario; never raises, reports errors in-band."""
    checks = entry.checks if entry.checks is not None else run.checks
    started = time.perf_counter()
    result: dict = {"name": entry.name, "outcomes": [], "error": None,
                    "error_kind": None, "summary": None}
    try:
        evaluation = ScenarioEvaluation(scenario)
        result["outcomes"] = evaluation.run(checks)
        summary = evaluation.summary()
        if scenario.field is not None:
            summary["bulk_regions"] = _bulk_convergence(scenario, evaluation)
        summary["checks"] = [_outcome_dict(o) for o in result["outcomes"]]
        result["summary"] = summary
    except ConfigError as exc:
        result["error"] = str(exc)
        result["error_kind"] = "config"
    except (QuadratureError, DomainError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        result["error"] = str(exc)
        result["error_kind"] = "numerical"
    except GraphMassError as exc:
        result["error"] = str(exc)
        result["error_kind"] = "hypothesis"
    result["runtime"] = time.perf_counter() - started
    return result


def _outcome_dict(outcome: CheckOutcome) -> dict:
    return {
        "check": outcome.name,
        "passed": outcome.passed,
        "hypothesis_ok": outcome.hypothesis_ok,
        "vacuous": outcome.vacuous,
        "values": outcome.values,
        "notes": list(outcome.notes),
    }


def execute_run(run: RunConfig) -> tuple[int, ReportDocument, list[dict]]:
    """Run every entry and assemble the report document."""
    # build everything first: fail fast on names and parameters
    scenarios = [_build_scenario(entry, run) for entry in run.entries]
    started = time.perf_counter()
    runs = [run] * len(scenarios)
    if run.workers > 1:
        with ThreadPoolExecutor(max_workers=run.workers) as pool:
            results = list(pool.map(_run_entry, run.entries, runs,
                                    scenarios))
    else:
        results = list(map(_run_entry, run.entries, runs, scenarios))

    body: dict = {
        "tool": "graphmass",
        "config": {
            "checks": list(run.checks),
            "seed": run.seed,
            "radii": list(run.radii) if run.radii is not None else None,
            "format": run.format,
            "entries": [_entry_echo(e, run) for e in run.entries],
        },
        "scenarios": [],
        "verdicts": [],
        "errors": [],
    }
    exit_code = EXIT_OK
    saw_fail = saw_hyp = saw_num = False
    for res in results:
        if res["summary"] is not None:
            body["scenarios"].append(res["summary"])
        if res["error"] is not None:
            body["errors"].append({"scenario": res["name"],
                                   "kind": res["error_kind"],
                                   "message": res["error"]})
            if res["error_kind"] == "config":
                raise ConfigError(f"{res['name']}: {res['error']}")
            if res["error_kind"] == "numerical":
                saw_num = True
            else:
                saw_hyp = True
        for outcome in res["outcomes"]:
            body["verdicts"].append({
                "scenario": outcome.scenario,
                "check": outcome.name,
                "passed": outcome.passed,
                "hypothesis_ok": outcome.hypothesis_ok,
            })
            if not outcome.passed:
                saw_fail = True
            if not outcome.hypothesis_ok:
                saw_hyp = True
    if saw_num:
        exit_code = EXIT_NUMERICAL
    elif saw_hyp:
        exit_code = EXIT_HYPOTHESIS
    elif saw_fail:
        exit_code = EXIT_CHECK_FAILED

    header = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runtime_seconds": time.perf_counter() - started,
        "scenario_runtimes": {r["name"]: r["runtime"] for r in results},
        "versions": {"graphmass": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    return exit_code, ReportDocument(header=header, body=body), results


def _emit(run: RunConfig, document: ReportDocument,
          results: list[dict]) -> None:
    out_dir = run.out or os.environ.get("GRAPHMASS_OUTDIR")
    gate_stream = sys.stdout if out_dir else sys.stderr
    for res in results:
        for outcome in res["outcomes"]:
            flag = "PASS" if outcome.passed else "FAIL"
            if not outcome.hypothesis_ok:
                flag += " (hypothesis violated)"
            elif outcome.vacuous:
                flag += " (vacuous)"
            note = f": {outcome.notes[0]}" if outcome.notes else ""
            print(f"[{flag}] {outcome.scenario}/{outcome.name}{note}",
                  file=gate_stream)
        if res["error"]:
            print(f"[ERROR] {res['name']}: {res['error']}",
                  file=gate_stream)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        wrote = []
        if run.format in ("json", "both"):
            path = os.path.join(out_dir, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(document.to_json())
                fh.write("\n")
            wrote.append(path)
        if run.format in ("csv", "both"):
            for name, text in (("flux.csv", flux_csv(document.body)),
                               ("bulk.csv", bulk_csv(document.body))):
                path = os.path.join(out_dir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                wrote.append(path)
        for path in wrote:
            print(f"wrote {path}", file=gate_stream)
    else:
        if run.format in ("json", "both"):
            print(document.to_json())
        if run.format in ("csv", "both"):
            sys.stdout.write(flux_csv(document.body))
            sys.stdout.write(bulk_csv(document.body))


def cmd_run(args, extras: list[str]) -> int:
    overrides = _collect_overrides(extras)
    target = args.target
    if target and os.path.exists(target) and target not in REGISTRY:
        if overrides:
            raise ConfigError("scenario parameter overrides need a "
                              "scenario name, not a config file")
        run = load_config_file(target)
    elif target:
        run = RunConfig(entries=[EntryConfig(name=target,
                                             params=overrides)])
    elif args.scenario:
        run = RunConfig(entries=[EntryConfig(name=args.scenario,
                                             params=overrides)])
    else:
        if overrides:
            raise ConfigError("scenario parameter overrides need a "
                              "scenario name")
        run = RunConfig(entries=[EntryConfig(name=n)
                                 for n in scenario_names()])
    if args.scenario and run.entries and len(run.entries) > 1:
        run.entries = [e for e in run.entries if e.name == args.scenario]
        if not run.entries:
            raise ConfigError(
                f"config has no scenario named '{args.scenario}'")
    if args.checks is not None:
        run.checks = _parse_checks(args.checks)
    if args.seed is not None:
        run.seed = args.seed
    if args.radii is not None:
        run.radii = _parse_radii(args.radii)
    if args.out is not None:
        run.out = args.out
    if args.format is not None:
        run.format = args.format
    if args.workers is not None:
        run.workers = args.workers
    if run.workers < 1:
        raise ConfigError("'workers' must be >= 1")
    code, document, results = execute_run(run)
    _emit(run, document, results)
    return code


def cmd_list(_args) -> int:
    for name in scenario_names():
        entry = REGISTRY[name]
        scenario = make_scenario(name)
        tags = ", ".join(scenario.exercises)
        kind = " [geometry-only]" if scenario.geometry_only else ""
        defaults = ", ".join(f"{k}={v}" for k, v in
                             sorted(entry.defaults.items()))
        print(f"{name} (n={scenario.n}{kind})")
        print(f"    defaults: {defaults}")
        print(f"    {scenario.description}")
        print(f"    exercises: {tags}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import run_criteria
    results = run_criteria(args.only)
    failed = [r for r in results if not r.passed]
    for res in results:
        print(res.gate_line())
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmass",
        description="Mass and curvature checks for asymptotically flat "
                    "graph metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario checks")
    p_run.add_argument("target", nargs="?", default=None,
                       help="config file or scenario name "
                            "(default: every built-in scenario)")
    p_run.add_argument("--scenario", default=None,
                       help="select one scenario by name")
    p_run.add_argument("--checks", default=None,
                       help="comma list of pmt,penrose,identities,all")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--radii", default=None,
                       help="comma list of flux radii")
    p_run.add_argument("--out", default=None,
                       help="output directory (also GRAPHMASS_OUTDIR)")
    p_run.add_argument("--format", default=None, choices=VALID_FORMATS)
    p_run.add_argument("--workers", type=int, default=None)

    sub.add_parser("list", help="list built-in scenarios")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--only", type=int, default=None,
                          help="run a single criterion by number")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, extras)
        if extras:
            raise ConfigError(f"unexpected arguments: {extras}")
        if args.command == "list":
            return cmd_list(args)
        return cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:  # IntegrabilityError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

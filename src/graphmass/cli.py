"""Command line driver: scenario registry, batch runs, reports.

Exit codes: 0 all requested checks passed; 1 an inequality or identity
check failed; 2 a scenario hypothesis was violated (reported, not
silently passed); 3 configuration error; 4 numerical failure (tail fit,
extrapolation, quadrature).  ``EXIT_CODES`` maps the ``kind`` of each
error class to its code, the more diagnostic first: when several apply,
3 > 4 > 2 > 1.  A run records each exception under its kind, one from
outside the package as numerical; a config error stops the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .errors import ConfigError, GraphMassError
from .mass import (CheckOutcome, Scenario, ScenarioEvaluation,
                   horizon_clearance)
from .quad import TAIL_FIT_FROM
from .report import ReportDocument, bulk_csv, flux_csv
from .scenarios import REGISTRY, make_scenario, scenario_names

EXIT_OK = 0
# exit code per failure kind, the most diagnostic first: a run exits
# with the first kind it saw
EXIT_CODES = {"config": 3, "numerical": 4, "hypothesis": 2, "failed": 1}

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
    if not all(0.0 < r < math.inf for r in radii):
        raise ConfigError(f"'radii' must be finite and > 0, not {radii}")
    return radii


def _integer(key: str, least: int, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"'{key}' must be an integer >= {least}, not "
                          f"{value!r}")
    return value


def _parse_format(value) -> str:
    if value not in VALID_FORMATS:
        raise ConfigError(f"'format' must be one of "
                          f"{', '.join(VALID_FORMATS)}, not {value!r}")
    return value


def _parse_out(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'out' must be a directory name, not {value!r}")
    return value


# one validator per run setting, for flags, config keys and entry keys
SETTINGS = {"checks": _parse_checks, "seed": partial(_integer, "seed", 0),
            "radii": _parse_radii, "format": _parse_format,
            "workers": partial(_integer, "workers", 1), "out": _parse_out}
ENTRY_SETTINGS = ("checks", "seed", "radii")


def _settings(given: dict, keys=tuple(SETTINGS)) -> dict:
    """The settings among ``keys`` that ``given`` holds, validated."""
    return {key: SETTINGS[key](given[key]) for key in keys if key in given}


def _collect_overrides(extras: list[str]) -> dict:
    """Turn trailing '--key value' pairs into scenario parameters."""
    params: dict = {}
    tokens = iter(extras)
    for token in tokens:
        if not token.startswith("--") or len(token) <= 2:
            raise ConfigError(f"unexpected argument '{token}'")
        key, eq, value = token[2:].partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"missing value for '--{key}'")
        params[key] = _parse_scalar(value)
    return params


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
    unknown = set(raw) - {"scenarios", *SETTINGS}
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
        extra = set(item) - {"name", "params", *ENTRY_SETTINGS}
        if extra:
            raise ConfigError(
                f"unknown scenario entry keys: {sorted(extra)}")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("scenario entry key 'params' must be an "
                              "object")
        entries.append(EntryConfig(name=str(item["name"]),
                                   params=dict(params),
                                   **_settings(item, ENTRY_SETTINGS)))
    return RunConfig(entries=entries, **_settings(raw))


def _resolved(entry: EntryConfig, run: RunConfig) -> EntryConfig:
    """The entry with each setting it leaves unset taken from the run."""
    return replace(entry, **{key: getattr(run, key) for key in ENTRY_SETTINGS
                             if getattr(entry, key) is None})


def _build_scenario(entry: EntryConfig, run: RunConfig) -> Scenario:
    """The entry's scenario with its seed and flux radii; ``entry`` comes
    resolved against ``run``."""
    scenario = make_scenario(entry.name, **entry.params)
    quad = scenario.quad
    if entry.seed is not None:
        quad = replace(quad, seed=entry.seed)
    if entry.radii is not None:
        quad = replace(quad, radii=entry.radii)
    scenario.quad = quad
    clearance = horizon_clearance(scenario)
    # the tail fit samples the field from r_max * TAIL_FIT_FROM outwards
    r_low = quad.r_max * (TAIL_FIT_FROM if any(
        region.r_outer is None for region in scenario.bulk_region) else 1.0)
    # geometry-only scenarios use neither the flux radii nor r_max
    if scenario.field and min(r_low, *quad.radii) <= clearance:
        raise ConfigError(
            f"scenario '{entry.name}': r_max = {quad.r_max:g} (tail fit "
            f"from {r_low:g}) and the flux radii (smallest "
            f"{min(quad.radii):g}) must exceed {clearance:.6g}, the radius "
            f"enclosing every horizon")
    return scenario


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
    """Evaluate one built scenario; never raises, reports errors in-band.
    ``entry`` comes resolved against ``run``."""
    started = time.perf_counter()
    result: dict = {"name": entry.name, "outcomes": [], "error": None,
                    "error_kind": None, "summary": None}
    try:
        evaluation = ScenarioEvaluation(scenario)
        result["outcomes"] = evaluation.run(entry.checks)
        summary = evaluation.summary()
        if scenario.field is not None:
            summary["bulk_regions"] = _bulk_convergence(scenario, evaluation)
        summary["checks"] = [_outcome_dict(o) for o in result["outcomes"]]
        result["summary"] = summary
    except Exception as exc:  # from outside the package: numerical
        ours = isinstance(exc, GraphMassError)
        result["error_kind"] = exc.kind if ours else "numerical"
        result["error"] = str(exc) if ours else f"{type(exc).__name__}: {exc}"
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
    entries = [_resolved(entry, run) for entry in run.entries]
    # build everything first: fail fast on names and parameters
    scenarios = [_build_scenario(entry, run) for entry in entries]
    started = time.perf_counter()
    runs = [run] * len(scenarios)
    if run.workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=run.workers) as pool:
            results = list(pool.map(_run_entry, entries, runs, scenarios))
    else:
        results = list(map(_run_entry, entries, runs, scenarios))

    body: dict = {
        "tool": "graphmass",
        "config": {
            "checks": list(run.checks),
            "seed": run.seed,
            "radii": list(run.radii) if run.radii is not None else None,
            "format": run.format,
            "entries": [{**asdict(entry),
                         "params": dict(sorted(entry.params.items()))}
                        for entry in entries],
        },
        "scenarios": [],
        "verdicts": [],
        "errors": [],
    }
    seen = set()
    for res in results:
        if res["summary"] is not None:
            body["scenarios"].append(res["summary"])
        if res["error"] is not None:
            body["errors"].append({"scenario": res["name"],
                                   "kind": res["error_kind"],
                                   "message": res["error"]})
            if res["error_kind"] == "config":
                raise ConfigError(f"{res['name']}: {res['error']}")
            seen.add(res["error_kind"])
        for outcome in res["outcomes"]:
            body["verdicts"].append({
                "scenario": outcome.scenario,
                "check": outcome.name,
                "passed": outcome.passed,
                "hypothesis_ok": outcome.hypothesis_ok,
            })
            if not outcome.passed:
                seen.add("failed")
            if not outcome.hypothesis_ok:
                seen.add("hypothesis")
    exit_code = next((code for kind, code in EXIT_CODES.items()
                      if kind in seen), EXIT_OK)

    header = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runtime_seconds": time.perf_counter() - started,
        "scenario_runtimes": {r["name"]: r["runtime"] for r in results},
        "versions": {"graphmass": __version__, "numpy": np.__version__},
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
    files = []
    if run.format in ("json", "both"):
        files.append(("report.json", document.to_json() + "\n"))
    if run.format in ("csv", "both"):
        files += [("flux.csv", flux_csv(document.body)),
                  ("bulk.csv", bulk_csv(document.body))]
    if not out_dir:
        for _, text in files:
            sys.stdout.write(text)
        return
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files:
            with open(os.path.join(out_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to '{out_dir}': "
                          f"{exc}") from exc
    for name, _ in files:
        print(f"wrote {os.path.join(out_dir, name)}", file=gate_stream)


def cmd_run(args, extras: list[str]) -> int:
    overrides = _collect_overrides(extras)
    flags = _settings({k: v for k, v in vars(args).items() if v is not None})
    target = args.target
    if target and os.path.exists(target) and target not in REGISTRY:
        if overrides:
            raise ConfigError("scenario parameter overrides need a "
                              "scenario name, not a config file")
        run = replace(load_config_file(target), **flags)
    elif target or args.scenario:
        run = RunConfig(entries=[EntryConfig(name=target or args.scenario,
                                             params=overrides)], **flags)
    else:
        if overrides:
            raise ConfigError("scenario parameter overrides need a "
                              "scenario name")
        run = RunConfig(entries=[EntryConfig(name=n)
                                 for n in scenario_names()], **flags)
    if args.scenario and len(run.entries) > 1:
        run.entries = [e for e in run.entries if e.name == args.scenario]
        if not run.entries:
            raise ConfigError(
                f"config has no scenario named '{args.scenario}'")
    code, document, results = execute_run(run)
    _emit(run, document, results)
    return code


def cmd_list(_args) -> int:
    for name in scenario_names():
        scenario = make_scenario(name)
        tags = ", ".join(scenario.exercises)
        kind = " [geometry-only]" if scenario.geometry_only else ""
        defaults = ", ".join(f"{k}={box.default} ({box})" for k, box in
                             sorted(REGISTRY[name].boxes.items()))
        print(f"{name} (n={scenario.n}{kind})")
        print(f"    defaults: {defaults}")
        print(f"    {scenario.description}")
        print(f"    exercises: {tags}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_criteria
    if args.only is not None and not 1 <= args.only <= len(CRITERIA):
        raise ConfigError(f"'--only' must name a criterion in "
                          f"1-{len(CRITERIA)}, not {args.only}")
    results = run_criteria(args.only)
    failed = [r for r in results if not r.passed]
    for res in results:
        print(res.gate_line())
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_CODES["failed"] if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 3), not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_run.add_argument("--format", default=None,
                       help=f"one of {', '.join(VALID_FORMATS)}")
    p_run.add_argument("--workers", type=int, default=None)

    sub.add_parser("list", help="list built-in scenarios")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--only", type=int, default=None,
                          help="run a single criterion by number")
    return parser


def main(argv=None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if args.command == "run":
            return cmd_run(args, extras)
        if extras:
            raise ConfigError(f"unexpected arguments: {extras}")
        if args.command == "list":
            return cmd_list(args)
        return cmd_verify(args)
    except GraphMassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.kind]


if __name__ == "__main__":
    sys.exit(main())

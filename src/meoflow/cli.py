"""Command line surface: run one arm, compare both, render SVG charts.

Exit codes: 0 success, 1 determinism verification failure, 2 malformed or
missing input, 3 run completed but degenerate slots are present (outputs are
still written), 4 a slot LP failed to solve (nothing is written).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .allocation import AllocationError
from .channel import RAIN_CLASS_RATES_MM_H
from .engine import RunResult, compare, run, summarize
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .svgplot import histogram_svg, rain_curves_svg, timeseries_svg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER_FAILED = 4

FRACTION_FLOOR = 1e-12


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_arm(scenario: Scenario, isl_enabled: bool) -> RunResult:
    try:
        return run(scenario, isl_enabled=isl_enabled)
    except AllocationError as exc:
        exc.arm = "ISL" if isl_enabled else "no-ISL"
        raise


def _solver_failed(exc: AllocationError) -> int:
    """Report a slot LP failure from `_run_arm`, naming slot, arm and stage."""
    return _fail(
        f"solver failed on slot {exc.slot} of the {exc.arm} arm, LP stage {exc.stage}: {exc.reason}",
        EXIT_SOLVER_FAILED,
    )


def _load_scenario_arg(arg: str) -> Scenario:
    path = Path(arg)
    if path.exists():
        return load_scenario(path)
    name = arg[:-5] if arg.endswith(".json") else arg
    ref = resources.files("meoflow") / "scenarios" / f"{name}.json"
    if ref.is_file():
        return parse_scenario(json.loads(ref.read_text()), name=name)
    raise ScenarioError(f"{arg}: no such scenario file or bundled scenario")


def _series_block(result: RunResult) -> dict:
    sc = result.scenario
    return {
        "times_s": [sc.slot_midpoint_s(n) for n in range(result.slot_count)],
        "rates_bps": [[float(x) for x in row] for row in result.rates_bps],
        "t_star_bps": [float(x) for x in result.t_star_bps],
        "degenerate_slots": list(result.degenerate_slots),
    }


def _run_doc(result: RunResult) -> dict:
    sc = result.scenario
    return {
        "scenario_name": sc.name,
        "isl_enabled": result.isl_enabled,
        "scenario": sc.raw,
        "summary": summarize(result),
        "series": _series_block(result),
    }


def _allocations_doc(result: RunResult) -> list:
    ids = result.scenario.station_ids
    out = []
    for alloc in result.allocations:
        out.append(
            {
                "slot": alloc.slot_index,
                "t_star_bps": float(alloc.t_star_bps),
                "degenerate": alloc.degenerate,
                "feeder_fractions": [
                    {"source": s, "transmitter": t, "station": ids[j], "fraction": float(f)}
                    for (s, t, j), f in sorted(alloc.w.items())
                    if f > FRACTION_FLOOR
                ],
                "isl_fractions": [
                    {"source": s, "relay": l, "station": ids[j], "fraction": float(f)}
                    for (s, l, j), f in sorted(alloc.v.items())
                    if f > FRACTION_FLOOR
                ],
            }
        )
    return out


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_results_csv(path: Path, result: RunResult) -> None:
    sc = result.scenario
    ids = sc.station_ids
    degenerate = set(result.degenerate_slots)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "slot",
                "time_utc",
                "satellite",
                "rate_bps",
                "t_star_bps",
                "serving_gs",
                "direct_bps",
                "relayed_bps",
                "degenerate",
            ]
        )
        for n in range(result.slot_count):
            stamp = sc.slot_midpoint(n).isoformat()
            for k in range(result.satellite_count):
                j = result.serving[n][k]
                writer.writerow(
                    [
                        n,
                        stamp,
                        k,
                        float(result.rates_bps[n, k]),
                        float(result.t_star_bps[n]),
                        ids[j] if j is not None else "",
                        float(result.direct_bps[n, k]),
                        float(result.relayed_bps[n, k]),
                        int(n in degenerate),
                    ]
                )


def _write_compare_csv(path: Path, baseline: RunResult, treatment: RunResult) -> None:
    sc = baseline.scenario
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["slot", "time_utc", "satellite", "baseline_bps", "treatment_bps", "delta_bps"]
        )
        for n in range(baseline.slot_count):
            stamp = sc.slot_midpoint(n).isoformat()
            for k in range(baseline.satellite_count):
                b = float(baseline.rates_bps[n, k])
                t = float(treatment.rates_bps[n, k])
                writer.writerow([n, stamp, k, b, t, t - b])


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario_arg(args.scenario)
    except ScenarioError as exc:
        return _fail(str(exc))
    isl_enabled = scenario.isl_enabled and not args.no_isl
    try:
        result = _run_arm(scenario, isl_enabled)
        doc = _run_doc(result)
        if args.seedless_deterministic:
            repeat = _run_doc(_run_arm(scenario, isl_enabled))
            if json.dumps(doc) != json.dumps(repeat):
                return _fail("rerun produced different results", EXIT_VERIFY_FAILED)
    except AllocationError as exc:
        return _solver_failed(exc)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_results_csv(out / "results.csv", result)
        _write_json(out / "summary.json", doc)
        _write_json(out / "allocations.json", _allocations_doc(result))
    except OSError as exc:
        return _fail(f"{exc.filename or out}: {exc.strerror or exc}")
    if result.degenerate_slots:
        print(f"degenerate slots: {list(result.degenerate_slots)}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        scenario = _load_scenario_arg(args.scenario)
    except ScenarioError as exc:
        return _fail(str(exc))

    def both_arms():
        baseline = _run_arm(scenario, False)
        treatment = _run_arm(scenario, True)
        report = compare(baseline, treatment)
        doc = {
            "scenario_name": scenario.name,
            "scenario": scenario.raw,
            "comparison": report,
            "baseline_summary": summarize(baseline),
            "treatment_summary": summarize(treatment),
            "series": {
                "times_s": [scenario.slot_midpoint_s(n) for n in range(baseline.slot_count)],
                "baseline_rates_bps": [[float(x) for x in row] for row in baseline.rates_bps],
                "treatment_rates_bps": [[float(x) for x in row] for row in treatment.rates_bps],
                "baseline_t_star_bps": [float(x) for x in baseline.t_star_bps],
                "treatment_t_star_bps": [float(x) for x in treatment.t_star_bps],
                "degenerate_slots": report["excluded_slots"],
            },
        }
        return baseline, treatment, doc

    try:
        baseline, treatment, doc = both_arms()
        if args.seedless_deterministic:
            _, _, repeat = both_arms()
            if json.dumps(doc) != json.dumps(repeat):
                return _fail("rerun produced different results", EXIT_VERIFY_FAILED)
    except ValueError as exc:
        return _fail(str(exc))
    except AllocationError as exc:
        return _solver_failed(exc)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "compare.json", doc)
        _write_compare_csv(out / "compare.csv", baseline, treatment)
    except OSError as exc:
        return _fail(f"{exc.filename or out}: {exc.strerror or exc}")
    if doc["series"]["degenerate_slots"]:
        print(f"degenerate slots: {doc['series']['degenerate_slots']}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _read_json(path: Path):
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def _rain_windows(scenario: Scenario):
    windows = []
    for event in scenario.rain_events:
        start_h = (event.start - scenario.start).total_seconds() / 3600.0
        end_h = (event.end - scenario.start).total_seconds() / 3600.0
        windows.append((start_h, end_h, f"{event.station_id} {event.rain_rate_mm_h:g} mm/h"))
    return windows


def cmd_plot(args) -> int:
    results_dir = Path(args.results_dir)
    compare_doc = _read_json(results_dir / "compare.json")
    doc = compare_doc if compare_doc is not None else _read_json(results_dir / "summary.json")
    if doc is None:
        return _fail(f"{results_dir}: no compare.json or summary.json found")
    try:
        scenario = parse_scenario(doc["scenario"], name=doc.get("scenario_name", "scenario"))
    except (KeyError, TypeError, ScenarioError) as exc:
        return _fail(f"embedded scenario unreadable: {exc}")
    out = Path(args.out) if args.out else results_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.kind == "rain-attenuation":
            svg = rain_curves_svg(scenario.rain_model, dict(RAIN_CLASS_RATES_MM_H))
            (out / "rain_attenuation.svg").write_text(svg)
            return EXIT_OK

        series = doc["series"]
        times = series["times_s"]
        if compare_doc is not None:
            treatment = np.asarray(series["treatment_rates_bps"], dtype=float)
            baseline = np.asarray(series["baseline_rates_bps"], dtype=float)
        else:
            treatment = np.asarray(series["rates_bps"], dtype=float)
            baseline = None
        included = np.ones(treatment.shape[0], dtype=bool)
        included[series.get("degenerate_slots", [])] = False
        windows = _rain_windows(scenario)
        for k in range(treatment.shape[1]):
            base_col = baseline[:, k] / 1e6 if baseline is not None else None
            if args.kind == "timeseries":
                svg = timeseries_svg(
                    times, treatment[:, k] / 1e6, f"Satellite {k}", base_col, windows
                )
                (out / f"timeseries_sat{k}.svg").write_text(svg)
            else:
                base_inc = base_col[included] if base_col is not None else None
                svg = histogram_svg(
                    treatment[included, k] / 1e6, f"Satellite {k}", base_inc
                )
                (out / f"histogram_sat{k}.svg").write_text(svg)
    except OSError as exc:
        return _fail(f"{exc.filename or out}: {exc.strerror or exc}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return _fail(f"{results_dir}: results unreadable: {exc!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meoflow",
        description="MEO constellation download scheduling: simulate, optimize, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one arm of a scenario")
    run_p.add_argument("scenario", help="scenario file path or bundled scenario name")
    run_p.add_argument("--no-isl", action="store_true", help="force ISL capacities to zero")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument(
        "--seedless-deterministic",
        action="store_true",
        help="run twice and fail unless results are identical",
    )
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run both arms and report deltas")
    cmp_p.add_argument("scenario", help="scenario file path or bundled scenario name")
    cmp_p.add_argument("--out", default="out", help="output directory")
    cmp_p.add_argument(
        "--seedless-deterministic",
        action="store_true",
        help="run twice and fail unless results are identical",
    )
    cmp_p.set_defaults(func=cmd_compare)

    plot_p = sub.add_parser("plot", help="render SVG charts from results")
    plot_p.add_argument("results_dir", help="directory with summary.json or compare.json")
    plot_p.add_argument(
        "kind", choices=["timeseries", "histogram", "rain-attenuation"], help="chart family"
    )
    plot_p.add_argument("--out", default=None, help="output directory (default: results_dir)")
    plot_p.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line surface: run one arm, compare both, render SVG charts.

Exit codes: 0 success, 1 determinism verification failure, 2 malformed or
missing input (also a compare in which every slot is degenerate: nothing is
written), 3 run completed but degenerate slots are present (outputs are
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


def _load_scenario_arg(arg: str) -> Scenario:
    path = Path(arg)
    if path.exists():
        return load_scenario(path)
    name = arg[:-5] if arg.endswith(".json") else arg
    ref = resources.files("meoflow") / "scenarios" / f"{name}.json"
    if ref.is_file():
        return parse_scenario(json.loads(ref.read_text()), name=name)
    raise ScenarioError(f"{arg}: no such scenario file or bundled scenario")


def _series(arms: dict, degenerate_slots) -> dict:
    """A document's `series` block; each arm's keys start with its prefix in `arms`."""
    first = next(iter(arms.values()))
    series = {"times_s": [first.scenario.slot_midpoint_s(n) for n in range(first.slot_count)]}
    for key in ("rates_bps", "t_star_bps"):
        for prefix, result in arms.items():
            series[prefix + key] = getattr(result, key).tolist()
    series["degenerate_slots"] = list(degenerate_slots)
    return series


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


def _write_csv(path: Path, result: RunResult, columns: list, row) -> None:
    """One row per slot and satellite: slot, time_utc, satellite, then `row(n, k)`."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "time_utc", "satellite", *columns])
        for n in range(result.slot_count):
            stamp = result.scenario.slot_midpoint(n).isoformat()
            for k in range(result.satellite_count):
                writer.writerow([n, stamp, k, *row(n, k)])


def _solve_and_write(args, document, files) -> int:
    """The body of `run` and `compare`.

    Solves the command's arms, builds `document(*results)` (twice, and
    compared, with --seedless-deterministic) and writes each `(name, content)`
    of `files(doc, *results)` to --out: a `.csv` name's content is the
    `(columns, row)` of `_write_csv`, any other name's a JSON document.
    """
    try:
        scenario = _load_scenario_arg(args.scenario)
    except ScenarioError as exc:
        return _fail(str(exc))
    arms = [False, True] if args.command == "compare" else [scenario.isl_enabled and not args.no_isl]
    try:
        results = [_run_arm(scenario, isl_enabled) for isl_enabled in arms]
        doc = document(*results)
        if args.seedless_deterministic:
            repeat = document(*(_run_arm(scenario, isl_enabled) for isl_enabled in arms))
            if json.dumps(doc) != json.dumps(repeat):
                return _fail("rerun produced different results", EXIT_VERIFY_FAILED)
    except ValueError as exc:
        return _fail(str(exc))
    except AllocationError as exc:  # name the slot, the arm `_run_arm` set and the stage
        reason = f"slot {exc.slot} of the {exc.arm} arm, LP stage {exc.stage}: {exc.reason}"
        return _fail(f"solver failed on {reason}", EXIT_SOLVER_FAILED)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files(doc, *results):
            if name.endswith(".csv"):
                _write_csv(out / name, results[0], *content)
            else:
                _write_json(out / name, content)
    except OSError as exc:
        return _fail(f"{exc.filename or out}: {exc.strerror or exc}")
    if doc["series"]["degenerate_slots"]:
        print(f"degenerate slots: {doc['series']['degenerate_slots']}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_run(args) -> int:
    def document(result):
        return {
            "scenario_name": result.scenario.name,
            "isl_enabled": result.isl_enabled,
            "scenario": result.scenario.raw,
            "summary": summarize(result),
            "series": _series({"": result}, result.degenerate_slots),
        }

    def files(doc, result):
        ids = result.scenario.station_ids
        degenerate = set(result.degenerate_slots)

        def row(n, k):
            j = result.serving[n][k]
            return [
                float(result.rates_bps[n, k]),
                float(result.t_star_bps[n]),
                ids[j] if j is not None else "",
                float(result.direct_bps[n, k]),
                float(result.relayed_bps[n, k]),
                int(n in degenerate),
            ]

        columns = ["rate_bps", "t_star_bps", "serving_gs", "direct_bps", "relayed_bps", "degenerate"]
        return [
            ("results.csv", (columns, row)),
            ("summary.json", doc),
            ("allocations.json", _allocations_doc(result)),
        ]

    return _solve_and_write(args, document, files)


def cmd_compare(args) -> int:
    def document(baseline, treatment):
        report = compare(baseline, treatment)
        arms = {"baseline_": baseline, "treatment_": treatment}
        return {
            "scenario_name": baseline.scenario.name,
            "scenario": baseline.scenario.raw,
            "comparison": report,
            "baseline_summary": summarize(baseline),
            "treatment_summary": summarize(treatment),
            "series": _series(arms, report["excluded_slots"]),
        }

    def files(doc, baseline, treatment):
        def row(n, k):
            b = float(baseline.rates_bps[n, k])
            t = float(treatment.rates_bps[n, k])
            return [b, t, t - b]

        columns = ["baseline_bps", "treatment_bps", "delta_bps"]
        return [("compare.json", doc), ("compare.csv", (columns, row))]

    return _solve_and_write(args, document, files)


def _read_json(path: Path):
    """The document in `path`, None if there is no such file; bad JSON raises ValueError."""
    return json.loads(path.read_text()) if path.is_file() else None


def _rain_windows(scenario: Scenario):
    windows = []
    for event in scenario.rain_events:
        start_h = (event.start - scenario.start).total_seconds() / 3600.0
        end_h = (event.end - scenario.start).total_seconds() / 3600.0
        windows.append((start_h, end_h, f"{event.station_id} {event.rain_rate_mm_h:g} mm/h"))
    return windows


def cmd_plot(args) -> int:
    results_dir = Path(args.results_dir)
    try:
        compare_doc = _read_json(results_dir / "compare.json")
        doc = compare_doc if compare_doc is not None else _read_json(results_dir / "summary.json")
    except ValueError as exc:
        return _fail(f"{results_dir}: results unreadable: {exc!r}")
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
            svg = rain_curves_svg(scenario.rain_model)
            (out / "rain_attenuation.svg").write_text(svg)
            return EXIT_OK

        series = doc["series"]
        times = series["times_s"]
        arms = ("treatment_", "baseline_") if compare_doc is not None else ("",)
        for key in [arm + name for arm in arms for name in ("rates_bps", "t_star_bps")]:
            if len(series[key]) != len(times):
                raise ValueError(f"{key} has {len(series[key])} rows for {len(times)} times_s")
        treatment = np.asarray(series[arms[0] + "rates_bps"], dtype=float)
        baseline = np.asarray(series["baseline_rates_bps"], dtype=float) if compare_doc is not None else None
        included = np.ones(treatment.shape[0], dtype=bool)
        slots = series.get("degenerate_slots", [])
        if not all(type(n) is int and 0 <= n < len(included) for n in slots):
            raise ValueError(f"degenerate_slots {slots}: each must be an integer in [0, {len(included)})")
        included[slots] = False
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
    run_p.add_argument("--no-isl", action="store_true", help="force ISL capacities to zero")
    run_p.set_defaults(func=cmd_run)
    cmp_p = sub.add_parser("compare", help="run both arms and report deltas")
    cmp_p.set_defaults(func=cmd_compare)
    # added after --no-isl, which `run --help` and its usage line list first
    for solve_p in (run_p, cmp_p):
        solve_p.add_argument("scenario", help="scenario file path or bundled scenario name")
        solve_p.add_argument("--out", default="out", help="output directory")
        solve_p.add_argument(
            "--seedless-deterministic",
            action="store_true",
            help="run twice and fail unless results are identical",
        )

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

"""Command line surface: run one arm, compare both, render SVG charts.

Exit codes: 0 success, 1 a --seedless-deterministic rerun whose output
files differ (nothing is written), 2 malformed or missing input (also a
compare in which every slot is degenerate, or a rate past the histogram
bound: nothing is written, by `plot` either, which draws every chart
before it writes one), 3 run completed but degenerate slots are present
(outputs are still written), 4 a slot LP failed to solve or a worker
process died without a result (nothing is written).

Every JSON and CSV file is byte for byte what `json.dumps(doc, indent=2)` or
`csv.writer` writes; the tests pin this.  allocations.json and the CSVs are
formatted in bulk here: the indented JSON encoder is pure Python, and
csv.writer took 9.2 ms against 5.7 ms on o3b_rain's lp-fractional results.csv.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .allocation import AllocationError
from .engine import RunResult, WorkerDiedError, compare, run_arms, summarize
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER_FAILED = 4

FRACTION_FLOOR = 1e-12


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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


def _json_float(x: float) -> str:
    """`x` as json.dumps writes it: its repr, or NaN, Infinity, -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _allocations_json(result: RunResult) -> str:
    """The text of allocations.json: a dict per slot of t*, the degenerate flag
    and a dict per feeder and ISL fraction above FRACTION_FLOOR, sorted by key."""
    names = [encode_basestring_ascii(s) for s in result.scenario.station_ids]
    slots = []
    for alloc in result.allocations:
        lists = []
        for hop, fractions in (("transmitter", alloc.w), ("relay", alloc.v)):
            rows = [
                f'{{\n        "source": {s},\n        "{hop}": {t},\n        "station": {names[j]},\n'
                f'        "fraction": {_json_float(f)}\n      }}'
                for (s, t, j), f in sorted(fractions.items())
                if f > FRACTION_FLOOR
            ]
            lists.append("[\n      " + ",\n      ".join(rows) + "\n    ]" if rows else "[]")
        slots.append(
            f'{{\n    "slot": {alloc.slot_index},\n    "t_star_bps": {_json_float(alloc.t_star_bps)},\n'
            f'    "degenerate": {"true" if alloc.degenerate else "false"},\n'
            f'    "feeder_fractions": {lists[0]},\n    "isl_fractions": {lists[1]}\n  }}'
        )
    return "[\n  " + ",\n  ".join(slots) + "\n]\n" if slots else "[]\n"


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it as one cell of a row: quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _csv_text(result: RunResult, columns: list, row) -> str:
    """One row per slot and satellite: slot, time_utc, satellite, then `row(n, k)`,
    the rest of the row's text: floats by repr, strings through `_csv_cell`."""
    lines = [",".join(map(_csv_cell, ["slot", "time_utc", "satellite", *columns]))]
    for n in range(result.slot_count):
        stamp = _csv_cell(result.scenario.slot_midpoint(n).isoformat())
        lines += [f"{n},{stamp},{k},{row(n, k)}" for k in range(result.satellite_count)]
    return "\r\n".join(lines) + "\r\n"


def _write(out: Path, texts) -> int:
    """Write each `(name, text)` of `texts` to `out`, made first if missing; exit 2 on an OSError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts:
            (out / name).write_text(text, newline="")
    except OSError as exc:
        return _fail(f"{exc.filename or out}: {exc.strerror or exc}")
    return EXIT_OK


def _solve_and_write(args, document, files) -> int:
    """The body of `run` and `compare`.

    Solves the command's arms, `run`'s one or `compare`'s two, through one
    `run_arms` call (one fork), builds `document(*results)` and writes the
    `(name, text)` pairs of `files(doc, *results)` to --out.  With
    --seedless-deterministic the arms are solved twice, and any file whose
    text differs between the two fails the run before anything is written.
    """
    try:
        scenario = _load_scenario_arg(args.scenario)  # in this `try`: a ScenarioError is a ValueError
        arms = [False, True] if args.command == "compare" else [scenario.isl_enabled and not args.no_isl]
        results = run_arms(scenario, arms)
        doc = document(*results)
        texts = files(doc, *results)  # rendered one file at a time as it is written
        if args.seedless_deterministic:
            rerun = run_arms(scenario, arms)
            texts = list(texts)
            if texts != list(files(document(*rerun), *rerun)):
                return _fail("rerun produced different results", EXIT_VERIFY_FAILED)
    except ValueError as exc:
        return _fail(str(exc))
    except AllocationError as exc:  # name the slot, the arm the engine set and the stage
        reason = f"slot {exc.slot} of the {exc.arm} arm, LP stage {exc.stage}: {exc.reason}"
        return _fail(f"solver failed on {reason}", EXIT_SOLVER_FAILED)
    except WorkerDiedError as exc:
        return _fail(f"{exc}, in the {exc.arm} arm", EXIT_SOLVER_FAILED)
    code = _write(Path(args.out), texts)
    if code == EXIT_OK and doc["series"]["degenerate_slots"]:
        print(f"degenerate slots: {doc['series']['degenerate_slots']}", file=sys.stderr)
        return EXIT_DEGENERATE
    return code


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
        stations = {j: _csv_cell(s) for j, s in enumerate(result.scenario.station_ids)}
        stations[None] = ""  # unserved
        degenerate = set(result.degenerate_slots)
        t_star = list(map(repr, result.t_star_bps.tolist()))  # once per slot, not per row
        rates, direct, relayed = (a.tolist() for a in (result.rates_bps, result.direct_bps, result.relayed_bps))

        def row(n, k):
            gs = stations[result.serving[n][k]]
            return f"{rates[n][k]!r},{t_star[n]},{gs},{direct[n][k]!r},{relayed[n][k]!r},{int(n in degenerate)}"

        columns = ["rate_bps", "t_star_bps", "serving_gs", "direct_bps", "relayed_bps", "degenerate"]
        yield "results.csv", _csv_text(result, columns, row)
        yield "summary.json", json.dumps(doc, indent=2) + "\n"
        yield "allocations.json", _allocations_json(result)

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
        base, treat = baseline.rates_bps.tolist(), treatment.rates_bps.tolist()

        def row(n, k):
            b, t = base[n][k], treat[n][k]
            return f"{b!r},{t!r},{t - b!r}"

        yield "compare.json", json.dumps(doc, indent=2) + "\n"
        yield "compare.csv", _csv_text(baseline, ["baseline_bps", "treatment_bps", "delta_bps"], row)

    return _solve_and_write(args, document, files)


def _read_json(path: Path):
    """The document in `path`, None if there is no such file; raises OSError or, on bad JSON, ValueError."""
    return json.loads(path.read_text()) if path.is_file() else None


def _rain_windows(scenario: Scenario):
    def hours(t):
        return (t - scenario.start).total_seconds() / 3600.0

    return [(hours(e.start), hours(e.end), f"{e.station_id} {e.rain_rate_mm_h:g} mm/h") for e in scenario.rain_events]


def cmd_plot(args) -> int:
    # here, not at the top: only plot draws, and every run or compare would
    # compile svgplot at start-up when no bytecode is cached
    from .svgplot import histogram_svg, rain_curves_svg, timeseries_svg

    results_dir = Path(args.results_dir)
    try:
        compare_doc = _read_json(results_dir / "compare.json")
        doc = compare_doc if compare_doc is not None else _read_json(results_dir / "summary.json")
    except (OSError, ValueError) as exc:
        return _fail(f"{results_dir}: results unreadable: {exc!r}")
    if doc is None:
        return _fail(f"{results_dir}: no compare.json or summary.json found")
    try:
        scenario = parse_scenario(doc["scenario"], name=doc.get("scenario_name", "scenario"))
    except (KeyError, TypeError, ScenarioError) as exc:
        return _fail(f"embedded scenario unreadable: {exc}")
    out = Path(args.out) if args.out else results_dir
    if args.kind == "rain-attenuation":
        return _write(out, [("rain_attenuation.svg", rain_curves_svg(scenario.rain_model))])
    try:  # every chart is checked and drawn before any is written
        series = doc["series"]
        times = series["times_s"]
        arms = ("treatment_", "baseline_") if compare_doc is not None else ("",)
        for key in ["times_s"] + [arm + name for arm in arms for name in ("rates_bps", "t_star_bps")]:
            if len(series[key]) != len(times):
                raise ValueError(f"{key} has {len(series[key])} rows for {len(times)} times_s")
            if not np.isfinite(np.asarray(series[key], dtype=float)).all():
                raise ValueError(f"{key} holds a value that is not finite")
        rates_mbps = [np.asarray(series[arm + "rates_bps"], dtype=float) / 1e6 for arm in arms]
        included = np.ones(len(times), dtype=bool)
        slots = series.get("degenerate_slots", [])
        if not all(type(n) is int and 0 <= n < len(included) for n in slots):
            raise ValueError(f"degenerate_slots {slots}: each must be an integer in [0, {len(included)})")
        included[slots] = False
        windows = _rain_windows(scenario)
        texts = []
        for k in range(rates_mbps[0].shape[1]):
            if args.kind == "timeseries":
                svg = timeseries_svg(times, [r[:, k] for r in rates_mbps], f"Satellite {k}", windows)
            else:
                svg = histogram_svg([r[included, k] for r in rates_mbps], f"Satellite {k}")
            texts.append((f"{args.kind}_sat{k}.svg", svg))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return _fail(f"{results_dir}: results unreadable: {exc!r}")
    return _write(out, texts)


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

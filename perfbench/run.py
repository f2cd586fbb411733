"""meoflow benchmark: seeded day-scale workloads through the CLI, checked by an oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload rain_compare --seed 0 --seconds 30 --trace 0

Each run is a closed loop with one client: the workload's CLI operation
runs again and again, each time in a fresh Python process (one child at a
time, no threads), and the loop stops before an operation that would end
past --seconds.  The program only sees the generated scenario JSON and
its CLI arguments.

--trace 0 prints the end-to-end metrics, each a median over the
operations of the run: wall time from CLI entry to the last output file
and slot LPs solved per second of it, both at reference speed (see
REFERENCE_NOMINAL_S), set-up time (importing meoflow and loading the
scenario, also at reference speed) and the child's peak RSS.  --trace 1
alternates plain and traced operations and prints the per-layer metrics,
taken from the traced ones (see tracer.py), plus the tracing overhead.

After the loop every output is checked (see check.py): identical bytes
across all operations of the run, stage-1 t* of every slot against a
HiGHS oracle, rates against t*, the ISL arm against the no-ISL arm, and
the exit code against the flagged slots.  An operation fails when its
process fails or any check on its outputs fails; ``failed`` /
``attempted`` is the failure fraction.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs, the environment and the spans of one traced
operation are kept under .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "rain_compare": {
        "arms": 2,
        "commands": lambda sc, out: [
            ["compare", sc, "--out", out],
            ["plot", out, "timeseries"],
            ["plot", out, "histogram"],
        ],
        "check": check.check_compare,
    },
    "rain_fractional": {
        "arms": 1,
        "commands": lambda sc, out: [["run", sc, "--out", out]],
        "check": lambda out, codes, scenario: check.check_run(out, codes, scenario, isl_enabled=True),
    },
    "dense_ground": {
        "arms": 1,
        "commands": lambda sc, out: [["run", sc, "--no-isl", "--out", out]],
        "check": lambda out, codes, scenario: check.check_run(out, codes, scenario, isl_enabled=False),
    },
}

END_TO_END_UNITS = {"wall_ref_s": "s", "slots_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# The shared 2-core machine this was written on (Intel Xeon, Python 3.11)
# changes speed by up to 1.7x over tens of seconds, so the interquartile
# range of raw run medians across seeds was 7-29% of the median for 36-60 s
# runs.  Each child therefore also times a fixed reference kernel right
# after set-up and after the CLI calls (child.py), and timings are reported
# at reference speed: raw seconds * REFERENCE_NOMINAL_S / mean kernel
# seconds, using the kernels after set-up for setup_s and all of them for
# the wall time.  Over ten seeds of 40 s runs per workload this gave 2-5%
# where the raw medians gave 7-9%.  REFERENCE_NOMINAL_S is the kernel's
# typical time on that machine.  Raw timings are printed too and kept in
# result.json.
REFERENCE_NOMINAL_S = 0.011
PER_LAYER_UNITS = {
    "scenario.parse_s": "s",
    "geometry.slot_geometry.s": "s",
    "geometry.slot_geometry.calls": "count",
    "channel.fl_capacity_bps.s": "s",
    "channel.fl_capacity_bps.calls": "count",
    "channel.isl_capacity_bps.calls": "count",
    "topology.build_slot_graph.self_s": "s",
    "topology.select_serving_gs.s": "s",
    "allocation.solve_allocation.self_s": "s",
    "allocation.build_problem.s": "s",
    "allocation.lexicographic_refine.self_s": "s",
    "allocation.decode.s": "s",
    "allocation.lp_rows_mean": "count",
    "allocation.lp_cols_mean": "count",
    "simplex.stage1.s": "s",
    "simplex.stage2.s": "s",
    "simplex.stage1.pivots": "count",
    "simplex.stage2.pivots": "count",
    "simplex.us_per_pivot": "us",
    "simplex.stage2_pivot_share": "ratio",
    "simplex.non_optimal": "count",
    "engine.run.self_s": "s",
    "engine.summarize.s": "s",
    "engine.compare.s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.write.s": "s",
    "cli.output_bytes": "bytes",
    "svgplot.s": "s",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "child_blas_threads": "1",
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_env() -> dict:
    """The benchmark's environment with one BLAS thread and no PYTHONPATH."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over every output file's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


def run_operation(work: Path, index: int, commands, scenario_path: Path, traced: bool, env) -> dict:
    """One operation in a fresh child process; returns its report plus output digest."""
    op_dir = work / f"op{index:03d}"
    out = op_dir / "out"
    out.mkdir(parents=True)
    spec = {
        "root": str(ROOT),
        "scenario": str(scenario_path),
        "commands": commands(str(scenario_path), str(out)),
        "trace": traced,
        "report": str(op_dir / "report.json"),
    }
    (op_dir / "spec.json").write_text(json.dumps(spec))
    with (op_dir / "log.txt").open("w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = None
    report_path = op_dir / "report.json"
    if returncode != 0 or not report_path.is_file():
        return {"index": index, "traced": traced, "error": f"child exit {returncode}, see {op_dir / 'log.txt'}"}
    report = json.loads(report_path.read_text())
    report.update(index=index, traced=traced, out=str(out))
    report["digest"], report["output_bytes"] = output_digest(out)
    return report


def judge(samples: list[dict], check_outputs) -> tuple[dict[int, str], list[str]]:
    """Failed operations by index, and the problems the output checks found.

    The outputs shared by most operations are checked once; an operation
    fails if its process failed, its outputs differ from those, or they
    fail a check.
    """
    ok = [s for s in samples if "error" not in s]
    failed = {s["index"]: s["error"] for s in samples if "error" in s}
    if not ok:
        return failed, []
    reference = statistics.mode(s["digest"] for s in ok)
    src = (ROOT / "src" / "meoflow").resolve()
    for s in ok:
        if s["digest"] != reference:
            failed[s["index"]] = "outputs differ from the other operations of this run"
        elif Path(s["meoflow_file"]).resolve().parent != src:
            failed[s["index"]] = f"meoflow imported from {s['meoflow_file']}, not from src/"
    try:
        problems = check_outputs(next(s for s in ok if s["digest"] == reference))
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:  # missing or malformed outputs
        problems = [f"output check raised {exc!r}"]
    if problems:
        for s in ok:
            failed.setdefault(s["index"], "output check failed")
    return failed, problems


def median_metric(samples, key):
    values = [s[key] for s in samples]
    return statistics.median(values), len(values), min(values), max(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hours", type=int, default=24, help="scenario horizon (self-test uses 1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meoflow" / "cli.py").is_file():
        print(f"error: no meoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import scipy.optimize  # noqa: F401  the oracle needs HiGHS
    except ImportError:
        print("error: scipy is required for the HiGHS oracle", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import meoflow

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    text = scenarios.generate(args.workload, args.seed, ROOT, args.hours)
    scenario_path = work / f"{args.workload}.json"
    scenario_path.write_text(text)
    scenario = meoflow.load_scenario(scenario_path)

    env = child_env()
    # compile bytecode before timing: users do not pay for it on every run
    subprocess.run([sys.executable, "-c", "import meoflow.cli"], env=dict(env, PYTHONPATH=str(ROOT / "src")), check=True)

    samples = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        op_start = time.perf_counter()
        sample = run_operation(work, len(samples), workload["commands"], scenario_path, traced, env)
        samples.append(sample)
        now = time.perf_counter()
        # stop before an operation that would likely end past the measuring window
        if "error" in sample or (len(samples) > args.trace and now + (now - op_start) - start > args.seconds):
            break
    measured_s = time.perf_counter() - start

    failed, problems = judge(samples, lambda first: workload["check"](Path(first["out"]), first["exit_codes"], scenario))
    ok = [s for s in samples if "error" not in s]
    for s in ok[1:]:
        shutil.rmtree(s["out"], ignore_errors=True)

    plain = [s for s in ok if not s["traced"] and s["index"] not in failed]
    traced_ok = [s for s in ok if s["traced"] and s["index"] not in failed]
    slot_lps = scenario.slot_count * workload["arms"]
    for s in plain + traced_ok:
        before, after = s["reference_s"]["before"], s["reference_s"]["after"]
        s["wall_ref_s"] = s["wall_s"] * REFERENCE_NOMINAL_S / statistics.mean(before + after)
        s["slots_per_ref_s"] = slot_lps / s["wall_ref_s"]
        s["setup_raw_s"] = s["setup_s"]
        s["setup_s"] = s["setup_raw_s"] * REFERENCE_NOMINAL_S / statistics.mean(before)

    env_info = environment()
    print(f"workload {args.workload} seed {args.seed} hours {args.hours} trace {args.trace}")
    print(f"scenario sha256 {scenarios.digest(text)} ({scenario.slot_count} slots x {workload['arms']} arms)")
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"closed loop, 1 client, {len(samples)} operations in {measured_s:.1f} s, fresh process each")

    metrics: dict[str, dict] = {}
    if args.trace == 0 and plain:
        for key, unit in END_TO_END_UNITS.items():
            med, n, lo, hi = median_metric(plain, key)
            metrics[key] = {"value": med, "unit": unit}
            print(f"{key} {med:.6g} {unit} (median of {n}, min {lo:.6g}, max {hi:.6g})")
        for key in ("wall_s", "setup_raw_s"):
            med, n, lo, hi = median_metric(plain, key)
            print(f"raw {key} {med:.6g} s (median of {n}, min {lo:.6g}, max {hi:.6g})")
        ref = [statistics.mean(s["reference_s"]["before"] + s["reference_s"]["after"]) for s in plain]
        print(f"reference kernel {statistics.median(ref) * 1e3:.4g} ms (nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)")
    elif plain and traced_ok:
        per_op = [tracer.layer_metrics(s["spans"], s["wall_s"], s["output_bytes"]) for s in traced_ok]
        for key in PER_LAYER_UNITS:
            if key == "trace.overhead_pct":
                plain_wall = statistics.median(s["wall_ref_s"] for s in plain)
                traced_wall = statistics.median(s["wall_ref_s"] for s in traced_ok)
                value = (traced_wall / plain_wall - 1.0) * 100.0
            else:
                value = statistics.median(m[key] for m in per_op)
            metrics[key] = {"value": value, "unit": PER_LAYER_UNITS[key]}
            print(f"{key} {value:.6g} {PER_LAYER_UNITS[key]} (median of {len(per_op)} traced)")
        arms = tracer.arm_pivots(traced_ok[0]["spans"])
        for arm in arms:
            label = "ISL arm" if arm["isl"] else "no-ISL arm"
            print(f"pivots {label}: stage 1 {arm['stage1']} + stage 2 {arm['stage2']} = {arm['stage1'] + arm['stage2']}")
        if traced_ok[0]["unhooked"]:
            print(f"unhooked (no longer in meoflow): {traced_ok[0]['unhooked']}")
        print("no wait times: the pipeline is single-threaded, so no layer waits on another")
        (work / "spans.json").write_text(json.dumps(traced_ok[0]["spans"]))
    for msg in problems[:20]:
        print(f"check failed: {msg}")
    for index, msg in sorted(failed.items()):
        print(f"operation {index} failed: {msg}")
    print(f"fail_frac {len(failed) / len(samples):.6g} ({len(failed)}/{len(samples)})")

    (work / "result.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "scenario_sha256": scenarios.digest(text),
                "environment": env_info,
                "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
                "problems": problems,
                "metrics": metrics,
            },
            indent=2,
        )
    )
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(samples), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

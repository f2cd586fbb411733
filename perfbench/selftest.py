"""Self-test of the benchmark at one-hour size, about a minute on two cores.

Usage, from the repository root:

    python3 perfbench/selftest.py

It checks that
  - seed 0 of rain_compare is the bundled o3b_rain byte for byte, that
    rain_fractional differs from it only in the serving policy, and that a
    seed always gives the same scenario;
  - every workload, plain and traced, ends with a correct result line that
    holds every metric of BENCHMARK.json with its unit and nothing else;
  - the checker flags a corrupted t* in compare.json and in results.csv;
  - an operation whose outputs differ from the rest of its run fails;
  - without the meoflow sources the benchmark exits non-zero and prints no
    result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402

import meoflow  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_scenarios() -> None:
    bundled = scenarios.bundled_o3b_rain(ROOT)
    assert scenarios.generate("rain_compare", 0, ROOT) == bundled
    fractional = scenarios.generate("rain_fractional", 0, ROOT)
    assert fractional == bundled.replace(scenarios.BEST_CAPACITY, scenarios.LP_FRACTIONAL) != bundled
    for workload in run.WORKLOADS:
        assert scenarios.generate(workload, 7, ROOT) == scenarios.generate(workload, 7, ROOT)
        assert scenarios.generate(workload, 7, ROOT) != scenarios.generate(workload, 8, ROOT)


def test_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in [w["name"] for w in spec["workloads"]]:
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--hours", "1")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def operations(workload: str, count: int) -> tuple[list[dict], object]:
    """`count` real operations of a one-hour workload, outputs kept."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    path = WORK / f"{workload}.json"
    path.write_text(scenarios.generate(workload, 0, ROOT, hours=1))
    samples = [
        run.run_operation(WORK, i, run.WORKLOADS[workload]["commands"], path, False, run.child_env())
        for i in range(count)
    ]
    return samples, meoflow.load_scenario(path)


def test_corrupted_t_star() -> None:
    samples, scenario = operations("rain_compare", 1)
    out = Path(samples[0]["out"])
    codes = samples[0]["exit_codes"]
    assert check.check_compare(out, codes, scenario) == []
    doc = json.loads((out / "compare.json").read_text())
    doc["series"]["treatment_t_star_bps"][5] *= 1.0 + 1e-5
    (out / "compare.json").write_text(json.dumps(doc))
    problems = check.check_compare(out, codes, scenario)
    assert any("slot 5 t*" in p and "HiGHS" in p for p in problems), problems

    samples, scenario = operations("rain_fractional", 1)
    out = Path(samples[0]["out"])
    codes = samples[0]["exit_codes"]
    assert check.check_run(out, codes, scenario, isl_enabled=True) == []
    lines = (out / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    slot, t_col = header.index("slot"), header.index("t_star_bps")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[slot] == "2":
            cells[t_col] = repr(float(cells[t_col]) * (1.0 - 1e-5))
            lines[i] = ",".join(cells)
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    problems = check.check_run(out, codes, scenario, isl_enabled=True)
    assert any("slot 2 t*" in p and "HiGHS" in p for p in problems), problems


def test_non_identical_rerun() -> None:
    samples, scenario = operations("dense_ground", 3)
    checker = lambda first: run.WORKLOADS["dense_ground"]["check"](  # noqa: E731
        Path(first["out"]), first["exit_codes"], scenario
    )
    assert run.judge(samples, checker) == ({}, [])
    out = Path(samples[1]["out"])
    with (out / "results.csv").open("a") as fh:
        fh.write("\n")
    samples[1]["digest"], _ = run.output_digest(out)
    failed, problems = run.judge(samples, checker)
    assert list(failed) == [1] and "differ" in failed[1] and problems == [], failed


def test_without_sources() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "dense_ground", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    tests = [test_scenarios, test_corrupted_t_star, test_non_identical_rerun, test_without_sources, test_result_lines]
    for test in tests:
        test()
        print(f"ok {test.__name__}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

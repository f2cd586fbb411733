"""One operation of a workload, in a fresh Python process.

Usage: python3 child.py SPEC.json

SPEC names the repository root, the scenario file, the meoflow CLI
argument lists to run in order, whether to trace, and where to write the
report.  The CLI runs in-process through ``meoflow.cli.main``, exactly as
the ``meoflow`` console script would, so the timings start at CLI entry.

Report fields:
    wall_s: importing meoflow plus every CLI call, up to the last file
        written (the extra scenario load for setup_s is not included).
    setup_s: importing meoflow plus one ``meoflow.load_scenario`` of the
        scenario file.
    reference_s: a fixed reference kernel timed five times right after
        set-up (before the CLI calls) and five times after them, which
        gives the machine's speed during set-up and during the calls.
    peak_rss_mb: this process's ru_maxrss.
    spans / unhooked: the tracer's spans, when tracing.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


REFERENCE_REPEATS = 5


def reference_kernel() -> float:
    """Seconds taken by fixed work of the pipeline's kind: a Python loop of
    small numpy updates and dict updates, as in the simplex and LP build."""
    import numpy as np

    start = time.perf_counter()
    a = np.arange(2500.0).reshape(50, 50) / 7.0
    acc: dict = {}
    for i in range(1000):
        row = a[i % 50]
        a -= np.outer(row, row) * 1e-9
        acc[i % 97] = acc.get(i % 97, 0.0) + float(row[0])
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import meoflow
    import meoflow.cli as cli

    t_import = time.perf_counter()
    import_s = t_import - T0

    start = time.perf_counter()
    meoflow.load_scenario(spec["scenario"])
    load_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.add("cli.import", T0, t_import)
        tracer.install()

    before = [reference_kernel() for _ in range(REFERENCE_REPEATS)]
    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            codes.append(exc.code)
    wall_s = import_s + time.perf_counter() - start
    after = [reference_kernel() for _ in range(REFERENCE_REPEATS)]

    report = {
        "meoflow_file": cli.__file__,
        "wall_s": wall_s,
        "setup_s": import_s + load_s,
        "import_s": import_s,
        "load_s": load_s,
        "reference_s": {"before": before, "after": after},
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["unhooked"] = tracer.unhooked
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

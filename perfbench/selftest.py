"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs run.py on the `tiny` workload (60 rows, 2 epochs per stage) in both
trace modes and checks that each run is correct and emits every metric
BENCHMARK.json declares, with its unit. It then corrupts one output at a
time and checks that the correctness checks fail the run, and that the
stage-span check rejects a missing or unexpected stage. Exits 0 when all
pass; takes well under a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(*extra: str) -> tuple[int, dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny", "--seed", "3"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", *extra], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout


def main() -> int:
    sys.path.insert(0, HERE)
    import run
    from workloads import WORKLOADS, required_stages

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        expect(w["name"] in WORKLOADS, f"workload {w['name']} is defined")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result, stdout = run_tiny("--trace", str(trace))
        expect(code == 0 and result.get("correct") is True, f"trace {trace}: run is correct")
        expect(result.get("failed") == 0 and result.get("attempted", 0) >= 1,
               f"trace {trace}: no failed operations")
        metrics = result.get("metrics", {})
        printed = {line.split()[0]: line.split()[-1] for line in stdout.splitlines()[:-1]}
        for m in spec[section]:
            got = metrics.get(m["name"], {})
            expect(
                got.get("unit") == m["unit"]
                and isinstance(got.get("value"), float)
                and math.isfinite(got["value"])
                and printed.get(m["name"]) == m["unit"],
                f"trace {trace}: {m['name']} emitted and printed in {m['unit']}",
            )
        expect(set(metrics) == {m["name"] for m in spec[section]},
               f"trace {trace}: no undeclared metrics")

    for fault in ("heldout", "rowlabels"):
        code, result, _ = run_tiny("--trace", "0", "--fault", fault)
        expect(code == 1 and result.get("correct") is False and result.get("failed", 0) >= 1,
               f"corrupted {fault} output fails the run")

    must, must_not = required_stages(WORKLOADS["tiny"])
    calls = {name: 1 for name in must}
    outcome = run.Outcome()
    run.check_stages(outcome, calls, must, must_not)
    expect(outcome.failed == 0, "stage check passes when every stage ran")
    for name in must:
        outcome = run.Outcome()
        run.check_stages(outcome, dict(calls, **{name: 0}), must, must_not)
        expect(outcome.failed == 1, f"stage check fails when {name} recorded no calls")
    must, must_not = required_stages(WORKLOADS["wide_select"])
    outcome = run.Outcome()
    calls = dict({name: 1 for name in must}, **{"umap.optimize_layout": 1})
    run.check_stages(outcome, calls, must, must_not)
    expect(outcome.failed == 1, "stage check fails when a skipped stage ran")

    print(f"selftest: {len(problems)} failed" if problems else "selftest: all passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fit/predict benchmark of the ummaso pipeline.

    python3 perfbench/run.py --workload soil_1k --seed 1 --seconds 4 --trace 0

One run is one process. It generates the workload's inputs from the seed,
fits through the CLI entry point in-process (`cli.main(["fit", ...])`),
reloads the saved artifacts and serves predictions from them: one-row
requests from a single client in a closed loop, and 1,000-row batches, each
through `pipeline.transform_new` and `sarn.network.predict`. The two kinds
alternate in short rounds for `--seconds`, half the busy time each, so both
sample the same stretch of machine time; the fit takes as long as it takes.
The `heldout_*` metrics score the batch predictions of 5,000 fresh rows that
the fit never saw. The fit's own held-out split is rescored from the
reloaded artifacts and must equal its metrics.json exactly.

`predict_row_p99_cpu_ms` is the p99 of the CPU time (`time.thread_time`) of
the one-row requests; the p50 is wall-clock. On a shared 2-vCPU virtual
machine the wall-clock p99 of soil_4k was set by how long the host
descheduled the guest (steal time): it varied from 1.2 to 5.5 ms between
runs of the same code, while the CPU-time p99 stayed within 1.0 to 1.15 ms. `peak_rss_mb` is the process's peak
RSS when the fit returns. `setup_s` is the import time plus the medians of
repeated input generation and artifact reload.

With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json. With `--trace 1` it fits once untraced, then again with the
package's public functions wrapped (see tracer.py), serves the traced
predictions, re-runs the kNN and spectral calls under tracemalloc, and
reports the per-layer metrics. Every run checks its outputs; a failed check
makes the result `"correct": false` and the exit code 1. The last stdout
line is the JSON result. Result and span files go to `.perfbench/` at the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2

SETUP_REPS = 5  # input generation and artifact reload are repeated; medians reported
ROW_SHARE = 0.5  # share of the prediction phase spent on one-row requests
MIN_ROW_REQUESTS = 1000  # enough that ten samples lie beyond the p99
ROUND_S = 0.25  # one round: one-row requests, then batch requests
WARMUP_ROWS = 50
QUALITY = ("accuracy", "precision_macro", "recall_macro", "kappa")


def cap_blas_threads() -> int:
    """Cap BLAS threads at min(nproc, MAX_BLAS_THREADS, any cap already set);
    must run before numpy is imported."""
    cap = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            cap = min(cap, int(os.environ[var]))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import numpy
        import scipy
        import ummaso
        from ummaso import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if not os.path.abspath(ummaso.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: ummaso imported from {ummaso.__file__}, not {src}")
    return numpy, scipy, cli


class Outcome:
    """Operations attempted and failed; each failed check counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)
        return ok

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception is a failed operation (None returned)."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"operation failed: {label}: {exc!r}", file=sys.stderr)
            return None


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def fit(cli, config_path: str, out_dir: str) -> tuple[int, float]:
    """One `ummaso fit` through the CLI entry point; (exit code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return timed(cli.main, ["fit", "--config", config_path, "--out", out_dir])


def check_heldout(outcome: Outcome, art, data_path: str, out_dir: str) -> None:
    """The held-out metrics recomputed from the reloaded artifacts must equal
    the fit's metrics.json exactly."""
    from ummaso import dataset as ds
    from ummaso import metrics as mt
    from ummaso import pipeline as pl
    from ummaso.sarn import network as nw

    data = ds.load_csv(data_path)
    spec = ds.SplitSpec(art.config.train_fraction, art.config.seed + pl.SEED_SPLIT)
    _, test = ds.stratified_split(data, spec)
    _, labels = nw.predict(art.model, pl.transform_new(art, test.features))
    report = mt.evaluate(test.labels, labels, data.n_classes)
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        saved = json.load(fh)
    for key in QUALITY:
        outcome.check(
            getattr(report, key) == saved[key],
            f"held-out {key}: recomputed {getattr(report, key)!r}, metrics.json {saved[key]!r}",
        )


def serve(outcome: Outcome, tracer, art, rows, seconds: float, fault: str | None):
    """Alternate rounds of closed-loop one-row requests from a single client
    and 1,000-row batch requests for `seconds`, so both kinds sample the same
    stretch of machine time. Returns (row latencies, row CPU times, batch
    latencies, labels the batches gave each row)."""
    import numpy as np
    from ummaso import pipeline as pl
    from ummaso.sarn import network as nw
    from workloads import BATCH_ROWS

    def labels_of(X):
        return nw.predict(art.model, pl.transform_new(art, X))[1]

    n = rows.shape[0]
    n_chunks = n // BATCH_ROWS
    tracer.run = "warmup"
    for r in range(WARMUP_ROWS):
        outcome.attempt("warm-up row", labels_of, rows[r : r + 1])
    outcome.attempt("warm-up batch", labels_of, rows[:BATCH_ROWS])

    row_labels = np.full(n, -1, dtype=np.int64)
    batch_labels = np.full(n, -1, dtype=np.int64)
    row_times: list[float] = []
    row_cpu: list[float] = []
    batch_times: list[float] = []
    i = b = 0
    row_busy = batch_busy = 0.0
    clock = time.perf_counter
    end = clock() + seconds
    # every chunk is predicted at least once: the held-out quality needs all rows
    while clock() < end or i < MIN_ROW_REQUESTS or b < n_chunks:
        # one-row requests until they have had their share of the time so far
        slice_end = clock() + ROUND_S * ROW_SHARE
        while clock() < slice_end or row_busy < ROW_SHARE * (row_busy + batch_busy):
            r = i % n
            tracer.run = f"row:{i}"
            start, start_cpu = clock(), time.thread_time()
            got = outcome.attempt(f"row request {i}", labels_of, rows[r : r + 1])
            if got is not None:
                row_cpu.append(time.thread_time() - start_cpu)
                row_times.append(clock() - start)
                row_busy += row_times[-1]
                row_labels[r] = got[0]
            i += 1
        slice_end = clock() + ROUND_S * (1.0 - ROW_SHARE)
        while True:
            chunk = slice((b % n_chunks) * BATCH_ROWS, (b % n_chunks + 1) * BATCH_ROWS)
            tracer.run = f"batch:{b}"
            start = clock()
            got = outcome.attempt(f"batch request {b}", labels_of, rows[chunk])
            if got is not None:
                batch_times.append(clock() - start)
                batch_busy += batch_times[-1]
                if b >= n_chunks:
                    outcome.check(
                        np.array_equal(got, batch_labels[chunk]),
                        f"batch {b} differs from the first prediction of the same rows",
                    )
                batch_labels[chunk] = got
            b += 1
            if clock() >= slice_end:
                break
    tracer.run = ""
    if fault == "rowlabels":
        row_labels[0] = (row_labels[0] + 1) % art.model.n_classes
    served = (row_labels >= 0) & (batch_labels >= 0)
    mismatch = int(np.sum(row_labels[served] != batch_labels[served]))
    outcome.check(mismatch == 0, f"{mismatch} one-row predictions differ from batch predictions")
    return row_times, row_cpu, batch_times, batch_labels


def check_stages(outcome: Outcome, calls: dict, must, must_not) -> None:
    """A stage span that vanished (say, after a name was rebound so the
    wrapper is bypassed) must fail the run, not read as zero seconds."""
    for name in must:
        outcome.check(calls.get(name, 0) > 0, f"stage span {name} recorded no calls")
    for name in must_not:
        outcome.check(calls.get(name, 0) == 0, f"span {name} ran on a workload that skips it")


def environment(numpy, scipy, blas_threads: int) -> dict:
    from ummaso import umap

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": bool(umap.HAVE_NUMBA),
    }


def declared_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def emit(outcome: Outcome, section: str, values: dict, record: dict, record_path: str) -> int:
    """Print every declared metric with its unit, save the run record, print
    the JSON result line and return the exit code."""
    units = declared_metrics(section)
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: computed metrics {sorted(set(values) ^ set(units))} "
            f"do not match BENCHMARK.json {section}"
        )
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {outcome.failed / max(outcome.attempted, 1):.6g} ratio")
    correct = outcome.failed == 0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics, problems=outcome.problems), fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test only: corrupt one output so a correctness check must fail
    parser.add_argument("--fault", choices=("heldout", "rowlabels"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    blas_threads = cap_blas_threads()
    sys.dont_write_bytecode = True  # every run compiles the package the same way
    (numpy, scipy, cli), import_s = timed(import_program)
    from workloads import WORKLOADS

    env = environment(numpy, scipy, blas_threads)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, workload, cli, env, import_s, work_dir, tag)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, workload, cli, env: dict, import_s: float, work_dir: str, tag: str) -> int:
    from tracer import Tracer, layer_metrics, stage_calls
    from workloads import BATCH_ROWS, generate_inputs, required_stages
    from ummaso import pipeline as pl

    outcome = Outcome()
    tracer = Tracer()
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    record_path = os.path.join(OUT_DIR, f"result-{tag}.json")

    gen_times = []
    for _ in range(SETUP_REPS):
        (config_path, data_path, rows, labels), t = timed(
            generate_inputs, workload, args.seed, work_dir
        )
        gen_times.append(t)
    out_dir = os.path.join(work_dir, "artifacts")

    code, fit_s = fit(cli, config_path, out_dir)
    fit_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not outcome.check(code == 0, f"fit exited with code {code}"):
        return emit_failure(outcome)
    if args.trace:
        tracer.install()
        tracer.run = "fit"
        out_dir = os.path.join(work_dir, "artifacts-traced")
        code, traced_fit_s = fit(cli, config_path, out_dir)
        if not outcome.check(code == 0, f"traced fit exited with code {code}"):
            return emit_failure(outcome)
    if args.fault == "heldout":
        path = os.path.join(out_dir, "metrics.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["accuracy"] = doc["accuracy"] * 0.5
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    load_times, art = [], None
    for rep in range(SETUP_REPS):
        tracer.run = f"load:{rep}"
        start = time.perf_counter()
        art = outcome.attempt("reload artifacts", pl.load_artifacts, out_dir)
        load_times.append(time.perf_counter() - start)
    if art is None:
        return emit_failure(outcome)
    tracer.run = "check"
    outcome.attempt("held-out check", check_heldout, outcome, art, data_path, out_dir)
    row_times, row_cpu, batch_times, predicted = serve(
        outcome, tracer, art, rows, args.seconds, args.fault
    )
    record["samples"] = {"row_requests": len(row_times), "batch_requests": len(batch_times)}
    record["setup"] = {"import_s": import_s, "generate_s": gen_times, "reload_s": load_times}
    print(f"samples row_requests={len(row_times)} batch_requests={len(batch_times)}")

    if args.trace:
        tracer.uninstall()
        calls = stage_calls(tracer)
        check_stages(outcome, calls, *required_stages(workload))
        values = layer_metrics(tracer, tracer.memory_peaks())
        values["pipeline.artifacts_bytes"] = sum(
            entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file()
        )
        values["trace.fit_s"] = traced_fit_s
        values["trace.overhead_ratio"] = traced_fit_s / fit_s
        tracer.dump(os.path.join(OUT_DIR, f"spans-{tag}.json"), {"env": env, "calls": calls})
        return emit(outcome, "per_layer", values, record, record_path)

    import numpy as np
    from ummaso import metrics as mt

    if not outcome.check(bool(np.all(predicted >= 0)), "some fresh rows got no batch prediction"):
        return emit_failure(outcome)
    report = mt.evaluate(labels, predicted, art.model.n_classes)
    values = {
        "fit_s": fit_s,
        "predict_row_p50_ms": 1e3 * statistics.median(row_times),
        "predict_row_p99_cpu_ms": 1e3 * float(np.percentile(row_cpu, 99)),
        "predict_batch_rows_per_s": BATCH_ROWS / statistics.median(batch_times),
        "peak_rss_mb": fit_rss_mb,
        "setup_s": import_s + statistics.median(gen_times) + statistics.median(load_times),
    }
    values.update({f"heldout_{key}": getattr(report, key) for key in QUALITY})
    return emit(outcome, "end_to_end", values, record, record_path)


def emit_failure(outcome: Outcome) -> int:
    print(json.dumps({
        "correct": False,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {},
    }))
    return 1


if __name__ == "__main__":
    sys.exit(main())

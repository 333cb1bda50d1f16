"""Span tracing of the package from outside, and the per-layer split.

`Tracer.install` replaces public functions of the package's modules with
timing wrappers. The package looks these names up as module attributes at
call time, so every internal call goes through a wrapper and no source file
changes. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

MIB = 2.0**20


def _result_info(**getters):
    return lambda result: {key: get(result) for key, get in getters.items()}


# module path -> (span prefix, function names); the optional hooks record
# counts taken from a call's result, so ratios are measured where work happens
TRACED = {
    "ummaso.umap": (
        "umap",
        ("build_knn", "solve_sigma", "build_graph", "spectral_init", "optimize_layout"),
    ),
    "ummaso.lasso": ("lasso", ("fit_path", "fit_lasso")),
    "ummaso.sarn.network": ("sarn.network", ("init_model", "train", "gradients", "predict")),
    "ummaso.pipeline": (
        "pipeline",
        ("run", "save_artifacts", "load_artifacts", "transform_new"),
    ),
    "ummaso.dataset": ("dataset", ("load_csv",)),
    "ummaso.metrics": ("metrics", ("evaluate",)),
}
HOOKS = {
    "umap.solve_sigma": _result_info(converged=lambda r: bool(r[1])),
    "umap.build_graph": _result_info(edges=lambda r: int(r.edge_i.size)),
    "umap.optimize_layout": _result_info(epochs=lambda r: int(r.epoch_losses.size)),
    "lasso.fit_lasso": _result_info(
        sweeps=lambda r: int(r.iterations), converged=lambda r: bool(r.converged)
    ),
    "pipeline.run": _result_info(train_rows=lambda r: int(r.train_labels.size)),
}
# calls whose first inputs are kept for the separate tracemalloc pass
MEMORY_PROBES = ("umap.build_knn", "umap.spectral_init")


class Tracer:
    """Records spans (name, start, end, parent, run id) in call order.

    `run` is the id of the operation in progress ("fit", "row:17", ...);
    every span opened while it is set carries it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run = ""
        self.probes: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        import importlib

        for module_name, (prefix, names) in TRACED.items():
            module = importlib.import_module(module_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                self._originals.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(f"{prefix}.{fn_name}", original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()

    def _wrap(self, name: str, original):
        hook = HOOKS.get(name)
        probe = name in MEMORY_PROBES
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if probe and name not in self.probes:
                self.probes[name] = (original, args, kwargs)
            span = {"name": name, "run": self.run, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span["info"] = hook(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span, its duration minus the time its direct children cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def memory_peaks(self) -> dict[str, float]:
        """Re-run each probed call once under tracemalloc; peak MiB allocated
        during the call. Kept apart from the timed runs because tracemalloc
        slows allocation-heavy code several-fold."""
        peaks = {}
        for name in MEMORY_PROBES:
            if name not in self.probes:
                peaks[name] = 0.0
                continue
            fn, args, kwargs = self.probes[name]
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[name] = tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
        return peaks

    def dump(self, path: str, extra: dict) -> None:
        selfs = self.self_times()
        rows = [dict(s, self=t) for s, t in zip(self.spans, selfs)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=rows), fh)


def layer_metrics(tracer: Tracer, peaks: dict[str, float]) -> dict[str, float]:
    """The per-layer split of one traced fit plus its traced predict phase."""
    selfs = tracer.self_times()
    fit = [(s, t) for s, t in zip(tracer.spans, selfs) if s["run"] == "fit"]

    def spans(name, runs=None):
        pool = tracer.spans if runs else [s for s, _ in fit]
        return [
            s for s in pool if s["name"] == name and (runs is None or s["run"].startswith(runs))
        ]

    def total(name):
        return sum(s["end"] - s["start"] for s in spans(name))

    def self_total(name):
        return sum(t for s, t in fit if s["name"] == name)

    def info(name, key):
        return [s["info"][key] for s in spans(name)]

    def per_request(name, runs):
        durations = [s["end"] - s["start"] for s in spans(name, runs)]
        return statistics.median(durations) if durations else 0.0

    layout_s = total("umap.optimize_layout")
    epochs = sum(info("umap.optimize_layout", "epochs"))
    edges = (info("umap.build_graph", "edges") or [0])[-1]
    sigma = info("umap.solve_sigma", "converged")
    lasso_ok = info("lasso.fit_lasso", "converged")
    steps = len(spans("sarn.network.gradients"))
    return {
        "umap.layout_s": layout_s,
        "umap.layout_epoch_ms": 1e3 * layout_s / epochs if epochs else 0.0,
        "umap.edge_updates_per_s": edges * epochs / layout_s if layout_s else 0.0,
        "umap.edges": edges,
        "umap.knn_s": total("umap.build_knn"),
        "umap.sigma_s": total("umap.solve_sigma"),
        "umap.sigma_calls": len(sigma),
        "umap.sigma_converged_ratio": sum(sigma) / len(sigma) if sigma else 0.0,
        "umap.symmetrize_self_s": self_total("umap.build_graph"),
        "umap.spectral_s": total("umap.spectral_init"),
        "umap.knn_peak_mb": peaks["umap.build_knn"],
        "umap.spectral_peak_mb": peaks["umap.spectral_init"],
        "lasso.path_s": total("lasso.fit_path"),
        "lasso.cd_sweeps": sum(info("lasso.fit_lasso", "sweeps")),
        "lasso.converged_ratio": sum(lasso_ok) / len(lasso_ok) if lasso_ok else 0.0,
        "sarn.init_s": total("sarn.network.init_model"),
        "sarn.train_s": total("sarn.network.train"),
        "sarn.steps": steps,
        "sarn.step_ms": 1e3 * total("sarn.network.gradients") / steps if steps else 0.0,
        "sarn.train_self_s": self_total("sarn.network.train"),
        "sarn.predict_row_ms": 1e3 * per_request("sarn.network.predict", "row:"),
        "sarn.predict_batch_s": per_request("sarn.network.predict", "batch:"),
        "pipeline.run_self_s": self_total("pipeline.run"),
        "pipeline.transform_new_row_ms": 1e3 * per_request("pipeline.transform_new", "row:"),
        "pipeline.transform_new_batch_s": per_request("pipeline.transform_new", "batch:"),
        "pipeline.save_s": total("pipeline.save_artifacts"),
        "pipeline.load_s": per_request("pipeline.load_artifacts", "load:"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.train_rows": sum(info("pipeline.run", "train_rows")),
        "metrics.evaluate_s": total("metrics.evaluate"),
    }


def stage_calls(tracer: Tracer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in tracer.spans:
        counts[s["name"]] = counts.get(s["name"], 0) + 1
    return counts

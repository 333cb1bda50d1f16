"""Workload definitions and seeded input generation.

Each workload names a synthetic dataset shape and the fit config overrides
the pipeline receives. `BENCHMARK.json` at the repository root carries the
one-line reason each public workload is in the benchmark; `tiny` exists only
for the harness self-test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

# Stage-level spans every workload must record, and those only UMAP runs add.
CORE_STAGES = (
    "pipeline.run",
    "lasso.fit_path",
    "sarn.network.train",
    "pipeline.transform_new",
)
UMAP_STAGES = ("umap.build_graph", "umap.spectral_init", "umap.optimize_layout")

BATCH_ROWS = 1000  # rows in one batch request
EVAL_ROWS = 5000  # fresh labeled rows: the request pool and the held-out quality set
CENTERS_SEED = 0  # class geometry of the wide schema is part of the workload, not the seed


@dataclass(frozen=True)
class Workload:
    per_class: tuple[int, ...]
    noise_std: float
    n_features: int | None = None  # None: the 5-column soil schema
    config: dict = field(default_factory=dict)  # overrides for the fit config

    @property
    def uses_umap(self) -> bool:
        return self.config.get("feature_mode", "selected_plus_embedding") != "selected_only"


WORKLOADS = {
    # Not in BENCHMARK.json: while the layout loop is pure Python a run costs
    # about 45 s, too much for the benchmark's time budget; run it by name.
    "soil_1k": Workload(
        per_class=(700, 200, 100),
        noise_std=25.0,
        config={"umap": {"epochs": 40}},
    ),
    "wide_select": Workload(
        per_class=(700, 200, 100),
        noise_std=10.0,
        n_features=40,
        config={"feature_mode": "selected_only", "balance": "oversample"},
    ),
    # Five layout epochs (the default is 200) keep a run short and leave the
    # dense kNN, sigma, symmetrize and spectral stages above a quarter of fit.
    "soil_4k": Workload(
        per_class=(2800, 800, 400),
        noise_std=25.0,
        config={"umap": {"epochs": 5}, "sarn": {"epochs": 20}},
    ),
    "tiny": Workload(
        per_class=(40, 12, 8),
        noise_std=25.0,
        config={"umap": {"epochs": 2}, "sarn": {"epochs": 2}},
    ),
}


def required_stages(workload: Workload) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(spans that must be recorded, spans that must not be) for a workload."""
    if workload.uses_umap:
        return CORE_STAGES + UMAP_STAGES, ()
    return CORE_STAGES, UMAP_STAGES


def _schema(workload: Workload):
    import numpy as np
    from ummaso import cli

    if workload.n_features is None:
        return (
            cli.SOIL_CENTERS,
            cli.SOIL_FEATURE_NAMES,
            cli.SOIL_CLASS_NAMES,
        )
    rng = np.random.default_rng(CENTERS_SEED)
    centers = rng.normal(0.0, 10.0, size=(len(workload.per_class), workload.n_features))
    names = [f"f{j}" for j in range(workload.n_features)]
    classes = [f"class_{c}" for c in range(len(workload.per_class))]
    return centers, names, classes


def generate_inputs(workload: Workload, seed: int, work_dir: str):
    """Write the training CSV and the fit config into work_dir. Returns
    (config path, data path, fresh rows, their labels); the fresh rows come
    from the same class blobs in shuffled order. The same seed gives the same
    files and rows; it also becomes the pipeline's master seed."""
    import numpy as np
    from ummaso import dataset as ds

    rng = np.random.default_rng(seed)
    data_seed, eval_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
    centers, names, classes = _schema(workload)
    data = ds.synth_generate(
        ds.SynthConfig(list(workload.per_class), centers, workload.noise_std, data_seed),
        names,
        classes,
    )
    total = sum(workload.per_class)
    eval_counts = [round(EVAL_ROWS * n / total) for n in workload.per_class]
    eval_counts[0] += EVAL_ROWS - sum(eval_counts)
    fresh = ds.synth_generate(
        ds.SynthConfig(eval_counts, centers, workload.noise_std, eval_seed), names, classes
    )
    order = rng.permutation(EVAL_ROWS)
    data_path = os.path.join(work_dir, "train.csv")
    config_path = os.path.join(work_dir, "config.json")
    ds.write_csv(data, data_path)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dict(workload.config, seed=seed, data=data_path), fh, sort_keys=True, indent=1)
    return config_path, data_path, fresh.features[order], fresh.labels[order]

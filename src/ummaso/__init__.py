"""UMAP + LASSO + sparse attention regression network for imbalanced tabular
classification, with a composable pipeline and CLI."""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    SplitSpec,
    StandardizationParams,
    SynthConfig,
    load_csv,
    oversample,
    standardize,
    stratified_split,
    synth_generate,
    write_csv,
)
from .config import PipelineConfig
from .pipeline import PipelineArtifacts, run, transform_new
from .umap import Embedding, NeighborGraph, UmapConfig, embed

__all__ = [
    "Dataset",
    "Embedding",
    "NeighborGraph",
    "PipelineArtifacts",
    "PipelineConfig",
    "SplitSpec",
    "StandardizationParams",
    "SynthConfig",
    "UmapConfig",
    "embed",
    "load_csv",
    "oversample",
    "run",
    "standardize",
    "stratified_split",
    "synth_generate",
    "transform_new",
    "write_csv",
]

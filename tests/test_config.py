import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from ummaso.config import (
    IoSettings,
    LassoSettings,
    PipelineConfig,
    SarnSettings,
    pipeline_config_from_dict,
    validate,
)
from ummaso.dataset import record_to_json
from ummaso.errors import ConfigError
from ummaso.lasso import SelectionStrategy
from ummaso.sarn import network as nw
from ummaso.umap import UmapConfig

# A manifest `config` echo as written before the schema was derived from the
# dataclasses: the selection block omits its unset `k` and `value`.
OLD_MANIFEST_CONFIG = {
    "balance": "oversample",
    "feature_mode": "selected_only",
    "lasso": {"grid_count": 25, "selection": {"strategy": "lambda_at", "value": 0.01}},
    "sarn": {
        "batch_size": 32, "channels": 8, "dropout_rate": 0.1, "epochs": 200,
        "hidden": 16, "kernel_size": 2, "label_smoothing": 0.05, "learning_rate": 0.05,
        "loss_head": "softmax_reg", "mask_len": 1, "rank": 2, "reg_lambda": 0.0001,
    },
    "seed": 9,
    "train_fraction": 0.8,
    "umap": {
        "a": 1.0, "b": 1.0, "epochs": 11, "k": 7, "learning_rate": 1.0,
        "negative_samples": 5, "out_dim": 3,
    },
}

# (document, the parsed config or the ConfigError message it must raise)
CASES = [
    ({"sarn": {"epochs": True}}, "'sarn.epochs' must be an integer"),
    ({"umap": {"seed": 3}}, "unknown key 'umap.seed'"),
    ({"lasso": {"selection": {"strategy": "top_k", "kk": 3}}}, "unknown key 'lasso.selection.kk'"),
    ({"umap": {"a": 2}}, PipelineConfig(umap=UmapConfig(a=2.0))),
    ({"sarn": {"mask_len": None}}, PipelineConfig(sarn=SarnSettings(mask_len=None))),
    (
        {"lasso": {"selection": {"strategy": "top_k"}}},
        PipelineConfig(lasso=LassoSettings(selection=SelectionStrategy("top_k", k=5))),
    ),
    ({"umap": {"k": 1}}, "umap: k must be at least 2"),
    (
        OLD_MANIFEST_CONFIG,
        PipelineConfig(
            seed=9,
            balance="oversample",
            feature_mode="selected_only",
            umap=UmapConfig(k=7, out_dim=3, epochs=11),
            lasso=LassoSettings(
                grid_count=25, selection=SelectionStrategy("lambda_at", value=0.01)
            ),
            sarn=SarnSettings(kernel_size=2, loss_head="softmax_reg", mask_len=1),
        ),
    ),
    # checks that need no input width run while the document is parsed
    ({"sarn": {"rank": 9}}, "sarn: rank must lie in [1, min(patch=3, n=8)], got 9"),
    ({"sarn": {"dropout_rate": 1.0}}, "sarn: dropout_rate must lie in [0, 1)"),
    ({"sarn": {"mask_len": 0}}, "sarn: mask_len must be at least 1, got 0"),
    ({"sarn": {"kernel_size": 0}}, "sarn: kernel_size and channels must be positive"),
    ({"sarn": {"loss_head": "svm"}}, "sarn: unknown loss_head 'svm'"),
    ({"sarn": {"batch_size": 0}}, "sarn: batch_size must be at least 1"),
    ({"sarn": {"hidden": 0}}, "sarn: hidden must be at least 1"),
    ({"sarn": {"label_smoothing": 1.0}}, "sarn: label_smoothing must lie in [0, 1)"),
    ({"sarn": {"label_smoothing": -0.1}}, "sarn: label_smoothing must lie in [0, 1)"),
    ({"sarn": {"reg_lambda": -1.0}}, "sarn: reg_lambda must be non-negative"),
    ({"sarn": {"channels": 0}}, "sarn: kernel_size and channels must be positive"),
    # the reference UMAP's solver tolerances are module constants, not keys
    ({"umap": {"eps": 0.001}}, "unknown key 'umap.eps'"),
    ({"umap": {"sigma_tol": 1e-5}}, "unknown key 'umap.sigma_tol'"),
    ({"umap": {"sigma_max_iters": 64}}, "unknown key 'umap.sigma_max_iters'"),
    ({"lasso": {"grid_count": 1}}, "lasso: grid_count must be at least 2"),
    (
        {"lasso": {"selection": {"strategy": "lambda_at", "value": -0.5}}},
        "lasso.selection: lambda_at value must be non-negative, got -0.5",
    ),
    # json reads NaN and Infinity; NaN would pass every range check
    ({"umap": {"b": float("nan")}}, "'umap.b' must be a finite number"),
    ({"sarn": {"learning_rate": float("inf")}}, "'sarn.learning_rate' must be a finite number"),
    (
        {"lasso": {"selection": {"strategy": "lambda_at", "value": float("nan")}}},
        "'lasso.selection.value' must be a finite number",
    ),
    ({"umap": {"a": 10**400}}, "'umap.a' must be a finite number"),
    ({"train_fraction": 0}, "train_fraction must lie in (0, 1)"),
    ({"train_fraction": 1}, "train_fraction must lie in (0, 1)"),
    ({"seed": -200}, "'seed' must be non-negative, got -200"),
]


@pytest.mark.parametrize("doc, expect", CASES)
def test_parse(doc, expect):
    if isinstance(expect, str):
        with pytest.raises(ConfigError) as info:
            pipeline_config_from_dict(doc)
        assert str(info.value) == expect
        return
    parsed = pipeline_config_from_dict(doc)
    assert parsed == expect
    assert pipeline_config_from_dict(record_to_json(parsed)) == parsed
    assert type(parsed.umap.a) is float


def test_readme_default_config_block_matches_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    assert doc == {**record_to_json(PipelineConfig()), **asdict(IoSettings())}


# `generate --per-class 40,12,8` splits into 32 + 10 + 6 = 48 training rows at
# the default train_fraction, and oversampling makes 3 * 32 = 96 of them
@pytest.mark.parametrize(
    "doc, error",
    [
        ({"umap": {"k": 48}}, "'umap.k' 48 must be below the training-row count 48"),
        ({"umap": {"k": 47}}, None),
        (
            {"umap": {"out_dim": 47}},
            "'umap.out_dim' 47 + 1 must be below the training-row count 48",
        ),
        ({"umap": {"out_dim": 46}}, None),
        (
            {"balance": "oversample", "umap": {"k": 96}},
            "'umap.k' 96 must be below the training-row count 96",
        ),
        ({"balance": "oversample", "umap": {"k": 95}}, None),
        # 20 + 6 + 4
        (
            {"train_fraction": 0.5, "umap": {"k": 30}},
            "'umap.k' 30 must be below the training-row count 30",
        ),
        ({"feature_mode": "selected_only", "umap": {"k": 48}}, None),
    ],
)
def test_validate_holds_umap_to_the_training_row_count(doc, error):
    config = pipeline_config_from_dict(doc)
    if error is None:
        validate(config, 5, [40, 12, 8])
        return
    with pytest.raises(ConfigError) as info:
        validate(config, 5, [40, 12, 8])
    assert str(info.value) == error


def test_validate_checks_the_dkl_head_without_building_a_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate built a model")

    monkeypatch.setattr(nw, "init_model", refuse)
    # classifier width = top_k 5 + out_dim 2 = 7: kernel_size 3 leaves 5 positions
    validate(pipeline_config_from_dict({"sarn": {"mask_len": 5}}), 5, [40, 12, 8])
    with pytest.raises(ConfigError, match=r"^sarn: mask_len must lie in \[1, 5\], got 6$"):
        validate(pipeline_config_from_dict({"sarn": {"mask_len": 6}}), 5, [40, 12, 8])

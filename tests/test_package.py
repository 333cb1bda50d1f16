import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["ummaso", "ummaso.sarn"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def loaded_after(script: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running `script`."""
    report = (
        "\nimport sys\nprint(' '.join(m for m in ('scipy.spatial', 'scipy.sparse.linalg')"
        " if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script + report], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return proc.stdout.split()


FIT_AND_TRANSFORM = """
import numpy as np
from ummaso import dataset as ds, pipeline as pl
centers = np.array([[40.0, 20.0, 15.0, 5.2, 0.35], [75.0, 45.0, 35.0, 6.4, 0.7]])
data = ds.synth_generate(ds.SynthConfig([30, 20], centers, 6.0, 3), list("NPKHE"), ["a", "b"])
config = pl.PipelineConfig(
    feature_mode={mode!r}, umap=pl.um.UmapConfig(k=5, epochs=2), sarn=pl.SarnSettings(epochs=2)
)
pl.transform_new(pl.run(data, config), data.features[:3])
"""


def test_cli_import_loads_no_scipy_solver_or_tree():
    assert loaded_after("import ummaso.cli") == []


def test_search_tree_loads_only_where_rows_are_embedded():
    assert "scipy.spatial" not in loaded_after(FIT_AND_TRANSFORM.format(mode="selected_only"))
    embedded = loaded_after(FIT_AND_TRANSFORM.format(mode="selected_plus_embedding"))
    assert embedded == ["scipy.spatial", "scipy.sparse.linalg"]

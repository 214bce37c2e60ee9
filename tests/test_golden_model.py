"""A seeded fit must reproduce the committed model files byte for byte.

Both fits cover tied continuous columns (strided ranks snapped to tie-run
ends) and one categorical column.  ``seeded_model.json`` scores ``mtry <
p`` columns per node (per-node variable draws from Dirichlet weights);
``seeded_model_all_columns.json`` scores every column (``mtry == p``), the
default path, on which no variable subset is drawn.  A change that alters
how the random generator is consumed, or the order of any floating-point
sum, changes the files: such a change regenerates them with
``PYTHONPATH=src python tests/test_golden_model.py`` and says so in
CHANGES.md.  The files also pin numpy's generator streams.
"""

from pathlib import Path

import numpy as np
import pytest

from conftest import walk_tree
from xbart.data import PredictorMatrix
from xbart.forest import Hyperparams
from xbart.model import fit, load_model

DATA = Path(__file__).parent / "data"
# model file -> columns scored per node
GOLDEN = {"seeded_model.json": 3, "seeded_model_all_columns.json": None}


def _predictors(rng, n):
    return np.column_stack(
        [
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),   # tied continuous
            rng.integers(0, 4, size=n),         # categorical levels
            np.round(rng.uniform(size=n), 2),   # tied continuous
            rng.uniform(-1, 1, size=n),
        ]
    ).astype(np.float64)


def _golden_fit(mtry):
    rng = np.random.default_rng(2020)
    n = 150
    X = _predictors(rng, n)
    y = np.sin(2 * X[:, 0]) + X[:, 1] + np.where(X[:, 2] == 2, 1.5, 0.0)
    y = y + 0.3 * rng.normal(size=n)
    Xm = PredictorMatrix.from_rows(
        X,
        categorical=[False, False, True, False, False],
        names=["a", "b", "c", "d", "e"],
    )
    params = Hyperparams(n_trees=4, n_sweeps=5, burnin=2, n_cutpoints=16, mtry=mtry)
    return fit(Xm, y, params, seed=7)


@pytest.mark.parametrize("name", GOLDEN)
def test_seeded_fit_reproduces_the_golden_model_file(tmp_path, name):
    out = tmp_path / "model.json"
    _golden_fit(GOLDEN[name]).save(out)
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_loaded_golden_trees_predict_their_explicit_walks(name):
    # rows on the training grids, so tied cuts and categorical levels are hit
    model = load_model(DATA / name)
    X = _predictors(np.random.default_rng(11), 40)
    draws = model.predict_draws(X)
    for k, d in enumerate(model.draws):
        for i in range(len(X)):
            expect = model.y_offset
            for tree in d.trees:
                expect += walk_tree(tree, X[i])
            assert draws[i, k] == expect


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, mtry in GOLDEN.items():
        _golden_fit(mtry).save(DATA / name)
        print(f"wrote {DATA / name} ({(DATA / name).stat().st_size} bytes)")

"""A seeded fit must reproduce the committed model files byte for byte.

Every fit covers tied continuous columns (strided ranks snapped to tie-run
ends) and categorical columns.  ``seeded_model.json`` scores ``mtry < p``
columns per node (per-node variable draws from Dirichlet weights), more
than a third of them, so its nodes sift every column;
``seeded_model_subset.json`` scores 2 of 10 columns, so after the first
sweep its nodes filter their drawn columns from the root order;
``seeded_model_all_columns.json`` scores every column (``mtry == p``), the
default path, on which no variable subset is drawn.  Their tied and
categorical columns are counted at each node, and the counted scan sums the
residuals in level order rather than in sorted order; the candidate scores
then differ in their last bits, yet the files stayed byte-identical, as
they must.  The leaf sums, which reach the file directly, still run over
the rows in column-0 order.  A change that alters how the random generator
is consumed, or the order of a floating-point sum that reaches the file,
changes the files: such a change regenerates them with
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
# model file -> (columns scored per node, blocks of five predictor columns)
GOLDEN = {
    "seeded_model.json": (3, 1),
    "seeded_model_all_columns.json": (None, 1),
    "seeded_model_subset.json": (2, 2),
}


def _predictors(rng, n, blocks=1):
    return np.column_stack([_block(rng, n) for _ in range(blocks)])


def _block(rng, n):
    return np.column_stack(
        [
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),   # tied continuous
            rng.integers(0, 4, size=n),         # categorical levels
            np.round(rng.uniform(size=n), 2),   # tied continuous
            rng.uniform(-1, 1, size=n),
        ]
    ).astype(np.float64)


def _golden_fit(mtry, blocks):
    rng = np.random.default_rng(2020)
    n = 150
    X = _predictors(rng, n, blocks)
    y = np.sin(2 * X[:, 0]) + X[:, 1] + np.where(X[:, 2] == 2, 1.5, 0.0)
    y = y + 0.5 * X[:, 5:].sum(axis=1)  # adds 0 with one block
    y = y + 0.3 * rng.normal(size=n)
    Xm = PredictorMatrix.from_rows(
        X,
        categorical=[False, False, True, False, False] * blocks,
        names=[chr(ord("a") + j) for j in range(X.shape[1])],
    )
    params = Hyperparams(n_trees=4, n_sweeps=5, burnin=2, n_cutpoints=16, mtry=mtry)
    return fit(Xm, y, params, seed=7)


@pytest.mark.parametrize("name", GOLDEN)
def test_seeded_fit_reproduces_the_golden_model_file(tmp_path, name):
    out = tmp_path / "model.json"
    _golden_fit(*GOLDEN[name]).save(out)
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_loaded_golden_trees_predict_their_explicit_walks(name):
    # rows on the training grids, so tied cuts and categorical levels are hit
    model = load_model(DATA / name)
    X = _predictors(np.random.default_rng(11), 40, GOLDEN[name][1])
    draws = model.predict_draws(X)
    for k, d in enumerate(model.draws):
        for i in range(len(X)):
            expect = model.y_offset
            for tree in d.trees:
                expect += walk_tree(tree, X[i])
            assert draws[i, k] == expect


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, (mtry, blocks) in GOLDEN.items():
        _golden_fit(mtry, blocks).save(DATA / name)
        print(f"wrote {DATA / name} ({(DATA / name).stat().st_size} bytes)")

"""A seeded fit must reproduce the committed model file byte for byte.

The fit covers tied continuous columns (strided ranks snapped to tie-run
ends), one categorical column, and ``mtry < p`` (per-node variable draws
from Dirichlet weights).  A change that alters how the random generator is
consumed, or the order of any floating-point sum, changes the file: such a
change regenerates it with ``PYTHONPATH=src python tests/test_golden_model.py``
and says so in CHANGES.md.  The file also pins numpy's generator streams.
"""

from pathlib import Path

import numpy as np

from conftest import walk_tree
from xbart.data import PredictorMatrix
from xbart.forest import Hyperparams
from xbart.model import fit, load_model

GOLDEN = Path(__file__).parent / "data" / "seeded_model.json"


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


def _golden_fit():
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
    params = Hyperparams(n_trees=4, n_sweeps=5, burnin=2, n_cutpoints=16, mtry=3)
    return fit(Xm, y, params, seed=7)


def test_seeded_fit_reproduces_the_golden_model_file(tmp_path):
    out = tmp_path / "model.json"
    _golden_fit().save(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_loaded_golden_trees_predict_their_explicit_walks():
    # rows on the training grids, so tied cuts and categorical levels are hit
    model = load_model(GOLDEN)
    X = _predictors(np.random.default_rng(11), 40)
    draws = model.predict_draws(X)
    for k, d in enumerate(model.draws):
        for i in range(len(X)):
            expect = model.y_offset
            for tree in d.trees:
                expect += walk_tree(tree, X[i])
            assert draws[i, k] == expect


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    _golden_fit().save(GOLDEN)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")

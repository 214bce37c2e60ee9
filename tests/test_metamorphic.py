"""Metamorphic tests: changes to the data whose effect on the fit is known.

The cutpoint grid and the split scans see the predictors only through their
ranks, and the sampler centres y and sets its variance priors from Var(y).
Each test refits a small seeded forest (``mtry < p``, one tied column) on
transformed data and checks the prescribed relation to the original fit.
``ForestSampler.run`` keeps the burn-in sweeps, so those are compared too.
Flipping the sign of zero predictors must leave even the saved model file
unchanged, for every way of scoring and ordering the columns.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_levels
from xbart.data import _COUNT_LEVELS, PredictorMatrix
from xbart.forest import ForestSampler, Hyperparams
from xbart.model import fit

PARAMS = Hyperparams(n_trees=3, n_sweeps=4, burnin=1, mtry=2, n_cutpoints=8)
# strictly increasing maps; on the 0.01 grid of ``_data`` they stay strictly
# increasing in floating point, so ranks and ties are unchanged
MONOTONE = {
    "exp": np.exp,
    "cube": lambda x: x**3 - 5.0,
    "affine": lambda x: 2.0 * x + 1.0,
}
SEEDS = st.integers(0, 2**16)
SETTINGS = settings(max_examples=20)


def _data(seed):
    rng = np.random.default_rng(seed)
    n = 40
    X = np.round(rng.uniform(-2.0, 2.0, size=(n, 4)), 2)
    X[:, 1] = np.round(X[:, 1])  # tied column: five levels
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] + 0.3 * rng.normal(size=n)
    return X, y


def _run(X, y, seed):
    sampler = ForestSampler(X, y, PARAMS, seed=seed)
    sampler.run()
    return sampler


def _assert_same_shapes(a, b):
    for da, db in zip(a.draws, b.draws, strict=True):
        for ta, tb in zip(da.trees, db.trees, strict=True):
            np.testing.assert_array_equal(ta.var, tb.var)


@SETTINGS
@given(
    seed=SEEDS,
    maps=st.lists(st.sampled_from([None, *MONOTONE]), min_size=4, max_size=4),
)
def test_monotone_column_transforms_leave_the_fit_unchanged(seed, maps):
    X, y = _data(seed)
    Xt = X.copy()
    for j, name in enumerate(maps):
        if name is not None:
            Xt[:, j] = MONOTONE[name](X[:, j])
    base, moved = _run(X, y, seed), _run(Xt, y, seed)
    _assert_same_shapes(base, moved)
    assert [(d.sigma2, d.tau) for d in moved.draws] == [
        (d.sigma2, d.tau) for d in base.draws
    ]
    for da, db in zip(base.draws, moved.draws):
        for ta, tb in zip(da.trees, db.trees):
            np.testing.assert_array_equal(ta.leaf_values(), tb.leaf_values())
    np.testing.assert_array_equal(moved.fitted, base.fitted)


@SETTINGS
@given(seed=SEEDS, k=st.integers(-40, 60))
def test_power_of_two_scaling_of_y_scales_every_draw_exactly(seed, k):
    X, y = _data(seed)
    base, scaled = _run(X, y, seed), _run(X, y * 2.0**k, seed)
    _assert_same_shapes(base, scaled)
    for da, db in zip(base.draws, scaled.draws):
        assert db.sigma2 == da.sigma2 * 4.0**k
        assert db.tau == da.tau * 4.0**k
    np.testing.assert_array_equal(scaled.fitted, base.fitted * 2.0**k)
    assert scaled.y_offset == base.y_offset * 2.0**k


@SETTINGS
@given(
    seed=SEEDS,
    c=st.floats(1e-3, 1e3),
    b=st.floats(-1e3, 1e3),
)
def test_affine_map_of_y_maps_the_predictions(seed, c, b):
    X, y = _data(seed)
    base = fit(X, y, PARAMS, seed=seed).predict(X)
    mapped = fit(X, c * y + b, PARAMS, seed=seed).predict(X)
    scale = c * np.max(np.abs(base)) + abs(b)
    assert np.max(np.abs(mapped - (c * base + b))) <= 1e-9 * scale


def _zero_data(seed):
    """Columns that hold zeros: tie-free with one zero, tied with both signed
    zeros, categorical with level 0, and tie-free noise."""
    rng = np.random.default_rng(seed)
    n = 40
    X = np.column_stack(
        [
            rng.permutation(n) - n // 2.0,
            rng.integers(-2, 3, size=n) * rng.choice([-0.5, 0.5], size=n),
            rng.integers(0, 4, size=n).astype(float),
            rng.normal(size=n),
        ]
    )
    y = 0.1 * X[:, 0] + X[:, 1] + (X[:, 2] == 0.0) + 0.3 * rng.normal(size=n)
    return X, y


# mtry=None scores every column, 1 filters each node's orders from the
# root's (3 * mtry <= p), and 2 sifts the drawn columns' orders
@pytest.mark.parametrize("mtry", [None, 1, 2])
@pytest.mark.parametrize("cutoff", [0, _COUNT_LEVELS])
def test_sign_of_zero_predictors_leaves_the_model_file_unchanged(tmp_path, mtry, cutoff):
    # x <= -0.0 and x <= +0.0 make the same partition, and every zero cut is
    # written as +0.0, so the files are the same bytes
    params = replace(PARAMS, mtry=mtry)
    for seed in range(10):
        X, y = _zero_data(seed)
        files = []
        for rows in (X, np.where(X == 0.0, -X, X)):
            with count_levels(cutoff):
                pm = PredictorMatrix.from_rows(rows, categorical=[False, False, True, False])
                model = fit(pm, y, params, seed=seed)
            path = tmp_path / f"{len(files)}.json"
            model.save(path)
            files.append(path.read_bytes())
        assert files[0] == files[1], f"seed {seed}"

"""The single-tree sampler's error against the true surface falls as n grows.

PAPER.md states that the single-tree version of XBART is asymptotically
consistent.  This checks the finite-sample trace of that result: one tree
(``n_trees=1``, 10 sweeps, burn-in 3, default priors otherwise), p=5
independent N(0, 1) predictors, Gaussian noise at κ=1, fitted at n = 10³,
4·10³ and 1.6·10⁴ on the ``max`` and ``linear`` surfaces.  Each fit is scored
by the RMSE of its posterior-mean prediction against f on 5,000 fresh rows,
and the median over seeds 1-3 must fall at each 4× step of n by at least the
factor in ``BOUNDS``.  A change to the cutpoint grid or to the leaf draw that
still passes the accuracy bounds of a single fit, but stops the error from
shrinking with n, fails here.

The bounds come from a baseline of seeds 1-10 with these settings (numpy
2.4, default generator; 9 s of process time).  Ratios of the RMSE at one
size to the RMSE at the size below, min / median / max over the ten seeds:

=========  =====================  =====================
surface    10³ → 4·10³            4·10³ → 1.6·10⁴
=========  =====================  =====================
``max``    0.556 / 0.701 / 0.832  0.601 / 0.666 / 0.744
``linear`` 0.741 / 0.813 / 0.903  0.762 / 0.804 / 0.843
=========  =====================  =====================

The statistic tested is the ratio of medians over three seeds; over all 120
triples of the ten baseline seeds it stayed at or below 0.823 and 0.744 on
``max`` and 0.884 and 0.843 on ``linear``.  Seeds 1-3 read 0.711 and 0.713
on ``max``, and 0.803 and 0.802 on ``linear``.  Each bound sits above the
largest triple ratio of its surface and below 1, the ratio of an error that
has stopped falling.
"""

import numpy as np
import pytest

from xbart import Hyperparams, fit
from xbart.simulate import DgpSpec, gen_predictors, make_dataset, mean_function, rmse

SIZES = (1_000, 4_000, 16_000)
SEEDS = (1, 2, 3)
BOUNDS = {"max": 0.90, "linear": 0.95}


def _single_tree_rmse(function: str, n: int, seed: int) -> float:
    rng = np.random.default_rng([seed, n])
    X, y, _ = make_dataset(DgpSpec(function, n=n, p=5, kappa=1.0), rng)
    X_test = gen_predictors(5_000, 5, "independent", rng)
    model = fit(X, y, Hyperparams(n_trees=1, n_sweeps=10, burnin=3), seed=seed)
    return rmse(model.predict(X_test), mean_function(function, X_test))


@pytest.mark.parametrize("function", sorted(BOUNDS))
def test_single_tree_error_falls_at_each_fourfold_step_of_n(function):
    errors = np.median(
        [[_single_tree_rmse(function, n, seed) for n in SIZES] for seed in SEEDS], axis=0
    )
    ratios = errors[1:] / errors[:-1]
    assert np.all(ratios <= BOUNDS[function]), (function, errors, ratios)

"""Workload definitions and seeded input generation.

Every input comes from ``xbart.simulate`` driven by a generator seeded from
the command-line seed, so the same seed gives the same inputs.  Cycle ``k``
of a run draws its training set from ``SeedSequence(seed, spawn_key=(k,))``;
the held-out prediction batch is drawn once per run from its own stream.
See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from xbart import Hyperparams
from xbart.simulate import DgpSpec, gen_noise, gen_predictors, mean_function

# spawn key of the held-out batch; cycle keys count up from 0
_TEST_KEY = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark shape plus how often each step repeats per cycle.

    A cycle fits once, then runs ``rounds`` rounds; every round saves and
    loads the model ``save_reps`` times, and the first ``setup_reps`` and
    ``predict_reps`` rounds also time one set-up and one predict.

    ``tied`` rounds columns 0-7 to 0.1 and replaces columns 8 and 9 by
    categorical levels 0-5 and 0-2.  ``max_rmse`` is the accuracy bound on
    RMSE against the noiseless surface of the held-out rows.
    """

    name: str
    function: str
    n: int
    p: int
    params: Hyperparams
    max_rmse: float
    tied: bool = False
    n_test: int = 100_000
    n_check: int = 10_000
    rounds: int = 12
    setup_reps: int = 6
    save_reps: int = 2
    predict_reps: int = 3

    @property
    def categorical(self) -> np.ndarray:
        flags = np.zeros(self.p, dtype=bool)
        if self.tied:
            flags[8:10] = True
        return flags

    def _predictors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        X = gen_predictors(n, self.p, "independent", rng)
        if self.tied:
            X[:, :8] = np.round(X[:, :8], 1)
            X[:, 8] = rng.integers(0, 6, size=n)
            X[:, 9] = rng.integers(0, 3, size=n)
        return X

    def training_set(self, seed: int, cycle: int):
        """``(X, y, fit_seed)`` for one cycle; kappa=1 Gaussian noise."""
        data_seq, fit_seq = np.random.SeedSequence(seed, spawn_key=(cycle,)).spawn(2)
        rng = np.random.default_rng(data_seq)
        spec = DgpSpec(self.function, n=self.n, p=self.p)
        X = self._predictors(self.n, rng)
        f = mean_function(spec.function, X)
        y = f + gen_noise(spec.noise, spec.kappa, f, rng)
        return X, y, fit_seq

    def test_set(self, seed: int):
        """``(X_test, f_test)``: fresh rows and their noiseless surface."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_TEST_KEY,)))
        X = self._predictors(self.n_test, rng)
        return X, mean_function(self.function, X)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance",
            "linear",
            n=10_000,
            p=30,
            params=Hyperparams(n_sweeps=6, burnin=2),
            max_rmse=3.0,
            predict_reps=2,
        ),
        Workload(
            "tall",
            "max",
            n=100_000,
            p=30,
            params=Hyperparams(n_trees=10, n_sweeps=3, burnin=1),
            max_rmse=0.2,
            setup_reps=2,
            predict_reps=8,
        ),
        Workload(
            "wide_mtry",
            "max",
            n=10_000,
            p=100,
            params=Hyperparams(n_trees=10, n_sweeps=10, burnin=4, mtry=10),
            max_rmse=0.3,
        ),
        Workload(
            "tied_many_trees",
            "max",
            n=2_000,
            p=10,
            params=Hyperparams(n_trees=200, n_sweeps=6, burnin=1),
            max_rmse=0.4,
            tied=True,
            n_check=5_000,
            rounds=8,
            setup_reps=8,
            save_reps=1,
            predict_reps=1,
        ),
    )
}

# Same workloads at a size that runs in well under a second, for the
# benchmark's own tests; the accuracy bounds are loose because the fits are
# tiny.
SMOKE = {
    name: replace(
        w,
        n=300 if not w.tied else 200,
        params=replace(w.params, n_trees=min(w.params.n_trees, 5), n_sweeps=3, burnin=1),
        n_test=500,
        n_check=100,
        rounds=2,
        setup_reps=2,
        save_reps=1,
        predict_reps=1,
        max_rmse=10.0,
    )
    for name, w in WORKLOADS.items()
}

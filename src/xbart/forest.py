"""The sweep loop: Bayesian backfitting over an ensemble of grown trees.

Each sweep regrows every tree from the root against its partial residuals
(full residual plus the tree's own current fit), redraws the noise variance
after every tree update, and redraws the leaf-mean prior variance after the
full sweep.  One forest snapshot is recorded per sweep; snapshots after the
burn-in are the retained posterior draws.

The target is centred by its sample mean before fitting, so all trees start
from a zero contribution and the centering constant is added back at
prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PredictorMatrix, presort
from .errors import ConfigError, DataError
from .tree import Tree, grow_tree


@dataclass(frozen=True)
class Hyperparams:
    """Sampler configuration; every default follows the reference setup.

    ``None`` fields are resolved against the data at fit time:
    ``n_cutpoints`` becomes ``min(n, 100)``, ``mtry`` scores all variables
    (``ForestSampler.grow_params`` holds the resolved copy), ``b_sigma``
    becomes Var(y) and ``b_tau`` becomes ``Var(y) / (2 n_trees)``.
    """

    n_trees: int = 20
    n_sweeps: int = 40
    burnin: int = 15
    alpha: float = 0.95
    beta: float = 1.25
    n_cutpoints: int | None = None
    mtry: int | None = None
    max_depth: int = 30
    min_node_size: int = 1
    sample_tau: bool = True
    a_sigma: float = 3.0
    b_sigma: float | None = None
    a_tau: float = 3.0
    b_tau: float | None = None

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.n_sweeps < 1:
            raise ConfigError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if not 0 <= self.burnin < self.n_sweeps:
            raise ConfigError(
                f"burnin must lie in [0, n_sweeps), got {self.burnin} of {self.n_sweeps}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.n_cutpoints is not None and self.n_cutpoints < 1:
            raise ConfigError(f"n_cutpoints must be >= 1, got {self.n_cutpoints}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_node_size < 1:
            raise ConfigError(f"min_node_size must be >= 1, got {self.min_node_size}")
        for name in ("a_sigma", "a_tau"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("b_sigma", "b_tau"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigError(f"{name} must be > 0 when given")


@dataclass
class SweepDraw:
    """One forest snapshot: the trees after a sweep plus the variance draws."""

    sweep: int
    trees: list[Tree]
    sigma2: float
    tau: float


def update_sigma2(
    residual: np.ndarray, a_sigma: float, b_sigma: float, rng: np.random.Generator
) -> float:
    """Redraw the noise variance from inverse-gamma(n + a, r'r + b)."""
    residual = np.asarray(residual, dtype=np.float64)
    shape = residual.size + a_sigma
    rate = float(residual @ residual) + b_sigma
    return rate / rng.gamma(shape)


def update_tau(
    leaf_values: np.ndarray, a_tau: float, b_tau: float, rng: np.random.Generator
) -> float:
    """Redraw the leaf-mean prior variance from its inverse-gamma posterior.

    Shape is the total leaf count plus ``a_tau``; rate is the sum of squared
    leaf means plus ``b_tau``.
    """
    leaf_values = np.asarray(leaf_values, dtype=np.float64)
    shape = leaf_values.size + a_tau
    rate = float(leaf_values @ leaf_values) + b_tau
    return rate / rng.gamma(shape)


def update_variable_weights(
    split_counts: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Redraw the variable-selection weights from the forest's split counts.

    ``split_counts`` is (n_trees, p); the Dirichlet parameter is one plus
    each variable's total.  Returns a Dirichlet draw when ``rng`` is given,
    otherwise the normalised parameter (the draw is skipped when no
    subsampling will consume it).
    """
    counts = 1 + split_counts.sum(axis=0)
    if rng is None:
        return counts / counts.sum()
    return rng.dirichlet(counts)


class ForestSampler:
    """Runs the full sweep schedule over one training set.

    Exposed stepwise (``update_tree`` / ``run_sweep``) so tests can observe
    residual bookkeeping and the initialization schedule directly; ``run``
    drives the whole schedule and returns all sweep snapshots.
    """

    def __init__(
        self,
        X: PredictorMatrix,
        y: np.ndarray,
        params: Hyperparams | None = None,
        seed=0,
    ):
        if not isinstance(X, PredictorMatrix):
            X = PredictorMatrix.from_rows(X)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 1 or y.size != X.n:
            raise DataError(f"target has shape {y.shape}, expected ({X.n},)")
        if not np.all(np.isfinite(y)):
            raise DataError("target contains non-finite values")
        if X.n < 2:
            raise DataError("need at least two rows to fit")
        self.params = params if params is not None else Hyperparams()
        self.X = X
        self.rng = np.random.default_rng(seed)

        p = X.p
        # the validated fields are None or >= 1, so ``or`` picks the default
        self.grow_params = replace(
            self.params,
            n_cutpoints=self.params.n_cutpoints or min(X.n, 100),
            mtry=self.params.mtry or p,
        )
        if self.grow_params.mtry > p:
            raise ConfigError(
                f"mtry={self.grow_params.mtry} exceeds the {p} available columns"
            )
        self.y_offset = float(y.mean())
        self.y_centred = y - self.y_offset
        var_y = float(np.var(self.y_centred, ddof=1))
        if var_y == 0.0:
            # constant target: keep the variance scales positive
            var_y = 1.0
        self.b_sigma = (
            self.params.b_sigma if self.params.b_sigma is not None else var_y
        )
        self.b_tau = (
            self.params.b_tau
            if self.params.b_tau is not None
            else 0.5 * var_y / self.params.n_trees
        )
        self.root_index = presort(X)
        self.tie_free = X.tie_free_columns()

        L = self.params.n_trees
        self.trees: list[Tree] = [Tree.single_leaf(0.0) for _ in range(L)]
        self.sigma2 = var_y
        self.tau = var_y / L
        self.fitted = np.zeros((L, X.n))  # per-tree fitted values
        self.residual = self.y_centred.copy()  # y_centred minus the sum of fits
        self.split_counts = np.zeros((L, p), dtype=np.int64)  # per-tree splits
        self.weights = np.full(p, 1.0 / p)  # variable-selection weights
        self.draws: list[SweepDraw] = []

    def update_tree(self, h: int) -> None:
        """Regrow tree ``h`` against its partial residuals, then redraw sigma^2."""
        partial = self.residual + self.fitted[h]
        self.split_counts[h] = 0
        subsample = self.grow_params.mtry < self.X.p
        self.trees[h] = grow_tree(
            self.X,
            self.root_index,
            partial,
            self.sigma2,
            self.tau,
            self.grow_params,
            self.rng,
            var_weights=self.weights if subsample and self.draws else None,
            fitted_out=self.fitted[h],
            split_count_out=self.split_counts[h],
            tie_free=self.tie_free,
        )
        self.residual = partial - self.fitted[h]
        self.weights = update_variable_weights(
            self.split_counts, self.rng if subsample else None
        )
        self.sigma2 = update_sigma2(self.residual, self.params.a_sigma, self.b_sigma, self.rng)

    def run_sweep(self) -> SweepDraw:
        """One full pass over the ensemble plus the end-of-sweep tau draw."""
        for h in range(self.params.n_trees):
            self.update_tree(h)
        if self.params.sample_tau:
            leaf_values = np.concatenate([t.leaf_values() for t in self.trees])
            self.tau = update_tau(leaf_values, self.params.a_tau, self.b_tau, self.rng)
        draw = SweepDraw(
            sweep=len(self.draws) + 1,
            trees=list(self.trees),
            sigma2=self.sigma2,
            tau=self.tau,
        )
        self.draws.append(draw)
        return draw

    def run(self) -> list[SweepDraw]:
        """Run every remaining sweep; returns all snapshots in sweep order."""
        while len(self.draws) < self.params.n_sweeps:
            self.run_sweep()
        return self.draws

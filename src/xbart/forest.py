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


@dataclass
class ModelState:
    """Mutable sampler state threaded through the sweep loop."""

    sigma2: float
    tau: float
    fitted: np.ndarray          # (n_trees, n) per-tree fitted values
    residual: np.ndarray        # (n,) y_centred minus the sum of fits
    split_counts: np.ndarray    # (n_trees, p) per-tree splits per variable
    weight_counts: np.ndarray   # (p,) ones + total split counts
    weights: np.ndarray         # (p,) current variable-selection weights


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
    weight_counts: np.ndarray,
    old_counts: np.ndarray,
    new_counts: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Swap one tree's split counts into the running totals, redraw weights.

    Returns the updated count vector and the new selection weights — a
    Dirichlet draw when ``rng`` is given, otherwise the normalised counts
    (the draw is skipped when no subsampling will consume it).
    """
    counts = weight_counts + new_counts - old_counts
    if np.any(counts < 1):
        raise DataError("variable weight counts fell below their ones floor")
    if rng is None:
        return counts, counts / counts.sum()
    return counts, rng.dirichlet(counts)


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
        self.state = ModelState(
            sigma2=var_y,
            tau=var_y / L,
            fitted=np.zeros((L, X.n)),
            residual=self.y_centred.copy(),
            split_counts=np.zeros((L, p), dtype=np.int64),
            weight_counts=np.ones(p),
            weights=np.full(p, 1.0 / p),
        )
        self.sweeps_done = 0
        self.draws: list[SweepDraw] = []

    def update_tree(self, h: int) -> None:
        """Regrow tree ``h`` against its partial residuals, then redraw sigma^2."""
        st = self.state
        partial = st.residual + st.fitted[h]
        new_counts = np.zeros(self.X.p, dtype=np.int64)
        fitted_new = np.empty(self.X.n)
        subsample = self.grow_params.mtry < self.X.p
        tree = grow_tree(
            self.X,
            self.root_index,
            partial,
            st.sigma2,
            st.tau,
            self.grow_params,
            self.rng,
            var_weights=st.weights if subsample and self.sweeps_done >= 1 else None,
            fitted_out=fitted_new,
            split_count_out=new_counts,
            tie_free=self.tie_free,
        )
        self.trees[h] = tree
        st.fitted[h] = fitted_new
        st.residual = partial - fitted_new
        st.weight_counts, st.weights = update_variable_weights(
            st.weight_counts,
            st.split_counts[h],
            new_counts,
            self.rng if subsample else None,
        )
        st.split_counts[h] = new_counts
        st.sigma2 = update_sigma2(st.residual, self.params.a_sigma, self.b_sigma, self.rng)

    def run_sweep(self) -> SweepDraw:
        """One full pass over the ensemble plus the end-of-sweep tau draw."""
        for h in range(self.params.n_trees):
            self.update_tree(h)
        if self.params.sample_tau:
            leaf_values = np.concatenate([t.leaf_values() for t in self.trees])
            self.state.tau = update_tau(
                leaf_values, self.params.a_tau, self.b_tau, self.rng
            )
        self.sweeps_done += 1
        draw = SweepDraw(
            sweep=self.sweeps_done,
            trees=list(self.trees),
            sigma2=self.state.sigma2,
            tau=self.state.tau,
        )
        self.draws.append(draw)
        return draw

    def run(self) -> list[SweepDraw]:
        """Run every remaining sweep; returns all snapshots in sweep order."""
        while self.sweeps_done < self.params.n_sweeps:
            self.run_sweep()
        return self.draws

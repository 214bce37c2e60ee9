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

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tree
from .data import PredictorMatrix, presort, rank_table
from .errors import ConfigError, DataError
from .tree import GridMemo, Tree, filters, grow_tree

# exact types accepted for each field annotation (``| None`` aside)
_FIELD_TYPES = {"int": (int,), "float": (int, float, np.float64), "bool": (bool,)}


@dataclass(frozen=True)
class Hyperparams:
    """Sampler configuration; every default follows the reference setup.

    ``None`` fields are resolved against the data at fit time:
    ``n_cutpoints`` becomes ``min(n, 100)``, ``mtry`` becomes ``p`` (score
    all variables), ``b_sigma`` becomes Var(y) and ``b_tau`` becomes
    ``Var(y) / (2 n_trees)``.  ``ForestSampler.params`` holds the resolved
    copy; ``FittedModel.params`` keeps the fields as the caller gave them.
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
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if not (value is None and optional) and (
                type(value) not in _FIELD_TYPES[kind] or value - value != 0
            ):
                raise ConfigError(f"{f.name} is not a valid {f.type}: {value!r}")
        for name in ("n_trees", "n_sweeps", "n_cutpoints", "mtry", "max_depth", "min_node_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0 <= self.burnin < self.n_sweeps:
            raise ConfigError(
                f"burnin must lie in [0, n_sweeps), got {self.burnin} of {self.n_sweeps}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        for name in ("a_sigma", "a_tau", "b_sigma", "b_tau"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {value}")


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
    rate = float(np.square(residual).sum()) + b_sigma
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
    rate = float(np.square(leaf_values).sum()) + b_tau
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

    ``grid_memo`` is the fit's `GridMemo`: the root's cutpoint grid, built
    once, and a bounded set of depth-1 grids, shared by every tree that
    scores all columns.  It is None when ``_GRID_MEMO_BYTES`` is 0, and it
    is dropped at the first tree that draws its columns, because from then
    on every tree does.  It lives and dies with the sampler.
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
        try:
            if np.iscomplexobj(y):
                raise DataError("target is complex; pass its real or imaginary part")
            y = np.asarray(y, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"target is not numeric: {exc}") from None
        if y.ndim != 1 or y.size != X.n:
            raise DataError(f"target has shape {y.shape}, expected ({X.n},)")
        if not np.all(np.isfinite(y)):
            row = np.flatnonzero(~np.isfinite(y))[0]
            raise DataError(f"target row {row} is {y[row]}")
        if X.n < 2:
            raise DataError("need at least two rows to fit")
        params = params if params is not None else Hyperparams()
        p = X.p
        if params.mtry is not None and params.mtry > p:
            raise ConfigError(f"mtry={params.mtry} exceeds the {p} available columns")
        self.X = X
        self.rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            self.y_offset = float(y.mean())
            self.y_centred = y - self.y_offset
            var_y = float(np.var(self.y_centred, ddof=1))
        if not math.isfinite(var_y):
            raise DataError(f"target variance is {var_y} in float64; rescale the target")
        if var_y == 0.0:
            spread = float(np.ptp(y))
            if spread > 0.0:
                raise DataError(
                    f"target spread {spread:g} has a variance that underflows to 0 "
                    "in float64; rescale the target"
                )
            # constant target: keep the variance scales positive
            var_y = 1.0
        # the resolved configuration; validated fields are None or positive,
        # so ``or`` picks the default
        self.params = replace(
            params,
            n_cutpoints=params.n_cutpoints or min(X.n, 100),
            mtry=params.mtry or p,
            b_sigma=params.b_sigma or var_y,
            b_tau=params.b_tau or 0.5 * var_y / params.n_trees,
        )
        self.root_index = presort(X)
        # built here, not at the first filtering tree, so that the fit
        # allocates no table-sized array while its nodes come and go
        self.root_ranks = (
            rank_table(self.root_index) if filters(p, self.params.mtry) else None
        )
        self.grid_memo = GridMemo(X, self.params) if tree._GRID_MEMO_BYTES > 0 else None

        L = params.n_trees
        # one shared start leaf: no tree is mutated, only replaced
        self.trees: list[Tree] = [Tree.single_leaf(0.0)] * L
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
        subsample = self.params.mtry < self.X.p
        var_weights = self.weights if subsample and self.draws else None
        if var_weights is not None:
            # every later tree draws its columns, and such a tree reads no
            # grid from the memo
            self.grid_memo = None
        self.trees[h] = grow_tree(
            self.X,
            self.root_index,
            partial,
            self.sigma2,
            self.tau,
            self.params,
            self.rng,
            var_weights=var_weights,
            fitted_out=self.fitted[h],
            ranks=self.root_ranks,
            grid_memo=self.grid_memo,
        )
        splits = self.trees[h].var
        self.split_counts[h] = np.bincount(splits[splits >= 0], minlength=self.X.p)
        self.residual = partial - self.fitted[h]
        self.weights = update_variable_weights(
            self.split_counts, self.rng if subsample else None
        )
        self.sigma2 = update_sigma2(
            self.residual, self.params.a_sigma, self.params.b_sigma, self.rng
        )

    def run_sweep(self) -> SweepDraw:
        """One full pass over the ensemble plus the end-of-sweep tau draw."""
        for h in range(self.params.n_trees):
            self.update_tree(h)
        if self.params.sample_tau:
            leaf_values = np.concatenate([t.leaf_values() for t in self.trees])
            self.tau = update_tau(leaf_values, self.params.a_tau, self.params.b_tau, self.rng)
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

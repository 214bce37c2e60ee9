"""Shared test helpers: independent oracles the implementation never touches."""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate

from xbart import data as data_module
from xbart import threads as threads_module
from xbart import tree as tree_module
from xbart.data import CutpointGrid, PredictorMatrix, presort
from xbart.errors import DataError

# every property test draws the same examples on every run
settings.register_profile("xbart", derandomize=True, deadline=None)
settings.load_profile("xbart")

# one column of n rows per kind; "tied" mixes signed zeros into its ties
COLUMN_KINDS = {
    "tie_free": lambda rng, n: rng.permutation(n) / 4.0 - 3.0,
    "tied": lambda rng, n: rng.integers(-2, 3, size=n) * rng.choice([-0.5, 0.5], size=n),
    "categorical": lambda rng, n: rng.integers(0, 4, size=n).astype(float),
}


@contextlib.contextmanager
def count_levels(cutoff):
    """Count the tied columns with at most ``cutoff`` levels; 0 sorts all.

    A matrix reads the cut-off once, when its `ColumnLayout` is built at
    the first `presort`, grid or ``layout()`` call, so that call belongs
    inside the block.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_COUNT_LEVELS", cutoff)
        yield


@contextlib.contextmanager
def setup_threads(cores):
    """Spread every set-up's sorts and neighbour checks over ``cores``
    allowed cores, whatever its rows; None keeps every set-up on the calling
    thread.

    Yields a list that gets, for each pool opened, its thread count with the
    caller's thread included.  Predict opens pools too, from
    `model._THREAD_ROWS` rows on.
    """
    opened = []
    real = threads_module.ThreadPoolExecutor

    def recording(max_workers):
        opened.append(max_workers + 1)
        return real(max_workers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threads_module, "ThreadPoolExecutor", recording)
        for gate in ("_SETUP_ROWS", "_CHECK_ROWS"):
            patch.setattr(data_module, gate, 2**62 if cores is None else 0)
        if cores is not None:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        yield opened


@contextlib.contextmanager
def stack_block(entries):
    """Walk node stacks in blocks of ``entries`` entries in `sift` and the
    scan: ``max(1, entries // m)`` whole rows of a node of ``m`` rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_STACK_BLOCK", entries)
        yield


@contextlib.contextmanager
def sort_share(share):
    """Sort the ranks in `node_orders` for nodes of fewer than ``share * n``
    rows and filter the root stack for larger ones: 0 always filters, and a
    share above 1 always sorts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_SORT_SHARE", share)
        yield


@contextlib.contextmanager
def grid_memo(budget):
    """Keep at most ``budget`` bytes of depth-1 grids in each fit's
    `GridMemo`; 0 disables the memo.  A sampler reads the budget when it is
    made, so that call belongs inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_GRID_MEMO_BYTES", budget)
        yield


# node stacks for the blocked-walk tests: "sorted" sorts the tied and
# categorical columns too, "subset" takes the stack rows of a few scored
# columns and "filtered" their orders from `node_orders`, as a tree that
# filters does
LAYOUTS = ("tie_free", "sorted", "counted", "subset", "filtered")


def layout_matrix(layout, rng, p, n):
    """``(X, presort(X))`` for a `LAYOUTS` entry: ``p`` tie-free columns for
    "tie_free", else a mix of every kind, whose tied and categorical
    columns "sorted" sorts and the others count."""
    kinds = ["tie_free"] * p if layout == "tie_free" else (sorted(COLUMN_KINDS) * p)[:p]
    with count_levels(0 if layout == "sorted" else data_module._COUNT_LEVELS):
        X = PredictorMatrix(
            [COLUMN_KINDS[k](rng, n) for k in kinds],
            categorical=[k == "categorical" for k in kinds],
        )
        return X, presort(X)


def stack_columns(X) -> np.ndarray:
    """The column that each row of ``X``'s node stacks orders the rows by,
    from its `ColumnLayout.stack_row`."""
    return np.flatnonzero(X.layout().stack_row >= 0)


def ladder_keys(index, ladder) -> np.ndarray:
    """`CutpointGrid.keys` of a ladder block over the rows of ``index``: every
    row's candidates at the ``ladder`` ranks, row by row."""
    return (np.arange(index.shape[0])[:, None] * index.shape[1] + ladder).ravel()


def column_orders(X, rows) -> np.ndarray:
    """Every column's order of the node ``rows``: a stable sort of the row
    ids by value, ties (signed zeros included) in row-id order."""
    rows = np.sort(np.asarray(rows))
    return np.stack([rows[np.argsort(X.columns[v, rows], kind="stable")] for v in range(X.p)])


def quad_node_loglik(y, sigma2: float, tau: float) -> float:
    """Numerically integrate the leaf-mean prior out of one node's likelihood.

    Returns the log marginal relative to the same node scored with a zero
    mean, i.e. exactly the constant-dropped contribution the sampler uses:
    log ∫ Π N(y_i | mu, sigma2) N(mu | 0, tau) dmu  -  Σ log N(y_i | 0, sigma2).
    The shared -n/2 log(2 pi sigma2) cancels in that difference, so the
    integrand keeps only the mu-dependent part of the likelihood.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    sum_y = float(y.sum())
    sum_y2 = float(y @ y)
    log_prior_const = -0.5 * np.log(2.0 * np.pi * tau)

    def log_integrand(mu):
        lik = -(sum_y2 - 2.0 * mu * sum_y + n * mu * mu) / (2.0 * sigma2)
        return lik + log_prior_const - mu * mu / (2.0 * tau)

    # centre the quadrature at the posterior mean so the integrand is O(1)
    shift = log_integrand(sum_y * tau / (sigma2 + tau * n))
    val, _ = integrate.quad(
        lambda mu: np.exp(log_integrand(mu) - shift), -np.inf, np.inf
    )
    return shift + float(np.log(val)) + sum_y2 / (2.0 * sigma2)


def naive_candidate_scores(X_cols, node_ids, residuals, grid, sigma2, tau, score_fn):
    """Score every grid candidate by brute-force row filtering.

    For each candidate, select the node's rows with ``x[var] <= value``, sum
    residuals on each side, and call ``score_fn(s_left, n_left, s_right,
    n_right)``.  Quadratic in the node size; trustworthy.
    """
    node_ids = np.asarray(node_ids)
    out = np.empty(len(grid))
    for i in range(len(grid)):
        var = int(grid.var_ids[i])
        value = float(grid.values[i])
        on_left = X_cols[var, node_ids] <= value
        left_ids = node_ids[on_left]
        right_ids = node_ids[~on_left]
        out[i] = score_fn(
            residuals[left_ids].sum(),
            left_ids.size,
            residuals[right_ids].sum(),
            right_ids.size,
        )
    return out


def reference_grid(X, index, budget, min_node_size=1, variables=None) -> CutpointGrid:
    """The cutpoint grid built column by column from its documented rule.

    Row ``i`` of ``index`` is the node's order of column ``variables[i]``,
    or of column ``i`` when ``variables`` is None.  Strided base ranks ``0,
    j, 2j, ...`` (``budget`` of them, ``j = (m - 2) // budget``) for
    continuous columns when ``m - 2 > budget``, every rank ``0 .. m - 2``
    otherwise; each base rank walks forward to the end of its tie run, and
    the distinct run ends inside ``[min_node_size - 1, m - 1 -
    min_node_size]`` are the candidates, in column order.  A candidate's
    value is the column's value at its rank, with a zero written as +0.0.
    """
    m = index.shape[1]
    var_ids, ranks, values = [], [], []
    for i, v in enumerate(range(X.p) if variables is None else variables):
        sorted_vals = X.columns[v, index[i]]
        if m - 2 > budget and not X.categorical[v]:
            base = [k * ((m - 2) // budget) for k in range(budget)]
        else:
            base = range(m - 1)
        ends = set()
        for rank in base:
            while rank + 1 < m and sorted_vals[rank + 1] == sorted_vals[rank]:
                rank += 1
            ends.add(rank)
        for rank in sorted(ends):
            if min_node_size - 1 <= rank <= m - 1 - min_node_size:
                var_ids.append(v)
                ranks.append(rank)
                values.append(sorted_vals[rank] + 0.0)  # a zero cut is +0.0
    return CutpointGrid(
        np.array(var_ids, dtype=np.intp),
        np.array(ranks, dtype=np.intp),
        np.array(values, dtype=np.float64),
    )


def _right_child(tree, node: int) -> int:
    """The node after the left subtree of split ``node``, found by skipping it.

    ``owed`` counts the nodes the left subtree still needs: a split adds two
    and takes one, a leaf takes one.
    """
    end, owed = node + 1, 1
    while owed:
        owed += 1 if tree.var[end] >= 0 else -1
        end += 1
    return end


def tree_depth(tree) -> int:
    """Longest root-to-node edge count, by an explicit stack walk."""
    out = 0
    stack = [(0, 0)]
    while stack:
        node, d = stack.pop()
        out = max(out, d)
        if tree.var[node] >= 0:
            stack.append((node + 1, d + 1))
            stack.append((_right_child(tree, node), d + 1))
    return out


def walk_tree(tree, x) -> float:
    """Evaluate one tree on one row by an explicit python descent."""
    node = 0
    while tree.var[node] >= 0:
        go_left = x[tree.var[node]] <= tree.value[node]
        node = node + 1 if go_left else _right_child(tree, node)
    return float(tree.value[node])


def theoretical_split_criterion(
    prob_left: float, mean_left: float, mean_right: float, sigma2: float
) -> float:
    """Population limit of the scaled split criterion at one cutpoint.

    For a candidate that puts mass ``prob_left`` in the left cell, the limit
    is ``(P_l E[Y|left]^2 + P_r E[Y|right]^2) / sigma2``.
    """
    return (
        prob_left * mean_left**2 + (1.0 - prob_left) * mean_right**2
    ) / sigma2


def empirical_split_criterion(
    y: np.ndarray,
    x: np.ndarray,
    cut: float,
    sigma2: float,
    tau: float,
    gumbel: float = 0.0,
) -> float:
    """Finite-sample scaled criterion whose large-n limit is the theoretical one.

    This is the per-observation version of the split score: quadratic terms
    weighted by ``tau n_b / (sigma2 (sigma2 + tau n_b))``, the two
    log-variance-ratio terms, and optionally a realised Gumbel perturbation,
    all divided by the sample size.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = y.size
    on_left = x <= cut
    parts = []
    for side in (y[on_left], y[~on_left]):
        if side.size == 0:
            raise DataError("cut leaves one side of the empirical criterion empty")
        coef = tau * side.size / (sigma2 * (sigma2 + tau * side.size))
        explained = np.sum(side**2) - np.sum((side - side.mean()) ** 2)
        parts.append(coef * explained + np.log(sigma2 / (sigma2 + tau * side.size)))
    return (parts[0] + parts[1] + gumbel) / n

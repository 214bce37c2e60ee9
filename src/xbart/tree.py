"""Stochastic growth and evaluation of a single regression tree.

A tree is grown from the root by repeatedly sampling a cutpoint from the
softmax over marginal-likelihood scores (or stopping on the no-split
option) and sifting the node's presorted index into children.  Nodes wait
on an explicit stack, left subtree fully before the right, so a fixed
generator seed fixes the tree exactly.  Leaves draw their mean from the
conjugate normal posterior.

Nodes are stored struct-of-arrays in pre-order: a split's left child is the
next node and ``right`` names its right child.  ``value`` is the cut of a
split and the mean of a leaf; ``var`` and ``right`` are -1 on a leaf.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .data import PredictorMatrix, build_cutpoint_grid, sift
from .errors import DataError, ModelFormatError
from .splitting import sample_cutpoint, scan_candidates

if TYPE_CHECKING:
    from .forest import Hyperparams

_LEAF = -1


class Tree:
    """One regression tree in pre-order struct-of-arrays form."""

    def __init__(self, var, value, right):
        self.var = np.asarray(var, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.right = np.asarray(right, dtype=np.int32)

    @classmethod
    def single_leaf(cls, value: float = 0.0) -> "Tree":
        return cls([_LEAF], [float(value)], [_LEAF])

    @property
    def n_nodes(self) -> int:
        return self.var.size

    @property
    def n_leaves(self) -> int:
        return int((self.var == _LEAF).sum())

    def leaf_values(self) -> np.ndarray:
        """Leaf means in pre-order."""
        return self.value[self.var == _LEAF]

    def predict(self, X: PredictorMatrix) -> np.ndarray:
        """Evaluate the tree's step function on every row of ``X``.

        Routing matches the training partition: ``x[var] <= cut`` goes left.
        """
        out = np.empty(X.n, dtype=np.float64)
        stack = [(0, np.arange(X.n))]
        while stack:
            node, rows = stack.pop()
            while self.var[node] >= 0:
                go_left = X.columns[self.var[node], rows] <= self.value[node]
                # follow the left side iteratively, push the other
                stack.append((int(self.right[node]), rows[~go_left]))
                node, rows = node + 1, rows[go_left]
            if rows.size:
                out[rows] = self.value[node]
        return out

    def to_records(self) -> list[list]:
        """Pre-order node records: ``["split", var, cut]`` / ``["leaf", value]``."""
        return [
            ["leaf", x] if v == _LEAF else ["split", v, x]
            for v, x in zip(self.var.tolist(), self.value.tolist())
        ]

    @classmethod
    def from_records(cls, records: list, n_features: int) -> "Tree":
        """Rebuild a tree from its pre-order records, validating as it goes.

        Node ``i`` is record ``i``, and a split's left child is the next
        record.  The splits still waiting for a right child form a stack, so
        any depth parses without recursion.
        """
        if not isinstance(records, list) or not records:
            raise ModelFormatError("tree record list is empty or not a list")
        var, value, right = [], [], []
        open_splits: list[int] = []
        for pos, rec in enumerate(records):
            if pos > 0 and var[-1] == _LEAF:
                if not open_splits:
                    raise ModelFormatError(
                        f"{len(records) - pos} trailing tree records after the root"
                        " subtree"
                    )
                right[open_splits.pop()] = pos
            if not isinstance(rec, (list, tuple)) or not rec:
                raise ModelFormatError(f"malformed tree record at {pos}: {rec!r}")
            tag = rec[0]
            if tag == "leaf":
                if len(rec) != 2:
                    raise ModelFormatError(f"leaf record needs 1 value: {rec!r}")
                var.append(_LEAF)
                value.append(_finite(rec[1], "leaf value", pos))
            elif tag == "split":
                if len(rec) != 3:
                    raise ModelFormatError(f"split record needs var and cut: {rec!r}")
                v = rec[1]
                if type(v) is not int:
                    raise ModelFormatError(
                        f"split variable {v!r} at record {pos} is not an integer"
                    )
                if not 0 <= v < n_features:
                    raise ModelFormatError(f"split variable {v} out of range")
                var.append(v)
                value.append(_finite(rec[2], "cut value", pos))
                open_splits.append(pos)
            else:
                raise ModelFormatError(f"unknown tree record tag {tag!r}")
            right.append(_LEAF)
        if open_splits:
            raise ModelFormatError("tree records truncated mid-subtree")
        return cls(var, value, right)


def _finite(value, field: str, pos: int) -> float:
    # a finite float passes the cheap test; anything else gets the full check
    if type(value) is float and value - value == 0.0:
        return value
    return parse_finite(value, f"{field} at record {pos}")


def parse_finite(value, field: str) -> float:
    """``value`` as a finite float, or a ``ModelFormatError`` naming ``field``."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if isinstance(value, (str, bool)) or not math.isfinite(out):
        raise ModelFormatError(f"{field} is not a finite number: {value!r}")
    return out


def sample_leaf_value(
    s: float, n: int, sigma2: float, tau: float, rng: np.random.Generator
) -> float:
    """Draw a leaf mean from its conjugate normal posterior.

    Precision is ``1/tau + n/sigma2``; the mean is ``s / (sigma2 * precision)``.
    A zero prior variance collapses the draw to exactly 0 and consumes no
    variate; an empty leaf draws from the prior.
    """
    if tau == 0.0:
        return 0.0
    precision = 1.0 / tau + n / sigma2
    mean = s / (sigma2 * precision)
    return mean + np.sqrt(1.0 / precision) * rng.standard_normal()


def grow_tree(
    X: PredictorMatrix,
    index: np.ndarray,
    residuals: np.ndarray,
    sigma2: float,
    tau: float,
    params: Hyperparams,
    rng: np.random.Generator,
    var_weights: np.ndarray | None = None,
    *,
    fitted_out: np.ndarray,
    split_count_out: np.ndarray,
    tie_free: np.ndarray,
) -> Tree:
    """Grow one tree from the root over the rows listed in ``index``.

    Parameters
    ----------
    residuals : ndarray over all n rows
        Partial residuals this tree should fit, indexed by row id.
    params : Hyperparams
        Read for ``alpha``, ``beta``, ``max_depth``, ``min_node_size``,
        ``mtry`` and ``n_cutpoints``, the last of which must be resolved.
    var_weights : optional probability vector over all p columns
        When given, each node scores ``params.mtry`` columns drawn from it
        without replacement; ``None`` scores every column.
    fitted_out : length-n array
        Filled in place with the grown tree's fitted value for every row of
        the node (cheaper than re-evaluating the tree afterwards).
    split_count_out : length-p int array
        Incremented in place with this tree's split counts per variable.
    tie_free : bool array over all p columns
        ``X.tie_free_columns()``, passed on to the cutpoint grid.

    Returns the grown tree with all leaf means sampled.
    """
    if sigma2 <= 0.0:
        raise DataError(f"noise variance must be positive, got {sigma2}")
    if tau < 0.0:
        raise DataError(f"leaf prior variance must be non-negative, got {tau}")
    workspace = np.zeros(X.n, dtype=bool)
    var_l: list[int] = []
    value_l: list[float] = []
    right_l: list[int] = []
    # (presorted node index, depth, split waiting for this node as its right
    # child or -1); the left child is pushed last so it is grown first
    stack = [(index, 0, _LEAF)]
    while stack:
        node_index, depth, parent = stack.pop()
        node = len(var_l)
        if parent != _LEAF:
            right_l[parent] = node
        m = node_index.shape[1]
        total = float(residuals[node_index[0]].sum())
        choice = None
        if depth < params.max_depth - 1 and m >= max(2, 2 * params.min_node_size):
            chosen = None
            if var_weights is not None:
                chosen = np.sort(
                    rng.choice(X.p, size=params.mtry, replace=False, p=var_weights)
                )
            grid = build_cutpoint_grid(
                X,
                node_index,
                params.n_cutpoints,
                params.min_node_size,
                variables=chosen,
                tie_free=tie_free,
            )
            if len(grid):
                scores = scan_candidates(
                    X,
                    node_index,
                    residuals,
                    grid,
                    sigma2,
                    tau,
                    depth,
                    params.alpha,
                    params.beta,
                    total=total,
                )
                choice = sample_cutpoint(scores, rng)
        right_l.append(_LEAF)
        if choice is None:
            mu = sample_leaf_value(total, m, sigma2, tau, rng)
            var_l.append(_LEAF)
            value_l.append(mu)
            fitted_out[node_index[0]] = mu
            continue
        var_l.append(choice.var)
        value_l.append(choice.value)
        split_count_out[choice.var] += 1
        left_index, right_index = sift(X, node_index, choice.var, choice.value, workspace)
        stack.append((right_index, depth + 1, node))
        stack.append((left_index, depth + 1, _LEAF))
    return Tree(var_l, value_l, right_l)

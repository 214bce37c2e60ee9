"""Stochastic growth and evaluation of a single regression tree.

A tree is grown from the root by repeatedly sampling a cutpoint from the
softmax over marginal-likelihood scores (or stopping on the no-split
option) and sifting the node's stack of presorted orders into children.
Nodes wait on an explicit stack, left subtree fully before the right, so a
fixed generator seed fixes the tree exactly.  Leaves draw their mean from
the conjugate normal posterior.

A tree is two arrays in pre-order: ``var`` is the split variable of a node,
or -1 on a leaf, and ``value`` is the cut of a split and the mean of a leaf.
A split's left child is the next node and its right child the node after
its left subtree, so the order alone fixes the shape.

A tree is evaluated on a batch of rows by node codes: each row holds the
pre-order id of its current node in one byte (wider only past 256 nodes),
and each split, visited in pre-order, moves the rows coded with its id to
one of its children by whole-array integer arithmetic.  The work is rows
times splits of contiguous byte operations, with no per-node row lists.
"""

from __future__ import annotations

import math
import mmap
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    CutpointGrid,
    PredictorMatrix,
    build_cutpoint_grid,
    node_orders,
    sift,
    stack_rows,
)
from .errors import DataError, ModelFormatError
from .splitting import sample_cutpoint, scan_candidates

if TYPE_CHECKING:
    from .forest import Hyperparams

_LEAF = -1

# The nodes of a tree that scores params.mtry drawn columns take those
# columns' orders from the root stack when p >= _FILTER_RATIO * mtry, and
# sift all p columns otherwise (crossover measured in BENCH_orders.json).
_FILTER_RATIO = 3

# Bytes of depth-1 cutpoint grids that a fit's `GridMemo` holds at most; 0
# disables the memo (policy and budget measured in BENCH_grids.json).
_GRID_MEMO_BYTES = 2 * 2**20


def filters(p: int, mtry: int) -> bool:
    """Whether the trees whose nodes score ``mtry`` drawn columns of ``p``
    should take their orders from the root stack (`node_orders`) instead of
    sifting the whole stack; a sampler that says yes builds the root stack's
    `rank_table`, which makes `grow_tree` filter."""
    return _FILTER_RATIO * mtry <= p


# The fields of a grid that a `GridMemo` keeps below the root, in the order of
# their copies in its ring; a hit gathers ``codes`` again, and reads its cut
# values through the node's own stack rows.
_KEPT = ("var_ids", "ranks", "levels", "keys")
# A kept grid's record starts with its size in bytes and each field's length,
# -1 for a field that is None.
_HEADER = 8 * (1 + len(_KEPT))


class GridMemo:
    """The cutpoint grids that recur across the trees of one fit on ``X``
    with ``params``.

    A node's grid depends only on its rows and on ``n_cutpoints`` and
    ``min_node_size``, never on the residuals, the variance draws or the
    generator.  So every tree that scores all columns builds the same grid
    at the root, which the memo builds once and keeps, counted codes
    included; and a root split ``x[var] <= cut`` that recurs makes the same
    children, whose grids it keeps under the key ``(var, cut, side)``, side
    0 for the left child and 1 for the right.  Deeper nodes are not kept:
    they rarely recur.

    A depth-1 grid with tied or counted columns is kept from its first
    build, without its ``codes``, which a hit gathers again from the node's
    rows, and without its stack rows, which a hit takes from the node that
    asks, so that the memo holds no array of node size below the root.  A
    ladder grid is not kept: it is its columns and ladder ranks alone, which
    rebuilding costs a few microseconds, less than a copy into the ring.  A
    kept grid is one record in a ring of ``budget`` bytes
    (``_GRID_MEMO_BYTES`` when the memo is made) in one anonymous memory
    map: a header, then the `_KEPT` fields in the narrowest integer type
    that holds any of them (``kind``).  The oldest records are dropped to
    make room.  Per kept grid the memo holds only its key and its record's
    start, and the map goes back to the system whole when the memo is freed.
    Small objects and arrays that live through a fit leave holes among the
    fitted trees' objects when they die, and the saving and loading of the
    model then allocate into them, about 2% slower on ``tied_many_trees``
    (``BENCH_grids.json``).

    ``hits`` and ``misses`` count the lookups of depth-1 grids, and ``held``
    is the bytes of the ring that the kept records take.
    """

    def __init__(self, X: PredictorMatrix, params: Hyperparams):
        self.X = X
        # the grid's cutpoint budget and minimum child size
        self.limits = (params.n_cutpoints, params.min_node_size)
        self.budget = _GRID_MEMO_BYTES
        # the type of the copies: a kept grid's integers are column ids, ranks
        # and stack keys below p * n, and level bins from -1 to below
        # p * (n + 1), n + 1 per column at most
        self.kind = np.min_scalar_type(-X.p * (X.n + 1))
        self.root: CutpointGrid | None = None
        # key -> start of its record in the ring, oldest first
        self.starts: dict[tuple, int] = {}
        self.ring: np.ndarray | None = None
        self.head = 0
        self.held = 0
        self.hits = self.misses = 0

    def grid(self, orders: np.ndarray, key: tuple) -> CutpointGrid:
        """The grid that scores every column of the node whose stack rows
        `stack_rows` names are ``orders``: ``key`` is ``()`` at the root and
        the root split's ``(var, cut, side)`` at depth 1."""
        if not key:
            if self.root is None:
                self.root = build_cutpoint_grid(self.X, orders, *self.limits)
                for a in vars(self.root).values():
                    if isinstance(a, np.ndarray):
                        a.flags.writeable = False
            return self.root
        start = self.starts.get(key)
        if start is None:
            self.misses += 1
            grid = build_cutpoint_grid(self.X, orders, *self.limits)
            if grid.ladder is None:
                self._keep(key, grid)
            return grid
        self.hits += 1
        lengths = self.ring[start : start + _HEADER].view(np.int64).tolist()[1:]
        arrays = {}
        at = start + _HEADER
        for f, n in zip(_KEPT, lengths):
            if n >= 0:
                nbytes = n * self.kind.itemsize
                arrays[f] = self.ring[at : at + nbytes].view(self.kind).astype(np.intp)
                at += _padded(nbytes)
        if "levels" in arrays:
            # the codes of the node's rows in the order of orders[0], as the
            # grid of every column gathers them
            arrays["codes"] = self.X.layout().codes.take(orders[0], axis=1)
        return CutpointGrid(**arrays, orders=orders, matrix=self.X)

    def _keep(self, key: tuple, grid: CutpointGrid) -> None:
        fields = [getattr(grid, f) for f in _KEPT]
        spans = [0 if a is None else _padded(a.size * self.kind.itemsize) for a in fields]
        size = _HEADER + sum(spans)
        if size > self.budget:
            return
        if self.ring is None:
            self.ring = np.frombuffer(mmap.mmap(-1, self.budget), dtype=np.uint8)
        if self.head + size > self.budget:
            self._drop_before(self.budget + 1)  # the rest of the last lap
            self.head = 0
        self._drop_before(self.head + size)
        start = self.head
        self.ring[start : start + _HEADER].view(np.int64)[:] = [size] + [
            -1 if a is None else a.size for a in fields
        ]
        at = start + _HEADER
        for a, span in zip(fields, spans):
            if a is not None:
                self.ring[at : at + a.size * self.kind.itemsize].view(self.kind)[:] = a
            at += span
        self.starts[key] = start
        self.held += size
        self.head = start + size

    def _drop_before(self, end: int) -> None:
        """Drop the records of the last lap that start before ``end``: they
        are the oldest and lie from the head on, in order."""
        while self.starts:
            key, start = next(iter(self.starts.items()))
            if not self.head <= start < end:
                return
            del self.starts[key]
            self.held -= int(self.ring[start : start + 8].view(np.int64)[0])


def _padded(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 8, so that every copy in a
    `GridMemo` ring is aligned."""
    return -(-nbytes // 8) * 8


class Tree:
    """One regression tree in pre-order struct-of-arrays form."""

    def __init__(self, var, value):
        self.var = np.asarray(var, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)

    @classmethod
    def single_leaf(cls, value: float = 0.0) -> "Tree":
        return cls([_LEAF], [float(value)])

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
        Each row's code is the pre-order id of its current node, in the
        narrowest unsigned type that holds every id (``uint8`` up to 256
        nodes), and starts at the root, 0.  A row reaches split ``i`` before
        the pre-order visit of ``i``, so one pass over the splits suffices:
        at split ``i`` the whole column is compared once with the cut, and
        the rows coded ``i`` add 1 to reach the left child, plus the size of
        the left subtree if they go right.  The codes then name leaves, and
        one ``take`` reads their means.

        The cost grows with rows times splits, where routing row lists down
        the tree grows with rows times the depth each row reaches.  Timed per
        tree on 10^5 rows (``BENCH_predict.json``), node codes were faster on
        the trees of the benchmark models (133 nodes at most), about even on
        a grown tree of 241 nodes, and about three times slower on the 663-
        and 891-node trees that single-tree fits grow on 10^5 rows.
        """
        var = self.var.tolist()
        code_type = np.min_scalar_type(len(var) - 1)
        code = np.zeros(X.n, dtype=code_type)
        step = np.empty_like(code)
        here = np.empty(X.n, dtype=bool)
        go_right = np.empty(X.n, dtype=bool)
        for i, (v, right) in enumerate(zip(var, _right_children(var))):
            if v == _LEAF:
                continue
            np.greater(X.columns[v], self.value[i], out=go_right)
            np.equal(code, code_type.type(i), out=here)
            np.logical_and(go_right, here, out=go_right)
            # the rows at split i step to its left child, i + 1, and those
            # going right step on by the size of the left subtree
            np.add(code, here.view(np.uint8), out=code)
            np.multiply(go_right.view(np.uint8), code_type.type(right - i - 1), out=step)
            np.add(code, step, out=code)
        return self.value.take(code)

    def to_records(self) -> list[list]:
        """Pre-order node records: ``["split", var, cut]`` / ``["leaf", value]``."""
        return [
            ["leaf", x] if v == _LEAF else ["split", v, x]
            for v, x in zip(self.var.tolist(), self.value.tolist())
        ]

    @classmethod
    def from_records(
        cls, records: list, n_features: int, largest_leaves: list | None = None
    ) -> "Tree":
        """Rebuild a tree from its pre-order records, validating as it goes.

        Node ``i`` is record ``i``.  The records owe one node, the root; each
        record pays one and each split owes two more.  A record that arrives
        when none is owed trails the root subtree, and a debt left at the end
        means the list was cut short.  When ``largest_leaves`` is a list, the
        tree's largest ``|leaf value|`` is appended to it.
        """
        if not isinstance(records, list) or not records:
            raise ModelFormatError("tree record list is empty or not a list")
        var, value = [], []
        largest = 0.0
        owed = 1
        for pos, rec in enumerate(records):
            if not owed:
                raise ModelFormatError(
                    f"{len(records) - pos} trailing tree records after the root subtree"
                )
            owed -= 1
            if not isinstance(rec, (list, tuple)) or not rec:
                raise ModelFormatError(f"malformed tree record at {pos}: {rec!r}")
            tag = rec[0]
            if tag == "leaf":
                if len(rec) != 2:
                    raise ModelFormatError(f"leaf record needs 1 value: {rec!r}")
                leaf = _finite(rec[1], "leaf value", pos)
                var.append(_LEAF)
                value.append(leaf)
                if abs(leaf) > largest:
                    largest = abs(leaf)
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
                owed += 2
            else:
                raise ModelFormatError(f"unknown tree record tag {tag!r}")
        if owed:
            raise ModelFormatError("tree records truncated mid-subtree")
        if largest_leaves is not None:
            largest_leaves.append(largest)
        return cls(var, value)


def _right_children(var: list[int]) -> list[int]:
    """The right child of every split of a pre-order ``var`` list; 0 on a leaf.

    The node after a leaf is the right child of the latest split whose right
    child is still missing.
    """
    right = [0] * len(var)
    waiting = []
    for i, v in enumerate(var):
        if i and var[i - 1] == _LEAF:
            right[waiting.pop()] = i
        if v != _LEAF:
            waiting.append(i)
    return right


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
    ranks: np.ndarray | None = None,
    grid_memo: GridMemo | None = None,
) -> Tree:
    """Grow one tree from the root over all rows of ``X``.

    A node scores the cutpoint grid of its scored columns, which needs the
    node's rows sorted by each scored sorted column (see `ColumnLayout`);
    counted columns need only the rows.  When ``var_weights`` and ``ranks``
    are both given, the tree *filters*: a node holds only the first row of
    its stack, its rows in column-0 order, and `node_orders` takes the drawn
    sorted columns' orders from the root stack: by sorting the node's ranks
    in them (O(mtry·m log m)) on a small node, by filtering the root orders
    (O(mtry·n)) on a large one.  Every other tree holds each node's whole
    ``(s, m)`` stack.  Either way `sift` splits the node's stack into its
    children's (O(m) or O(s·m) per split), and both paths give the same
    orders, sums and draws; the leaf sums run over the rows in column-0
    order either way.

    Parameters
    ----------
    index : ndarray, shape (s, n)
        The root's stack, `presort` of ``X``.
    residuals : ndarray over all n rows
        Partial residuals this tree should fit, indexed by row id.
    params : Hyperparams
        Read for ``alpha``, ``beta``, ``max_depth``, ``min_node_size``,
        ``mtry`` and ``n_cutpoints``, the last of which must be resolved.
    var_weights : optional probability vector over all p columns
        When given, each node scores ``params.mtry`` columns drawn from it
        without replacement; ``None`` scores every column.
    fitted_out : length-n array
        Filled in place with the grown tree's fitted value for every row
        (cheaper than re-evaluating the tree afterwards).
    ranks : ndarray, shape (s, n), optional
        `rank_table` of ``index``.  Given with ``var_weights``, it makes the
        tree filter its node orders; the sampler builds it only when
        `filters` says that pays.  It is not read otherwise.
    grid_memo : GridMemo, optional
        The fit's memo of recurring grids, made for ``X`` and ``params``.  A
        tree that scores every column (``var_weights`` is None) takes its
        root's grid and its depth-1 nodes' grids from it, keyed by the root
        split; the grids, and so the draws, are the same as without it.  A
        tree that draws its columns does not read or write it.

    Returns the grown tree with all leaf means sampled.
    """
    if not 0.0 < sigma2 < math.inf:
        raise DataError(f"noise variance must be positive and finite, got {sigma2}")
    if not 0.0 <= tau < math.inf:
        raise DataError(f"leaf prior variance must be non-negative and finite, got {tau}")
    filtering = var_weights is not None and ranks is not None
    # the rows of a node stack that score every column: a view
    every = slice(int(stack_rows(X)[0]), None)
    memo = grid_memo if var_weights is None else None
    var_l: list[int] = []
    value_l: list[float] = []
    # (node, depth, key), where a node is its stack, or only its first row
    # when filtering, and key its `GridMemo` key, None below depth 1; the
    # left child is pushed last so it is grown first, which keeps the nodes
    # in pre-order
    stack = [(index[:1] if filtering else index, 0, ())]
    while stack:
        node, depth, key = stack.pop()
        rows = node[0]
        m = rows.size
        total = float(residuals[rows].sum())
        choice = None
        if depth < params.max_depth - 1 and m >= max(2, 2 * params.min_node_size):
            chosen, orders = None, node[every]
            if var_weights is not None:
                chosen = np.sort(
                    rng.choice(X.p, size=params.mtry, replace=False, p=var_weights)
                )
                wanted = stack_rows(X, chosen)
                orders = node_orders(index, ranks, rows, wanted) if filtering else node[wanted]
            if memo is not None and key is not None:
                grid = memo.grid(orders, key)
            else:
                grid = build_cutpoint_grid(
                    X, orders, params.n_cutpoints, params.min_node_size, variables=chosen
                )
            if len(grid):
                scores = scan_candidates(
                    X,
                    orders,
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
        if choice is None:
            mu = sample_leaf_value(total, m, sigma2, tau, rng)
            var_l.append(_LEAF)
            value_l.append(mu)
            fitted_out[rows] = mu
            continue
        var_l.append(choice.var)
        value_l.append(choice.value)
        left, right = sift(X, node, choice.var, choice.value)
        root = depth == 0
        stack.append((right, depth + 1, (choice.var, choice.value, 1) if root else None))
        stack.append((left, depth + 1, (choice.var, choice.value, 0) if root else None))
    return Tree(var_l, value_l)

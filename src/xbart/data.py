"""Column-oriented training data and the presorted-index machinery.

The tree sampler never re-sorts observations while a tree grows.  Columns
come in two kinds (`LevelCodes`).  A *counted* column has ties and few
distinct values: every row gets an integer level code once per fit, and a
node summarises the column by counting its rows' codes.  Every other column
is *sorted*: its observation order is computed once at the root
(``presort``), and a node's ordering of it is that root order with the rows
outside the node left out: the node's row ids sorted by the column, ties
broken by original row order.

A node's *stack* holds its rows in column-0 order, then its orderings of
the sorted columns after column 0; counted columns need none.  ``sift``
partitions a node's ``(s, m)`` stack into its children's, which stay
sorted, at O(s·m) per split, a cache-sized block of whole stack rows
(``_STACK_BLOCK`` entries) at a time.  A tree whose nodes score few of many
columns keeps only row 0 of each node's stack, so its splits sift one row,
and ``node_orders`` builds the ``(k, m)`` orderings of just the ``k``
sorted columns a node scores from the root stack: a node of fewer than
``_SORT_SHARE * n`` rows sorts its rows' positions in the root orders
(`rank_table`), at O(k·m log m), and a larger one filters the root orders,
at O(k·n).  The grid and the scan take one ordering row per scored sorted
column either way (`stack_rows`).

A tie-free column's order is unique, so ``presort`` sorts it with numpy's
fast default argsort; a tied sorted column, and column 0 when it is
counted, is stable-sorted through the small-integer dense ranks of its
values, which numpy radix-sorts.  Both give the one stable order.

Cutpoint candidates are expressed as *ranks* into a column's node ordering:
candidate rank ``h`` for variable ``v`` means the left child takes sorted
positions ``0..h`` inclusive.  Ranks always point at the end of a tie run,
so the partition produced by ``sift`` is identical to evaluating ``x[v] <=
cut`` — ties at the cut go left.  A node's grid starts every column from a
ladder of evenly spaced base ranks; every tie-free column is continuous, so
all of them share one ladder and keep its ranks, while the other sorted
columns (each with its own ladder) have their values gathered in one block
and their base ranks moved to run ends in one pass.  When every scored
column is tie-free, the candidates form one block of columns by ladder
ranks, which the grid hands to the scan as such (`CutpointGrid.ladder`).
A counted column's run ends are its levels' cumulative counts at the node,
from one `np.bincount` over all counted columns, so it needs no ordering to
give the same ranks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

# Rows per block of PredictorMatrix's transposing copy (BENCH_ingest.json).
_COPY_BLOCK = 512

# Entries per block of a node stack that `sift` and the scan's residual gather
# work on at once: max(1, _STACK_BLOCK // m) whole stack rows of a node of m
# rows, so that a block's flags, positions and gathered residuals stay in the
# L2 cache (sweep from 2**14 to 2**18 in BENCH_blocks.json).
_STACK_BLOCK = 2**16

# `node_orders` sorts the ranks of a node of fewer than this share of the n
# rows, and filters the root stack for a larger one (BENCH_orders.json).
_SORT_SHARE = 0.4

# A column with ties and at most this many distinct values is counted at each
# node instead of sorted (crossover measured in BENCH_levels.json).
_COUNT_LEVELS = 1024


def _numeric(values) -> np.ndarray:
    """``values`` as an array of a bool, integer or float dtype.

    Strings, objects and mixed lists are parsed as a whole, so ``[True,
    "1"]`` reads as two ones whatever the shape it arrives in.
    """
    try:
        # checked first: the float cast would keep only the real part
        if np.iscomplexobj(values):
            raise DataError("predictors are complex; pass their real or imaginary part")
        out = np.asarray(values)
        # floats wider than float64 are cast here, so that a value which
        # overflows to inf in the float64 copy is seen by its finite check
        if out.dtype.kind not in "biuf" or out.dtype.itemsize > 8:
            out = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"predictors are not numeric: {exc}") from None
    return out


def as_rows(X) -> np.ndarray:
    """``X`` as a numeric ``(n, p)`` array of rows; a 1-d array is one column."""
    X = _numeric(X)
    return X[:, None] if X.ndim == 1 else X


class PredictorMatrix:
    """Numeric feature table stored column-major with per-column kind flags.

    Parameters
    ----------
    columns : ndarray, shape (p, n)
        One row per variable.  Stored as a read-only contiguous float64 copy,
        so per-variable gathers in the sampler hot path touch contiguous
        memory and facts derived from the values cannot go stale.  The copy
        is made a block of rows at a time, with each block checked for finite
        values and then cast as it is written: one read and one write of the
        data, and no full-size temporary for float32, integer or bool input.
    categorical : sequence of bools or 0/1 ints, one per stored column, optional
        Marks columns whose distinct values are treated as unordered levels
        for cutpoint-grid purposes.  Stored as a read-only copy.  Default: all
        continuous.
    names : sequence of str, one per stored column, optional
        Column names, kept for CSV round-trips and error messages.
    keep : sorted column ids, optional
        Store only these rows of ``columns``; ``FittedModel.predict`` passes
        the columns its trees split on.  The ids must be distinct, ascending
        and inside ``0..p-1``; an entry that is not raises a `DataError`
        naming it.  Every column is still checked for finite values, and a
        cell at fault is named by its place in ``columns``.  Default: store
        every column.
    """

    def __init__(self, columns, categorical=None, names=None, keep=None):
        src = _numeric(columns)
        if src.ndim != 2:
            raise DataError(f"expected a 2-d column block, got ndim={src.ndim}")
        p, n = src.shape
        if n < 1 or p < 1:
            raise DataError(f"need at least one row and one column, got n={n}, p={p}")
        if keep is not None:
            keep = _checked_variables(keep, p, "keep")
            down = np.flatnonzero(keep[1:] < keep[:-1])
            if down.size:
                i = down[0] + 1
                raise DataError(
                    f"keep[{i}] is {keep[i]}, below keep[{i - 1}] = {keep[i - 1]}; "
                    "keep lists column ids in ascending order"
                )
        # Copied _COPY_BLOCK rows at a time: a block of row-major input is one
        # contiguous read whose p column pieces stay cached while the block is
        # checked for finite values and its kept columns are written.
        cols = np.empty((p if keep is None else len(keep), n), dtype=np.float64)
        finite = True
        for lo in range(0, n, _COPY_BLOCK):
            part = src[:, lo : lo + _COPY_BLOCK]
            finite = finite and np.isfinite(part).all()
            cols[:, lo : lo + _COPY_BLOCK] = part if keep is None else part[keep]
        if not finite:
            var, row = np.argwhere(~np.isfinite(src))[0]
            raise DataError(
                f"column {var}, row {row} is {src[var, row]}; "
                "missing data must be handled before ingestion"
            )
        p = cols.shape[0]
        flags = np.array(
            np.zeros(p, dtype=bool) if categorical is None else categorical, dtype=object
        )
        if flags.shape != (p,):
            raise DataError(f"categorical flags have shape {flags.shape}, expected ({p},)")
        for j, flag in enumerate(flags):
            if not isinstance(flag, (int, np.integer, np.bool_)) or flag not in (0, 1):
                raise DataError(
                    f"categorical flag of column {j} is {flag!r}, expected a bool, 0 or 1"
                )
        categorical = flags.astype(bool)
        if names is not None:
            names = [str(s) for s in names]
            if len(names) != p:
                raise DataError(f"{len(names)} names for {p} columns")
        # facts derived from the columns and flags, such as the tie-free
        # mask, are kept for the object's lifetime, so neither may change
        cols.flags.writeable = categorical.flags.writeable = False
        self.columns = cols
        self.categorical = categorical
        self.names = names
        self._tie_free: np.ndarray | None = None
        self._ranks: dict | None = None
        self._counted: np.ndarray | None = None
        self._levels: LevelCodes | None = None

    @classmethod
    def from_rows(cls, X, categorical=None, names=None, keep=None) -> "PredictorMatrix":
        """Build from the usual (n, p) row-major design matrix.

        ``keep`` stores only those columns, as in the constructor.
        """
        return cls(as_rows(X).T, categorical=categorical, names=names, keep=keep)

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @property
    def p(self) -> int:
        return self.columns.shape[0]

    def tie_free_columns(self) -> np.ndarray:
        """Read-only boolean mask of continuous columns with no repeated values.

        Such a column has one sorted order, so `presort` may use an unstable
        sort on it, and the cutpoint grid keeps its base ranks as they are,
        without gathering its values; this is the common case for continuous
        data.  Computed on the first call; later calls return the same
        array.
        """
        if self._tie_free is None:
            out = np.zeros(self.p, dtype=bool)
            for j in range(self.p):
                if not self.categorical[j]:
                    col = np.sort(self.columns[j])
                    out[j] = bool(np.all(col[1:] != col[:-1]))
            out.flags.writeable = False
            self._tie_free = out
        return self._tie_free

    def dense_ranks(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{column: (levels, ranks)}`` for every column with ties.

        ``levels`` are the column's distinct values, ascending, with signed
        zeros as one, and ``ranks`` each row's position among them in the
        narrowest unsigned type, from one ``np.unique`` per column that
        `tie_free_columns` does not mark.  `presort` sorts the ranks and
        `level_codes` builds on them.  Computed on the first call; later
        calls return the same dict.
        """
        if self._ranks is None:
            self._ranks = {}
            for j in np.flatnonzero(~self.tie_free_columns()):
                levels, ranks = np.unique(self.columns[j], return_inverse=True)
                ranks = ranks.astype(np.min_scalar_type(levels.size - 1))
                levels.flags.writeable = ranks.flags.writeable = False
                self._ranks[int(j)] = levels, ranks
        return self._ranks

    def counted_columns(self) -> np.ndarray:
        """Read-only boolean mask of the columns counted at each node.

        These are the columns with ties and at most ``_COUNT_LEVELS``
        distinct values (see `LevelCodes`).  Computed on the first call;
        later calls return the same array.
        """
        if self._counted is None:
            out = np.zeros(self.p, dtype=bool)
            for j, (levels, _) in self.dense_ranks().items():
                out[j] = levels.size <= _COUNT_LEVELS
            out.flags.writeable = False
            self._counted = out
        return self._counted

    def level_codes(self) -> LevelCodes:
        """The level codes of the counted columns; see `LevelCodes`.

        Computed on the first call, from `dense_ranks`; later calls return
        the same object.
        """
        if self._levels is None:
            self._levels = _level_codes(self)
        return self._levels

    def __repr__(self) -> str:
        n_cat = int(self.categorical.sum())
        return f"PredictorMatrix(n={self.n}, p={self.p}, categorical={n_cat})"


@dataclass(frozen=True)
class LevelCodes:
    """Integer level codes of the columns that are counted at each node.

    A column is *counted* when it has ties (`PredictorMatrix.tie_free_columns`
    does not mark it) and at most ``_COUNT_LEVELS`` distinct values; signed
    zeros are one value.  Every other column is *sorted*: a node holds its
    rows in that column's order.  A counted column needs no order, because
    per-level counts over a node's rows give the ends of its tie runs.

    Slot ``s`` holds the ``s``-th counted column, ``columns[s]``, in
    ``width`` bins: bin ``s * width`` stays empty and bin ``s * width + 1 +
    k`` holds the column's ``k``-th smallest value, ``values`` of that bin.
    ``codes[s, r]`` is the bin of row ``r``'s value, so one `np.bincount`
    over the codes of a node's rows counts the levels of every counted
    column at once, and a prefix sum over a slot's bins gives each level's
    cumulative count.  ``slot[v]`` is the slot of column ``v``, -1 for a
    sorted column; ``sorted_columns`` lists the sorted columns, and
    ``categorical_bins`` marks the bins of categorical slots (None when no
    counted column is categorical).  Both signed zeros make one level,
    whose value is +0.0.

    A node stack holds one order per row: row 0 lists the node's rows in
    column-0 order, and the next rows order them by each sorted column other
    than column 0, ascending.  ``stack_row[v]`` is the row of column ``v``
    (0 for column 0, -1 for another counted column).
    """

    counted: np.ndarray
    columns: np.ndarray
    sorted_columns: np.ndarray
    slot: np.ndarray
    width: int
    categorical_bins: np.ndarray | None
    codes: np.ndarray
    values: np.ndarray
    stack_row: np.ndarray


def _in_stack(counted: np.ndarray) -> np.ndarray:
    """Boolean mask of the columns whose orders a node stack holds: column 0
    and every column that ``counted`` does not mark."""
    in_stack = ~counted
    in_stack[0] = True
    return in_stack


def _level_codes(X: PredictorMatrix) -> LevelCodes:
    counted = X.counted_columns()
    columns = np.flatnonzero(counted)
    found = [X.dense_ranks()[j] for j in columns]
    width = 1 + max((levels.size for levels, _ in found), default=0)
    first = np.arange(columns.size) * width + 1  # each slot's smallest level
    codes = np.array([ranks for _, ranks in found], dtype=np.intp).reshape(columns.size, X.n)
    codes += first[:, None]
    values = np.zeros(columns.size * width)
    for bin_, (levels, _) in zip(first, found):
        values[bin_ : bin_ + levels.size] = levels
    values += 0.0  # a zero level's value is +0.0, as a sorted column's cut is
    in_stack = _in_stack(counted)
    stack_row = np.where(in_stack, np.cumsum(in_stack) - 1, -1)
    slot = np.where(counted, np.cumsum(counted) - 1, -1)
    sorted_columns = np.flatnonzero(~counted)
    categorical_bins = X.categorical[columns].repeat(width)
    if not categorical_bins.any():
        categorical_bins = None
    for a in (columns, sorted_columns, slot, codes, values, stack_row):
        a.flags.writeable = False
    return LevelCodes(
        counted, columns, sorted_columns, slot, width, categorical_bins, codes, values, stack_row
    )


def presort(X: PredictorMatrix) -> np.ndarray:
    """The root's node stack: row ids sorted, stably, for the root node.

    Returns an ``(s, n)`` integer array laid out as `LevelCodes` describes:
    row 0 is the stable argsort of column 0, and the other rows are those of
    the sorted columns after it, so with no counted column it is
    ``np.argsort(X.columns, axis=1, kind="stable")``.  A column that
    `X.tie_free_columns` marks has one sorted order only, so numpy's default
    argsort (SIMD-vectorised where the CPU allows) returns exactly it.  A
    tied column is sorted through its `X.dense_ranks`, which keep its order
    and its ties (signed zeros are one level) in the narrowest unsigned type
    that holds them; numpy's stable sort radix-sorts such keys up to 16 bits
    wide.  The counted columns' codes are not built here but at the first
    `X.level_codes` call.
    """
    tied = X.dense_ranks()
    columns = np.flatnonzero(_in_stack(X.counted_columns()))
    out = np.empty((columns.size, X.n), dtype=np.intp)
    for i, j in enumerate(columns):
        if j in tied:
            out[i] = np.argsort(tied[j][1], kind="stable")
        else:
            out[i] = np.argsort(X.columns[j])
    return out


def stack_rows(X: PredictorMatrix, variables: np.ndarray | None = None) -> np.ndarray:
    """The rows of a node stack that `build_cutpoint_grid` reads for ``variables``.

    These are the stack rows of the scored sorted columns, in the order of
    ``variables`` (default: all columns), or row 0 alone, which lists the
    node's rows, when every scored column is counted.
    """
    levels = X.level_codes()
    counted = levels.counted if variables is None else levels.counted[variables]
    rows = (levels.stack_row if variables is None else levels.stack_row[variables])[~counted]
    return rows if rows.size or not counted.any() else np.zeros(1, dtype=np.intp)


def sift(
    X: PredictorMatrix, index: np.ndarray, var: int, cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """Partition a stack of one node's orders into its children's stacks.

    Rows with ``X[var] <= cut`` go left.  ``index`` may be any ``(k, m)``
    stack of orderings of the node's ``m`` rows, such as the node stack of
    `LevelCodes`; ``var`` need not be one of its columns.  The flag of every
    entry of the stack is looked up once, and each child keeps the entries
    of the flattened stack that its flags select; every row of the output
    keeps its order, because selection preserves order.  A stack of at most
    ``n / 2`` entries compares the split column's values gathered through
    it, and a larger one gathers the flags of the whole column's compare, so
    a small node's split costs O(k·m), not O(n); the two cost the same at
    about a third to a half of ``n`` entries (``BENCH_orders.json``).

    The stack is walked in blocks of ``max(1, _STACK_BLOCK // m)`` whole
    rows, so that a block's flags, selected positions and entries stay in
    the L2 cache: a stack of many large rows would otherwise stream
    temporaries several times its own size through memory.  Such a stack
    gets both children allocated once; each block makes one flag ``take``,
    and per child one ``np.flatnonzero`` and one ``take`` that writes
    straight into the child's rows of that block.  A stack that fits in one
    block, as every small node's does, is split by one flag ``take`` and
    one ``compress`` per child, which takes up to 4 µs less per call
    (``BENCH_blocks.json``, ``one_block_paths``).

    Raises
    ------
    DataError
        If the cut sends every row to one side, counted on row 0.
        Degenerate splits are rejected upstream by grid construction;
        reaching this is a bug.
    """
    k, m = index.shape
    step = max(1, _STACK_BLOCK // m)
    if step >= k and 2 * k * m <= X.n:
        # the same flags from the stack's own values, in at most n/2 compares
        goes_left = (X.columns[var].take(index) <= cut).ravel()
    else:
        flags = X.columns[var] <= cut
        goes_left = flags.take(index[:step]).ravel()
    n_left = int(np.count_nonzero(goes_left[:m]))
    if n_left == 0 or n_left == m:
        raise DataError(
            f"cut {cut!r} on variable {var} does not split the node (m={m})"
        )
    if step >= k:
        flat = index.ravel()
        return (
            np.compress(goes_left, flat).reshape(k, n_left),
            np.compress(~goes_left, flat).reshape(k, m - n_left),
        )
    n_right = m - n_left
    left = np.empty((k, n_left), dtype=index.dtype)
    right = np.empty((k, n_right), dtype=index.dtype)
    to_left, to_right = left.reshape(-1), right.reshape(-1)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        if lo:
            goes_left = flags.take(index[lo:hi]).ravel()
        flat = index[lo:hi].ravel()
        # "clip" lets take write straight into the child: with the default
        # "raise" it fills a temporary copy first, as compress does
        to = to_left[lo * n_left : hi * n_left]
        flat.take(np.flatnonzero(goes_left), out=to, mode="clip")
        np.logical_not(goes_left, out=goes_left)
        to = to_right[lo * n_right : hi * n_right]
        flat.take(np.flatnonzero(goes_left), out=to, mode="clip")
    return left, right


def rank_table(root_index: np.ndarray) -> np.ndarray:
    """The inverse of a root stack: ``ranks[i, root_index[i, r]] = r``.

    Entry ``[i, v]`` is row ``v``'s position in stack row ``i``, in the
    narrowest unsigned type that holds ``n - 1``, so that `node_orders`
    sorts a node's ranks as small integers.  Read-only.
    """
    s, n = root_index.shape
    ranks = np.empty((s, n), dtype=np.min_scalar_type(n - 1))
    positions = np.arange(n, dtype=ranks.dtype)
    for i in range(s):
        ranks[i, root_index[i]] = positions
    ranks.flags.writeable = False
    return ranks


def node_orders(
    root_index: np.ndarray, ranks: np.ndarray, rows: np.ndarray, root_rows: np.ndarray
) -> np.ndarray:
    """A node's rows ``root_rows`` of its stack, from the root's stack.

    Returns a ``(k, m)`` integer array for the ``k`` entries of
    ``root_rows`` and the node's ``m`` distinct row ids ``rows``: row ``i``
    is ``root_index[root_rows[i]]`` with every row outside the node left
    out, the same array that sifting the root stack down to the node gives
    in row ``root_rows[i]``.  ``ranks`` is `rank_table` of ``root_index``.

    A node of fewer than ``_SORT_SHARE * n`` rows gathers its rows' ranks
    in each of the ``k`` orders, sorts them, and takes the root stack at
    the sorted ranks: ranks are distinct, so that is the root order with
    the other rows left out, at O(k·m log m).  A larger node gathers one
    membership mask over all ``n`` rows through the ``k`` root orders and
    keeps its entries with one ``compress``, at O(k·n), which is cheaper
    there; a node of all ``n`` rows takes the root's orders as they are.
    """
    n, m = root_index.shape[1], len(rows)
    if m == n:
        return root_index.take(root_rows, axis=0)
    if m < _SORT_SHARE * n:
        at = (root_rows * n)[:, None]
        found = ranks.take(at + rows)
        found.sort(axis=1)
        return root_index.take(found + at)
    member = np.zeros(n, dtype=bool)
    member[rows] = True
    orders = root_index.take(root_rows, axis=0)
    return np.compress(member.take(orders).ravel(), orders.ravel()).reshape(len(root_rows), m)


@dataclass(frozen=True)
class CutpointGrid:
    """Flat list of candidate cutpoints for one node.

    ``var_ids[i]`` is the column index of candidate ``i``; ``ranks[i]`` its
    position in that column's node ordering (left child = sorted positions
    ``0..ranks[i]``); ``values[i]`` the cut value at that rank.  Candidates
    are grouped by column, ranks ascending within each column;
    `scan_candidates` relies on this grouping to find each column's first
    candidate without sorting.

    When a scored column is counted, ``levels[i]`` is the bin of candidate
    ``i``'s level in `LevelCodes.values`, or -1 for a candidate in a sorted
    column, and ``codes`` holds the bins of the node's rows in each counted
    column that was scored, one row per column; the scan sums residuals over
    those bins.  Both are None when no scored column is counted.

    ``ladder`` holds the ranks that every column's candidates share when
    every scored column is tie-free: the candidates are then a block of one
    row per column and one entry per ladder rank, which `scan_candidates`
    scores as such.  It is None when a scored column has ties or is counted.

    ``keys`` places the candidates in sorted columns in the node stack that
    the grid was built from, when ``ladder`` is None: ``keys[i]`` is ``row *
    m + rank`` for the ``i``-th of them, in grid order, where ``row`` is the
    stack row that orders the node's ``m`` rows by its column.  It is None
    on a ladder grid and on a grid of counted columns alone.
    """

    var_ids: np.ndarray
    ranks: np.ndarray
    values: np.ndarray
    levels: np.ndarray | None = None
    codes: np.ndarray | None = None
    ladder: np.ndarray | None = None
    keys: np.ndarray | None = None

    def __len__(self) -> int:
        return self.var_ids.size


def build_cutpoint_grid(
    X: PredictorMatrix,
    index: np.ndarray,
    budget: int,
    min_node_size: int = 1,
    variables: np.ndarray | None = None,
) -> CutpointGrid:
    """Assemble the adaptive cutpoint grid for one node of ``m`` rows.

    ``index`` holds the rows of the node's stack that `stack_rows` names:
    row ``i`` orders the node's rows by the ``i``-th scored sorted column
    (see `LevelCodes`), in the order of ``variables``; when every scored
    column is counted, its one row lists the node's rows.  Every scored
    column starts from a ladder of base ranks ``0, j, 2j, ...`` into its
    node ordering, ``count`` of them.  A continuous column in a node with
    more than ``budget`` interior values (``m - 2 > budget``) is strided:
    ``count = budget`` and ``j = (m - 2) // budget``.  Every other column
    (all columns of a smaller node, and categorical columns always) takes
    every rank ``0 .. m - 2``.  Each base rank moves to the end of its tie
    run, and the distinct results inside ``[min_node_size - 1, m - 1 -
    min_node_size]`` are the candidate ranks; the node maximum never
    qualifies, so both children are non-empty.  Candidates are grouped by
    column in the order of ``variables``, ranks ascending.

    The columns that `X.tie_free_columns` marks are continuous, so they all
    share the node's one ladder and keep its ranks without gathering their
    values; when every scored column is one of them, the grid keeps the
    ladder's ranks as ``ladder`` for the scan, and otherwise it places each
    sorted candidate in ``index`` by its ``keys``.  The values of the other
    sorted columns are gathered at once, and their run ends are found in
    one pass over that gather.  The levels
    of all counted columns are counted with one `np.bincount` over the codes
    of the node's rows (row 0 of ``index``); each level's cumulative count
    is the end of its tie run, with no order needed.  Both give the same
    candidates, and a counted candidate's value is its level's.  A zero cut
    is +0.0 on either path, whatever the sign of the zeros in its column:
    ``x <= -0.0`` and ``x <= +0.0`` make the same partition, so a fit does
    not depend on those signs.

    Parameters
    ----------
    variables : optional int array
        Score only these distinct columns (the per-node mtry draw), in any
        order.  Default: all.

    Raises
    ------
    DataError
        If ``budget`` or ``min_node_size`` is below 1, an entry of
        ``variables`` repeats or lies outside ``0..p-1``, or ``index`` does
        not hold the rows that `stack_rows` names.
    """
    if budget < 1:
        raise DataError(f"cutpoint budget must be >= 1, got {budget}")
    if min_node_size < 1:
        raise DataError(f"min_node_size must be >= 1, got {min_node_size}")
    levels = X.level_codes()
    sorted_vars, counted_vars = levels.sorted_columns, levels.columns
    if variables is not None:
        sorted_vars = variables = _checked_variables(variables, X.p)
        if counted_vars.size:
            counted = levels.counted[variables]
            sorted_vars, counted_vars = variables[~counted], variables[counted]
    n_rows = sorted_vars.size or min(counted_vars.size, 1)
    if index.ndim != 2 or index.shape[0] != n_rows:
        raise DataError(
            f"node index has shape {index.shape}, expected one row for each of "
            f"{sorted_vars.size} scored sorted columns, or one listing the node's "
            "rows when every scored column is counted"
        )
    m = index.shape[1]
    lo, hi = min_node_size - 1, m - 1 - min_node_size
    count, j = (budget, (m - 2) // budget) if m - 2 > budget else (m - 1, 1)
    grid = None
    if counted_vars.size:
        grid = _counted_candidates(
            X, index[0], None if variables is None else counted_vars, count, j, lo, hi
        )
        if not sorted_vars.size:
            return grid
    var_ids, ranks, values, ladder, keys = _sorted_candidates(
        X, index, sorted_vars, count, j, lo, hi
    )
    if grid is None:
        return CutpointGrid(var_ids, ranks, values, ladder=ladder, keys=keys)
    if keys is None:  # the keys of the ladder block, row by row
        keys = (np.arange(sorted_vars.size)[:, None] * m + ladder).ravel()
    # interleave both groups by position in variables, then rank
    pos = np.arange(X.p)
    if variables is not None:
        pos[variables] = np.arange(variables.size)
    order = np.argsort(
        np.concatenate((pos[var_ids], pos[grid.var_ids])) * m
        + np.concatenate((ranks, grid.ranks))
    )
    return CutpointGrid(
        *(
            np.concatenate(pair).take(order)
            for pair in (
                (var_ids, grid.var_ids),
                (ranks, grid.ranks),
                (values, grid.values),
                (np.full(var_ids.size, -1), grid.levels),
            )
        ),
        grid.codes,
        keys=keys,
    )


def _sorted_candidates(X, index, variables, count, j, lo, hi):
    """``(var_ids, ranks, values, ladder, keys)`` of the sorted columns
    ``variables``, whose node orders are the rows of ``index``: ``ladder``
    when they are all tie-free, else ``keys``, and the other None."""
    m = index.shape[1]
    tied = np.flatnonzero(~X.tie_free_columns()[variables])
    # the tie-free columns keep the in-range ranks of the one continuous ladder
    base = np.arange(count) * j
    kept = base[(base >= lo) & (base <= hi)]
    if not tied.size:
        # the candidates are a (columns, ranks) block, row by row
        var_ids = variables.repeat(kept.size)
        values = X.columns.take(var_ids * X.n + index[:, kept].ravel())
        return var_ids, np.tile(kept, variables.size), values + 0.0, kept, None
    # candidate keys ``row of index * m + rank``
    free = np.ones(variables.size, dtype=bool)
    free[tied] = False
    keys = (np.flatnonzero(free)[:, None] * m + kept).ravel()
    cols = variables[tied]
    # a categorical column takes every rank even in a strided node
    counts = np.where(X.categorical[cols], m - 1, count)
    steps = np.where(X.categorical[cols], 1, j)
    sv = X.columns.take(index[tied] + X.n * cols[:, None])
    run_end = np.ones(sv.shape, dtype=bool)
    np.not_equal(sv[:, 1:], sv[:, :-1], out=run_end[:, :-1])
    row, end = np.divmod(np.flatnonzero(run_end), m)
    # base ranks at or before each run end, plus those of earlier rows:
    # it rises from one run end to the next exactly when the run between
    # them holds a base rank, which then moves to that end
    held = np.minimum(end // steps[row] + 1, counts[row])
    held += (np.cumsum(counts) - counts)[row]
    keep = held > np.concatenate(([0], held[:-1]))
    keep &= (end >= lo) & (end <= hi)
    tied_keys = tied[row[keep]] * m + end[keep]
    merged = np.concatenate((keys, tied_keys))
    keys = np.sort(merged) if keys.size and tied_keys.size else merged
    var_ids = variables[keys // m]
    # adding 0.0 turns a -0.0 cut into +0.0 and leaves every other value as is
    values = X.columns.take(var_ids * X.n + index.take(keys)) + 0.0
    return var_ids, keys % m, values, None, keys


def _counted_candidates(X, rows, variables, count, j, lo, hi) -> CutpointGrid:
    """The grid of the counted columns ``variables`` at the node of ``rows``;
    ``None`` scores every counted column, in slot order.  A candidate's value
    is its level's entry of `LevelCodes.values`, so a zero cut is +0.0
    whichever zeros the node's rows hold."""
    levels = X.level_codes()
    m, width = rows.size, levels.width
    if variables is None:
        variables = levels.columns
        codes = levels.codes.take(rows, axis=1)
        tally = np.bincount(codes.ravel(), minlength=levels.values.size)
        bins = None
    else:
        slots = levels.slot[variables]
        codes = levels.codes.take((slots * X.n)[:, None] + rows)
        # the scored slots' bins, in the order of variables
        bins = ((slots * width)[:, None] + np.arange(width)).ravel()
        tally = np.bincount(codes.ravel(), minlength=levels.values.size).take(bins)
    # a slot's counts sum to m, so the running count over all bins, mod m,
    # is one past the end of each level's tie run within its column; it is 0
    # in each slot's empty first bin and from its last level on
    ends = np.cumsum(tally) % m
    held = ends
    if count < m - 1:
        # base ranks at or before each level's end; a categorical column
        # takes every rank even in a strided node
        held = np.minimum((ends - 1) // j + 1, count)
        if bins is None:
            cat = levels.categorical_bins
        else:
            cat = X.categorical[variables]
            cat = cat.repeat(width) if cat.any() else None
        if cat is not None:
            held = np.where(cat, ends, held)
    # a level is a candidate when it holds a base rank, so that the number
    # at or before its end rises from the previous bin's
    keep = held[1:] > held[:-1]
    if lo:
        keep &= (ends[1:] > lo) & (ends[1:] <= hi + 1)
    at = np.flatnonzero(keep) + 1
    ranks = ends.take(at) - 1
    var_ids = variables.take(at // width)
    if bins is not None:
        at = bins.take(at)
    return CutpointGrid(var_ids, ranks, levels.values.take(at), at, codes)


def _checked_variables(variables, p: int, name: str = "variables") -> np.ndarray:
    """``variables`` as an ``intp`` array of distinct column ids in ``0..p-1``.

    A range check, then one `np.bincount`: O(p) and no sort, because it runs
    at every node that scores a subset of the columns.  Entries must be
    integers in a flat sequence: a cast would truncate ``0.5`` to column 0.
    An entry at fault is named as an item of ``name``.
    """
    variables = np.asarray(variables)
    if variables.ndim != 1:
        raise DataError(f"{name} must be 1-d, got shape {variables.shape}")
    # an empty list arrives as float64 and names no column
    if variables.size and variables.dtype.kind not in "iu":
        raise DataError(f"{name} must be integer column ids, got dtype {variables.dtype}")
    variables = variables.astype(np.intp, copy=False)
    outside = np.flatnonzero((variables < 0) | (variables >= p))
    if outside.size:
        i = outside[0]
        raise DataError(f"{name}[{i}] is {variables[i]}, outside 0..{p - 1}")
    repeated = np.flatnonzero(np.bincount(variables, minlength=p)[variables] > 1)
    if repeated.size:
        first, again = np.flatnonzero(variables == variables[repeated[0]])[:2]
        raise DataError(
            f"{name}[{again}] is {variables[again]}, the same column as {name}[{first}]"
        )
    return variables


# ---------------------------------------------------------------------------
# CSV ingestion


def read_schema(path) -> dict[str, str]:
    """Parse a sidecar schema file: one ``column_name kind`` pair per line.

    Blank lines and ``#`` comments are skipped; a column named on two lines
    is rejected with both line numbers.
    """
    kinds: dict[str, str] = {}
    seen_on: dict[str, int] = {}
    try:
        fh = open(path, "r", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read schema file: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or parts[1] not in (CONTINUOUS, CATEGORICAL):
                raise DataError(
                    f"{path}:{lineno}: expected 'column_name "
                    f"{CATEGORICAL}|{CONTINUOUS}', got {line!r}"
                )
            name = parts[0]
            if name in seen_on:
                raise DataError(
                    f"{path}:{lineno}: column {name!r} already named on line {seen_on[name]}"
                )
            seen_on[name] = lineno
            kinds[name] = parts[1]
    return kinds


def _parse_cell(text: str, row: int, name: str) -> float:
    text = text.strip()
    if not text:
        raise DataError(f"row {row}: missing value in column {name!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"row {row}: non-numeric value {text!r} in column {name!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: non-finite value {text!r} in column {name!r}")
    return value


def _read_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a headered CSV into column-major float lists."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise DataError(f"{path}: blank column name in header")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        cols: list[list[float]] = [[] for _ in header]
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
                )
            for j, cell in enumerate(row):
                cols[j].append(_parse_cell(cell, row_no, header[j]))
    if not cols[0]:
        raise DataError(f"{path}: no data rows")
    return header, cols


def read_csv_dataset(
    path, target: str, schema: dict[str, str] | None = None
) -> tuple[PredictorMatrix, np.ndarray]:
    """Load a training CSV with a header row and a named target column.

    Returns the features, named after their columns, and the target.  All
    non-target columns become features, continuous unless the schema marks
    them categorical.  Missing, non-numeric or non-finite cells are rejected
    with the offending row and column named.
    """
    header, cols = _read_table(path)
    if target not in header:
        raise DataError(f"{path}: target column {target!r} not in header {header}")
    if schema:
        unknown = set(schema) - set(header)
        if unknown:
            raise DataError(f"{path}: schema names unknown columns {sorted(unknown)}")
    feature_names = [h for h in header if h != target]
    if not feature_names:
        raise DataError(f"{path}: no feature columns besides the target")
    y = np.asarray(cols[header.index(target)], dtype=np.float64)
    block = np.asarray([cols[header.index(h)] for h in feature_names], dtype=np.float64)
    categorical = np.array(
        [(schema or {}).get(h, CONTINUOUS) == CATEGORICAL for h in feature_names]
    )
    return PredictorMatrix(block, categorical=categorical, names=feature_names), y


def read_csv_features(
    path,
    feature_names: list[str] | None,
    categorical: np.ndarray,
) -> PredictorMatrix:
    """Load prediction-time features, matching a fitted model's schema.

    When the model kept column names, those columns are selected by name (in
    training order) and extra columns such as the target are ignored.  A
    model fitted on a bare array just takes all columns in file order, which
    must match the trained width.  The features are named after the columns
    they came from.
    """
    header, cols = _read_table(path)
    if feature_names:
        missing = [h for h in feature_names if h not in header]
        if missing:
            raise DataError(f"{path}: missing feature columns {missing}")
        block = np.asarray(
            [cols[header.index(h)] for h in feature_names], dtype=np.float64
        )
        names = list(feature_names)
    else:
        block = np.asarray(cols, dtype=np.float64)
        names = header
    if block.shape[0] != categorical.size:
        raise DataError(
            f"{path}: {block.shape[0]} feature columns, model expects {categorical.size}"
        )
    return PredictorMatrix(block, categorical=categorical, names=names)

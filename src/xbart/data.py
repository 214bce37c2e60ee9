"""Column-oriented training data and the presorted-index machinery.

The tree sampler never re-sorts observations while a tree grows.  What it
knows about the columns is one `ColumnLayout` per matrix, built from one
default argsort per column: any sorted order puts equal values next to each
other, so one compare of neighbours in it finds a column's ties, and its
runs of equal values give a tied column's levels.  Columns come in two
kinds.  A *counted* column has ties and few distinct values: every row gets
an integer level code in the layout, and a node summarises the column by
counting its rows' codes.  Every other column is *sorted*: its observation
order is computed once at the root (``presort``), and a node's ordering of
it is that root order with the rows outside the node left out: the node's
row ids sorted by the column, ties broken by original row order.

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

A tie-free column's order is unique, so the default argsort that found it
tie-free is its stack row as it is; a tied sorted column, and column 0 when
it is counted, is stable-sorted through the small-integer ranks of its
values (`ColumnLayout.tied_ranks`), which numpy radix-sorts.  Both give the
one stable order.

On a matrix of at least ``_SETUP_ROWS`` rows the argsorts are handed out
one column at a time to the calling thread and a helper per further core,
and so are the radix sorts, and from ``_CHECK_ROWS`` rows the neighbour
checks; each writes only its own entry or row of a preallocated output, so
the arrays are the ones a single thread builds.

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
ranks, which the grid hands to the scan as such (`CutpointGrid.ladder`),
and the grid is those columns and ranks alone.  A counted column's run ends
are its levels' cumulative counts at the node, from one `np.bincount` over
all counted columns, so it needs no ordering to give the same ranks.

The scan reads no cut value, and a node uses one: the cut of the candidate
it draws.  So a grid gathers none; it keeps the node stack rows it was
built from, and `CutpointGrid.cut` reads the drawn candidate's value from
its column at its rank in its stack row, or a counted candidate's from its
level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .threads import run_tasks

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

# A matrix of at least this many rows has its set-up's sorts, one default
# argsort per column and the stable sorts of its tied stack rows, run on up to
# one thread per allowed core, `threads.run_tasks`.  A set-up call is one long
# sort per column, in which numpy releases the interpreter lock, so two
# threads win at far fewer rows than predict's many short passes do
# (`model._THREAD_ROWS`): on 30 columns, the argsorts already at 2,000 rows
# (0.92x) and the stable sorts from about 4,000 (0.95x at 4,096, 1.05x at
# 3,500; BENCH_setup_sorts.json, ``crossover``).  The gate sits at the
# stable sorts' crossover and keeps 2,000-row fits on one thread.  The helpers
# call nothing that a tracer wraps, so every span of a set-up opens and
# closes on the calling thread.
_SETUP_ROWS = 4_096

# A matrix of at least this many rows has the neighbour check of its tie scan
# (`PredictorMatrix.tie_free_columns`) spread over threads the same way.  The
# check is one random gather and one compare per column, far shorter than a
# sort, so on 30 columns two threads still lose at 16,384 rows (1.04x) and
# win at 32,768 (0.72x; BENCH_setup_sorts.json, ``check_crossover``).
_CHECK_ROWS = 32_768


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

    A fit reads the columns through their `ColumnLayout`, which `layout`
    builds at its first call; prediction never builds it.

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
    names : sequence of distinct str, one per stored column, optional
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
            first: dict[str, int] = {}
            for j, name in enumerate(names):
                if first.setdefault(name, j) != j:
                    raise DataError(f"names[{j}] is {name!r}, the same as names[{first[name]}]")
        # the layout derived from the columns and flags is kept for the
        # object's lifetime, so neither may change
        cols.flags.writeable = categorical.flags.writeable = False
        self.columns = cols
        self.categorical = categorical
        self.names = names
        self._layout: ColumnLayout | None = None

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

    def tie_free_columns(self, orders: np.ndarray) -> np.ndarray:
        """Boolean mask of continuous columns with no repeated values.

        ``orders[j]`` is an order of the row ids that sorts column ``j``, such
        as numpy's default argsort.  Any sorted order puts equal values next
        to each other, so a column is tie-free when no two neighbours in it
        are equal: one gather and one compare per continuous column, spread
        over threads from ``_CHECK_ROWS`` rows on.  Such a column has one
        sorted order, so `presort` keeps its argsort as its stack row, and the
        cutpoint grid keeps its base ranks as they are, without gathering its
        values; this is the common case for continuous data.  `layout` and
        `presort` call it once per matrix and keep the mask.
        """
        out = np.zeros(self.p, dtype=bool)
        continuous = np.flatnonzero(~self.categorical).tolist()

        def check(k: int) -> None:
            j = continuous[k]
            col = self.columns[j].take(orders[j])
            out[j] = np.all(col[1:] != col[:-1])

        run_tasks(check, len(continuous), self.n >= _CHECK_ROWS)
        return out

    def layout(self) -> ColumnLayout:
        """The matrix's `ColumnLayout`, built at the first call; later calls
        return the same object."""
        if self._layout is None:
            self._layout = _column_layout(self, _argsorts(self, range(self.p)))
        return self._layout

    def __repr__(self) -> str:
        n_cat = int(self.categorical.sum())
        return f"PredictorMatrix(n={self.n}, p={self.p}, categorical={n_cat})"


@dataclass(frozen=True)
class ColumnLayout:
    """What the sampler knows about a matrix's columns, built once per matrix.

    ``tie_free`` is `PredictorMatrix.tie_free_columns`.  A column is
    *counted* (``counted``) when it has ties and at most ``_COUNT_LEVELS``
    distinct values; signed zeros are one value.  Every other column is
    *sorted* (``sorted_columns``): a node holds its rows in that column's
    order.  A counted column needs no order, because per-level counts over a
    node's rows give the ends of its tie runs.

    Slot ``s`` holds the ``s``-th counted column, ``slot_columns[s]``, in
    ``width`` bins: bin ``s * width`` stays empty and bin ``s * width + 1 +
    k`` holds the column's ``k``-th smallest value, ``values`` of that bin.
    ``codes[s, r]`` is the bin of row ``r``'s value, so one `np.bincount`
    over the codes of a node's rows counts the levels of every counted
    column at once, and a prefix sum over a slot's bins gives each level's
    cumulative count.  ``slot[v]`` is the slot of column ``v``, -1 for a
    sorted column, and ``categorical_bins`` marks the bins of categorical
    slots (None when no counted column is categorical).  Both signed zeros
    make one level, whose value is +0.0.

    A node stack holds one order per row: row 0 lists the node's rows in
    column-0 order, and the next rows order them by each sorted column other
    than column 0, ascending.  ``stack_row[v]`` is the row of column ``v``
    (0 for column 0, -1 for another counted column).  ``tied_ranks[v]``
    holds, for each column ``v`` with a stack row and ties, every row's
    position among the column's distinct values in the narrowest unsigned
    type, which `presort` radix-sorts.  Every array is read-only.

    The layout is built from one default argsort per column, the orders
    that `presort` makes its stack of: ``tie_free`` compares neighbours in
    them, and a tied column's levels and ranks are its runs of equal values
    in its order, as `np.unique` would give them.  No field keeps an order.
    """

    tie_free: np.ndarray
    counted: np.ndarray
    slot_columns: np.ndarray
    sorted_columns: np.ndarray
    slot: np.ndarray
    width: int
    categorical_bins: np.ndarray | None
    codes: np.ndarray
    values: np.ndarray
    stack_row: np.ndarray
    tied_ranks: dict[int, np.ndarray]


def _argsorts(X: PredictorMatrix, columns) -> np.ndarray:
    """``(len(columns), n)`` array whose row ``k`` is numpy's default argsort
    of column ``columns[k]``, or is left unset where that entry is -1,
    sorted on up to one thread per allowed core from ``_SETUP_ROWS`` rows
    on; each sort writes only its own row."""
    columns = list(columns)
    out = np.empty((len(columns), X.n), dtype=np.intp)
    todo = [k for k, j in enumerate(columns) if j >= 0]

    def order(i: int) -> None:
        out[todo[i]] = np.argsort(X.columns[columns[todo[i]]])

    run_tasks(order, len(todo), X.n >= _SETUP_ROWS)
    return out


def _levels(col: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(col, return_inverse=True)`` from ``order``, which sorts
    ``col``, with the ranks in the narrowest unsigned type that holds them.

    Each run of equal values in the sorted column is one level, and a row's
    rank counts the runs before its own.  `np.unique` sorts with numpy's
    default argsort too, so given that order both keep the same value of
    each run, the sign of a zero level included.
    """
    values = col.take(order)
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    levels = values[starts]
    sorted_ranks = np.zeros(values.size, dtype=np.min_scalar_type(levels.size - 1))
    np.cumsum(starts[1:], dtype=sorted_ranks.dtype, out=sorted_ranks[1:])
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return levels, ranks


def _column_layout(X: PredictorMatrix, orders: np.ndarray) -> ColumnLayout:
    """``X``'s `ColumnLayout`, from ``orders[j]``, an order that sorts column
    ``j``, for every column; the layout keeps no part of ``orders``."""
    tie_free = X.tie_free_columns(orders)
    counted = np.zeros(X.p, dtype=bool)
    found = {}
    for j in np.flatnonzero(~tie_free).tolist():
        found[j] = _levels(X.columns[j], orders[j])
        counted[j] = found[j][0].size <= _COUNT_LEVELS
    slot_columns = np.flatnonzero(counted)
    width = 1 + max((found[j][0].size for j in slot_columns), default=0)
    first = np.arange(slot_columns.size) * width + 1  # each slot's smallest level
    codes = np.array([found[j][1] for j in slot_columns], dtype=np.intp).reshape(-1, X.n)
    codes += first[:, None]
    values = np.zeros(slot_columns.size * width)
    for bin_, j in zip(first, slot_columns):
        values[bin_ : bin_ + found[j][0].size] = found[j][0]
    values += 0.0  # a zero level's value is +0.0, as a sorted column's cut is
    in_stack = ~counted
    in_stack[0] = True
    tied_ranks = {j: ranks for j, (_, ranks) in found.items() if in_stack[j]}
    stack_row = np.where(in_stack, np.cumsum(in_stack) - 1, -1)
    slot = np.where(counted, np.cumsum(counted) - 1, -1)
    categorical_bins = X.categorical[slot_columns].repeat(width)
    if not categorical_bins.any():
        categorical_bins = None
    sorted_columns = np.flatnonzero(~counted)
    arrays = (tie_free, counted, slot_columns, sorted_columns, slot, codes, values, stack_row)
    for a in (*arrays, *tied_ranks.values()):
        a.flags.writeable = False
    return ColumnLayout(
        tie_free, counted, slot_columns, sorted_columns, slot, width,
        categorical_bins, codes, values, stack_row, tied_ranks,
    )


def presort(X: PredictorMatrix) -> np.ndarray:
    """The root's node stack: row ids sorted, stably, for the root node.

    Returns an ``(s, n)`` integer array laid out as `ColumnLayout` describes:
    row 0 is the stable argsort of column 0, and the other rows are those of
    the sorted columns after it, so with no counted column it is
    ``np.argsort(X.columns, axis=1, kind="stable")``.

    Each column is sorted once, with numpy's default argsort (SIMD-vectorised
    where the CPU allows).  The first call on ``X`` builds its layout from
    these orders, level codes included.  A tie-free column has one sorted
    order only, so its argsort is its stack row as it is.  The argsorts are
    written into one ``(p, n)`` array, which is the stack when no column is
    counted; otherwise the stack is one gather of its columns' rows from
    it.  A tied stack column's row is then replaced by the
    stable sort of its `ColumnLayout.tied_ranks`, which keep its order and
    its ties (signed zeros are one level) in the narrowest unsigned type
    that holds them; numpy's stable sort radix-sorts such keys up to 16 bits
    wide.  When ``X.layout()`` was built before, only the tie-free stack
    columns are argsorted, into the stack's own rows.

    For a matrix of at least ``_SETUP_ROWS`` rows both kinds of sort run on
    up to one thread per allowed core, the caller's included, one column at
    a time; each fills its own row, so the stack is the same array as one
    thread's.
    """
    layout = X._layout
    built_before = layout is not None
    if not built_before:
        orders = _argsorts(X, range(X.p))
        X._layout = layout = _column_layout(X, orders)
    columns = np.flatnonzero(layout.stack_row >= 0).tolist()
    if built_before:
        # the layout keeps no order, and a tied stack row is the radix sort
        # below, so only the tie-free stack columns need an argsort
        orders = _argsorts(X, [-1 if j in layout.tied_ranks else j for j in columns])
    elif len(columns) < X.p:  # leave out the counted columns' orders
        orders = orders.take(columns, axis=0)
    tied = [i for i, j in enumerate(columns) if j in layout.tied_ranks]

    def stable(k: int) -> None:
        ranks = layout.tied_ranks[columns[tied[k]]]
        orders[tied[k]] = np.argsort(ranks, kind="stable")

    run_tasks(stable, len(tied), X.n >= _SETUP_ROWS)
    return orders


def stack_rows(X: PredictorMatrix, variables: np.ndarray | None = None) -> np.ndarray:
    """The rows of a node stack that `build_cutpoint_grid` reads for ``variables``.

    These are the stack rows of the scored sorted columns, in the order of
    ``variables`` (default: all columns), or row 0 alone, which lists the
    node's rows, when every scored column is counted.
    """
    layout = X.layout()
    counted = layout.counted if variables is None else layout.counted[variables]
    rows = (layout.stack_row if variables is None else layout.stack_row[variables])[~counted]
    return rows if rows.size or not counted.any() else np.zeros(1, dtype=np.intp)


def sift(
    X: PredictorMatrix, index: np.ndarray, var: int, cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """Partition a stack of one node's orders into its children's stacks.

    Rows with ``X[var] <= cut`` go left.  ``index`` may be any ``(k, m)``
    stack of orderings of the node's ``m`` rows, such as the node stack of
    `ColumnLayout`; ``var`` need not be one of its columns.  The flag of every
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
    sorts a node's ranks as small integers.  Read-only.  Each row is one
    scatter on the calling thread: two threads lose to one below about
    16,000 rows (BENCH_setup_threads.json).
    """
    s, n = root_index.shape
    ranks = np.empty((s, n), dtype=np.min_scalar_type(n - 1))
    positions = np.arange(n, dtype=ranks.dtype)
    for i in range(s):
        # a 1-d row view takes numpy's one-index scatter, a quarter faster
        # than ``ranks[i, root_index[i]]``
        ranks[i][root_index[i]] = positions
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


class _Derived:
    """A `CutpointGrid` field that a grid built by `build_cutpoint_grid` may
    leave unset (None) and derives, through ``CutpointGrid._derive``, at its
    first read; the derived array is kept.  As a dataclass field default it
    reads None, so a hand-built grid passes the array itself."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, grid, owner=None):
        if grid is None:
            return None
        got = grid.__dict__[self.name]
        if got is None:
            got = grid.__dict__[self.name] = grid._derive(self.name)
        return got

    def __set__(self, grid, value) -> None:
        grid.__dict__[self.name] = value


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
    ``i``'s level in `ColumnLayout.values`, or -1 for a candidate in a sorted
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

    A grid that `build_cutpoint_grid` makes keeps ``matrix``, the
    `PredictorMatrix`, and ``orders``, the node stack rows it was built
    from, and gathers no cut value: a draw reads the one it picks through
    `cut`.  Its ``values`` are derived, through `cut`, when they are first
    read.  A ladder grid keeps only its scored columns (``columns``) and
    ``ladder``: its ``var_ids`` and ``ranks`` are derived the same way, and
    its length is ``columns.size * ladder.size``.  Neither is read while a
    tree grows.  A grid without ``matrix``, such as one built by hand, is
    given its ``var_ids``, ``ranks`` and ``values``.
    """

    var_ids: np.ndarray | None = _Derived()
    ranks: np.ndarray | None = _Derived()
    values: np.ndarray | None = _Derived()
    levels: np.ndarray | None = None
    codes: np.ndarray | None = None
    ladder: np.ndarray | None = None
    keys: np.ndarray | None = None
    columns: np.ndarray | None = None
    orders: np.ndarray | None = None
    matrix: PredictorMatrix | None = None

    def __len__(self) -> int:
        if self.ladder is None or self.columns is None:
            return self.var_ids.size
        return self.columns.size * self.ladder.size

    def cut(self, i: int) -> tuple[int, int, float]:
        """Candidate ``i``'s column, rank and cut value.

        A sorted candidate's value is its column's value at its rank in its
        stack row of ``orders``, plus 0.0, which turns a -0.0 cut into +0.0
        and leaves every other value as is: ``x <= -0.0`` and ``x <= +0.0``
        make the same partition.  A counted candidate's value is its level's
        entry of `ColumnLayout.values`, where a zero level is +0.0 too.
        """
        if self.matrix is None:
            return int(self.var_ids[i]), int(self.ranks[i]), float(self.values[i])
        if self.ladder is not None and self.columns is not None:
            row, at = divmod(i, self.ladder.size)
            var, rank = int(self.columns[row]), int(self.ladder[at])
        else:
            var, rank = int(self.var_ids[i]), int(self.ranks[i])
            if self.levels is None:
                row = int(self.keys[i]) // self.orders.shape[1]
            elif self.levels[i] >= 0:
                return var, rank, float(self.matrix.layout().values[self.levels[i]])
            else:  # the keys list the sorted candidates alone
                at = np.count_nonzero(self.levels[:i] < 0)
                row = int(self.keys[at]) // self.orders.shape[1]
        return var, rank, float(self.matrix.columns[var, self.orders[row, rank]] + 0.0)

    def _derive(self, name: str) -> np.ndarray | None:
        """The unset field ``name``, or None when the grid cannot derive it."""
        if name == "values":
            if self.matrix is None:
                return None
            return np.array([self.cut(i)[2] for i in range(len(self))], dtype=np.float64)
        if self.ladder is None or self.columns is None:
            return None
        if name == "var_ids":
            return self.columns.repeat(self.ladder.size)
        return np.tile(self.ladder, self.columns.size)


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
    (see `ColumnLayout`), in the order of ``variables``; when every scored
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

    The tie-free columns of ``X.layout()`` are continuous, so they all
    share the node's one ladder and keep its ranks without gathering their
    values; when every scored column is one of them, the grid is the scored
    columns and the ladder's ranks (``columns``, ``ladder``) and nothing
    more, and otherwise it places each sorted candidate in ``index`` by its
    ``keys``.  The values of the other sorted columns are gathered at once,
    and their run ends are found in one pass over that gather.  The levels
    of all counted columns are counted with one `np.bincount` over the codes
    of the node's rows (row 0 of ``index``); each level's cumulative count
    is the end of its tie run, with no order needed.  Both give the same
    candidates.

    No cut value is gathered: the grid keeps ``index`` and ``X``, and
    `CutpointGrid.cut` reads a candidate's value when it is drawn, from its
    column at its rank in ``index`` for a sorted candidate and from its
    level for a counted one.  A zero cut is +0.0 on either path, whatever
    the sign of the zeros in its column: ``x <= -0.0`` and ``x <= +0.0``
    make the same partition, so a fit does not depend on those signs.

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
    layout = X.layout()
    sorted_vars, counted_vars = layout.sorted_columns, layout.slot_columns
    if variables is not None:
        sorted_vars = variables = _checked_variables(variables, X.p)
        if counted_vars.size:
            counted = layout.counted[variables]
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
            X, index, None if variables is None else counted_vars, count, j, lo, hi
        )
        if not sorted_vars.size:
            return grid
    cuts = _sorted_candidates(X, index, sorted_vars, count, j, lo, hi)
    if grid is None:
        return cuts
    keys = cuts.keys
    if keys is None:  # the keys of the ladder block, row by row
        keys = (np.arange(sorted_vars.size)[:, None] * m + cuts.ladder).ravel()
    # interleave both groups by position in variables, then rank
    pos = np.arange(X.p)
    if variables is not None:
        pos[variables] = np.arange(variables.size)
    order = np.argsort(
        np.concatenate((pos[cuts.var_ids], pos[grid.var_ids])) * m
        + np.concatenate((cuts.ranks, grid.ranks))
    )
    var_ids, ranks, levels = (
        np.concatenate(pair).take(order)
        for pair in (
            (cuts.var_ids, grid.var_ids),
            (cuts.ranks, grid.ranks),
            (np.full(len(cuts), -1), grid.levels),
        )
    )
    return CutpointGrid(
        var_ids, ranks, None, levels, grid.codes, keys=keys, orders=index, matrix=X
    )


def _sorted_candidates(X, index, variables, count, j, lo, hi) -> CutpointGrid:
    """The grid of the sorted columns ``variables``, whose node orders are
    the rows of ``index``: a ladder grid when they are all tie-free, else
    one that places its candidates by ``keys``."""
    m = index.shape[1]
    tied = np.flatnonzero(~X.layout().tie_free[variables])
    # the tie-free columns keep the in-range ranks of the one continuous
    # ladder 0, j, .., (count - 1) * j: its multiples of j in [lo, hi]
    kept = np.arange(-(-lo // j) * j, min((count - 1) * j, hi) + 1, j)
    if not tied.size:
        # the candidates are a (columns, ranks) block, row by row
        return CutpointGrid(ladder=kept, columns=variables, orders=index, matrix=X)
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
    return CutpointGrid(variables[keys // m], keys % m, keys=keys, orders=index, matrix=X)


def _counted_candidates(X, index, variables, count, j, lo, hi) -> CutpointGrid:
    """The grid of the counted columns ``variables`` at the node whose rows
    ``index[0]`` lists; ``None`` scores every counted column, in slot order.
    A candidate's level bin is all the grid keeps of its value."""
    layout = X.layout()
    rows = index[0]
    m, width = rows.size, layout.width
    if variables is None:
        variables = layout.slot_columns
        codes = layout.codes.take(rows, axis=1)
        tally = np.bincount(codes.ravel(), minlength=layout.values.size)
        bins = None
    else:
        slots = layout.slot[variables]
        codes = layout.codes.take((slots * X.n)[:, None] + rows)
        # the scored slots' bins, in the order of variables
        bins = ((slots * width)[:, None] + np.arange(width)).ravel()
        tally = np.bincount(codes.ravel(), minlength=layout.values.size).take(bins)
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
            cat = layout.categorical_bins
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
    return CutpointGrid(var_ids, ranks, None, at, codes, orders=index, matrix=X)


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

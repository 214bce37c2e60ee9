"""Column-oriented training data and the presorted-index machinery.

The tree sampler never re-sorts observations while a tree grows.  Each
variable's observation order is computed once at the root (``presort``) and
then partitioned into child orderings that stay sorted (``sift``).  A node's
ordering is a plain integer array of shape ``(p, m)``: row ``v`` holds the
node's row ids sorted by variable ``v``, ties broken by original row order.

Cutpoint candidates are expressed as *ranks* into that ordering: candidate
rank ``h`` for variable ``v`` means the left child takes sorted positions
``0..h`` inclusive.  Ranks always point at the end of a tie run, so the
partition produced by ``sift`` is identical to evaluating ``x[v] <= cut`` —
ties at the cut go left.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class PredictorMatrix:
    """Numeric feature table stored column-major with per-column kind flags.

    Parameters
    ----------
    columns : ndarray, shape (p, n)
        One row per variable.  Stored as contiguous float64 so per-variable
        gathers in the sampler hot path touch contiguous memory.
    categorical : bool array of length p, optional
        Marks columns whose distinct values are treated as unordered levels
        for cutpoint-grid purposes.  Default: all continuous.
    names : sequence of str, optional
        Column names, kept for CSV round-trips and error messages.
    """

    def __init__(self, columns, categorical=None, names=None):
        cols = np.ascontiguousarray(columns, dtype=np.float64)
        if cols.ndim != 2:
            raise DataError(f"expected a 2-d column block, got ndim={cols.ndim}")
        p, n = cols.shape
        if n < 1 or p < 1:
            raise DataError(f"need at least one row and one column, got n={n}, p={p}")
        if not np.all(np.isfinite(cols)):
            bad_var = int(np.where(~np.isfinite(cols).all(axis=1))[0][0])
            raise DataError(
                f"column {bad_var} contains non-finite values; "
                "missing data must be handled before ingestion"
            )
        if categorical is None:
            categorical = np.zeros(p, dtype=bool)
        else:
            categorical = np.asarray(categorical, dtype=bool)
            if categorical.shape != (p,):
                raise DataError(
                    f"categorical flags have shape {categorical.shape}, expected ({p},)"
                )
        if names is not None:
            names = [str(s) for s in names]
            if len(names) != p:
                raise DataError(f"{len(names)} names for {p} columns")
        self.columns = cols
        self.categorical = categorical
        self.names = names

    @classmethod
    def from_rows(cls, X, categorical=None, names=None) -> "PredictorMatrix":
        """Build from the usual (n, p) row-major design matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        return cls(X.T, categorical=categorical, names=names)

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @property
    def p(self) -> int:
        return self.columns.shape[0]

    def tie_free_columns(self) -> np.ndarray:
        """Boolean mask of continuous columns with no repeated values.

        Such columns admit a cheaper cutpoint-grid path (strided ranks need
        no tie snapping), which is the common case for continuous data.
        """
        out = np.zeros(self.p, dtype=bool)
        for j in range(self.p):
            if not self.categorical[j]:
                col = np.sort(self.columns[j])
                out[j] = bool(np.all(col[1:] != col[:-1]))
        return out

    def __repr__(self) -> str:
        n_cat = int(self.categorical.sum())
        return f"PredictorMatrix(n={self.n}, p={self.p}, categorical={n_cat})"


def presort(X: PredictorMatrix) -> np.ndarray:
    """Sort row ids by each variable, stably, for the root node.

    Returns an ``(p, n)`` integer array; row ``v`` is ``argsort`` of column
    ``v`` with ties in original row order.
    """
    return np.argsort(X.columns, axis=1, kind="stable")


def sift(
    X: PredictorMatrix,
    index: np.ndarray,
    var: int,
    cut: float,
    workspace: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition a node's sorted index into left/right child indexes.

    Rows with ``X[var] <= cut`` go left.  Every row of the output stays
    sorted by its variable with original-order ties, because boolean
    selection preserves within-row order.  ``workspace`` is an optional
    reusable boolean scratch array over all n rows.

    Raises
    ------
    DataError
        If the cut sends every row to one side.  Degenerate splits are
        rejected upstream by grid construction; reaching this is a bug.
    """
    p, m = index.shape
    if workspace is None:
        workspace = np.zeros(X.n, dtype=bool)
    left_ids = index[var][X.columns[var, index[var]] <= cut]
    n_left = left_ids.size
    if n_left == 0 or n_left == m:
        raise DataError(
            f"cut {cut!r} on variable {var} does not split the node (m={m})"
        )
    workspace[left_ids] = True
    mask = workspace[index]
    left = index[mask].reshape(p, n_left)
    right = index[~mask].reshape(p, m - n_left)
    workspace[left_ids] = False
    return left, right


@dataclass(frozen=True)
class CutpointGrid:
    """Flat list of candidate cutpoints for one node.

    ``var_ids[i]`` is the column index of candidate ``i``; ``ranks[i]`` its
    position in that column's node ordering (left child = sorted positions
    ``0..ranks[i]``); ``values[i]`` the cut value at that rank.
    """

    var_ids: np.ndarray
    ranks: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.var_ids.size


def _candidate_ranks_one(
    col: np.ndarray,
    order: np.ndarray,
    is_categorical: bool,
    tie_free: bool,
    budget: int,
    min_node_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (ranks, values) for a single variable at one node."""
    m = order.size
    lo = min_node_size - 1
    hi = m - 1 - min_node_size
    if hi < lo:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)

    if not is_categorical and m - 2 > budget:
        stride = (m - 2) // budget
        ranks = np.arange(budget, dtype=np.intp) * stride
        if tie_free:
            ranks = ranks[(ranks >= lo) & (ranks <= hi)]
            return ranks, col[order[ranks]]
        sorted_vals = col[order]
        # snap each strided rank to the end of its tie run
        ranks = np.searchsorted(sorted_vals, sorted_vals[ranks], side="right") - 1
        ranks = np.unique(ranks)
        ranks = ranks[(ranks >= lo) & (ranks <= hi)]
        return ranks, sorted_vals[ranks]

    # every distinct value is a candidate (small nodes and all categorical
    # columns); runs end where the sorted value changes, and the last run
    # (node maximum) never qualifies because its right child would be empty
    sorted_vals = col[order]
    ranks = np.nonzero(sorted_vals[1:] != sorted_vals[:-1])[0].astype(np.intp)
    ranks = ranks[(ranks >= lo) & (ranks <= hi)]
    return ranks, sorted_vals[ranks]


def build_cutpoint_grid(
    X: PredictorMatrix,
    index: np.ndarray,
    budget: int,
    min_node_size: int = 1,
    variables: np.ndarray | None = None,
    tie_free: np.ndarray | None = None,
) -> CutpointGrid:
    """Assemble the adaptive cutpoint grid for one node.

    Continuous columns with more than ``budget`` interior values are strided:
    at most ``budget`` ranks ``0, j, 2j, ...`` with ``j = (m - 2) // budget``,
    snapped to tie-run ends and deduplicated.  Smaller continuous columns and
    all categorical columns contribute every distinct value.  Candidates that
    would leave a child below ``min_node_size`` (including an empty right
    child at the node maximum) are dropped.

    Parameters
    ----------
    variables : optional int array
        Score only these columns (the per-node mtry draw).  Default: all.
    tie_free : optional bool array over all p columns
        Precomputed `X.tie_free_columns()`; lets tie-free continuous columns
        skip the gather of sorted values entirely.
    """
    if budget < 1:
        raise DataError(f"cutpoint budget must be >= 1, got {budget}")
    if min_node_size < 1:
        raise DataError(f"min_node_size must be >= 1, got {min_node_size}")
    if variables is None:
        variables = np.arange(X.p)
    var_chunks, rank_chunks, val_chunks = [], [], []
    for v in variables:
        ranks, vals = _candidate_ranks_one(
            X.columns[v],
            index[v],
            bool(X.categorical[v]),
            bool(tie_free[v]) if tie_free is not None else False,
            budget,
            min_node_size,
        )
        if ranks.size:
            var_chunks.append(np.full(ranks.size, v, dtype=np.intp))
            rank_chunks.append(ranks)
            val_chunks.append(vals)
    if not var_chunks:
        empty_i = np.empty(0, dtype=np.intp)
        return CutpointGrid(empty_i, empty_i.copy(), np.empty(0, dtype=np.float64))
    return CutpointGrid(
        np.concatenate(var_chunks),
        np.concatenate(rank_chunks),
        np.concatenate(val_chunks),
    )


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass
class Dataset:
    """A parsed training table: features, target, and column names."""

    X: PredictorMatrix
    y: np.ndarray
    feature_names: list[str] = field(default_factory=list)


def read_schema(path) -> dict[str, str]:
    """Parse a sidecar schema file: one ``column_name kind`` pair per line."""
    kinds: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
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
            kinds[parts[0]] = parts[1]
    return kinds


def _parse_cell(text: str, row: int, name: str) -> float:
    text = text.strip()
    if not text:
        raise DataError(f"row {row}: missing value in column {name!r}")
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"row {row}: non-numeric value {text!r} in column {name!r}"
        ) from None


def _read_table(path) -> tuple[list[str], list[list[float]]]:
    """Read a headered CSV into column-major float lists."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
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


def read_csv_dataset(path, target: str, schema: dict[str, str] | None = None) -> Dataset:
    """Load a training CSV with a header row and a named target column.

    All non-target columns become features, continuous unless the schema
    marks them categorical.  Missing or non-numeric cells are rejected with
    the offending row and column named.
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
    X = PredictorMatrix(block, categorical=categorical, names=feature_names)
    return Dataset(X=X, y=y, feature_names=feature_names)


def read_csv_features(
    path,
    feature_names: list[str] | None,
    categorical: np.ndarray,
) -> tuple[PredictorMatrix, list[str]]:
    """Load prediction-time features, matching a fitted model's schema.

    When the model kept column names, those columns are selected by name (in
    training order) and extra columns such as the target are ignored.  A
    model fitted on a bare array just takes all columns in file order, which
    must match the trained width.

    Returns the features plus per-row labels (first column's text is not
    kept; row ids are 1-based data-row numbers rendered by the CLI).
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
    return PredictorMatrix(block, categorical=categorical, names=names), names

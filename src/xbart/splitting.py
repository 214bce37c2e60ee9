"""Marginal-likelihood scoring of cutpoint candidates and cutpoint sampling.

Scores are log integrated likelihoods with every candidate-independent
constant dropped: a node holding residual sum ``s`` over ``n`` rows
contributes ``0.5 * (log(s2/(s2 + t*n)) + t*s^2/(s2*(s2 + t*n)))`` where
``s2`` is the noise variance and ``t`` the leaf-mean prior variance.  A
candidate's score is the sum of its two children's contributions; the
no-split option competes with weight ``|C| * ((1+depth)^beta / alpha - 1)``
against the parent's own contribution, which restores the familiar
``alpha * (1+depth)^-beta`` prior split probability when all candidates
score equally.

Sampling is a softmax draw over (candidates, no-split), stabilised by
max-subtraction.  Two equivalent paths are provided: inverse-CDF from a
single uniform, and perturb-max with i.i.d. Gumbel noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data
from .data import CutpointGrid, PredictorMatrix
from .errors import ConfigError, DataError


def node_marginal_loglik(s, n, sigma2: float, tau: float):
    """Log marginal-likelihood contribution of one leaf, up to shared constants.

    Vectorised over ``s`` and ``n``.  Degenerate cases fall out naturally:
    a zero prior variance or an empty node contributes exactly 0.
    """
    if not (np.isfinite(sigma2) and np.isfinite(tau)):
        raise DataError(f"non-finite variances sigma2={sigma2}, tau={tau}")
    s = np.asarray(s, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = sigma2 + tau * n
    out = 0.5 * (np.log(sigma2 / denom) + tau * s * s / (sigma2 * denom))
    return float(out) if out.ndim == 0 else out


def split_loglik(s_left, n_left, s_total, n_total, sigma2: float, tau: float):
    """Score of splitting a node with totals (s_total, n_total) at a candidate.

    The left child takes (s_left, n_left); the right child gets the
    remainder.  Vectorised over candidates.
    """
    left = node_marginal_loglik(s_left, n_left, sigma2, tau)
    right = node_marginal_loglik(
        np.asarray(s_total, dtype=np.float64) - s_left,
        np.asarray(n_total, dtype=np.float64) - n_left,
        sigma2,
        tau,
    )
    return left + right


def no_split_log_weight(n_cand: int, depth: int, alpha: float, beta: float) -> float:
    """Log weight of the no-split option against ``n_cand`` cutpoints.

    Zero weight (alpha = 1 at the root) maps to ``-inf`` so the option can
    never win the softmax.
    """
    weight = n_cand * ((1.0 + depth) ** beta / alpha - 1.0)
    if weight <= 0.0:
        return -np.inf
    return float(np.log(weight))


@dataclass(frozen=True)
class SplitChoice:
    """A sampled cutpoint: column, rank in the node ordering, cut value."""

    var: int
    rank: int
    value: float


@dataclass(frozen=True)
class CandidateScores:
    """Log scores for every candidate plus the no-split option at one node."""

    grid: CutpointGrid
    log_scores: np.ndarray
    no_split_log_score: float
    depth: int

    def probabilities(self) -> np.ndarray:
        """Normalised selection probabilities; the last entry is no-split."""
        probs = np.empty(len(self.log_scores) + 1)
        probs[:-1] = self.log_scores
        probs[-1] = self.no_split_log_score
        probs -= probs.max()
        np.exp(probs, out=probs)
        probs /= probs.sum()
        return probs


def scan_candidates(
    X: PredictorMatrix,
    index: np.ndarray,
    residuals: np.ndarray,
    grid: CutpointGrid,
    sigma2: float,
    tau: float,
    depth: int,
    alpha: float,
    beta: float,
    total: float | None = None,
) -> CandidateScores:
    """Score every grid candidate from the node's residuals.

    ``index`` holds the rows of the node's stack that the grid was built
    from (see `build_cutpoint_grid`): row ``i`` orders the node's ``m`` rows
    by the ``i``-th scored sorted column, and row 0 lists them when every
    scored column is counted.  The grid lists its candidates as
    `build_cutpoint_grid` emits them, and ``grid.keys`` places each sorted
    candidate in ``index``, at flat position ``row * m + rank``.

    A sorted column's left-child sums (ranks ``0..rank``) come from a
    residual gather through ``index`` for its ``k`` rows: `np.add.reduceat`
    over that gather sums the residuals between consecutive candidates of
    each column, and a prefix sum over those few segments per column gives
    every candidate's sum.  The gather and the segment sums are made a
    block of ``max(1, _STACK_BLOCK // m)`` index rows at a time (one
    ``take`` and one ``reduceat`` per block), so that the gathered
    residuals stay in cache; each segment lies within one row, so it adds
    the same residuals in the same order whatever the block.  When
    ``grid.ladder`` is set, every scored column has a candidate at each of
    its ``c`` ranks: the left children, the right children and the parent
    are then the columns of one ``(k, 2c + 1)`` block, so the log and
    denominator terms, which depend on the counts alone, are computed for
    ``2c + 1`` counts and broadcast over the ``k`` columns.

    A counted column's left-child sums come from one weighted
    `np.bincount` of the node's residuals by level, over all counted
    columns with candidates at once, and a prefix sum over each column's
    levels; it sums in level order, so its last bits may differ from the
    sorted path's.  Right-child statistics are the complement against the
    node totals, ``total`` or else the residuals summed in the order of
    ``index[0]``.
    """
    if len(grid) == 0:
        raise DataError("scan_candidates needs at least one candidate")
    m = index.shape[1]
    if total is None:
        total = float(residuals[index[0]].sum())
    if grid.ladder is not None:
        sums = _ladder_sums(index, residuals, grid.ladder, total)
        n_left = grid.ladder + 1
    else:
        levels = grid.levels
        if levels is None:
            s_left = _sorted_left_sums(index, residuals, grid.keys)
        elif (counted := levels >= 0).all():
            s_left = _counted_left_sums(X, index[0], residuals, grid, levels)
        else:
            s_left = np.empty(len(grid))
            s_left[counted] = _counted_left_sums(X, index[0], residuals, grid, levels[counted])
            s_left[~counted] = _sorted_left_sums(index, residuals, grid.keys)
        sums = np.concatenate((s_left, total - s_left, (total,)))
        n_left = grid.ranks + 1
    # the left children, the right children and the parent in one call
    c = n_left.size
    loglik = node_marginal_loglik(sums, np.concatenate((n_left, m - n_left, (m,))), sigma2, tau)
    return CandidateScores(
        grid=grid,
        log_scores=(loglik[..., :c] + loglik[..., c:-1]).ravel(),
        no_split_log_score=no_split_log_weight(len(grid), depth, alpha, beta) + loglik.flat[-1],
        depth=depth,
    )


def _ladder_sums(index, residuals, ladder, total):
    """The ``(k, 2c + 1)`` block of node sums for ``k`` columns that all have
    candidates at the ``c`` ranks of ``ladder``: each row holds its column's
    left-child sums, then the right children's, then the parent's ``total``."""
    k, m = index.shape
    c = ladder.size
    # each row's first entry, then one past every rank; the segment after
    # the last rank runs to the row's end and is dropped
    bounds = (np.arange(k)[:, None] * m + np.concatenate(([0], ladder + 1))).ravel()
    segments = _segment_sums(index, residuals, bounds).reshape(k, c + 1)
    sums = np.empty((k, 2 * c + 1))
    np.cumsum(segments[:, :c], axis=1, out=sums[:, :c])
    np.subtract(total, sums[:, :c], out=sums[:, c:-1])
    sums[:, -1] = total
    return sums


def _segment_sums(index, residuals, bounds):
    """``np.add.reduceat(residuals.take(index).ravel(), bounds)`` for
    ascending ``bounds`` into the flattened ``(k, m)`` ``index``, in blocks
    of ``max(1, _STACK_BLOCK // m)`` stack rows: one ``take`` and one
    ``reduceat`` per block, through one block-sized buffer of gathered
    residuals that stays in cache.  A stack that fits in one block makes
    the one ``take`` and ``reduceat`` directly: on stacks of up to 30,000
    entries that took 7–13 µs less per call than a loop of one block
    (``BENCH_blocks.json``, ``one_block_paths``).

    A segment that ends before its row does holds the same sum either way,
    because it adds the same residuals in the same order; only the segment
    that starts at a block's last bound differs, ending at the block's end.
    """
    k, m = index.shape
    step = max(1, data._STACK_BLOCK // m)
    if step >= k:
        return np.add.reduceat(residuals.take(index).ravel(), bounds)
    out = np.empty(bounds.size)
    gathered = np.empty(step * m)
    # each block's bounds end where the next block's rows start
    ends = bounds.searchsorted(np.arange(step, k + step, step) * m).tolist()
    a = 0
    for lo, b in zip(range(0, k, step), ends):
        if a < b:
            block = index[lo : lo + step].ravel()
            residuals.take(block, out=gathered[: block.size], mode="clip")
            np.add.reduceat(gathered[: block.size], bounds[a:b] - lo * m, out=out[a:b])
        a = b
    return out


def _sorted_left_sums(index, residuals, keys):
    """Left-child sums of the sorted candidates at flat positions ``keys``
    of ``index``, ascending, by segment sums."""
    m = index.shape[1]
    n_cand = keys.size
    at_row = keys // m
    new_col = np.concatenate(([True], at_row[1:] != at_row[:-1]))
    starts = np.flatnonzero(new_col)
    k = starts.size
    # position of each candidate's column among those with candidates
    row = np.cumsum(new_col) - 1
    # segment bounds: each column's first entry, then one past every
    # candidate rank; the segment after a column's last candidate runs to
    # the next column and is dropped
    at_cand = np.arange(n_cand) + row + 1
    bounds = np.empty(n_cand + k, dtype=np.intp)
    bounds[starts + np.arange(k)] = at_row[starts] * m
    bounds[at_cand] = keys + 1
    segments = _segment_sums(index, residuals, bounds).take(at_cand - 1)
    # prefix sums within each column, over a (k, most candidates) block
    slot = np.arange(n_cand) - starts[row]
    block = np.zeros((k, int(slot.max()) + 1))
    block[row, slot] = segments
    np.cumsum(block, axis=1, out=block)
    return block[row, slot]


def _counted_left_sums(X, rows, residuals, grid, levels):
    """Left-child sums of candidates at the bins ``levels`` of counted
    columns: the node's residuals summed by bin over ``grid.codes``, then a
    prefix sum over each column's bins."""
    codes = X.level_codes()
    weights = residuals.take(rows)[None].repeat(grid.codes.shape[0], axis=0)
    sums = np.bincount(grid.codes.ravel(), weights.ravel(), minlength=codes.values.size)
    by_level = sums.reshape(-1, codes.width)
    np.cumsum(by_level, axis=1, out=by_level)
    return sums.take(levels)


def sample_cutpoint(
    scores: CandidateScores,
    rng: np.random.Generator,
    method: str = "direct",
) -> SplitChoice | None:
    """Draw a cutpoint (or ``None`` for no-split) from the softmax.

    The direct path consumes exactly one uniform variate and inverts the
    cumulative distribution; the Gumbel path adds i.i.d. standard Gumbel
    noise to each log score and takes the argmax.  Both sample the same
    distribution.
    """
    n_cand = len(scores.grid)
    if method == "direct":
        cdf = np.cumsum(scores.probabilities())
        u = rng.random()
        idx = int(np.searchsorted(cdf, u, side="right"))
        if idx >= cdf.size:  # guard the u ~ 1.0 floating-point edge
            idx = cdf.size - 1
    elif method == "gumbel":
        z = np.append(scores.log_scores, scores.no_split_log_score)
        idx = int(np.argmax(z + rng.gumbel(size=z.size)))
    else:
        raise ConfigError(f"unknown cutpoint sampling method {method!r}")
    if idx == n_cand:
        return None
    return SplitChoice(
        var=int(scores.grid.var_ids[idx]),
        rank=int(scores.grid.ranks[idx]),
        value=float(scores.grid.values[idx]),
    )

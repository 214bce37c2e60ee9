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
        z = np.append(self.log_scores, self.no_split_log_score)
        z = z - z.max()
        probs = np.exp(z)
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
    """Score every grid candidate with one pass per scored variable.

    Left-child sufficient statistics come from cumulative sums over the
    node's per-variable sorted residuals; right-child statistics are the
    complement against the node totals, so the scan is O(variables * m)
    regardless of how many candidates each variable carries.
    """
    if len(grid) == 0:
        raise DataError("scan_candidates needs at least one candidate")
    m = index.shape[1]
    if total is None:
        total = float(residuals[index[0]].sum())
    vars_used, var_pos = np.unique(grid.var_ids, return_inverse=True)
    prefix = np.cumsum(residuals[index[vars_used]], axis=1)
    s_left = prefix[var_pos, grid.ranks]
    n_left = grid.ranks + 1
    log_scores = split_loglik(s_left, n_left, total, m, sigma2, tau)
    no_split = no_split_log_weight(len(grid), depth, alpha, beta) + node_marginal_loglik(
        total, m, sigma2, tau
    )
    return CandidateScores(
        grid=grid,
        log_scores=np.atleast_1d(log_scores),
        no_split_log_score=no_split,
        depth=depth,
    )


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

"""Shared test helpers: independent oracles the implementation never touches."""

import numpy as np
from scipy import integrate

from xbart.errors import DataError


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


def tree_depth(tree) -> int:
    """Longest root-to-node edge count, by an explicit stack walk."""
    out = 0
    stack = [(0, 0)]
    while stack:
        node, d = stack.pop()
        out = max(out, d)
        if tree.var[node] >= 0:
            stack.append((node + 1, d + 1))
            stack.append((int(tree.right[node]), d + 1))
    return out


def walk_tree(tree, x) -> float:
    """Evaluate one tree on one row by an explicit python descent."""
    node = 0
    while tree.var[node] >= 0:
        node = node + 1 if x[tree.var[node]] <= tree.value[node] else int(tree.right[node])
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

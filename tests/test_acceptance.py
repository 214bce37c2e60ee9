"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL summary per criterion.  Criterion 6 fits twenty full-scale models
and takes a few minutes on one core.
"""

import time

import numpy as np

from conftest import (
    empirical_split_criterion,
    naive_candidate_scores,
    quad_node_loglik,
    theoretical_split_criterion,
)
from xbart.bench import run_bench
from xbart.cli import main
from xbart.data import PredictorMatrix, build_cutpoint_grid, presort
from xbart.forest import Hyperparams, update_sigma2, update_tau
from xbart.model import fit, load_model
from xbart.simulate import DgpSpec
from xbart.splitting import (
    CandidateScores,
    node_marginal_loglik,
    sample_cutpoint,
    scan_candidates,
    split_loglik,
)
from xbart.tree import sample_leaf_value
from xbart.data import CutpointGrid


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_split_scores_match_numerical_integration():
    """200 random split scores agree with 1-D quadrature to < 1e-6 relative."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        y = 2.0 * rng.normal(size=n)
        k = int(rng.integers(1, n))
        sigma2 = float(rng.choice([0.25, 1.0, 4.0]))
        tau = float(rng.choice([0.25, 1.0, 4.0]))
        ours = split_loglik(y[:k].sum(), k, y.sum(), n, sigma2, tau)
        oracle = quad_node_loglik(y[:k], sigma2, tau) + quad_node_loglik(
            y[k:], sigma2, tau
        )
        worst = max(worst, abs(float(np.exp(ours - oracle)) - 1.0))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "split scores vs quadrature",
        worst < 1e-6 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cutpoint_sampling_frequencies():
    """10^5 draws per path match the softmax within 3 binomial sigma."""
    start = time.perf_counter()
    weights = np.array([5.0, 3.0, 2.0, 1.0, 0.7])
    null_weight = 0.8
    grid = CutpointGrid(
        np.zeros(5, dtype=np.intp), np.arange(5, dtype=np.intp), np.arange(5.0)
    )
    n_draws = 100_000
    worst_z = 0.0
    for method, seed in (("direct", 101), ("gumbel", 202)):
        scores = CandidateScores(
            grid=grid,
            log_scores=np.log(weights),
            no_split_log_score=float(np.log(null_weight)),
            depth=0,
        )
        probs = scores.probabilities()
        rng = np.random.default_rng(seed)
        counts = np.zeros(6)
        for _ in range(n_draws):
            choice = sample_cutpoint(scores, rng, method=method)
            counts[5 if choice is None else choice.rank] += 1
        sd = np.sqrt(n_draws * probs * (1.0 - probs))
        worst_z = max(worst_z, float(np.max(np.abs(counts - n_draws * probs) / sd)))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "softmax sampling, direct and gumbel",
        worst_z < 3.0 and elapsed < 5.0,
        f"worst z {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_3_conjugate_update_means():
    """MC means of the three conjugate draws within 1% of closed form."""
    start = time.perf_counter()
    n_draws = 100_000
    rng = np.random.default_rng(33)

    resid = np.linspace(-1.0, 1.0, 50)
    rr = float(resid @ resid)
    s2_mean = np.mean([update_sigma2(resid, 3.0, 0.9, rng) for _ in range(n_draws)])
    s2_expect = (rr + 0.9) / (50 + 3 - 1)

    leaves = np.linspace(-0.4, 0.4, 30)
    ll = float(leaves @ leaves)
    tau_mean = np.mean([update_tau(leaves, 3.0, 0.25, rng) for _ in range(n_draws)])
    tau_expect = (ll + 0.25) / (30 + 3 - 1)

    s, n, sigma2, tau = 10.0, 5, 2.0, 1.5
    leaf_mean = np.mean(
        [sample_leaf_value(s, n, sigma2, tau, rng) for _ in range(n_draws)]
    )
    precision = 1.0 / tau + n / sigma2
    leaf_expect = s / (sigma2 * precision)

    rels = [
        abs(s2_mean / s2_expect - 1.0),
        abs(tau_mean / tau_expect - 1.0),
        abs(leaf_mean / leaf_expect - 1.0),
    ]
    elapsed = time.perf_counter() - start
    _report(
        3,
        "conjugate posterior means",
        max(rels) < 0.01 and elapsed < 10.0,
        f"rel errs sigma2 {rels[0]:.2%} tau {rels[1]:.2%} leaf {rels[2]:.2%}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_scan_equals_naive_oracle():
    """Scanned candidate scores equal filter-and-sum scoring on 100 nodes."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(100):
        cols = np.vstack(
            [
                rng.normal(size=30),
                np.round(rng.normal(size=30), 1),
                rng.integers(0, 4, size=30).astype(float),
                rng.normal(size=30),
            ]
        )
        X = PredictorMatrix(cols, categorical=[False, False, True, False])
        index = presort(X)
        resid = rng.normal(size=30)
        sigma2 = float(rng.uniform(0.3, 2.0))
        tau = float(rng.uniform(0.2, 2.0))
        budget = 50 if trial % 2 == 0 else 7  # every-value and strided paths
        grid = build_cutpoint_grid(X, index, budget=budget)
        scores = scan_candidates(
            X, index, resid, grid, sigma2, tau, depth=1, alpha=0.95, beta=1.25
        )
        expect = naive_candidate_scores(
            cols,
            np.arange(30),
            resid,
            grid,
            sigma2,
            tau,
            lambda sl, nl, sr, nr: node_marginal_loglik(sl, nl, sigma2, tau)
            + node_marginal_loglik(sr, nr, sigma2, tau),
        )
        rel = np.abs(scores.log_scores - expect) / np.maximum(np.abs(expect), 1e-12)
        worst = max(worst, float(rel.max()))
    _report(
        4,
        "scan vs naive filter-and-sum",
        worst <= 1e-10,
        f"worst rel diff {worst:.2e} over 100 mixed nodes",
    )


def test_criterion_5_empirical_criterion_concentrates():
    """|L_n - L*| at the true step shrinks over n in {1e3, 1e4, 1e5}."""
    limit = theoretical_split_criterion(0.5, -1.0, 1.0, 1.0)
    gaps = []
    for n in (10**3, 10**4, 10**5):
        per_seed = []
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            x = rng.uniform(-1.0, 1.0, size=n)
            f = np.where(x <= 0.0, -1.0, 1.0)
            y = f + rng.normal(size=n)
            per_seed.append(
                abs(empirical_split_criterion(y, x, 0.0, 1.0, 1.0) - limit)
            )
        gaps.append(float(np.mean(per_seed)))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.05
    _report(
        5,
        "criterion concentration at the step",
        ok,
        "mean gaps " + " > ".join(f"{g:.4f}" for g in gaps),
    )


def test_criterion_6_benchmark_error_bounds():
    """Full-scale synthetic accuracy: 4 configurations x 5 reps, p=30, n=1e4."""
    start = time.perf_counter()
    cases = [
        ("trig_poly", 1.0, 2.0),
        ("max", 1.0, 0.55),
        ("linear", 1.0, 3.0),
        ("max", 10.0, 2.1),
    ]
    details = []
    ok = True
    for function, kappa, bound in cases:
        spec = DgpSpec(function, n=10_000, p=30, kappa=kappa)
        report = run_bench(spec, params=Hyperparams(), reps=5, master_seed=20260823)
        details.append(f"{function} k={kappa:g}: {report.mean_rmse:.3f}<={bound}")
        ok = ok and report.mean_rmse <= bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _report(6, "benchmark rmse bounds", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_noise_floor_recovery():
    """With no signal, the retained noise-variance draws estimate Var(y)."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2000, 5))
    y = rng.normal(size=2000)  # f is identically zero
    model = fit(X, y, seed=11)
    mean_s2 = float(model.sigma2_draws().mean())
    var_y = float(np.var(y, ddof=1))
    rel = abs(mean_s2 / var_y - 1.0)
    _report(
        7,
        "noise-floor sigma2 recovery",
        rel < 0.10,
        f"mean sigma2 {mean_s2:.4f} vs var(y) {var_y:.4f}, rel {rel:.2%}",
    )


def test_criterion_8_determinism(tmp_path):
    """Seeded bench reports are byte-identical; save/load predicts identically."""
    args = ["bench", "--dgp", "max", "--n", "300", "--p", "3", "--reps", "3",
            "--trees", "4", "--sweeps", "4", "--burnin", "1", "--seed", "99"]
    first, second = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(args + ["--report", str(first)]) == 0
    assert main(args + ["--report", str(second)]) == 0
    reports_equal = first.read_bytes() == second.read_bytes()

    rng = np.random.default_rng(88)
    X = rng.normal(size=(150, 3))
    y = np.sin(X[:, 0] * 2) + rng.normal(size=150) * 0.3
    model = fit(X, y, Hyperparams(n_trees=5, n_sweeps=6, burnin=2), seed=12)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = load_model(path)
    Xnew = rng.normal(size=(40, 3))
    preds_equal = bool(
        np.array_equal(model.predict_draws(Xnew), loaded.predict_draws(Xnew))
    )
    _report(
        8,
        "seeded determinism and round-trip",
        reports_equal and preds_equal,
        f"reports byte-equal: {reports_equal}, predictions identical: {preds_equal}",
    )

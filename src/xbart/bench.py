"""Synthetic benchmark harness: repeated fit/score runs on one DGP.

Every repetition gets its own seed stream spawned from the master seed, so
results do not depend on execution order or on how many worker processes
run the reps.  The canonical report (what determinism checks compare)
contains the per-rep RMSE values and their summary; wall-clock seconds are
shown in the human table only.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .forest import Hyperparams
from .model import fit
from .simulate import DgpSpec, gen_predictors, make_dataset, mean_function, rmse


@dataclass(frozen=True)
class RepResult:
    rep: int
    rmse: float
    seconds: float


@dataclass
class BenchReport:
    """Per-rep scores for one DGP plus enough metadata to reproduce them."""

    spec: DgpSpec
    params: Hyperparams
    master_seed: int
    n_test: int
    results: list[RepResult]

    @property
    def rmse_values(self) -> np.ndarray:
        return np.array([r.rmse for r in self.results])

    @property
    def mean_rmse(self) -> float:
        return float(self.rmse_values.mean())

    @property
    def sd_rmse(self) -> float:
        vals = self.rmse_values
        return float(vals.std(ddof=1)) if vals.size > 1 else 0.0

    @property
    def total_seconds(self) -> float:
        return float(sum(r.seconds for r in self.results))

    def table(self) -> str:
        """Human-readable run table including wall-clock seconds."""
        lines = [f"{'dgp':<40} {'rep':>4} {'rmse':>12} {'seconds':>9}"]
        label = self.spec.label()
        for r in self.results:
            lines.append(f"{label:<40} {r.rep:>4} {r.rmse:>12.6f} {r.seconds:>9.2f}")
        lines.append(
            f"mean rmse {self.mean_rmse:.6f} ± {self.sd_rmse:.6f} "
            f"over {len(self.results)} reps ({self.total_seconds:.2f} s total)"
        )
        return "\n".join(lines)

    def canonical_report(self) -> str:
        """Deterministic report text: identical across reruns of one seed."""
        lines = [
            "# xbart bench report",
            f"# dgp: {self.spec.label()}",
            f"# trees={self.params.n_trees} sweeps={self.params.n_sweeps} "
            f"burnin={self.params.burnin} sample_tau={self.params.sample_tau}",
            f"# seed={self.master_seed} reps={len(self.results)} n_test={self.n_test}",
            "rep,rmse",
        ]
        for r in self.results:
            lines.append(f"{r.rep},{r.rmse!r}")
        lines.append(f"mean,{self.mean_rmse!r}")
        lines.append(f"sd,{self.sd_rmse!r}")
        return "\n".join(lines) + "\n"


def run_rep(
    spec: DgpSpec,
    params: Hyperparams,
    seed_seq: np.random.SeedSequence,
    n_test: int,
) -> float:
    """One repetition: fresh train and test draws, fit, score against truth.

    The test target is the noiseless surface, so RMSE measures estimation
    error of the regression function itself.
    """
    data_seq, fit_seq = seed_seq.spawn(2)
    rng = np.random.default_rng(data_seq)
    X_train, y_train, _ = make_dataset(spec, rng)
    X_test = gen_predictors(n_test, spec.p, spec.predictors, rng)
    f_test = mean_function(spec.function, X_test)
    model = fit(X_train, y_train, params=params, seed=fit_seq)
    return rmse(model.predict(X_test), f_test)


def _timed_rep(args) -> RepResult:
    spec, params, seed_seq, n_test, rep = args
    start = time.perf_counter()
    value = run_rep(spec, params, seed_seq, n_test)
    return RepResult(rep=rep, rmse=value, seconds=time.perf_counter() - start)


def run_bench(
    spec: DgpSpec,
    params: Hyperparams | None = None,
    reps: int = 5,
    master_seed: int = 0,
    jobs: int = 1,
) -> BenchReport:
    """Run ``reps`` independent repetitions of one DGP configuration.

    Each rep scores ``min(spec.n, 10000)`` fresh test rows.  ``jobs > 1``
    fans reps out to worker processes; per-rep seeds come from
    ``SeedSequence(master_seed).spawn(reps)``, so the scores are identical
    for any job count.
    """
    if reps < 1:
        raise ConfigError(f"need reps >= 1, got {reps}")
    if jobs < 1:
        raise ConfigError(f"need jobs >= 1, got {jobs}")
    params = params if params is not None else Hyperparams()
    n_test = min(spec.n, 10_000)
    seqs = np.random.SeedSequence(master_seed).spawn(reps)
    work = [(spec, params, seqs[rep], n_test, rep) for rep in range(reps)]
    # the pool starts all its workers up front, so never ask for idle ones
    workers = min(jobs, reps)
    if workers == 1:
        results = [_timed_rep(w) for w in work]
    else:
        # spawned workers import the package afresh instead of forking the
        # parent's threads and locks
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_timed_rep, work))
    results.sort(key=lambda r: r.rep)
    return BenchReport(
        spec=spec,
        params=params,
        master_seed=master_seed,
        n_test=n_test,
        results=results,
    )

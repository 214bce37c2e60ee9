"""Tests for the repeated-fit benchmark harness."""

import os

import numpy as np
import pytest

import xbart.data
import xbart.model
import xbart.threads
from xbart.bench import run_bench
from xbart.errors import ConfigError
from xbart.forest import Hyperparams
from xbart.simulate import DgpSpec, make_dataset

_TINY = Hyperparams(n_trees=4, n_sweeps=4, burnin=1)


def _tiny_bench(seed=0, reps=3, jobs=1):
    spec = DgpSpec("trig_poly", n=120, p=4, kappa=1.0)
    return run_bench(spec, params=_TINY, reps=reps, master_seed=seed, jobs=jobs)


class TestRunBench:
    def test_rep_bookkeeping(self):
        report = _tiny_bench()
        assert [r.rep for r in report.results] == [0, 1, 2]
        assert report.n_test == 120  # min(n, 10000)
        assert report.mean_rmse == pytest.approx(report.rmse_values.mean())
        assert all(r.seconds > 0 for r in report.results)
        assert np.all(np.isfinite(report.rmse_values))

    def test_same_master_seed_reproduces_the_report(self):
        a = _tiny_bench(seed=7)
        b = _tiny_bench(seed=7)
        assert a.canonical_report() == b.canonical_report()

    def test_different_master_seeds_differ(self):
        assert _tiny_bench(seed=1).rmse_values.tolist() != _tiny_bench(
            seed=2
        ).rmse_values.tolist()

    def test_worker_count_does_not_change_results(self):
        serial = _tiny_bench(seed=3, jobs=1)
        parallel = _tiny_bench(seed=3, jobs=2)
        assert serial.canonical_report() == parallel.canonical_report()

    def test_threaded_predict_does_not_change_results(self, monkeypatch):
        # a rep fits 120 rows and scores at most 10^4, below the set-up's and
        # predict's thread crossovers, so both are lowered to send every rep's
        # set-up and predict to a pool
        serial = _tiny_bench(seed=3, jobs=2)
        opened = []
        real = xbart.threads.ThreadPoolExecutor

        def recording(max_workers):
            opened.append(max_workers + 1)  # the caller works too
            return real(max_workers)

        monkeypatch.setattr(xbart.threads, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(xbart.model, "_THREAD_ROWS", 0)
        monkeypatch.setattr(xbart.data, "_SETUP_ROWS", 0)
        monkeypatch.setattr(xbart.data, "_CHECK_ROWS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threaded = _tiny_bench(seed=3, jobs=1)
        # per rep: the argsorts of 4 tie-free columns, which are the stack,
        # their neighbour checks, then the predict's draws
        assert opened == [2, 2, 2] * 3
        assert threaded.canonical_report() == serial.canonical_report()

    def test_pool_never_outnumbers_the_reps(self, monkeypatch):
        # the pool starts every worker it is asked for up front; a fake pool
        # records the request and maps serially, so no process starts
        requested = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                requested.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr("xbart.bench.ProcessPoolExecutor", SerialPool)
        report = _tiny_bench(seed=3, reps=2, jobs=64)
        assert requested == [(2, "spawn")]
        assert report.canonical_report() == _tiny_bench(seed=3, reps=2).canonical_report()
        _tiny_bench(seed=3, reps=1, jobs=64)
        assert requested == [(2, "spawn")]  # one rep runs inline

    def test_invalid_run_arguments(self):
        spec = DgpSpec("max", n=80, p=3)
        with pytest.raises(ConfigError):
            run_bench(spec, reps=0)
        with pytest.raises(ConfigError):
            run_bench(spec, reps=1, jobs=0)

    def test_test_rows_are_fresh_draws(self):
        # the train and test designs come from one rep stream but are
        # separate draws; a shared row would mean the stream was reused
        spec = DgpSpec("max", n=50, p=3)
        seq = np.random.SeedSequence(11).spawn(1)[0]
        rng = np.random.default_rng(seq.spawn(2)[0])
        X_train, _, _ = make_dataset(spec, rng)
        from xbart.simulate import gen_predictors

        X_test = gen_predictors(50, 3, "independent", rng)
        assert not (X_train[:, None, :] == X_test[None, :, :]).all(axis=2).any()

    def test_report_text_round_trips_exactly(self):
        report = _tiny_bench(seed=5, reps=2)
        text = report.canonical_report()
        values = {}
        for line in text.splitlines():
            if line.startswith("#") or line == "rep,rmse":
                continue
            key, val = line.split(",")
            values[key] = float(val)
        assert values["0"] == report.results[0].rmse
        assert values["1"] == report.results[1].rmse
        assert values["mean"] == report.mean_rmse
        assert values["sd"] == report.sd_rmse

    def test_table_shows_label_and_timing(self):
        report = _tiny_bench(seed=6, reps=2)
        table = report.table()
        assert "trig_poly" in table
        assert "seconds" in table
        assert "mean rmse" in table
        # the canonical report must stay timing-free so reruns compare equal
        assert "seconds" not in report.canonical_report()

    def test_noiseless_fit_beats_the_trivial_predictor(self):
        spec = DgpSpec("trig_poly", n=2000, p=4, kappa=0.0)
        params = Hyperparams(n_trees=10, n_sweeps=10, burnin=5)
        report = run_bench(spec, params=params, reps=1, master_seed=4)
        # predicting the mean would score about the signal sd (~4.2 here)
        assert report.mean_rmse < 1.5

"""Tests for the sweep loop: bookkeeping, variance draws, weight updates."""

import numpy as np
import pytest

from xbart.data import PredictorMatrix
from xbart.errors import ConfigError, DataError
from xbart.forest import (
    ForestSampler,
    Hyperparams,
    update_sigma2,
    update_tau,
    update_variable_weights,
)
from xbart.model import fit


def _toy(n=60, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + 0.5 * rng.normal(size=n)
    return X, y


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert (h.n_trees, h.n_sweeps, h.burnin) == (20, 40, 15)
        assert (h.alpha, h.beta) == (0.95, 1.25)
        assert h.sample_tau is True

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_trees": 0},
            {"n_sweeps": 0},
            {"burnin": 40},  # equals n_sweeps
            {"burnin": -1},
            {"alpha": 0.0},
            {"alpha": 1.2},
            {"beta": -0.1},
            {"n_cutpoints": 0},
            {"mtry": 0},
            {"max_depth": 0},
            {"min_node_size": 0},
            {"a_sigma": 0.0},
            {"a_tau": -1.0},
            {"b_sigma": 0.0},
            {"b_tau": -2.0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            Hyperparams(**kw)

    def test_burnin_zero_is_allowed(self):
        X, y = _toy(n=30)
        assert len(fit(X, y, Hyperparams(n_trees=2, n_sweeps=1, burnin=0)).draws) == 1


class TestVarianceDraws:
    def test_sigma2_parameterisation(self):
        # exactly one gamma variate; value = (r'r + b) / gamma(n + a)
        resid = np.array([1.0, -2.0, 0.5])
        rng = np.random.default_rng(17)
        twin = np.random.default_rng(17)
        draw = update_sigma2(resid, a_sigma=3.0, b_sigma=0.8, rng=rng)
        assert draw == (5.25 + 0.8) / twin.gamma(6.0)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sigma2_posterior_mean(self):
        resid = np.ones(10)
        rng = np.random.default_rng(1)
        draws = np.array(
            [update_sigma2(resid, 3.0, 2.0, rng) for _ in range(30_000)]
        )
        # inverse-gamma(13, 12) has mean 12 / 12 = 1
        assert draws.mean() == pytest.approx(1.0, rel=0.02)

    def test_tau_parameterisation(self):
        leaves = np.array([0.5, -0.5, 2.0])
        rng = np.random.default_rng(23)
        twin = np.random.default_rng(23)
        draw = update_tau(leaves, a_tau=3.0, b_tau=0.5, rng=rng)
        assert draw == (4.5 + 0.5) / twin.gamma(6.0)

    def test_tau_posterior_mean(self):
        leaves = np.full(17, 0.3)
        rng = np.random.default_rng(2)
        draws = np.array([update_tau(leaves, 3.0, 0.47, rng) for _ in range(30_000)])
        expected = (17 * 0.09 + 0.47) / (17 + 3 - 1)
        assert draws.mean() == pytest.approx(expected, rel=0.02)

    def test_zero_residual_concentrates_near_prior_floor(self):
        rng = np.random.default_rng(3)
        draws = np.array(
            [update_sigma2(np.zeros(500), 3.0, 1.0, rng) for _ in range(2000)]
        )
        assert draws.max() < 0.01  # rate is just b_sigma, shape is ~503


class TestVariableWeights:
    def test_normalised_counts_without_a_generator(self):
        # one plus the per-variable totals over trees: [4, 2, 1]
        split_counts = np.array([[2, 1, 0], [1, 0, 0]])
        weights = update_variable_weights(split_counts)
        np.testing.assert_allclose(weights, np.array([4.0, 2.0, 1.0]) / 7.0)

    def test_dirichlet_mean_matches_counts(self):
        counts = np.array([6.0, 3.0, 1.0])
        split_counts = np.array([[3, 2, 0], [2, 0, 0]])  # one plus totals = counts
        rng = np.random.default_rng(909)
        draws = np.array(
            [update_variable_weights(split_counts, rng) for _ in range(20_000)]
        )
        np.testing.assert_allclose(draws.mean(axis=0), counts / 10.0, atol=0.01)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_draw_uses_the_dirichlet_over_one_plus_totals(self):
        split_counts = np.array([[0, 4, 1], [2, 0, 1]])
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        draw = update_variable_weights(split_counts, rng)
        np.testing.assert_array_equal(draw, twin.dirichlet([3.0, 5.0, 3.0]))


class TestSamplerSetup:
    def test_initial_state(self):
        X, y = _toy()
        s = ForestSampler(X, y, Hyperparams(n_trees=5), seed=1)
        var_y = float(np.var(y - y.mean(), ddof=1))
        assert s.y_offset == pytest.approx(y.mean())
        assert np.all(s.fitted == 0.0)
        np.testing.assert_allclose(s.residual, y - y.mean())
        assert s.sigma2 == pytest.approx(var_y)
        assert s.tau == pytest.approx(var_y / 5)
        assert s.split_counts.shape == (5, 3) and not s.split_counts.any()
        np.testing.assert_allclose(s.weights, 1 / 3)
        assert s.draws == []
        assert all(t.n_nodes == 1 for t in s.trees)

    def test_default_scale_resolution(self):
        X, y = _toy(n=250)
        s = ForestSampler(X, y, Hyperparams(n_trees=8), seed=0)
        var_y = float(np.var(y, ddof=1))
        assert s.grow_params.n_cutpoints == 100  # min(n, 100)
        assert s.grow_params.mtry == 3
        assert s.b_sigma == pytest.approx(var_y, rel=1e-12)
        assert s.b_tau == pytest.approx(0.5 * var_y / 8, rel=1e-12)

    def test_small_n_budget(self):
        X, y = _toy(n=40)
        assert ForestSampler(X, y).grow_params.n_cutpoints == 40

    def test_mtry_exceeding_p_rejected(self):
        X, y = _toy()
        with pytest.raises(ConfigError):
            ForestSampler(X, y, Hyperparams(mtry=4))

    def test_target_validation(self):
        X, y = _toy()
        with pytest.raises(DataError):
            ForestSampler(X, y[:-1])
        with pytest.raises(DataError):
            ForestSampler(X, np.where(np.arange(60) == 3, np.nan, y))
        with pytest.raises(DataError):
            ForestSampler(X[:1], y[:1])

    def test_constant_target_survives(self):
        X, _ = _toy(n=30)
        s = ForestSampler(X, np.full(30, 4.0), Hyperparams(n_sweeps=2, burnin=0))
        s.run()
        assert np.isfinite(s.sigma2)


class TestSweepLoop:
    def test_residual_identity_is_maintained(self):
        X, y = _toy(n=120, seed=4)
        s = ForestSampler(X, y, Hyperparams(n_trees=4, n_sweeps=3, burnin=0), seed=7)
        for _ in range(2):
            for h in range(4):
                s.update_tree(h)
                expect = s.y_centred - s.fitted.sum(axis=0)
                np.testing.assert_allclose(s.residual, expect, atol=1e-10)
        # per-tree caches agree with re-evaluating the stored trees
        for h in range(4):
            np.testing.assert_array_equal(s.fitted[h], s.trees[h].predict(s.X))

    def test_sigma2_redrawn_after_every_tree(self):
        X, y = _toy(n=80, seed=5)
        s = ForestSampler(X, y, Hyperparams(n_trees=4), seed=3)
        seen = {s.sigma2}
        tau0 = s.tau
        for h in range(4):
            s.update_tree(h)
            assert s.sigma2 not in seen
            seen.add(s.sigma2)
            assert s.tau == tau0  # untouched until the sweep ends

    def test_tau_redrawn_once_per_sweep(self):
        X, y = _toy(n=80, seed=6)
        s = ForestSampler(X, y, Hyperparams(n_trees=3, n_sweeps=2, burnin=0), seed=4)
        tau0 = s.tau
        draw = s.run_sweep()
        assert draw.tau != tau0
        assert draw.tau == s.tau

    def test_fixed_tau_mode(self):
        X, y = _toy(n=80, seed=6)
        params = Hyperparams(n_trees=3, n_sweeps=2, burnin=0, sample_tau=False)
        s = ForestSampler(X, y, params, seed=4)
        tau0 = s.tau
        s.run()
        assert s.tau == tau0

    def test_run_returns_all_sweeps_in_order(self):
        X, y = _toy(n=50, seed=8)
        s = ForestSampler(X, y, Hyperparams(n_trees=2, n_sweeps=5, burnin=2), seed=1)
        draws = s.run()
        assert [d.sweep for d in draws] == [1, 2, 3, 4, 5]
        assert all(len(d.trees) == 2 for d in draws)

    def test_snapshots_survive_later_sweeps(self):
        X, y = _toy(n=70, seed=9)
        s = ForestSampler(X, y, Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=2)
        first = s.run_sweep()
        kept = [id(t) for t in first.trees]
        s.run_sweep()
        assert [id(t) for t in first.trees] == kept
        assert all(id(t) not in kept for t in s.trees)

    def test_same_seed_reproduces_everything(self):
        X, y = _toy(n=90, seed=10)
        params = Hyperparams(n_trees=3, n_sweeps=3, burnin=0)
        a = ForestSampler(X, y, params, seed=11).run()
        b = ForestSampler(X, y, params, seed=11).run()
        assert [d.sigma2 for d in a] == [d.sigma2 for d in b]
        assert [d.tau for d in a] == [d.tau for d in b]
        for da, db in zip(a, b):
            for ta, tb in zip(da.trees, db.trees):
                assert ta.to_records() == tb.to_records()

    def test_different_seeds_differ(self):
        X, y = _toy(n=90, seed=10)
        params = Hyperparams(n_trees=3, n_sweeps=2, burnin=0)
        a = ForestSampler(X, y, params, seed=1).run()
        b = ForestSampler(X, y, params, seed=2).run()
        assert [d.sigma2 for d in a] != [d.sigma2 for d in b]

    def test_every_cut_is_a_training_value(self):
        X, y = _toy(n=100, seed=12)
        s = ForestSampler(X, y, Hyperparams(n_trees=3, n_sweeps=2, burnin=0), seed=5)
        s.run()
        for tree in s.trees:
            for node in range(tree.n_nodes):
                if tree.var[node] >= 0:
                    assert tree.value[node] in s.X.columns[tree.var[node]]

    def test_mtry_subsampling_path(self):
        X, y = _toy(n=100, p=6, seed=13)
        params = Hyperparams(n_trees=3, n_sweeps=3, burnin=0, mtry=2)
        s = ForestSampler(X, y, params, seed=6)
        s.run()
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.weights > 0.0)

    def test_weight_counts_track_current_forest(self):
        # without subsampling the weights are the normalised counts: one plus
        # each variable's splits in the current trees
        X, y = _toy(n=100, seed=14)
        s = ForestSampler(X, y, Hyperparams(n_trees=4, n_sweeps=2, burnin=0), seed=7)
        s.run()
        for h, tree in enumerate(s.trees):
            splits = np.bincount(tree.var[tree.var >= 0], minlength=3)
            np.testing.assert_array_equal(s.split_counts[h], splits)
        totals = np.ones(3) + s.split_counts.sum(axis=0)
        np.testing.assert_allclose(s.weights, totals / totals.sum())

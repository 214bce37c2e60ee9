"""Tests for single-tree growth, leaf sampling, evaluation, serialization."""

import numpy as np
import pytest

from conftest import tree_depth, walk_tree
from xbart.data import PredictorMatrix, presort
from xbart.errors import DataError, ModelFormatError
from xbart.forest import Hyperparams
from xbart.tree import Tree, grow_tree, sample_leaf_value


def _params(**kw):
    """Hyperparams as the sampler resolves them: a 100-cutpoint budget."""
    return Hyperparams(**{"n_cutpoints": 100, **kw})


def _grow(X, resid, seed=0, sigma2=1.0, tau=1.0, params=None, rng=None, index=None, **kw):
    kw.setdefault("fitted_out", np.empty(X.n))
    kw.setdefault("split_count_out", np.zeros(X.p, dtype=np.int64))
    kw.setdefault("tie_free", X.tie_free_columns())
    return grow_tree(
        X, presort(X) if index is None else index, np.asarray(resid, dtype=float),
        sigma2, tau, _params() if params is None else params,
        np.random.default_rng(seed) if rng is None else rng,
        **kw,
    )


class TestLeafValue:
    def test_posterior_moments_unit_case(self):
        # s=2, n=1, unit variances: posterior N(1, 1/2)
        rng = np.random.default_rng(12)
        draws = np.array([sample_leaf_value(2.0, 1, 1.0, 1.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(0.5, rel=0.03)

    def test_empty_leaf_draws_from_prior(self):
        rng = np.random.default_rng(3)
        tau = 2.5
        draws = np.array([sample_leaf_value(0.0, 0, 1.0, tau, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(tau, rel=0.03)

    def test_zero_prior_variance_is_exactly_zero_and_free(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert sample_leaf_value(17.0, 5, 1.0, 0.0, rng) == 0.0
        assert rng.bit_generator.state == before

    def test_flat_prior_limit_recovers_sample_mean(self):
        s, n, sigma2, tau = 6.0, 3, 1.0, 1e8
        rng = np.random.default_rng(55)
        twin = np.random.default_rng(55)
        draw = sample_leaf_value(s, n, sigma2, tau, rng)
        z = twin.standard_normal()
        implied_mean = draw - np.sqrt(sigma2 / n) * z
        assert implied_mean == pytest.approx(s / n, abs=1e-3)


class TestEvaluation:
    def test_single_leaf_constant(self):
        tree = Tree.single_leaf(7.0)
        X = PredictorMatrix.from_rows(np.random.default_rng(0).normal(size=(5, 2)))
        assert tree.predict(X).tolist() == [7.0] * 5

    def test_hand_built_partition(self):
        # root: x0 <= 0.5; its left child: x1 <= 0.3
        tree = Tree(
            var=[0, 1, -1, -1, -1],
            value=[0.5, 0.3, 10.0, 20.0, 30.0],
            right=[4, 3, -1, -1, -1],
        )
        rows = [
            ([0.2, 0.1], 10.0),
            ([0.2, 0.9], 20.0),
            ([0.8, 0.1], 30.0),
            ([0.5, 0.3], 10.0),  # boundary rows go left on both splits
        ]
        X = PredictorMatrix.from_rows([r for r, _ in rows])
        assert tree.predict(X).tolist() == [v for _, v in rows]
        assert tree.n_leaves == 3
        assert tree_depth(tree) == 2

    def test_predict_matches_explicit_descent(self):
        rng = np.random.default_rng(222)
        X = PredictorMatrix(rng.normal(size=(3, 120)))
        resid = np.sign(X.columns[0]) + X.columns[2] + 0.3 * rng.normal(size=120)
        tree = _grow(X, resid, seed=9, sigma2=0.2)
        assert tree.n_leaves > 2  # make sure the oracle exercises real structure
        got = tree.predict(X)
        for i in range(X.n):
            assert got[i] == walk_tree(tree, X.columns[:, i])

    def test_split_counts(self):
        tree = Tree(
            var=[1, -1, 1, -1, -1],
            value=[0.5, 1.0, 0.2, 2.0, 3.0],
            right=[2, -1, 4, -1, -1],
        )
        assert np.bincount(tree.var[tree.var >= 0], minlength=3).tolist() == [0, 2, 0]
        assert tree.leaf_values().tolist() == [1.0, 2.0, 3.0]


class TestGrow:
    def test_max_depth_one_is_a_single_posterior_leaf(self):
        rng_data = np.random.default_rng(4)
        X = PredictorMatrix(rng_data.normal(size=(2, 40)))
        resid = rng_data.normal(size=40)
        tree = _grow(X, resid, seed=10, params=_params(max_depth=1))
        assert tree.n_nodes == 1 and tree.n_leaves == 1
        # node totals are accumulated in the variable-0 sorted order
        total = float(resid[presort(X)[0]].sum())
        expected = sample_leaf_value(total, 40, 1.0, 1.0, np.random.default_rng(10))
        assert tree.value[0] == expected

    def test_zero_tau_grows_a_zero_function(self):
        rng = np.random.default_rng(5)
        X = PredictorMatrix(rng.normal(size=(2, 50)))
        tree = _grow(X, rng.normal(size=50), tau=0.0)
        assert np.all(tree.leaf_values() == 0.0)
        assert np.all(tree.predict(X) == 0.0)

    def test_depth_and_leaf_size_respect_limits(self):
        rng = np.random.default_rng(6)
        X = PredictorMatrix(rng.normal(size=(2, 300)))
        resid = np.sign(X.columns[0]) + rng.normal(size=300)
        params = _params(max_depth=4, min_node_size=10)
        tree = _grow(X, resid, seed=2, sigma2=0.1, params=params)
        assert tree_depth(tree) <= params.max_depth - 1
        # count training rows landing in each leaf
        fitted = tree.predict(X)
        for value in tree.leaf_values():
            assert (fitted == value).sum() >= params.min_node_size

    def test_fitted_out_matches_predict(self):
        rng = np.random.default_rng(7)
        X = PredictorMatrix(rng.normal(size=(4, 90)))
        resid = rng.normal(size=90)
        fitted = np.full(90, np.nan)
        tree = _grow(X, resid, seed=1, sigma2=0.5, fitted_out=fitted)
        np.testing.assert_array_equal(fitted, tree.predict(X))

    def test_split_count_out_accumulates(self):
        rng = np.random.default_rng(8)
        X = PredictorMatrix(rng.normal(size=(3, 150)))
        resid = X.columns[1] * 3 + rng.normal(size=150) * 0.1
        counts = np.zeros(3, dtype=np.int64)
        tree = _grow(X, resid, seed=3, sigma2=0.05, split_count_out=counts)
        assert counts.tolist() == np.bincount(tree.var[tree.var >= 0], minlength=3).tolist()
        assert counts.sum() == tree.n_nodes - tree.n_leaves

    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(9)
        X = PredictorMatrix(rng.normal(size=(3, 80)))
        resid = rng.normal(size=80)
        a = _grow(X, resid, seed=42)
        b = _grow(X, resid, seed=42)
        for field in ("var", "value", "right"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_step_signal_concentrates_on_the_separating_cut(self):
        # a huge jump exactly between sorted positions should win the softmax
        n = 100
        x = np.arange(n, dtype=float)
        resid = np.where(x < 50, -1.0, 1.0)
        X = PredictorMatrix([x])
        index = presort(X)
        params = _params(n_cutpoints=n, max_depth=2)
        hits = 0
        trials = 1000
        rng = np.random.default_rng(1234)
        for _ in range(trials):
            tree = _grow(X, resid, sigma2=0.01, params=params, rng=rng, index=index)
            if tree.n_nodes == 3 and tree.value[0] == 49.0:
                hits += 1
        assert hits >= 0.95 * trials

    def test_cut_values_come_from_the_data(self):
        rng = np.random.default_rng(10)
        X = PredictorMatrix(rng.normal(size=(2, 70)))
        tree = _grow(X, rng.normal(size=70), sigma2=0.3)
        for node in range(tree.n_nodes):
            if tree.var[node] >= 0:
                assert tree.value[node] in X.columns[tree.var[node]]

    def test_mtry_one_with_point_mass_weights(self):
        rng = np.random.default_rng(11)
        X = PredictorMatrix(rng.normal(size=(4, 60)))
        resid = rng.normal(size=60)
        weights = np.array([0.0, 0.0, 1.0, 0.0])
        tree = _grow(
            X, resid, seed=4, sigma2=0.2, params=_params(mtry=1), var_weights=weights
        )
        assert set(tree.var[tree.var >= 0].tolist()) <= {2}
        assert tree.n_leaves > 1

    def test_bad_variances_rejected(self):
        X = PredictorMatrix([[0.0, 1.0]])
        with pytest.raises(DataError):
            _grow(X, [0.0, 1.0], sigma2=0.0)
        with pytest.raises(DataError):
            _grow(X, [0.0, 1.0], tau=-0.5)

    def test_tiny_node_cannot_split(self):
        X = PredictorMatrix([[0.0, 1.0, 2.0]])
        tree = _grow(X, [5.0, -5.0, 5.0], params=_params(min_node_size=2))
        assert tree.n_nodes == 1  # 3 rows < 2 * min_node_size


class TestRecords:
    def _tree(self):
        rng = np.random.default_rng(33)
        X = PredictorMatrix(rng.normal(size=(3, 100)))
        return X, _grow(X, rng.normal(size=100), seed=5, sigma2=0.2)

    def test_round_trip_preserves_predictions(self):
        X, tree = self._tree()
        back = Tree.from_records(tree.to_records(), n_features=3)
        assert back.to_records() == tree.to_records()
        np.testing.assert_array_equal(back.predict(X), tree.predict(X))

    def test_single_leaf_round_trip(self):
        recs = Tree.single_leaf(1.25).to_records()
        assert recs == [["leaf", 1.25]]
        assert Tree.from_records(recs, n_features=1).value.tolist() == [1.25]

    @pytest.mark.parametrize(
        "records",
        [
            [],
            "leaf",
            [["leaf"]],
            [["split", 0]],
            [["banana", 1.0]],
            [["split", 0, 0.5], ["leaf", 1.0]],  # missing right subtree
            [["leaf", 1.0], ["leaf", 2.0]],  # trailing records
            [["split", -2, 0.5], ["leaf", 1.0], ["leaf", 2.0]],
            [["split", 1.0, 0.5], ["leaf", 1.0], ["leaf", 2.0]],  # non-integer variable
            [["split", 0, float("nan")], ["leaf", 1.0], ["leaf", 2.0]],
            [["leaf", float("inf")]],
            [["leaf", "1.0"]],
        ],
    )
    def test_malformed_records_rejected(self, records):
        with pytest.raises(ModelFormatError):
            Tree.from_records(records, n_features=3)

    def test_variable_range_checked_against_feature_count(self):
        records = [["split", 5, 0.5], ["leaf", 1.0], ["leaf", 2.0]]
        assert Tree.from_records(records, n_features=6).right.tolist() == [2, -1, -1]
        with pytest.raises(ModelFormatError):
            Tree.from_records(records, n_features=3)

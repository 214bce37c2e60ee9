"""Tests for single-tree growth, leaf sampling, evaluation, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COLUMN_KINDS,
    count_levels,
    ladder_keys,
    stack_block,
    tree_depth,
    walk_tree,
)
from xbart import data as data_module
from xbart import splitting
from xbart import tree as tree_module
from xbart.data import _COUNT_LEVELS, PredictorMatrix, presort, rank_table
from xbart.errors import DataError, ModelFormatError
from xbart.forest import Hyperparams
from xbart.tree import Tree, grow_tree, sample_leaf_value


def _params(**kw):
    """Hyperparams as the sampler resolves them: a 100-cutpoint budget."""
    return Hyperparams(**{"n_cutpoints": 100, **kw})


def _grow(X, resid, seed=0, sigma2=1.0, tau=1.0, params=None, rng=None, index=None, **kw):
    index = presort(X) if index is None else index
    kw.setdefault("fitted_out", np.empty(X.n))
    kw.setdefault("ranks", rank_table(index))
    return grow_tree(
        X, index, np.asarray(resid, dtype=float),
        sigma2, tau, _params() if params is None else params,
        np.random.default_rng(seed) if rng is None else rng,
        **kw,
    )


def _assert_predicts_its_walks(tree, X):
    """``tree.predict(X)``, checked row by row against the explicit descent."""
    got = tree.predict(X)
    for i in range(X.n):
        assert got[i] == walk_tree(tree, X.columns[:, i])
    return got


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
        assert _assert_predicts_its_walks(tree, X).tolist() == [7.0] * 5

    @pytest.mark.parametrize(
        "cut, column, leaf",
        [
            (0.5, [0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)], [1, 2, 1]),
            (0.0, [-0.0, 0.0, 5e-324, -5e-324], [1, 1, 2, 1]),
            (-0.0, [-0.0, 0.0, 5e-324, -5e-324], [1, 1, 2, 1]),
        ],
        ids=["at_the_cut", "positive_zero_cut", "negative_zero_cut"],
    )
    def test_rows_equal_to_the_cut_go_left(self, cut, column, leaf):
        # -0.0 and 0.0 compare equal, so both go left of either zero cut
        tree = Tree(var=[0, -1, -1], value=[cut, 1.0, 2.0])
        X = PredictorMatrix([column])
        assert _assert_predicts_its_walks(tree, X).tolist() == leaf

    def test_categorical_column_sends_levels_up_to_the_cut_left(self):
        # column 0 holds levels 0-3; levels 0 and 1 go left, then x1 <= 0.5
        tree = Tree(var=[0, -1, 1, -1, -1], value=[1.0, 10.0, 0.5, 20.0, 30.0])
        X = PredictorMatrix(
            [[0.0, 1.0, 2.0, 3.0, 2.0, 3.0], [0.9, 0.1, 0.5, 0.6, 0.7, 0.0]],
            categorical=[True, False],
        )
        got = _assert_predicts_its_walks(tree, X)
        assert got.tolist() == [10.0, 10.0, 20.0, 30.0, 30.0, 20.0]

    def test_hand_built_partition(self):
        # root: x0 <= 0.5; its left child: x1 <= 0.3
        tree = Tree(
            var=[0, 1, -1, -1, -1],
            value=[0.5, 0.3, 10.0, 20.0, 30.0],
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
        _assert_predicts_its_walks(tree, X)

    def test_split_counts(self):
        tree = Tree(
            var=[1, -1, 1, -1, -1],
            value=[0.5, 1.0, 0.2, 2.0, 3.0],
        )
        assert np.bincount(tree.var[tree.var >= 0], minlength=3).tolist() == [0, 2, 0]
        assert tree.leaf_values().tolist() == [1.0, 2.0, 3.0]


@st.composite
def preorder_trees(draw, X, min_splits=0, max_splits=63):
    """A random pre-order tree over ``X`` whose cuts are data values.

    The shape is a shuffled word of ``k`` splits (+1) and ``k + 1`` leaves
    (-1), rotated to start just after the first minimum of its prefix sums:
    by the cycle lemma exactly that rotation never runs out of owed nodes
    before its end, so it is a valid pre-order.  The leaves hold distinct
    values, so a prediction names the leaf a row reached; repeated cuts on
    one variable leave some subtrees with no rows.
    """
    k = draw(st.integers(min_splits, max_splits))
    word = draw(st.permutations([1] * k + [-1] * (k + 1)))
    start = int(np.argmin(np.cumsum(word))) + 1
    leaves = iter(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=k + 1, max_size=k + 1, unique=True))
    )
    var, value = [], []
    for kind in word[start:] + word[:start]:
        if kind < 0:
            var.append(-1)
            value.append(next(leaves))
            continue
        v = draw(st.integers(0, X.p - 1))
        var.append(v)
        value.append(draw(st.sampled_from(X.columns[v].tolist())))
    return Tree(var, value)


def _columns(data, max_n=40):
    """One to three columns of ``COLUMN_KINDS`` and their categorical flags."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=3))
    n = data.draw(st.integers(1, max_n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    return np.array([COLUMN_KINDS[k](rng, n) for k in kinds]), [k == "categorical" for k in kinds]


class TestRandomTrees:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_predict_records_and_counts_agree_with_the_oracle(self, data):
        X = PredictorMatrix(*_columns(data))
        tree = data.draw(preorder_trees(X))
        _assert_predicts_its_walks(tree, X)
        back = Tree.from_records(tree.to_records(), n_features=X.p)
        assert back.var.tobytes() == tree.var.tobytes()
        assert back.value.tobytes() == tree.value.tobytes()
        assert tree.n_leaves == (tree.n_nodes + 1) // 2

    @given(data=st.data())
    @settings(max_examples=20)
    def test_trees_past_256_nodes_agree_with_the_oracle(self, data):
        # node ids past 255 no longer fit in a byte
        columns, categorical = _columns(data)
        tree = data.draw(preorder_trees(PredictorMatrix(columns), 128, 160))
        # one more row, above every cut, goes right to the last node
        above = columns.max(axis=1, keepdims=True) + 1.0
        X = PredictorMatrix(np.hstack((columns, above)), categorical=categorical)
        got = _assert_predicts_its_walks(tree, X)
        assert tree.n_nodes >= 257
        assert got[-1] == tree.value[-1]


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

    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(9)
        X = PredictorMatrix(rng.normal(size=(3, 80)))
        resid = rng.normal(size=80)
        a = _grow(X, resid, seed=42)
        b = _grow(X, resid, seed=42)
        for field in ("var", "value"):
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

    def test_a_filtering_tree_needs_the_rank_table(self):
        rng = np.random.default_rng(12)
        X = PredictorMatrix(rng.normal(size=(8, 40)))
        weights = np.full(8, 0.125)
        with pytest.raises(DataError, match="rank_table"):
            _grow(X, rng.normal(size=40), params=_params(mtry=2), var_weights=weights, ranks=None)
        # 3 of 8 columns sift every node and need no table
        _grow(X, rng.normal(size=40), params=_params(mtry=3), var_weights=weights, ranks=None)

    @pytest.mark.parametrize("p, mtry", [(8, 2), (8, 3), (12, 3), (6, 5)])
    def test_filtered_and_sifted_nodes_grow_the_same_tree(self, monkeypatch, p, mtry):
        # tie-free, tied and categorical columns; both paths are forced,
        # whichever the module constant would pick
        rng = np.random.default_rng(p * 10 + mtry)
        n = 300
        kinds = (sorted(COLUMN_KINDS) * p)[:p]
        X = PredictorMatrix(
            [COLUMN_KINDS[k](rng, n) for k in kinds],
            categorical=[k == "categorical" for k in kinds],
        )
        resid = X.columns[0] - 0.5 * X.columns[1] + rng.normal(size=n)
        weights = rng.dirichlet(np.ones(p))
        params = _params(mtry=mtry, n_cutpoints=20)
        grown = []
        for ratio in (1, p + 1):  # filter every subset, then sift every node
            monkeypatch.setattr(tree_module, "_FILTER_RATIO", ratio)
            fitted = np.full(n, np.nan)
            tree = _grow(
                X, resid, seed=5, sigma2=0.3, params=params, var_weights=weights,
                fitted_out=fitted,
            )
            grown.append((tree, fitted))
        (a, fa), (b, fb) = grown
        assert a.n_nodes > 5 and not np.isnan(fa).any()
        assert a.var.tobytes() == b.var.tobytes()
        assert a.value.tobytes() == b.value.tobytes()
        assert fa.tobytes() == fb.tobytes()

    @pytest.mark.parametrize("mtry", [None, 2, 3], ids=["every_column", "filtered", "sifted"])
    def test_a_cut_that_does_not_split_the_node_is_rejected(self, monkeypatch, mtry):
        # a cut at its column's maximum sends every row left; 2 of 8 columns
        # filter their orders from the root's, 3 of 8 sift the whole stack
        rng = np.random.default_rng(6)
        X = PredictorMatrix(rng.normal(size=(8, 50)))

        def at_the_maximum(scores, rng):
            var = int(scores.grid.var_ids[0])
            return splitting.SplitChoice(var, X.n - 1, float(X.columns[var].max()))

        monkeypatch.setattr(tree_module, "sample_cutpoint", at_the_maximum)
        weights = None if mtry is None else np.full(8, 0.125)
        with pytest.raises(DataError, match="does not split the node"):
            _grow(X, rng.normal(size=50), params=_params(mtry=mtry), var_weights=weights)

    @pytest.mark.parametrize("p, mtry", [(7, None), (7, 3), (8, 2)])
    @pytest.mark.parametrize("min_node_size", [1, 3])
    @pytest.mark.parametrize("first", ["tied", "tie_free"])
    def test_counted_and_sorted_columns_grow_the_same_tree(self, p, mtry, min_node_size, first):
        # mtry = p scores every column, 3 of 7 sifts every node and 2 of 8
        # filters; with a cut-off of 6 the "six" columns sit at the cut-off
        # and are counted, the "seven" ones a level over it are sorted
        kinds = {
            **COLUMN_KINDS,
            "six": lambda rng, n: rng.integers(0, 6, size=n) - 2.5,
            "seven": lambda rng, n: rng.integers(0, 7, size=n) / 2.0,
        }
        names = [first, "six", "seven", "categorical", "tied", "tie_free", "six", "seven"][:p]
        n = 300
        params = _params(mtry=mtry, n_cutpoints=20, min_node_size=min_node_size)
        grown = []
        for cutoff in (0, 6, _COUNT_LEVELS):
            rng = np.random.default_rng(p + 10 * min_node_size)
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [kinds[k](rng, n) for k in names],
                    categorical=[k == "categorical" for k in names],
                )
                index = presort(X)
            resid = X.columns[1] - 0.5 * X.columns[4] + rng.normal(size=n)
            weights = None if mtry is None else rng.dirichlet(np.ones(p))
            fitted = np.full(n, np.nan)
            tree = _grow(
                X, resid, seed=5, sigma2=0.3, params=params, index=index,
                var_weights=weights, fitted_out=fitted,
            )
            grown.append((tree, fitted, X.level_codes().counted.sum()))
        (a, fa, none), *others = grown
        assert none == 0 and a.n_nodes > 5 and not np.isnan(fa).any()
        at_six = 4 + (first == "tied")
        assert [counted for *_, counted in others] == [at_six, at_six + names.count("seven")]
        assert 1 in a.var  # a counted column at both cut-offs
        for b, fb, _ in others:
            assert a.var.tobytes() == b.var.tobytes()
            assert a.value.tobytes() == b.value.tobytes()
            assert fa.tobytes() == fb.tobytes()

    @pytest.mark.parametrize("mtry", [None, 2])
    def test_ladder_segment_and_blocked_scans_grow_the_same_tree(self, monkeypatch, mtry):
        # with the cut-off at 0 the tied column 1 is sorted: a node that
        # scores it sums by segments, one that scores tie-free columns alone
        # scores its ladder block; then every grid drops its ladder, and then
        # every stack is walked one or two rows at a time
        rng = np.random.default_rng(31)
        n = 400
        with count_levels(0):
            X = PredictorMatrix(
                [rng.normal(size=n), np.round(rng.normal(size=n), 1)]
                + [rng.normal(size=n) for _ in range(3)]
            )
            index = presort(X)
        resid = np.sin(2 * X.columns[0]) + X.columns[1] + rng.normal(size=n)
        weights = None if mtry is None else np.full(5, 0.2)
        params = _params(mtry=mtry, n_cutpoints=30)
        calls = {"_ladder_sums": 0, "_sorted_left_sums": 0}
        for name in calls:
            def spy(*args, _name=name, _run=getattr(splitting, name)):
                calls[_name] += 1
                return _run(*args)
            monkeypatch.setattr(splitting, name, spy)

        def grow():
            fitted = np.full(n, np.nan)
            tree = _grow(
                X, resid, seed=8, sigma2=0.5, params=params, index=index,
                var_weights=weights, fitted_out=fitted,
            )
            return tree, fitted

        a, fa = grow()
        assert a.n_nodes > 5 and 1 in a.var
        assert calls["_sorted_left_sums"] > 0
        assert (calls["_ladder_sums"] > 0) == (mtry is not None)
        sorted_candidates = data_module._sorted_candidates

        def without_ladder(X, index, *rest):
            var_ids, ranks, values, ladder, keys = sorted_candidates(X, index, *rest)
            if ladder is not None:
                keys = ladder_keys(index, ladder)
            return var_ids, ranks, values, None, keys

        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_sorted_candidates", without_ladder)
            segment = grow()
        for entries in (n, 2 * n - 1):
            with stack_block(entries):
                blocked = grow()
            for b, fb in (segment, blocked):
                assert a.var.tobytes() == b.var.tobytes()
                assert a.value.tobytes() == b.value.tobytes()
                assert fa.tobytes() == fb.tobytes()

    def test_bad_variances_rejected(self):
        X = PredictorMatrix([[0.0, 1.0]])
        with pytest.raises(DataError):
            _grow(X, [0.0, 1.0], sigma2=0.0)
        with pytest.raises(DataError):
            _grow(X, [0.0, 1.0], tau=-0.5)

    @pytest.mark.parametrize("name", ["sigma2", "tau"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_variances_rejected_at_a_root_that_cannot_split(self, name, value):
        # with max_depth=1 the root never scans, so grow_tree itself must check
        X = PredictorMatrix([[0.0, 1.0, 2.0]])
        with pytest.raises(DataError, match=f"got {value}"):
            _grow(X, [1.0, 2.0, 3.0], params=_params(max_depth=1), **{name: value})

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

    def test_largest_leaf_is_reported_and_cuts_are_not(self):
        records = [
            ["split", 0, 5e300], ["leaf", -2.0], ["split", 1, -7.0], ["leaf", 1.5], ["leaf", 0.0]
        ]
        largest = [9.0]
        Tree.from_records(records, 2, largest)
        Tree.from_records([["leaf", -0.0]], 2, largest)
        assert largest == [9.0, 2.0, 0.0]

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
            # a trailing record after a complete split subtree
            [["split", 0, 0.5], ["leaf", 1.0], ["leaf", 2.0], ["leaf", 3.0]],
        ],
    )
    def test_malformed_records_rejected(self, records):
        with pytest.raises(ModelFormatError):
            Tree.from_records(records, n_features=3)

    def test_variable_range_checked_against_feature_count(self):
        records = [["split", 5, 0.5], ["leaf", 1.0], ["leaf", 2.0]]
        assert Tree.from_records(records, n_features=6).var.tolist() == [5, -1, -1]
        with pytest.raises(ModelFormatError):
            Tree.from_records(records, n_features=3)

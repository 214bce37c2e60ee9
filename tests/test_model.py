"""Tests for fitting, posterior-mean prediction, and the JSON model format."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import walk_tree
from xbart.data import _COPY_BLOCK, PredictorMatrix
from xbart.errors import DataError, ModelFormatError
from xbart.forest import ForestSampler, Hyperparams, SweepDraw
from xbart.model import FittedModel, fit, load_model
from xbart.tree import Tree


def _toy(n=80, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] ** 2 + rng.normal(size=n)
    return X, y


def _manual_model(draws, y_offset=0.0, n_features=2):
    return FittedModel(
        params=Hyperparams(),
        y_offset=y_offset,
        n_features=n_features,
        categorical=np.zeros(n_features, dtype=bool),
        feature_names=None,
        draws=draws,
    )


def _first_tree(records):
    """A payload edit that replaces the first tree of the first draw."""

    def edit(payload):
        payload["draws"][0]["trees"][0] = records

    return edit


class TestPrediction:
    def test_root_only_forest_is_constant(self):
        trees = [Tree.single_leaf(0.25) for _ in range(4)]
        model = _manual_model(
            [SweepDraw(sweep=1, trees=trees, sigma2=1.0, tau=1.0)], y_offset=2.0
        )
        X = np.random.default_rng(0).normal(size=(6, 2))
        np.testing.assert_array_equal(model.predict(X), np.full(6, 3.0))

    def test_mean_over_draws(self):
        d1 = SweepDraw(1, [Tree.single_leaf(1.0)], 1.0, 1.0)
        d2 = SweepDraw(2, [Tree.single_leaf(3.0)], 1.0, 1.0)
        model = _manual_model([d1, d2], y_offset=10.0)
        X = np.zeros((3, 2))
        draws = model.predict_draws(X)
        assert draws.shape == (3, 2)
        np.testing.assert_array_equal(draws[:, 0], 11.0)
        np.testing.assert_array_equal(draws[:, 1], 13.0)
        np.testing.assert_array_equal(model.predict(X), 12.0)

    def test_draws_match_explicit_tree_walks(self):
        X, y = _toy(seed=3)
        model = fit(X, y, Hyperparams(n_trees=4, n_sweeps=4, burnin=1), seed=5)
        Xnew = np.random.default_rng(9).normal(size=(12, 3))
        draws = model.predict_draws(Xnew)
        assert draws.shape == (12, len(model.draws))
        for k, d in enumerate(model.draws):
            for i in range(12):
                expect = model.y_offset + sum(
                    walk_tree(t, Xnew[i]) for t in d.trees
                )
                assert draws[i, k] == pytest.approx(expect, rel=1e-12)

    def test_row_permutation_invariance(self):
        X, y = _toy(seed=4)
        model = fit(X, y, Hyperparams(n_trees=3, n_sweeps=3, burnin=0), seed=6)
        Xnew = np.random.default_rng(10).normal(size=(30, 3))
        perm = np.random.default_rng(11).permutation(30)
        np.testing.assert_array_equal(
            model.predict(Xnew)[perm], model.predict(Xnew[perm])
        )

    def test_wrong_width_rejected(self):
        model = _manual_model([SweepDraw(1, [Tree.single_leaf(0.0)], 1.0, 1.0)])
        with pytest.raises(DataError):
            model.predict(np.zeros((4, 5)))

    @pytest.mark.parametrize("rows", [np.zeros((4, 3)), np.zeros(4)])
    def test_width_reported_before_flags(self, rows):
        model = _manual_model([SweepDraw(1, [Tree.single_leaf(0.0)], 1.0, 1.0)])
        width = rows.shape[1] if rows.ndim == 2 else 1
        with pytest.raises(DataError, match=f"model was fitted on 2 columns, got {width}$"):
            model.predict(rows)

    def test_feature_names_must_match_the_model(self):
        X, y = _toy(seed=3)
        model = fit(
            PredictorMatrix.from_rows(X, names=["u", "v", "w"]), y,
            Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=1,
        )
        swapped = PredictorMatrix.from_rows(X[:, [0, 2, 1]], names=["u", "w", "v"])
        with pytest.raises(DataError, match="column 1 is named 'w', model expects 'v'"):
            model.predict(swapped)
        # bare arrays and matching names predict as before
        same = PredictorMatrix.from_rows(X, names=["u", "v", "w"])
        np.testing.assert_array_equal(model.predict(same), model.predict(X))

    def test_sigma2_draws_in_sweep_order(self):
        X, y = _toy(seed=5)
        model = fit(X, y, Hyperparams(n_trees=2, n_sweeps=4, burnin=2), seed=7)
        assert model.sigma2_draws().tolist() == [d.sigma2 for d in model.draws]
        assert [d.sweep for d in model.draws] == [3, 4]


class TestPredictInput:
    """Bare arrays given to `predict` pass through `PredictorMatrix`'s copy."""

    N = 2 * _COPY_BLOCK + 37  # the last block is partial

    @pytest.fixture(scope="class")
    def model(self):
        X, y = _toy(n=120, p=4, seed=12)
        X[:, 3] = 1.0  # one value, no cutpoint: no tree splits on column 3
        model = fit(X, y, Hyperparams(n_trees=4, n_sweeps=3, burnin=1), seed=2)
        assert all(3 not in t.var for d in model.draws for t in d.trees)
        return model

    def _batch(self):
        return np.random.default_rng(13).normal(size=(self.N, 4))

    @pytest.mark.parametrize("method", ["predict", "predict_draws"])
    @pytest.mark.parametrize(
        "cells, message",
        [
            ([(_COPY_BLOCK + 3, 3, np.nan)], f"column 3, row {_COPY_BLOCK + 3} is nan"),
            ([(N - 1, 1, np.inf)], f"column 1, row {N - 1} is inf"),
            # the later row lies in the earlier column, which is named first
            ([(2, 3, np.nan), (N - 2, 0, -np.inf)], f"column 0, row {N - 2} is -inf"),
        ],
    )
    def test_non_finite_cell_is_named(self, model, method, cells, message):
        X = self._batch()
        for row, col, value in cells:
            X[row, col] = value
        with pytest.raises(DataError, match=f"^{message}; missing data"):
            getattr(model, method)(X)

    def test_draws_do_not_depend_on_layout_or_dtype(self, model):
        X = self._batch()
        expect = model.predict_draws(X)
        doubled = np.repeat(X, 2, axis=0)
        flipped = X[:, ::-1].copy()
        for view in (np.asfortranarray(X), doubled[::2], flipped[:, ::-1]):
            assert np.array_equal(model.predict_draws(view), expect)
        single = X.astype(np.float32)
        assert np.array_equal(
            model.predict_draws(single), model.predict_draws(single.astype(np.float64))
        )

    def test_split_columns_give_the_draws_of_the_full_copy(self, model):
        X = self._batch()
        doubled = np.repeat(X, 2, axis=0)
        flipped = X[:, ::-1].copy()
        layouts = (X, np.asfortranarray(X), doubled[::2], flipped[:, ::-1], X.astype(np.float32))
        for view in layouts:
            full = model.predict_draws(PredictorMatrix.from_rows(view))
            assert np.array_equal(model.predict_draws(view), full)
        # column 3 is never split on, so its values cannot reach the draws
        other = X.copy()
        other[:, 3] = 1e6 * np.random.default_rng(14).normal(size=self.N)
        assert np.array_equal(model.predict_draws(other), model.predict_draws(X))

    def test_bare_batch_copies_only_the_split_columns(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(300, 40))
        X[:, 3:] = 1.0  # one value, no cutpoint: trees split on columns 0-2 only
        y = X[:, 0] - X[:, 1] + rng.normal(size=300)
        model = fit(X, y, Hyperparams(n_trees=5, n_sweeps=3, burnin=1), seed=3)
        batch = rng.normal(size=(20_000, 40))
        tracemalloc.start()
        try:
            model.predict_draws(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch.nbytes / 2


class TestSplitColumnBlock:
    """Hand-built models that split on few of the batch's columns, or none."""

    N = _COPY_BLOCK + 37  # the last block is partial

    def _batch(self, p):
        return np.random.default_rng(16).normal(size=(self.N, p))

    def _assert_walks(self, draws, X):
        model = _manual_model(
            [SweepDraw(k + 1, trees, 1.0, 1.0) for k, trees in enumerate(draws)],
            y_offset=0.5,
            n_features=X.shape[1],
        )
        got = model.predict_draws(X)
        for k, trees in enumerate(draws):
            for i, row in enumerate(X):
                expect = model.y_offset
                for t in trees:
                    expect += walk_tree(t, row)
                assert got[i, k] == expect

    def test_only_the_last_column_is_split(self):
        # a leaf's -1 must not read the row map's entry for column p - 1
        draws = [
            [Tree([3, -1, 3, -1, -1], [0.0, -1.0, 1.0, 2.0, 3.0]), Tree.single_leaf(0.25)],
            [Tree([3, 3, -1, -1, -1], [0.5, -0.5, 4.0, 5.0, 6.0]), Tree.single_leaf(-0.75)],
        ]
        self._assert_walks(draws, self._batch(4))

    def test_only_the_first_column_is_split(self):
        draws = [
            [
                Tree([0, -1, -1], [0.1, 1.5, -2.5]),
                Tree([0, 0, -1, -1, -1], [0.3, -0.2, 7.0, 8.0, 9.0]),
            ],
        ]
        self._assert_walks(draws, self._batch(4))

    def test_no_column_is_split(self):
        draws = [[Tree.single_leaf(1.0), Tree.single_leaf(-0.5)], [Tree.single_leaf(2.0)] * 2]
        X = self._batch(3)
        self._assert_walks(draws, X)
        # no column is copied, but every cell is still checked
        X[5, 2] = np.nan
        model = _manual_model([SweepDraw(1, draws[0], 1.0, 1.0)], n_features=3)
        with pytest.raises(DataError, match="^column 2, row 5 is nan"):
            model.predict_draws(X)

    def test_width_reported_before_a_non_finite_cell(self):
        model = _manual_model([SweepDraw(1, [Tree([0, -1, -1], [0.0, 1.0, 2.0])], 1.0, 1.0)])
        X = np.zeros((6, 5))
        X[0, 0] = np.nan
        with pytest.raises(DataError, match="model was fitted on 2 columns, got 5$"):
            model.predict_draws(X)


class TestFit:
    def test_retention_schedule(self):
        X, y = _toy()
        params = Hyperparams(n_trees=2, n_sweeps=6, burnin=4)
        model = fit(X, y, params, seed=1)
        every = ForestSampler(X, y, params, seed=1).run()
        assert len(every) == 6
        assert [d.sweep for d in model.draws] == [5, 6]
        for kept, same in zip(model.draws, every[4:]):
            assert (kept.sigma2, kept.tau) == (same.sigma2, same.tau)
            assert [t.to_records() for t in kept.trees] == [
                t.to_records() for t in same.trees
            ]

    def test_feature_names_thread_through(self):
        X, y = _toy(p=2)
        pm = PredictorMatrix.from_rows(X, names=["alpha", "beta"])
        model = fit(pm, y, Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=2)
        assert model.feature_names == ["alpha", "beta"]
        assert model.n_features == 2

    def test_shifting_the_target_shifts_predictions(self):
        # centering first makes the sampler exactly shift-equivariant: with a
        # mean-zero integer target, adding 32 reproduces the same centred data
        # bit for bit, hence the same trees and variance draws
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 2))
        y = np.array([3.0, -1.0, 4.0, -6.0, 2.0, -2.0, 5.0, -5.0])
        assert y.sum() == 0.0
        params = Hyperparams(n_trees=3, n_sweeps=3, burnin=1)
        base = fit(X, y, params, seed=21)
        shifted = fit(X, y + 32.0, params, seed=21)
        assert shifted.y_offset == base.y_offset + 32.0
        every_base = ForestSampler(X, y, params, seed=21).run()
        every_shifted = ForestSampler(X, y + 32.0, params, seed=21).run()
        for da, db in zip(every_base, every_shifted, strict=True):
            assert da.sigma2 == db.sigma2 and da.tau == db.tau
            for ta, tb in zip(da.trees, db.trees):
                assert ta.to_records() == tb.to_records()
        Xnew = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            shifted.predict(Xnew), base.predict(Xnew) + 32.0, rtol=0, atol=1e-10
        )

    def test_non_numeric_target_rejected(self):
        X, _ = _toy(n=3)
        with pytest.raises(DataError, match="target is not numeric"):
            fit(X, ["a", "b", "c"])

    def test_complex_target_rejected(self):
        X, y = _toy(n=3)
        with pytest.raises(DataError, match="target is complex"):
            fit(X, y + 1j)

    def test_plain_arrays_and_seeded_reproducibility(self):
        X, y = _toy(seed=8)
        a = fit(X, y, Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=3)
        b = fit(X, y, Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=3)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


class TestPersistence:
    def _fitted(self, seed=0):
        X, y = _toy(seed=seed)
        pm = PredictorMatrix.from_rows(X, names=["u", "v", "w"])
        return X, fit(pm, y, Hyperparams(n_trees=3, n_sweeps=4, burnin=2), seed=seed)

    def test_round_trip_predicts_identically(self, tmp_path):
        X, model = self._fitted()
        path = tmp_path / "m.json"
        model.save(path)
        loaded = load_model(path)
        Xnew = np.random.default_rng(1).normal(size=(25, 3))
        np.testing.assert_array_equal(loaded.predict(Xnew), model.predict(Xnew))
        np.testing.assert_array_equal(
            loaded.predict_draws(Xnew), model.predict_draws(Xnew)
        )
        assert loaded.feature_names == ["u", "v", "w"]
        assert loaded.params == model.params

    def test_save_load_save_is_byte_stable(self, tmp_path):
        _, model = self._fitted(seed=2)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        model.save(first)
        load_model(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_categorical_flags_survive(self, tmp_path):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [rng.normal(size=50), rng.integers(0, 3, size=50).astype(float)]
        )
        y = X[:, 1] + rng.normal(size=50)
        pm = PredictorMatrix.from_rows(X, categorical=[False, True])
        model = fit(pm, y, Hyperparams(n_trees=2, n_sweeps=2, burnin=0), seed=5)
        path = tmp_path / "m.json"
        model.save(path)
        assert load_model(path).categorical.tolist() == [False, True]

    def test_empty_model_refuses_to_save(self, tmp_path):
        model = _manual_model([])
        with pytest.raises(ModelFormatError):
            model.save(tmp_path / "m.json")

    def test_non_finite_number_refuses_to_save(self, tmp_path):
        _, model = self._fitted(seed=8)
        model.draws[0].sigma2 = np.nan
        path = tmp_path / "m.json"
        path.write_bytes(b"kept")
        with pytest.raises(ModelFormatError, match="not finite"):
            model.save(path)
        assert path.read_bytes() == b"kept"

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        _, model = self._fitted(seed=3)
        path = tmp_path / "m.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        _, model = self._fitted(seed=4)
        path = tmp_path / "m.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["y_offset"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)

    def test_out_of_range_split_variable(self, tmp_path):
        _, model = self._fitted(seed=6)
        path = tmp_path / "m.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["draws"][0]["trees"][0] = [["split", 7, 0.0], ["leaf", 0.0], ["leaf", 0.0]]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def _edited(self, tmp_path, edit):
        _, model = self._fitted(seed=6)
        path = tmp_path / "m.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("y_offset", lambda p: p.update(y_offset=np.nan)),
            ("y_offset", lambda p: p.update(y_offset=np.inf)),
            ("sigma2", lambda p: p["draws"][0].update(sigma2=np.inf)),
            ("tau", lambda p: p["draws"][1].update(tau=np.nan)),
            ("sigma2 of draw 0 is not positive", lambda p: p["draws"][0].update(sigma2=-1.0)),
            ("sigma2 of draw 1 is not positive", lambda p: p["draws"][1].update(sigma2=0.0)),
            ("tau of draw 1 is negative", lambda p: p["draws"][1].update(tau=-2.0)),
            ("cut value", _first_tree([["split", 0, -np.inf], ["leaf", 0.0], ["leaf", 0.0]])),
            ("leaf value", _first_tree([["split", 0, 0.0], ["leaf", np.nan], ["leaf", 0.0]])),
            ("leaf value", _first_tree([["leaf", "1.0"]])),
            ("split variable", _first_tree([["split", 1.9, 0.0], ["leaf", 0.0], ["leaf", 0.0]])),
            ("categorical", lambda p: p.update(categorical=[0, 0])),
            ("categorical", lambda p: p.update(categorical=["0", "1", "0"])),
            ("categorical", lambda p: p.update(categorical=[0.5, 0, 0])),
            ("categorical", lambda p: p.update(categorical=[None, 1, 0])),
            ("categorical", lambda p: p.update(categorical=[0, 2, 0])),
            ("feature_names", lambda p: p.update(feature_names=["u", "v", "w", "x"])),
            ("n_features", lambda p: p.update(n_features=2.5)),
            ("params.n_trees", lambda p: p["params"].update(n_trees=2.5)),
            ("params.sample_tau", lambda p: p["params"].update(sample_tau="no")),
            ("params.alpha", lambda p: p["params"].update(alpha=np.nan)),
            ("n_trees is 7", lambda p: p["params"].update(n_trees=7)),
            ("holds 0 trees", lambda p: p["draws"][1].update(trees=[])),
            ("sweep", lambda p: p["draws"][0].update(sweep=1.9)),
            ("sweep", lambda p: p["draws"][0].update(sweep="2")),
            ("sweep of draw 1 ", lambda p: p["draws"][1].update(sweep=3)),
            ("sweep of draw 1 ", lambda p: p["draws"][1].update(sweep=5)),
            ("sweep of draw 2 ", lambda p: p.update(draws=p["draws"] * 5)),
            ("mtry", lambda p: p["params"].update(mtry=5)),
            ("params.beta", lambda p: p["params"].update(beta=np.inf)),
            (r"\['beta'\] are missing", lambda p: p["params"].pop("beta")),
            (r"\['gamma'\] are missing or unknown", lambda p: p["params"].update(gamma=1.0)),
        ],
        ids=[
            "nan_y_offset", "inf_y_offset", "inf_sigma2", "nan_tau",
            "negative_sigma2", "zero_sigma2", "negative_tau", "inf_cut",
            "nan_leaf", "string_leaf", "fractional_split_variable",
            "short_categorical", "string_categorical", "fractional_categorical",
            "null_categorical", "two_categorical", "long_feature_names", "fractional_n_features",
            "fractional_n_trees", "string_sample_tau", "nan_alpha",
            "n_trees_disagrees_with_draws", "draw_without_trees",
            "fractional_sweep", "string_sweep", "repeated_sweep",
            "sweep_beyond_n_sweeps", "repeated_draw_list", "mtry_exceeds_features",
            "inf_beta", "missing_param", "unknown_param",
        ],
    )
    def test_malformed_field_rejected_at_load(self, tmp_path, field, edit):
        with pytest.raises(ModelFormatError, match=field):
            load_model(self._edited(tmp_path, edit))

    @pytest.mark.parametrize("leaf", [1e308, -1e308])
    def test_leaves_whose_sum_overflows_rejected_at_load(self, tmp_path, leaf):
        # every leaf is finite, but a prediction of draw 1 sums to inf
        def edit(payload):
            payload["draws"][1]["trees"] = [[["leaf", leaf]]] * len(payload["draws"][1]["trees"])

        with pytest.raises(ModelFormatError, match="draw 1 can predict beyond float64"):
            load_model(self._edited(tmp_path, edit))

    def test_large_cuts_and_one_large_leaf_load(self, tmp_path):
        # only leaves add up: a huge cut is fine, and so is one huge leaf
        def edit(payload):
            payload["draws"][0]["trees"][0] = [["split", 0, 1e308], ["leaf", 1e308], ["leaf", 0.0]]
            payload["draws"][0]["trees"][1] = [["split", 1, -1e308], ["leaf", 0.0], ["leaf", 0.0]]

        model = load_model(self._edited(tmp_path, edit))
        assert model.draws[0].trees[0].value.tolist() == [1e308, 1e308, 0.0]

    def test_deep_tree_records_load_without_recursion(self, tmp_path):
        depth = 3000
        chain = [["split", 0, 0.0]] * depth + [["leaf", 1.0]] * (depth + 1)
        tree = load_model(self._edited(tmp_path, _first_tree(chain))).draws[0].trees[0]
        assert tree.n_nodes == 2 * depth + 1
        X = PredictorMatrix.from_rows(np.ones((4, 3)))
        assert tree.predict(X).tolist() == [1.0] * 4
        # the same chain cut short is malformed, not a recursion failure
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(self._edited(tmp_path, _first_tree(chain[:-1])))

    def test_no_retained_draws(self, tmp_path):
        _, model = self._fitted(seed=7)
        path = tmp_path / "m.json"
        model.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["draws"] = []
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="no retained draws"):
            load_model(path)

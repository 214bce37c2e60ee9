"""Tests for the presorted-index layer: sorting, sifting, grids, ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbart.data import (
    PredictorMatrix,
    build_cutpoint_grid,
    presort,
    read_csv_dataset,
    read_csv_features,
    read_schema,
    sift,
)
from xbart.errors import DataError


def reference_order(column, row_ids=None):
    """Independent stable-sort oracle: order row ids by (value, original id)."""
    if row_ids is None:
        row_ids = range(len(column))
    return [i for i in sorted(row_ids, key=lambda r: (column[r], r))]


class TestPresort:
    def test_basic_column(self):
        X = PredictorMatrix([[3.0, 1.0, 2.0]])
        assert presort(X).tolist() == [[1, 2, 0]]

    def test_sorted_column_is_identity(self):
        X = PredictorMatrix([[0.5, 1.0, 2.0, 7.0]])
        assert presort(X).tolist() == [[0, 1, 2, 3]]

    def test_ties_keep_original_order(self):
        X = PredictorMatrix([[2.0, 1.0, 2.0]])
        assert presort(X).tolist() == [[1, 0, 2]]

    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
            min_size=1,
            max_size=4,
        ).filter(lambda cols: len({len(c) for c in cols}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sort(self, cols):
        X = PredictorMatrix(np.array(cols, dtype=float))
        index = presort(X)
        for v in range(X.p):
            assert index[v].tolist() == reference_order(cols[v])


class TestSift:
    def test_three_row_example(self):
        X = PredictorMatrix([[1.0, 2.0, 3.0]])
        left, right = sift(X, presort(X), var=0, cut=2.0)
        assert left.tolist() == [[0, 1]]
        assert right.tolist() == [[2]]

    def test_degenerate_cut_rejected(self):
        X = PredictorMatrix([[1.0, 2.0, 3.0]])
        with pytest.raises(DataError):
            sift(X, presort(X), var=0, cut=5.0)
        with pytest.raises(DataError):
            sift(X, presort(X), var=0, cut=0.0)

    def test_random_node_matches_resort_oracle(self):
        rng = np.random.default_rng(20240811)
        X = PredictorMatrix(
            np.round(rng.normal(size=(4, 80)), 1)  # rounding forces ties
        )
        root = presort(X)
        keep = np.zeros(80, dtype=bool)
        keep[rng.choice(80, size=50, replace=False)] = True
        node = root[keep[root]].reshape(4, 50)
        cols = X.columns
        for var in range(4):
            values = cols[var, node[var]]
            cut = float(np.median(values))
            if values.min() == cut or values.max() <= cut:
                continue
            left, right = sift(X, node, var, cut)
            left_ids = set(left[0].tolist())
            right_ids = set(right[0].tolist())
            assert left_ids | right_ids == set(node[0].tolist())
            assert left_ids.isdisjoint(right_ids)
            assert all(cols[var, i] <= cut for i in left_ids)
            assert all(cols[var, i] > cut for i in right_ids)
            for v in range(4):
                assert left[v].tolist() == reference_order(cols[v], left_ids)
                assert right[v].tolist() == reference_order(cols[v], right_ids)

    def test_split_variable_rows_are_prefix_suffix(self):
        rng = np.random.default_rng(5)
        X = PredictorMatrix(rng.normal(size=(3, 30)))
        root = presort(X)
        cut = float(np.sort(X.columns[1])[12])
        left, right = sift(X, root, 1, cut)
        assert left[1].tolist() == root[1][:13].tolist()
        assert right[1].tolist() == root[1][13:].tolist()


class TestCutpointGrid:
    def test_stride_formula_large_node(self):
        # 1002 distinct values against a budget of 100: stride 10, ranks 0,10,...,990
        X = PredictorMatrix([np.arange(1002, dtype=float)])
        grid = build_cutpoint_grid(X, presort(X), budget=100)
        assert len(grid) == 100
        assert grid.ranks.tolist() == list(range(0, 1000, 10))
        assert np.array_equal(grid.values, np.arange(0, 1000, 10, dtype=float))

    def test_small_node_uses_every_distinct_value(self):
        X = PredictorMatrix([np.arange(50, dtype=float)])
        grid = build_cutpoint_grid(X, presort(X), budget=100)
        assert grid.ranks.tolist() == list(range(49))  # node max excluded

    def test_node_maximum_never_a_candidate(self):
        X = PredictorMatrix([[1.0, 1.0, 2.0, 2.0]])
        grid = build_cutpoint_grid(X, presort(X), budget=100)
        assert grid.values.tolist() == [1.0]
        assert grid.ranks.tolist() == [1]

    def test_categorical_example(self):
        col = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
        X = PredictorMatrix([col], categorical=[True])
        grid = build_cutpoint_grid(X, presort(X), budget=100)
        assert grid.values.tolist() == [1.0, 2.0]
        assert grid.ranks.tolist() == [1, 4]

    def test_categorical_ignores_stride_budget(self):
        # 40 levels, budget 5: every level except the largest stays a candidate
        rng = np.random.default_rng(0)
        col = rng.integers(0, 40, size=500).astype(float)
        X = PredictorMatrix([col], categorical=[True])
        grid = build_cutpoint_grid(X, presort(X), budget=5)
        assert len(grid) == np.unique(col).size - 1
        assert np.array_equal(grid.values, np.unique(col)[:-1])

    def test_min_node_size_bounds_candidates(self):
        X = PredictorMatrix([np.arange(10, dtype=float)])
        grid = build_cutpoint_grid(X, presort(X), budget=100, min_node_size=3)
        # left needs ranks >= 2, right needs ranks <= 6
        assert grid.ranks.tolist() == [2, 3, 4, 5, 6]

    def test_root_grid_never_exceeds_budget_per_variable(self):
        rng = np.random.default_rng(3)
        X = PredictorMatrix(rng.normal(size=(5, 917)))
        grid = build_cutpoint_grid(X, presort(X), budget=20)
        assert len(grid) <= 5 * 20
        for v in range(5):
            assert (grid.var_ids == v).sum() <= 20

    def test_tie_free_fast_path_matches_general_path(self):
        rng = np.random.default_rng(11)
        X = PredictorMatrix(rng.normal(size=(3, 400)))
        index = presort(X)
        assert X.tie_free_columns().all()
        fast = build_cutpoint_grid(X, index, budget=37, tie_free=X.tie_free_columns())
        slow = build_cutpoint_grid(X, index, budget=37, tie_free=None)
        assert np.array_equal(fast.var_ids, slow.var_ids)
        assert np.array_equal(fast.ranks, slow.ranks)
        assert np.array_equal(fast.values, slow.values)

    def test_strided_ranks_snap_to_tie_run_ends(self):
        rng = np.random.default_rng(7)
        col = rng.integers(0, 25, size=600).astype(float)  # heavy ties
        X = PredictorMatrix([col])
        index = presort(X)
        grid = build_cutpoint_grid(X, index, budget=10)
        sorted_vals = col[index[0]]
        for rank in grid.ranks:
            assert sorted_vals[rank] != sorted_vals[rank + 1]
        assert np.unique(grid.ranks).size == grid.ranks.size

    def test_two_distinct_values_always_splittable(self):
        X = PredictorMatrix([[5.0, 5.0, 5.0, 9.0]])
        grid = build_cutpoint_grid(X, presort(X), budget=1)
        assert len(grid) >= 1

    def test_single_value_column_gives_no_candidates(self):
        X = PredictorMatrix([[2.0, 2.0, 2.0]])
        assert len(build_cutpoint_grid(X, presort(X), budget=10)) == 0
        Xc = PredictorMatrix([[2.0, 2.0, 2.0]], categorical=[True])
        assert len(build_cutpoint_grid(Xc, presort(Xc), budget=10)) == 0

    def test_variable_subset_restricts_grid(self):
        rng = np.random.default_rng(2)
        X = PredictorMatrix(rng.normal(size=(4, 60)))
        grid = build_cutpoint_grid(
            X, presort(X), budget=10, variables=np.array([1, 3])
        )
        assert set(grid.var_ids.tolist()) <= {1, 3}


class TestPredictorMatrix:
    def test_from_rows_transposes(self):
        X = PredictorMatrix.from_rows([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert (X.n, X.p) == (3, 2)
        assert X.columns[1].tolist() == [10.0, 20.0, 30.0]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            PredictorMatrix([[1.0, np.nan]])
        with pytest.raises(DataError):
            PredictorMatrix([[np.inf, 0.0]])

    def test_flag_shape_checked(self):
        with pytest.raises(DataError):
            PredictorMatrix([[1.0, 2.0]], categorical=[True, False])

    def test_kind_labels(self):
        X = PredictorMatrix([[1.0], [2.0]], categorical=[False, True])
        assert X.categorical.tolist() == [False, True]

    def test_tie_free_detection(self):
        X = PredictorMatrix(
            [[1.0, 2.0, 3.0], [1.0, 1.0, 3.0], [1.0, 2.0, 3.0]],
            categorical=[False, False, True],
        )
        assert X.tie_free_columns().tolist() == [True, False, False]


class TestCsvIngestion:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,b,y\n1,4.5,0.1\n2,5.5,0.2\n")
        ds = read_csv_dataset(f, target="y")
        assert ds.feature_names == ["a", "b"]
        assert ds.X.columns[0].tolist() == [1.0, 2.0]
        assert ds.y.tolist() == [0.1, 0.2]

    def test_schema_marks_categorical(self, tmp_path):
        data = self._write(tmp_path / "d.csv", "a,b,y\n1,4,0\n2,5,1\n")
        schema = self._write(tmp_path / "s.txt", "a categorical\n# comment\n")
        ds = read_csv_dataset(data, target="y", schema=read_schema(schema))
        assert ds.X.categorical.tolist() == [True, False]

    def test_missing_value_names_row_and_column(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\n1,0\n,1\n")
        with pytest.raises(DataError, match=r"row 3.*'a'"):
            read_csv_dataset(f, target="y")

    def test_non_numeric_cell(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\noops,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_csv_dataset(f, target="y")

    def test_empty_file(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="header"):
            read_csv_dataset(f, target="y")

    def test_missing_target(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="target"):
            read_csv_dataset(f, target="y")

    def test_duplicate_header(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,a,y\n1,2,3\n")
        with pytest.raises(DataError, match="duplicate"):
            read_csv_dataset(f, target="y")

    def test_ragged_row(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            read_csv_dataset(f, target="y")

    def test_schema_with_unknown_column(self, tmp_path):
        data = self._write(tmp_path / "d.csv", "a,y\n1,2\n")
        schema = self._write(tmp_path / "s.txt", "zzz categorical\n")
        with pytest.raises(DataError, match="zzz"):
            read_csv_dataset(data, target="y", schema=read_schema(schema))

    def test_malformed_schema_line(self, tmp_path):
        schema = self._write(tmp_path / "s.txt", "a sometimes-categorical\n")
        with pytest.raises(DataError, match="categorical"):
            read_schema(schema)

    def test_predict_features_select_by_name(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "extra,b,a\n9,4,1\n9,5,2\n")
        X, names = read_csv_features(
            f, ["a", "b"], categorical=np.array([False, False])
        )
        assert names == ["a", "b"]
        assert X.columns[0].tolist() == [1.0, 2.0]  # training order, not file order

    def test_predict_features_missing_column(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\n1,2\n")
        with pytest.raises(DataError, match="missing feature columns"):
            read_csv_features(f, ["a", "b"], categorical=np.array([False, False]))

    def test_predict_features_width_check_without_names(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "c1,c2,c3\n1,2,3\n")
        with pytest.raises(DataError, match="model expects"):
            read_csv_features(f, None, categorical=np.array([False, False]))

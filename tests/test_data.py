"""Tests for the presorted-index layer: sorting, sifting, grids, ingestion."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COLUMN_KINDS,
    LAYOUTS,
    column_orders,
    count_levels,
    layout_matrix,
    reference_grid,
    setup_threads,
    sort_share,
    stack_block,
    stack_columns,
)
from xbart.data import (
    _COPY_BLOCK,
    _COUNT_LEVELS,
    _SORT_SHARE,
    CutpointGrid,
    PredictorMatrix,
    build_cutpoint_grid,
    node_orders,
    presort,
    rank_table,
    read_csv_dataset,
    read_csv_features,
    read_schema,
    sift,
    stack_rows,
)
from xbart import data as data_module
from xbart import forest as forest_module
from xbart import fit
from xbart.errors import DataError
from xbart.forest import Hyperparams
from xbart.splitting import CandidateScores, sample_cutpoint


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
    @settings(max_examples=60)
    def test_matches_reference_sort(self, cols):
        # with the cut-off at 0 every column is sorted and has a row
        for cutoff in (0, _COUNT_LEVELS):
            with count_levels(cutoff):
                X = PredictorMatrix(np.array(cols, dtype=float))
                index = presort(X)
            columns = stack_columns(X)
            assert columns.size == (X.p if cutoff == 0 else index.shape[0])
            for row, v in zip(index, columns):
                assert row.tolist() == reference_order(cols[v])


    @pytest.mark.parametrize("n", [1, 2, 7, 300, 5000])
    def test_matches_numpy_stable_sort_on_every_column_kind(self, n):
        rng = np.random.default_rng(n)
        kinds = sorted(COLUMN_KINDS)
        for cutoff in (0, _COUNT_LEVELS):
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [COLUMN_KINDS[k](rng, n) for k in kinds],
                    categorical=[k == "categorical" for k in kinds],
                )
                index = presort(X)
            assert index.dtype == np.intp
            want = np.argsort(X.columns, axis=1, kind="stable")
            if cutoff == 0:
                np.testing.assert_array_equal(index, want)
            np.testing.assert_array_equal(index, want[stack_columns(X)])

    def test_tied_column_with_more_levels_than_sixteen_bits(self):
        # ranks of more than 65,536 levels need 32 bits; the other columns
        # take the 8- and 16-bit casts
        rng = np.random.default_rng(1)
        n = 70_000
        cols = [
            np.round(rng.normal(size=n) * 1e6),
            np.round(rng.normal(size=n) * 1e3),
            rng.integers(0, 4, size=n) * rng.choice([-0.0, 1.0], size=n),
        ]
        levels = [np.unique(col).size for col in cols]
        assert levels[0] > 65_536 and 256 < levels[1] < 65_536 and levels[2] <= 4
        want = np.argsort(cols, axis=1, kind="stable")
        # sorted, the last column takes the 8-bit cast; counted, it has no row
        for cutoff, rows in ((0, [0, 1, 2]), (_COUNT_LEVELS, [0, 1])):
            with count_levels(cutoff):
                X = PredictorMatrix(cols)
                np.testing.assert_array_equal(presort(X), want[rows])
            assert not X.layout().tie_free.any()

    def test_one_tie_pair_keeps_original_order(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=500)
        col[[40, 7]] = col[123]  # rows 7, 40 and 123 tie; sorted ids ascend
        X = PredictorMatrix([col, rng.normal(size=500)])
        assert X.layout().tie_free.tolist() == [False, True]
        index = presort(X)
        np.testing.assert_array_equal(index, np.argsort(X.columns, axis=1, kind="stable"))
        run = np.flatnonzero(np.isin(index[0], [7, 40, 123]))
        assert index[0, run].tolist() == [7, 40, 123]


    def test_counted_columns_other_than_column_0_have_no_row(self):
        rng = np.random.default_rng(3)
        n = 3000
        X = PredictorMatrix(
            [
                rng.integers(0, 5, size=n),        # counted, but column 0
                rng.normal(size=n),                 # tie-free
                rng.integers(0, 3, size=n),         # categorical, counted
                rng.integers(0, 100_000, size=n),   # tied with many levels
                np.round(rng.normal(size=n), 1),   # tied, counted
            ],
            categorical=[False, False, True, False, False],
        )
        layout = X.layout()
        assert layout.counted.tolist() == [True, False, True, False, True]
        assert layout.stack_row.tolist() == [0, 1, -1, 2, -1]
        want = np.argsort(X.columns, axis=1, kind="stable")
        np.testing.assert_array_equal(presort(X), want[[0, 1, 3]])

    def test_level_codes_name_every_row_value(self):
        rng = np.random.default_rng(4)
        n = 300
        X = PredictorMatrix(
            [
                rng.normal(size=n),
                rng.integers(-2, 3, size=n) * rng.choice([-0.5, 0.5], size=n),
                rng.integers(0, 4, size=n),
            ],
            categorical=[False, False, True],
        )
        layout = X.layout()
        assert layout.slot_columns.tolist() == [1, 2]
        for s, v in enumerate(layout.slot_columns):
            bins = layout.codes[s]
            assert np.all(bins // layout.width == s) and np.all(bins % layout.width > 0)
            # equal values, signed zeros apart, and ascending levels
            assert np.array_equal(layout.values[bins], X.columns[v])
            present = np.unique(bins)
            assert np.all(np.diff(layout.values[present]) > 0)


class TestStackRows:
    def test_rows_of_the_scored_sorted_columns(self):
        rng = np.random.default_rng(6)
        X = PredictorMatrix(
            [rng.integers(0, 3, size=50), rng.normal(size=50), rng.normal(size=50)]
        )
        assert stack_rows(X).tolist() == [1, 2]
        assert stack_rows(X, np.array([2, 0])).tolist() == [2]
        # every scored column counted: row 0 lists the node's rows
        assert stack_rows(X, np.array([0])).tolist() == [0]
        assert stack_rows(X, np.array([], dtype=int)).tolist() == []
        Y = PredictorMatrix([rng.normal(size=50), rng.integers(0, 3, size=50)])
        assert stack_rows(Y).tolist() == [0]
        assert stack_rows(Y, np.array([1])).tolist() == [0]
        assert stack_rows(Y, np.array([1, 0])).tolist() == [0]


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

    @given(data=st.data())
    @settings(max_examples=200)
    def test_random_node_matches_resort_oracle(self, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
        n = data.draw(st.integers(2, 60))
        seed = data.draw(st.integers(0, 2**16))
        steps = data.draw(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 60)),
                min_size=1,
                max_size=4,
            )
        )
        # the cut-off at 0 stacks every column's order
        for cutoff in (0, _COUNT_LEVELS):
            rng = np.random.default_rng(seed)
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [COLUMN_KINDS[k](rng, n) for k in kinds],
                    categorical=[k == "categorical" for k in kinds],
                )
                index = presort(X)
            cols, columns = X.columns, stack_columns(X)
            # sift up to four times, each node reached by the sifts before it
            for go_left, var, pick in steps:
                var %= X.p
                values = np.unique(cols[var, index[0]])
                if values.size < 2:
                    break
                # any tie-run value below the node maximum splits the node
                cut = values[pick % (values.size - 1)]
                left, right = sift(X, index, var, cut)
                left_ids = [i for i in index[0].tolist() if cols[var, i] <= cut]
                right_ids = [i for i in index[0].tolist() if cols[var, i] > cut]
                for i, v in enumerate(columns):
                    assert left[i].tolist() == reference_order(cols[v], left_ids)
                    assert right[i].tolist() == reference_order(cols[v], right_ids)
                index = left if go_left else right

    def test_split_variable_rows_are_prefix_suffix(self):
        rng = np.random.default_rng(5)
        X = PredictorMatrix(rng.normal(size=(3, 30)))
        root = presort(X)
        cut = float(np.sort(X.columns[1])[12])
        left, right = sift(X, root, 1, cut)
        assert left[1].tolist() == root[1][:13].tolist()
        assert right[1].tolist() == root[1][13:].tolist()

    def test_gathered_and_whole_column_compares_split_alike(self):
        # row 0 alone of a 20-row node holds at most n/2 entries and compares
        # its gathered values; the node's whole stack holds more and gathers
        # the flags of the column's compare
        rng = np.random.default_rng(8)
        X = PredictorMatrix([COLUMN_KINDS[k](rng, 50) for k in sorted(COLUMN_KINDS)])
        root = presort(X)
        node = sift(X, root, 1, np.sort(X.columns[1])[19])[0]
        assert node.shape == (2, 20)
        for var in range(X.p):
            values = np.unique(X.columns[var, node[0]])
            for cut in (*values[:-1], -0.0, 0.0):
                if not values[0] <= cut < values[-1]:
                    continue
                left_ids = [r for r in node[0].tolist() if X.columns[var, r] <= cut]
                right_ids = [r for r in node[0].tolist() if X.columns[var, r] > cut]
                (wl, wr), (ol, or_) = sift(X, node, var, cut), sift(X, node[:1], var, cut)
                assert ol.tolist() == [left_ids] and or_.tolist() == [right_ids]
                assert wl[:1].tobytes() == ol.tobytes() and wr[:1].tobytes() == or_.tobytes()

    def test_any_stack_of_the_node_is_split_and_checked_on_row_0(self):
        # the split column need not be a row of the stack
        X = PredictorMatrix([[3.0, 1.0, 2.0, 0.0], [0.5, 0.25, 0.75, 1.0]])
        stack = presort(X)[1:]
        left, right = sift(X, stack, 0, 1.0)
        assert left.tolist() == [[1, 3]] and right.tolist() == [[0, 2]]
        two = np.vstack([stack[0], stack[0][::-1]])
        left, right = sift(X, two, 0, 1.0)
        assert left.tolist() == [[1, 3], [3, 1]] and right.tolist() == [[0, 2], [2, 0]]
        with pytest.raises(DataError, match="does not split the node"):
            sift(X, stack, 0, 3.0)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_blocks_of_stack_rows_split_as_one_block(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        p = data.draw(st.integers(4, 7))
        n = data.draw(st.integers(4, 80))
        seed = data.draw(st.integers(0, 2**16))
        rows_per_block = data.draw(st.integers(1, 3))
        descent = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=2))
        var, pick = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, 10**6))
        chosen = np.array(sorted(data.draw(st.sets(st.integers(0, p - 1), min_size=1))))
        X, root = layout_matrix(layout, np.random.default_rng(seed), p, n)
        node = root
        for go_left, at in descent:
            values = np.unique(X.columns[var, node[0]])
            if values.size < 2:
                break
            node = sift(X, node, var, values[at % (values.size - 1)])[0 if go_left else 1]
        if layout == "subset":
            node = node[stack_rows(X, chosen)]
        elif layout == "filtered":
            node = node_orders(root, rank_table(root), node[0], stack_rows(X, chosen))
        values = np.unique(X.columns[var, node[0]])
        if values.size < 2:
            return
        cut = values[pick % (values.size - 1)]
        k, m = node.shape
        with stack_block(2**62):
            whole = sift(X, node, var, cut)
        # blocks of rows_per_block rows, whatever the remainder of m
        with stack_block(rows_per_block * m + pick % m):
            blocked = sift(X, node, var, cut)
        for a, b in zip(blocked, whole):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
        assert blocked[0].shape[0] == k

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_degenerate_cut_in_blocks_names_the_variable(self, rows_per_block):
        X = PredictorMatrix(np.random.default_rng(9).normal(size=(5, 40)))
        root = presort(X)
        with stack_block(rows_per_block * 40):
            for cut in (X.columns[3].max(), X.columns[3].min() - 1.0):
                with pytest.raises(DataError, match=r"on variable 3 does not split the node \(m=40\)"):
                    sift(X, root, 3, cut)


class TestRankTable:
    @pytest.mark.parametrize("layout", ["tie_free", "sorted", "counted"])
    def test_inverts_every_root_stack_row(self, layout):
        X, root = layout_matrix(layout, np.random.default_rng(4), 6, 300)
        ranks = rank_table(root)
        assert ranks.shape == root.shape and not ranks.flags.writeable
        for i in range(root.shape[0]):
            assert ranks[i, root[i]].tolist() == list(range(X.n))
            assert np.argsort(ranks[i]).tolist() == root[i].tolist()

    @pytest.mark.parametrize("n, dtype", [(65_536, np.uint16), (65_537, np.uint32)])
    def test_ranks_take_the_narrowest_unsigned_type(self, n, dtype):
        order = np.random.default_rng(n).permutation(n)[None]
        ranks = rank_table(order)
        assert ranks.dtype == dtype
        assert ranks[0, order[0, -1]] == n - 1
        assert np.array_equal(ranks[0, order[0]], np.arange(n))


class TestNodeOrders:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_the_sifted_index_rows(self, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=6))
        n = data.draw(st.integers(2, 60))
        seed = data.draw(st.integers(0, 2**16))
        steps = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 60)), max_size=4)
        )
        picks = data.draw(st.lists(st.sets(st.integers(0, 5)), min_size=5, max_size=5))
        # the cut-off at 0 stacks every column's order
        for cutoff in (0, _COUNT_LEVELS):
            rng = np.random.default_rng(seed)
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [COLUMN_KINDS[k](rng, n) for k in kinds],
                    categorical=[k == "categorical" for k in kinds],
                )
                root = presort(X)
            block = root
            # the root, then every node reached by up to four sifts
            for step, chosen in zip([None] + steps, picks):
                if step is not None:
                    go_left, var, pick = step
                    var %= X.p
                    values = np.unique(X.columns[var, block[0]])
                    if values.size < 2:
                        break
                    cut = values[pick % (values.size - 1)]
                    block = sift(X, block, var, cut)[0 if go_left else 1]
                rows = np.array(sorted({r % root.shape[0] for r in chosen}), dtype=np.intp)
                # always filter, the module's rule, always sort
                for share in (0.0, _SORT_SHARE, 2.0):
                    with sort_share(share):
                        got = node_orders(root, rank_table(root), block[0], rows)
                    assert got.dtype == block.dtype
                    assert got.tobytes() == block[rows].tobytes()
                    assert got.shape == (rows.size, block.shape[1])

    @pytest.mark.parametrize("cutoff", [0, _COUNT_LEVELS])
    def test_every_node_of_a_full_partition_matches_its_sifted_stack(self, cutoff):
        # one column of each kind, then a tied column with more levels than
        # _COUNT_LEVELS, which is sorted at either cut-off
        rng = np.random.default_rng(21)
        n = 2_500
        kinds = sorted(COLUMN_KINDS)
        columns = [COLUMN_KINDS[k](rng, n) for k in kinds]
        columns.append(rng.integers(-750, 750, size=n) * 0.5)
        with count_levels(cutoff):
            X = PredictorMatrix(columns, categorical=[k == "categorical" for k in kinds] + [False])
            root = presort(X)
        assert np.unique(X.columns[-1]).size > _COUNT_LEVELS
        assert not X.layout().tie_free[-1] and not X.layout().counted[-1]
        ranks = rank_table(root)
        every = np.arange(root.shape[0])
        sizes = []
        nodes = [root]
        # sift every node at a random cut until no column splits it
        while nodes:
            node = nodes.pop()
            m = node.shape[1]
            sizes.append(m)
            for rows in (every, rng.permutation(every)[: rng.integers(1, every.size + 1)]):
                rows = np.sort(rows)
                got = node_orders(root, ranks, node[0], rows)
                assert got.dtype == node.dtype
                assert got.tobytes() == node[rows].tobytes()
            for var in rng.permutation(X.p):
                values = np.unique(X.columns[var, node[0]])
                if values.size > 1:
                    nodes.extend(sift(X, node, var, values[rng.integers(values.size - 1)]))
                    break
        sizes = np.array(sizes)
        # the root, 2-row nodes, and nodes on both sides of the crossover
        assert (sizes == n).sum() == 1 and (sizes == 2).any()
        assert ((sizes > 2) & (sizes < _SORT_SHARE * n)).any()
        assert ((sizes >= _SORT_SHARE * n) & (sizes < n)).any()

    def test_rows_in_any_order_give_the_same_orders(self):
        X = PredictorMatrix([[3.0, 1.0, 2.0, 1.0, 0.0]])
        root = presort(X)
        for rows in ([1, 2, 3], [3, 1, 2], [2, 3, 1]):
            got = node_orders(root, rank_table(root), np.array(rows), np.array([0]))
            assert got.tolist() == [[1, 3, 2]]


def assert_same_grid(got, want):
    for name in ("var_ids", "ranks", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestCutpointGrid:
    @given(data=st.data())
    @settings(max_examples=300)
    def test_matches_per_column_reference(self, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
        n = data.draw(st.integers(2, 60))
        seed = data.draw(st.integers(0, 2**16))
        steps = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=3))
        budget_pick = data.draw(st.integers(0, 63))
        min_node_size = data.draw(st.integers(1, 4))
        order = data.draw(st.permutations(range(len(kinds))))
        n_scored = data.draw(st.none() | st.integers(0, len(kinds)))
        variables = None if n_scored is None else np.array(order[:n_scored], dtype=int)
        # the cut-off at 0 sorts every column; by default the tied and
        # categorical ones are counted
        for cutoff in (0, _COUNT_LEVELS):
            rng = np.random.default_rng(seed)
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [COLUMN_KINDS[k](rng, n) for k in kinds],
                    categorical=[k == "categorical" for k in kinds],
                )
                index = presort(X)
            # descend to a child node through cuts the reference offers
            for go_left, pick in steps:
                orders = column_orders(X, index[0])
                cuts = reference_grid(X, orders, budget=orders.shape[1])
                if not len(cuts):
                    break
                i = pick % len(cuts)
                children = sift(X, index, int(cuts.var_ids[i]), float(cuts.values[i]))
                index = children[0] if go_left else children[1]
            m = index.shape[1]
            budget = 1 + budget_pick % (m + 3)
            orders = column_orders(X, index[0])
            assert_same_grid(
                build_cutpoint_grid(
                    X, index[stack_rows(X, variables)], budget, min_node_size, variables
                ),
                reference_grid(
                    X, orders if variables is None else orders[variables],
                    budget, min_node_size, variables,
                ),
            )

    @given(data=st.data())
    @settings(max_examples=200)
    def test_counted_grid_is_the_sorted_grid(self, data):
        # "tied" holds 5 levels and both signed zeros, "categorical" 4: a
        # cut-off of 4 counts the categorical column at exactly the cut-off
        # and sorts the tied one, a level over it; 5 counts both
        kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
        n = data.draw(st.integers(2, 120))
        seed = data.draw(st.integers(0, 2**16))
        steps = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=3))
        budget_pick = data.draw(st.integers(0, 127))
        min_node_size = data.draw(st.integers(1, 4))
        order = data.draw(st.permutations(range(len(kinds))))
        n_scored = data.draw(st.none() | st.integers(0, len(kinds)))
        variables = None if n_scored is None else np.array(order[:n_scored], dtype=int)
        grids = []
        for cutoff in (0, 4, 5, _COUNT_LEVELS):
            rng = np.random.default_rng(seed)
            with count_levels(cutoff):
                X = PredictorMatrix(
                    [COLUMN_KINDS[k](rng, n) for k in kinds],
                    categorical=[k == "categorical" for k in kinds],
                )
                index = presort(X)
            # the same descent in every layout, through cuts of the grid
            # that sorts every column
            for go_left, pick in steps:
                orders = column_orders(X, index[0])
                cuts = reference_grid(X, orders, budget=orders.shape[1])
                if not len(cuts):
                    break
                i = pick % len(cuts)
                index = sift(X, index, int(cuts.var_ids[i]), float(cuts.values[i]))[
                    0 if go_left else 1
                ]
            budget = 1 + budget_pick % (index.shape[1] + 3)
            grids.append(
                build_cutpoint_grid(
                    X, index[stack_rows(X, variables)], budget, min_node_size, variables
                )
            )
        for grid in grids[1:]:
            assert_same_grid(grid, grids[0])

    @given(data=st.data())
    @settings(max_examples=200)
    def test_keys_place_every_sorted_candidate_in_its_stack_row(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        p = data.draw(st.integers(4, 7))
        n = data.draw(st.integers(4, 120))
        seed = data.draw(st.integers(0, 2**16))
        budget = data.draw(st.integers(1, 40))
        min_node_size = data.draw(st.integers(1, 3))
        go_left, var = data.draw(st.booleans()), data.draw(st.integers(0, p - 1))
        pick = data.draw(st.integers(0, 10**6))
        order = data.draw(st.permutations(range(p)))
        n_scored = data.draw(st.none() | st.integers(1, p))
        variables = None if n_scored is None else np.array(order[:n_scored])
        X, root = layout_matrix(layout, np.random.default_rng(seed), p, n)
        node = root
        values = np.unique(X.columns[var])
        if values.size > 1:
            node = sift(X, root, var, values[pick % (values.size - 1)])[0 if go_left else 1]
        wanted = stack_rows(X, variables)
        if layout == "filtered":
            index = node_orders(root, rank_table(root), node[0], wanted)
        else:
            index = node[wanted]
        grid = build_cutpoint_grid(X, index, budget, min_node_size, variables)
        if grid.ladder is not None:
            assert grid.keys is None
            return
        # the row of index that orders each scored sorted column
        scored = np.arange(p) if variables is None else variables
        scored = scored[~X.layout().counted[scored]]
        row_of = np.full(p, -1)
        row_of[scored] = np.arange(scored.size)
        in_stack = np.ones(len(grid), dtype=bool) if grid.levels is None else grid.levels < 0
        var_ids, ranks = grid.var_ids[in_stack], grid.ranks[in_stack]
        # a grid of counted columns alone has no sorted candidate and no keys
        keys = np.zeros(0, dtype=np.intp) if grid.keys is None else grid.keys
        m = index.shape[1]
        assert keys.shape == var_ids.shape
        assert np.array_equal(keys % m, ranks)
        assert np.array_equal(keys // m, row_of[var_ids])
        cuts = X.columns[var_ids, index.ravel()[keys]] + 0.0
        assert cuts.tobytes() == grid.values[in_stack].tobytes()

    @given(data=st.data())
    @settings(max_examples=200)
    def test_cut_reads_the_reference_value_of_every_candidate(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        p = data.draw(st.integers(4, 7))
        n = data.draw(st.integers(4, 120))
        seed = data.draw(st.integers(0, 2**16))
        every_rank = data.draw(st.booleans())
        budget_pick = data.draw(st.integers(0, 10**6))
        min_node_size = data.draw(st.integers(1, 4))
        # negated, a tie-free column's zero is -0.0, whose cut is +0.0
        negate = data.draw(st.booleans())
        go_left, var = data.draw(st.booleans()), data.draw(st.integers(0, p - 1))
        pick = data.draw(st.integers(0, 10**6))
        order = data.draw(st.permutations(range(p)))
        n_scored = data.draw(st.none() | st.integers(1, p))
        variables = None if n_scored is None else np.array(order[:n_scored])
        if layout in ("subset", "filtered") and variables is None:
            variables = np.array(order[: max(1, p // 2)])
        X, root = layout_matrix(layout, np.random.default_rng(seed), p, n)
        if negate:
            with count_levels(0 if layout == "sorted" else _COUNT_LEVELS):
                X = PredictorMatrix(-X.columns, categorical=X.categorical)
                root = presort(X)
        node = root
        values = np.unique(X.columns[var])
        if values.size > 1:
            node = sift(X, root, var, values[pick % (values.size - 1)])[0 if go_left else 1]
        m = node.shape[1]
        # every rank, or a strided ladder when the node has room for one
        budget = m if every_rank else 1 + budget_pick % max(1, m - 3)
        wanted = stack_rows(X, variables)
        if layout == "filtered":
            index = node_orders(root, rank_table(root), node[0], wanted)
        else:
            index = node[wanted]
        grid = build_cutpoint_grid(X, index, budget, min_node_size, variables)
        orders = column_orders(X, node[0])
        want = reference_grid(
            X, orders if variables is None else orders[variables], budget, min_node_size, variables
        )
        assert len(grid) == len(want)
        for i in range(len(want)):
            var_i, rank, value = grid.cut(i)
            assert (var_i, rank) == (want.var_ids[i], want.ranks[i])
            assert np.float64(value).tobytes() == want.values[i].tobytes()
        assert_same_grid(grid, want)
        if not len(want):
            return
        # a draw from the built grid is the draw from the eager one
        eager = CutpointGrid(want.var_ids, want.ranks, want.values)
        rng = np.random.default_rng(seed)
        log_scores = rng.normal(size=len(want)) * 3.0
        for method in ("direct", "gumbel"):
            for draw_seed in range(5):
                got, expect = (
                    sample_cutpoint(
                        CandidateScores(g, log_scores, -np.inf, 1),
                        np.random.default_rng(draw_seed),
                        method,
                    )
                    for g in (grid, eager)
                )
                assert got == expect
                assert np.float64(got.value).tobytes() == np.float64(expect.value).tobytes()

    def test_columns_with_the_cut_off_levels_are_counted(self):
        # 7 and 8 levels against a cut-off of 7, in a strided node
        rng = np.random.default_rng(12)
        n = 500
        cols = [
            rng.integers(0, 7, size=n) - 3.0,
            rng.integers(0, 8, size=n) / 4.0,
            rng.normal(size=n),
        ]
        with count_levels(7):
            X = PredictorMatrix(cols)
            assert X.layout().counted.tolist() == [True, False, False]
            counted = build_cutpoint_grid(X, presort(X)[stack_rows(X)], budget=30)
        with count_levels(0):
            Y = PredictorMatrix(cols)
            assert not Y.layout().counted.any()
            assert_same_grid(counted, build_cutpoint_grid(Y, presort(Y), budget=30))
        # column 0's candidates are its levels' bins 1, 2, ...; the others -1
        assert counted.levels.tolist()[:3] == [1, 2, 3]
        assert (counted.levels[counted.var_ids > 0] == -1).all()

    @pytest.mark.parametrize("last", [-0.0, 0.0])
    @pytest.mark.parametrize("cutoff", [0, _COUNT_LEVELS])
    def test_zero_cut_is_positive_whichever_zero_ends_the_run(self, last, cutoff):
        # the node's zero rows, in row order, end with ``last``, which ends
        # the zero run of the sorted order; the cut is +0.0 either way
        cols = [
            [1.0, -0.0, 0.0, -1.0, -0.0, 2.0, last, 0.0, 3.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
        ]
        with count_levels(cutoff):
            X = PredictorMatrix(cols)
            root = presort(X)
        assert X.layout().counted.tolist() == [cutoff > 0] * 2
        node = sift(X, root, 1, 0.0)[0]  # rows 0 to 6
        grid = build_cutpoint_grid(X, node[stack_rows(X, [0])], budget=10, variables=[0])
        assert grid.values.tolist() == [-1.0, 0.0, 1.0]
        assert not np.signbit(grid.values[1])
        # every row that holds either zero goes left of the cut
        left, right = sift(X, node, 0, float(grid.values[1]))
        assert np.sort(left[0]).tolist() == [1, 2, 3, 4, 6]
        assert np.sort(right[0]).tolist() == [0, 5]
        root_grid = build_cutpoint_grid(X, root[stack_rows(X)], budget=10)
        assert root_grid.values.tolist() == [-1.0, 0.0, 1.0, 2.0, 0.0]
        assert not np.signbit(root_grid.values[[1, 4]]).any()

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
            X, presort(X)[[1, 3]], budget=10, variables=np.array([1, 3])
        )
        assert set(grid.var_ids.tolist()) <= {1, 3}

    def test_variable_subset_may_be_a_list_or_empty(self):
        X = PredictorMatrix(np.random.default_rng(2).normal(size=(4, 60)))
        index = presort(X)[[3, 1]]
        from_list = build_cutpoint_grid(X, index, budget=10, variables=[3, 1])
        from_array = build_cutpoint_grid(X, index, budget=10, variables=np.array([3, 1]))
        assert from_list.var_ids.tolist() == from_array.var_ids.tolist()
        assert from_list.values.tolist() == from_array.values.tolist()
        assert len(build_cutpoint_grid(X, index[:0], budget=10, variables=[])) == 0

    @pytest.mark.parametrize(
        "rows, variables",
        [([0, 1, 2], [0, 2]), ([0, 1], None), ([0, 1, 2], None)],
        ids=["more_rows_than_scored", "fewer_rows_than_columns", "all_rows_one_missing"],
    )
    def test_index_without_one_row_per_scored_column_rejected(self, rows, variables):
        # a full index with a subset would read column 0's order for column 2
        X = PredictorMatrix(np.random.default_rng(4).normal(size=(4, 40)))
        with pytest.raises(DataError, match="one row for each of"):
            build_cutpoint_grid(X, presort(X)[rows], budget=10, variables=variables)

    @pytest.mark.parametrize(
        "variables, message",
        [
            ([1, 1], r"variables\[1\] is 1, the same column as variables\[0\]"),
            ([0, 3], r"variables\[1\] is 3, outside 0\.\.2"),
            ([-1, 0], r"variables\[0\] is -1, outside 0\.\.2"),
            ([0.5, 1.7], r"integer column ids, got dtype float64"),
            ([[0, 1]], r"1-d, got shape \(1, 2\)"),
        ],
        ids=["repeated", "past_the_last_column", "negative", "fractional", "two_dimensional"],
    )
    def test_bad_variable_subset_rejected(self, variables, message):
        # a repeat would score its column twice, -1 would wrap to column 2,
        # 0.5 would truncate to column 0
        X = PredictorMatrix(np.random.default_rng(4).normal(size=(3, 40)))
        with pytest.raises(DataError, match=message):
            build_cutpoint_grid(X, presort(X), budget=10, variables=np.array(variables))


class TestPredictorMatrix:
    def test_from_rows_transposes(self):
        X = PredictorMatrix.from_rows([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        assert (X.n, X.p) == (3, 2)
        assert X.columns[1].tolist() == [10.0, 20.0, 30.0]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="column 0, row 1 is nan"):
            PredictorMatrix([[1.0, np.nan]])
        # the first column at fault, then its first row
        with pytest.raises(DataError, match="column 0, row 2 is -inf"):
            PredictorMatrix([[0.0, 1.0, -np.inf], [np.inf, 2.0, 3.0]])
        # past the first block, the earlier column wins over the earlier row
        block = np.zeros((3, 2 * _COPY_BLOCK + 5))
        block[2, _COPY_BLOCK + 1] = np.nan
        block[1, 2 * _COPY_BLOCK + 4] = np.inf
        with pytest.raises(DataError, match=f"column 1, row {2 * _COPY_BLOCK + 4} is inf"):
            PredictorMatrix(block)
        with pytest.raises(DataError, match=f"column 1, row {2 * _COPY_BLOCK + 4} is inf"):
            PredictorMatrix.from_rows(block.T.copy())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.integers(1, 3 * _COPY_BLOCK + 1),
            st.sampled_from([_COPY_BLOCK - 1, _COPY_BLOCK, _COPY_BLOCK + 1]),
        ),
        p=st.integers(1, 12),
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
        layout=st.sampled_from(["C", "F", "every_other_row", "reversed_columns", "list"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_copy_matches_a_plain_transposing_copy(self, n, p, dtype, layout, seed):
        rng = np.random.default_rng(seed)
        shape = (2 * n if layout == "every_other_row" else n, p)
        if dtype is np.bool_:
            rows = rng.random(shape) < 0.5
        elif dtype is np.int64:
            # past 2**53 the cast to float64 rounds
            rows = rng.integers(-(2**62), 2**62, size=shape)
        else:
            rows = rng.standard_normal(shape).astype(dtype)
        rows = {
            "C": rows,
            "F": np.asfortranarray(rows),
            "every_other_row": rows[::2],
            "reversed_columns": rows[:, ::-1],
            "list": rows,
        }[layout]
        expect = np.array(rows.T, dtype=np.float64, order="C")
        if layout == "list":
            built = [PredictorMatrix.from_rows(rows.tolist()), PredictorMatrix(rows.T.tolist())]
        else:
            built = [PredictorMatrix.from_rows(rows), PredictorMatrix(rows.T)]
        for X in built:
            assert X.columns.dtype == np.float64
            assert X.columns.tobytes() == expect.tobytes()
            assert X.columns.flags.c_contiguous and not X.columns.flags.writeable
            assert not np.shares_memory(X.columns, rows)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2 * _COPY_BLOCK + 1),
        p=st.integers(1, 12),
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_columns_are_rows_of_the_full_copy(self, n, p, dtype, seed):
        rng = np.random.default_rng(seed)
        rows = (100 * rng.standard_normal((n, p))).astype(dtype)
        keep = np.sort(rng.choice(p, size=rng.integers(0, p + 1), replace=False))
        X = PredictorMatrix.from_rows(rows, keep=keep)
        assert (X.n, X.p) == (n, keep.size)
        full = PredictorMatrix.from_rows(rows).columns
        assert X.columns.tobytes() == full[keep].tobytes()
        assert X.columns.flags.c_contiguous and not X.columns.flags.writeable
        # a column that is not kept is still checked, and named by its place
        if dtype is not np.int64 and keep.size < p:
            row, col = rng.integers(n), rng.choice(np.setdiff1d(np.arange(p), keep))
            rows[row, col] = np.inf
            with pytest.raises(DataError, match=f"^column {col}, row {row} is inf"):
                PredictorMatrix.from_rows(rows, keep=keep)

    @pytest.mark.parametrize(
        "keep, message",
        [
            ([5], r"keep\[0\] is 5, outside 0\.\.2"),
            ([-1], r"keep\[0\] is -1, outside 0\.\.2"),
            ([2, 0], r"keep\[1\] is 0, below keep\[0\] = 2; keep lists column ids in ascending"),
            ([1, 1], r"keep\[1\] is 1, the same column as keep\[0\]"),
            ([0.0, 1.0], r"keep must be integer column ids, got dtype float64"),
            ([[0, 1]], r"keep must be 1-d, got shape \(1, 2\)"),
        ],
        ids=["past_last_column", "negative", "descending", "repeated", "float", "two_dimensional"],
    )
    def test_bad_kept_columns_rejected(self, keep, message):
        # unchecked, 5 raised a bare IndexError, -1 kept the last column and
        # [2, 0] and [1, 1] stored columns out of order or twice
        rows = np.arange(12.0).reshape(4, 3)
        with pytest.raises(DataError, match=message):
            PredictorMatrix.from_rows(rows, keep=keep)
        with pytest.raises(DataError, match=message):
            PredictorMatrix(rows.T, keep=np.array(keep))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
        reason="long double is float64 here",
    )
    @pytest.mark.parametrize("keep", [None, [1], []])
    def test_long_double_overflow_is_reported(self, keep):
        rows = np.ones((3, 2), dtype=np.longdouble)
        rows[2, 1] = np.longdouble("1e400")  # finite, but inf as a float64
        with np.errstate(over="ignore"), pytest.raises(DataError, match="column 1, row 2 is inf"):
            PredictorMatrix.from_rows(rows, keep=keep)

    def test_flag_shape_checked(self):
        with pytest.raises(DataError):
            PredictorMatrix([[1.0, 2.0]], categorical=[True, False])

    @pytest.mark.parametrize("flag", ["yes", 2, np.nan, 1.0, None, -1])
    def test_flags_other_than_bools_and_0_1_rejected(self, flag):
        with pytest.raises(DataError, match=f"categorical flag of column 1 is {flag!r}"):
            PredictorMatrix([[1.0, 2.0], [3.0, 4.0]], categorical=[True, flag])

    @pytest.mark.parametrize(
        "flags", [[True, 0], [np.True_, np.int64(0)], np.array([1, 0]), np.array([True, False])]
    )
    def test_bool_and_0_1_flags_accepted(self, flags):
        X = PredictorMatrix([[1.0, 2.0], [3.0, 4.0]], categorical=flags)
        assert X.categorical.tolist() == [True, False]

    def test_non_numeric_predictors_rejected(self):
        with pytest.raises(DataError, match="predictors are not numeric"):
            PredictorMatrix([["a", "b"]])
        with pytest.raises(DataError, match="predictors are not numeric"):
            PredictorMatrix.from_rows([["1.5", "x"]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[True, "1"]],
            [[True, "1"], [0, "2.5"]],
            [[1, "-0.0", False]],
            [["3"], [np.float32(1.5)], [True]],
        ],
        ids=["bool_and_string", "two_rows", "signed_zero_string", "one_column"],
    )
    def test_from_rows_parses_mixed_lists_like_the_constructor(self, rows):
        by_rows = PredictorMatrix.from_rows(rows)
        by_columns = PredictorMatrix([list(col) for col in zip(*rows)])
        assert by_rows.columns.tobytes() == by_columns.columns.tobytes()
        assert by_rows.columns.tolist() == np.array(rows, dtype=np.float64).T.tolist()

    def test_complex_predictors_rejected(self):
        with pytest.raises(DataError, match="predictors are complex"):
            PredictorMatrix(np.array([[1 + 2j, 3]]))

    def test_kind_labels(self):
        X = PredictorMatrix([[1.0], [2.0]], categorical=[False, True])
        assert X.categorical.tolist() == [False, True]

    def test_tie_free_detection(self):
        X = PredictorMatrix(
            [[1.0, 2.0, 3.0], [1.0, 1.0, 3.0], [1.0, 2.0, 3.0]],
            categorical=[False, False, True],
        )
        # any order that sorts each column will do
        for kind in ("quicksort", "stable"):
            orders = np.argsort(X.columns, axis=1, kind=kind)
            assert X.tie_free_columns(orders).tolist() == [True, False, False]

    def test_columns_are_a_read_only_copy_and_flags_are_kept(self):
        block = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 3.0]])
        kinds = np.array([False, False])
        X = PredictorMatrix(block, categorical=kinds)
        block[0, 0] = kinds[0] = 2.0  # the caller's arrays are not the stored ones
        assert X.columns[0].tolist() == [1.0, 2.0, 3.0]
        assert X.categorical.tolist() == [False, False]
        with pytest.raises(ValueError):
            X.columns[0, 0] = 2.0
        with pytest.raises(ValueError):
            X.categorical[0] = True
        layout = X.layout()
        assert layout.tie_free.tolist() == [True, False]
        assert X.layout() is layout
        with pytest.raises(ValueError):
            layout.tie_free[1] = True

    def test_repeated_names_rejected(self):
        with pytest.raises(DataError, match=r"names\[2\] is 'a', the same as names\[0\]"):
            PredictorMatrix(np.zeros((3, 4)), names=["a", "b", "a"])

    def test_a_fit_builds_the_layout_once_and_predict_never(self, monkeypatch):
        # the set-up's columns go to threads, but the calls that a tracer
        # wraps open and close on the calling thread
        calls = {"tie_free_columns": 0, "presort": 0}
        callers = set()

        def counting(name, run):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                callers.add(threading.get_ident())
                return run(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            PredictorMatrix, "tie_free_columns",
            counting("tie_free_columns", PredictorMatrix.tie_free_columns),
        )
        monkeypatch.setattr(forest_module, "presort", counting("presort", presort))
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(200, 4))
        rows[:, 1] = np.round(rows[:, 1])  # a counted column
        params = Hyperparams(n_trees=3, n_sweeps=4, burnin=1)
        with setup_threads(2) as opened:
            model = fit(rows, rows[:, 0] + rng.normal(size=200), params)
        assert calls == {"tie_free_columns": 1, "presort": 1}
        assert callers == {threading.get_ident()}
        # the argsorts and the neighbour checks of the 4 columns; no tied
        # column has a stack row, so no stable sort follows
        assert opened == [2, 2]
        made = []
        from_rows = PredictorMatrix.from_rows.__func__

        def keep_made(cls, *args, **kwargs):
            made.append(from_rows(cls, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(PredictorMatrix, "from_rows", classmethod(keep_made))
        model.predict(rows)
        assert len(made) == 1 and made[0]._layout is None
        assert calls == {"tie_free_columns": 1, "presort": 1}


def _same_layout(a, b) -> bool:
    """Whether two `ColumnLayout`s hold equal fields, arrays of one dtype."""

    def same(x, y) -> bool:
        if isinstance(x, dict):
            return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
        return type(x) is type(y) and x == y

    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


class TestThreadedSetUp:
    """A set-up spread over threads builds the arrays that one thread builds."""

    @staticmethod
    def _matrices(layout):
        """Two equal fresh matrices of a `LAYOUTS` entry, and its level cut-off."""
        rng = np.random.default_rng(LAYOUTS.index(layout))
        kinds = ["tie_free"] * 6 if layout == "tie_free" else sorted(COLUMN_KINDS) * 2
        columns = [COLUMN_KINDS[k](rng, 150) for k in kinds]
        flags = [k == "categorical" for k in kinds]
        cutoff = 0 if layout == "sorted" else _COUNT_LEVELS
        return [PredictorMatrix(columns, categorical=flags) for _ in range(2)], cutoff

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_layout_matches_one_thread(self, layout, cores):
        (one, many), cutoff = self._matrices(layout)
        with count_levels(cutoff):
            with setup_threads(None) as serial:
                stack = presort(one)
                ranks = rank_table(stack)
            with setup_threads(cores) as opened:
                threaded = presort(many)
                threaded_ranks = rank_table(threaded)
        assert serial == []
        assert threaded.dtype == stack.dtype and np.array_equal(threaded, stack)
        assert threaded_ranks.dtype == ranks.dtype and np.array_equal(threaded_ranks, ranks)
        assert not threaded_ranks.flags.writeable
        assert _same_layout(many.layout(), one.layout())
        # one pool per loop of more than one column: the argsorts of every
        # column, the neighbour checks of the continuous ones and the stable
        # sorts of the tied stack rows; the level codes and the rank table
        # stay on the caller
        tasks = (one.p, np.count_nonzero(~one.categorical), len(one.layout().tied_ranks))
        assert opened == [min(cores, k) for k in tasks if k > 1]

    def test_more_threads_than_cores_under_fast_switching(self):
        # every column writes its own row of a shared output; with more
        # threads than columns and a switch after almost every bytecode, a
        # write that strayed into another column's row would show
        (one, _), _ = self._matrices("sorted")
        with count_levels(0), setup_threads(None):
            stack = presort(one)
            ranks = rank_table(stack)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                (many, _), _ = self._matrices("sorted")
                with count_levels(0), setup_threads(8) as opened:
                    threaded = presort(many)
                    assert np.array_equal(rank_table(threaded), ranks)
                assert np.array_equal(threaded, stack)
                assert _same_layout(many.layout(), one.layout())
                # 6 columns, 4 of them continuous and 4 tied or categorical
                # with stack rows
                assert opened == [6, 4, 4]
        finally:
            sys.setswitchinterval(interval)

    def test_one_core_or_few_rows_start_no_thread(self):
        (X, _), _ = self._matrices("counted")
        before = threading.active_count()
        with setup_threads(1) as opened:
            stack = presort(X)
            rank_table(stack)
        assert opened == []
        # one pool for the argsorts and one for the neighbour checks; the one
        # tied stack row, column 0's, is sorted on the caller
        for rows, pools in ((X.n + 1, 0), (X.n, 2)):
            (X, _), _ = self._matrices("counted")
            with setup_threads(3) as opened, pytest.MonkeyPatch.context() as patch:
                patch.setattr(data_module, "_SETUP_ROWS", rows)
                patch.setattr(data_module, "_CHECK_ROWS", rows)
                rank_table(presort(X))
            assert len(opened) == pools
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_column_error_reaches_the_caller_unchanged(self, monkeypatch, cores):
        # the caller's first sort waits until a helper's sort has raised, so
        # the error comes from a helper whichever column it took
        (X, _), _ = self._matrices("tie_free")
        X.layout()
        caller, real = threading.get_ident(), np.argsort
        raised, lock, failed = [], threading.Lock(), threading.Event()

        def failing(a, *args, **kwargs):
            if threading.get_ident() == caller:
                assert failed.wait(10)
            else:
                with lock:
                    if not raised:
                        raised.append(DataError("column cannot be sorted"))
                        failed.set()
                        raise raised[0]
            return real(a, *args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(np, "argsort", failing)
        with setup_threads(cores) as opened:
            with pytest.raises(DataError, match="^column cannot be sorted$") as info:
                presort(X)
        assert info.value is raised[0]
        assert opened == [cores]
        assert threading.active_count() == before


class _CountingNumpy:
    """Stands in for numpy inside `xbart.data` and counts its sort calls,
    from any thread, by name; a stable argsort is counted on its own, with
    the array it sorted."""

    def __init__(self):
        self.calls = {"sort": [], "argsort": [], "argsort_stable": [], "unique": []}
        self._lock = threading.Lock()

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in ("sort", "argsort", "unique"):
            return real

        def counted(a, *args, **kwargs):
            key = name + ("_stable" if kwargs.get("kind") == "stable" else "")
            with self._lock:
                self.calls[key].append(a)
            return real(a, *args, **kwargs)

        return counted


class TestOneSortPerColumn:
    """A fit's set-up sorts each column once: one default argsort, which
    finds its ties and levels and is its stack row when it is tie-free."""

    @staticmethod
    def _mixed(n=3000, seed=9):
        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(0, 5, size=n) * rng.choice([-0.0, 1.0], size=n),  # counted column 0
            rng.normal(size=n),                         # tie-free
            rng.integers(0, 3, size=n),                 # categorical, counted
            rng.integers(0, 100_000, size=n),           # tied, more levels than counted
            np.round(rng.normal(size=n), 1),            # tied, counted
            rng.permutation(n) * 1e-310,                # tie-free subnormals
        ]
        flags = [False, False, True, False, False, False]
        return columns, flags

    @pytest.mark.parametrize("cores", [None, 2])
    def test_a_set_up_sorts_each_column_once(self, monkeypatch, cores):
        columns, flags = self._mixed()
        X = PredictorMatrix(columns, categorical=flags)
        y = X.columns[1] + X.columns[4]
        counting = _CountingNumpy()
        with setup_threads(cores) as opened:
            monkeypatch.setattr(data_module, "np", counting)
            sampler = forest_module.ForestSampler(X, y, Hyperparams(n_trees=2, mtry=1))
            monkeypatch.undo()
        calls = counting.calls
        assert not calls["sort"] and not calls["unique"]
        # one default argsort per column, each of its own column
        sorted_rows = [
            [j for j in range(X.p) if np.shares_memory(a, X.columns[j])] for a in calls["argsort"]
        ]
        assert sorted(sorted_rows) == [[j] for j in range(X.p)]
        layout = X.layout()
        assert layout.counted.tolist() == [True, False, True, False, True, False]
        # the radix sorts: column 0, counted, and the tied column 3 have stack rows
        assert list(layout.tied_ranks) == [0, 3]
        assert sorted(id(a) for a in calls["argsort_stable"]) == sorted(
            id(r) for r in layout.tied_ranks.values()
        )
        # pools: the argsorts, the neighbour checks, the radix sorts
        assert opened == ([] if cores is None else [2, 2, 2])
        want = np.argsort(X.columns, axis=1, kind="stable")
        assert np.array_equal(sampler.root_index, want[[0, 1, 3, 5]])

    @pytest.mark.parametrize("cores", [None, 2])
    def test_presort_after_layout_argsorts_only_tie_free_stack_columns(self, monkeypatch, cores):
        columns, flags = self._mixed()
        X = PredictorMatrix(columns, categorical=flags)
        counting = _CountingNumpy()
        with setup_threads(cores):
            monkeypatch.setattr(data_module, "np", counting)
            layout = X.layout()
            argsorts = len(counting.calls["argsort"])
            root = presort(X)
            monkeypatch.undo()
        calls = counting.calls
        assert argsorts == X.p
        # stack rows 0 and 3 are tied and come from the radix sorts; counted
        # columns 2 and 4 have no stack row
        sorted_rows = [
            [j for j in range(X.p) if np.shares_memory(a, X.columns[j])]
            for a in calls["argsort"][argsorts:]
        ]
        assert sorted(sorted_rows) == [[1], [5]]
        assert sorted(id(a) for a in calls["argsort_stable"]) == sorted(
            id(r) for r in layout.tied_ranks.values()
        )
        fresh = PredictorMatrix(columns, categorical=flags)
        want = presort(fresh)
        assert root.dtype == want.dtype
        assert np.array_equal(root, want)
        assert _same_layout(X.layout(), fresh.layout())


# values at the edges of float64: signed zeros, subnormals, huge magnitudes
_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0,
]


def _sort_tie_free(X) -> list[bool]:
    """The tie mask of a full sort of each continuous column."""
    out = []
    for col, categorical in zip(X.columns, X.categorical):
        s = np.sort(col)
        out.append(not categorical and bool(np.all(s[1:] != s[:-1])))
    return out


class TestLevelsFromOneArgsort:
    """A column's levels, ranks and tie flag come from one default argsort as
    `np.unique` and a full sort give them."""

    @staticmethod
    def _check(col):
        levels, ranks = data_module._levels(col, np.argsort(col))
        want_levels, want_ranks = np.unique(col, return_inverse=True)
        # np.unique sorts with the same default argsort, so even the signs of
        # zero levels agree
        assert levels.tobytes() == want_levels.tobytes()
        assert ranks.dtype == np.min_scalar_type(want_levels.size - 1)
        assert np.array_equal(ranks, want_ranks)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGE_VALUES),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=200)
    def test_levels_and_ranks_equal_np_unique(self, values):
        self._check(np.array(values, dtype=np.float64))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["edge", "constant", "normal", "categorical"]),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 200),
    )
    @settings(max_examples=100)
    def test_neighbour_check_equals_the_sorted_tie_mask(self, kinds, n):
        columns, flags = [], []
        for kind, seed in kinds:
            rng = np.random.default_rng(seed)
            columns.append(
                {
                    "edge": lambda: rng.choice(_EDGE_VALUES, size=n),
                    "constant": lambda: np.full(n, rng.choice(_EDGE_VALUES)),
                    "normal": lambda: rng.normal(size=n),
                    "categorical": lambda: rng.integers(0, 4, size=n).astype(float),
                }[kind]()
            )
            flags.append(kind == "categorical")
        X = PredictorMatrix(columns, categorical=flags)
        assert X.tie_free_columns(np.argsort(X.columns, axis=1)).tolist() == _sort_tie_free(X)
        layout = X.layout()
        assert layout.tie_free.tolist() == _sort_tie_free(X)
        for j in np.flatnonzero(~layout.tie_free):
            self._check(X.columns[j])

    @given(
        st.sampled_from(
            [1, 256, 257, _COUNT_LEVELS, _COUNT_LEVELS + 1, 65_536, 65_537, 70_000]
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12)
    def test_many_levels_equal_np_unique(self, levels, seed):
        # every level at least once, huge magnitudes and both signed zeros
        # among them, so that each rank type's bounds are met exactly
        rng = np.random.default_rng(seed)
        grid = np.linspace(-1.0, 1.0, levels) * 1e308
        grid[levels // 2] = -0.0
        extra = rng.choice(grid, size=2_000)
        extra[:50] = rng.choice([-0.0, 0.0], size=50)
        col = rng.permutation(np.concatenate((grid, extra)))
        assert np.unique(col).size == levels
        self._check(col)
        X = PredictorMatrix([col, rng.permutation(col.size) * 1e300])
        assert X.tie_free_columns(np.argsort(X.columns, axis=1)).tolist() == _sort_tie_free(X)


class TestCsvIngestion:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,b,y\n1,4.5,0.1\n2,5.5,0.2\n")
        X, y = read_csv_dataset(f, target="y")
        assert X.names == ["a", "b"]
        assert X.columns[0].tolist() == [1.0, 2.0]
        assert y.tolist() == [0.1, 0.2]

    def test_schema_marks_categorical(self, tmp_path):
        data = self._write(tmp_path / "d.csv", "a,b,y\n1,4,0\n2,5,1\n")
        schema = self._write(tmp_path / "s.txt", "a categorical\n# comment\n")
        X, _ = read_csv_dataset(data, target="y", schema=read_schema(schema))
        assert X.categorical.tolist() == [True, False]

    def test_missing_value_names_row_and_column(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\n1,0\n,1\n")
        with pytest.raises(DataError, match=r"row 3.*'a'"):
            read_csv_dataset(f, target="y")

    def test_non_numeric_cell(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\noops,0\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_csv_dataset(f, target="y")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,y\n1,2,0\n3,nan,1\n", "row 3: non-finite value 'nan' in column 'b'"),
            ("a,y\n1,0\n2,1\n3,inf\n", "row 4: non-finite value 'inf' in column 'y'"),
        ],
        ids=["feature", "target"],
    )
    def test_non_finite_cell_names_line_and_column(self, tmp_path, text, message):
        f = self._write(tmp_path / "d.csv", text)
        with pytest.raises(DataError, match=f"^{message}$"):
            read_csv_dataset(f, target="y")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "\ufeffy,a\n0.5,1\n1.5,2\n")
        X, y = read_csv_dataset(f, target="y")
        assert X.names == ["a"]
        assert y.tolist() == [0.5, 1.5]

    def test_byte_order_mark_is_not_part_of_the_schema(self, tmp_path):
        f = self._write(tmp_path / "s.txt", "\ufeffa categorical\n")
        assert read_schema(f) == {"a": "categorical"}

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

    def test_schema_column_named_twice(self, tmp_path):
        schema = self._write(
            tmp_path / "s.txt", "a categorical\nb continuous\n\na continuous\n"
        )
        with pytest.raises(DataError, match="s.txt:4: column 'a' already named on line 1"):
            read_schema(schema)

    def test_predict_features_select_by_name(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "extra,b,a\n9,4,1\n9,5,2\n")
        X = read_csv_features(f, ["a", "b"], categorical=np.array([False, False]))
        assert X.names == ["a", "b"]
        assert X.columns[0].tolist() == [1.0, 2.0]  # training order, not file order

    def test_predict_features_missing_column(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "a,y\n1,2\n")
        with pytest.raises(DataError, match="missing feature columns"):
            read_csv_features(f, ["a", "b"], categorical=np.array([False, False]))

    def test_predict_features_width_check_without_names(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "c1,c2,c3\n1,2,3\n")
        with pytest.raises(DataError, match="model expects"):
            read_csv_features(f, None, categorical=np.array([False, False]))

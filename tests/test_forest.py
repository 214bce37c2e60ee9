"""Tests for the sweep loop: bookkeeping, variance draws, weight updates."""

import os
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xbart
from conftest import LAYOUTS, count_levels, grid_memo, layout_matrix, setup_threads
from xbart import data as data_module
from xbart import tree as tree_module
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
from xbart.tree import _GRID_MEMO_BYTES, GridMemo


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
            {"n_trees": 2.5},
            {"alpha": "0.9"},
            {"mtry": 2.5},
            {"n_cutpoints": 2.5},
            {"sample_tau": "no"},
            {"beta": np.inf},
            {"n_trees": np.int64(2)},
            {"a_sigma": np.inf},
            {"b_sigma": np.nan},
            {"max_depth": True},
            {"sample_tau": 1},
            {"n_sweeps": None},
        ],
    )
    def test_bad_values_rejected(self, kw):
        (name,) = kw
        with pytest.raises(ConfigError, match=name):
            Hyperparams(**kw)

    def test_numpy_float_and_int_floats_accepted(self):
        h = Hyperparams(alpha=np.float64(0.5), beta=2, b_tau=np.float64(1e-3))
        assert (h.alpha, h.beta, h.b_tau) == (0.5, 2, 1e-3)

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

    def test_draws_do_not_depend_on_blas_threads(self):
        # a threaded BLAS dot product splits its sum at about 1e4 elements
        script = (
            "import numpy as np\n"
            "from xbart.forest import update_sigma2, update_tau\n"
            "x = np.random.default_rng(5).normal(size=100_000)\n"
            "print(repr(update_sigma2(x, 3.0, 1.0, np.random.default_rng(1))),"
            " repr(update_tau(x, 3.0, 1.0, np.random.default_rng(1))))\n"
        )
        src = str(Path(xbart.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


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
        assert s.params.n_cutpoints == 100  # min(n, 100)
        assert s.params.mtry == 3
        assert s.params.b_sigma == pytest.approx(var_y, rel=1e-12)
        assert s.params.b_tau == pytest.approx(0.5 * var_y / 8, rel=1e-12)
        given = Hyperparams(n_trees=8, n_cutpoints=7, mtry=2, b_sigma=0.5, b_tau=0.25)
        assert ForestSampler(X, y, given).params == given

    @pytest.mark.parametrize("mtry, filters", [(None, False), (3, False), (2, True)])
    def test_rank_table_only_for_trees_that_filter(self, mtry, filters):
        # 2 of 8 columns filter their orders from the root stack; 3 sift
        X, y = _toy(p=8)
        s = ForestSampler(X, y, Hyperparams(n_trees=2, mtry=mtry))
        if filters:
            assert s.root_ranks.shape == s.root_index.shape
            assert np.array_equal(np.argsort(s.root_ranks, axis=1), s.root_index)
        else:
            assert s.root_ranks is None

    def test_small_n_budget(self):
        X, y = _toy(n=40)
        assert ForestSampler(X, y).params.n_cutpoints == 40

    def test_mtry_exceeding_p_rejected(self):
        X, y = _toy()
        with pytest.raises(ConfigError):
            ForestSampler(X, y, Hyperparams(mtry=4))

    def test_target_validation(self):
        X, y = _toy()
        with pytest.raises(DataError):
            ForestSampler(X, y[:-1])
        with pytest.raises(DataError, match="target row 3 is nan"):
            ForestSampler(X, np.where(np.arange(60) == 3, np.nan, y))
        with pytest.raises(DataError):
            ForestSampler(X[:1], y[:1])
        # a variance that overflows is named before it reaches the prior fields
        with pytest.raises(DataError, match="target variance is inf"):
            ForestSampler(X, 1e300 * np.sign(y))
        # so is one that underflows, which would otherwise fit at scale 1
        with pytest.raises(DataError, match="target spread .* underflows to 0"):
            ForestSampler(X, 1e-300 * y)

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


def _tied(n=200, seed=0):
    """Tied continuous columns and a categorical one, with a step in column
    0 that most trees take as their root split."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            np.round(rng.normal(size=n), 1),
            np.round(rng.uniform(size=n), 2),
            rng.integers(0, 4, size=n),
            rng.normal(size=n),
        ]
    )
    y = 6.0 * (X[:, 0] > 0.3) + X[:, 1] + 0.3 * rng.normal(size=n)
    return PredictorMatrix.from_rows(X, categorical=[False, False, True, False]), y


def _model_file(X, y, params, seed) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        fit(X, y, params, seed=seed).save(path)
        return path.read_bytes()


class TestGridMemo:
    """The per-fit memo of root and depth-1 cutpoint grids is exact and bounded."""

    @given(data=st.data())
    @settings(max_examples=40)
    def test_memo_leaves_the_model_file_unchanged(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        p = data.draw(st.integers(4, 7))
        n = data.draw(st.integers(20, 150))
        seed = data.draw(st.integers(0, 2**16))
        params = Hyperparams(
            n_trees=4,
            n_sweeps=3,
            burnin=0,
            mtry=data.draw(st.none() | st.integers(1, p)),
            n_cutpoints=data.draw(st.integers(2, 29)),
            min_node_size=data.draw(st.integers(1, 3)),
        )
        tiny = data.draw(st.integers(1, 20_000))
        rng = np.random.default_rng(seed)
        X, _ = layout_matrix(layout, rng, p, n)
        y = np.where(X.columns[0] > np.median(X.columns[0]), 2.0, 0.0) + rng.normal(size=n)
        files = []
        for budget in (0, tiny, _GRID_MEMO_BYTES):
            with grid_memo(budget):
                files.append(_model_file(X, y, params, seed))
        assert files[1] == files[0]
        assert files[2] == files[0]

    def _count_grid_sizes(self, monkeypatch):
        sizes = []
        build = tree_module.build_cutpoint_grid

        def counted(X, index, *args, **kwargs):
            sizes.append(index.shape[1])
            return build(X, index, *args, **kwargs)

        monkeypatch.setattr(tree_module, "build_cutpoint_grid", counted)
        return sizes

    def test_root_is_gridded_once_per_fit(self, monkeypatch):
        X, y = _tied()
        params = Hyperparams(n_trees=5, n_sweeps=4, burnin=0)
        roots = params.n_trees * params.n_sweeps
        sizes = self._count_grid_sizes(monkeypatch)
        s = ForestSampler(X, y, params, seed=3)
        s.run()
        assert sizes.count(X.n) == 1
        assert s.grid_memo.hits > 0
        # every other root and every hit at depth 1 is a grid not built
        plain = len(sizes) + roots - 1 + s.grid_memo.hits
        sizes.clear()
        with grid_memo(0):
            ForestSampler(X, y, params, seed=3).run()
        assert sizes.count(X.n) == roots
        assert len(sizes) == plain

    @pytest.mark.parametrize("budget", [15_000, _GRID_MEMO_BYTES])
    def test_held_bytes_never_exceed_the_budget(self, budget):
        X, y = _tied(seed=1)
        with grid_memo(budget):
            s = ForestSampler(X, y, Hyperparams(n_trees=6, n_sweeps=4, burnin=0), seed=4)
        memo = s.grid_memo
        for _ in range(4):
            for h in range(6):
                s.update_tree(h)
                # each record starts with its size in bytes
                spans = sorted(
                    (start, start + int(memo.ring[start : start + 8].view(np.int64)[0]))
                    for start in memo.starts.values()
                )
                assert memo.held == sum(stop - start for start, stop in spans) <= budget
                assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        assert memo.hits > 0
        if budget < _GRID_MEMO_BYTES:
            assert len(memo.starts) < memo.misses  # some grids were dropped

    def test_ladder_grids_are_not_kept(self):
        # every column tie-free: each grid is a ladder, which the ring skips
        rng = np.random.default_rng(11)
        X = PredictorMatrix(rng.normal(size=(3, 200)))
        y = 6.0 * (X.columns[0] > 0.3) + rng.normal(size=200)
        params = Hyperparams(n_trees=5, n_sweeps=4, burnin=0)
        s = ForestSampler(X, y, params, seed=3)
        s.run()
        memo = s.grid_memo
        assert memo.misses > 0 and memo.hits == 0
        assert memo.held == 0 and not memo.starts and memo.ring is None
        with grid_memo(0):
            plain = ForestSampler(X, y, params, seed=3).run()
        for got, want in zip(s.draws, plain):
            for a, b in zip(got.trees, want.trees):
                assert a.var.tobytes() == b.var.tobytes()
                assert a.value.tobytes() == b.value.tobytes()

    def test_grids_with_tied_or_counted_columns_are_kept_and_hit(self):
        X, y = _tied(seed=4)
        s = ForestSampler(X, y, Hyperparams(n_trees=5, n_sweeps=4, burnin=0), seed=3)
        s.run()
        memo = s.grid_memo
        assert memo.hits > 0 and memo.starts and memo.held > 0
        # every kept record has its levels (counted columns) or keys (tied ones)
        for start in memo.starts.values():
            lengths = memo.ring[start : start + tree_module._HEADER].view(np.int64)[1:]
            kept = dict(zip(tree_module._KEPT, lengths.tolist()))
            assert kept["levels"] >= 0 or kept["keys"] >= 0

    @pytest.mark.parametrize("mtry", [1, 2])  # nodes that filter, nodes that sift
    def test_trees_that_draw_their_columns_leave_the_memo_alone(self, monkeypatch, mtry):
        X, y = _tied(seed=2)
        s = ForestSampler(X, y, Hyperparams(n_trees=4, n_sweeps=3, burnin=0, mtry=mtry), seed=5)
        sweeps = []
        lookup = GridMemo.grid

        def recorded(memo, *args):
            sweeps.append(len(s.draws))
            return lookup(memo, *args)

        monkeypatch.setattr(GridMemo, "grid", recorded)
        memo = weakref.ref(s.grid_memo)
        s.run()
        # only the first sweep scores every column; then the memo is freed
        assert sweeps and set(sweeps) == {0}
        assert s.grid_memo is None and memo() is None

    def test_memo_does_not_outlive_the_fit(self, monkeypatch):
        made = []
        init = GridMemo.__init__

        def recorded(memo, *args):
            init(memo, *args)
            made.append(weakref.ref(memo))

        monkeypatch.setattr(GridMemo, "__init__", recorded)
        X, y = _tied(seed=3)
        fit(X, y, Hyperparams(n_trees=3, n_sweeps=3, burnin=1), seed=6)
        assert len(made) == 1 and made[0]() is None


class TestThreadedSetUp:
    """A fit whose set-up runs on threads writes one thread's model file."""

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_layout_writes_one_threads_file(self, layout, cores):
        rng = np.random.default_rng(LAYOUTS.index(layout))
        X, _ = layout_matrix(layout, rng, 6, 150)
        y = np.where(X.columns[0] > np.median(X.columns[0]), 2.0, 0.0) + rng.normal(size=150)
        # "subset" scores three drawn columns per node, "filtered" two, so
        # its sampler builds the rank table
        mtry = {"subset": 3, "filtered": 2}.get(layout)
        params = Hyperparams(n_trees=3, n_sweeps=4, burnin=1, mtry=mtry)
        files = []
        with count_levels(0 if layout == "sorted" else data_module._COUNT_LEVELS):
            for cores_ in (None, cores):
                fresh = PredictorMatrix(X.columns, categorical=X.categorical)
                with setup_threads(cores_) as opened:
                    files.append(_model_file(fresh, y, params, seed=1))
                assert bool(opened) == (cores_ is not None)
        assert files[1] == files[0]

    def test_no_thread_outlives_the_fit(self):
        X, y = _tied(n=300, seed=4)
        before = threading.active_count()
        with setup_threads(2) as opened:
            fit(X, y, Hyperparams(n_trees=3, n_sweeps=3, burnin=1, mtry=1), seed=7)
        # the argsorts and the 3 continuous columns' neighbour checks; column
        # 0, counted, is the one tied stack row and is stable-sorted on the
        # caller
        assert opened == [2, 2]
        assert threading.active_count() == before

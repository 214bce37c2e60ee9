"""Tests for candidate scoring and cutpoint sampling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    COLUMN_KINDS,
    LAYOUTS,
    count_levels,
    empirical_split_criterion,
    ladder_keys,
    layout_matrix,
    naive_candidate_scores,
    quad_node_loglik,
    stack_block,
    theoretical_split_criterion,
)
from xbart.data import (
    _COUNT_LEVELS,
    CutpointGrid,
    PredictorMatrix,
    build_cutpoint_grid,
    node_orders,
    presort,
    rank_table,
    sift,
    stack_rows,
)
from xbart.errors import ConfigError, DataError
from xbart.splitting import (
    CandidateScores,
    no_split_log_weight,
    node_marginal_loglik,
    sample_cutpoint,
    scan_candidates,
    split_loglik,
)


class TestNodeMarginal:
    def test_worked_example(self):
        # s=3, n=2, unit variances: 0.5 * (log(1/3) + 9/3)
        assert node_marginal_loglik(3.0, 2, 1.0, 1.0) == pytest.approx(
            0.9506938556659451, rel=1e-12
        )

    def test_empty_node_contributes_zero(self):
        assert node_marginal_loglik(0.0, 0, 1.7, 0.3) == 0.0

    def test_zero_prior_variance_contributes_zero(self):
        assert node_marginal_loglik(5.0, 9, 2.0, 0.0) == 0.0

    def test_vectorised_matches_scalar(self):
        s = np.array([0.0, 1.5, -2.0])
        n = np.array([0, 3, 5])
        vec = node_marginal_loglik(s, n, 0.7, 1.3)
        for i in range(3):
            assert vec[i] == node_marginal_loglik(s[i], int(n[i]), 0.7, 1.3)

    def test_non_finite_variances_rejected(self):
        with pytest.raises(DataError):
            node_marginal_loglik(1.0, 1, np.nan, 1.0)
        with pytest.raises(DataError):
            node_marginal_loglik(1.0, 1, 1.0, np.inf)

    def test_matches_numerical_integration(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            y = 2.0 * rng.normal(size=n)
            sigma2 = float(rng.choice([0.25, 1.0, 4.0]))
            tau = float(rng.choice([0.25, 1.0, 4.0]))
            ours = node_marginal_loglik(y.sum(), n, sigma2, tau)
            oracle = quad_node_loglik(y, sigma2, tau)
            assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_split_two_point_example(self):
        # splitting residuals (1, -1) into singletons: 0.5 - log 2
        assert split_loglik(1.0, 1, 0.0, 2, 1.0, 1.0) == pytest.approx(
            -0.1931471805599453, rel=1e-12
        )

    def test_split_is_mirror_symmetric(self):
        a = split_loglik(2.0, 3, 5.0, 10, 1.4, 0.6)
        b = split_loglik(3.0, 7, 5.0, 10, 1.4, 0.6)
        assert a == pytest.approx(b, rel=1e-13)


class TestNoSplitWeight:
    def test_worked_example(self):
        # 100 candidates at depth 1 with default prior strength
        value = no_split_log_weight(100, 1, 0.95, 1.25)
        assert np.exp(value) == pytest.approx(150.3593926321518, rel=1e-12)
        assert value == pytest.approx(5.013028379263449, rel=1e-12)

    def test_root_with_alpha_one_cannot_stop(self):
        assert no_split_log_weight(50, 0, 1.0, 1.25) == -np.inf

    def test_zero_weight_maps_to_minus_inf(self):
        assert no_split_log_weight(10, 3, 1.0, 0.0) == -np.inf

    def test_weight_grows_with_depth(self):
        w = [no_split_log_weight(10, d, 0.95, 1.25) for d in range(5)]
        assert all(w[i] < w[i + 1] for i in range(4))

    def test_weight_scales_linearly_with_candidates(self):
        one = np.exp(no_split_log_weight(1, 2, 0.9, 1.0))
        many = np.exp(no_split_log_weight(37, 2, 0.9, 1.0))
        assert many == pytest.approx(37 * one, rel=1e-12)


def _flat_scores(n_candidates, depth, alpha, beta, shift=0.0):
    """Equal-scoring candidates against the matching no-split option."""
    grid = CutpointGrid(
        np.zeros(n_candidates, dtype=np.intp),
        np.arange(n_candidates, dtype=np.intp),
        np.arange(n_candidates, dtype=np.float64),
    )
    return CandidateScores(
        grid=grid,
        log_scores=np.full(n_candidates, shift),
        no_split_log_score=no_split_log_weight(n_candidates, depth, alpha, beta)
        + shift,
        depth=depth,
    )


class TestPriorSplitProbability:
    def test_depth_one_default_prior(self):
        scores = _flat_scores(100, 1, 0.95, 1.25)
        p_split = scores.probabilities()[:-1].sum()
        assert p_split == pytest.approx(0.39942579724551436, rel=1e-12)

    def test_root_default_prior(self):
        scores = _flat_scores(7, 0, 0.95, 1.25)
        assert scores.probabilities()[:-1].sum() == pytest.approx(0.95, rel=1e-12)

    @given(
        n_candidates=st.integers(min_value=1, max_value=400),
        depth=st.integers(min_value=0, max_value=8),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        beta=st.floats(min_value=0.0, max_value=3.0),
        shift=st.floats(min_value=-40.0, max_value=40.0),
    )
    @settings(max_examples=120)
    def test_candidate_count_cancels(self, n_candidates, depth, alpha, beta, shift):
        scores = _flat_scores(n_candidates, depth, alpha, beta, shift)
        probs = scores.probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        expected = alpha * (1.0 + depth) ** -beta
        assert probs[:-1].sum() == pytest.approx(expected, rel=1e-9)


class TestScan:
    def test_prefix_sums_feed_the_scores(self):
        X = PredictorMatrix([[0.0, 1.0, 2.0]])
        resid = np.array([1.0, 2.0, 5.0])
        scores = scan_candidates(
            X, presort(X), resid, build_cutpoint_grid(X, presort(X), budget=10),
            sigma2=1.3, tau=0.8, depth=0, alpha=0.95, beta=1.25,
        )
        # candidates at ranks 0 and 1: left sums (1, 3), right sums (7, 5)
        expect = [
            node_marginal_loglik(1.0, 1, 1.3, 0.8)
            + node_marginal_loglik(7.0, 2, 1.3, 0.8),
            node_marginal_loglik(3.0, 2, 1.3, 0.8)
            + node_marginal_loglik(5.0, 1, 1.3, 0.8),
        ]
        assert scores.log_scores == pytest.approx(expect, rel=1e-13)

    def test_no_split_score_is_weight_plus_parent(self):
        X = PredictorMatrix([[0.0, 1.0, 2.0]])
        resid = np.array([1.0, 2.0, 5.0])
        grid = build_cutpoint_grid(X, presort(X), budget=10)
        scores = scan_candidates(
            X, presort(X), resid, grid,
            sigma2=1.3, tau=0.8, depth=2, alpha=0.95, beta=1.25,
        )
        expect = no_split_log_weight(len(grid), 2, 0.95, 1.25) + node_marginal_loglik(
            8.0, 3, 1.3, 0.8
        )
        assert scores.no_split_log_score == pytest.approx(expect, rel=1e-13)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_matches_naive_filtering_on_mixed_node(self, data):
        # budgets of 1 to 50 against nodes of up to 300 rows give grids with a
        # candidate at most ranks as well as strided ones
        kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5))
        m = data.draw(st.integers(3, 300))
        seed = data.draw(st.integers(0, 2**16))
        order = data.draw(st.sampled_from(["all", "subset", "permutation"]))
        variables = None
        if order == "subset":
            chosen = data.draw(st.sets(st.integers(0, len(kinds) - 1), min_size=1))
            variables = np.array(sorted(chosen))
        elif order == "permutation":
            variables = np.array(data.draw(st.permutations(range(len(kinds)))))
        budget = data.draw(st.integers(1, 50))
        min_node_size = data.draw(st.integers(1, 3))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        # the cut-off at 0 sorts every column; by default the tied and
        # categorical ones are counted
        for cutoff in (0, _COUNT_LEVELS):
            rng = np.random.default_rng(seed)
            cols = np.vstack([COLUMN_KINDS[k](rng, m) for k in kinds])
            with count_levels(cutoff):
                X = PredictorMatrix(cols, categorical=[k == "categorical" for k in kinds])
                index = presort(X)
            orders = index[stack_rows(X, variables)]
            grid = build_cutpoint_grid(X, orders, budget, min_node_size, variables)
            if not len(grid):
                return
            resid = rng.normal(size=m) * scale
            scores = scan_candidates(
                X, orders, resid, grid, sigma2=0.9, tau=0.4, depth=1,
                alpha=0.95, beta=1.25,
            )
            expect = naive_candidate_scores(
                cols,
                np.arange(m),
                resid,
                grid,
                0.9,
                0.4,
                lambda sl, nl, sr, nr: node_marginal_loglik(sl, nl, 0.9, 0.4)
                + node_marginal_loglik(sr, nr, 0.9, 0.4),
            )
            np.testing.assert_allclose(scores.log_scores, expect, rtol=1e-10, atol=1e-10)

    def test_variable_subset_keeps_alignment(self):
        rng = np.random.default_rng(8)
        cols = rng.normal(size=(4, 25))
        X = PredictorMatrix(cols)
        index = presort(X)
        resid = rng.normal(size=25)
        variables = np.array([1, 3])
        grid = build_cutpoint_grid(X, index[variables], budget=6, variables=variables)
        scores = scan_candidates(
            X, index[variables], resid, grid, sigma2=1.0, tau=1.0, depth=0,
            alpha=0.95, beta=1.25,
        )
        expect = naive_candidate_scores(
            cols,
            np.arange(25),
            resid,
            grid,
            1.0,
            1.0,
            lambda sl, nl, sr, nr: node_marginal_loglik(sl, nl, 1.0, 1.0)
            + node_marginal_loglik(sr, nr, 1.0, 1.0),
        )
        np.testing.assert_allclose(scores.log_scores, expect, rtol=1e-10)

    def test_zero_tau_flattens_everything(self):
        X = PredictorMatrix([[0.0, 1.0, 2.0, 3.0]])
        resid = np.array([4.0, -1.0, 2.0, 0.5])
        grid = build_cutpoint_grid(X, presort(X), budget=10)
        scores = scan_candidates(
            X, presort(X), resid, grid, sigma2=1.0, tau=0.0, depth=1,
            alpha=0.95, beta=1.25,
        )
        assert np.all(scores.log_scores == 0.0)
        assert scores.no_split_log_score == pytest.approx(
            no_split_log_weight(len(grid), 1, 0.95, 1.25)
        )

    def test_empty_grid_rejected(self):
        X = PredictorMatrix([[1.0, 1.0]])
        empty = build_cutpoint_grid(X, presort(X), budget=10)
        with pytest.raises(DataError):
            scan_candidates(
                X, presort(X), np.zeros(2), empty, 1.0, 1.0, 0, 0.95, 1.25
            )

    def test_selection_probabilities_are_scale_invariant(self):
        rng = np.random.default_rng(77)
        X = PredictorMatrix(rng.normal(size=(2, 40)))
        index = presort(X)
        resid = rng.normal(size=40)
        grid = build_cutpoint_grid(X, index, budget=12)
        base = scan_candidates(
            X, index, resid, grid, 0.8, 0.5, 1, 0.95, 1.25
        ).probabilities()
        for lam in (0.1, 3.0, 100.0):
            scaled = scan_candidates(
                X, index, lam * resid, grid, lam**2 * 0.8, lam**2 * 0.5,
                1, 0.95, 1.25,
            ).probabilities()
            np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-12)


def _score(X, orders, resid, grid):
    return scan_candidates(
        X, orders, resid, grid, sigma2=0.9, tau=0.4, depth=1, alpha=0.95, beta=1.25
    )


def _naive(X, rows, resid, grid):
    return naive_candidate_scores(
        X.columns, rows, resid, grid, 0.9, 0.4,
        lambda sl, nl, sr, nr: node_marginal_loglik(sl, nl, 0.9, 0.4)
        + node_marginal_loglik(sr, nr, 0.9, 0.4),
    )


def _assert_same_scores(got, want):
    assert got.log_scores.dtype == want.log_scores.dtype
    assert got.log_scores.tobytes() == want.log_scores.tobytes()
    assert got.no_split_log_score == want.no_split_log_score


class TestBlockedScan:
    @given(data=st.data())
    @settings(max_examples=200)
    def test_blocks_of_index_rows_score_as_one_block(self, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        p = data.draw(st.integers(4, 7))
        n = data.draw(st.integers(6, 120))
        seed = data.draw(st.integers(0, 2**16))
        rows_per_block = data.draw(st.integers(1, 3))
        budget = data.draw(st.integers(1, 40))
        min_node_size = data.draw(st.integers(1, 3))
        go_left, var = data.draw(st.booleans()), data.draw(st.integers(0, p - 1))
        pick = data.draw(st.integers(0, 10**6))
        variables = None
        if layout in ("subset", "filtered"):
            variables = np.array(sorted(data.draw(st.sets(st.integers(0, p - 1), min_size=1))))
        rng = np.random.default_rng(seed)
        X, root = layout_matrix(layout, rng, p, n)
        node = root
        values = np.unique(X.columns[var])
        if values.size > 1:
            node = sift(X, root, var, values[pick % (values.size - 1)])[0 if go_left else 1]
        wanted = stack_rows(X, variables)
        if layout == "filtered":
            orders = node_orders(root, rank_table(root), node[0], wanted)
        else:
            orders = node[wanted]
        grid = build_cutpoint_grid(X, orders, budget, min_node_size, variables)
        if not len(grid):
            return
        resid = rng.normal(size=n)
        m = orders.shape[1]
        with stack_block(2**62):
            whole = _score(X, orders, resid, grid)
        with stack_block(rows_per_block * m + pick % m):
            blocked = _score(X, orders, resid, grid)
        _assert_same_scores(blocked, whole)
        np.testing.assert_allclose(
            blocked.log_scores, _naive(X, node[0], resid, grid), rtol=1e-10, atol=1e-10
        )


class TestLadderScan:
    """A grid whose scored sorted columns are all tie-free scores its
    ladder block exactly as the per-candidate segment path does."""

    def _check(self, X, orders, resid, grid):
        assert grid.ladder is not None and grid.keys is None and len(grid)
        got = _score(X, orders, resid, grid)
        segment = replace(grid, ladder=None, keys=ladder_keys(orders, grid.ladder))
        _assert_same_scores(got, _score(X, orders, resid, segment))
        np.testing.assert_allclose(
            got.log_scores, _naive(X, orders[0], resid, grid), rtol=1e-10, atol=1e-10
        )
        return got

    @given(data=st.data())
    @settings(max_examples=200)
    def test_ladder_is_the_segment_path(self, data):
        p = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(2, 300))
        budget = data.draw(st.integers(1, 60))  # strided whenever m - 2 > budget
        min_node_size = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**16))
        n_scored = data.draw(st.none() | st.integers(1, p))
        rng = np.random.default_rng(seed)
        X = PredictorMatrix(rng.normal(size=(p, m)))
        variables = None if n_scored is None else rng.permutation(p)[:n_scored]
        orders = presort(X)[stack_rows(X, variables)]
        grid = build_cutpoint_grid(X, orders, budget, min_node_size, variables)
        if not len(grid):
            return
        self._check(X, orders, rng.normal(size=m) * 10.0 ** rng.integers(-3, 4), grid)

    @pytest.mark.parametrize("m, budget", [(40, 100), (400, 30)], ids=["every_rank", "strided"])
    @pytest.mark.parametrize("min_node_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 3])
    def test_ladder_ranks_and_node_sizes(self, m, budget, min_node_size, p):
        rng = np.random.default_rng(m + min_node_size + p)
        X = PredictorMatrix(rng.normal(size=(p, m)))
        index = presort(X)
        grid = build_cutpoint_grid(X, index, budget, min_node_size)
        assert grid.ladder.tolist() == grid.ranks[: grid.ladder.size].tolist()
        assert len(grid) == p * grid.ladder.size
        self._check(X, index, rng.normal(size=m), grid)

    def test_single_candidate(self):
        X = PredictorMatrix([[2.0, 1.0, 4.0, 3.0], [0.5, 0.25, 0.75, 1.0]])
        index = presort(X)
        grid = build_cutpoint_grid(X, index[[1]], budget=10, min_node_size=2, variables=[1])
        assert grid.ladder.tolist() == [1] and len(grid) == 1
        got = self._check(X, index[[1]], np.array([1.0, -2.0, 0.5, 3.0]), grid)
        expect = node_marginal_loglik(-1.0, 2, 0.9, 0.4) + node_marginal_loglik(3.5, 2, 0.9, 0.4)
        assert got.log_scores == pytest.approx([expect], rel=1e-13)

    def test_counted_and_tie_free_columns_take_the_segment_path(self):
        rng = np.random.default_rng(21)
        m = 500
        X = PredictorMatrix(
            [
                rng.integers(0, 5, size=m),          # counted, and column 0
                rng.normal(size=m),
                COLUMN_KINDS["categorical"](rng, m),  # counted
                rng.normal(size=m),
            ],
            categorical=[False, False, True, False],
        )
        assert X.level_codes().counted.tolist() == [True, False, True, False]
        for variables in (None, np.array([3, 0, 1]), np.array([2, 3])):
            orders = presort(X)[stack_rows(X, variables)]
            grid = build_cutpoint_grid(X, orders, budget=25, variables=variables)
            assert (grid.levels >= 0).any() and (grid.levels < 0).any()
            assert grid.ladder is None
            resid = rng.normal(size=m)
            np.testing.assert_allclose(
                _score(X, orders, resid, grid).log_scores,
                _naive(X, orders[0], resid, grid),
                rtol=1e-10,
                atol=1e-10,
            )

    def test_a_tied_sorted_column_takes_the_segment_path(self):
        rng = np.random.default_rng(22)
        with count_levels(0):
            X = PredictorMatrix([rng.normal(size=200), np.round(rng.normal(size=200), 1)])
            index = presort(X)
        assert build_cutpoint_grid(X, index, budget=20).ladder is None
        # a node scoring its tie-free column alone still takes the ladder
        assert build_cutpoint_grid(X, index[[0]], budget=20, variables=[0]).ladder is not None


class _FixedUniform:
    """Generator stand-in yielding one preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampleCutpoint:
    def _scores(self, weights, no_split_weight):
        weights = np.asarray(weights, dtype=np.float64)
        grid = CutpointGrid(
            np.zeros(weights.size, dtype=np.intp),
            np.arange(weights.size, dtype=np.intp),
            np.arange(weights.size, dtype=np.float64),
        )
        return CandidateScores(
            grid=grid,
            log_scores=np.log(weights),
            no_split_log_score=float(np.log(no_split_weight))
            if no_split_weight > 0
            else -np.inf,
            depth=0,
        )

    def _draw_index(self, scores, rng, method):
        choice = sample_cutpoint(scores, rng, method=method)
        return len(scores.grid) if choice is None else choice.rank

    def test_two_equal_candidates_are_fair(self):
        scores = self._scores([1.0, 1.0], 0.0)
        rng = np.random.default_rng(123)
        hits = sum(self._draw_index(scores, rng, "direct") for _ in range(4000))
        # Binomial(4000, 1/2): 3.5 sigma is about 111
        assert abs(hits - 2000) < 111

    def test_direct_path_consumes_one_uniform(self):
        scores = self._scores([3.0, 1.0, 2.0], 1.5)
        rng = np.random.default_rng(7)
        twin = np.random.default_rng(7)
        sample_cutpoint(scores, rng, method="direct")
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_direct_frequencies_match_probabilities(self):
        scores = self._scores([3.0, 2.0, 1.0, 0.5], 0.8)
        probs = scores.probabilities()
        rng = np.random.default_rng(2024)
        n = 20_000
        counts = np.bincount(
            [self._draw_index(scores, rng, "direct") for _ in range(n)],
            minlength=probs.size,
        )
        sd = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) < 4.0 * sd)

    def test_gumbel_frequencies_match_probabilities(self):
        scores = self._scores([3.0, 2.0, 1.0, 0.5], 0.8)
        probs = scores.probabilities()
        rng = np.random.default_rng(99)
        n = 20_000
        counts = np.bincount(
            [self._draw_index(scores, rng, "gumbel") for _ in range(n)],
            minlength=probs.size,
        )
        result = stats.chisquare(counts, n * probs)
        assert result.pvalue > 1e-3

    def test_both_paths_sample_the_same_distribution(self):
        scores = self._scores([5.0, 1.0], 2.0)
        probs = scores.probabilities()
        rng = np.random.default_rng(5150)
        n = 20_000
        direct = np.bincount(
            [self._draw_index(scores, rng, "direct") for _ in range(n)], minlength=3
        )
        gumbel = np.bincount(
            [self._draw_index(scores, rng, "gumbel") for _ in range(n)], minlength=3
        )
        result = stats.chisquare(gumbel, direct.sum() * probs)
        assert result.pvalue > 1e-3
        result = stats.chisquare(direct, n * probs)
        assert result.pvalue > 1e-3

    def test_no_split_returns_none(self):
        scores = self._scores([1e-300, 1e-300], 1e6)
        assert sample_cutpoint(scores, np.random.default_rng(0)) is None

    def test_impossible_no_split_never_chosen(self):
        scores = self._scores([1.0, 1.0], 0.0)  # -inf no-split
        rng = np.random.default_rng(31)
        for _ in range(200):
            assert sample_cutpoint(scores, rng, method="gumbel") is not None

    def test_uniform_at_one_clamps_to_last_option(self):
        scores = self._scores([1.0, 1.0], 1.0)
        cdf = np.cumsum(scores.probabilities())
        choice = sample_cutpoint(scores, _FixedUniform(float(cdf[-1])))
        assert choice is None  # the last option here is no-split

    def test_unknown_method_rejected(self):
        scores = self._scores([1.0], 1.0)
        with pytest.raises(ConfigError):
            sample_cutpoint(scores, np.random.default_rng(0), method="metropolis")

    def test_choice_reports_grid_coordinates(self):
        grid = CutpointGrid(
            np.array([2, 5], dtype=np.intp),
            np.array([10, 11], dtype=np.intp),
            np.array([0.25, 0.75]),
        )
        scores = CandidateScores(
            grid=grid,
            log_scores=np.array([0.0, -1e9]),
            no_split_log_score=-np.inf,
            depth=3,
        )
        choice = sample_cutpoint(scores, np.random.default_rng(1))
        assert (choice.var, choice.rank, choice.value) == (2, 10, 0.25)


class TestSplitCriteria:
    def test_zero_function_has_zero_limit(self):
        assert theoretical_split_criterion(0.5, 0.0, 0.0, 1.0) == 0.0

    def test_symmetric_step_limit(self):
        # P = 1/2 on each side with means 0 and 1: (0 + 0.5) / 1
        assert theoretical_split_criterion(0.5, 0.0, 1.0, 1.0) == 0.5

    def test_limit_scales_inversely_with_noise(self):
        a = theoretical_split_criterion(0.3, 1.0, -1.0, 1.0)
        b = theoretical_split_criterion(0.3, 1.0, -1.0, 4.0)
        assert a == pytest.approx(4.0 * b, rel=1e-13)

    def test_empirical_matches_hand_computation(self):
        y = np.array([1.0, 3.0, -2.0, 0.0])
        x = np.array([0.1, 0.2, 0.8, 0.9])
        sigma2, tau = 1.5, 0.7
        parts = 0.0
        for side in (y[:2], y[2:]):
            nb = side.size
            coef = tau * nb / (sigma2 * (sigma2 + tau * nb))
            explained = (side**2).sum() - ((side - side.mean()) ** 2).sum()
            parts += coef * explained + np.log(sigma2 / (sigma2 + tau * nb))
        assert empirical_split_criterion(y, x, 0.5, sigma2, tau) == pytest.approx(
            parts / 4.0, rel=1e-13
        )

    def test_gumbel_term_shifts_by_gamma_over_n(self):
        y = np.array([1.0, 3.0, -2.0, 0.0])
        x = np.array([0.1, 0.2, 0.8, 0.9])
        base = empirical_split_criterion(y, x, 0.5, 1.0, 1.0)
        shifted = empirical_split_criterion(y, x, 0.5, 1.0, 1.0, gumbel=2.0)
        assert shifted - base == pytest.approx(0.5, rel=1e-12)

    def test_empty_side_rejected(self):
        y = np.array([1.0, 2.0])
        x = np.array([0.1, 0.2])
        with pytest.raises(DataError):
            empirical_split_criterion(y, x, 0.9, 1.0, 1.0)

    def test_large_sample_approaches_step_limit(self):
        rng = np.random.default_rng(64)
        n = 50_000
        x = rng.uniform(-1, 1, size=n)
        f = np.where(x <= 0.0, 0.0, 1.0)
        y = f + rng.normal(size=n)
        ln = empirical_split_criterion(y, x, 0.0, 1.0, 1.0)
        assert ln == pytest.approx(0.5, abs=0.05)

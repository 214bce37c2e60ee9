"""Tests for the synthetic benchmark surfaces, designs, and noise models."""

import numpy as np
import pytest

from xbart.errors import ConfigError
from xbart.simulate import (
    DgpSpec,
    gen_noise,
    gen_predictors,
    make_dataset,
    mean_function,
    rmse,
)


class TestMeanFunctions:
    def test_linear_two_columns(self):
        # coefficients run from -2 to 2 across columns
        assert mean_function("linear", [1.0, 0.5]) == pytest.approx(-1.0)

    def test_linear_is_odd_symmetric_in_the_coefficients(self):
        x = np.ones(5)
        assert mean_function("linear", x) == pytest.approx(0.0, abs=1e-12)

    def test_trig_poly_hand_value(self):
        # 5 sin(0) + 2 * 1 + 3 * 2 * 3
        assert mean_function("trig_poly", [0.0, 1.0, 2.0, 3.0]) == pytest.approx(20.0)

    def test_max_uses_only_first_three(self):
        assert mean_function("max", [0.3, -2.0, 0.9, 5.0]) == pytest.approx(0.9)

    def test_single_index_zero_at_the_shift_point(self):
        shift = -1.5 + np.arange(10) / 3.0
        assert mean_function("single_index", shift) == pytest.approx(0.0, abs=1e-12)

    def test_single_index_known_radius(self):
        shift = -1.5 + np.arange(10) / 3.0
        x = shift.copy()
        x[0] += 2.0  # squared distance a = 4
        assert mean_function("single_index", x) == pytest.approx(
            20.0 + np.sin(20.0)
        )

    def test_matrix_rows_match_scalar_calls(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 10))
        for name in ("linear", "single_index", "trig_poly", "max"):
            vals = mean_function(name, X)
            for i in range(7):
                assert vals[i] == pytest.approx(mean_function(name, X[i]))

    def test_width_requirements(self):
        with pytest.raises(ConfigError):
            mean_function("single_index", np.ones(9))
        with pytest.raises(ConfigError):
            mean_function("trig_poly", np.ones(3))
        with pytest.raises(ConfigError):
            mean_function("max", np.ones(2))
        with pytest.raises(ConfigError):
            mean_function("cubic", np.ones(5))


class TestPredictors:
    def test_independent_is_standard_normal(self):
        X = gen_predictors(50_000, 3, "independent", np.random.default_rng(1))
        assert X.shape == (50_000, 3)
        assert np.abs(X.mean(axis=0)).max() < 0.03
        np.testing.assert_allclose(X.std(axis=0), 1.0, atol=0.02)

    def test_factor_columns_have_unit_sample_sd(self):
        X = gen_predictors(400, 10, "factor", np.random.default_rng(2))
        np.testing.assert_allclose(X.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_factor_block_correlation_structure(self):
        X = gen_predictors(10_000, 10, "factor", np.random.default_rng(3))
        corr = np.corrcoef(X.T)
        within = corr[:5, :5][~np.eye(5, dtype=bool)]
        cross = corr[:5, 5:]
        assert within.min() > 0.9
        assert np.abs(cross).max() < 0.05

    def test_factor_width_must_be_multiple_of_five(self):
        with pytest.raises(ConfigError):
            gen_predictors(100, 7, "factor", np.random.default_rng(0))

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            gen_predictors(10, 2, "lattice", np.random.default_rng(0))


class TestNoise:
    def test_noiseless_case_is_exact_zero(self):
        f = np.random.default_rng(0).normal(size=100)
        noise = gen_noise("gaussian", 0.0, f, np.random.default_rng(1))
        assert np.all(noise == 0.0)

    def test_gaussian_variance_tracks_signal(self):
        rng = np.random.default_rng(4)
        f = 3.0 * rng.normal(size=100_000)
        noise = gen_noise("gaussian", 2.0, f, rng)
        target = 4.0 * np.var(f, ddof=1)
        assert np.var(noise) == pytest.approx(target, rel=0.03)

    def test_t3_variance_matches_gaussian_scale(self):
        rng = np.random.default_rng(5)
        f = np.linspace(-2, 2, 100_000)
        noise = gen_noise("t3", 1.0, f, rng)
        assert np.var(noise) == pytest.approx(np.var(f, ddof=1), rel=0.1)

    def test_t3_is_heavy_tailed(self):
        rng = np.random.default_rng(6)
        f = np.ones(100_000) + np.arange(100_000) % 7  # fixed signal spread
        g = gen_noise("gaussian", 1.0, f, np.random.default_rng(7))
        t = gen_noise("t3", 1.0, f, rng)

        def kurtosis(v):
            return np.mean((v - v.mean()) ** 4) / np.var(v) ** 2

        assert kurtosis(g) == pytest.approx(3.0, abs=0.2)
        assert kurtosis(t) > 5.0

    def test_bad_arguments(self):
        f = np.ones(10)
        with pytest.raises(ConfigError):
            gen_noise("cauchy", 1.0, f, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            gen_noise("gaussian", -0.5, f, np.random.default_rng(0))
        for kappa in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="kappa"):
                gen_noise("gaussian", kappa, f, np.random.default_rng(0))


class TestDgpSpec:
    def test_label_mentions_the_configuration(self):
        label = DgpSpec("max", n=500, p=10, kappa=2.0).label()
        assert "max" in label and "n=500" in label and "kappa=2" in label

    @pytest.mark.parametrize(
        "kw",
        [
            {"function": "nope", "n": 100, "p": 10},
            {"function": "linear", "n": 1, "p": 10},
            {"function": "single_index", "n": 100, "p": 9},
            {"function": "linear", "n": 100, "p": 12, "predictors": "factor"},
            {"function": "linear", "n": 100, "p": 10, "noise": "uniform"},
            {"function": "linear", "n": 100, "p": 10, "kappa": -1.0},
            {"function": "max", "n": 10, "p": 3, "kappa": float("nan")},
            {"function": "max", "n": 10, "p": 3, "kappa": float("inf")},
            {"function": "max", "n": 2.5, "p": 3},
            {"function": "max", "n": True, "p": 3},
            {"function": "max", "n": 10, "p": np.int64(3)},
        ],
    )
    def test_invalid_configurations(self, kw):
        with pytest.raises(ConfigError):
            DgpSpec(**kw)

    @pytest.mark.parametrize(
        "field, value",
        [("kappa", float("nan")), ("kappa", float("inf")), ("n", 2.5), ("n", True), ("p", 3.0)],
    )
    def test_the_error_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} "):
            DgpSpec(**{"function": "max", "n": 10, "p": 3, field: value})


class TestMakeDataset:
    def test_pieces_fit_together(self):
        spec = DgpSpec("trig_poly", n=300, p=6, kappa=1.0)
        X, y, f = make_dataset(spec, np.random.default_rng(8))
        assert X.shape == (300, 6)
        np.testing.assert_array_equal(f, mean_function("trig_poly", X))
        assert not np.array_equal(y, f)

    def test_noiseless_target_equals_surface(self):
        spec = DgpSpec("max", n=100, p=5, kappa=0.0)
        _, y, f = make_dataset(spec, np.random.default_rng(9))
        np.testing.assert_array_equal(y, f)

    def test_seeded_reproducibility(self):
        spec = DgpSpec("linear", n=50, p=5, predictors="factor", noise="t3")
        a = make_dataset(spec, np.random.default_rng(10))
        b = make_dataset(spec, np.random.default_rng(10))
        for x, z in zip(a, b):
            np.testing.assert_array_equal(x, z)


class TestRmse:
    def test_zero_for_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert rmse(v, v) == 0.0

    def test_hand_example(self):
        assert rmse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.5))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            rmse([1.0, 2.0], [1.0])

"""Synthetic regression surfaces and noise models for benchmarking.

Four mean functions over a p-dimensional design, two predictor designs
(independent standard normals, or a five-variables-per-factor block design
rescaled to unit column spread), and two noise families whose scale is tied
to the realised signal variance through the noise-to-signal ratio kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MEAN_FUNCTIONS = ("linear", "single_index", "trig_poly", "max")
PREDICTOR_KINDS = ("independent", "factor")
NOISE_KINDS = ("gaussian", "t3")

_MIN_P = {"linear": 2, "single_index": 10, "trig_poly": 4, "max": 3}


def mean_function(name: str, X) -> np.ndarray:
    """Evaluate one of the benchmark surfaces on rows of ``X``.

    ``X`` may be a single p-vector (returns a scalar) or an ``(n, p)``
    matrix (returns length-n values).
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    p = X.shape[1]
    if name not in MEAN_FUNCTIONS:
        raise ConfigError(f"unknown mean function {name!r}, pick from {MEAN_FUNCTIONS}")
    if p < _MIN_P[name]:
        raise ConfigError(f"{name!r} needs at least p={_MIN_P[name]} columns, got {p}")
    if name == "linear":
        coef = -2.0 + 4.0 * np.arange(p) / (p - 1)
        out = X @ coef
    elif name == "single_index":
        shift = -1.5 + np.arange(10) / 3.0
        a = np.sum((X[:, :10] - shift) ** 2, axis=1)
        out = 10.0 * np.sqrt(a) + np.sin(5.0 * a)
    elif name == "trig_poly":
        out = (
            5.0 * np.sin(3.0 * X[:, 0])
            + 2.0 * X[:, 1] ** 2
            + 3.0 * X[:, 2] * X[:, 3]
        )
    else:  # max
        out = np.max(X[:, :3], axis=1)
    return float(out[0]) if single else out


def gen_predictors(
    n: int, p: int, kind: str, rng: np.random.Generator
) -> np.ndarray:
    """Draw an ``(n, p)`` design matrix.

    ``independent`` columns are i.i.d. standard normal.  ``factor`` builds
    p/5 latent factors, loads five consecutive variables on each (variable
    rows 0-4 on factor 0, 5-9 on factor 1, ...), perturbs with
    N(0, 0.01 * n_factors) noise and rescales every column to sample
    standard deviation 1.
    """
    if kind not in PREDICTOR_KINDS:
        raise ConfigError(f"unknown predictor design {kind!r}")
    if kind == "independent":
        return rng.standard_normal((n, p))
    if p % 5 != 0 or p < 5:
        raise ConfigError(f"factor design needs p divisible by 5, got p={p}")
    k = p // 5
    factors = rng.standard_normal((k, n))
    loadings = np.zeros((p, k))
    loadings[np.arange(p), np.arange(p) // 5] = 1.0
    X = (loadings @ factors).T + rng.normal(0.0, np.sqrt(0.01 * k), size=(n, p))
    return X / X.std(axis=0, ddof=1)


def gen_noise(
    kind: str, kappa: float, f_values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw additive noise scaled to ``kappa**2`` times the signal variance.

    The signal variance is the sample variance of the realised surface on
    the training rows.  ``t3`` noise divides a Student-t(3) draw by sqrt(3)
    so its variance matches the Gaussian case.
    """
    if kind not in NOISE_KINDS:
        raise ConfigError(f"unknown noise family {kind!r}")
    if not 0 <= kappa < np.inf:
        raise ConfigError(f"kappa must be finite and >= 0, got {kappa}")
    f_values = np.asarray(f_values, dtype=np.float64)
    scale = kappa * np.sqrt(np.var(f_values, ddof=1))
    if kind == "gaussian":
        return scale * rng.standard_normal(f_values.size)
    return scale * rng.standard_t(3, size=f_values.size) / np.sqrt(3.0)


@dataclass(frozen=True)
class DgpSpec:
    """One benchmark data-generating configuration."""

    function: str
    n: int
    p: int
    predictors: str = "independent"
    noise: str = "gaussian"
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("n", "p"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} is not a valid int: {value!r}")
        if self.function not in MEAN_FUNCTIONS:
            raise ConfigError(
                f"unknown mean function {self.function!r}, pick from {MEAN_FUNCTIONS}"
            )
        if self.n < 2:
            raise ConfigError(f"need n >= 2, got {self.n}")
        if self.p < _MIN_P[self.function]:
            raise ConfigError(
                f"{self.function!r} needs p >= {_MIN_P[self.function]}, got {self.p}"
            )
        if self.predictors not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor design {self.predictors!r}")
        if self.predictors == "factor" and (self.p % 5 != 0 or self.p < 5):
            raise ConfigError(f"factor design needs p divisible by 5, got {self.p}")
        if self.noise not in NOISE_KINDS:
            raise ConfigError(f"unknown noise family {self.noise!r}")
        if not 0 <= self.kappa < np.inf:
            raise ConfigError(f"kappa must be finite and >= 0, got {self.kappa}")

    def label(self) -> str:
        return (
            f"{self.function} n={self.n} p={self.p} x={self.predictors} "
            f"err={self.noise} kappa={self.kappa:g}"
        )


def make_dataset(
    spec: DgpSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one training set: returns ``(X, y, f)`` with ``y = f + noise``."""
    X = gen_predictors(spec.n, spec.p, spec.predictors, rng)
    f = mean_function(spec.function, X)
    y = f + gen_noise(spec.noise, spec.kappa, f, rng)
    return X, y, f


def rmse(predicted, truth) -> float:
    """Root mean squared error between two equal-length vectors."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise ConfigError(f"shape mismatch {predicted.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((predicted - truth) ** 2)))

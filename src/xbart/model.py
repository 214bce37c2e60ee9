"""Fitting entry point, posterior prediction, and model persistence.

A fitted model is the centering constant plus the retained sweep snapshots;
prediction averages the forest evaluations of those snapshots and adds the
constant back.  Models round-trip through a versioned JSON container whose
floats are written with full ``repr`` precision, so loaded models predict
bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import PredictorMatrix
from .errors import ConfigError, DataError, ModelFormatError
from .forest import ForestSampler, Hyperparams, SweepDraw
from .tree import Tree, parse_finite

_FORMAT = "xbart-model"
_VERSION = 1
# JSON types accepted for each ``Hyperparams`` annotation (``| None`` aside)
_PARAM_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass
class FittedModel:
    """Everything needed to predict: retained draws plus the data schema.

    ``draws`` holds only post-burn-in snapshots.
    """

    params: Hyperparams
    y_offset: float
    n_features: int
    categorical: np.ndarray
    feature_names: list[str] | None
    draws: list[SweepDraw]

    def _check_features(self, X) -> PredictorMatrix:
        if not isinstance(X, PredictorMatrix):
            X = PredictorMatrix.from_rows(X, categorical=self.categorical)
        if X.p != self.n_features:
            raise DataError(
                f"model was fitted on {self.n_features} columns, got {X.p}"
            )
        return X

    def predict_draws(self, X) -> np.ndarray:
        """Per-draw predictions, shape ``(n_rows, n_retained_draws)``.

        Column ``k`` is the centering constant plus the sum of tree
        evaluations of retained snapshot ``k``.
        """
        X = self._check_features(X)
        if not self.draws:
            raise ModelFormatError("model holds no retained draws")
        out = np.empty((X.n, len(self.draws)))
        for k, draw in enumerate(self.draws):
            acc = np.full(X.n, self.y_offset)
            for tree in draw.trees:
                acc += tree.predict(X)
            out[:, k] = acc
        return out

    def predict(self, X) -> np.ndarray:
        """Posterior-mean prediction: the average over retained draws."""
        return self.predict_draws(X).mean(axis=1)

    def sigma2_draws(self) -> np.ndarray:
        """Retained noise-variance draws, in sweep order."""
        return np.array([d.sigma2 for d in self.draws])

    def save(self, path) -> None:
        """Write the versioned JSON container."""
        if not self.draws:
            raise ModelFormatError("refusing to save a model with no retained draws")
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "params": asdict(self.params),
            "y_offset": self.y_offset,
            "n_features": self.n_features,
            "categorical": [int(c) for c in self.categorical],
            "feature_names": self.feature_names,
            "draws": [
                {
                    "sweep": d.sweep,
                    "sigma2": d.sigma2,
                    "tau": d.tau,
                    "trees": [t.to_records() for t in d.trees],
                }
                for d in self.draws
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def fit(X, y, params: Hyperparams | None = None, seed=0) -> FittedModel:
    """Fit the sampler to ``(X, y)`` and keep the post-burn-in draws.

    ``X`` may be a ``PredictorMatrix`` or a plain ``(n, p)`` array (all
    columns continuous).  ``seed`` feeds ``numpy.random.default_rng``.
    """
    sampler = ForestSampler(X, y, params=params, seed=seed)
    return FittedModel(
        params=sampler.params,
        y_offset=sampler.y_offset,
        n_features=sampler.X.p,
        categorical=sampler.X.categorical.copy(),
        feature_names=list(sampler.X.names) if sampler.X.names else None,
        draws=sampler.run()[sampler.params.burnin :],
    )


def load_model(path) -> FittedModel:
    """Read a model container written by ``FittedModel.save``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ModelFormatError(f"{path}: missing {_FORMAT!r} header")
    if payload.get("version") != _VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version {payload.get('version')!r}, "
            f"this build reads version {_VERSION}"
        )
    try:
        params = _load_params(payload["params"])
        n_features = payload["n_features"]
        if type(n_features) is not int or n_features < 1:
            raise ModelFormatError(
                f"n_features is not a positive integer: {n_features!r}"
            )
        if params.mtry is not None and params.mtry > n_features:
            raise ModelFormatError(
                f"params.mtry={params.mtry} exceeds n_features={n_features}"
            )
        categorical = np.asarray(payload["categorical"], dtype=bool)
        if categorical.shape != (n_features,):
            raise ModelFormatError(
                f"categorical has shape {categorical.shape}, expected ({n_features},)"
            )
        feature_names = payload.get("feature_names")
        if feature_names is not None and (
            not isinstance(feature_names, list)
            or len(feature_names) != n_features
            or not all(isinstance(name, str) for name in feature_names)
        ):
            raise ModelFormatError(
                f"feature_names is not a list of {n_features} strings: {feature_names!r}"
            )
        draws = [
            _load_draw(d, k, params.n_trees, n_features)
            for k, d in enumerate(payload["draws"])
        ]
        model = FittedModel(
            params=params,
            y_offset=parse_finite(payload["y_offset"], "y_offset"),
            n_features=n_features,
            categorical=categorical,
            feature_names=feature_names,
            draws=draws,
        )
    except (ConfigError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from None
    if not model.draws:
        raise ModelFormatError(f"{path}: model holds no retained draws")
    return model


def _load_params(raw) -> Hyperparams:
    """The stored ``params``, each field checked against its annotation."""
    for field in fields(Hyperparams):
        value = raw[field.name]
        kind, _, optional = field.type.partition(" | ")
        if not (value is None and optional) and (
            type(value) not in _PARAM_TYPES[kind] or value - value != 0
        ):
            raise ModelFormatError(
                f"params.{field.name} is not a valid {field.type}: {value!r}"
            )
    return Hyperparams(**raw)


def _load_draw(d: dict, k: int, n_trees: int, n_features: int) -> SweepDraw:
    """Stored draw ``k``, its sweep number and tree count checked."""
    sweep, trees = d["sweep"], d["trees"]
    if type(sweep) is not int or sweep < 1:
        raise ModelFormatError(f"sweep of draw {k} is not a positive integer: {sweep!r}")
    if len(trees) != n_trees:
        raise ModelFormatError(
            f"draw {k} holds {len(trees)} trees, but params.n_trees is {n_trees}"
        )
    return SweepDraw(
        sweep=sweep,
        trees=[Tree.from_records(t, n_features) for t in trees],
        sigma2=parse_finite(d["sigma2"], f"sigma2 of draw {k}"),
        tau=parse_finite(d["tau"], f"tau of draw {k}"),
    )

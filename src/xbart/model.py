"""Fitting entry point, posterior prediction, and model persistence.

A fitted model is the centering constant plus the retained sweep snapshots;
prediction averages the forest evaluations of those snapshots and adds the
constant back.  Models round-trip through a versioned JSON container whose
floats are written with full ``repr`` precision, so loaded models predict
bit-identically.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import PredictorMatrix, as_rows
from .errors import ConfigError, DataError, ModelFormatError
from .forest import ForestSampler, Hyperparams, SweepDraw
from .tree import Tree, parse_finite

_FORMAT = "xbart-model"
_VERSION = 1

# A batch of fewer rows is evaluated on one thread.  Threads contend for the
# interpreter lock at every numpy call, and only the part of a call that runs
# without it overlaps; that part grows with the rows, so the crossover is in
# rows (40,000 to 64,000 on three benchmark models, whatever their splits),
# not in rows times splits (BENCH_predict_threads.json).
_THREAD_ROWS = 64_000


def _thread_count(n_draws: int) -> int:
    """Threads a predict may use: one per allowed core, at most one per draw."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_draws)


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

    def _check_features(self, p: int, names=None) -> None:
        if p != self.n_features:
            raise DataError(f"model was fitted on {self.n_features} columns, got {p}")
        if names and self.feature_names and names != self.feature_names:
            j = next(j for j, (a, b) in enumerate(zip(names, self.feature_names)) if a != b)
            raise DataError(
                f"column {j} is named {names[j]!r}, model expects {self.feature_names[j]!r}"
            )

    def _split_block(
        self, X, trees: list[list[Tree]]
    ) -> tuple[PredictorMatrix, list[list[Tree]]]:
        """A bare batch's block of split columns, and ``trees`` relabelled to it.

        The width is checked first.  Every cell of ``X`` is then checked for
        finite values, but only the columns that some tree splits on are
        copied, and each tree's split variables are renumbered to rows of
        that block; a leaf's -1 reads the map's last entry, which is -1 too.
        When every column is split, the block is the full copy and the trees
        are returned as they are.
        """
        X = as_rows(X)
        if X.ndim == 2:
            self._check_features(X.shape[1])
        split = np.unique(np.concatenate([t.var for ts in trees for t in ts]))
        split = split[split >= 0]
        if split.size == self.n_features:
            return PredictorMatrix.from_rows(X), trees
        row_of = np.full(self.n_features + 1, -1, dtype=np.int32)
        row_of[split] = np.arange(split.size)
        trees = [[Tree(row_of[t.var], t.value) for t in ts] for ts in trees]
        return PredictorMatrix.from_rows(X, keep=split), trees

    def predict_draws(self, X) -> np.ndarray:
        """Per-draw predictions, shape ``(n_rows, n_retained_draws)``.

        Column ``k`` is the centering constant plus the sum of tree
        evaluations of retained snapshot ``k``.  A `PredictorMatrix` is used
        as it is; a bare ``(n, p)`` batch is checked in full, but only its
        split columns are copied.

        A batch of at least `_THREAD_ROWS` rows has its draws evaluated on up
        to one thread per allowed core, the caller's included, handed out one
        draw at a time.  Each draw fills its own column with the same
        left-to-right sum of tree evaluations, so the draws are bit-identical
        to one thread's.  The helper threads end within the call, and an
        exception raised in one reaches the caller unchanged.
        """
        if not self.draws:
            raise ModelFormatError("model holds no retained draws")
        trees = [d.trees for d in self.draws]
        if isinstance(X, PredictorMatrix):
            self._check_features(X.p, X.names)
        else:
            X, trees = self._split_block(X, trees)
        out = np.empty((X.n, len(trees)))
        draws = iter(range(len(trees)))
        lock = threading.Lock()

        def drain() -> None:
            # draws go out one at a time, to the caller and its helpers alike
            while True:
                with lock:
                    k = next(draws, None)
                if k is None:
                    return
                acc = np.full(X.n, self.y_offset)
                for tree in trees[k]:
                    acc += tree.predict(X)
                out[:, k] = acc

        helpers = _thread_count(len(trees)) - 1 if X.n >= _THREAD_ROWS else 0
        if helpers == 0:
            drain()
            return out
        # The caller evaluates draws too, so the pool is one thread short of
        # the count: each thread's malloc arena keeps the freed temporaries of
        # its last draw, about 3 MB at 10^5 rows (BENCH_predict_threads.json).
        with ThreadPoolExecutor(helpers) as pool:
            running = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for helper in running:
                helper.result()
        return out

    def predict(self, X) -> np.ndarray:
        """Posterior-mean prediction: the average over retained draws."""
        return self.predict_draws(X).mean(axis=1)

    def sigma2_draws(self) -> np.ndarray:
        """Retained noise-variance draws, in sweep order."""
        return np.array([d.sigma2 for d in self.draws])

    def save(self, path) -> None:
        """Write the versioned JSON container.

        Raises `ModelFormatError`, and leaves ``path`` untouched, when the
        model holds no retained draws or a number that is not finite.
        """
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
        # encoded before the file is opened, so a model that cannot be
        # written leaves whatever is at ``path`` as it was
        try:
            text = json.dumps(payload, allow_nan=False)
        except ValueError as exc:
            raise ModelFormatError(f"model holds a number that is not finite ({exc})") from None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def fit(X, y, params: Hyperparams | None = None, seed=0) -> FittedModel:
    """Fit the sampler to ``(X, y)`` and keep the post-burn-in draws.

    ``X`` may be a ``PredictorMatrix`` or a plain ``(n, p)`` array (all
    columns continuous).  ``seed`` feeds ``numpy.random.default_rng``.
    """
    params = params if params is not None else Hyperparams()
    sampler = ForestSampler(X, y, params=params, seed=seed)
    return FittedModel(
        params=params,
        y_offset=sampler.y_offset,
        n_features=sampler.X.p,
        categorical=sampler.X.categorical.copy(),
        feature_names=list(sampler.X.names) if sampler.X.names else None,
        draws=sampler.run()[params.burnin :],
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
        categorical = payload["categorical"]
        if (
            not isinstance(categorical, list)
            or len(categorical) != n_features
            or not all(type(flag) is int and flag in (0, 1) for flag in categorical)
        ):
            raise ModelFormatError(
                f"categorical is not a list of {n_features} flags 0 or 1: {categorical!r}"
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
        y_offset = parse_finite(payload["y_offset"], "y_offset")
        draws: list[SweepDraw] = []
        for k, d in enumerate(payload["draws"]):
            after = draws[-1].sweep if draws else 0
            draws.append(_load_draw(d, k, params, n_features, after, y_offset))
        model = FittedModel(
            params=params,
            y_offset=y_offset,
            n_features=n_features,
            categorical=np.array(categorical, dtype=bool),
            feature_names=feature_names,
            draws=draws,
        )
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from None
    if not model.draws:
        raise ModelFormatError(f"{path}: model holds no retained draws")
    return model


def _load_params(raw) -> Hyperparams:
    """The stored ``params``; `Hyperparams` checks each field's type and range."""
    names = {field.name for field in fields(Hyperparams)}
    if set(raw) != names:
        raise ModelFormatError(
            f"params fields {sorted(set(raw) ^ names)} are missing or unknown"
        )
    try:
        return Hyperparams(**raw)
    except ConfigError as exc:
        raise ModelFormatError(f"params.{exc}") from None


def _load_draw(
    d: dict, k: int, params: Hyperparams, n_features: int, after: int, y_offset: float
) -> SweepDraw:
    """Stored draw ``k``, its tree count checked and its sweep number, which
    must exceed the previous draw's (``after``) and not ``params.n_sweeps``.

    A prediction of the draw is ``y_offset`` plus one leaf of each tree, so
    ``|y_offset|`` plus the trees' largest ``|leaf|`` must be finite.
    ``sigma2`` must be positive and ``tau`` non-negative, as `grow_tree`
    requires.
    """
    sweep, trees = d["sweep"], d["trees"]
    if type(sweep) is not int or not after < sweep <= params.n_sweeps:
        raise ModelFormatError(
            f"sweep of draw {k} is not an integer in {after + 1}..{params.n_sweeps}:"
            f" {sweep!r}"
        )
    if len(trees) != params.n_trees:
        raise ModelFormatError(
            f"draw {k} holds {len(trees)} trees, but params.n_trees is {params.n_trees}"
        )
    largest: list[float] = []
    trees = [Tree.from_records(t, n_features, largest) for t in trees]
    if not math.isfinite(abs(y_offset) + sum(largest)):
        raise ModelFormatError(
            f"draw {k} can predict beyond float64: |y_offset| plus the largest "
            "|leaf| of each of its trees overflows"
        )
    sigma2 = parse_finite(d["sigma2"], f"sigma2 of draw {k}")
    tau = parse_finite(d["tau"], f"tau of draw {k}")
    if sigma2 <= 0.0:
        raise ModelFormatError(f"sigma2 of draw {k} is not positive: {sigma2!r}")
    if tau < 0.0:
        raise ModelFormatError(f"tau of draw {k} is negative: {tau!r}")
    return SweepDraw(sweep=sweep, trees=trees, sigma2=sigma2, tau=tau)

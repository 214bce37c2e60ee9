"""Accelerated Bayesian additive regression trees.

A stochastic tree-ensemble sampler for nonlinear Gaussian regression:
trees are regrown from the root each sweep by sampling cutpoints in
proportion to their marginal likelihood, with conjugate updates for the
noise and leaf-prior variances.  Includes a synthetic benchmark harness
and a small CLI (``xbart fit|predict|bench``).
"""

from .bench import BenchReport, run_bench
from .data import PredictorMatrix
from .errors import ConfigError, DataError, ModelFormatError, XBARTError
from .forest import ForestSampler, Hyperparams, SweepDraw
from .model import FittedModel, fit, load_model
from .simulate import DgpSpec, make_dataset, mean_function, rmse
from .tree import Tree

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ConfigError",
    "DataError",
    "DgpSpec",
    "FittedModel",
    "ForestSampler",
    "Hyperparams",
    "ModelFormatError",
    "PredictorMatrix",
    "SweepDraw",
    "Tree",
    "XBARTError",
    "__version__",
    "fit",
    "load_model",
    "make_dataset",
    "mean_function",
    "rmse",
    "run_bench",
]

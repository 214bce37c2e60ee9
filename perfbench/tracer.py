"""Per-layer spans recorded from outside the sampler.

The tracer replaces module attributes that the sampler looks up at call
time with timing wrappers and puts the originals back on exit, so nothing
in the package changes.  ``tree.py`` and ``forest.py`` import their data
and splitting helpers by name, which is why those names are patched in
``xbart.tree`` / ``xbart.forest`` and not where they are defined.

Each span accumulates ``calls``, total time and self time (duration minus
the time of its child spans).  Work counters are computed after the wrapped
call returns; that bookkeeping is charged to no span.  Wrappers consume no
random numbers and never alter arguments or results, so a traced fit gives
the same model as an untraced one.

A target that no longer exists, or that is never called, is reported as
absent; a counter whose inputs changed shape is dropped and reported too.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

_clock = time.perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_grid(counts, args, kwargs, result, duration):
    counts["data.grid.candidates"] += len(result)


def _count_sift(counts, args, kwargs, result, duration):
    X = _arg(args, kwargs, 0, "X")
    index = _arg(args, kwargs, 1, "index")
    p, m = index.shape
    counts["data.sift.rows_moved"] += p * m
    # parent index in, both child indexes out, one split column gathered
    counts["data.sift.bytes_computed"] += 2 * index.itemsize * p * m + X.columns.itemsize * m


def _count_scan(counts, args, kwargs, result, duration):
    index = _arg(args, kwargs, 1, "index")
    var_ids = _arg(args, kwargs, 3, "grid").var_ids
    # the grid lists candidates grouped by variable
    n_vars = int(np.count_nonzero(var_ids[1:] != var_ids[:-1])) + 1
    counts["splitting.scan.candidates"] += var_ids.size
    counts["splitting.scan.rows_scanned"] += n_vars * index.shape[1]


def _count_draw(counts, args, kwargs, result, duration):
    counts["splitting.draw.splits"] += result is not None


def _count_grow(counts, args, kwargs, result, duration):
    counts["tree.grow.nodes"] += result.n_nodes
    counts["tree.grow.leaves"] += result.n_leaves


def _count_predict(counts, args, kwargs, result, duration):
    counts["tree.predict.rows_routed"] += _arg(args, kwargs, 1, "X").n


def _record_sweep(counts, args, kwargs, result, duration):
    counts["forest.sweep.durations"].append(duration)


# (span, module, attribute, counter); an attribute "Class.method" patches the
# method on the class.  A second module names a re-export of the same object
# that callers reach, such as the public ``xbart.fit``; it gets the same
# wrapper, so a call through either name is one span.
SPANS = (
    ("data.ingest", "xbart.data", "PredictorMatrix.from_rows", None),
    ("data.presort", "xbart.forest", "presort", None),
    ("data.tie_scan", "xbart.data", "PredictorMatrix.tie_free_columns", None),
    ("data.grid", "xbart.tree", "build_cutpoint_grid", _count_grid),
    ("data.sift", "xbart.tree", "sift", _count_sift),
    ("splitting.scan", "xbart.tree", "scan_candidates", _count_scan),
    ("splitting.draw", "xbart.tree", "sample_cutpoint", _count_draw),
    ("tree.grow", "xbart.forest", "grow_tree", _count_grow),
    ("tree.leaf", "xbart.tree", "sample_leaf_value", None),
    ("forest.update_tree", "xbart.forest", "ForestSampler.update_tree", None),
    ("forest.sigma2", "xbart.forest", "update_sigma2", None),
    ("forest.tau", "xbart.forest", "update_tau", None),
    ("forest.weights", "xbart.forest", "update_variable_weights", None),
    ("forest.sweep", "xbart.forest", "ForestSampler.run_sweep", _record_sweep),
    ("tree.predict", "xbart.tree", "Tree.predict", _count_predict),
    ("model.predict_draws", "xbart.model", "FittedModel.predict_draws", None),
    ("tree.to_records", "xbart.tree", "Tree.to_records", None),
    ("model.save", "xbart.model", "FittedModel.save", None),
    ("tree.from_records", "xbart.tree", "Tree.from_records", None),
    ("model.load", ("xbart.model", "xbart"), "load_model", None),
    ("model.fit", ("xbart.model", "xbart"), "fit", None),
)

# counters and their units, always reported, zero when their span never ran;
# ``splitting.draw.splits`` is reported as a rate over the draw calls
COUNTERS = {
    "data.grid.candidates": "count",
    "data.sift.rows_moved": "count",
    "data.sift.bytes_computed": "bytes",
    "splitting.scan.candidates": "count",
    "splitting.scan.rows_scanned": "count",
    "splitting.draw.splits": "count",
    "tree.grow.nodes": "count",
    "tree.grow.leaves": "count",
    "tree.predict.rows_routed": "count",
}


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``snapshot()`` returns the spans and counters accumulated so far and
    ``reset()`` clears them, so one tracer can record several cycles.
    """

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.missing: list[str] = []   # targets not found at install time
        self.dropped: set[str] = set()  # spans whose counter raised
        self._patches: list[tuple[object, str, object]] = []
        # per span: [calls, total_s, self_s]
        self.stats = {span: [0, 0.0, 0.0] for span, *_ in spans}
        self.counts: dict = {}
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Zero every span and counter in place; installed wrappers keep working."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.counts.update({name: 0 for name in COUNTERS})
        self.counts["forest.sweep.durations"] = []
        self._stack[:] = [0.0]

    def snapshot(self) -> dict:
        return {
            "spans": {k: tuple(v) for k, v in self.stats.items()},
            "counts": {
                k: list(v) if isinstance(v, list) else v for k, v in self.counts.items()
            },
        }

    def absent(self) -> list[str]:
        """Spans that were not found or not called since the last reset."""
        return sorted(
            set(self.missing) | {k for k, (calls, *_) in self.stats.items() if calls == 0}
        )

    def __enter__(self) -> "Tracer":
        self.missing = []
        for span, modules, attr, counter in self.spans:
            if isinstance(modules, str):
                modules = (modules,)
            try:
                owner, name, original = _resolve(modules[0], attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            wrapped = self._wrap(span, original, counter)
            self._patch(owner, name, wrapped)
            for alias in modules[1:]:
                module = importlib.import_module(alias)
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, span, original, counter):
        fn = _unwrap(original)
        entry = self.stats[span]
        stack = self._stack
        counts = self.counts
        dropped = self.dropped

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                child = stack.pop()
                entry[0] += 1
                entry[1] += t1 - t0
                entry[2] += t1 - t0 - child
            if counter is not None and span not in dropped:
                try:
                    counter(counts, args, kwargs, result, t1 - t0)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    dropped.add(span)
            # the parent's self time excludes this call and its bookkeeping
            stack[-1] += _clock() - t0
            return result

        return classmethod(wrapper) if isinstance(original, classmethod) else wrapper


def _resolve(module_name: str, attr: str):
    """``(owner, name, raw attribute)`` for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, name = attr.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _unwrap(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw

"""Fit/predict benchmark of the xbart sampler.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

The benchmark imports ``xbart`` from the checkout's ``src`` directory and
runs one workload in cycles until ``--seconds`` would be exceeded.  A cycle
draws a fresh training set from the seed, times ``fit``, then in several
rounds times sampler set-up, ``save``, ``load_model`` and ``predict`` on a
fixed held-out batch, and checks the outputs.  With ``--trace 1`` each
cycle first fits once untraced, then runs traced, and the two saved models
must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All load comes from
this one process, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# numpy is imported inside functions, after main() has pinned these
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Wall times are reported at the speed at which the reference kernel takes
# this long (its median on the 2-core box the baselines in README.md come from).
REFERENCE_S = 0.030

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "save_s": "s",
    "load_s": "s",
    "test_rmse": "y_units",
    "peak_rss_mb": "MB",
}
SAMPLED = ("setup_s", "fit_s", "predict_s", "save_s", "load_s", "test_rmse")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_xbart():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "xbart" / "__init__.py").is_file():
        raise ImportError(f"no xbart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xbart

    if SRC not in Path(xbart.__file__).resolve().parents:
        raise ImportError(f"xbart resolved to {xbart.__file__}, outside {SRC}")
    return xbart


def environment() -> dict:
    """Machine and library facts that a timing depends on."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for entry in sorted(base.glob("index*")):
            level = (entry / "level").read_text().strip()
            kind = (entry / "type").read_text().strip()
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (entry / "size").read_text().strip()
            )
    except OSError:
        pass
    return out


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


class Reference:
    """A fixed kernel timed between measured blocks to track machine speed.

    A shared host makes one core's speed drift by 10-20% over tens of
    seconds.  The kernel mixes the work a fit does (a stable argsort, an
    interpreter loop and a gather from a 32 MB table), runs before the first
    block and after every block, and a block's wall times are scaled by
    ``REFERENCE_S`` over the mean of the two kernel times around it.  The
    kernel touches no xbart code, so the scaling leaves any change in the
    package's own speed in the reported times.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((30, 5_000))
        self._table = rng.standard_normal(4_000_000)
        self._rows = rng.integers(0, self._table.size, size=500_000)
        self.samples: list[float] = []
        self._last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._block.argsort(axis=1, kind="stable")
        acc = 0
        for i in range(100_000):
            acc += i * i
        self._table[self._rows].sum()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Factor to reference speed for the block that just ended."""
        before, self._last = self._last, self.measure()
        return REFERENCE_S / (0.5 * (before + self._last))


class Recorder:
    """Samples and check outcomes gathered over the cycles of one run."""

    def __init__(self, rows_per_predict: int):
        self.reference = Reference()
        self.samples = {name: [] for name in SAMPLED}
        self.raw = {name: [] for name in SAMPLED}
        self.rows_per_predict = rows_per_predict
        self.attempted = 0
        self.failed = 0
        self.model_digests: list[str] = []
        self.untraced_fit_s: list[float] = []
        self.traced: list[dict] = []

    def timings(self, **block: list[float]) -> None:
        """Record one block's wall times by metric, scaled to reference speed."""
        factor = self.reference.scale()
        for name, seconds in block.items():
            self.raw[name] += seconds
            self.samples[name] += [t * factor for t in seconds]

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_cycle(xbart, workload, seed, cycle, test, rec: Recorder, workdir: Path, tracer=None):
    """One training set: fit, then rounds of set-up, save/load and predict, then checks."""
    import numpy as np

    X, y, fit_seed = workload.training_set(seed, cycle)
    X_test, f_test = test
    cat = workload.categorical
    params = workload.params
    path = workdir / f"model-{cycle}.json"

    def setup():
        return xbart.ForestSampler(
            xbart.PredictorMatrix.from_rows(X, categorical=cat), y, params, seed=fit_seed
        )

    def fit():
        return xbart.fit(
            xbart.PredictorMatrix.from_rows(X, categorical=cat), y, params, seed=fit_seed
        )

    if tracer is not None:
        plain, fit_s = timed(fit)
        rec.untraced_fit_s.append(fit_s * rec.reference.scale())
        plain_path = workdir / f"model-{cycle}-untraced.json"
        plain.save(plain_path)
        del plain
        tracer.reset()
    with tracer if tracer is not None else contextlib.nullcontext():
        model, fit_s = timed(fit)
        rec.timings(fit_s=[fit_s])
        # Short operations are spread over rounds, each scaled on its own:
        # the machine's speed decorrelates within about half a second, so
        # many short blocks sample it better than one long block.
        for r in range(workload.rounds):
            block = {"save_s": [], "load_s": []}
            if r < workload.setup_reps:
                block["setup_s"] = [timed(setup)[1]]
            for _ in range(workload.save_reps):
                block["save_s"].append(timed(model.save, path)[1])
                loaded, dt = timed(xbart.load_model, path)
                block["load_s"].append(dt)
            if r < workload.predict_reps:
                yhat, dt = timed(model.predict, X_test)
                block["predict_s"] = [dt]
            rec.timings(**block)
        X_check = X_test[: workload.n_check]
        same_draws = np.array_equal(
            loaded.predict_draws(X_check), model.predict_draws(X_check)
        )
    if tracer is not None:
        rec.traced.append(tracer.snapshot())

    error = xbart.rmse(yhat, f_test)
    rec.samples["test_rmse"].append(error)
    rec.raw["test_rmse"].append(error)
    model_bytes = path.read_bytes()
    rec.model_digests.append(hashlib.sha256(model_bytes).hexdigest())
    ok = rec.check(same_draws, f"cycle {cycle}: loaded model's draws differ from in-memory")
    ok &= rec.check(bool(np.all(np.isfinite(yhat))), f"cycle {cycle}: non-finite prediction")
    ok &= rec.check(
        error <= workload.max_rmse,
        f"cycle {cycle}: test_rmse {error:.4f} above bound {workload.max_rmse}",
    )
    if tracer is not None:
        ok &= rec.check(
            plain_path.read_bytes() == model_bytes,
            f"cycle {cycle}: traced model file differs from untraced",
        )
        plain_path.unlink()
    path.unlink()
    rec.attempted += 1
    rec.failed += not ok


def run(xbart, workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run cycles until the next one is predicted to overrun ``seconds``."""
    from tracer import Tracer

    tracer = Tracer() if trace else None
    test = workload.test_set(seed)
    rec = Recorder(rows_per_predict=test[0].shape[0])
    start = time.perf_counter()
    longest = 0.0
    cycle = 0
    while True:
        t0 = time.perf_counter()
        run_cycle(xbart, workload, seed, cycle, test, rec, workdir, tracer)
        longest = max(longest, time.perf_counter() - t0)
        cycle += 1
        if time.perf_counter() - start + longest > seconds:
            break
    return rec, tracer


def e2e_metrics(rec: Recorder, samples=None) -> dict:
    """Medians over the run; ``samples`` picks scaled (default) or raw times."""
    med = {name: statistics.median(s) for name, s in (samples or rec.samples).items()}
    return {
        "setup_s": med["setup_s"],
        "fit_s": med["fit_s"],
        "predict_rows_per_s": rec.rows_per_predict / med["predict_s"],
        "save_s": med["save_s"],
        "load_s": med["load_s"],
        "test_rmse": med["test_rmse"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rec: Recorder, tracer) -> dict:
    """Per-layer metrics: counts from the first traced cycle, which repeat
    exactly for a seed, and self times as the median over traced cycles."""
    import numpy as np
    from tracer import COUNTERS

    first = rec.traced[0]
    out = {}
    for span, (calls, _total, _self) in first["spans"].items():
        out[f"{span}.calls"] = (calls, "count")
        self_s = statistics.median(snap["spans"][span][2] for snap in rec.traced)
        out[f"{span}.self_s"] = (self_s, "s")
    counts = first["counts"]
    for name, unit in COUNTERS.items():
        if name != "splitting.draw.splits":
            out[name] = (counts[name], unit)
    draws = first["spans"]["splitting.draw"][0]
    out["splitting.draw.split_rate"] = (
        counts["splitting.draw.splits"] / draws if draws else 0.0,
        "ratio",
    )
    sweeps = [d for snap in rec.traced for d in snap["counts"]["forest.sweep.durations"]]
    p50, p90 = np.percentile(sweeps, [50, 90]) if sweeps else (0.0, 0.0)
    out["forest.sweep.s_p50"] = (float(p50), "s")
    out["forest.sweep.s_p90"] = (float(p90), "s")
    out["trace.fit_overhead_s"] = (
        statistics.median(rec.samples["fit_s"]) - statistics.median(rec.untraced_fit_s),
        "s",
    )
    return out


def report(args, rec: Recorder, tracer, env: dict) -> dict:
    """Print the human-readable table and return the metric dictionary."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cycles={rec.attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"model_sha256 cycle0 {rec.model_digests[0]}")
    ref = rec.reference.samples
    print(f"reference kernel median {statistics.median(ref):.6f} s over {len(ref)} runs "
          f"(scaled to {REFERENCE_S} s)")
    if tracer is None:
        values = e2e_metrics(rec)
        raw = e2e_metrics(rec, rec.raw)
        counts = {name: len(rec.samples[name]) for name in SAMPLED}
        counts["predict_rows_per_s"] = counts["predict_s"]
        print(f"{'metric':<22}{'median':>14}{'raw median':>14} {'unit':<8}{'n':>4}")
        for name, value in values.items():
            print(f"{name:<22}{value:>14.6g}{raw[name]:>14.6g} {E2E_UNITS[name]:<8}"
                  f"{counts.get(name, 1):>4}")
        return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    layers = layer_metrics(rec, tracer)
    print(f"traced cycles {len(rec.traced)}; absent spans: "
          f"{', '.join(tracer.absent()) or 'none'}; dropped counters: "
          f"{', '.join(sorted(tracer.dropped)) or 'none'}")
    for name, (value, unit) in layers.items():
        print(f"{name:<34}{value:>18.6g} {unit}")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        xbart = import_xbart()
    except ImportError as exc:
        print(f"perfbench: cannot import xbart: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rec, tracer = run(
            xbart, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp)
        )
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it
    metrics = report(args, rec, tracer, env)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

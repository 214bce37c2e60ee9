"""Tests of the benchmark itself, on the smoke-sized workloads.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

xbart = bench.import_xbart()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SMOKE  # noqa: E402

BENCHMARK_JSON = bench.ROOT / "BENCHMARK.json"


def smoke_run(name, trace, tmp_path, seed=5, tracer=None):
    """One cycle of a smoke workload; returns the recorder and the tracer."""
    workdir = tmp_path / f"{name}-{trace}"
    workdir.mkdir(exist_ok=True)
    if tracer is None:
        return bench.run(xbart, SMOKE[name], seed, 1e-3, trace, workdir)
    test = SMOKE[name].test_set(seed)
    rec = bench.Recorder(rows_per_predict=test[0].shape[0])
    bench.run_cycle(xbart, SMOKE[name], seed, 0, test, rec, workdir, tracer)
    return rec, tracer


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    rec, tracer = smoke_run(name, False, tmp_path)
    assert tracer is None
    assert (rec.attempted, rec.failed) == (1, 0)
    metrics = bench.e2e_metrics(rec)
    assert list(metrics) == list(bench.E2E_UNITS)
    assert all(value > 0 for value in metrics.values())
    assert list(tmp_path.glob("*/*.json")) == []


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_model_is_byte_identical_to_untraced(name, tmp_path):
    plain, _ = smoke_run(name, False, tmp_path)
    rec, tracer = smoke_run(name, True, tmp_path)
    # the traced run compares its own untraced fit byte for byte
    assert (rec.attempted, rec.failed) == (1, 0)
    assert rec.model_digests == plain.model_digests
    assert tracer._patches == []
    assert xbart.tree.sift is xbart.data.sift


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = smoke_run(name, True, tmp_path)
    second, _ = smoke_run(name, True, tmp_path)
    a, b = first.traced[0], second.traced[0]
    assert {k: v[0] for k, v in a["spans"].items()} == {k: v[0] for k, v in b["spans"].items()}
    durations = "forest.sweep.durations"
    assert {k: v for k, v in a["counts"].items() if k != durations} == {
        k: v for k, v in b["counts"].items() if k != durations
    }
    assert a["counts"]["tree.grow.nodes"] > 0
    assert a["counts"]["data.sift.rows_moved"] > 0


def test_layer_metrics_cover_the_declared_names(tmp_path):
    rec, tracer = smoke_run("wide_mtry", True, tmp_path)
    layers = bench.layer_metrics(rec, tracer)
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in layers.items()}
    assert tracer.absent() == []
    assert tracer.dropped == set()
    # every span that a fit runs has self time; mtry < p runs the weight draws
    for span in ("data.grid", "data.sift", "splitting.scan", "tree.grow", "forest.weights"):
        assert layers[f"{span}.self_s"][0] > 0
        assert layers[f"{span}.calls"][0] > 0
    assert 0 < layers["splitting.draw.split_rate"][0] < 1


def test_end_to_end_names_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == bench.E2E_UNITS


def test_removed_or_uncalled_layer_is_reported_absent(tmp_path):
    spans = tracing.SPANS + (
        ("gone.function", "xbart.tree", "no_such_function", None),
        ("gone.method", "xbart.tree", "Tree.no_such_method", None),
        ("idle.oracle", "xbart.splitting", "theoretical_split_criterion", None),
    )
    rec, tracer = smoke_run("acceptance", True, tmp_path, tracer=tracing.Tracer(spans))
    assert rec.failed == 0
    assert tracer.absent() == ["gone.function", "gone.method", "idle.oracle"]
    layers = bench.layer_metrics(rec, tracer)
    assert layers["gone.function.calls"] == (0, "count")


def test_counter_that_no_longer_fits_is_dropped(tmp_path):
    def broken(counts, args, kwargs, result, duration):
        raise AttributeError("grid changed shape")

    spans = tuple(
        (span, module, attr, broken if span == "data.grid" else counter)
        for span, module, attr, counter in tracing.SPANS
    )
    rec, tracer = smoke_run("acceptance", True, tmp_path, tracer=tracing.Tracer(spans))
    assert rec.failed == 0
    assert tracer.dropped == {"data.grid"}


def test_main_prints_the_result_as_the_last_line(monkeypatch, capsys):
    for var in bench.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads, "WORKLOADS", SMOKE)
    assert bench.main(["--workload", "tied_many_trees", "--seed", "2", "--seconds", "1",
                       "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.E2E_UNITS)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

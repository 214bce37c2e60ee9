"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xbart.cli import main
from xbart.data import read_csv_dataset
from xbart.forest import Hyperparams
from xbart.model import fit, load_model
from xbart.bench import run_bench
from xbart.simulate import DgpSpec


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] * 2 + rng.normal(size=60) * 0.5
    return _write_csv(tmp_path / "train.csv", ["x1", "x2", "y"], np.column_stack([X, y]))


class TestFitPredict:
    def test_round_trip_matches_library_fit(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit", "--train", train_csv, "--target", "y",
                    "--trees", "3", "--sweeps", "4", "--burnin", "1",
                    "--seed", "9", "--out", str(model_path),
                ]
            )
            == 0
        )
        test_csv = _write_csv(
            tmp_path / "test.csv",
            ["x1", "x2"],
            np.random.default_rng(1).normal(size=(10, 2)),
        )
        preds_path = tmp_path / "preds.csv"
        assert (
            main(
                ["predict", "--model", str(model_path), "--data", test_csv,
                 "--out", str(preds_path)]
            )
            == 0
        )
        lines = preds_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,yhat"
        got = np.array([float(line.split(",")[1]) for line in lines[1:]])

        X, y = read_csv_dataset(train_csv, target="y")
        params = Hyperparams(n_trees=3, n_sweeps=4, burnin=1)
        model = fit(X, y, params=params, seed=9)
        X_test = np.loadtxt(test_csv, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got, model.predict(X_test))
        assert lines[1].split(",")[0] == "1"  # 1-based row ids

    def test_sampler_flags_default_to_hyperparams(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        argv = ["fit", "--train", train_csv, "--target", "y", "--out", str(model_path)]
        assert main(argv) == 0
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        assert payload["params"] == dataclasses.asdict(Hyperparams())

    def test_draw_columns(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--train", train_csv, "--target", "y", "--trees", "2",
             "--sweeps", "5", "--burnin", "2", "--seed", "3", "--out", str(model_path)]
        )
        test_csv = _write_csv(
            tmp_path / "test.csv", ["x1", "x2"],
            np.random.default_rng(2).normal(size=(4, 2)),
        )
        out_path = tmp_path / "draws.csv"
        main(
            ["predict", "--model", str(model_path), "--data", test_csv,
             "--out", str(out_path), "--draws"]
        )
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,draw_0003,draw_0004,draw_0005"
        model = load_model(model_path)
        X_test = np.loadtxt(test_csv, delimiter=",", skiprows=1)
        draws = model.predict_draws(X_test)
        for i, line in enumerate(lines[1:]):
            vals = np.array([float(v) for v in line.split(",")[1:]])
            np.testing.assert_array_equal(vals, draws[i])

    def test_prediction_files_hold_every_value_in_full(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(["fit", "--train", train_csv, "--target", "y", "--trees", "2",
              "--sweeps", "4", "--burnin", "2", "--seed", "6", "--out", str(model_path)])
        test_csv = _write_csv(
            tmp_path / "test.csv", ["x1", "x2"],
            np.random.default_rng(3).normal(size=(5, 2)),
        )
        model = load_model(model_path)
        X_test = np.loadtxt(test_csv, delimiter=",", skiprows=1)
        mean_lines = ["row,yhat"] + [
            f"{i + 1},{float(v)!r}" for i, v in enumerate(model.predict(X_test))
        ]
        draw_lines = ["row,draw_0003,draw_0004"] + [
            ",".join([str(i + 1)] + [repr(float(v)) for v in row])
            for i, row in enumerate(model.predict_draws(X_test))
        ]
        for flags, lines in (([], mean_lines), (["--draws"], draw_lines)):
            out_path = tmp_path / "out.csv"
            assert main(["predict", "--model", str(model_path), "--data", test_csv,
                         "--out", str(out_path), *flags]) == 0
            assert out_path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_predict_ignores_extra_columns(self, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        main(
            ["fit", "--train", train_csv, "--target", "y", "--trees", "2",
             "--sweeps", "2", "--burnin", "0", "--seed", "1", "--out", str(model_path)]
        )
        # reuse the training file: its y column is simply ignored
        out_path = tmp_path / "p.csv"
        assert (
            main(["predict", "--model", str(model_path), "--data", train_csv,
                  "--out", str(out_path)])
            == 0
        )
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 61

    def test_schema_marks_categorical(self, tmp_path):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [rng.normal(size=50), rng.integers(0, 3, size=50).astype(float)]
        )
        y = X[:, 1] + rng.normal(size=50) * 0.2
        train = _write_csv(tmp_path / "t.csv", ["a", "b", "y"], np.column_stack([X, y]))
        schema = tmp_path / "schema.txt"
        schema.write_text("b categorical\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        assert (
            main(["fit", "--train", train, "--target", "y", "--schema", str(schema),
                  "--trees", "2", "--sweeps", "2", "--burnin", "0",
                  "--out", str(model_path)])
            == 0
        )
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        assert payload["categorical"] == [0, 1]
        assert payload["feature_names"] == ["a", "b"]


class TestBenchCommand:
    def test_report_file_matches_library_run(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        code = main(
            ["bench", "--dgp", "max", "--n", "60", "--p", "3", "--reps", "2",
             "--trees", "2", "--sweeps", "3", "--burnin", "1", "--seed", "12",
             "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max n=60 p=3" in out and "rmse" in out
        expected = run_bench(
            DgpSpec("max", n=60, p=3),
            params=Hyperparams(n_trees=2, n_sweeps=3, burnin=1),
            reps=2,
            master_seed=12,
        ).canonical_report()
        assert report_path.read_text(encoding="utf-8") == expected

    def test_fixed_tau_flag_changes_the_run(self, tmp_path):
        args = ["bench", "--dgp", "max", "--n", "60", "--p", "3", "--reps", "1",
                "--trees", "2", "--sweeps", "2", "--burnin", "0", "--seed", "5"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--fixed-tau", "--report", str(b)]) == 0
        assert a.read_text(encoding="utf-8") != b.read_text(encoding="utf-8")


class TestErrorHandling:
    def test_missing_train_file(self, tmp_path, capsys):
        code = main(
            ["fit", "--train", str(tmp_path / "nope.csv"), "--target", "y",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_target_column(self, tmp_path, train_csv, capsys):
        code = main(
            ["fit", "--train", train_csv, "--target", "zzz",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_file(self, tmp_path, train_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code = main(
            ["predict", "--model", str(bad), "--data", train_csv,
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_truncated_model_file(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--train", train_csv, "--target", "y", "--trees", "2",
                     "--sweeps", "2", "--burnin", "1", "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        # 3000 nested splits whose last leaf is missing
        deep = [["split", 0, 0.0]] * 3000 + [["leaf", 0.0]] * 3000
        payload["draws"][0]["trees"][0] = deep
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--data", train_csv,
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_model_file_with_mistyped_params(self, tmp_path, train_csv, capsys):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--train", train_csv, "--target", "y", "--trees", "2",
                     "--sweeps", "2", "--burnin", "1", "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["params"]["n_trees"] = 2.5
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--data", train_csv,
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "params.n_trees" in capsys.readouterr().err

    def test_non_finite_kappa_is_named(self, capsys):
        code = main(["bench", "--dgp", "max", "--n", "50", "--p", "3", "--kappa", "nan"])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    def test_invalid_dgp_width(self, capsys):
        code = main(
            ["bench", "--dgp", "single_index", "--n", "50", "--p", "3",
             "--reps", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


REPO_ROOT = Path(__file__).resolve().parents[1]


class TestConsoleScript:
    def test_entry_point_is_installed(self, tmp_path, monkeypatch):
        # Write the launcher an installer makes for the declared script into a
        # private bin directory and run it against the package source. The
        # spec is read, not restated, so a broken spec fails the test.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["xbart"]
        module, func = spec.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "xbart"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n",
            encoding="utf-8",
        )
        script.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir), prepend=os.pathsep)
        monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"), prepend=os.pathsep)

        exe = shutil.which("xbart")
        assert exe is not None
        out = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0
        assert "fit" in out.stdout and "bench" in out.stdout

import csv
import json
import subprocess
import sys

import numpy as np

from rollout_grid.bench import (
    BO_CURVE_CSV,
    CurveRecord,
    MANIFEST,
    THROUGHPUT_CSV,
    TRAINING_CSV,
    TRIAL_LOG,
    emit_plot_data,
    read_curve_csv,
    run_study,
    run_throughput,
    run_training,
)
from rollout_grid.config import config_from_dict


def bo_config(**over):
    return config_from_dict(
        {"mode": "bo", "env": "lander", "n_env": 2, "seed": 5,
         "bo": {"n_trials": 8}, **over}
    )


def cem_config(**over):
    return config_from_dict(
        {"mode": "cem", "env": "tracker", "n_env": 2, "seed": 5,
         "tracker": {"horizon": 15},
         "cem": {"iterations": 2, "population": 4, "episodes_per_candidate": 1}, **over}
    )


class TestThroughput:
    def test_csv_schema_and_rows(self, tmp_path):
        cfg = config_from_dict(
            {"mode": "throughput", "env": "tracker", "n_env": 1, "seed": 0,
             "throughput": {"steps": 10, "sweep": [2]}}
        )
        rows = run_throughput(cfg, tmp_path)
        assert [r["n_env"] for r in rows] == [1, 2]
        with open(tmp_path / THROUGHPUT_CSV, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header[:5] == ["n_env", "n_s", "repeat", "steps", "env_steps_per_s"]
            assert len(list(reader)) == 2
        assert (tmp_path / MANIFEST).exists()

    def test_repeat_spread_is_modest(self, tmp_path):
        # Self-consistency on a stable (padded) workload: repeats within 10%.
        cfg = config_from_dict(
            {"mode": "throughput", "env": "tracker", "n_env": 1, "seed": 0,
             "pad_ms": 2.0, "pad_mode": "sleep",
             "throughput": {"steps": 100, "repeats": 5}}
        )
        rows = run_throughput(cfg, tmp_path)
        rates = np.array([r["env_steps_per_s"] for r in rows])
        assert (rates.max() - rates.min()) / rates.mean() < 0.10


class TestStudy:
    def test_outputs_and_determinism(self, tmp_path):
        best_a, curve_a = run_study(bo_config(), tmp_path / "a")
        best_b, curve_b = run_study(bo_config(), tmp_path / "b")
        log_a = [json.loads(l) for l in open(tmp_path / "a" / TRIAL_LOG)]
        log_b = [json.loads(l) for l in open(tmp_path / "b" / TRIAL_LOG)]
        strip = lambda log: [{k: v for k, v in t.items() if not k.startswith("t_")} for t in log]
        assert strip(log_a) == strip(log_b)
        assert best_a.value == best_b.value
        curve = read_curve_csv(tmp_path / "a" / BO_CURVE_CSV)
        assert len(curve) == 8
        values = [v for _, v in curve]
        assert values == sorted(values, reverse=True) or all(
            x >= y for x, y in zip(values, values[1:])
        )

    def test_manifest_reproduces_run(self, tmp_path):
        run_study(bo_config(), tmp_path / "orig")
        manifest = json.loads((tmp_path / "orig" / MANIFEST).read_text())
        cfg = config_from_dict(manifest["config"])
        run_study(cfg, tmp_path / "replay")
        a = read_curve_csv(tmp_path / "orig" / BO_CURVE_CSV)
        b = read_curve_csv(tmp_path / "replay" / BO_CURVE_CSV)
        assert [v for _, v in a] == [v for _, v in b]


class TestTraining:
    def test_csv_schema_exact(self, tmp_path):
        run_training(cem_config(), tmp_path)
        with open(tmp_path / TRAINING_CSV, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["wall_clock_s", "mean_return", "mse_x", "mse_y"]
        rows = read_curve_csv(tmp_path / TRAINING_CSV)
        assert len(rows) == 2

    def test_metric_columns_deterministic(self, tmp_path):
        run_training(cem_config(), tmp_path / "a")
        run_training(cem_config(), tmp_path / "b")
        a = [r[1:] for r in read_curve_csv(tmp_path / "a" / TRAINING_CSV)]
        b = [r[1:] for r in read_curve_csv(tmp_path / "b" / TRAINING_CSV)]
        assert a == b


class TestPlotData:
    def test_empty_curve_writes_header_only(self, tmp_path):
        paths = emit_plot_data([], tmp_path, metrics=["best_value"])
        csv_path = tmp_path / "best_value.csv"
        assert csv_path in paths
        assert csv_path.read_bytes() == b"wall_clock_s,value\r\n"

    def test_round_trip(self, tmp_path):
        records = [CurveRecord(0.5, "m", 1.25), CurveRecord(1.0, "m", -3.5)]
        emit_plot_data(records, tmp_path)
        assert read_curve_csv(tmp_path / "m.csv") == [(0.5, 1.25), (1.0, -3.5)]

    def test_two_metrics_two_files_plus_combined(self, tmp_path):
        records = [CurveRecord(0.0, "a", 1.0), CurveRecord(0.0, "b", 2.0),
                   CurveRecord(1.0, "a", 3.0), CurveRecord(1.0, "b", 4.0)]
        paths = emit_plot_data(records, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["a.csv", "b.csv", "combined.dat"]
        assert len(read_curve_csv(tmp_path / "a.csv")) == len(read_curve_csv(tmp_path / "b.csv"))

    def test_bytes_deterministic(self, tmp_path):
        records = [CurveRecord(0.123456789, "m", 9.87654321)]
        emit_plot_data(records, tmp_path / "x")
        emit_plot_data(records, tmp_path / "y")
        assert (tmp_path / "x" / "m.csv").read_bytes() == (tmp_path / "y" / "m.csv").read_bytes()
        assert (tmp_path / "x" / "combined.dat").read_bytes() == (
            tmp_path / "y" / "combined.dat"
        ).read_bytes()


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "rollout_grid", *args],
            capture_output=True, text=True, timeout=120,
        )

    def test_throughput_subcommand_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"mode": "throughput", "env": "tracker", "n_env": 1, "seed": 0,
             "throughput": {"steps": 5}, "output_dir": str(tmp_path / "out")}
        ))
        proc = self.run_cli("throughput", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / THROUGHPUT_CSV).exists()

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"mode": "throughput", "env": "lander", "n_env": 1, "seed": 0,
             "throughput": {"steps": 3}}
        ))
        out = tmp_path / "cli-out"
        proc = self.run_cli("throughput", "--config", str(cfg_path),
                            "--n-env", "2", "--seed", "9", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / MANIFEST).read_text())
        assert manifest["config"]["n_env"] == 2 and manifest["seed"] == 9

    def test_invalid_config_exit_nonzero(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"mode": "throughput", "env": "tracker", "n_env": 0}')
        proc = self.run_cli("throughput", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "n_env" in proc.stderr

    def test_bo_from_manifest_reproduces_trial_log(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"mode": "bo", "env": "lander", "n_env": 2, "seed": 5, "bo": {"n_trials": 8},
             "output_dir": str(tmp_path / "orig")}
        ))
        proc = self.run_cli("bo", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli("bo", "--from-manifest", str(tmp_path / "orig" / MANIFEST),
                            "--out", str(tmp_path / "replay"))
        assert proc.returncode == 0, proc.stderr

        def trials(run_dir):
            lines = (run_dir / TRIAL_LOG).read_text().splitlines()
            return [{k: t[k] for k in ("params", "value", "state")} for t in map(json.loads, lines)]

        assert len(trials(tmp_path / "orig")) == 8
        assert trials(tmp_path / "orig") == trials(tmp_path / "replay")

    def test_missing_config_flag(self):
        proc = self.run_cli("bo")
        assert proc.returncode == 2

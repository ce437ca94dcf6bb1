import csv
import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from rollout_grid import bench
from rollout_grid.bench import (
    BO_CURVE_CSV,
    MANIFEST,
    THROUGHPUT_CSV,
    TRAINING_CSV,
    TRIAL_LOG,
    run_study,
    run_throughput,
    run_training,
)
from rollout_grid.config import config_from_dict
from rollout_grid.core import StepResult
from rollout_grid.tpe import read_trial_log

from conftest import read_curve_csv


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


def throughput_config(**over):
    return config_from_dict(
        {"mode": "throughput", "env": "tracker", "n_env": 1, "seed": 0,
         "throughput": {"steps": 5}, **over}
    )


@pytest.mark.parametrize("run, make_config, files", [
    (run_throughput, throughput_config, {THROUGHPUT_CSV, MANIFEST}),
    (run_study, bo_config, {TRIAL_LOG, BO_CURVE_CSV, MANIFEST}),
    (run_training, cem_config, {TRAINING_CSV, MANIFEST}),
], ids=["throughput", "bo", "cem"])
def test_each_mode_writes_exactly_its_files(tmp_path, run, make_config, files):
    run(make_config(), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == files


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


class InterruptedPool:
    """Lander pool stub whose step raises KeyboardInterrupt at the given evaluation."""

    n_workers = 2
    obs_dim = 5
    act_dim = 3

    def __init__(self, interrupt_at):
        self.interrupt_at = interrupt_at
        self.evaluations = 0
        self.designs = []

    def reset_some(self, indices, seeds, options=None):
        self.designs = [o["design"] for o in options]
        return [np.zeros(5) for _ in indices]

    def step_some(self, indices, actions, raise_on_error=True):
        out = []
        for design in self.designs:
            self.evaluations += 1
            if self.evaluations == self.interrupt_at:
                raise KeyboardInterrupt
            out.append(StepResult(np.zeros(5), -design["f_y"] / 1e4, True, False, {}))
        return out

    def close(self):
        pass


def test_interrupted_study_leaves_parseable_trial_log_and_curve(tmp_path, monkeypatch):
    # Batches of two: evaluations 1-4 are told before the fifth is interrupted.
    monkeypatch.setattr(bench, "make_pool", lambda cfg: (InterruptedPool(5), 0.0))
    with pytest.raises(KeyboardInterrupt):
        run_study(bo_config(), tmp_path)
    trials = read_trial_log(tmp_path / TRIAL_LOG)
    assert [t.index for t in trials] == [0, 1, 2, 3]
    curve = read_curve_csv(tmp_path / BO_CURVE_CSV)
    assert [v for _, v in curve] == list(itertools.accumulate(
        (t.value for t in trials), min))


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

    def test_interrupted_training_leaves_the_finished_rows(self, tmp_path, monkeypatch):
        # An iteration is three 15-step waves (probe + two of two candidates),
        # so the 100th step falls in the third iteration, after two rows.
        cfg = cem_config(cem={"iterations": 4, "population": 4, "episodes_per_candidate": 1})
        run_training(cfg, tmp_path / "full")
        real_make_pool = bench.make_pool

        def interrupting_pool(cfg):
            pool, spawn_s = real_make_pool(cfg)
            step_some, steps = pool.step_some, itertools.count(1)

            def step_then_interrupt(*args, **kwargs):
                if next(steps) == 100:
                    raise KeyboardInterrupt
                return step_some(*args, **kwargs)

            pool.step_some = step_then_interrupt
            return pool, spawn_s

        monkeypatch.setattr(bench, "make_pool", interrupting_pool)
        with pytest.raises(KeyboardInterrupt):
            run_training(cfg, tmp_path / "cut")
        with open(tmp_path / "cut" / TRAINING_CSV, newline="") as fh:
            assert next(csv.reader(fh)) == ["wall_clock_s", "mean_return", "mse_x", "mse_y"]
        cut = [r[1:] for r in read_curve_csv(tmp_path / "cut" / TRAINING_CSV)]
        full = [r[1:] for r in read_curve_csv(tmp_path / "full" / TRAINING_CSV)]
        assert len(full) == 4
        assert cut == full[:2]


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

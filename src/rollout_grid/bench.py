"""Experiment orchestration: throughput sweeps, BO studies, CEM training.

Every run writes a JSON manifest (fully-defaulted config echo, seed,
versions, host info) sufficient to reproduce its deterministic outputs, and
CSV files that are flushed row by row so an interrupted run still leaves a
parseable prefix. Wall clock is measured from pool-ready; worker spawn time
is reported separately, as ``spawn_s`` in the manifest or the CSV.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cem import run_cem
from .config import RunConfig, config_to_dict
from .pool import WorkerPool, spawn_workers
from .tpe import run_bo, trial_to_json

TRIAL_LOG = "trials.jsonl"
BO_CURVE_CSV = "curve_best_value.csv"
TRAINING_CSV = "training_curve.csv"
THROUGHPUT_CSV = "throughput.csv"
MANIFEST = "manifest.json"


def make_pool(cfg: RunConfig, n_env: int | None = None) -> tuple[WorkerPool, float]:
    """Spawn the pool described by the config; returns (pool, spawn seconds)."""
    t0 = time.perf_counter()
    pool = spawn_workers(
        cfg.env,
        n_env or cfg.n_env,
        cfg.transport,
        env_config=config_to_dict(cfg.env_config()),
        n_s=cfg.n_s,
        pad_ms=cfg.pad_ms,
        pad_mode=cfg.pad_mode,
        step_delay_max_ms=cfg.step_delay_max_ms,
        delay_seed=cfg.seed,
    )
    return pool, time.perf_counter() - t0


def write_manifest(out_dir: Path, cfg: RunConfig, **extra) -> Path:
    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "versions": {
            "rollout_grid": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "node": platform.node(),
        },
        "created_unix": time.time(),
        **extra,
    }
    path = out_dir / MANIFEST
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


class _CsvSink:
    """Row-buffered CSV writer: header up front, flush after every row."""

    def __init__(self, path: Path, columns: list[str]):
        self.columns = columns
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(columns)
        self._fh.flush()

    def write(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self._writer.writerow(values)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def run_throughput(cfg: RunConfig, out_dir: str | Path) -> list[dict]:
    """Measure env-steps/second for cfg.n_env plus any sweep values.

    Drives a zero-action policy for a fixed number of barrier steps per
    measurement; the steps/second figure counts decision substeps, i.e.
    workers x steps x n_s.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    widths = [cfg.n_env] + [w for w in cfg.throughput.sweep if w != cfg.n_env]
    sink = _CsvSink(
        out / THROUGHPUT_CSV,
        ["n_env", "n_s", "repeat", "steps", "env_steps_per_s",
         "mean_barrier_latency_s", "wall_clock_s", "spawn_s"],
    )
    rows: list[dict] = []
    try:
        for width in widths:
            for repeat in range(cfg.throughput.repeats):
                pool, spawn_s = make_pool(cfg, n_env=width)
                try:
                    pool.reset_all([cfg.seed + i for i in range(width)])
                    actions = np.zeros((width, pool.act_dim))
                    latencies = []
                    t0 = time.perf_counter()
                    for _ in range(cfg.throughput.steps):
                        batch = pool.step_all(actions)
                        latencies.append(batch.barrier_latency)
                    wall = time.perf_counter() - t0
                finally:
                    pool.close()
                row = {
                    "n_env": width,
                    "n_s": cfg.n_s,
                    "repeat": repeat,
                    "steps": cfg.throughput.steps,
                    "env_steps_per_s": width * cfg.throughput.steps * cfg.n_s / wall,
                    "mean_barrier_latency_s": sum(latencies) / len(latencies),
                    "wall_clock_s": wall,
                    "spawn_s": spawn_s,
                }
                rows.append(row)
                sink.write(*(row[c] for c in sink.columns))
    finally:
        sink.close()
    write_manifest(out, cfg)
    return rows


def run_study(cfg: RunConfig, out_dir: str | Path):
    """BO study: trial log, best-value-vs-wallclock curve, manifest.

    Each trial's log line, and its curve row if it completed, is written and
    flushed as the trial is told.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    batch = cfg.bo.batch or cfg.n_env
    pool, spawn_s = make_pool(cfg)
    log = open(out / TRIAL_LOG, "w")
    sink = _CsvSink(out / BO_CURVE_CSV, ["wall_clock_s", "best_value"])

    def record(trial, point):
        log.write(trial_to_json(trial) + "\n")
        log.flush()
        if point is not None:
            sink.write(*point)

    try:
        best, curve = run_bo(
            pool, cfg.lander.priors, cfg.bo.tpe, cfg.bo.n_trials, batch,
            seed=cfg.seed, on_tell=record,
        )
    finally:
        pool.close()
        log.close()
        sink.close()
    write_manifest(out, cfg, spawn_s=spawn_s, best_value=best.value, best_params=best.params)
    return best, curve


def run_training(cfg: RunConfig, out_dir: str | Path):
    """CEM training run: reward and per-axis tracking-MSE curves, manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pool, spawn_s = make_pool(cfg)
    sink = _CsvSink(out / TRAINING_CSV, ["wall_clock_s", "mean_return", "mse_x", "mse_y"])

    def record(point):
        sink.write(point.wall_clock_s, point.mean_return, point.mse_x, point.mse_y)

    try:
        policy, curve = run_cem(pool, cfg.cem, seed=cfg.seed, on_point=record)
    finally:
        pool.close()
        sink.close()
    write_manifest(out, cfg, spawn_s=spawn_s,
                   final_mean_return=curve[-1].mean_return if curve else None)
    return policy, curve


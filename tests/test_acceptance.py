"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Several criteria measure
wall-clock scaling across worker counts; they use the socket transport (real
processes) and, where the point is amortizing communication and simulator
cost, a sleep-based per-step pad that emulates an expensive simulator
without requiring a large machine. The busy-pad CPU-scaling criterion
requires at least 8 physical cores and is skipped (not faked) on smaller
hosts.
"""

import math
import os

import numpy as np
import pytest
import scipy.stats

from rollout_grid import wire
from rollout_grid.cem import CemConfig, run_cem
from rollout_grid.config import config_to_dict
from rollout_grid.core import make_rng
from rollout_grid.lander import (
    LanderParams,
    PriorSet,
    TouchdownResult,
    integrate_touchdown,
    objective,
    sample_design,
    simulate_touchdown_closed_form,
)
from rollout_grid.pool import spawn_workers
from rollout_grid.tpe import COMPLETE, Trial, TpeConfig, run_bo, tpe_ask, tpe_tell
from rollout_grid.tracker import TrackerEnvConfig, TrackerWeights

from conftest import assert_step_results_equal, serial_reference

SEEDS = list(range(20))


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {message}")


def tracker_actions(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 12))


def test_acceptance_01_transparency_determinism():
    """W=1 pool trajectories are bitwise identical to serial scenario calls."""
    n_s = 2
    pool_steps = 100  # x n_s = 200 decision steps
    for env, act_dim in (("tracker", 12), ("lander", 3)):
        for seed in SEEDS:
            acts = (tracker_actions(seed, pool_steps) if env == "tracker"
                    else np.zeros((pool_steps, act_dim)))
            with spawn_workers(env, 1, "in-process", n_s=n_s) as pool:
                first = pool.reset_all([seed])[0]
                got = [pool.step_all(acts[i : i + 1]).results[0] for i in range(pool_steps)]
            ref_first, ref = serial_reference(env, None, seed, acts, n_s=n_s)
            assert np.array_equal(first, ref_first)
            for g, w in zip(got, ref):
                assert_step_results_equal(g, w)
    report(1, "both envs, 20 seeds x 200 decision steps, W=1 pool bitwise == serial")


def test_acceptance_02_barrier_correctness():
    """No step-index interleaving across 1000 barriers under injected delays."""
    steps = 1000
    env_cfg = config_to_dict(TrackerEnvConfig(horizon=250))
    with spawn_workers("tracker", 8, "socket", env_config=env_cfg,
                       step_delay_max_ms=50.0, delay_seed=7) as pool:
        pool.reset_all(list(range(8)))
        actions = np.zeros((8, 12))
        for t in range(1, steps + 1):
            batch = pool.step_all(actions)
            assert batch.step_index == t
            clocks = {r.info["worker_step"] for r in batch.results}
            assert clocks == {t}, f"interleaved logical clocks at step {t}: {clocks}"
    report(2, f"W=8 with <=50 ms random delays, {steps} steps, zero interleaving")


def test_acceptance_03_worker_count_independence():
    """A worker's trajectory depends only on its own seed and action stream."""
    steps = 200
    streams = {}
    for w in (1, 2, 8):
        with spawn_workers("tracker", w, "in-process") as pool:
            pool.reset_all([1000 + i for i in range(w)])
            per_worker = [[] for _ in range(w)]
            action_streams = [tracker_actions(1000 + i, steps) for i in range(w)]
            for t in range(steps):
                acts = np.stack([action_streams[i][t] for i in range(w)])
                for i, res in enumerate(pool.step_all(acts).results):
                    per_worker[i].append(res)
            streams[w] = per_worker
    for i in range(8):
        present = [w for w in (1, 2, 8) if w > i]
        for w in present[1:]:
            for a, b in zip(streams[present[0]][i], streams[w][i]):
                assert np.array_equal(a.observation, b.observation)
                assert a.reward == b.reward
                assert (a.terminated, a.truncated) == (b.terminated, b.truncated)
    report(3, "tracker trajectories identical for fixed per-env seeds under W in {1,2,8}")


def test_acceptance_04_lander_oracle_equivalence():
    """Integrator at dt=1e-4 matches the closed form on sampled designs."""
    rng = make_rng(2024)
    priors, params = PriorSet(), LanderParams()
    n_bottom = 0
    for _ in range(500):
        design = sample_design(priors, rng)
        closed = simulate_touchdown_closed_form(design, params)
        stepped = integrate_touchdown(design, params, dt=1e-4)
        assert stepped.bottomed_out == closed.bottomed_out
        rel = lambda a, b: abs(a - b) / max(abs(b), 1e-12)
        assert rel(stepped.stroke_used, closed.stroke_used) <= 0.01
        if closed.bottomed_out:
            n_bottom += 1
        else:
            assert rel(stepped.a_max, closed.a_max) <= 0.01
            assert rel(stepped.e_abs, closed.e_abs) <= 0.01
    assert 0 < n_bottom < 500  # both regimes exercised
    report(4, f"500 sampled designs within 1% ({n_bottom} bottom-out, flags identical)")


def test_acceptance_05_objective_fixed_points():
    """J(a_ref, e_init) = 1 and J(0, e_init) = 0, exactly."""
    params = LanderParams()
    unit = TouchdownResult(a_max=params.a_ref, stroke_used=0.1, e_abs=500.0, e_init=500.0,
                           bottomed_out=False)
    zero = TouchdownResult(a_max=0.0, stroke_used=0.1, e_abs=500.0, e_init=500.0,
                           bottomed_out=False)
    assert objective(unit, params) == 1.0
    assert objective(zero, params) == 0.0
    report(5, "objective fixed points exact: J=1.0 and J=0.0")


def test_acceptance_06_prior_correctness():
    """Log-uniform decade mass (chi-square) and uniform angles (KS)."""
    rng = make_rng(99)
    priors = PriorSet(f_y=(1e2, 1e4), alpha2=(0.2, 1.2), beta=(0.0, 0.6))
    n = 100_000
    designs = [sample_design(priors, rng) for _ in range(n)]
    f_y = np.array([d.f_y for d in designs])
    counts = [int(np.sum(f_y < 1e3)), int(np.sum(f_y >= 1e3))]
    chi = scipy.stats.chisquare(counts)
    assert chi.pvalue > 0.01, f"decade mass skewed: {counts}, p={chi.pvalue}"
    ks_alpha = scipy.stats.kstest([d.alpha2 for d in designs], "uniform", args=(0.2, 1.0))
    ks_beta = scipy.stats.kstest([d.beta for d in designs], "uniform", args=(0.0, 0.6))
    assert ks_alpha.pvalue > 0.01, f"alpha2 not uniform: p={ks_alpha.pvalue}"
    assert ks_beta.pvalue > 0.01, f"beta not uniform: p={ks_beta.pvalue}"
    report(6, f"1e5 draws: chi2 p={chi.pvalue:.3f}, KS p=({ks_alpha.pvalue:.3f}, {ks_beta.pvalue:.3f})")


def _lander_objective(design, params):
    return objective(simulate_touchdown_closed_form(design, params), params)


def _best_j_random(seed, n_trials, priors, params):
    rng = make_rng(seed)
    return min(_lander_objective(sample_design(priors, rng), params) for _ in range(n_trials))


def _best_j_tpe(seed, n_trials, priors, params):
    rng = make_rng(seed)
    cfg = TpeConfig()
    history: list[Trial] = []
    for i in range(n_trials):
        design = tpe_ask(history, priors, cfg, rng)
        tpe_tell(history, design, _lander_objective(design, params), t_end=float(i))
    return min(t.value for t in history if t.state == COMPLETE)


def test_acceptance_07_tpe_beats_random():
    """60-trial budget, 20 paired seeds: TPE median <= random median, >=14 wins."""
    priors, params = PriorSet(), LanderParams()
    tpe_best = [_best_j_tpe(s, 60, priors, params) for s in SEEDS]
    rnd_best = [_best_j_random(s, 60, priors, params) for s in SEEDS]
    wins = sum(1 for t, r in zip(tpe_best, rnd_best) if t < r)
    assert np.median(tpe_best) <= np.median(rnd_best), (
        f"TPE median {np.median(tpe_best):.4f} > random {np.median(rnd_best):.4f}"
    )
    assert wins >= 14, f"TPE won only {wins}/20 pairs"
    report(7, f"TPE median {np.median(tpe_best):.4f} <= random {np.median(rnd_best):.4f}, "
              f"wins {wins}/20")


# Three-decade yield-force prior: wide enough that the random startup phase
# rarely lands within 5% of the optimum, so time-to-target exercises the
# estimator-driven phase where batching matters.
BO_STUDY_PRIORS = PriorSet(f_y=(1e2, 1e5), alpha2=(0.1, 1.3), beta=(0.0, 0.9))


def _bo_curve(seed, n_env, n_trials=60, pad_ms=25.0):
    # sleep-pad emulates an expensive simulator so parallelism shows in wall clock
    with spawn_workers("lander", n_env, "socket", pad_ms=pad_ms, pad_mode="sleep") as pool:
        _, curve = run_bo(pool, BO_STUDY_PRIORS, TpeConfig(), n_trials, batch=n_env, seed=seed)
    return curve


def _time_to_target(curve, target):
    for t, v in curve:
        if v <= target:
            return t
    return math.inf


def test_acceptance_08_bo_scaling_qualitative():
    """Best-J curves nonincreasing; n_env=4 reaches the target sooner."""
    wins = 0
    for seed in SEEDS:
        c1 = _bo_curve(seed, 1)
        c4 = _bo_curve(seed, 4)
        for curve in (c1, c4):
            values = [v for _, v in curve]
            assert all(a >= b for a, b in zip(values, values[1:])), "curve not nonincreasing"
        target = 1.05 * min(c1[-1][1], c4[-1][1])
        if _time_to_target(c4, target) < _time_to_target(c1, target):
            wins += 1
    assert wins >= 16, f"n_env=4 faster-to-target in only {wins}/20 pairs"
    report(8, f"curves monotone; n_env=4 reached 1.05x best sooner in {wins}/20 pairs")


CEM_ENV = TrackerEnvConfig(
    horizon=40,
    weights=TrackerWeights(sigma_track=0.5, scale_prev_action=0.25, scale_q=0.5),
    cmd_vx=(-0.6, 0.6), cmd_vy=(-0.6, 0.6), cmd_yaw=(0.0, 0.0),
)
CEM_CFG = CemConfig(iterations=25, population=24, episodes_per_candidate=2,
                    elite_frac=0.25, sigma_init=0.2, smoothing=0.6, sigma_min=0.02)


def _cem_curve(seed, n_env):
    with spawn_workers("tracker", n_env, "socket",
                       env_config=config_to_dict(CEM_ENV)) as pool:
        _, curve = run_cem(pool, CEM_CFG, seed=seed)
    return curve


def test_acceptance_09_cem_scaling_qualitative():
    """Return improves, both MSE axes halve, and W=8 reaches 90% return sooner."""
    halved = 0
    speed_wins = 0
    for seed in SEEDS:
        c1 = _cem_curve(seed, 1)
        c8 = _cem_curve(seed, 8)
        # metric columns are worker-count independent; wall clock differs
        assert [p.mean_return for p in c1] == [p.mean_return for p in c8]
        best_so_far = np.maximum.accumulate([p.mean_return for p in c1])
        assert all(a <= b for a, b in zip(best_so_far, best_so_far[1:])) or len(c1) == 1
        if (c1[-1].mse_x <= 0.5 * c1[0].mse_x) and (c1[-1].mse_y <= 0.5 * c1[0].mse_y):
            halved += 1
        final_return = c1[-1].mean_return
        target = 0.9 * final_return
        idx = next(i for i, p in enumerate(c1) if p.mean_return >= target)
        if c8[idx].wall_clock_s < c1[idx].wall_clock_s:
            speed_wins += 1
    assert halved >= 18, f"per-axis MSE halved in only {halved}/20 seeds"
    assert speed_wins >= 16, f"n_env=8 reached 90% return sooner in only {speed_wins}/20 pairs"
    report(9, f"MSE halved {halved}/20; n_env=8 faster to 90% return in {speed_wins}/20")


def test_acceptance_10_throughput_scaling():
    """With a busy-padded 1 ms step, W=8 delivers >= 4x the steps/second of W=1."""
    physical = os.cpu_count()
    try:
        import psutil

        physical = psutil.cpu_count(logical=False) or physical
    except ImportError:
        pass
    if physical < 8:
        pytest.skip(
            f"criterion requires >= 8 physical cores, host has {physical}; "
            "the busy-pad measurement below runs unchanged on a large host"
        )
    rates = {}
    for w in (1, 8):
        with spawn_workers("tracker", w, "socket", pad_ms=1.0, pad_mode="busy") as pool:
            pool.reset_all(list(range(w)))
            actions = np.zeros((w, 12))
            import time

            t0 = time.perf_counter()
            steps = 200
            for _ in range(steps):
                pool.step_all(actions)
            rates[w] = w * steps / (time.perf_counter() - t0)
    ratio = rates[8] / rates[1]
    assert ratio >= 4.0, f"throughput ratio {ratio:.2f} < 4"
    report(10, f"padded env-steps/s ratio W8/W1 = {ratio:.2f} >= 4")


def test_acceptance_11_protocol():
    """Frame codec round-trips 1e4 random frames; transports give identical logs."""
    rng = np.random.default_rng(5150)
    tags = sorted(wire.KNOWN_TAGS)
    for _ in range(10_000):
        tag = tags[rng.integers(len(tags))]
        payload = rng.bytes(int(rng.integers(0, 256)))
        assert wire.decode_frame(wire.encode_frame(tag, payload)) == (tag, payload)

    logs = {}
    for transport in ("in-process", "socket"):
        with spawn_workers("lander", 2, transport) as pool:
            history = []
            run_bo(pool, PriorSet(), TpeConfig(), n_trials=16, batch=2, seed=77,
                   history=history)
        logs[transport] = [(t.params, t.value, t.state) for t in history]
    assert logs["in-process"] == logs["socket"]
    report(11, "1e4 frame round-trips ok; in-process and socket trial logs identical")

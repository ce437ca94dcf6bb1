"""Cross-entropy policy search over a worker pool.

Policies are linear maps squashed onto [-1, 1] with tanh. Each iteration
samples a population of parameter vectors around the current mean, rolls
every candidate through one episode, and refits mean/stddev to the elite
fraction. Candidate seeds and episode seeds are a function of (run seed,
iteration, candidate index) only, so the learning curve is identical for any
worker count; only the wall-clock column changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import episode_seed, make_rng
from .errors import ActionShapeError

RETURN_FLOOR = -1e6  # recorded for candidates whose evaluation failed


@dataclass(frozen=True)
class LinearPolicy:
    weights: np.ndarray  # act_dim x obs_dim
    bias: np.ndarray  # act_dim

    @property
    def obs_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def act_dim(self) -> int:
        return self.weights.shape[0]


def policy_act(policy: LinearPolicy, obs) -> np.ndarray:
    """tanh(W obs + b); always inside [-1, 1]^act_dim."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (policy.obs_dim,):
        raise ActionShapeError(f"expected obs of length {policy.obs_dim}, got {obs.shape}")
    return np.tanh(policy.weights @ obs + policy.bias)


def n_params(obs_dim: int, act_dim: int) -> int:
    return act_dim * obs_dim + act_dim


def unflatten_policy(theta: np.ndarray, obs_dim: int, act_dim: int) -> LinearPolicy:
    w = theta[: act_dim * obs_dim].reshape(act_dim, obs_dim)
    b = theta[act_dim * obs_dim :]
    return LinearPolicy(weights=w, bias=b)


@dataclass
class CemState:
    mean: np.ndarray
    stddev: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class CemConfig:
    iterations: int = 30
    population: int = 32
    elite_frac: float = 0.125
    sigma_init: float = 0.1
    smoothing: float = 0.7  # fraction of the old stddev kept per update
    sigma_min: float = 0.01
    # Episodes averaged per candidate; all candidates of an iteration share
    # the same episode seeds so returns differ only through the parameters.
    episodes_per_candidate: int = 4
    # Command of the fixed evaluation episode behind the curve's MSE columns.
    probe_command: tuple[float, float, float] = (0.5, -0.45, 0.0)

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 < self.elite_frac <= 1.0:
            raise ValueError("elite_frac must lie in (0, 1]")
        if self.sigma_init <= 0 or self.sigma_min <= 0:
            raise ValueError("sigma_init and sigma_min must be positive")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must lie in [0, 1)")
        if self.episodes_per_candidate < 1:
            raise ValueError("episodes_per_candidate must be >= 1")
        if len(self.probe_command) != 3:
            raise ValueError("probe_command must have three components")


def cem_iterate(
    state: CemState,
    population_returns: list[tuple[np.ndarray, float]],
    elite_frac: float,
    smoothing: float = 0.7,
    sigma_min: float = 0.01,
) -> CemState:
    """Refit the sampling distribution to the elite fraction.

    Elites are the top ceil(elite_frac * P) candidates by return; ties keep
    draw order (stable sort). The new mean is the elite mean; the stddev
    blends the old one with the elite stddev and is floored elementwise.
    """
    if len(population_returns) < 2:
        raise ValueError("population must hold at least 2 candidates")
    if not 0.0 < elite_frac <= 1.0:
        raise ValueError("elite_frac must lie in (0, 1]")
    n_elite = math.ceil(elite_frac * len(population_returns))
    order = sorted(range(len(population_returns)), key=lambda i: -population_returns[i][1])
    elite = np.stack([population_returns[i][0] for i in order[:n_elite]])
    mean = elite.mean(axis=0)
    elite_std = elite.std(axis=0)
    stddev = np.maximum(smoothing * state.stddev + (1.0 - smoothing) * elite_std, sigma_min)
    return CemState(mean=mean, stddev=stddev, iteration=state.iteration + 1)


@dataclass
class TrainingPoint:
    """One iteration of the learning curve.

    ``mean_return`` is the population mean under that iteration's shared
    episode seeds; ``mse_x``/``mse_y`` are the episode-averaged tracking
    errors of the mean policy *entering* the iteration, measured on a probe
    episode with a fixed canonical command. The first point therefore
    reports the untrained policy on a non-degenerate baseline and the MSE
    columns are comparable across iterations.
    """

    wall_clock_s: float
    mean_return: float
    mse_x: float
    mse_y: float


def run_cem(
    pool,
    cfg: CemConfig,
    iterations: int | None = None,
    *,
    seed: int = 0,
    clock=time.perf_counter,
    on_point=None,
) -> tuple[LinearPolicy, list[TrainingPoint]]:
    """Train a linear policy on the pool's episodic environment.

    The population is evaluated in ceil(P / W) barrier waves. Every
    candidate of iteration j shares the episode seed derived from
    (run seed, j), so within an iteration the returns differ only through
    the parameters (common random numbers); across iterations the episodes
    vary. All seeds are independent of the worker count, so the curve's
    metric columns are identical for any W. Episodes that fail on a worker
    are recorded at the return floor and training continues.
    ``on_point(point)``, if given, runs with each TrainingPoint as its
    iteration ends.
    """
    if iterations is None:
        iterations = cfg.iterations
    obs_dim, act_dim = pool.obs_dim, pool.act_dim
    dim = n_params(obs_dim, act_dim)
    state = CemState(mean=np.zeros(dim), stddev=np.full(dim, cfg.sigma_init))
    rng = make_rng(seed)
    curve: list[TrainingPoint] = []
    best_policy = unflatten_policy(state.mean.copy(), obs_dim, act_dim)
    best_mean_return = -math.inf
    m_eval = cfg.episodes_per_candidate
    probe_options = {"command": list(cfg.probe_command)}
    start = clock()

    for iteration in range(iterations):
        entering_policy = unflatten_policy(state.mean.copy(), obs_dim, act_dim)
        _, probe_mse = _rollout_wave(pool, [entering_policy], [episode_seed(seed, 0)],
                                     options=probe_options)

        # Mirrored perturbations: candidate 2i+1 negates candidate 2i's noise,
        # which halves the directional selection noise at no extra rollouts.
        noise = rng.standard_normal((cfg.population, dim))
        noise[1::2] = -noise[0::2][: noise[1::2].shape[0]]
        thetas = state.mean + state.stddev * noise
        policies = [unflatten_policy(thetas[c], obs_dim, act_dim) for c in range(cfg.population)]
        eval_seeds = [episode_seed(seed, 1 + iteration * m_eval + m) for m in range(m_eval)]
        # One job per (candidate, evaluation episode), batched into waves.
        jobs = [(c, s) for c in range(cfg.population) for s in eval_seeds]
        returns = np.zeros(cfg.population)
        for wave_start in range(0, len(jobs), pool.n_workers):
            wave = jobs[wave_start : wave_start + pool.n_workers]
            wave_returns, _ = _rollout_wave(
                pool, [policies[c] for c, _ in wave], [s for _, s in wave]
            )
            for (c, _), ret in zip(wave, wave_returns):
                returns[c] += ret / m_eval

        mean_return = float(returns.mean())
        state = cem_iterate(
            state,
            [(thetas[i], float(returns[i])) for i in range(cfg.population)],
            cfg.elite_frac,
            smoothing=cfg.smoothing,
            sigma_min=cfg.sigma_min,
        )
        curve.append(
            TrainingPoint(
                wall_clock_s=clock() - start,
                mean_return=mean_return,
                mse_x=float(probe_mse[0][0]),
                mse_y=float(probe_mse[0][1]),
            )
        )
        if on_point is not None:
            on_point(curve[-1])
        if mean_return > best_mean_return:
            best_mean_return = mean_return
            best_policy = unflatten_policy(state.mean.copy(), obs_dim, act_dim)

    return best_policy, curve


def _rollout_wave(pool, policies: list[LinearPolicy], seeds: list[int], options=None):
    """Roll one episode per policy concurrently; returns (returns, mse pairs).

    Workers auto-reset when their episode ends; steps a slot receives after
    its recorded episode finished are discarded, so results depend only on
    each slot's seed and action stream.
    """
    indices = list(range(len(policies)))
    obs = pool.reset_some(indices, seeds, options)
    done = [False] * len(policies)
    ep_return = [0.0] * len(policies)
    ep_mse = [(0.0, 0.0)] * len(policies)
    while not all(done):
        actions = np.stack([policy_act(p, o) for p, o in zip(policies, obs)])
        outcomes = pool.step_some(indices, actions, raise_on_error=False)
        for slot, res in enumerate(outcomes):
            if done[slot]:
                continue
            if isinstance(res, BaseException):
                ep_return[slot] = RETURN_FLOOR
                done[slot] = True
                continue
            ep_return[slot] += res.reward
            obs[slot] = res.observation
            if res.terminated or res.truncated:
                steps = max(1, res.info.get("err_steps", 1))
                ep_mse[slot] = (
                    res.info.get("err2_x_sum", 0.0) / steps,
                    res.info.get("err2_y_sum", 0.0) / steps,
                )
                done[slot] = True
    return np.array(ep_return), ep_mse

"""The three workloads: inputs made from the seed, one round, and its checks.

A round is a whole unit of work through the public API. A run repeats the
same round with the same inputs, so every round attempts the same
operations and its outputs can be compared with the first round's.
"""

from __future__ import annotations

import numpy as np
from rollout_grid.cem import CemConfig, run_cem
from rollout_grid.lander import PriorSet
from rollout_grid.pool import spawn_workers
from rollout_grid.tpe import TpeConfig, run_bo

import capture
import checks

#: Socket workers per pool: the core count of the host the bounds were set
#: on. Fixed, so that results from different hosts measure the same thing.
WIDTH = 2

W_TRACK = 1.0  # tracker tracking-term weight; bounds every decision step's reward


class Workload:
    name = ""
    env = ""
    env_config: dict = {}
    n_s = 1
    steps_per_action = 1  # physics ticks per decision step
    iterations = 0  # optimizer iterations per round, where there are any

    def spawn(self, transport: str = "socket", width: int = WIDTH):
        return spawn_workers(self.env, width, transport, env_config=self.env_config, n_s=self.n_s)

    def run_round(self, pool):
        """Run one round through ``pool``; return outputs to compare across rounds."""
        raise NotImplementedError

    def steps_recorded(self, log) -> int:
        """Decision steps of one round that count toward a recorded episode or evaluation."""
        raise NotImplementedError

    def check(self, log, summary) -> list[str]:
        """Check the first round's log and outputs; returns failure messages."""
        raise NotImplementedError


# The acceptance-9 training setup: short episodes with planar commands.
CEM_ENV = {
    "horizon": 40,
    "weights": {"w_track": W_TRACK, "sigma_track": 0.5, "scale_prev_action": 0.25, "scale_q": 0.5},
    "cmd_vx": [-0.6, 0.6],
    "cmd_vy": [-0.6, 0.6],
    "cmd_yaw": [0.0, 0.0],
}
CEM_CFG = CemConfig(iterations=25, population=24, episodes_per_candidate=2, elite_frac=0.25,
                    sigma_init=0.2, smoothing=0.6, sigma_min=0.02)


class CemTracker(Workload):
    """RL case study: every decision step is one barrier of 4 tracker ticks."""

    name = "cem-tracker"
    env = "tracker"
    env_config = CEM_ENV
    steps_per_action = 4
    iterations = 2

    def __init__(self, seed: int, cfg: CemConfig = CEM_CFG):
        self.seed = seed
        self.cfg = cfg

    def run_round(self, pool):
        _, curve = run_cem(pool, self.cfg, self.iterations, seed=self.seed)
        return [(p.mean_return, p.mse_x, p.mse_y) for p in curve]

    def steps_recorded(self, log) -> int:
        return capture.cem_steps_recorded(log)

    def check(self, log, summary) -> list[str]:
        with self.spawn("in-process", 1) as pool:
            reference = self.run_round(pool)
        return (checks.cem_columns(summary, reference)
                + checks.reward_bound(log, self.n_s * W_TRACK))


# The lander's default parameters, stated here so the checks use the
# benchmark's own constants rather than the program's.
LANDER_PARAMS = {
    "mass": 1000.0,
    "gravity": 1.62,
    "drop_height": 1.0,
    "n_legs": 6,
    "stroke_limit": 0.5,
    "stop_length": 1e-3,
    "a_ref": 50.0,
    "alpha_w": 1.0,
}
LANDER_DT = 1e-3
LANDER_ENV = {"params": LANDER_PARAMS, "sim_dt": LANDER_DT, "window_s": 2.0}
BO_TRIALS = 60  # the default bo.n_trials
BO_BATCH = WIDTH


class BoLander(Workload):
    """Design-study case study: TPE asks and 2000-tick lander evaluations share the time."""

    name = "bo-lander"
    env = "lander"
    env_config = LANDER_ENV

    def __init__(self, seed: int, n_trials: int = BO_TRIALS):
        self.seed = seed
        self.n_trials = n_trials

    def run_round(self, pool):
        history = []
        _, curve = run_bo(pool, PriorSet(), TpeConfig(), self.n_trials, BO_BATCH,
                          seed=self.seed, history=history)
        return {
            "trials": [(t.index, t.params, t.value, t.state) for t in history],
            "curve": [value for _, value in curve],
        }

    def steps_recorded(self, log) -> int:
        return capture.evaluations_completed(log)

    def check(self, log, summary) -> list[str]:
        with self.spawn("in-process") as pool:
            reference = self.run_round(pool)
        consts = dict(LANDER_PARAMS, sim_dt=LANDER_DT)
        return (checks.lander_evaluations(log, summary["trials"], consts)
                + checks.best_curve(summary["curve"], summary["trials"])
                + checks.trial_logs(summary["trials"], reference["trials"]))


ROLLOUT_ENV = {"horizon": 500, "weights": {"w_track": W_TRACK}}  # the default tracker


class RolloutTracker(Workload):
    """Substep rollout: 8 decision steps of 4 ticks per round trip, random actions."""

    name = "rollout-tracker"
    env = "tracker"
    env_config = ROLLOUT_ENV
    n_s = 8
    steps_per_action = 4

    def __init__(self, seed: int, barriers: int = 200, env_config: dict | None = None):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=WIDTH)]
        self.actions = rng.uniform(-1.0, 1.0, size=(barriers, WIDTH, 12))
        if env_config is not None:
            self.env_config = env_config

    def run_round(self, pool):
        pool.reset_all(self.seeds)
        for actions in self.actions:
            batch = pool.step_all(actions)
        return [(r.observation.tobytes(), r.reward) for r in batch.results]

    def steps_recorded(self, log) -> int:
        return capture.tracker_steps_executed(log)

    def check(self, log, summary) -> list[str]:
        return (checks.rollout_streams(log, self.seeds, self.actions, self.env_config, self.n_s)
                + checks.reward_bound(log, self.n_s * W_TRACK))


WORKLOADS = {w.name: w for w in (CemTracker, BoLander, RolloutTracker)}

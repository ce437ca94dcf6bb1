"""Velocity-tracking proxy environment.

Keeps the interface of a quadruped velocity-tracking task -- a 45-dim
observation in six scaled groups, a 12-dim position-target action, a
multi-term reward, termination on instability -- over cheap planar
dynamics: twelve first-order joint filters whose offsets drive the base
velocities through a fixed mixing matrix. The mixing matrix is generated
once from a documented seed and frozen into the repo as data so every
install steps identically.

Observation layout (index ranges, each group multiplied by its scale):
  0..2   body angular velocity, proxy (0, 0, omega_z)
  3..5   projected gravity, constant (0, 0, -1) -- the proxy never tilts
  6..8   planar velocity command (vx, vy, yaw rate)
  9..20  joint offsets q
  21..32 joint velocities qd
  33..44 previous action
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .core import make_rng

N_JOINTS = 12
OBS_DIM = 45
ACT_DIM = 12

#: Seed and row scaling used to generate the frozen mixing matrix.
MIXING_SEED = 20250411
MIXING_ROW_NORMS = (16.0, 16.0, 8.0, 1.5)


def generate_mixing_matrix(seed: int = MIXING_SEED, row_norms=MIXING_ROW_NORMS) -> np.ndarray:
    """Build the 5x12 base-acceleration mixing matrix.

    Rows map joint offsets to (vx_dot, vy_dot, omega_dot, vz_dot); the fifth
    row is identically zero because height has no forcing beyond h_dot = v_z.
    A 4x12 uniform(-1, 1) draw from a Philox stream is orthonormalized (so
    no base axis needs fine cancellation against another) and each live row
    is rescaled to a fixed norm that gives the proxy enough control
    authority to track order-one commands.
    """
    rng = make_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(len(row_norms), N_JOINTS))
    basis, _ = np.linalg.qr(raw.T)  # columns: orthonormal span of the draws
    m = np.zeros((5, N_JOINTS))
    for i, norm in enumerate(row_norms):
        m[i] = basis[:, i] * norm
    return m


@lru_cache(maxsize=1)
def mixing_matrix() -> np.ndarray:
    """The frozen matrix shipped with the package (see scripts/gen_mixing_matrix.py)."""
    text = resources.files("rollout_grid").joinpath("data/mixing_matrix.json").read_text()
    payload = json.loads(text)
    m = np.asarray(payload["matrix"], dtype=np.float64)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class TrackerWeights:
    """Reward weights and per-group observation scale factors."""

    w_track: float = 1.0
    sigma_track: float = 0.25
    w_yaw: float = 0.05
    w_vz: float = 0.1
    w_height: float = 0.5
    w_rate: float = 0.01
    w_joint: float = 0.002
    scale_angvel: float = 0.25
    scale_gravity: float = 1.0
    scale_command: float = 1.0
    scale_q: float = 1.0
    scale_qd: float = 0.05
    scale_prev_action: float = 1.0

    def __post_init__(self):
        if self.sigma_track <= 0:
            raise ValueError("sigma_track must be > 0")
        for name in ("w_track", "w_yaw", "w_vz", "w_height", "w_rate", "w_joint"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @cached_property
    def obs_scales(self) -> np.ndarray:
        """Per-entry observation factors: each group's scale, 1.0 on the constant zeros."""
        scales = np.concatenate((
            (1.0, 1.0, self.scale_angvel, 1.0, 1.0, self.scale_gravity),
            np.full(3, self.scale_command),
            np.full(N_JOINTS, self.scale_q),
            np.full(N_JOINTS, self.scale_qd),
            np.full(ACT_DIM, self.scale_prev_action),
        ))
        scales.setflags(write=False)
        return scales


@dataclass
class TrackerState:
    v_xy: np.ndarray  # planar body velocity (2,)
    omega_z: float  # yaw rate
    v_z: float  # vertical velocity
    height: float
    q: np.ndarray  # joint offsets (12,)
    qd: np.ndarray  # joint velocities (12,)
    prev_action: np.ndarray  # (12,)
    command: np.ndarray  # (vx_cmd, vy_cmd, omega_cmd)

    def finite(self) -> bool:
        # Lane by lane in Python: on vectors this short it is several times
        # cheaper than numpy's isfinite and reduction.
        return (
            math.isfinite(self.omega_z)
            and math.isfinite(self.v_z)
            and math.isfinite(self.height)
            and all(map(math.isfinite, self.v_xy.tolist()))
            and all(map(math.isfinite, self.q.tolist()))
            and all(map(math.isfinite, self.qd.tolist()))
        )


@dataclass(frozen=True)
class TrackerEnvConfig:
    sim_dt: float = 0.005
    steps_per_action: int = 4
    horizon: int = 500
    weights: TrackerWeights = field(default_factory=TrackerWeights)
    tau: float = 0.04  # joint filter time constant, s
    damping: float = 4.0  # base velocity damping, 1/s
    action_scale: float = 0.5
    q_default: float = 0.0  # nominal joint offset, broadcast over the 12 joints
    h0: float = 0.35  # nominal base height, m
    v_limit: float = 4.0  # planar speed that counts as loss of control
    h_limit: float = 0.3  # height deviation that counts as a fall
    cmd_vx: tuple[float, float] = (-1.0, 1.0)
    cmd_vy: tuple[float, float] = (-0.6, 0.6)
    cmd_yaw: tuple[float, float] = (-0.8, 0.8)

    def __post_init__(self):
        if self.sim_dt <= 0 or self.steps_per_action < 1 or self.horizon < 1:
            raise ValueError("sim_dt > 0, steps_per_action >= 1, horizon >= 1 required")
        if self.tau <= self.sim_dt:
            raise ValueError("joint filter tau must exceed the physics tick")
        for lo, hi in (self.cmd_vx, self.cmd_vy, self.cmd_yaw):
            if lo > hi:
                raise ValueError("command bounds must satisfy lo <= hi")


def initial_state(command: np.ndarray, config: TrackerEnvConfig) -> TrackerState:
    return TrackerState(
        v_xy=np.zeros(2),
        omega_z=0.0,
        v_z=0.0,
        height=config.h0,
        q=np.full(N_JOINTS, config.q_default, dtype=np.float64),
        qd=np.zeros(N_JOINTS),
        prev_action=np.zeros(N_JOINTS),
        command=np.asarray(command, dtype=np.float64),
    )


def sample_command(rng: np.random.Generator, config: TrackerEnvConfig) -> np.ndarray:
    """Per-episode command; fixed draw order vx, vy, yaw rate."""
    return np.array(
        [
            rng.uniform(*config.cmd_vx),
            rng.uniform(*config.cmd_vy),
            rng.uniform(*config.cmd_yaw),
        ]
    )


def compose_observation(state: TrackerState, weights: TrackerWeights) -> np.ndarray:
    # One elementwise product gives each entry its group's scale; the
    # constant zeros take a factor of 1.0, which leaves them as they are.
    raw = np.concatenate((
        (0.0, 0.0, state.omega_z, 0.0, 0.0, -1.0),
        state.command,
        state.q,
        state.qd,
        state.prev_action,
    ))
    return raw * weights.obs_scales


def scaled_target(action: np.ndarray, config: TrackerEnvConfig) -> np.ndarray:
    """Joint offsets an action asks for: scaled and added to the defaults."""
    return config.action_scale * action + config.q_default


def tracker_dynamics_step(
    state: TrackerState,
    action: np.ndarray,
    dt: float,
    config: TrackerEnvConfig,
    target: np.ndarray | None = None,
) -> TrackerState:
    """One physics tick: joint filters toward the scaled targets, then mixing.

    Normalized actions are scaled and added to the default joint offsets,
    the joints first-order-filter toward those targets, and the joint
    offsets force the base velocities through the mixing matrix with linear
    damping. Height only integrates the vertical velocity. A caller that
    ticks one action several times passes ``target``, its
    ``scaled_target(action, config)``, to skip recomputing it.
    """
    if target is None:
        target = scaled_target(action, config)
    qd = (target - state.q) / config.tau
    q = state.q + qd * dt
    a_x, a_y, a_w, a_z = (mixing_matrix()[:4] @ q).tolist()
    # The base update is scalar, lane by lane: each lane does the float
    # operations of the vector form in the same order.
    d = config.damping
    v_x, v_y = state.v_xy.tolist()
    v_xy = np.array((v_x + (a_x - d * v_x) * dt, v_y + (a_y - d * v_y) * dt))
    omega_z = state.omega_z + (a_w - d * state.omega_z) * dt
    v_z = state.v_z + (a_z - d * state.v_z) * dt
    height = state.height + v_z * dt
    # Positional: keyword arguments cost a tick more than half a microsecond.
    return TrackerState(v_xy, omega_z, v_z, height, q, qd, state.prev_action, state.command)


def tracker_reward(
    state: TrackerState,
    action: np.ndarray,
    prev_action: np.ndarray,
    weights: TrackerWeights,
    config: TrackerEnvConfig,
) -> float:
    """Exponential tracking term minus the stability and smoothness penalties."""
    err = state.v_xy - state.command[:2]
    tracking = weights.w_track * math.exp(-float(err.dot(err)) / weights.sigma_track)
    yaw_pen = weights.w_yaw * (state.omega_z - state.command[2]) ** 2
    # The tick keeps v_z and height as Python floats; squared as float64
    # scalars, an overflow gives inf, as numpy does, instead of raising.
    vz_pen = weights.w_vz * np.float64(state.v_z) ** 2
    height_pen = weights.w_height * (np.float64(state.height) - config.h0) ** 2
    rate = action - prev_action
    rate_pen = weights.w_rate * float(rate.dot(rate))
    joint = state.q - config.q_default
    joint_pen = weights.w_joint * float(joint.dot(joint))
    return tracking - yaw_pen - vz_pen - height_pen - rate_pen - joint_pen


def tracker_status(state: TrackerState, config: TrackerEnvConfig) -> bool:
    """True when the state is unstable; the episode applies the horizon."""
    return (
        not state.finite()
        or math.sqrt(state.v_xy.dot(state.v_xy)) > config.v_limit
        or abs(state.height - config.h0) > config.h_limit
    )


class TrackerScenario:
    """The proxy wrapped as a scenario; command resampled at every reset."""

    obs_dim = OBS_DIM
    act_dim = ACT_DIM

    def __init__(self, config: TrackerEnvConfig | None = None):
        self.config = config or TrackerEnvConfig()
        self.steps_per_action = self.config.steps_per_action
        self.horizon = self.config.horizon
        self.state = initial_state(np.zeros(3), self.config)
        self._action = np.zeros(N_JOINTS)
        self._target = scaled_target(self._action, self.config)
        self._rate_ref = np.zeros(N_JOINTS)
        self._err_sums = (0.0, 0.0)
        self._err_steps = 0

    def reset(self, rng: np.random.Generator, options: dict) -> None:
        command = options.get("command")
        if command is None:
            command = sample_command(rng, self.config)
        self.state = initial_state(np.asarray(command, dtype=np.float64), self.config)
        self._action = np.zeros(N_JOINTS)
        self._target = scaled_target(self._action, self.config)
        self._rate_ref = np.zeros(N_JOINTS)
        self._err_sums = (0.0, 0.0)
        self._err_steps = 0

    def apply_action(self, action: np.ndarray) -> None:
        # prev_action becomes the action being applied; the rate penalty
        # compares against the one before it.
        self._rate_ref = self.state.prev_action
        self._action = action
        self._target = scaled_target(action, self.config)
        self.state.prev_action = action.copy()

    def advance_one(self) -> None:
        self.state = tracker_dynamics_step(
            self.state, self._action, self.config.sim_dt, self.config, self._target
        )

    def observe(self) -> np.ndarray:
        return compose_observation(self.state, self.config.weights)

    def reward(self, action: np.ndarray) -> float:
        return tracker_reward(self.state, action, self._rate_ref, self.config.weights, self.config)

    def terminated(self) -> bool:
        return tracker_status(self.state, self.config)

    def diagnostics(self) -> dict:
        # Runs exactly once per decision step, so the running tracking-error
        # sums that back the episode-averaged MSE accumulate here.
        v_x, v_y = self.state.v_xy.tolist()
        cmd_x, cmd_y = self.state.command[:2].tolist()
        err_x, err_y = v_x - cmd_x, v_y - cmd_y
        sum_x, sum_y = self._err_sums
        sum_x += err_x * err_x
        sum_y += err_y * err_y
        self._err_sums = sum_x, sum_y
        self._err_steps += 1
        return {
            "v_x": v_x,
            "v_y": v_y,
            "cmd_x": cmd_x,
            "cmd_y": cmd_y,
            "err2_x_sum": sum_x,
            "err2_y_sum": sum_y,
            "err_steps": self._err_steps,
        }

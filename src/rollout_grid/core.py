"""Scenario core: the seven-hook decomposition of a stepped simulation.

A free-form stepped simulation is reinterpreted as a :class:`ScenarioSpec`:
fixed shapes (obs_dim, act_dim), a physics step size, a decision-to-physics
ratio, a horizon, six behavior hooks (reset / apply_action / advance_one /
observe / reward / status) and an optional seventh, diagnostics. :class:`Episode`
drives the spec through the single-episode reset/step contract; batching,
auto-reset and transport live one layer up (see ``pool``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import (
    ActionShapeError,
    ActionValueError,
    EpisodeOver,
    NumericalError,
    ResetError,
)

U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Reward handed out when the state goes non-finite mid-episode.
REWARD_FLOOR = -100.0


def episode_seed(root_seed: int, episode: int) -> int:
    """Seed for the ``episode``-th episode of a stream rooted at ``root_seed``.

    Episode 0 uses the root seed unchanged, so a single-episode run is
    indistinguishable from a bare reset. Later episodes derive a fresh
    64-bit seed via a counter-keyed SeedSequence, which keeps the schedule
    independent of how many workers share the root.
    """
    root = root_seed & U64_MASK
    if episode == 0:
        return root
    ss = np.random.SeedSequence(entropy=(root, episode))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator used for all per-episode randomization."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed & U64_MASK)))


def validate_action(action, act_dim: int) -> np.ndarray:
    """Return ``action`` as a float64 vector, or raise.

    Raises ActionShapeError on a length mismatch and ActionValueError when
    any entry is not finite.
    """
    arr = np.asarray(action, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != act_dim:
        raise ActionShapeError(f"expected action of length {act_dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ActionValueError("action contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ScenarioSpec:
    """One stepped scenario: fixed shapes, timing, and the behavior hooks.

    Hooks are bound callables supplied by a concrete environment. They may
    close over arbitrary per-instance state; an instance and its state are
    confined to one worker. The reward hook receives the applied action and
    the post-advance observation; environments that want the pre-step state
    as well snapshot it themselves in ``apply_action``. ``advance_one`` may
    return a truthy value to say that nothing changes from there on (further
    ticks would leave every observed quantity as it is); the decision step
    then stops ticking. A hook that returns ``None`` ticks every time.
    The optional ``diagnostics`` hook returns a new dict that becomes the
    step's info. It runs exactly once per decision step, after the advance,
    on every outcome: a running, settled, terminated or truncated step, and
    the numerical-failure step too, whose info then also carries
    ``numerical_failure``.
    """

    sim_step_size: float  # physics tick, seconds
    steps_per_action: int  # physics ticks per decision step
    horizon: int  # decision steps before Episode truncates; no hook checks it
    obs_dim: int
    act_dim: int
    reset: Callable[[np.random.Generator, dict], None]
    apply_action: Callable[[np.ndarray], None]
    advance_one: Callable[[float], bool | None]
    observe: Callable[[], np.ndarray]
    reward: Callable[[np.ndarray, np.ndarray], float]
    status: Callable[[int], tuple[bool, bool]]
    diagnostics: Callable[[], dict] | None = None  # a new dict per call; the step adds keys

    def __post_init__(self):
        if self.sim_step_size <= 0:
            raise ValueError("sim_step_size must be > 0")
        if self.steps_per_action < 1:
            raise ValueError("steps_per_action must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.obs_dim < 1 or self.act_dim < 1:
            raise ValueError("obs_dim and act_dim must be >= 1")


@dataclass
class StepResult:
    """Output of one decision step."""

    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.terminated or self.truncated


class Episode:
    """Drives one ScenarioSpec through the single-episode step contract.

    Within one decision step: the action is applied once, ``advance_one``
    runs with ``sim_step_size`` up to ``steps_per_action`` times, stopping
    after the first call that returns a truthy value (the scenario has
    settled), then observation, reward and status are evaluated in that
    order on the post-advance state. At ``spec.horizon`` decision steps the
    episode truncates unless the status hook terminated it; no hook applies
    the horizon. Auto-reset is deliberately not performed here.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.decision_step = 0
        self._active = False
        self._last_obs: np.ndarray | None = None

    def reset(self, seed: int, options: dict | None = None) -> np.ndarray:
        options = dict(options or {})
        rng = make_rng(seed)
        try:
            self.spec.reset(rng, options)
        except Exception as exc:
            raise ResetError(f"reset hook failed: {exc}") from exc
        self.decision_step = 0
        obs = self._observe()
        if not np.isfinite(obs).all():
            raise NumericalError("non-finite initial observation")
        self._active = True
        self._last_obs = obs
        return obs.copy()

    def step(self, action) -> StepResult:
        if not self._active:
            raise EpisodeOver("episode is over; reset before stepping")
        spec = self.spec
        action = validate_action(action, spec.act_dim)

        spec.apply_action(action)
        advance_one, dt = spec.advance_one, spec.sim_step_size
        for _ in range(spec.steps_per_action):
            if advance_one(dt):
                break
        self.decision_step += 1

        obs = self._observe()
        info = spec.diagnostics() if spec.diagnostics is not None else {}
        if not np.isfinite(obs).all():
            # Numerical blowup ends the episode instead of crashing the run.
            obs = self._last_obs.copy()
            info["numerical_failure"] = True
            result = StepResult(obs, REWARD_FLOOR, True, False, info)
        else:
            reward = float(self.spec.reward(action, obs))
            terminated, truncated = self.spec.status(self.decision_step)
            if not terminated and self.decision_step >= self.spec.horizon:
                truncated = True
            if terminated:
                truncated = False
            self._last_obs = obs
            result = StepResult(obs.copy(), reward, bool(terminated), bool(truncated), info)

        if result.done:
            self._active = False
        return result

    def _observe(self) -> np.ndarray:
        obs = np.asarray(self.spec.observe(), dtype=np.float64)
        if obs.shape != (self.spec.obs_dim,):
            raise NumericalError(
                f"observe hook returned shape {obs.shape}, expected ({self.spec.obs_dim},)"
            )
        return obs

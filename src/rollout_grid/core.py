"""Scenario core: the seven-method decomposition of a stepped simulation.

A free-form stepped simulation is written as a scenario object with four
sizes -- ``obs_dim``, ``act_dim``, ``steps_per_action`` (physics ticks per
decision step) and ``horizon`` (decision steps before :class:`Episode`
truncates) -- and seven methods:

- ``reset(rng, options)`` starts an episode;
- ``apply_action(action)`` takes the validated action of a decision step;
- ``advance_one()`` runs one physics tick of the scenario's own step size;
- ``observe()`` returns the observation vector;
- ``reward(action)`` scores the step; a scenario that wants the pre-step
  state snapshots it in ``apply_action``;
- ``terminated()`` reports the scenario's own end conditions;
- ``diagnostics()`` returns a new dict that becomes the step's info.

A scenario and its state are confined to one worker. ``advance_one`` may
return a truthy value to say that nothing changes from there on (further
ticks would leave every observed quantity as it is); the decision step then
stops ticking. One that returns ``None`` ticks every time. ``diagnostics``
runs exactly once per decision step, after the advance, on every outcome: a
running, settled, terminated or truncated step, and the numerical-failure
step too, whose info then also carries ``numerical_failure``.

:class:`Episode` drives a scenario through the single-episode reset/step
contract and alone applies the horizon; batching, auto-reset and transport
live one layer up (see ``pool``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
    """Drives one scenario object through the single-episode reset/step contract.

    The scenario supplies ``obs_dim``, ``act_dim``, ``steps_per_action`` and
    ``horizon``, each at least 1, and seven methods; see the module
    docstring. Within one decision step: the action is applied once,
    ``advance_one`` runs up to ``steps_per_action`` times, stopping after the
    first call that returns a truthy value (the scenario has settled), then
    observation, diagnostics, reward and termination are evaluated in that
    order on the post-advance state. At ``horizon`` decision steps the
    episode truncates unless the scenario terminated it; no scenario method
    checks the horizon. Auto-reset is deliberately not performed here.
    """

    def __init__(self, scenario):
        for name in ("steps_per_action", "horizon", "obs_dim", "act_dim"):
            if getattr(scenario, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.scenario = scenario
        self.decision_step = 0
        self._active = False
        self._last_obs: np.ndarray | None = None

    def reset(self, seed: int, options: dict | None = None) -> np.ndarray:
        options = dict(options or {})
        rng = make_rng(seed)
        try:
            self.scenario.reset(rng, options)
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
        scenario = self.scenario
        action = validate_action(action, scenario.act_dim)

        scenario.apply_action(action)
        advance_one = scenario.advance_one
        for _ in range(scenario.steps_per_action):
            if advance_one():
                break
        self.decision_step += 1

        obs = self._observe()
        info = scenario.diagnostics()
        if not np.isfinite(obs).all():
            # Numerical blowup ends the episode instead of crashing the run.
            obs = self._last_obs.copy()
            info["numerical_failure"] = True
            result = StepResult(obs, REWARD_FLOOR, True, False, info)
        else:
            reward = float(scenario.reward(action))
            terminated = bool(scenario.terminated())
            truncated = not terminated and self.decision_step >= scenario.horizon
            self._last_obs = obs
            result = StepResult(obs.copy(), reward, terminated, truncated, info)

        if result.done:
            self._active = False
        return result

    def _observe(self) -> np.ndarray:
        obs = np.asarray(self.scenario.observe(), dtype=np.float64)
        if obs.shape != (self.scenario.obs_dim,):
            raise NumericalError(
                f"observe hook returned shape {obs.shape}, expected ({self.scenario.obs_dim},)"
            )
        return obs

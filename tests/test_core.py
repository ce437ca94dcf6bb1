import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rollout_grid.core import (
    Episode,
    EpisodeClock,
    ScenarioSpec,
    episode_seed,
    validate_action,
)
from rollout_grid.errors import (
    ActionShapeError,
    ActionValueError,
    EpisodeOver,
    NumericalError,
    ResetError,
)


class RecordingScenario:
    """Scriptable scenario that logs the order its hooks fire in."""

    def __init__(self, obs_dim=3, act_dim=2, k=4, dt=0.005, horizon=5):
        self.log = []
        self.fail_reset = False
        self.obs_value = np.zeros(obs_dim)
        self.terminate_at = None
        self.k, self.dt, self.horizon = k, dt, horizon
        self.obs_dim, self.act_dim = obs_dim, act_dim
        self.steps = 0

    def spec(self):
        return ScenarioSpec(
            sim_step_size=self.dt,
            steps_per_action=self.k,
            horizon=self.horizon,
            obs_dim=self.obs_dim,
            act_dim=self.act_dim,
            reset=self._reset,
            apply_action=lambda a: self.log.append("apply"),
            advance_one=lambda dt: self.log.append("advance"),
            observe=self._observe,
            reward=self._reward,
            status=self._status,
        )

    def _reset(self, rng, options):
        if self.fail_reset:
            raise RuntimeError("reset exploded")
        self.log.append("reset")
        self.steps = 0
        self.first_draw = rng.integers(0, 2**32)

    def _observe(self):
        self.log.append("observe")
        return self.obs_value.copy()

    def _reward(self, action, obs):
        self.log.append("reward")
        return 1.0

    def _status(self, decision_step):
        self.log.append("status")
        self.steps = decision_step
        if self.terminate_at is not None and decision_step >= self.terminate_at:
            return True, False
        return False, False


def test_validate_action_accepts_finite_vector():
    out = validate_action([1.0, 2.0, 3.0], 3)
    assert out.dtype == np.float64 and out.shape == (3,)


def test_validate_action_shape_mismatch():
    with pytest.raises(ActionShapeError):
        validate_action(np.zeros(3), 12)


def test_validate_action_rejects_nan():
    with pytest.raises(ActionValueError):
        validate_action([0.0, np.nan], 2)


@given(st.integers(1, 20), st.integers(0, 40))
def test_validate_action_property(act_dim, given_len):
    vec = np.zeros(given_len)
    if given_len == act_dim:
        assert validate_action(vec, act_dim).shape == (act_dim,)
    else:
        with pytest.raises(ActionShapeError):
            validate_action(vec, act_dim)


def test_episode_clock_law():
    sc = RecordingScenario(k=4, dt=0.005, horizon=10)
    ep = Episode(sc.spec())
    ep.reset(0)
    for _ in range(7):
        ep.step(np.zeros(2))
    assert math.isclose(ep.clock.sim_time, 7 * 4 * 0.005)


def test_hook_order_within_step():
    sc = RecordingScenario(k=3)
    ep = Episode(sc.spec())
    ep.reset(0)
    sc.log.clear()
    ep.step(np.zeros(2))
    assert sc.log == ["apply", "advance", "advance", "advance", "observe", "reward", "status"]


def test_reset_is_deterministic_for_same_seed():
    sc = RecordingScenario()
    ep = Episode(sc.spec())
    ep.reset(99)
    first = sc.first_draw
    ep.reset(99)
    assert sc.first_draw == first


def test_truncates_at_horizon():
    sc = RecordingScenario(horizon=3)
    ep = Episode(sc.spec())
    ep.reset(0)
    results = [ep.step(np.zeros(2)) for _ in range(3)]
    assert [r.truncated for r in results] == [False, False, True]
    assert not results[-1].terminated


def test_termination_beats_truncation_at_horizon():
    sc = RecordingScenario(horizon=3)
    sc.terminate_at = 3
    ep = Episode(sc.spec())
    ep.reset(0)
    ep.step(np.zeros(2))
    ep.step(np.zeros(2))
    last = ep.step(np.zeros(2))
    assert last.terminated and not last.truncated


def test_step_after_done_raises():
    sc = RecordingScenario(horizon=1)
    ep = Episode(sc.spec())
    ep.reset(0)
    ep.step(np.zeros(2))
    with pytest.raises(EpisodeOver):
        ep.step(np.zeros(2))


def test_reset_hook_failure_wrapped():
    sc = RecordingScenario()
    sc.fail_reset = True
    ep = Episode(sc.spec())
    with pytest.raises(ResetError):
        ep.reset(0)


def test_nan_initial_observation_is_numerical_error():
    sc = RecordingScenario()
    sc.obs_value = np.array([np.nan, 0.0, 0.0])
    ep = Episode(sc.spec())
    with pytest.raises(NumericalError):
        ep.reset(0)


def test_nan_mid_episode_terminates_with_floor():
    sc = RecordingScenario()
    ep = Episode(sc.spec(), reward_floor=-55.0)
    ep.reset(0)
    ok = ep.step(np.zeros(2))
    assert not ok.terminated
    sc.obs_value = np.array([np.inf, 0.0, 0.0])
    bad = ep.step(np.zeros(2))
    assert bad.terminated and not bad.truncated
    assert bad.reward == -55.0
    assert bad.info["numerical_failure"] is True
    assert np.all(np.isfinite(bad.observation))


def test_episode_seed_identity_at_zero():
    assert episode_seed(42, 0) == 42


def test_episode_seed_distinct_and_deterministic():
    seeds = {episode_seed(7, j) for j in range(100)}
    assert len(seeds) == 100
    assert episode_seed(7, 5) == episode_seed(7, 5)


def test_episode_seed_wraps_negative_roots():
    assert episode_seed(-1, 0) == 2**64 - 1


def test_clock_dataclass_sim_time():
    clock = EpisodeClock(decision_step=10, steps_per_action=4, sim_step_size=0.005)
    assert math.isclose(clock.sim_time, 0.2)


def test_spec_rejects_bad_timing():
    sc = RecordingScenario()
    with pytest.raises(ValueError):
        ScenarioSpec(
            sim_step_size=0.0, steps_per_action=1, horizon=1, obs_dim=1, act_dim=1,
            reset=sc._reset, apply_action=lambda a: None, advance_one=lambda dt: None,
            observe=sc._observe, reward=sc._reward, status=sc._status,
        )

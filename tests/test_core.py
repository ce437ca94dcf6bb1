import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rollout_grid.core import (
    REWARD_FLOOR,
    Episode,
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
    """Scriptable scenario that logs the order its methods run in."""

    def __init__(self, obs_dim=3, act_dim=2, k=4, horizon=5):
        self.log = []
        self.fail_reset = False
        self.obs_value = np.zeros(obs_dim)
        self.terminate_at = None
        self.steps_per_action, self.horizon = k, horizon
        self.obs_dim, self.act_dim = obs_dim, act_dim
        self.steps = 0

    def reset(self, rng, options):
        if self.fail_reset:
            raise RuntimeError("reset exploded")
        self.log.append("reset")
        self.steps = 0
        self.first_draw = rng.integers(0, 2**32)

    def apply_action(self, action):
        self.log.append("apply")
        self.steps += 1

    def advance_one(self):
        self.log.append("advance")

    def observe(self):
        self.log.append("observe")
        return self.obs_value.copy()

    def reward(self, action):
        self.log.append("reward")
        return 1.0

    def terminated(self):
        self.log.append("terminated")
        return self.terminate_at is not None and self.steps >= self.terminate_at

    def diagnostics(self):
        self.log.append("diagnostics")
        return {}


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
    sc = RecordingScenario(k=4, horizon=10)
    ep = Episode(sc)
    ep.reset(0)
    for _ in range(7):
        ep.step(np.zeros(2))
    assert ep.decision_step == 7
    ep.reset(0)
    assert ep.decision_step == 0


def test_hook_order_within_step():
    sc = RecordingScenario(k=3)
    ep = Episode(sc)
    ep.reset(0)
    sc.log.clear()
    ep.step(np.zeros(2))
    assert sc.log == ["apply", "advance", "advance", "advance",
                      "observe", "diagnostics", "reward", "terminated"]


def test_reset_is_deterministic_for_same_seed():
    sc = RecordingScenario()
    ep = Episode(sc)
    ep.reset(99)
    first = sc.first_draw
    ep.reset(99)
    assert sc.first_draw == first


def test_truncates_at_horizon():
    sc = RecordingScenario(horizon=3)
    ep = Episode(sc)
    ep.reset(0)
    results = [ep.step(np.zeros(2)) for _ in range(3)]
    assert [r.truncated for r in results] == [False, False, True]
    assert not results[-1].terminated


def test_termination_beats_truncation_at_horizon():
    sc = RecordingScenario(horizon=3)
    sc.terminate_at = 3
    ep = Episode(sc)
    ep.reset(0)
    ep.step(np.zeros(2))
    ep.step(np.zeros(2))
    last = ep.step(np.zeros(2))
    assert last.terminated and not last.truncated


def test_step_after_done_raises():
    sc = RecordingScenario(horizon=1)
    ep = Episode(sc)
    ep.reset(0)
    ep.step(np.zeros(2))
    with pytest.raises(EpisodeOver):
        ep.step(np.zeros(2))


def test_reset_hook_failure_wrapped():
    sc = RecordingScenario()
    sc.fail_reset = True
    ep = Episode(sc)
    with pytest.raises(ResetError):
        ep.reset(0)


def test_nan_initial_observation_is_numerical_error():
    sc = RecordingScenario()
    sc.obs_value = np.array([np.nan, 0.0, 0.0])
    ep = Episode(sc)
    with pytest.raises(NumericalError):
        ep.reset(0)


def test_nan_mid_episode_terminates_with_floor():
    sc = RecordingScenario()
    ep = Episode(sc)
    ep.reset(0)
    ok = ep.step(np.zeros(2))
    assert not ok.terminated
    sc.obs_value = np.array([np.inf, 0.0, 0.0])
    bad = ep.step(np.zeros(2))
    assert bad.terminated and not bad.truncated
    assert bad.reward == REWARD_FLOOR
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


@pytest.mark.parametrize("name", ["steps_per_action", "horizon", "obs_dim", "act_dim"])
def test_episode_rejects_a_size_below_one(name):
    sc = RecordingScenario()
    setattr(sc, name, 0)
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        Episode(sc)


class SettlingScenario(RecordingScenario):
    """Recording scenario whose ``advance_one`` reports settled from a given tick on.

    ``settle_at=None`` returns None from every tick, like a scenario that
    never says it has settled; ``settle_at=math.inf`` returns False forever.
    """

    def __init__(self, settle_at, **kwargs):
        super().__init__(**kwargs)
        self.settle_at = settle_at
        self.ticks = 0

    def advance_one(self):
        self.ticks += 1
        self.log.append("advance")
        if self.settle_at is None:
            return None
        return self.ticks >= self.settle_at


@pytest.mark.parametrize("settle_at, ticks", [(1, 1), (3, 3), (5, 5), (None, 5), (math.inf, 5)])
def test_step_stops_ticking_at_first_settled_advance(settle_at, ticks):
    sc = SettlingScenario(settle_at, k=5, horizon=3)
    ep = Episode(sc)
    ep.reset(0)
    sc.log.clear()
    result = ep.step(np.zeros(2))
    # Ticks end at the first truthy return and never pass steps_per_action;
    # the rest of the step runs as usual on the settled state.
    assert sc.ticks == ticks
    assert sc.log == (["apply"] + ["advance"] * ticks
                      + ["observe", "diagnostics", "reward", "terminated"])
    assert not result.done
    assert ep.decision_step == 1


class DiagnosingScenario(SettlingScenario):
    """Settling scenario whose diagnostics report the ticks run so far."""

    def diagnostics(self):
        return {**super().diagnostics(), "ticks_seen": self.ticks}


@pytest.mark.parametrize("outcome", ["running", "settled", "truncated", "numerical_failure"])
def test_diagnostics_runs_once_per_step_after_the_advance(outcome):
    sc = DiagnosingScenario(settle_at=2 if outcome == "settled" else None, k=5,
                            horizon=1 if outcome == "truncated" else 3)
    ep = Episode(sc)
    ep.reset(0)
    sc.log.clear()
    if outcome == "numerical_failure":
        sc.obs_value = np.array([np.nan, 0.0, 0.0])
    result = ep.step(np.zeros(2))
    ticks = 2 if outcome == "settled" else 5
    assert sc.log.count("diagnostics") == 1
    assert sc.log.index("diagnostics") > ticks  # after "apply" and every "advance"
    assert result.info["ticks_seen"] == ticks
    assert result.truncated == (outcome == "truncated")
    if outcome == "numerical_failure":
        assert result.terminated and result.info["numerical_failure"] is True
    else:
        assert "numerical_failure" not in result.info

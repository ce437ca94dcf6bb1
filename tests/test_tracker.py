import hashlib
import math

import numpy as np
import pytest

import rollout_grid.tracker as tracker_module
from rollout_grid.core import Episode, episode_seed, make_rng
from rollout_grid.tracker import (
    ACT_DIM,
    MIXING_ROW_NORMS,
    MIXING_SEED,
    OBS_DIM,
    TrackerEnvConfig,
    TrackerScenario,
    TrackerWeights,
    compose_observation,
    generate_mixing_matrix,
    initial_state,
    mixing_matrix,
    sample_command,
    tracker_dynamics_step,
    tracker_reward,
    tracker_status,
)
from rollout_grid.wire import dumps_canonical

CFG = TrackerEnvConfig()


def make_state(**overrides):
    state = initial_state(np.zeros(3), CFG)
    for key, value in overrides.items():
        setattr(state, key, value)
    return state


class TestMixingMatrix:
    def test_frozen_data_matches_generator(self):
        np.testing.assert_allclose(mixing_matrix(), generate_mixing_matrix(), atol=1e-15)

    def test_shape_and_height_row(self):
        m = mixing_matrix()
        assert m.shape == (5, 12)
        assert np.all(m[4] == 0.0)

    def test_live_rows_full_rank_with_documented_norms(self):
        m = mixing_matrix()
        assert np.linalg.matrix_rank(m[:4]) == 4
        np.testing.assert_allclose(np.linalg.norm(m[:4], axis=1), MIXING_ROW_NORMS)

    def test_regeneration_is_seed_deterministic(self):
        np.testing.assert_array_equal(
            generate_mixing_matrix(MIXING_SEED), generate_mixing_matrix(MIXING_SEED)
        )


class TestObservation:
    def test_shapes(self):
        obs = compose_observation(make_state(), CFG.weights)
        assert obs.shape == (OBS_DIM,) == (45,)

    def test_fresh_state_prev_action_block_zero(self):
        obs = compose_observation(make_state(), CFG.weights)
        assert np.all(obs[33:45] == 0.0)

    def test_gravity_block_constant(self):
        w = TrackerWeights(scale_gravity=2.0)
        obs = compose_observation(make_state(omega_z=0.7), w)
        np.testing.assert_array_equal(obs[3:6], [0.0, 0.0, -2.0])

    def test_angular_velocity_scaling(self):
        w = TrackerWeights(scale_angvel=0.25)
        obs = compose_observation(make_state(omega_z=0.5), w)
        assert obs[2] == 0.125

    def test_group_scales_applied(self):
        w = TrackerWeights(scale_command=3.0, scale_qd=0.5)
        state = make_state(command=np.array([1.0, -1.0, 0.5]), qd=np.ones(12))
        obs = compose_observation(state, w)
        np.testing.assert_array_equal(obs[6:9], [3.0, -3.0, 1.5])
        assert np.all(obs[21:33] == 0.5)


class TestDynamics:
    def test_zero_action_zero_state_is_fixed_point(self):
        state = make_state()
        nxt = tracker_dynamics_step(state, np.zeros(ACT_DIM), CFG.sim_dt, CFG)
        assert np.all(nxt.q == 0.0) and np.all(nxt.v_xy == 0.0)
        assert nxt.height == CFG.h0

    def test_joint_filter_converges_to_scaled_target(self):
        state = make_state()
        action = np.full(ACT_DIM, 0.8)
        target = CFG.action_scale * 0.8 + CFG.q_default
        ticks = int(5 * CFG.tau / CFG.sim_dt)
        for _ in range(ticks):
            state = tracker_dynamics_step(state, action, CFG.sim_dt, CFG)
        np.testing.assert_allclose(state.q, target, rtol=0.05)

    def test_zero_mixing_matrix_keeps_base_still(self, monkeypatch):
        import rollout_grid.tracker as tr

        monkeypatch.setattr(tr, "mixing_matrix", lambda: np.zeros((5, 12)))
        state = make_state()
        for _ in range(50):
            state = tracker_dynamics_step(state, np.ones(ACT_DIM), CFG.sim_dt, CFG)
        assert np.all(state.v_xy == 0.0) and state.omega_z == 0.0 and state.v_z == 0.0
        assert np.any(state.q != 0.0)

    def test_height_integrates_vertical_velocity(self):
        state = make_state(v_z=0.2)
        nxt = tracker_dynamics_step(state, np.zeros(ACT_DIM), 0.01, CFG)
        assert nxt.height > CFG.h0


class TestReward:
    def test_perfect_tracking_yields_w_track(self):
        state = make_state()
        r = tracker_reward(state, np.zeros(ACT_DIM), np.zeros(ACT_DIM), CFG.weights, CFG)
        assert r == CFG.weights.w_track

    def test_large_error_kills_tracking_term(self):
        state = make_state(v_xy=np.array([50.0, 0.0]))
        r = tracker_reward(state, np.zeros(ACT_DIM), np.zeros(ACT_DIM), CFG.weights, CFG)
        assert r < 1e-6

    def test_unit_error_value(self):
        w = TrackerWeights(w_track=1.0, sigma_track=0.25, w_yaw=0.0, w_vz=0.0,
                           w_height=0.0, w_rate=0.0, w_joint=0.0)
        state = make_state(v_xy=np.array([1.0, 0.0]))
        r = tracker_reward(state, np.zeros(ACT_DIM), np.zeros(ACT_DIM), w, CFG)
        assert math.isclose(r, math.exp(-4.0))
        assert abs(r - 0.018315638888734) < 1e-12

    def test_upper_bound_is_w_track(self, rng):
        for _ in range(200):
            state = make_state(
                v_xy=rng.normal(size=2), omega_z=rng.normal(), v_z=rng.normal(),
                height=CFG.h0 + rng.normal(), q=rng.normal(size=12), qd=rng.normal(size=12),
                command=rng.normal(size=3),
            )
            a, pa = rng.normal(size=ACT_DIM), rng.normal(size=ACT_DIM)
            assert tracker_reward(state, a, pa, CFG.weights, CFG) <= CFG.weights.w_track

    def test_penalties_reduce_reward(self):
        state = make_state(omega_z=1.0, v_z=0.5)
        r = tracker_reward(state, np.ones(ACT_DIM), np.zeros(ACT_DIM), CFG.weights, CFG)
        assert r < CFG.weights.w_track


class TestStatus:
    def test_nominal_mid_episode(self):
        assert not tracker_status(make_state(), CFG)

    def test_time_limit_truncates(self):
        # The horizon is the episode's rule: the tracker's status never truncates.
        ep = Episode(TrackerScenario(TrackerEnvConfig(horizon=5)))
        ep.reset(0)
        results = [ep.step(np.zeros(ACT_DIM)) for _ in range(5)]
        assert [r.done for r in results[:4]] == [False] * 4
        assert results[4].truncated and not results[4].terminated

    def test_height_excursion_terminates(self):
        state = make_state(height=CFG.h0 + 2 * CFG.h_limit)
        assert tracker_status(state, CFG)

    def test_overspeed_terminates(self):
        state = make_state(v_xy=np.array([CFG.v_limit + 1.0, 0.0]))
        assert tracker_status(state, CFG)

    def test_nonfinite_state_terminates(self):
        state = make_state(v_xy=np.array([np.nan, 0.0]))
        assert tracker_status(state, CFG)


class TestCommands:
    def test_zero_bounds_give_zero_command(self, rng):
        cfg = TrackerEnvConfig(cmd_vx=(0.0, 0.0), cmd_vy=(0.0, 0.0), cmd_yaw=(0.0, 0.0))
        np.testing.assert_array_equal(sample_command(rng, cfg), np.zeros(3))

    def test_uniform_symmetry(self, rng):
        cfg = TrackerEnvConfig(cmd_vx=(-1.0, 1.0))
        draws = np.array([sample_command(rng, cfg)[0] for _ in range(100_000)])
        assert abs(draws.mean()) < 0.01

    def test_same_seed_same_command(self):
        sc = TrackerScenario()
        ep = Episode(sc)
        ep.reset(77)
        first = sc.state.command.copy()
        ep.reset(77)
        np.testing.assert_array_equal(sc.state.command, first)


class TestScenario:
    def test_zero_action_zero_command_reward_is_w_track(self):
        sc = TrackerScenario()
        ep = Episode(sc)
        ep.reset(0, {"command": [0.0, 0.0, 0.0]})
        res = ep.step(np.zeros(ACT_DIM))
        assert math.isclose(res.reward, sc.config.weights.w_track)

    def test_info_supports_episode_mse(self):
        sc = TrackerScenario()
        ep = Episode(sc)
        ep.reset(3, {"command": [0.5, -0.25, 0.0]})
        res = None
        for _ in range(10):
            res = ep.step(np.zeros(ACT_DIM))
        assert res.info["err_steps"] == 10
        assert math.isclose(res.info["err2_x_sum"] / 10, 0.25, rel_tol=1e-6)
        assert res.info["cmd_x"] == 0.5 and res.info["cmd_y"] == -0.25

    def test_interface_shapes(self):
        scenario = TrackerScenario()
        assert scenario.obs_dim == 45 and scenario.act_dim == 12

    def test_determinism_bitwise(self):
        actions = np.random.default_rng(0).uniform(-1, 1, size=(20, ACT_DIM))
        outs = []
        for _ in range(2):
            ep = Episode(TrackerScenario())
            obs = [ep.reset(123)]
            rewards = []
            for a in actions:
                r = ep.step(a)
                obs.append(r.observation)
                rewards.append(r.reward)
            outs.append((np.stack(obs), np.array(rewards)))
        # bitwise identical across runs of the same build
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerEnvConfig(tau=0.001)
        with pytest.raises(ValueError):
            TrackerEnvConfig(weights=TrackerWeights(sigma_track=0.0))


def tracker_stream_digest(config, root_seed, action_seed, n_steps):
    """SHA-256 over an auto-reset stream of Philox-drawn actions, and the episode ends seen.

    Hashes every observation's bytes, ``reward.hex()``, the two flags and the
    canonical info JSON, plus each reset observation, with the episode seed
    schedule the worker uses.
    """
    digest = hashlib.sha256()
    actions = make_rng(action_seed)
    episode = Episode(TrackerScenario(config))
    episodes = terminations = truncations = 0
    digest.update(episode.reset(episode_seed(root_seed, 0)).tobytes())
    for _ in range(n_steps):
        res = episode.step(actions.uniform(-1.0, 1.0, size=ACT_DIM))
        digest.update(res.observation.tobytes())
        digest.update(res.reward.hex().encode())
        digest.update(bytes([res.terminated, res.truncated]))
        digest.update(dumps_canonical(res.info))
        if res.done:
            terminations += res.terminated
            truncations += res.truncated
            episodes += 1
            digest.update(episode.reset(episode_seed(root_seed, episodes)).tobytes())
    return digest.hexdigest(), terminations, truncations


class TestGoldenStream:
    # Digests recorded with the tracker as it stood before its step path was
    # rewritten for speed (dataclasses.replace per tick, numpy scalar math).
    # A faster step must reproduce every bit: any change in the order or kind
    # of a float operation shows up here even when the code only compares
    # with itself elsewhere. Like every bitwise promise of the package, the
    # digests hold for a fixed numpy and BLAS build.
    @pytest.mark.parametrize(
        "config, root_seed, action_seed, n_steps, ends, expected",
        [
            # default tracker: two horizon truncations with auto-reset
            (TrackerEnvConfig(), 2024, 7, 1200, (0, 2),
             "cafa16059b3c4bbeb5421e74186cb7c2a3833d865fce4ad8dca2b636e055bb39"),
            # tight speed limit: terminations on loss of control
            (TrackerEnvConfig(v_limit=0.5), 2025, 8, 600, (13, 0),
             "ecdf0243675968c4eb5e94ae46ab40b790625b1f7c5eb12de63c428fc919ac79"),
            # non-zero default offset, two ticks per decision step, short horizon
            (TrackerEnvConfig(q_default=0.05, steps_per_action=2, sim_dt=0.01, horizon=100),
             99, 9, 300, (0, 3),
             "f5f8a7101d55880019fa5072d91d2057f5a0f14d9e50db80191ced60a7b4eb6a"),
            # non-default weights, negative observation scales among them
            (TrackerEnvConfig(
                weights=TrackerWeights(sigma_track=0.5, scale_prev_action=0.25, scale_q=0.5,
                                       scale_angvel=-0.3, scale_gravity=2.0,
                                       scale_command=-1.0, w_height=0.8),
                horizon=150, v_limit=0.7), 31, 4, 700, (1, 4),
             "6d9190701bd92066e3603f9dba20bc9842088e3cea865d5fdb38b2c1d1a5df08"),
        ],
    )
    def test_stream_matches_golden_digest(self, config, root_seed, action_seed, n_steps, ends,
                                          expected):
        digest, terminations, truncations = tracker_stream_digest(
            config, root_seed, action_seed, n_steps)
        assert (terminations, truncations) == ends
        assert digest == expected


def test_each_tick_goes_through_module_level_dynamics_step(monkeypatch):
    # Episode.step runs advance_one steps_per_action times per decision step,
    # and the tracker routes each tick, with its own sim_dt, through the module
    # attribute, so a patched tracker_dynamics_step sees every tick.
    config = TrackerEnvConfig(steps_per_action=3)
    dynamics_calls = []
    advance_calls = []

    def counting_dynamics(*args):
        dynamics_calls.append(args[2])
        return tracker_dynamics_step(*args)

    class CountingScenario(TrackerScenario):
        def advance_one(self):
            advance_calls.append(None)
            super().advance_one()

    monkeypatch.setattr(tracker_module, "tracker_dynamics_step", counting_dynamics)
    episode = Episode(CountingScenario(config))
    episode.reset(5)
    for n in range(1, 8):
        episode.step(np.full(ACT_DIM, 0.1 * n))
        assert len(advance_calls) == len(dynamics_calls) == 3 * n
    assert set(dynamics_calls) == {config.sim_dt}

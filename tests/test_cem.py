import numpy as np
import pytest

from rollout_grid.cem import (
    CemConfig,
    CemState,
    LinearPolicy,
    cem_iterate,
    n_params,
    policy_act,
    run_cem,
    unflatten_policy,
)
from rollout_grid.config import config_to_dict
from rollout_grid.errors import ActionShapeError
from rollout_grid.pool import spawn_workers
from rollout_grid.tracker import TrackerEnvConfig


class TestPolicy:
    def test_zero_policy_zero_action(self):
        policy = LinearPolicy(np.zeros((12, 45)), np.zeros(12))
        assert np.all(policy_act(policy, np.ones(45)) == 0.0)

    def test_outputs_bounded(self, rng):
        policy = LinearPolicy(rng.normal(size=(12, 45)), rng.normal(size=12))
        for _ in range(100):
            action = policy_act(policy, rng.normal(size=45) * 10)
            assert np.all(np.abs(action) <= 1.0)

    def test_saturation_at_large_bias(self):
        policy = LinearPolicy(np.zeros((3, 5)), np.full(3, 1e3))
        np.testing.assert_allclose(policy_act(policy, np.zeros(5)), 1.0)

    def test_shape_mismatch(self):
        policy = LinearPolicy(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ActionShapeError):
            policy_act(policy, np.zeros(6))

    def test_unflatten_round_trip(self, rng):
        theta = rng.normal(size=n_params(7, 3))
        policy = unflatten_policy(theta, 7, 3)
        assert policy.weights.shape == (3, 7) and policy.bias.shape == (3,)
        np.testing.assert_array_equal(
            np.concatenate([policy.weights.ravel(), policy.bias]), theta
        )


class TestIterate:
    def test_elite_mean_becomes_new_mean(self):
        state = CemState(mean=np.zeros(2), stddev=np.ones(2))
        pop = [(np.array([1.0, 1.0]), 10.0), (np.array([3.0, 3.0]), 9.0),
               (np.array([-5.0, 0.0]), -1.0), (np.array([9.0, 9.0]), -2.0)]
        new = cem_iterate(state, pop, elite_frac=0.5)
        np.testing.assert_allclose(new.mean, [2.0, 2.0])
        assert new.iteration == 1

    def test_elite_frac_one_gives_population_mean(self):
        state = CemState(mean=np.zeros(1), stddev=np.ones(1))
        pop = [(np.array([v]), 5.0) for v in (1.0, 2.0, 3.0, 4.0)]
        new = cem_iterate(state, pop, elite_frac=1.0)
        np.testing.assert_allclose(new.mean, [2.5])

    def test_ties_keep_draw_order(self):
        state = CemState(mean=np.zeros(1), stddev=np.ones(1))
        pop = [(np.array([v]), 7.0) for v in (10.0, 20.0, 30.0, 40.0)]
        new = cem_iterate(state, pop, elite_frac=0.5)
        np.testing.assert_allclose(new.mean, [15.0])

    def test_stddev_floor(self):
        state = CemState(mean=np.zeros(2), stddev=np.full(2, 0.02))
        pop = [(np.zeros(2), 1.0), (np.zeros(2), 0.5)]
        new = cem_iterate(state, pop, elite_frac=0.5, smoothing=0.0, sigma_min=0.01)
        assert np.all(new.stddev >= 0.01)

    def test_stddev_blend(self):
        state = CemState(mean=np.zeros(1), stddev=np.array([1.0]))
        pop = [(np.array([0.0]), 2.0), (np.array([0.0]), 1.0)]
        new = cem_iterate(state, pop, elite_frac=0.5, smoothing=0.7, sigma_min=0.01)
        np.testing.assert_allclose(new.stddev, [0.7])

    def test_quadratic_toy_convergence(self, rng):
        # independent oracle: CEM on -||theta - theta*||^2 must find theta*
        target = np.array([0.7, -0.3, 0.2, 0.9, -0.8])
        state = CemState(mean=np.zeros(5), stddev=np.full(5, 0.5))
        for _ in range(50):
            pop = state.mean + state.stddev * rng.standard_normal((32, 5))
            scored = [(theta, -float(np.sum((theta - target) ** 2))) for theta in pop]
            state = cem_iterate(state, scored, elite_frac=0.25)
            if np.max(np.abs(state.mean - target)) < 0.05:
                break
        assert np.max(np.abs(state.mean - target)) < 0.05

    def test_validates_inputs(self):
        state = CemState(mean=np.zeros(1), stddev=np.ones(1))
        with pytest.raises(ValueError):
            cem_iterate(state, [(np.zeros(1), 1.0)], elite_frac=0.5)
        with pytest.raises(ValueError):
            cem_iterate(state, [(np.zeros(1), 1.0), (np.zeros(1), 2.0)], elite_frac=0.0)


FAST_ENV = config_to_dict(TrackerEnvConfig(horizon=20))
FAST_CEM = CemConfig(iterations=3, population=6, episodes_per_candidate=2)


class TestRunCem:
    def test_zero_iterations_returns_initial_policy_and_empty_curve(self):
        with spawn_workers("tracker", 2, "in-process", env_config=FAST_ENV) as pool:
            policy, curve = run_cem(pool, FAST_CEM, iterations=0, seed=0)
        assert curve == []
        assert np.all(policy.weights == 0.0) and np.all(policy.bias == 0.0)

    def test_curve_metrics_independent_of_worker_count(self):
        curves = {}
        for w in (1, 3):
            with spawn_workers("tracker", w, "in-process", env_config=FAST_ENV) as pool:
                _, curve = run_cem(pool, FAST_CEM, seed=11)
            curves[w] = curve
        for a, b in zip(curves[1], curves[3]):
            assert a.mean_return == b.mean_return
            assert a.mse_x == b.mse_x and a.mse_y == b.mse_y

    def test_seeded_repeat_is_identical(self):
        runs = []
        for _ in range(2):
            with spawn_workers("tracker", 2, "in-process", env_config=FAST_ENV) as pool:
                _, curve = run_cem(pool, FAST_CEM, seed=5)
            runs.append([(p.mean_return, p.mse_x, p.mse_y) for p in curve])
        assert runs[0] == runs[1]

    def test_first_point_reports_untrained_policy(self):
        cfg = CemConfig(iterations=1, population=4, probe_command=(0.5, -0.45, 0.0))
        with spawn_workers("tracker", 2, "in-process", env_config=FAST_ENV) as pool:
            _, curve = run_cem(pool, cfg, seed=2)
        # zero policy stands still: MSE equals the squared probe command
        assert curve[0].mse_x == pytest.approx(0.25, rel=1e-6)
        assert curve[0].mse_y == pytest.approx(0.2025, rel=1e-6)

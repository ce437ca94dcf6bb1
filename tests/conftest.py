import csv
import json

import numpy as np
import pytest

from rollout_grid.core import Episode, episode_seed
from rollout_grid.registry import make_scenario
from rollout_grid.wire import dumps_canonical


def canonical_info(info: dict) -> dict:
    """Push an info map through the wire's JSON canonicalization."""
    return json.loads(dumps_canonical(info))


def serial_reference(env, env_config, root_seed, actions, n_s=1):
    """Reference trajectory using only scenario-core calls.

    Reimplements the worker's documented substep/auto-reset convention so
    pool trajectories can be checked against plain serial stepping: each
    batched step re-applies the same action for up to n_s substeps, sums
    rewards, and on episode end stashes the final observation in the info
    map, reseeds with the next seed of the episode schedule, and returns
    the fresh initial observation.
    """
    episode = Episode(make_scenario(env, env_config))
    episode_index = 0
    obs = episode.reset(episode_seed(root_seed, 0), {})
    out = [obs]
    results = []
    for step_no, action in enumerate(actions, start=1):
        total = 0.0
        result = None
        for _ in range(n_s):
            result = episode.step(action)
            total += result.reward
            if result.done:
                break
        info = dict(result.info)
        info["worker_step"] = step_no
        obs = result.observation
        if result.done:
            info["final_observation"] = result.observation.tolist()
            info["episode"] = episode_index
            episode_index += 1
            obs = episode.reset(episode_seed(root_seed, episode_index), {})
        results.append((obs, total, result.terminated, result.truncated, canonical_info(info)))
    return out[0], results


def read_curve_csv(path):
    """Parse a curve CSV (header row, then numbers) back into float tuples."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [tuple(float(v) for v in row) for row in reader]


def assert_step_results_equal(pool_result, ref_result):
    obs, reward, terminated, truncated, info = ref_result
    assert np.array_equal(pool_result.observation, obs)
    assert pool_result.reward == reward
    assert pool_result.terminated == terminated
    assert pool_result.truncated == truncated
    assert canonical_info(pool_result.info) == info


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

import time

import numpy as np
import pytest

from rollout_grid import wire
from rollout_grid.core import Episode, episode_seed
from rollout_grid.errors import (
    ActionShapeError,
    BarrierTimeout,
    BatchError,
    RolloutError,
    SpawnError,
    WorkerError,
)
from rollout_grid.pool import spawn_workers
from rollout_grid.registry import make_scenario

from conftest import assert_step_results_equal, serial_reference

TRANSPORTS = ["in-process", "socket"]


def actions_for(rng, n, act_dim):
    return rng.uniform(-1.0, 1.0, size=(n, act_dim))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_single_worker_pool_matches_serial_env(transport, rng):
    acts = actions_for(rng, 30, 12)
    with spawn_workers("tracker", 1, transport) as pool:
        pool_obs = pool.reset_all([42])[0]
        pool_results = [pool.step_all(acts[i : i + 1]).results[0] for i in range(len(acts))]
    ref_obs, ref_results = serial_reference("tracker", None, 42, acts)
    assert np.array_equal(pool_obs, ref_obs)
    for got, want in zip(pool_results, ref_results):
        assert_step_results_equal(got, want)


@pytest.mark.parametrize("n_s", [2, 4])
def test_substep_reward_is_sum_of_serial_substeps(n_s, rng):
    acts = actions_for(rng, 12, 12)
    with spawn_workers("tracker", 1, "in-process", n_s=n_s) as pool:
        pool.reset_all([7])
        got = [pool.step_all(acts[i : i + 1]).results[0] for i in range(len(acts))]
    _, ref = serial_reference("tracker", None, 7, acts, n_s=n_s)
    for g, w in zip(got, ref):
        assert_step_results_equal(g, w)


def test_doubling_n_s_halves_round_trips_for_same_sim_time():
    # err_steps counts decision substeps: same simulated time, half the barriers
    counts = {}
    for n_s in (1, 2):
        with spawn_workers("tracker", 1, "in-process", n_s=n_s) as pool:
            pool.reset_all([3])
            calls = 20 // n_s
            last = None
            for _ in range(calls):
                last = pool.step_all(np.zeros((1, 12))).results[0]
            counts[n_s] = (calls, last.info["err_steps"])
    assert counts[1][1] == counts[2][1] == 20
    assert counts[2][0] == counts[1][0] // 2


def test_auto_reset_emits_final_observation():
    env_config = {"horizon": 3}
    with spawn_workers("tracker", 1, "in-process", env_config=env_config) as pool:
        first = pool.reset_all([5])[0]
        last = None
        for i in range(3):
            last = pool.step_all(np.zeros((1, 12))).results[0]
        assert last.truncated
        assert "final_observation" in last.info
        assert last.info["episode"] == 0
        # returned observation is the fresh initial observation of episode 1
        episode = Episode(make_scenario("tracker", env_config))
        expected = episode.reset(episode_seed(5, 1), {})
        assert np.array_equal(last.observation, expected)
        assert not np.array_equal(last.observation, np.asarray(last.info["final_observation"]))
        assert np.array_equal(first, episode.reset(episode_seed(5, 0), {}))


def test_identical_seeds_give_identical_observations():
    with spawn_workers("tracker", 4, "in-process") as pool:
        obs = pool.reset_all([9, 9, 9, 9])
        for other in obs[1:]:
            assert np.array_equal(obs[0], other)


def test_worker_count_independence():
    """Worker i's trajectory depends only on its own seed and action stream."""
    streams = {}
    for w in (1, 2, 8):
        with spawn_workers("tracker", w, "in-process") as pool:
            pool.reset_all([100 + i for i in range(w)])
            per_worker = [[] for _ in range(w)]
            for t in range(10):
                acts = np.stack(
                    [np.sin(np.arange(12) * (i + 1) + t) for i in range(w)]
                )
                for i, res in enumerate(pool.step_all(acts).results):
                    per_worker[i].append((res.observation, res.reward))
            streams[w] = per_worker
    for w in (2, 8):
        for i in range(min(w, 2)):
            for (obs_a, rew_a), (obs_b, rew_b) in zip(streams[1][0] if i == 0 else streams[2][i],
                                                      streams[w][i]):
                assert np.array_equal(obs_a, obs_b)
                assert rew_a == rew_b


def test_action_shape_checked_before_send():
    with spawn_workers("tracker", 2, "in-process") as pool:
        pool.reset_all([0, 1])
        with pytest.raises(ActionShapeError):
            pool.step_all(np.zeros((2, 11)))
        with pytest.raises(ActionShapeError):
            pool.step_all(np.zeros((3, 12)))
        # pool still healthy afterwards
        assert len(pool.step_all(np.zeros((2, 12))).results) == 2


def test_unknown_env_fails_before_spawn():
    with pytest.raises(SpawnError):
        spawn_workers("quadruped", 2, "in-process")


def test_bad_env_config_fails_before_spawn():
    with pytest.raises(Exception):
        spawn_workers("tracker", 1, "in-process", env_config={"horizons": 5})


def test_batch_error_preserves_other_results():
    with spawn_workers("lander", 3, "in-process") as pool:
        good = {"design": {"f_y": 2000.0, "beta": 0.1, "alpha2": 0.5}}
        bad = {"design": {"f_y": -1.0, "beta": 0.1, "alpha2": 0.5}}
        with pytest.raises(BatchError) as excinfo:
            pool.reset_all([1, 2, 3], [good, bad, good])
        err = excinfo.value
        assert err.failed_indices == [1]
        assert isinstance(err.outcomes[1], WorkerError)
        assert isinstance(err.outcomes[0], np.ndarray)
        assert isinstance(err.outcomes[2], np.ndarray)


def test_step_some_collects_errors_without_raising():
    with spawn_workers("lander", 2, "in-process") as pool:
        pool.reset_all([1, 2], {"design": {"f_y": 2000.0, "beta": 0.1, "alpha2": 0.5}})
        results = pool.step_some([0, 1], np.zeros((2, 3)), raise_on_error=False)
        assert all(not isinstance(r, BaseException) for r in results)


def test_step_index_monotone_and_logical_clocks_agree():
    with spawn_workers("tracker", 3, "in-process") as pool:
        pool.reset_all([0, 1, 2])
        last = 0
        for _ in range(5):
            batch = pool.step_all(np.zeros((3, 12)))
            assert batch.step_index == last + 1
            last = batch.step_index
            clocks = {r.info["worker_step"] for r in batch.results}
            assert clocks == {batch.step_index}


def test_in_process_barrier_latency_spans_all_workers():
    # The in-process pool runs its workers one after another, so the barrier
    # lasts at least the two 20 ms pads, as it would from send to last reply
    # on the socket path; the slowest single handler took only one pad.
    with spawn_workers("tracker", 2, "in-process", pad_ms=20.0, pad_mode="sleep") as pool:
        pool.reset_all([0, 1])
        batch = pool.step_all(np.zeros((2, 12)))
    assert batch.barrier_latency >= 0.035


def test_close_is_idempotent_and_blocks_further_use():
    pool = spawn_workers("tracker", 2, "in-process")
    pool.reset_all([0, 1])
    pool.close()
    pool.close()
    with pytest.raises(RolloutError):
        pool.step_all(np.zeros((2, 12)))


def test_payload_minimality_after_init():
    with spawn_workers("tracker", 1, "in-process", record_frames=True) as pool:
        pool.reset_all([3])
        for _ in range(4):
            pool.step_all(np.zeros((1, 12)))
        log = pool.frame_log
    request_tags = [wire.decode_frame(f)[0] for kind, _, f in log if kind == "send"]
    assert request_tags[0] == wire.TAG_INIT
    assert all(t in (wire.TAG_RESET, wire.TAG_STEP, wire.TAG_CLOSE) for t in request_tags[1:])
    step_frames = [f for kind, _, f in log if kind == "send"
                   and wire.decode_frame(f)[0] == wire.TAG_STEP]
    # action payload only: u32 count + 12 doubles, plus tag byte and length
    assert all(len(f) == 4 + 1 + 4 + 12 * 8 for f in step_frames)


def test_transports_exchange_identical_frames(rng):
    acts = actions_for(rng, 6, 12)
    logs = {}
    for transport in TRANSPORTS:
        with spawn_workers("tracker", 2, transport, record_frames=True) as pool:
            pool.reset_all([11, 12])
            for i in range(len(acts)):
                pool.step_all(np.tile(acts[i], (2, 1)))
            logs[transport] = pool.frame_log
    def ordered(log):
        # in-process interleaves per worker; socket replies race. Compare the
        # per-worker frame sequences, which the barrier semantics fix.
        seq = {}
        for kind, idx, frame in log:
            tag, payload = wire.decode_frame(frame)
            if tag == wire.TAG_READY:
                continue  # carries the worker pid
            seq.setdefault((kind, idx), []).append((tag, payload))
        return seq
    assert ordered(logs["in-process"]) == ordered(logs["socket"])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_lander_pool_evaluates_designs(transport):
    with spawn_workers("lander", 2, transport) as pool:
        designs = [{"design": {"f_y": 1000.0, "beta": 0.0, "alpha2": 0.0}},
                   {"design": {"f_y": 5000.0, "beta": 0.2, "alpha2": 0.6}}]
        pool.reset_all([0, 0], designs)
        batch = pool.step_all(np.zeros((2, 3)))
        assert all(r.terminated for r in batch.results)
        assert batch.results[0].reward != batch.results[1].reward


def test_socket_close_terminates_workers_quickly():
    pool = spawn_workers("tracker", 2, "socket")
    procs = [chan.proc for chan in pool._channels]
    t0 = time.perf_counter()
    pool.close()
    assert time.perf_counter() - t0 < 5.0
    assert all(p.poll() is not None for p in procs)


def test_barrier_timeout_identifies_laggards_and_close_recovers():
    pool = spawn_workers("tracker", 2, "socket", step_delay_max_ms=2000.0,
                         step_timeout_s=0.5)
    try:
        pool.reset_all([0, 1])
        with pytest.raises(BarrierTimeout) as excinfo:
            pool.step_all(np.zeros((2, 12)))
        assert excinfo.value.laggards
        with pytest.raises(RolloutError):
            pool.step_all(np.zeros((2, 12)))
    finally:
        pool.close()
    assert all(chan.proc.poll() is not None for chan in pool._channels)


def test_timeout_env_var_override(monkeypatch):
    monkeypatch.setenv("ROLLOUT_GRID_TIMEOUT_SECS", "123.5")
    with spawn_workers("tracker", 1, "in-process") as pool:
        assert pool.step_timeout_s == 123.5


def test_restart_on_failure_reseeds_dead_worker():
    pool = spawn_workers("tracker", 2, "socket", restart_on_failure=True)
    try:
        pool.reset_all([5, 6])
        pool.step_all(np.zeros((2, 12)))
        pool._channels[1].proc.kill()
        pool._channels[1].proc.wait()
        batch = pool.step_all(np.zeros((2, 12)))
        restarted = batch.results[1]
        assert restarted.info.get("restarted") is True
        assert restarted.terminated
        # replacement worker serves subsequent steps
        after = pool.step_all(np.zeros((2, 12)))
        assert not isinstance(after.results[1], BaseException)
    finally:
        pool.close()


def test_dead_worker_without_restart_is_batch_error():
    pool = spawn_workers("tracker", 2, "socket")
    try:
        pool.reset_all([5, 6])
        pool._channels[1].proc.kill()
        pool._channels[1].proc.wait()
        with pytest.raises(BatchError) as excinfo:
            pool.step_all(np.zeros((2, 12)))
        assert excinfo.value.failed_indices == [1]
    finally:
        pool.close()

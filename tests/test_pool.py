import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from rollout_grid import pool as pool_module
from rollout_grid import wire
from rollout_grid.core import Episode, episode_seed
from rollout_grid.errors import (
    ActionShapeError,
    BarrierTimeout,
    BatchError,
    ProtocolError,
    RolloutError,
    SpawnError,
    SpawnTimeout,
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


def test_killed_socket_worker_fails_its_slot_promptly():
    # EOF reaches the driver only if it holds no copy of the worker's socket end.
    pool = spawn_workers("tracker", 2, "socket", pad_ms=500.0, step_timeout_s=30)
    try:
        pool.reset_all([5, 6])
        killer = threading.Timer(0.1, pool._channels[0].proc.kill)
        killer.start()
        t0 = time.perf_counter()
        with pytest.raises(BatchError) as excinfo:
            pool.step_all(np.zeros((2, 12)))
        elapsed = time.perf_counter() - t0
        killer.join()
        assert excinfo.value.failed_indices == [0]
        assert "worker 0 died" in str(excinfo.value.outcomes[0])
        assert elapsed < 2.0
    finally:
        pool.close()


# Serves INIT and RESET like a real worker, then sends every STEP reply with a
# length prefix of about 4 GiB.
CORRUPTING_WORKER = """
import socket, sys
from rollout_grid import wire
from rollout_grid.worker import WorkerRuntime
runtime, reader = WorkerRuntime(), wire.FrameReader()
with socket.socket(fileno=int(sys.argv[1])) as sock:
    while data := sock.recv(65536):
        reader.feed(data)
        while (frame := reader.next_frame()) is not None:
            reply = runtime.handle_frame(*frame)
            if reply is None:
                sys.exit(0)
            if frame[0] == wire.TAG_STEP:
                reply = b"\\xf0\\xff\\xff\\xff" + reply[4:]
            sock.sendall(reply)
"""


def test_corrupt_length_prefix_fails_the_slot_at_once(monkeypatch):
    monkeypatch.setattr(pool_module, "_spawn_command",
                        lambda fd: [sys.executable, "-c", CORRUPTING_WORKER, str(fd)])
    pool = spawn_workers("tracker", 1, "socket", step_timeout_s=5)
    try:
        pool.reset_all([5])
        t0 = time.perf_counter()
        with pytest.raises(BatchError) as excinfo:
            pool.step_all(np.zeros((1, 12)))
        assert time.perf_counter() - t0 < 2.0
        (err,) = excinfo.value.outcomes
        assert isinstance(err, ProtocolError)
        assert "worker 0" in str(err) and "exceeds" in str(err)
    finally:
        pool.close()


# Corrupts the length prefix of its first STEP reply only, unless the marker
# file exists; it creates the marker, so a replacement worker serves cleanly.
ONCE_CORRUPTING_WORKER = """
import os, socket, sys
from rollout_grid import wire
from rollout_grid.worker import WorkerRuntime
fd, marker = int(sys.argv[1]), sys.argv[2]
runtime, reader = WorkerRuntime(), wire.FrameReader()
with socket.socket(fileno=fd) as sock:
    while data := sock.recv(65536):
        reader.feed(data)
        while (frame := reader.next_frame()) is not None:
            reply = runtime.handle_frame(*frame)
            if reply is None:
                sys.exit(0)
            if frame[0] == wire.TAG_STEP and not os.path.exists(marker):
                open(marker, "w").close()
                reply = b"\\xf0\\xff\\xff\\xff" + reply[4:]
            sock.sendall(reply)
"""


def test_restart_replaces_worker_whose_stream_went_corrupt(monkeypatch, tmp_path):
    marker = str(tmp_path / "corrupted-once")
    monkeypatch.setattr(pool_module, "_spawn_command",
                        lambda fd: [sys.executable, "-c", ONCE_CORRUPTING_WORKER, str(fd), marker])
    pool = spawn_workers("tracker", 1, "socket", step_timeout_s=5, restart_on_failure=True)
    try:
        pool.reset_all([5])
        (first,) = pool.step_all(np.zeros((1, 12))).results
        assert first.info.get("restarted") is True
        assert "corrupt frame" in first.info["cause"]
        assert first.terminated
        for _ in range(2):
            (res,) = pool.step_all(np.zeros((1, 12))).results
            assert "restarted" not in res.info
            assert not res.terminated
    finally:
        pool.close()


# Serves worker 0 like a real worker. Worker 1 reads its INIT and then misbehaves
# as argv[2] says: "silent" never answers, "stderr" writes to stderr and exits,
# "wrong-tag" answers with a STEPRES frame; "silent" and "wrong-tag" then sleep.
FAULTY_INIT_WORKER = """
import json, socket, sys, time
from rollout_grid import wire
from rollout_grid.worker import WorkerRuntime
fd, mode = int(sys.argv[1]), sys.argv[2]
runtime, reader = WorkerRuntime(), wire.FrameReader()
with socket.socket(fileno=fd) as sock:
    while data := sock.recv(65536):
        reader.feed(data)
        while (frame := reader.next_frame()) is not None:
            if frame[0] == wire.TAG_INIT and json.loads(frame[1])["worker_index"] == 1:
                if mode == "stderr":
                    sys.stderr.write("scenario library missing: libchrono.so\\n")
                    sys.exit(3)
                if mode == "wrong-tag":
                    sock.sendall(wire.encode_frame(wire.TAG_STEPRES, b""))
                time.sleep(60)
            reply = runtime.handle_frame(*frame)
            if reply is None:
                sys.exit(0)
            sock.sendall(reply)
"""


def spawn_with_faulty_init(monkeypatch, mode, **kwargs):
    """spawn_workers over FAULTY_INIT_WORKER; returns (raised error, seconds, processes)."""
    monkeypatch.setattr(pool_module, "_spawn_command",
                        lambda fd: [sys.executable, "-c", FAULTY_INIT_WORKER, str(fd), mode])
    procs = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kw):
        procs.append(real_popen(*args, **kw))
        return procs[-1]

    monkeypatch.setattr(pool_module.subprocess, "Popen", recording_popen)
    t0 = time.perf_counter()
    with pytest.raises(SpawnError) as excinfo:
        spawn_workers("tracker", 2, "socket", **kwargs)
    return excinfo.value, time.perf_counter() - t0, procs


def assert_all_exited(procs):
    deadline = time.perf_counter() + 2.0
    while any(p.poll() is None for p in procs) and time.perf_counter() < deadline:
        time.sleep(0.01)
    assert len(procs) == 2
    assert all(p.poll() is not None for p in procs)


def test_worker_silent_at_init_raises_spawn_timeout(monkeypatch):
    err, elapsed, procs = spawn_with_faulty_init(monkeypatch, "silent", ready_timeout_s=1.0)
    assert isinstance(err, SpawnTimeout)
    assert err.index == 1 and "worker 1" in str(err)
    assert elapsed < 1.0 + 1.0
    assert_all_exited(procs)


def test_worker_dying_at_init_reports_its_stderr(monkeypatch):
    err, _, procs = spawn_with_faulty_init(monkeypatch, "stderr", ready_timeout_s=10.0)
    assert err.index == 1 and "worker 1" in str(err)
    assert "scenario library missing: libchrono.so" in str(err)
    assert_all_exited(procs)


def test_worker_answering_init_with_wrong_tag_raises_spawn_error(monkeypatch):
    err, _, procs = spawn_with_faulty_init(monkeypatch, "wrong-tag", ready_timeout_s=10.0)
    assert err.index == 1
    assert "instead of READY" in str(err)
    assert_all_exited(procs)

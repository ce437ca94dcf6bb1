"""The benchmark's checks pass on real output and fail on corrupted output.

    PYTHONPATH=src python -m pytest layerbench

Each workload runs a small round on an in-process pool; every test then
corrupts one captured value and expects the matching check to fail.
"""

import copy
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import capture  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rollout_grid.cem import CemConfig  # noqa: E402


def capture_round(workload, width=workloads.WIDTH, patches=()):
    with workload.spawn("in-process", width) as pool:
        proxy = capture.PoolProxy(pool)
        proxy.log = []
        with spans.patched(patches):
            summary = workload.run_round(proxy)
    return proxy.log, summary


def results(log):
    return [r for _, _, r in capture.step_results(log)]


# A short horizon ends episodes inside STEP calls, so auto-reset is covered.
SHORT_TRACKER = {"horizon": 20, "weights": {"w_track": workloads.W_TRACK}}


@pytest.fixture(scope="module")
def rollout():
    workload = workloads.RolloutTracker(3, barriers=12, env_config=SHORT_TRACKER)
    log, _ = capture_round(workload)
    return workload, log


@pytest.fixture(scope="module")
def bo():
    workload = workloads.BoLander(5, n_trials=16)
    log, summary = capture_round(workload)
    _, reference = capture_round(workload)
    return log, summary, reference


@pytest.fixture(scope="module")
def cem():
    cfg = CemConfig(population=4, episodes_per_candidate=1, elite_frac=0.5)
    workload = workloads.CemTracker(2, cfg)
    workload.iterations = 2
    log, summary = capture_round(workload)
    _, reference = capture_round(workload, width=1)
    return log, summary, reference


def rollout_failures(workload, log):
    return checks.rollout_streams(log, workload.seeds, workload.actions, workload.env_config,
                                  workload.n_s)


def test_rollout_stream_passes_and_covers_auto_reset(rollout):
    workload, log = rollout
    assert rollout_failures(workload, log) == []
    assert checks.reward_bound(log, workload.n_s * workloads.W_TRACK) == []
    assert any("final_observation" in r.info for r in results(log))


def test_rollout_reward_one_ulp(rollout):
    workload, log = rollout
    bad = copy.deepcopy(log)
    result = results(bad)[5]
    result.reward = math.nextafter(result.reward, math.inf)
    assert rollout_failures(workload, bad)


def test_rollout_barrier_dropped(rollout):
    workload, log = rollout
    bad = copy.deepcopy(log)
    del bad[4]
    assert rollout_failures(workload, bad)


def test_rollout_worker_step(rollout):
    workload, log = rollout
    bad = copy.deepcopy(log)
    results(bad)[7].info["worker_step"] += 1
    assert rollout_failures(workload, bad)


def test_rollout_final_observation(rollout):
    workload, log = rollout
    bad = copy.deepcopy(log)
    ended = next(r for r in results(bad) if "final_observation" in r.info)
    final = ended.info["final_observation"]
    final[9] = math.nextafter(final[9], math.inf)  # a joint offset; entries 0, 1 are always 0
    assert rollout_failures(workload, bad)


def test_reward_bound(rollout):
    workload, log = rollout
    bad = copy.deepcopy(log)
    bound = workload.n_s * workloads.W_TRACK
    results(bad)[2].reward = math.nextafter(bound, math.inf)
    assert checks.reward_bound(bad, bound)


def test_same_streams(rollout):
    _, log = rollout
    assert checks.same_streams(log, copy.deepcopy(log), "copy") == []
    bad = copy.deepcopy(log)
    obs = results(bad)[3].observation
    obs[0] = math.nextafter(obs[0], math.inf)
    assert checks.same_streams(log, bad, "ulp")
    assert checks.same_streams(log, bad[:-1], "dropped")


def test_tick_count_of_traced_replay(rollout):
    workload, log = rollout
    meter = spans.TickMeter()
    replay, _ = capture_round(workload, patches=spans.tick_patches(meter))
    assert checks.same_streams(log, replay, "replay") == []
    steps = capture.tracker_steps_executed(replay)
    assert steps < len(workload.actions) * workloads.WIDTH * workload.n_s  # episodes ended early
    ticks = meter.count["tracker.tick"]
    assert checks.tick_count(ticks, workload.steps_per_action, steps) == []
    assert checks.tick_count(ticks - 1, workload.steps_per_action, steps)


def test_cem_columns(cem):
    log, summary, reference = cem
    assert checks.cem_columns(summary, reference) == []
    assert checks.reward_bound(log, workloads.W_TRACK) == []
    bad = copy.deepcopy(summary)
    mean_return, mse_x, mse_y = bad[1]
    bad[1] = (math.nextafter(mean_return, math.inf), mse_x, mse_y)
    assert checks.cem_columns(bad, reference)
    assert checks.cem_columns(summary[:1], reference)


def test_cem_steps_recorded(cem):
    log, _, _ = cem
    recorded = capture.cem_steps_recorded(log)
    assert 0 < recorded <= capture.slot_steps_sent(log, 1)


def bo_failures(log, summary, reference):
    consts = dict(workloads.LANDER_PARAMS, sim_dt=workloads.LANDER_DT)
    return (checks.lander_evaluations(log, summary["trials"], consts)
            + checks.best_curve(summary["curve"], summary["trials"])
            + checks.trial_logs(summary["trials"], reference["trials"]))


def test_bo_passes(bo):
    log, summary, reference = bo
    assert bo_failures(log, summary, reference) == []
    bottomed = [r.info["bottomed_out"] for r in results(log)]
    assert any(bottomed) and not all(bottomed)


def test_bo_two_objectives_swapped(bo):
    log, summary, reference = bo
    bad = copy.deepcopy(summary)
    trials = bad["trials"]
    (i0, p0, v0, s0), (i1, p1, v1, s1) = trials[3], trials[8]
    trials[3], trials[8] = (i0, p0, v1, s0), (i1, p1, v0, s1)
    assert checks.trial_logs(trials, reference["trials"])
    consts = dict(workloads.LANDER_PARAMS, sim_dt=workloads.LANDER_DT)
    assert checks.lander_evaluations(log, trials, consts)


def test_bo_reward_one_ulp(bo):
    log, summary, reference = bo
    bad = copy.deepcopy(log)
    result = results(bad)[4]
    result.reward = math.nextafter(result.reward, math.inf)
    assert bo_failures(bad, summary, reference)


def landed(log):
    return next(r for r in results(log) if not r.info["bottomed_out"])


@pytest.mark.parametrize("key, scale", [
    ("a_max", 1.0 + 1e-9),  # off the plateau deceleration
    ("stroke_used", 1.0 - 1e-3),  # outside the integrator's error bound
    ("e_abs", 1.0 + 1e-6),  # objective no longer matches a_max and e_abs
    ("f_y", 1.0 + 1e-12),  # evaluated design is not the proposed one
])
def test_bo_info_corrupted(bo, key, scale):
    log, summary, reference = bo
    bad = copy.deepcopy(log)
    info = landed(bad).info
    info[key] *= scale
    assert bo_failures(bad, summary, reference)


def test_bo_energy_bound(bo):
    log, summary, reference = bo
    bad = copy.deepcopy(log)
    info = next(r for r in results(bad) if r.info["bottomed_out"]).info
    m, g, h = (workloads.LANDER_PARAMS[k] for k in ("mass", "gravity", "drop_height"))
    info["e_abs"] = m * g * (h + info["stroke_used"]) * 1.001
    assert bo_failures(bad, summary, reference)


def test_bo_curve(bo):
    _, summary, _ = bo
    curve, trials = summary["curve"], summary["trials"]
    lowered = list(curve)
    lowered[-1] = math.nextafter(lowered[-1], -math.inf)
    assert checks.best_curve(lowered, trials)
    raised = list(curve)
    raised[-1] = raised[0] + 1.0
    assert checks.best_curve(raised, trials)


def test_lander_span_count(bo):
    log, _, _ = bo
    tracer, sizes = spans.Tracer(), []
    workload = workloads.BoLander(5, n_trials=16)
    replay, _ = capture_round(workload, patches=spans.worker_patches(tracer, sizes))
    assert checks.same_streams(log, replay, "replay") == []
    evaluations = capture.evaluations_completed(replay)
    steps = len(tracer.durations_of("core.step"))
    assert checks.span_count(steps, evaluations) == []
    assert checks.span_count(steps + 1, evaluations)
    assert len(sizes) == evaluations


def test_same_rounds_and_bitwise_equal():
    assert checks.same_rounds([[1.0, 2.0], [1.0, 2.0]]) == []
    assert checks.same_rounds([[1.0, 2.0], [1.0, math.nextafter(2.0, 3.0)]])
    assert not checks.bitwise_equal(0.0, -0.0)

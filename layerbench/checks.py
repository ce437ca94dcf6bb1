"""Output checks computed apart from the program.

Each check takes captured outputs and returns a list of failure messages;
an empty list means the check passed. None of them compares against a
stored copy of earlier output: each recomputes what the output must be
from physics, from plain ``Episode`` stepping, or from a second run over
another transport or worker count.
"""

from __future__ import annotations

import math
import struct

from rollout_grid.core import Episode, episode_seed
from rollout_grid.registry import make_scenario

from capture import canonical_json, reset_options, result_key, step_results

_MAX_REPORTED = 5


def _report(failures: list[str], name: str) -> list[str]:
    if len(failures) > _MAX_REPORTED:
        failures = failures[:_MAX_REPORTED] + [f"{name}: {len(failures) - _MAX_REPORTED} more"]
    return failures


def bitwise_equal(a, b) -> bool:
    """Equality that tells -0.0 from 0.0 and compares floats by every bit.

    ``repr`` of a float round-trips exactly, so two nested structures of
    floats, ints, strings and bytes have the same repr only if every value
    is the same.
    """
    return repr(a) == repr(b)


def same_rounds(summaries: list) -> list[str]:
    """Every repeat of a round gave the same outputs as the first."""
    return [f"round {i} differs from round 0" for i, s in enumerate(summaries)
            if not bitwise_equal(s, summaries[0])]


def same_streams(log_a, log_b, label: str) -> list[str]:
    """Two logs of the same inputs carry the same replies, bit for bit."""
    if len(log_a) != len(log_b):
        return [f"{label}: {len(log_a)} pool calls against {len(log_b)}"]
    failures = []
    for n, (a, b) in enumerate(zip(log_a, log_b)):
        if a[0] != b[0] or a[1] != b[1]:
            failures.append(f"{label}: call {n} is {a[0]}{a[1]} against {b[0]}{b[1]}")
        elif a[0] == "reset":
            if [o.tobytes() for o in a[4]] != [o.tobytes() for o in b[4]]:
                failures.append(f"{label}: reset {n} observations differ")
        elif [result_key(r) for r in a[2]] != [result_key(r) for r in b[2]]:
            failures.append(f"{label}: step {n} replies differ")
    return _report(failures, label)


def reward_bound(log, bound: float) -> list[str]:
    """Each STEPRES reward sums at most n_s tracking terms of at most w_track."""
    failures = [f"barrier {b} worker {i}: reward {r.reward!r} > {bound!r}"
                for b, i, r in step_results(log)
                if not isinstance(r, BaseException) and not r.reward <= bound]
    return _report(failures, "reward bound")


def cem_columns(curve, reference) -> list[str]:
    """Learning-curve metric columns equal those of a run with another width/transport."""
    if len(curve) != len(reference):
        return [f"cem curve has {len(curve)} points, reference {len(reference)}"]
    failures = [f"cem iteration {i}: {got!r} != {want!r}"
                for i, (got, want) in enumerate(zip(curve, reference))
                if not bitwise_equal(got, want)]
    return _report(failures, "cem columns")


def rollout_streams(log, seeds, actions, env_config: dict, n_s: int) -> list[str]:
    """Each worker's replies equal plain ``Episode`` stepping of its seed and actions.

    Follows the worker convention: a STEP call repeats its action for up to
    ``n_s`` decision steps and sums their rewards, stopping when the episode
    ends; an ended episode's last observation goes to ``final_observation``
    and the episode restarts from the next seed of its schedule. The
    ``worker_step`` field must equal the barrier number.
    """
    steps = [e for e in log if e[0] == "step"]
    if len(steps) != len(actions):
        return [f"rollout: {len(steps)} barriers logged, {len(actions)} sent"]
    resets = [e for e in log if e[0] == "reset"]
    if len(resets) != 1 or list(resets[0][2]) != list(seeds):
        return ["rollout: expected one reset with the workload's seeds"]
    failures = []
    for w, root in enumerate(seeds):
        episode = Episode(make_scenario("tracker", env_config))
        n_episode = 0
        obs = episode.reset(root, {})
        if obs.tobytes() != resets[0][4][w].tobytes():
            failures.append(f"rollout worker {w}: initial observation differs")
        for barrier, entry in enumerate(steps, start=1):
            total = 0.0
            for _ in range(n_s):
                step = episode.step(actions[barrier - 1][w])
                total += step.reward
                if step.done:
                    break
            info = dict(step.info)
            obs = step.observation
            if step.done:
                info["final_observation"] = step.observation.tolist()
                info["episode"] = n_episode
                n_episode += 1
                obs = episode.reset(episode_seed(root, n_episode), {})
            got = entry[2][w]
            if isinstance(got, BaseException):
                failures.append(f"rollout worker {w} barrier {barrier}: {got!r}")
                break
            got_info = dict(got.info)
            worker_step = got_info.pop("worker_step", None)
            if worker_step != barrier:
                failures.append(f"rollout worker {w} barrier {barrier}: worker_step {worker_step}")
            want = (obs.tobytes(), struct.pack("<d", total), step.terminated, step.truncated,
                    canonical_json(info))
            have = (got.observation.tobytes(), struct.pack("<d", got.reward), got.terminated,
                    got.truncated, canonical_json(got_info))
            if have != want:
                failures.append(f"rollout worker {w} barrier {barrier}: reply differs from serial")
                break
    return _report(failures, "rollout")


def lander_evaluations(log, trials, consts: dict) -> list[str]:
    """Per-evaluation physics and bookkeeping of a lander design study.

    ``trials`` are (index, params, value, state) in history order; the k-th
    evaluation sent belongs to the k-th trial. ``consts`` holds the lander
    parameters the workload configured, plus ``sim_dt``.
    """
    n, m, g, h = consts["n_legs"], consts["mass"], consts["gravity"], consts["drop_height"]
    dt = consts["sim_dt"]
    v0 = math.sqrt(2.0 * g * h)
    evaluations = []
    designs: list[dict] = []
    for entry in log:
        if entry[0] == "reset":
            designs = [o["design"] for o in reset_options(entry)]
        else:
            evaluations.extend(zip(designs, entry[2]))
    if len(evaluations) != len(trials):
        return [f"lander: {len(evaluations)} evaluations for {len(trials)} trials"]
    failures = []
    for k, ((design, res), (_, params, value, _)) in enumerate(zip(evaluations, trials)):
        if isinstance(res, BaseException):
            if value is not None:
                failures.append(f"trial {k}: failed evaluation recorded value {value!r}")
            continue
        info = res.info
        f_y, a2, b = design["f_y"], design["alpha2"], design["beta"]
        if design != params or any(info[key] != design[key] for key in ("f_y", "alpha2", "beta")):
            failures.append(f"trial {k}: evaluated design {info} is not the proposed {params}")
        a_max, stroke = info["a_max"], info["stroke_used"]
        e_abs, e_init = info["e_abs"], info["e_init"]
        if not -res.reward == info["objective"] or not -res.reward == value:
            failures.append(f"trial {k}: -reward {-res.reward!r}, objective {info['objective']!r}, "
                            f"trial value {value!r}")
        objective = a_max / consts["a_ref"] + (consts["alpha_w"] * (e_abs / e_init - 1.0)) ** 2
        if not math.isclose(objective, info["objective"], rel_tol=1e-12):
            failures.append(f"trial {k}: objective {info['objective']!r}, recomputed {objective!r}")
        if not math.isclose(e_init, m * g * h, rel_tol=1e-12):
            failures.append(f"trial {k}: e_init {e_init!r} != m*g*h")
        if not e_abs <= m * g * (h + stroke) * (1.0 + 1e-12):
            failures.append(f"trial {k}: e_abs {e_abs!r} exceeds the work of gravity")
        if info["bottomed_out"]:
            if stroke != consts["stroke_limit"]:
                failures.append(f"trial {k}: bottomed out at stroke {stroke!r}")
            continue
        a = n * f_y * math.cos(a2) * math.cos(b) / m - g
        if not math.isclose(a_max, a, rel_tol=1e-12):
            failures.append(f"trial {k}: a_max {a_max!r}, plateau deceleration {a!r}")
        # Semi-implicit Euler moves v_new*dt per tick, a*dt^2/2 short of the
        # exact arc, over at most ceil(v0/(a*dt)) ticks.
        exact = v0 * v0 / (2.0 * a)
        if not -1e-12 <= exact - stroke <= 0.5 * dt * (v0 + a * dt) + 1e-12:
            failures.append(f"trial {k}: stroke {stroke!r} vs v0^2/2a {exact!r}")
    return _report(failures, "lander")


def best_curve(curve: list[float], trials) -> list[str]:
    """The best-value curve is the running minimum of the completed trial values."""
    running, expected = math.inf, []
    for _, _, value, state in trials:
        if state == "complete":
            running = min(running, value)
            expected.append(running)
    failures = []
    if any(later > earlier for earlier, later in zip(curve, curve[1:])):
        failures.append("best-value curve increases")
    if not bitwise_equal(curve, expected):
        failures.append("best-value curve is not the running minimum of the trial values")
    return failures


def trial_logs(trials, reference) -> list[str]:
    """Index, design, value and state of every trial equal the reference study's."""
    if len(trials) != len(reference):
        return [f"trial log has {len(trials)} trials, reference {len(reference)}"]
    failures = [f"trial {i}: {got!r} != {want!r}" for i, (got, want) in
                enumerate(zip(trials, reference)) if not bitwise_equal(got, want)]
    return _report(failures, "trial log")


def tick_count(ticks: int, steps_per_action: int, decision_steps: int) -> list[str]:
    """Traced physics ticks equal ticks per decision step times the steps counted."""
    if ticks != steps_per_action * decision_steps:
        return [f"traced {ticks} ticks, replies count {decision_steps} decision steps "
                f"of {steps_per_action} ticks"]
    return []


def span_count(spans: int, evaluations: int) -> list[str]:
    """One lander ``Episode.step`` span per completed evaluation."""
    if spans != evaluations:
        return [f"{spans} lander Episode.step spans for {evaluations} evaluations"]
    return []

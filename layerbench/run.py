"""Layered benchmark of rollout_grid over a socket pool of two workers.

    python3 layerbench/run.py --workload cem-tracker --seed 1 --seconds 15 --trace 0

Run from the root of a rollout-grid checkout. The run spawns the pool,
repeats one round of the workload for ``--seconds`` seconds, checks the
outputs, and prints the metrics; the last line of standard output is one
JSON object. ``--trace 1`` adds a traced socket run and two in-process
replays, and prints the per-layer metrics instead of the end-to-end ones.
See README.md next to this file.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("cem-tracker", "bo-lander", "rollout-tracker")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_pids(parent: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            children.append(int(entry))
    return children


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its children (the socket workers)."""
    total_kb = 0
    for pid in [os.getpid()] + _child_pids(os.getpid()):
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def measure(workload, proxy, seconds: float):
    """Repeat whole rounds until ``seconds`` have passed; log only the first.

    Returns (wall seconds per round, outputs per round, log of round 0).
    """
    walls, summaries, log = [], [], []
    proxy.log = log
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        summaries.append(workload.run_round(proxy))
        walls.append(time.perf_counter() - t0)
        proxy.log = None
    return walls, summaries, log


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload, seconds: float, log, walls):
    """Traced socket run plus two in-process replays; returns (metrics, failures)."""
    import capture
    import checks
    import spans

    tracer = spans.Tracer()
    with workload.spawn() as pool, spans.patched(spans.driver_patches(tracer)):
        proxy = capture.PoolProxy(pool, tracer)
        t_walls, _, t_log = measure(workload, proxy, seconds)

    def replay(patches, tracer=None):
        """One round on an in-process pool of the same width; returns its log."""
        with workload.spawn("in-process") as pool:
            proxy = capture.PoolProxy(pool, tracer)
            proxy.log = replay_log = []
            with spans.patched(patches):
                workload.run_round(proxy)
        return replay_log

    # Replay 1: spans above the physics ticks. Replay 2: the ticks alone, whose
    # spans would otherwise swamp the 2000-tick lander step they sit in.
    worker_tracer, stepres_sizes = spans.Tracer(), []
    w_log = replay(spans.worker_patches(worker_tracer, stepres_sizes), worker_tracer)
    meter = spans.TickMeter()
    tick_log = replay(spans.tick_patches(meter))

    failures = (checks.same_streams(log, t_log, "traced socket run")
                + checks.same_streams(t_log, w_log, "in-process replay")
                + checks.same_streams(t_log, tick_log, "in-process tick replay"))

    rounds = len(t_walls)
    step_ns = tracer.durations_of("pool.step")
    core_steps = worker_tracer.durations_of("core.step")
    tracker_ticks, tracker_tick_ns = meter.net_ns("tracker.tick")
    lander_ticks, lander_tick_ns = meter.net_ns("lander.tick_live", "lander.tick_settled")
    live = meter.count.get("lander.tick_live", 0)
    evaluations = capture.evaluations_completed(t_log) if workload.env == "lander" else 0
    if workload.env == "tracker":
        failures += checks.tick_count(tracker_ticks, workload.steps_per_action,
                                      capture.tracker_steps_executed(t_log))
    else:
        failures += checks.span_count(len(core_steps), evaluations)
    handler_p50 = spans.p50_us(worker_tracer.max_child_per_parent("pool.step", "worker.step"))
    iterations = rounds * workload.iterations

    metrics = {
        "pool.step_p50_us": (spans.p50_us(step_ns), "us"),
        "pool.step_p99_us": (spans.p99_us(step_ns), "us"),
        "pool.reset_p50_us": (spans.p50_us(tracer.durations_of("pool.reset")), "us"),
        "pool.step_barriers": (len(step_ns) / rounds, "count"),
        "pool.useful_slot_ratio": (_ratio(workload.steps_recorded(t_log),
                                          capture.slot_steps_sent(t_log, workload.n_s)), "ratio"),
        "pool.overhead_us": (spans.p50_us(step_ns) - handler_p50, "us"),
        "worker.step_self_us": (spans.p50_us(worker_tracer.self_times_of("worker.step")), "us"),
        "wire.encode_stepres_us": (
            spans.p50_us(worker_tracer.durations_of("wire.encode_stepres")), "us"),
        "wire.decode_stepres_us": (
            spans.p50_us(worker_tracer.durations_of("wire.decode_stepres")), "us"),
        "wire.stepres_bytes": (_ratio(sum(stepres_sizes), len(stepres_sizes)), "bytes"),
        "core.episode_step_self_us": (_ratio(sum(core_steps) - tracker_tick_ns - lander_tick_ns,
                                             len(core_steps)) / 1e3, "us"),
        "core.reset_us": (spans.p50_us(worker_tracer.durations_of("core.reset")), "us"),
        "tracker.tick_us": (_ratio(tracker_tick_ns, tracker_ticks) / 1e3, "us"),
        "tracker.ticks": (tracker_ticks, "count"),
        "lander.eval_us": (spans.p50_us(core_steps) if evaluations else 0.0, "us"),
        "lander.tick_us": (_ratio(lander_tick_ns, lander_ticks) / 1e3, "us"),
        "lander.ticks_per_eval": (_ratio(lander_ticks, evaluations), "count"),
        "lander.live_tick_ratio": (_ratio(live, lander_ticks), "ratio"),
        "tpe.ask_p50_us": (spans.p50_us(tracer.durations_of("tpe.ask")), "us"),
        "tpe.ask_s": (sum(tracer.durations_of("tpe.ask")) / rounds / 1e9, "s"),
        "cem.policy_act_us": (spans.p50_us(tracer.durations_of("cem.policy_act")), "us"),
        "cem.update_us": (spans.p50_us(tracer.durations_of("cem.update")), "us"),
        "cem.waves_per_iter": (_ratio(len(tracer.durations_of("pool.reset")), iterations), "count"),
        "driver.other_s": ((sum(t_walls) - tracer.top_level_ns() / 1e9) / rounds, "s"),
        "trace.overhead_s": (statistics.median(t_walls) - statistics.median(walls), "s"),
    }
    return metrics, failures


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "rollout_grid" / "__init__.py").is_file():
        print(f"layerbench: no src/rollout_grid under {ROOT}; run it from a rollout-grid "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep the pool's worker stderr files inside the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")

    import capture
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    with workload.spawn() as pool:
        setup_s = time.perf_counter() - T0
        proxy = capture.PoolProxy(pool)
        walls, summaries, log = measure(workload, proxy, args.seconds)
        rss_mb = peak_rss_mb()
    failures = checks.same_rounds(summaries) + workload.check(log, summaries[0])

    if args.trace:
        metrics, trace_failures = traced(workload, args.seconds, log, walls)
        failures += trace_failures
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({name: v for name, (v, _) in metrics.items()}, indent=1) + "\n")
    else:
        steps = workload.steps_recorded(log)
        metrics = {
            "setup_s": (setup_s, "s"),
            "env_steps_per_s": (statistics.median(steps / w for w in walls), "steps/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"{proxy.attempted} slot-steps attempted, {proxy.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": proxy.attempted,
        "failed": proxy.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures: the ROADMAP baseline table, measured again on this host.

    python3 layerbench/baseline.py [--quick]

Single runs, no repeats: the figures are for orientation, not for gating.
The CEM rows run the full 25-iteration acceptance-9 config four times and
take about a minute; ``--quick`` skips them.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from rollout_grid import wire  # noqa: E402
from rollout_grid.cem import run_cem  # noqa: E402
from rollout_grid.core import Episode  # noqa: E402
from rollout_grid.lander import PriorSet  # noqa: E402
from rollout_grid.pool import spawn_workers  # noqa: E402
from rollout_grid.registry import make_scenario  # noqa: E402
from rollout_grid.tpe import TpeConfig, run_bo, tpe_ask  # noqa: E402
from rollout_grid.tracker import TrackerEnvConfig, initial_state, tracker_dynamics_step  # noqa: E402

import workloads  # noqa: E402


def rate(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return n / (time.perf_counter() - t0)


def pool_rate(transport: str, width: int, steps: int = 200) -> float:
    """env-steps/s of zero-action step_all calls, as ``bench throughput`` counts them."""
    with spawn_workers("tracker", width, transport) as pool:
        pool.reset_all(list(range(width)))
        actions = np.zeros((width, pool.act_dim))
        return width * rate(lambda: pool.step_all(actions), steps)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="skip the CEM rows")
    quick = parser.parse_args().quick
    rows = []

    cfg = TrackerEnvConfig()
    state, action = initial_state(np.zeros(3), cfg), np.full(12, 0.1)
    rows.append(("tracker physics tick", "ticks/s",
                 rate(lambda: tracker_dynamics_step(state, action, cfg.sim_dt, cfg), 20000)))

    episode = Episode(make_scenario("tracker"))
    episode.reset(0, {})

    def tracker_step():
        if episode.step(action).done:
            episode.reset(0, {})

    rows.append(("tracker Episode.step (4 ticks)", "steps/s", rate(tracker_step, 5000)))
    result = episode.step(action)
    info = dict(result.info, worker_step=1)  # as the worker sends it
    body = wire.encode_step_result(result.observation, result.reward, False, False, info)
    rows.append(("STEPRES encode (45 obs, 8-key info)", "1/s", rate(
        lambda: wire.encode_step_result(result.observation, result.reward, False, False, info),
        20000)))
    rows.append(("STEPRES decode", "1/s", rate(lambda: wire.decode_step_result(body), 20000)))
    for transport in ("in-process", "socket"):
        for width in (1, 2, 4):
            rows.append((f"{transport} pool, W={width}", "env-steps/s", pool_rate(transport, width)))

    lander = Episode(make_scenario("lander"))
    design = {"design": PriorSet().center_design().as_dict()}

    def evaluation():
        lander.reset(0, design)
        lander.step(np.zeros(3))

    rows.append(("lander reset+step (one BO evaluation)", "evals/s", rate(evaluation, 500)))

    history: list = []
    with spawn_workers("lander", 1) as pool:
        run_bo(pool, PriorSet(), TpeConfig(), 400, seed=0, history=history)
    ask_rng = np.random.default_rng(0)
    rows.append(("tpe_ask with 400 trials of history", "asks/s",
                 rate(lambda: tpe_ask(history, PriorSet(), TpeConfig(), ask_rng), 50)))

    with spawn_workers("tracker", 2, "socket", n_s=8) as pool:
        pool.reset_all([0, 1])
        actions = np.zeros((2, pool.act_dim))
        last = [0, 0]
        executed = 0
        for _ in range(200):
            for w, r in enumerate(pool.step_all(actions).results):
                executed += r.info["err_steps"] - last[w]
                last[w] = 0 if r.done else r.info["err_steps"]
    rows.append(("decision steps run by 200 STEP calls, W=2, n_s=8 (counted: 3200)", "steps",
                 executed))

    if not quick:
        cem = workloads.CemTracker(0)
        for transport, width in (("socket", 1), ("socket", 2), ("socket", 8), ("in-process", 1)):
            with spawn_workers("tracker", width, transport, env_config=cem.env_config) as pool:
                t0 = time.perf_counter()
                run_cem(pool, cem.cfg, seed=0)
                rows.append((f"CEM acceptance config, seed 0, {transport} W={width}", "s",
                             time.perf_counter() - t0))

    for name, unit, value in rows:
        print(f"| {name} | {value:,.4g} {unit} |")


if __name__ == "__main__":
    main()

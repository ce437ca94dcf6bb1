"""rollout_grid: barrier-synchronized worker pools for stepped simulations.

A stepped simulation becomes a :class:`~rollout_grid.core.ScenarioSpec`
(shapes, timing, six behavior hooks and an optional diagnostics hook); pools of persistent workers step
many instances in lockstep over an in-process or socket transport; TPE and
CEM drivers batch their evaluations through the pool; the ``bench`` CLI
runs throughput, design-study, and training experiments.
"""

__version__ = "0.1.0"

from .cem import CemConfig, CemState, LinearPolicy, cem_iterate, policy_act, run_cem
from .config import RunConfig, config_from_dict, config_to_dict, parse_config
from .core import (
    Episode,
    ScenarioSpec,
    StepResult,
    episode_seed,
    validate_action,
)
from .lander import (
    LanderDesign,
    LanderEnvConfig,
    LanderParams,
    PriorSet,
    TouchdownResult,
    geometry_factor,
    integrate_touchdown,
    objective,
    sample_design,
    simulate_touchdown_closed_form,
)
from .pool import BatchStep, WorkerPool, spawn_workers
from .registry import make_scenario
from .tpe import Trial, TpeConfig, run_bo, tpe_ask, tpe_split, tpe_tell
from .tracker import TrackerEnvConfig, TrackerWeights, compose_observation, tracker_reward

__all__ = [name for name in dir() if not name.startswith("_")]

"""Scenarios by environment name, as accepted over INIT and by the CLI."""

from __future__ import annotations

from .config import ENVIRONMENTS, ENVS, env_config_from_dict
from .core import ScenarioSpec
from .errors import SpawnError


def make_scenario(env: str, env_config: dict | None = None) -> ScenarioSpec:
    if env not in ENVIRONMENTS:
        raise SpawnError(f"unknown environment {env!r}; known: {ENVS}")
    scenario_type, _ = ENVIRONMENTS[env]
    return scenario_type(env_config_from_dict(env, env_config or {})).spec()


def scenario_dims(env: str, env_config: dict | None = None) -> tuple[int, int]:
    """(obs_dim, act_dim) for an environment without keeping the instance."""
    spec = make_scenario(env, env_config)
    return spec.obs_dim, spec.act_dim

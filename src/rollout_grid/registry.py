"""Scenarios by environment name, as accepted over INIT and by the CLI."""

from __future__ import annotations

from .config import ENVIRONMENTS, ENVS, env_config_from_dict
from .errors import SpawnError


def make_scenario(env: str, env_config: dict | None = None):
    """A new scenario object for ``env``, built from its config mapping."""
    if env not in ENVIRONMENTS:
        raise SpawnError(f"unknown environment {env!r}; known: {ENVS}")
    scenario_type, _ = ENVIRONMENTS[env]
    return scenario_type(env_config_from_dict(env, env_config or {}))

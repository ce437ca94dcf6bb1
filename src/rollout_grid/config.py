"""Run configuration: strict JSON parsing into typed dataclasses.

The schema is closed: unknown keys are rejected (with a close-match
suggestion, catching the classic ``n_envs`` typo before a long experiment),
missing keys fall back to defaults, and every value is type-checked here.
Each config dataclass checks its own values when it is built, wherever that
happens; parsing adds the key path to its error. ``config_to_dict`` echoes a
fully-defaulted document for the run manifest, and parsing that echo yields
the identical config.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import math
import typing

from .cem import CemConfig
from .errors import ParseError, RolloutError, ValidationError
from .lander import LanderEnvConfig, LanderScenario
from .tpe import TpeConfig
from .tracker import TrackerEnvConfig, TrackerScenario

MODES = ("throughput", "bo", "cem")
#: The one table of environments: name -> (scenario class, config class).
ENVIRONMENTS = {
    "lander": (LanderScenario, LanderEnvConfig),
    "tracker": (TrackerScenario, TrackerEnvConfig),
}
ENVS = tuple(ENVIRONMENTS)
TRANSPORTS = ("in-process", "socket")
PAD_MODES = ("busy", "sleep")


@dataclasses.dataclass(frozen=True)
class ThroughputConfig:
    steps: int = 200
    sweep: tuple[int, ...] = ()  # extra n_env values to measure after cfg.n_env
    repeats: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if any(w < 1 for w in self.sweep):
            raise ValidationError("sweep entries must be >= 1")


@dataclasses.dataclass(frozen=True)
class BoConfig:
    n_trials: int = 60
    batch: int = 0  # 0 means "use n_env"
    tpe: TpeConfig = dataclasses.field(default_factory=TpeConfig)

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValidationError("n_trials must be >= 1")
        if self.batch < 0:
            raise ValidationError("batch must be >= 0 (0 selects n_env)")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    mode: str
    env: str
    n_env: int = 1
    n_s: int = 1
    seed: int = 0
    transport: str = "in-process"
    output_dir: str = "runs"
    # Worker-side instrumentation: per-substep padding emulating a heavier
    # simulator (busy = spin the CPU, sleep = block), and a random pre-reply
    # delay used to stress the barrier.
    pad_ms: float = 0.0
    pad_mode: str = "sleep"
    step_delay_max_ms: float = 0.0
    lander: LanderEnvConfig = dataclasses.field(default_factory=LanderEnvConfig)
    tracker: TrackerEnvConfig = dataclasses.field(default_factory=TrackerEnvConfig)
    throughput: ThroughputConfig = dataclasses.field(default_factory=ThroughputConfig)
    bo: BoConfig = dataclasses.field(default_factory=BoConfig)
    cem: CemConfig = dataclasses.field(default_factory=CemConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.env not in ENVS:
            raise ValidationError(f"env must be one of {ENVS}, got {self.env!r}")
        if self.mode == "bo" and self.env != "lander":
            raise ValidationError("bo mode optimizes the lander env")
        if self.mode == "cem" and self.env != "tracker":
            raise ValidationError("cem mode trains on the tracker env")
        if self.n_env < 1:
            raise ValidationError("n_env must be >= 1")
        if self.n_s < 1:
            raise ValidationError("n_s must be >= 1")
        if self.transport not in TRANSPORTS:
            raise ValidationError(f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        if self.pad_ms < 0:
            raise ValidationError("pad_ms must be >= 0")
        if self.pad_mode not in PAD_MODES:
            raise ValidationError(f"pad_mode must be one of {PAD_MODES}, got {self.pad_mode!r}")
        if self.step_delay_max_ms < 0:
            raise ValidationError("step_delay_max_ms must be >= 0")
        if self.bo.batch > self.n_env:
            raise ValidationError("bo.batch must not exceed n_env")

    def env_config(self) -> LanderEnvConfig | TrackerEnvConfig:
        return getattr(self, self.env)


def _coerce(value, ftype, path: str):
    origin = typing.get_origin(ftype)
    if dataclasses.is_dataclass(ftype):
        if not isinstance(value, dict):
            raise ValidationError(f"{path}: expected an object")
        return _build(ftype, value, path)
    if ftype is bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{path}: expected a boolean")
        return value
    if ftype is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path}: expected an integer")
        return value
    if ftype is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}: expected a number")
        # JSON Infinity/NaN, and integers beyond float range, would reach the
        # workers as null in the INIT frame.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ValidationError(f"{path}: expected a finite number")
        return number
    if ftype is str:
        if not isinstance(value, str):
            raise ValidationError(f"{path}: expected a string")
        return value
    if origin is tuple:
        args = typing.get_args(ftype)
        if not isinstance(value, list):
            raise ValidationError(f"{path}: expected an array")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(value) != len(args):
            raise ValidationError(f"{path}: expected exactly {len(args)} entries")
        return tuple(_coerce(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, args)))
    raise ValidationError(f"{path}: unsupported field type {ftype!r}")


def _build(dc_type, d: dict, path: str):
    hints = typing.get_type_hints(dc_type)
    fields = {f.name: f for f in dataclasses.fields(dc_type)}
    unknown = set(d) - set(fields)
    if unknown:
        key = sorted(unknown)[0]
        hint = difflib.get_close_matches(key, fields, n=1)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        where = f"{path}.{key}" if path else key
        raise ParseError(f"unknown key {where!r}{suggestion}")
    kwargs = {}
    for name, f in fields.items():
        if name in d:
            kwargs[name] = _coerce(d[name], hints[name], f"{path}.{name}" if path else name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            where = f"{path}.{name}" if path else name
            raise ParseError(f"missing required key {where!r}")
    # Each config checks itself when built; its error gains the key path here.
    try:
        return dc_type(**kwargs)
    except (ValueError, RolloutError) as exc:
        raise ValidationError(f"{path}: {exc}" if path else str(exc)) from exc


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ParseError("configuration document must be a JSON object")
    return _build(RunConfig, d, "")


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)


def _to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    return value


def config_to_dict(cfg) -> dict:
    """Fully-defaulted echo of a config or one of its sections, reparseable byte-for-byte."""
    return _to_jsonable(cfg)


def env_config_from_dict(env: str, d: dict) -> LanderEnvConfig | TrackerEnvConfig:
    """Strictly parse one environment section (as shipped in an INIT frame)."""
    if env not in ENVIRONMENTS:
        raise ValidationError(f"env must be one of {ENVS}, got {env!r}")
    return _build(ENVIRONMENTS[env][1], d, env)

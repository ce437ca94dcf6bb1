import json
import re
from pathlib import Path

import pytest

from rollout_grid.cem import CemConfig
from rollout_grid.config import (
    ENVIRONMENTS,
    ENVS,
    BoConfig,
    RunConfig,
    ThroughputConfig,
    config_from_dict,
    config_to_dict,
    env_config_from_dict,
    parse_config,
)
from rollout_grid.errors import InvalidParamsError, ParseError, SpawnError, ValidationError
from rollout_grid.lander import LanderDesign, LanderEnvConfig, LanderParams, PriorSet
from rollout_grid.registry import make_scenario
from rollout_grid.tpe import TpeConfig
from rollout_grid.tracker import TrackerEnvConfig, TrackerWeights

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = {"mode": "throughput", "env": "tracker", "n_env": 1, "seed": 0}


def test_minimal_document_gets_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.mode == "throughput" and cfg.env == "tracker"
    assert cfg.n_s == 1 and cfg.transport == "in-process"
    assert cfg.bo.n_trials == 60
    assert cfg.cem.population == 32 and cfg.cem.elite_frac == 0.125
    assert cfg.tracker.horizon == 500
    assert cfg.lander.params.mass == 1000.0


def test_zero_n_env_rejected():
    with pytest.raises(ValidationError, match="n_env"):
        config_from_dict({**MINIMAL, "n_env": 0})


def test_unknown_key_suggests_close_match():
    with pytest.raises(ParseError, match="n_env"):
        config_from_dict({"mode": "throughput", "env": "tracker", "n_envs": 2})


def test_unknown_nested_key_named_with_path():
    with pytest.raises(ParseError, match="lander.sim_dts"):
        config_from_dict({**MINIMAL, "lander": {"sim_dts": 0.1}})


def test_malformed_json_reports_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_config('{"mode": "bo",\n "env": }')


def test_missing_required_key():
    with pytest.raises(ParseError, match="mode"):
        config_from_dict({"env": "tracker"})


def test_wrong_type_is_validation_error():
    with pytest.raises(ValidationError, match="seed"):
        config_from_dict({**MINIMAL, "seed": "zero"})
    with pytest.raises(ValidationError, match="n_env"):
        config_from_dict({**MINIMAL, "n_env": 1.5})
    with pytest.raises(ValidationError, match="pad_ms"):
        config_from_dict({**MINIMAL, "pad_ms": True})


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "1e400", "10**400"])
def test_non_finite_number_rejected_with_key_path(literal):
    text = json.dumps({**MINIMAL, "mode": "bo", "env": "lander"})
    text = text[:-1] + ', "lander": {"params": {"stroke_limit": %s}}}' % literal
    message = "lander.params.stroke_limit: expected a finite number"
    with pytest.raises(ValidationError, match=message):
        parse_config(text)
    section = json.loads(text)["lander"]
    with pytest.raises(ValidationError, match=message):
        env_config_from_dict("lander", section)


def test_mode_env_pairing_enforced():
    with pytest.raises(ValidationError):
        config_from_dict({"mode": "bo", "env": "tracker"})
    with pytest.raises(ValidationError):
        config_from_dict({"mode": "cem", "env": "lander"})


def test_bad_enum_values():
    with pytest.raises(ValidationError, match="transport"):
        config_from_dict({**MINIMAL, "transport": "carrier-pigeon"})
    with pytest.raises(ValidationError, match="mode"):
        config_from_dict({**MINIMAL, "mode": "train"})


def test_nested_sections_parse():
    cfg = config_from_dict(
        {
            "mode": "bo",
            "env": "lander",
            "n_env": 4,
            "bo": {"n_trials": 10, "batch": 2, "tpe": {"gamma": 0.3}},
            "lander": {"params": {"mass": 500.0}, "priors": {"f_y": [10.0, 100.0]}},
        }
    )
    assert cfg.bo.batch == 2 and cfg.bo.tpe.gamma == 0.3
    assert cfg.lander.params.mass == 500.0
    assert cfg.lander.priors.f_y == (10.0, 100.0)


def test_section_constraint_violations_reported():
    with pytest.raises(ValidationError, match="gamma"):
        config_from_dict({"mode": "bo", "env": "lander", "bo": {"tpe": {"gamma": 1.5}}})
    with pytest.raises(ValidationError, match="batch"):
        config_from_dict({"mode": "bo", "env": "lander", "n_env": 2, "bo": {"batch": 3}})
    with pytest.raises(ValidationError, match="lander"):
        config_from_dict({**MINIMAL, "env": "lander", "lander": {"params": {"mass": -1.0}}})


def test_echo_round_trip_is_identity():
    cfg = config_from_dict(
        {"mode": "cem", "env": "tracker", "n_env": 3, "seed": 17,
         "cem": {"iterations": 5}, "tracker": {"horizon": 44}}
    )
    echo = config_to_dict(cfg)
    again = config_from_dict(json.loads(json.dumps(echo)))
    assert again == cfg
    assert echo["tracker"]["horizon"] == 44
    assert echo["cem"]["population"] == 32  # defaults are filled in


def test_env_config_from_dict_strict():
    cfg = env_config_from_dict("tracker", {"horizon": 7})
    assert cfg.horizon == 7
    with pytest.raises(ParseError):
        env_config_from_dict("tracker", {"horizonn": 7})
    with pytest.raises(ValidationError):
        env_config_from_dict("bogus", {})


def test_sweep_list_coercion():
    cfg = config_from_dict({**MINIMAL, "throughput": {"sweep": [1, 8]}})
    assert cfg.throughput.sweep == (1, 8)
    with pytest.raises(ValidationError):
        config_from_dict({**MINIMAL, "throughput": {"sweep": [1, "8"]}})


def test_run_config_is_frozen():
    cfg = config_from_dict(MINIMAL)
    with pytest.raises(Exception):
        cfg.n_env = 5


# One bad value per config dataclass: each raises as it is built, so no
# caller has to check it again.
BAD_CONFIGS = [
    (lambda: LanderDesign(f_y=-1.0, beta=0.1, alpha2=0.5), InvalidParamsError, "f_y"),
    (lambda: LanderParams(mass=0.0), InvalidParamsError, "mass must be positive"),
    (lambda: PriorSet(beta=(0.5, 0.1)), InvalidParamsError, "b_min <= b_max"),
    (lambda: LanderEnvConfig(window_s=0.0), InvalidParamsError, "window_s must be positive"),
    (lambda: TrackerWeights(w_rate=-1.0), ValueError, "w_rate must be >= 0"),
    (lambda: TrackerEnvConfig(cmd_vy=(1.0, -1.0)), ValueError, "lo <= hi"),
    (lambda: TpeConfig(n_candidates=0), ValueError, "n_candidates must be >= 1"),
    (lambda: CemConfig(smoothing=1.0), ValueError, "smoothing"),
    (lambda: ThroughputConfig(sweep=(2, 0)), ValidationError, "sweep entries must be >= 1"),
    (lambda: BoConfig(batch=-1), ValidationError, "batch must be >= 0"),
    (lambda: RunConfig(mode="bo", env="lander", n_env=2, bo=BoConfig(batch=3)),
     ValidationError, "bo.batch must not exceed n_env"),
]


@pytest.mark.parametrize("build, error, message", BAD_CONFIGS, ids=[
    "LanderDesign", "LanderParams", "PriorSet", "LanderEnvConfig", "TrackerWeights",
    "TrackerEnvConfig", "TpeConfig", "CemConfig", "ThroughputConfig", "BoConfig", "RunConfig"])
def test_config_dataclass_rejects_a_bad_value_when_built(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("env, section, message", [
    ("tracker", {"weights": {"sigma_track": 0.0}}, "tracker.weights: sigma_track must be > 0"),
    ("lander", {"params": {"mass": -1.0}}, "lander.params: mass must be positive"),
    ("lander", {"priors": {"f_y": [0.0, 1.0]}}, "lander.priors: need 0 < f_min"),
])
def test_constructor_error_names_the_nested_key_path(env, section, message):
    mode = "bo" if env == "lander" else "cem"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config(json.dumps({"mode": mode, "env": env, env: section}))
    with pytest.raises(ValidationError, match=re.escape(message)):
        env_config_from_dict(env, section)


def test_unknown_env_rejected_listing_the_one_name_table():
    assert ENVS == tuple(ENVIRONMENTS)
    with pytest.raises(SpawnError) as spawn:
        make_scenario("bogus")
    with pytest.raises(ValidationError) as parse:
        config_from_dict({**MINIMAL, "env": "bogus"})
    assert str(ENVS) in str(spawn.value) and str(ENVS) in str(parse.value)
    for env, (_, config_type) in ENVIRONMENTS.items():
        assert isinstance(env_config_from_dict(env, {}), config_type)
        assert make_scenario(env).obs_dim >= 1


def test_removed_bandwidth_rule_is_an_unknown_key():
    with pytest.raises(ParseError, match="bo.tpe.bandwidth_rule"):
        config_from_dict({"mode": "bo", "env": "lander",
                          "bo": {"tpe": {"bandwidth_rule": "neighbor-max"}}})


def test_readme_json_configs_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        parse_config(block)

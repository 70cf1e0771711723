"""Config parsing, canonical serialization, and hashing."""

import math

import pytest

from multlab.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from multlab.multfunc import BASE_POWER_DECAY, constant_spec


SAMPLE = """
# perturbed run
sieve_limit = 100000
spec.base = liouville
spec.exception.2 = 0.5
spec.exception.3 = -0.25
s_grid = 1.5, 2:0, 2.5:1.0
truncation_N = 10000
euler_P = 10000
tolerance.H_eq_zetaF = 1e-6
output_dir = results
"""


def test_parse_sample():
    cfg = parse_config(SAMPLE)
    assert cfg.sieve_limit == 100000
    assert cfg.spec.base == "liouville"
    assert cfg.spec.exception_map == {2: 0.5, 3: -0.25}
    assert cfg.s_grid == ((1.5, 0.0), (2.0, 0.0), (2.5, 1.0))
    assert cfg.truncation_N == 10000
    assert cfg.tolerance_map == {"H_eq_zetaF": 1e-6}
    assert cfg.output_dir == "results"
    assert cfg.effective_x_max == 100000  # x_max = 0 falls back to the limit


def test_defaults_are_liouville():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.spec.base == "liouville"
    assert cfg.spec.exceptions == ()


def test_round_trip_through_serialization():
    cfg = parse_config(SAMPLE)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_round_trip_power_decay():
    text = "spec.base = power_decay\nspec.c = 1.25\nspec.a = 0.75\n"
    cfg = parse_config(text)
    assert cfg.spec.base == BASE_POWER_DECAY
    assert cfg.spec.c == 1.25 and cfg.spec.a == 0.75
    assert parse_config(serialize_config(cfg)) == cfg


def test_hash_stability_and_sensitivity():
    base = parse_config(SAMPLE)
    assert config_hash(base) == config_hash(parse_config(SAMPLE))
    assert len(config_hash(base)) == 16
    bumped = parse_config(SAMPLE.replace("0.5", "0.6"))
    assert config_hash(bumped) != config_hash(base)
    moved = parse_config(SAMPLE.replace("results", "elsewhere"))
    assert config_hash(moved) != config_hash(base)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("sieve_limt = 100\n")
    with pytest.raises(ConfigError, match="unknown spec field"):
        parse_config("spec.beta = 1\n")


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("truncation_N = 10\ntruncation_N = 20\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("spec.exception.2 = 0.5\nspec.exception.2 = 0.6\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="expected integer"):
        parse_config("sieve_limit = soon\n")
    with pytest.raises(ConfigError, match="expected number"):
        parse_config("spec.exception.2 = big\n")


def test_base_parameter_consistency():
    with pytest.raises(ConfigError, match="liouville base takes no"):
        parse_config("spec.base = liouville\nspec.c = 0.5\n")
    with pytest.raises(ConfigError, match="constant base takes no"):
        parse_config("spec.base = constant\nspec.c = 0.5\nspec.a = 1\n")
    with pytest.raises(ConfigError):
        parse_config("spec.base = constant\n")  # missing c
    with pytest.raises(ConfigError):
        parse_config("spec.base = power_decay\nspec.c = 1\n")  # missing a


def test_spec_value_constraints_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("spec.exception.4 = 0.5\n")  # 4 is not prime
    with pytest.raises(ConfigError):
        parse_config("spec.exception.2 = 1.5\n")  # outside [-1, 1]
    with pytest.raises(ConfigError):
        parse_config("spec.base = constant\nspec.c = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("spec.base = power_decay\nspec.c = nan\nspec.a = 0.5\n")


def test_structural_constraints():
    with pytest.raises(ConfigError, match="truncation_N"):
        parse_config("sieve_limit = 100\ntruncation_N = 1000\neuler_P = 50\n")
    with pytest.raises(ConfigError, match="euler_P"):
        parse_config("sieve_limit = 100\ntruncation_N = 50\neuler_P = 1000\n")
    with pytest.raises(ConfigError, match="x_max"):
        parse_config(
            "sieve_limit = 100\ntruncation_N = 50\neuler_P = 50\nx_max = 101\n"
        )
    with pytest.raises(ConfigError, match="s_grid"):
        parse_config("s_grid = ,\n")
    for text in ("checkpoint_ratio = 1.0\n", "checkpoint_ratio = inf\n"):
        with pytest.raises(ConfigError, match="checkpoint_ratio"):
            parse_config(text)
    for key in ("zeta_tol", "weighted_tail_sigma"):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = inf\n")
    for grid in ("nan", "inf", "0.1,nan", "0.1,inf"):
        with pytest.raises(ConfigError, match="f_one_h_grid"):
            parse_config(f"f_one_h_grid = {grid}\n")
    for tol in ("-1", "0", "nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config(f"tolerance.X = {tol}\n")
    with pytest.raises(ConfigError, match="epsilon_slack"):
        parse_config("epsilon_slack = 1.5\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    assert load_config(path) == parse_config(SAMPLE)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


def test_with_output_dir_replaces_only_that_field():
    cfg = ExperimentConfig()
    moved = cfg.with_output_dir("elsewhere")
    assert moved.output_dir == "elsewhere"
    assert moved.spec == cfg.spec
    assert moved.sieve_limit == cfg.sieve_limit


def test_constructed_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(sieve_limit=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(s_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(zeta_tol=0.0)
    for key in ("checkpoint_ratio", "zeta_tol", "weighted_tail_sigma"):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: math.inf})
    with pytest.raises(ConfigError):
        ExperimentConfig(f_one_h_grid=())
    for grid in ((math.nan,), (math.inf,), (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ConfigError, match="f_one_h_grid"):
            ExperimentConfig(f_one_h_grid=grid)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="tolerance"):
            ExperimentConfig(tolerances=(("H_eq_zetaF", tol),))
    # a perfectly legal non-default spec passes through
    cfg = ExperimentConfig(spec=constant_spec(0.5), x_max=500)
    assert cfg.effective_x_max == 500

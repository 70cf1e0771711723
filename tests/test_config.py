"""Config parsing, canonical serialization, and hashing."""

import math
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multlab.config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from multlab.dirichlet import IdentityKind
from multlab.multfunc import (
    BASE_POWER_DECAY,
    PrimeFunctionSpec,
    constant_spec,
    power_decay_spec,
)

#: the scalar keys parse_config knows (spec.* and tolerance.* aside)
_KNOWN_KEYS = {
    "sieve_limit", "s_grid", "truncation_N", "euler_P", "x_max", "checkpoint_x0",
    "checkpoint_ratio", "output_dir", "weighted_tail_sigma", "epsilon_slack",
    "zeta_tol", "f_one_h_grid",
}

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
    assert dict(cfg.spec.exceptions) == {2: 0.5, 3: -0.25}
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


def test_canonical_bytes_and_hashes_are_pinned():
    # every recorded config hash depends on these exact bytes: a renamed key
    # or a changed float format would pass the round-trip tests
    assert serialize_config(parse_config(SAMPLE)) == (
        "sieve_limit=100000\nspec.base=liouville\nspec.exception.2=0.5\n"
        "spec.exception.3=-0.25\ns_grid=1.5:0,2:0,2.5:1\ntruncation_N=10000\n"
        "euler_P=10000\nx_max=0\ncheckpoint_x0=10\ncheckpoint_ratio=1.189207115002721\n"
        "tolerance.H_eq_zetaF=9.9999999999999995e-07\noutput_dir=results\n"
        "weighted_tail_sigma=1\nepsilon_slack=0.050000000000000003\n"
        "zeta_tol=9.9999999999999998e-13\n"
        "f_one_h_grid=0.10000000000000001,0.050000000000000003,0.02,0.01\n"
    )
    assert config_hash(parse_config(SAMPLE)) == "f96420b779dd35b2"
    assert serialize_config(ExperimentConfig()) == (
        "sieve_limit=1000000\nspec.base=liouville\ns_grid=1.5:0,2:0,2.5:0,3:0\n"
        "truncation_N=100000\neuler_P=100000\nx_max=0\ncheckpoint_x0=10\n"
        "checkpoint_ratio=1.189207115002721\noutput_dir=out\nweighted_tail_sigma=1\n"
        "epsilon_slack=0.050000000000000003\nzeta_tol=9.9999999999999998e-13\n"
        "f_one_h_grid=0.10000000000000001,0.050000000000000003,0.02,0.01\n"
    )
    assert config_hash(ExperimentConfig()) == "97188e0106304e34"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("sieve_limt = 100\n")
    with pytest.raises(ConfigError, match="unknown spec field"):
        parse_config("spec.beta = 1\n")
    with pytest.raises(ConfigError, match="unknown tolerance 'H_eq_zetaFF'"):
        parse_config("tolerance.H_eq_zetaFF = 1e-6\n")


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
    with pytest.raises(ConfigError, match="too large"):
        parse_config(f"spec.exception.{10**30 + 57} = 0.5\n")  # past the primality test
    with pytest.raises(ConfigError):
        parse_config("spec.exception.2 = 1.5\n")  # outside [-1, 1]
    with pytest.raises(ConfigError):
        parse_config("spec.base = constant\nspec.c = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("spec.base = power_decay\nspec.c = nan\nspec.a = 0.5\n")


def test_structural_constraints():
    for limit in (1, 2**32):  # the sieve's cells are uint32
        with pytest.raises(ConfigError, match="sieve_limit"):
            parse_config(f"sieve_limit = {limit}\ntruncation_N = 1\neuler_P = 1\n")
    assert parse_config(f"sieve_limit = {2**32 - 1}\n").sieve_limit == 2**32 - 1
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
    with pytest.raises(ConfigError, match="more than 1000000 steps"):
        parse_config("sieve_limit = 100000\ncheckpoint_ratio = 1.000000001\n")
    assert parse_config("checkpoint_ratio = 1e308\n").checkpoints.tolist() == [10, 10**6]
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


def test_exception_key_past_int64_stays_in_spec_id_and_hash():
    big = 9223372036854775837  # a prime above 2^63
    cfg = parse_config(f"spec.exception.{big} = 0.5\n")
    assert cfg.spec.exceptions == ((big, 0.5),)
    assert f"{big}:0.5" in cfg.spec.spec_id()
    assert f"spec.exception.{big}=0.5" in serialize_config(cfg)
    assert config_hash(cfg) != config_hash(parse_config(""))


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    assert load_config(path) == parse_config(SAMPLE)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


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
    # the integer fields take integers only: a float, a string or a bool
    # (which operator.index reads as 0 or 1: x_max=True would run a trace
    # to 1) is rejected where it enters, and numpy ints become int ...
    for key in ("sieve_limit", "truncation_N", "euler_P", "x_max", "checkpoint_x0"):
        for bad in (1000.0, 1e4, np.float64(100), "100", True, False, np.bool_(True)):
            with pytest.raises(ConfigError, match=f"{key}: expected integer"):
                ExperimentConfig(**{key: bad})
    cfg = ExperimentConfig(truncation_N=np.int64(2000), euler_P=np.uint8(1), x_max=np.int32(500))
    assert [type(getattr(cfg, key)) for key in ("truncation_N", "euler_P", "x_max")] == [int] * 3
    assert (cfg.truncation_N, cfg.euler_P, cfg.x_max) == (2000, 1, 500)
    # ... so the canonical text parses back to the same config
    assert parse_config(serialize_config(cfg)) == cfg


def test_a_value_holding_a_hash_is_rejected():
    # a trailing comment would become part of the value: here a directory name
    for line in ("output_dir = out   # where CSVs go", "truncation_N = 1000 # small", "spec.c=#"):
        with pytest.raises(ConfigError, match=r"line 2: value of \S+ holds '#'"):
            parse_config(f"# a comment line is fine\n{line}\n")
    assert parse_config("  # indented comment\noutput_dir = out\n").output_dir == "out"


def test_readme_example_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = parse_config(example)
    assert cfg.s_grid == ((1.5, 0.0), (2.0, 0.0), (2.5, 1.0))
    assert dict(cfg.spec.exceptions) == {2: 0.5}
    assert cfg.tolerance_map == {"H_eq_zetaF": 1e-6}


# ------------------------------------------------------- property tests

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_unit = st.floats(min_value=-1.0, max_value=1.0)
_name = st.text(alphabet=string.ascii_letters + string.digits + "_", min_size=1, max_size=12)
_tolerance_name = st.sampled_from([kind.value for kind in IdentityKind])


@st.composite
def _specs(draw):
    primes = (2, 3, 5, 7, 11, 97, 7919, 9223372036854775837)  # the last is past int64
    exceptions = draw(st.dictionaries(st.sampled_from(primes), _unit))
    base = draw(st.sampled_from(("liouville", "constant", "power_decay")))
    if base == "liouville":
        return PrimeFunctionSpec(base=base, exceptions=tuple(exceptions.items()))
    if base == "constant":
        return constant_spec(draw(_unit), exceptions)
    return power_decay_spec(draw(_finite), draw(_positive), exceptions)


@st.composite
def _configs(draw):
    limit = draw(st.integers(min_value=2, max_value=2**32 - 1))
    return ExperimentConfig(
        sieve_limit=limit,
        spec=draw(_specs()),
        s_grid=tuple(draw(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=4))),
        truncation_N=draw(st.integers(min_value=1, max_value=limit)),
        euler_P=draw(st.integers(min_value=0, max_value=limit)),
        x_max=draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=limit))),
        checkpoint_x0=draw(st.integers(min_value=1, max_value=10**9)),
        checkpoint_ratio=draw(
            # nearer 1 a grid to 2^32 may take more than 10^6 steps (rejected)
            st.floats(min_value=1.0001, allow_infinity=False)
        ),
        tolerances=tuple(
            sorted(draw(st.dictionaries(_tolerance_name, _positive, max_size=3)).items())
        ),
        output_dir=draw(st.text(alphabet="abcxyz019_-./", min_size=1, max_size=16)),
        weighted_tail_sigma=draw(_positive),
        epsilon_slack=draw(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
        ),
        zeta_tol=draw(_positive),
        f_one_h_grid=tuple(draw(st.lists(_positive, min_size=1, max_size=4))),
    )


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_serialization_round_trips_any_valid_config(cfg):
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg)


_NON_FINITE = ("nan", "inf", "-inf", "NaN", "1e400", "-1e999")

_bad_lines = st.one_of(
    # unknown keys
    _name.filter(lambda k: k not in _KNOWN_KEYS).map(lambda k: f"{k} = 1"),
    _name.filter(lambda k: k not in ("base", "c", "a")).map(lambda k: f"spec.{k} = 1"),
    # non-finite values where a finite one is required
    st.tuples(
        st.sampled_from(
            (
                "checkpoint_ratio",
                "weighted_tail_sigma",
                "zeta_tol",
                "epsilon_slack",
                "f_one_h_grid",
                "s_grid",
                "tolerance.H_eq_zetaF",
                "spec.exception.2",
            )
        ),
        st.sampled_from(_NON_FINITE),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(_NON_FINITE).map(
        lambda v: f"spec.base = power_decay\nspec.c = {v}\nspec.a = 1"
    ),
    # exception keys that are not primes
    st.one_of(
        st.integers(max_value=1),
        st.integers(min_value=2, max_value=10**6).map(lambda n: n * (n + 1)),
    ).map(lambda p: f"spec.exception.{p} = 0.5"),
    # values outside [-1, 1]
    st.one_of(
        st.floats(min_value=1.0, exclude_min=True),
        st.floats(max_value=-1.0, exclude_max=True),
    ).flatmap(
        lambda v: st.sampled_from(
            (f"spec.exception.3 = {v!r}", f"spec.base = constant\nspec.c = {v!r}")
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(("sieve_limit = 1000", "# note", "")), max_size=3), _bad_lines)
def test_malformed_config_raises_only_config_error(good, bad):
    with pytest.raises(ConfigError):
        parse_config("\n".join([*good, bad]) + "\n")


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                sorted(_KNOWN_KEYS)
                + ["spec.base", "spec.c", "spec.a", "spec.exception.", "tolerance.", ""]
            ),
            st.text(max_size=8),
            st.text(max_size=12),
        ).map(lambda kxv: f"{kxv[0]}{kxv[1]}={kxv[2]}"),
        max_size=6,
    )
)
def test_arbitrary_lines_raise_only_config_error(lines):
    try:
        parse_config("\n".join(lines))
    except ConfigError:
        pass

"""multlab: multiplicative functions, Dirichlet series, and prime-sum labs.

Library + CLI for experimenting with completely multiplicative functions
f: N -> [-1, 1] defined by their values at primes: derived divisor-sum
transforms, truncated Dirichlet series and Euler products with honest
error budgets, prime-weighted sums, pretentious distance, and empirical
growth-exponent fitting of partial sums.
"""

from .config import ConfigError, ExperimentConfig, config_hash, load_config, parse_config, serialize_config
from .dirichlet import (
    ComplexArgument,
    ConvergenceError,
    DomainError,
    IdentityKind,
    IdentityResidual,
    PoleError,
    SeriesEval,
    dirichlet_sum,
    euler_product_G,
    euler_product_U,
    identity_residual,
    zeta,
)
from .exponent import (
    ExponentFit,
    InsufficientDataError,
    checkpoint_partial_sums,
    fit_exponent,
    kronecker_check,
    running_max_envelope,
)
from .multfunc import (
    DerivedFunctionKind,
    LIOUVILLE,
    PrimeFunctionSpec,
    coefficient_stream,
    constant_spec,
    eval_f,
    eval_f_mu2,
    eval_g,
    eval_h,
    f_at_prime,
    f_at_primes,
    integer_coefficient_stream,
    liouville_spec,
    power_decay_spec,
    spec_is_pm1,
)
from .primesums import (
    pretentious_distance_sq,
    prime_sum_S,
    weighted_tail_diagnostic,
)
from .sieve import (
    FactorSieve,
    big_omega,
    build_sieve,
    factorize,
    is_squarefree,
    liouville,
    moebius,
    primes_up_to,
)
from .summation import PartialSumSeries, checkpoint_schedule
from .verify import CheckLine, VerificationReport, report_to_csv, run_verify

__version__ = "0.1.0"

__all__ = [
    "ComplexArgument",
    "CheckLine",
    "ConfigError",
    "ConvergenceError",
    "DerivedFunctionKind",
    "DomainError",
    "ExperimentConfig",
    "ExponentFit",
    "FactorSieve",
    "IdentityKind",
    "IdentityResidual",
    "InsufficientDataError",
    "LIOUVILLE",
    "PartialSumSeries",
    "PoleError",
    "PrimeFunctionSpec",
    "SeriesEval",
    "VerificationReport",
    "big_omega",
    "build_sieve",
    "checkpoint_partial_sums",
    "checkpoint_schedule",
    "coefficient_stream",
    "config_hash",
    "constant_spec",
    "dirichlet_sum",
    "eval_f",
    "eval_f_mu2",
    "eval_g",
    "eval_h",
    "euler_product_G",
    "euler_product_U",
    "f_at_prime",
    "f_at_primes",
    "factorize",
    "fit_exponent",
    "identity_residual",
    "integer_coefficient_stream",
    "is_squarefree",
    "kronecker_check",
    "liouville",
    "liouville_spec",
    "load_config",
    "moebius",
    "parse_config",
    "power_decay_spec",
    "pretentious_distance_sq",
    "prime_sum_S",
    "primes_up_to",
    "report_to_csv",
    "run_verify",
    "running_max_envelope",
    "serialize_config",
    "spec_is_pm1",
    "weighted_tail_diagnostic",
    "zeta",
]

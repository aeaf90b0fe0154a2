"""Certified toolkit for Denjoy-Carleman weight sequences: sequence
transforms and class criteria, exact series combinatorics behind the
power-substitution estimates, and extremal Bang-type functions with
rigorous truncation control."""

__version__ = "0.1.0"

from .scalar import (
    ExactUnavailableError,
    Interval,
    PrecisionError,
    RangeError,
    Scalar,
    ScalarConfig,
)
from .seqcore import (
    Analytic,
    Custom,
    Gevrey,
    IteratedLog,
    PowerSub,
    SequenceError,
    Verdict,
    WeightSequence,
    derived_value,
    is_increasing,
    is_log_convex,
    ratio,
    value,
)
from .transforms import (
    Regularized,
    derived_power_substitution,
    log_convex_regularization,
)
from .criteria import (
    dc_partial_sum,
    derivation_closure_estimate,
    inclusion_estimate,
    quasianalytic_verdict,
)
from .comb import (
    TruncatedPowerSeries,
    alpha_b_coefficients,
    alpha_diag_derivative,
    composite_derivative,
    composition_sum_oracle,
    lemma1_check,
    lemma2_check,
    log_power_coefficients,
    root_series_coefficients,
    stirling_ineq_check,
    taylor_remainder_reconstruct,
)
from .bang import (
    BangFunction,
    GateError,
    bang_derivative,
    bang_lower_bound_certify,
    class_norm,
    cp_derivative,
    induced_f_derivative,
    theorem1_bound,
)
from .spec import Report, RunConfig
from .verify import run_checks

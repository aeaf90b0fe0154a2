"""Certified toolkit for Denjoy-Carleman weight sequences: sequence
transforms and class criteria, exact series combinatorics behind the
power-substitution estimates, and extremal Bang-type functions with
rigorous truncation control.

``import carleman`` loads no layer: each name below loads its layer on
first use (PEP 562) and is then bound here like a plain import."""

import importlib

__version__ = "0.1.0"

# layer -> the names the package re-exports from it
_EXPORTS = {
    "scalar": (
        "ExactUnavailableError", "Interval", "PrecisionError", "RangeError", "Scalar",
        "ScalarConfig",
    ),
    "seqcore": (
        "Analytic", "Custom", "Gevrey", "IteratedLog", "PowerSub", "SequenceError", "Verdict",
        "WeightSequence", "derived_value", "is_increasing", "is_log_convex", "ratio", "value",
    ),
    "transforms": ("Regularized", "derived_power_substitution", "log_convex_regularization"),
    "criteria": (
        "dc_partial_sum", "derivation_closure_estimate", "inclusion_estimate",
        "quasianalytic_verdict",
    ),
    "comb": (
        "TruncatedPowerSeries", "alpha_b_coefficients", "alpha_diag_derivative",
        "composite_derivative", "composition_sum_oracle", "lemma1_check", "lemma2_check",
        "log_power_coefficients", "root_series_coefficients", "stirling_ineq_check",
        "taylor_remainder_reconstruct",
    ),
    "bang": (
        "BangFunction", "GateError", "bang_derivative", "bang_lower_bound_certify", "class_norm",
        "cp_derivative", "induced_f_derivative", "theorem1_bound",
    ),
    "spec": ("Report", "RunConfig"),
    "verify": ("run_checks",),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
# what `from carleman import *` bound when every layer was imported eagerly
__all__ = [*_EXPORTS, *_LAYER_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so the next lookup is a plain attribute read
    module = importlib.import_module(f"{__name__}.{_LAYER_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_LAYER_OF))

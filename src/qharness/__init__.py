"""Quadratic-harness conditional moments, integrability certificates and
Monte Carlo verification."""

import importlib as _importlib

from .core import (
    HarnessParams,
    covariance,
    double_mean,
    double_var,
    double_var_scale,
    one_sided_mean,
    var_backward,
    var_forward,
)
from .moments import (
    MomentRegion,
    MomentVector,
    TwoPointLaw,
    classify_moment_region,
    hankel3,
    hankel3_closed_form,
    marginal_moments,
    pfail_upper,
    pmax_certified,
    two_point_from_moments,
)
from .certificates import (
    Certificate,
    ChainParams,
    embedding,
    integrability_constant,
    make_certificate,
    optimize_constant,
    replay_certificate,
    tail_recursion_coeffs,
    u_for_order,
)

# simulate and empirics need numpy; they and their names are imported on first
# access (PEP 562), so the analytic entry points start without numpy.
_LAZY = dict.fromkeys(
    ("Ensemble", "ProcessKind", "known_params", "load_ensemble", "read_header",
     "sample_ensemble", "sample_to_container", "save_ensemble"),
    "simulate",
) | dict.fromkeys(
    ("BinnedConditional", "HillEstimate", "PathEmpirics", "TailCurve",
     "check_tail_recursion", "estimate_conditional", "gaussian_pair_tail_curve",
     "hill_tail_index", "path_empirics", "tail_curve"),
    "empirics",
)


def __getattr__(name: str):
    if name in ("simulate", "empirics"):
        return _importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAZY[name]), name)
    return value


__version__ = "0.2.0"

"""Quadratic-harness conditional moments, integrability certificates and
Monte Carlo verification."""

from .core import (
    HarnessParams,
    Variance,
    covariance,
    double_mean,
    double_var,
    double_var_scale,
    one_sided_mean,
    validate_params,
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
    pfail_upper,
    pmax_certified,
    two_point_from_moments,
)
from .certificates import (
    Certificate,
    ChainParams,
    embedding,
    integrability_constant,
    ladder,
    make_certificate,
    moment_lift_check,
    optimize_constant,
    replay_certificate,
    tail_recursion_coeffs,
    u_for_order,
)
from .simulate import (
    Ensemble,
    ProcessKind,
    exact_marginal_moments,
    known_params,
    load_ensemble,
    sample_ensemble,
    save_ensemble,
)
from .empirics import (
    BinnedConditional,
    HillEstimate,
    TailCurve,
    check_tail_recursion,
    conditional_mean_slope,
    estimate_conditional,
    fit_quadratic,
    gaussian_pair_tail_curve,
    hill_tail_index,
    tail_curve,
)

__version__ = "0.1.0"

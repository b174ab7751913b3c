"""Every analytic entry point against the inputs nan, +-inf, -1 and 0.

Each case either raises a ValueError whose message names the input and
shows its value, or returns the value the entry point documents; no case
returns NaN.
"""

import math
from dataclasses import replace

import pytest

from qharness.certificates import (
    embedding,
    integrability_constant,
    make_certificate,
    optimize_constant,
    u_for_order,
)
from qharness.core import (
    HarnessParams,
    covariance,
    double_mean,
    double_var,
    double_var_scale,
    one_sided_mean,
    var_backward,
    var_forward,
)
from qharness.moments import (
    hankel3_closed_form,
    pfail_upper,
    pmax_certified,
    two_point_from_moments,
)
from qharness.simulate import ProcessKind, exact_marginal_moments

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1.0, "0": 0.0}
WIENER = HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0)
NEED_P = r"^need p > 1 and finite, got "


def _params(field, x):
    return getattr(replace(WIENER, **{field: x}), field)


def _time_at(fn, n_times, i):
    """fn called with its i-th of n_times times replaced by x (the others 1, 2, 3)."""
    def call(x):
        times = [1.0, 2.0, 3.0][:n_times]
        times[i] = x
        return fn(*times)
    return call


# (entry, call, message pattern, {value key: documented value} for the accepted inputs)
ENTRIES = [
    *[(f"HarnessParams.{f}", lambda x, f=f: _params(f, x), f"^{f} must be a number",
       {"inf": math.inf, "-inf": -math.inf, "-1": -1.0, "0": 0.0})
      for f in ("eta", "theta", "gamma")],
    # the other quadratic coefficient is 0, so sigma*tau = inf*0 is refused too
    *[(f"HarnessParams.{f}", lambda x, f=f: _params(f, x), rf"\b{f}\b", {"0": 0.0})
      for f in ("sigma", "tau")],
    *[(f"{fn.__name__}.{'stu'[i]}", _time_at(call, n, i),
       f"^{'stu'[i]} must be positive and finite", {}) for fn, call, n in (
          (covariance, covariance, 2),
          (one_sided_mean, lambda s, t: one_sided_mean("backward", s, t, 1.0), 2),
          (var_forward, lambda s, t: var_forward(WIENER, s, t, 1.0), 2),
          (var_backward, lambda s, t: var_backward(WIENER, s, t, 1.0), 2),
          (double_mean, lambda s, t, u: double_mean(s, t, u, 0.0, 1.0), 3),
          (double_var_scale, lambda s, t, u: double_var_scale(WIENER, s, t, u), 3),
          (double_var, lambda s, t, u: double_var(WIENER, s, t, u, 0.0, 1.0), 3),
      ) for i in range(n)],
    ("hankel3_closed_form.t", lambda x: hankel3_closed_form(WIENER, x),
     "^t must be positive and finite", {}),
    ("two_point_from_moments.t", lambda x: two_point_from_moments(x, 0.0),
     "^t must be positive and finite", {}),
    ("two_point_from_moments.m3", lambda x: two_point_from_moments(1.0, x).moment(3),
     "^m3 must be finite", {"-1": pytest.approx(-1.0), "0": 0.0}),
    ("exact_marginal_moments.t", lambda x: exact_marginal_moments(ProcessKind("gamma"), x).m2,
     "^t must be positive and finite", {}),
    ("pmax_certified.sigma", lambda x: pmax_certified(x, 1.0), "^sigma and tau must be >= 0",
     {"inf": 0.0, "0": math.inf}),
    ("pmax_certified.tau", lambda x: pmax_certified(1.0, x), "^sigma and tau must be >= 0",
     {"inf": 0.0, "0": math.inf}),
    ("pmax_certified.sigma_tau0", lambda x: pmax_certified(x, 0.0), "sigma",
     {"0": math.inf}),
    ("pfail_upper.sigma", lambda x: pfail_upper(x, 1.0), "^sigma and tau must be >= 0",
     {"inf": 2.0, "0": math.inf}),
    ("pfail_upper.tau", lambda x: pfail_upper(1.0, x), "^sigma and tau must be >= 0",
     {"inf": 2.0, "0": math.inf}),
    ("pfail_upper.sigma_tau0", lambda x: pfail_upper(x, 0.0), "sigma", {"0": math.inf}),
    ("u_for_order.p", u_for_order, NEED_P, {}),
    ("integrability_constant.paper.p", lambda x: integrability_constant("paper", x), NEED_P, {}),
    ("integrability_constant.exact.p", lambda x: integrability_constant("exact", x), NEED_P, {}),
    ("make_certificate.p", lambda x: make_certificate(x).constant, NEED_P, {}),
    ("make_certificate.u", lambda x: make_certificate(4.0, contraction_rule="exact", u=x).constant,
     r"^u = 1 - rho must lie in \(0, 1\)", {}),
    ("optimize_constant.p", lambda x: optimize_constant(x).constant, NEED_P, {}),
    ("optimize_constant.rho.p", lambda x: optimize_constant(x, ["exact-k", "rho"]).constant,
     NEED_P, {}),
    ("embedding.sigma", lambda x: embedding(x, 1.0, 0.2).delta, "sigma", {}),
    ("embedding.tau", lambda x: embedding(1.0, x, 0.2).delta, "tau", {}),
]

CASES = [
    pytest.param(call, VALUES[key], documented.get(key, pattern), id=f"{entry}={key}")
    for entry, call, pattern, documented in ENTRIES
    for key in VALUES
]


@pytest.mark.parametrize("call, x, outcome", CASES)
def test_analytic_input(call, x, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome) as info:
            call(x)
        assert str(x) in str(info.value)
    else:
        got = call(x)
        assert got == outcome and not math.isnan(got)


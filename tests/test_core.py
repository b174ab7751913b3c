import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qharness.core import (
    HarnessParams,
    covariance,
    double_mean,
    double_var,
    double_var_scale,
    one_sided_mean,
    var_backward,
    var_backward_coeffs,
    var_forward,
)

WIENER = HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0)
POISSON = HarnessParams(0.0, 1.0, 0.0, 0.0, 1.0)
GAMMA = HarnessParams(0.0, 2.0, 0.0, 1.0, 1.0)

times = st.floats(min_value=1e-3, max_value=1e3)
states = st.floats(min_value=-50.0, max_value=50.0)


class TestHarnessParams:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            HarnessParams(0.0, 0.0, -1.0, 0.0, 1.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            HarnessParams(0.0, 0.0, 0.0, -0.5, 1.0)

    def test_non_finite_refused_when_built(self):
        with pytest.raises(ValueError, match="^eta must be a number, got nan$"):
            HarnessParams(math.nan, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="^theta must be finite, got inf$"):
            HarnessParams(0.0, math.inf, 0.0, 0.0, 1.0)
        # sigma*tau = inf is a number, but sigma = inf is not finite
        with pytest.raises(ValueError, match="^sigma must be finite, got inf$"):
            HarnessParams(0.0, 0.0, math.inf, 1.0, 1.0)


class TestCovariance:
    @pytest.mark.parametrize("s,t,expected", [(0.5, 1.0, 0.5), (2.0, 2.0, 2.0), (3.0, 1.5, 1.5)])
    def test_examples(self, s, t, expected):
        assert covariance(s, t) == expected

    @given(times, times)
    def test_symmetric(self, s, t):
        assert covariance(s, t) == covariance(t, s)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            covariance(0.0, 1.0)
        with pytest.raises(ValueError):
            covariance(1.0, -2.0)


class TestOneSidedMean:
    def test_forward_is_martingale(self):
        assert one_sided_mean("forward", 0.5, 1.0, 1.7) == 1.7

    @pytest.mark.parametrize("s,t,x,expected", [(0.5, 1.0, 2.0, 1.0), (1.0, 4.0, -2.0, -0.5)])
    def test_backward(self, s, t, x, expected):
        assert one_sided_mean("backward", s, t, x) == expected

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            one_sided_mean("forward", 1.0, 1.0, 0.0)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            one_sided_mean("sideways", 0.5, 1.0, 0.0)


class TestVarForward:
    @given(states)
    def test_wiener_state_free(self, x):
        assert var_forward(WIENER, 0.25, 1.0, x) == pytest.approx(0.75)

    def test_quadratic_term(self):
        p = HarnessParams(0.0, 0.0, 1.0, 0.0, 1.0)
        assert var_forward(p, 1.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_vanishing_bracket(self):
        p = HarnessParams(1.0, 0.0, 0.0, 0.0, 1.0)
        res = var_forward(p, 0.5, 1.0, -1.0)
        assert res == pytest.approx(0.0) and res >= 0

    def test_negative_value_kept(self):
        p = HarnessParams(10.0, 0.0, 0.0, 0.0, 1.0)
        assert var_forward(p, 0.5, 1.0, -1.0) == -4.5

    @given(st.floats(0.0, 5.0), st.floats(-3.0, 3.0), times)
    def test_law_of_total_variance(self, sigma, eta, s):
        # averaging the bracket over X_s with mean 0, second moment s gives
        # 1 + sigma*s, cancelling the prefactor denominator: E Var = t - s
        t = s + 1.0
        p = HarnessParams(eta, 0.0, sigma, 0.0, 1.0)
        prefactor = var_forward(p, s, t, 0.0)
        assert prefactor * (1.0 + sigma * s) == pytest.approx(t - s, rel=1e-12)


class TestVarBackward:
    def test_binomial_bridge_point(self):
        assert var_backward(POISSON, 0.5, 1.0, 1.0) == pytest.approx(0.5)

    def test_beta_bridge_point(self):
        p = HarnessParams(0.0, 2.0, 0.0, 1.0, 1.0)
        assert var_backward(p, 0.5, 1.0, 0.0) == pytest.approx(0.125)

    @given(states)
    def test_wiener_state_free(self, x):
        assert var_backward(WIENER, 0.5, 1.0, x) == pytest.approx(0.25)

    @given(st.floats(0.0, 5.0), st.floats(-3.0, 3.0), times)
    def test_law_of_total_variance(self, tau, theta, s):
        t = 2.0 * s
        p = HarnessParams(0.0, theta, 0.0, tau, 1.0)
        prefactor = var_backward(p, s, t, 0.0)
        assert prefactor * (1.0 + tau / t) == pytest.approx(s * (t - s) / t, rel=1e-12)

    @given(st.floats(0.0, 5.0), st.floats(-3.0, 3.0), times, states)
    def test_coefficients_give_the_variance(self, tau, theta, s, x):
        p = HarnessParams(0.0, theta, 0.0, tau, 1.0)
        c0, c1, c2 = var_backward_coeffs(p, s, 2.0 * s)
        assert c0 + c1 * x + c2 * x * x == pytest.approx(var_backward(p, s, 2.0 * s, x),
                                                         rel=1e-12, abs=1e-12 * c0)

    def test_coefficients_need_s_below_t(self):
        with pytest.raises(ValueError, match="need s < t"):
            var_backward_coeffs(GAMMA, 1.0, 1.0)


class TestDoubleMean:
    def test_left_endpoint(self):
        assert double_mean(0.5, 0.5, 1.5, 3.0, 9.0) == 3.0

    def test_midpoint(self):
        assert double_mean(0.5, 1.0, 1.5, 0.0, 2.0) == pytest.approx(1.0)

    def test_hand_weights(self):
        assert double_mean(0.5, 0.75, 1.5, 1.0, 0.0) == pytest.approx(0.75)

    @given(times, st.floats(0.0, 1.0), states, states)
    def test_interpolates(self, s, frac, x_s, x_u):
        u = s + 1.0
        t = s + frac * (u - s)
        val = double_mean(s, t, u, x_s, x_u)
        lo, hi = min(x_s, x_u), max(x_s, x_u)
        assert lo - 1e-9 <= val <= hi + 1e-9
        assert double_mean(s, u, u, x_s, x_u) == pytest.approx(x_u)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            double_mean(1.0, 0.5, 1.5, 0.0, 0.0)


class TestDoubleVarScale:
    def test_gamma_one(self):
        assert double_var_scale(WIENER, 0.5, 1.0, 1.5) == pytest.approx(0.25)

    def test_gamma_minus_one(self):
        p = HarnessParams(0.0, 0.0, 0.0, 0.0, -1.0)
        assert double_var_scale(p, 0.5, 1.0, 1.5) == pytest.approx(0.125)

    def test_tau_shift(self):
        p = HarnessParams(0.0, 0.0, 0.0, 1.0, 1.0)
        assert double_var_scale(p, 0.5, 1.0, 1.5) == pytest.approx(0.125)

    def test_nonpositive_denominator_rejected(self):
        p = HarnessParams(0.0, 0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="denominator"):
            double_var_scale(p, 0.5, 1.0, 1.5)

    @given(times, st.floats(0.0, 1.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(-1.0, 1.0))
    def test_nonnegative_when_admissible(self, s, frac, sigma, tau, gamma):
        u = s + 1.0
        t = s + frac * (u - s)
        p = HarnessParams(0.0, 0.0, sigma, tau, gamma)
        if u * (1.0 + s * sigma) + tau - s * gamma > 0:
            assert double_var_scale(p, s, t, u) >= 0.0


class TestDoubleVar:
    @given(states, states)
    def test_brownian_bridge_reduction(self, x_s, x_u):
        res = double_var(WIENER, 0.5, 1.0, 1.5, x_s, x_u)
        assert res == pytest.approx(0.25)

    def test_vanishes_at_endpoint(self):
        assert double_var(GAMMA, 0.5, 0.5, 1.5, 1.0, 2.0) == 0.0

    def test_poisson_bridge_point(self):
        # bridge count N_u - N_s = 2 thinned at probability 1/2: variance 1/2
        res = double_var(POISSON, 0.5, 1.0, 1.5, 0.0, 1.0)
        assert res == pytest.approx(0.5)


# Parameters whose variance brackets go negative at some states, so the
# values of both signs are exercised.
SIGNED = HarnessParams(3.0, 3.0, 1.0, 1.0, -0.5)
STATES = [-4.0, -2.6, -1.5, -1.0, -0.4, 0.0, 0.3, 1.0, 2.5, 7.0]
X_U = [3.0, -2.0, 0.5, 1.0, -1.0, 0.0, 4.0, -3.5, 2.0, -0.3]


@pytest.mark.parametrize(
    "evaluate, signed",
    [
        (lambda x, y: one_sided_mean("forward", 0.5, 1.5, x), False),
        (lambda x, y: one_sided_mean("backward", 0.5, 1.5, x), False),
        (lambda x, y: var_forward(SIGNED, 0.5, 1.5, x), True),
        (lambda x, y: var_backward(SIGNED, 0.5, 1.5, x), True),
        (lambda x, y: double_mean(0.5, 1.0, 2.0, x, y), False),
        (lambda x, y: double_var(SIGNED, 0.5, 1.0, 2.0, x, y), True),
    ],
    ids=["mean_forward", "mean_backward", "var_forward", "var_backward",
         "double_mean", "double_var"],
)
def test_array_state_matches_scalar_calls(evaluate, signed):
    scalar = [evaluate(x, y) for x, y in zip(STATES, X_U)]
    vector = evaluate(np.array(STATES), np.array(X_U))
    if signed:  # a negative variance comes back as it is
        assert min(scalar) < 0.0 <= max(scalar)
    assert all(type(v) is float for v in scalar)
    assert isinstance(vector, np.ndarray) and vector.shape == (len(STATES),)
    assert np.array_equal(vector, scalar)

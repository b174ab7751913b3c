import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from qharness.core import KINDS, HarnessParams
from qharness.moments import (
    MomentVector,
    classify_moment_region,
    hankel3,
    hankel3_closed_form,
    harness_two_point,
    marginal_moments,
    pfail_upper,
    pmax_certified,
    two_point_from_moments,
)
from qharness.simulate import ProcessKind, known_params

from conftest import kind_of, levy_moments


def hankel3_det(m: MomentVector) -> float:
    # independent oracle: LAPACK's LU determinant (hankel3 expands cofactors)
    return float(np.linalg.det([[m.m0, m.m1, m.m2], [m.m1, m.m2, m.m3], [m.m2, m.m3, m.m4]]))


def random_moment_vectors(rng: np.random.Generator, n: int) -> list[MomentVector]:
    out = []
    for _ in range(n):
        m1 = rng.normal(0.0, 1.5)
        m2 = m1 * m1 + abs(rng.normal(0.0, 2.0)) + 1e-6
        m3 = rng.normal(0.0, 4.0)
        m4 = m2 * m2 + abs(rng.normal(0.0, 8.0)) + 1e-6
        out.append(MomentVector(1.0, m1, m2, m3, m4))
    return out


class TestMomentVector:
    def test_m0_must_be_one(self):
        with pytest.raises(ValueError):
            MomentVector(2.0, 0.0, 1.0, 0.0, 3.0)

    def test_cauchy_schwarz_m2(self):
        with pytest.raises(ValueError):
            MomentVector(1.0, 2.0, 1.0, 0.0, 3.0)

    def test_cauchy_schwarz_m4(self):
        with pytest.raises(ValueError):
            MomentVector(1.0, 0.0, 2.0, 0.0, 1.0)


class TestHankel3:
    def test_gaussian_moments(self):
        assert hankel3(MomentVector(1, 0, 1, 0, 3)) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_two_point_singular(self):
        assert hankel3(MomentVector(1, 0, 1, 0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_against_cofactor_oracle(self):
        m = MomentVector(1.0, 0.0, 1.2, 0.3, 4.0)
        assert hankel3(m) == pytest.approx(hankel3_det(m), rel=1e-12)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(1234)
        for m in random_moment_vectors(rng, 2000):
            scale = max(1.0, np.prod([np.linalg.norm(r) for r in (
                (m.m0, m.m1, m.m2), (m.m1, m.m2, m.m3), (m.m2, m.m3, m.m4))]))
            assert abs(hankel3(m) - hankel3_det(m)) <= 1e-12 * scale

    @given(st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
    def test_two_point_law_is_singular(self, t, m3):
        law = two_point_from_moments(t, m3 * t)
        assert abs(hankel3(law.moment_vector())) <= 1e-10 * max(1.0, t**3)


class TestClosedForm:
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 0.5), st.floats(0, 0.5), st.floats(0.1, 5))
    def test_zero_on_gamma_minus_one(self, eta, theta, sigma, tau, t):
        p = HarnessParams(eta, theta, sigma, tau, -1.0)
        assert abs(hankel3_closed_form(p, t)) <= 1e-12

    def test_wiener_matches_determinant_at_t_one(self):
        p = HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0)
        assert hankel3_closed_form(p, 1.0) == 2.0
        assert hankel3(MomentVector(1, 0, 1, 0, 3)) == pytest.approx(2.0, abs=1e-12)

    def test_linear_params_point(self):
        p = HarnessParams(1.0, 1.0, 0.0, 0.0, 0.0)
        assert hankel3_closed_form(p, 1.0) == pytest.approx(2.0)

    def test_wiener_disagrees_off_t_one(self):
        # the printed expression gives 2t, the actual determinant 2t^3: the
        # identity is asserted at t=1 only
        p = HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0)
        t = 2.0
        assert hankel3_closed_form(p, t) == pytest.approx(2.0 * t)
        det = hankel3(MomentVector(1, 0, t, 0, 3 * t * t))
        assert det == pytest.approx(2.0 * t**3, rel=1e-12)

    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize("kind", [kind_of(name) for name in KINDS], ids=lambda k: k.name)
    def test_determinant_is_t_squared_times_closed_form(self, kind, t):
        det = hankel3(levy_moments(kind, t))
        closed = hankel3_closed_form(known_params(kind), t)
        assert det == pytest.approx(t * t * closed, rel=1e-15)

    def test_vanishing_denominator_rejected(self):
        p = HarnessParams(0.0, 0.0, 1.0, 0.5, 0.0)  # 1 - (2+0)*0.5 = 0
        with pytest.raises(ValueError, match="denominator"):
            hankel3_closed_form(p, 1.0)


class TestTwoPoint:
    def test_symmetric(self):
        law = two_point_from_moments(1.0, 0.0)
        assert (law.atom_lo, law.atom_hi) == (-1.0, 1.0)
        assert law.weight_lo == pytest.approx(0.5) and law.weight_hi == pytest.approx(0.5)

    def test_skewed_golden_ratio(self):
        law = two_point_from_moments(1.0, 1.0)
        assert law.atom_hi == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)
        assert law.atom_lo == pytest.approx(-(math.sqrt(5) - 1) / 2, rel=1e-12)
        assert law.weight_hi == pytest.approx(0.27639320225, rel=1e-9)
        assert law.weight_lo == pytest.approx(0.72360679774, rel=1e-9)

    def test_symmetric_wide(self):
        law = two_point_from_moments(4.0, 0.0)
        assert (law.atom_lo, law.atom_hi) == (-2.0, 2.0)

    @given(st.floats(0.05, 20.0), st.floats(-5.0, 5.0))
    def test_round_trip(self, t, skew):
        m3 = skew * t
        law = two_point_from_moments(t, m3)
        assert law.moment(1) == pytest.approx(0.0, abs=1e-10 * max(1.0, t))
        assert law.moment(2) == pytest.approx(t, rel=1e-10)
        assert law.moment(3) == pytest.approx(m3, rel=1e-10, abs=1e-10 * max(1.0, t) ** 2)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            two_point_from_moments(0.0, 1.0)

    def test_small_atom_keeps_its_digits(self):
        # a - b = m3/t cancels in the small atom unless it is t / (large atom)
        assert two_point_from_moments(1.0, 1e8).atom_lo == pytest.approx(-1e-8, rel=1e-15)
        law = two_point_from_moments(1.0, -1e9)
        assert law.atom_hi == pytest.approx(1e-9, rel=1e-15)
        assert law.weight_lo == pytest.approx(1e-18, rel=1e-15) and law.weight_hi == 1.0

    @given(st.floats(1e-3, 1e3), st.floats(-12.0, 12.0), st.sampled_from([-1.0, 1.0]))
    def test_round_trip_at_extreme_skew(self, t, log_skew, sign):
        # |m3| / t^1.5 from 1e-12 to 1e12, both signs; a and b to 1e-14 of their
        # own size, m3 to 1e-14 of the size of the two terms it is the sum of
        m3 = sign * 10.0**log_skew * t**1.5
        law = two_point_from_moments(t, m3)
        a, b = law.atom_hi, -law.atom_lo
        assert a * b == pytest.approx(t, rel=1e-14)
        assert a - b == pytest.approx(m3 / t, abs=1e-14 * (a + b))
        assert law.moment(2) == pytest.approx(t, rel=1e-14)
        terms = law.weight_lo * b**3 + law.weight_hi * a**3
        assert law.moment(3) == pytest.approx(m3, abs=1e-14 * terms)
        assert law.weight_lo + law.weight_hi == pytest.approx(1.0, abs=1e-15)

    def test_moment_past_the_float_range_is_inf(self):
        # atoms -1e-150 and 1e150 with weight 1e-300 on the large one: m4 is
        # 1e300, although 1e150**4 alone overflows; m6 = 1e600 is inf
        law = two_point_from_moments(1.0, 1e150)
        assert law.moment(4) == pytest.approx(1e300, rel=1e-15)
        assert law.moment(6) == math.inf
        assert two_point_from_moments(1.0, -1e150).moment(6) == math.inf

    def test_negative_moment_order_refused(self):
        law = two_point_from_moments(1.0, 1.0)
        assert law.moment(0) == 1.0
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            law.moment(-1)

    def test_harness_law_has_the_marginal_moments(self):
        p = HarnessParams(-0.4, 0.7, 0.5, 0.9, -1.0)
        m3, law = harness_two_point(p, 2.0)
        assert m3 == marginal_moments(p, 2.0).m3
        assert law == two_point_from_moments(2.0, m3)

    def test_harness_law_refused_where_the_atoms_shrink(self):
        with pytest.raises(ValueError, match="no gamma = -1 harness has these parameters"):
            harness_two_point(HarnessParams(1.0, -2.0, 0.0, 0.0, -1.0), 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_t_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            two_point_from_moments(t, 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            hankel3_closed_form(HarnessParams(0.0, 0.0, 0.0, 0.0, 0.0), t)


class TestThresholds:
    def test_fourth_moment_threshold_exact(self):
        assert pmax_certified(1 / 921600) == 4.0

    def test_paper_threshold_pairs(self):
        assert pmax_certified(1 / 230400) == pytest.approx(2.0)
        assert pmax_certified(0.0) == math.inf
        assert pmax_certified(0.0, 5.0) == math.inf

    def test_pfail_values(self):
        assert pfail_upper(1.0) == 3.0
        assert pfail_upper(0.25) == 4.0
        assert pfail_upper(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pmax_certified(-1.0)
        with pytest.raises(ValueError):
            pfail_upper(1.0, -1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="sigma and tau must be >= 0, got nan"):
            pmax_certified(math.nan)
        with pytest.raises(ValueError, match="sigma and tau must be >= 0, got 1.0, nan"):
            pfail_upper(1.0, math.nan)

    def test_depends_only_on_product(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sigma, tau = rng.uniform(1e-4, 10.0, size=2)
            assert pmax_certified(sigma, tau) == pytest.approx(pmax_certified(tau, sigma), rel=1e-12)
            assert pmax_certified(sigma, tau) == pytest.approx(pmax_certified(sigma * tau, 1.0), rel=1e-12)

    def test_certified_below_failure_threshold(self):
        for st_prod in np.linspace(0.01, 1.0, 100):
            assert pmax_certified(st_prod) < pfail_upper(st_prod)


class TestRegionClassifier:
    def test_product_one_is_outside(self):
        assert classify_moment_region(HarnessParams(0, 0, 1, 1, 1)).region == "outside"

    def test_small_product_near_gamma_one(self):
        r = classify_moment_region(HarnessParams(0, 0, 0.01, 0.01, 1.0))
        assert r.region == "finite-order"
        assert r.bound == pytest.approx(102.0)

    def test_gamma_minus_one_always_all_orders(self):
        r = classify_moment_region(HarnessParams(0, 0, 0.01, 0.01, -1.0))
        assert r.region == "all-orders" and r.bound == math.inf

    def test_shared_edge_is_boundary(self):
        st_root = 2 * math.sqrt(0.01 * 0.01)
        r = classify_moment_region(HarnessParams(0, 0, 0.01, 0.01, 1.0 - st_root))
        assert r.region == "boundary"

    def test_degenerate_product_all_orders(self):
        assert classify_moment_region(HarnessParams(0, 0, 0, 0, 0.5)).region == "all-orders"

    def test_far_gamma_outside(self):
        assert classify_moment_region(HarnessParams(0, 0, 0.01, 0.01, 5.0)).region == "outside"

    @pytest.mark.parametrize("sigma, tau, gamma, reason", [
        (0.0, 0.0, 1.0, None),  # Wiener
        (0.0, 0.0, -1.5, "gamma=-1.5 below -1"),
        (1.0, 1.0, 5.0, "gamma=5.0 above 1+2*sqrt(sigma*tau)=3.0"),
        (1.0, 1.0, 1.0, "sigma*tau=1.0 not below 1"),
        (2.0, 1.0, 0.0, "sigma*tau=2.0 not below 1"),
        # the all-orders window [-1, 1 - 2*sqrt(sigma*tau)] is the point -1 at
        # sigma*tau = 1, where no harness exists (the two-point law too
        # needs sigma*tau below 1)
        (1.0, 1.0, -1.0, "sigma*tau=1.0 not below 1"),
        (0.5, 2.0, -1.0, "sigma*tau=1.0 not below 1"),
    ])
    def test_reason(self, sigma, tau, gamma, reason):
        r = classify_moment_region(HarnessParams(0.0, 0.0, sigma, tau, gamma))
        if reason is None:
            assert r.region != "outside" and r.reason is None
        else:
            assert r.region == "outside"
            assert r.reason == f"{reason}: outside the classified region"

    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(-3.0, 6.0))
    def test_reason_exactly_when_outside(self, sigma, tau, gamma):
        r = classify_moment_region(HarnessParams(0.0, 0.0, sigma, tau, gamma))
        assert (r.reason is not None) == (r.region == "outside")
        # below sigma*tau = 1 a point is outside through gamma, or in the
        # windows at and past the pole of the Hankel closed form
        if r.reason is not None and sigma * tau < 1.0:
            past_pole = (-1.0 < gamma <= 1.0 + 2.0 * math.sqrt(sigma * tau)
                         and (2.0 + gamma) * (sigma * tau) >= 1.0)
            assert r.reason.startswith("(2+gamma)*sigma*tau = " if past_pole else f"gamma={gamma} ")

    @pytest.mark.parametrize("params, reason", [
        # F = two_point_factor < 0 at sigma*tau = 0: 1 + eta*theta = -1
        ((2.0, -1.0, 0.0, 0.0, 1.0),
         "(1-sigma*tau)^2 + (eta+sigma*theta)(theta+tau*eta) = -1.0 is negative"),
        ((2.0, -1.0, 0.0, 0.0, -1.0),
         "(1-sigma*tau)^2 + (eta+sigma*theta)(theta+tau*eta) = -1.0 is negative"),
        # the pole of the closed form, and past it in the finite-order window
        ((0.0, 0.0, 0.25, 1.0, 2.0), "(2+gamma)*sigma*tau = 1.0 is not below 1"),
        ((0.0, 0.0, 0.4, 1.0, 1.0), "(2+gamma)*sigma*tau = 1.2000000000000002 is not below 1"),
    ])
    def test_no_fourth_moment_is_outside(self, params, reason):
        p = HarnessParams(*params)
        r = classify_moment_region(p)
        assert (r.region, r.bound) == ("outside", None)
        assert r.reason == f"{reason}: outside the classified region"
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{reason}: no harness with these parameters has a finite fourth moment") + "$"):
            marginal_moments(p, 1.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 3.0), st.floats(0.01, 100.0))
    def test_negative_closed_form_only_past_order_four(self, sigma, tau, gamma, t):
        # at eta = theta = 0, F = (1 - sigma*tau)^2 > 0, so inside the windows
        # the closed form is negative only past its pole: (2+gamma)*sigma*tau > 1
        # with gamma <= 1 + 2*sqrt(sigma*tau) forces sigma*tau > 1/4, where
        # pfail_upper = 2 + 1/sqrt(sigma*tau) < 4 (the float sqrt may round it
        # to 4.0 just above 1/4)
        assume(sigma * tau < 1.0 and gamma <= 1.0 + 2.0 * math.sqrt(sigma * tau))
        p = HarnessParams(0.0, 0.0, sigma, tau, gamma)
        assume((2.0 + gamma) * (sigma * tau) != 1.0)  # the pole itself raises
        if hankel3_closed_form(p, t) < 0.0:
            assert sigma * tau > 0.25 and pfail_upper(sigma, tau) <= 4.0
            assert classify_moment_region(p).region == "outside"

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma and tau must be >= 0"):
            classify_moment_region(HarnessParams(0, 0, math.nan, 0.01, 1.0))

    @pytest.mark.parametrize("st", [(0.01, 0.01), (0.0, 0.0)])
    def test_nan_gamma_rejected(self, st):
        with pytest.raises(ValueError, match="^gamma must be a number, got nan$"):
            classify_moment_region(HarnessParams(0, 0, *st, math.nan))

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf])
    def test_infinite_gamma_refused(self, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {gamma}$"):
            HarnessParams(0, 0, 0.01, 0.01, gamma)


PASCAL_Q = (0.03, 0.5)
ORACLE_KINDS = [kind_of(name) for name in KINDS if name != "pascal"] + [
    ProcessKind("pascal", q) for q in PASCAL_Q]


class TestMarginalMoments:
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 3.0, 7.5, 10.0, 40.0])
    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=lambda k: f"{k.name}-{k.q}")
    def test_match_levy_cumulants(self, kind, t):
        got, want = marginal_moments(known_params(kind), t), levy_moments(kind, t)
        assert (got.m0, got.m1, got.m2) == (1.0, 0.0, t)
        assert got.m3 == pytest.approx(want.m3, rel=1e-15, abs=0.0)
        assert got.m4 == pytest.approx(want.m4, rel=1e-15)

    def test_exact_at_one(self):
        want = {"wiener": [0, 1, 0, 3], "poisson": [0, 1, 1, 4], "gamma": [0, 1, 2, 9]}
        for name, moments in want.items():
            mv = marginal_moments(known_params(kind_of(name)), 1.0)
            assert [mv.m1, mv.m2, mv.m3, mv.m4] == moments

    @pytest.mark.parametrize("sigma, tau", [(1.0, 1.0), (2.0, 0.75), (4.0, 1.0)])
    def test_sigma_tau_at_least_one_refused(self, sigma, tau):
        with pytest.raises(ValueError, match=f"^sigma\\*tau must be below 1, got {sigma * tau}$"):
            marginal_moments(HarnessParams(0.0, 0.0, sigma, tau, -1.0), 1.0)

    def test_gamma_below_minus_one_refused(self):
        with pytest.raises(ValueError, match="^gamma=-1.5 below -1: no harness with these "
                                             "parameters has a finite fourth moment$"):
            marginal_moments(HarnessParams(0.0, 0.0, 0.0, 0.0, -1.5), 1.0)

    def test_hankel_positivity(self):
        for kind in ORACLE_KINDS:
            for t in (0.25, 0.5, 1.0, 2.0, 5.0):
                assert hankel3(marginal_moments(known_params(kind), t)) >= -1e-10

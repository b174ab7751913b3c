import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qharness.certificates import (
    Certificate,
    ChainParams,
    SearchStats,
    _constant_closed_form,
    _k_power,
    embedding,
    integrability_constant,
    make_certificate,
    optimize_constant,
    replay_certificate,
    tail_recursion_coeffs,
    u_for_order,
)

# the optimize knob sets of the benchmark's analytic sweep
KNOB_SETS = ("exact-k", "exact-k,rho", "exact-k,exact-margin,rho",
             "exact-k,exact-margin,rho,split")

orders = st.floats(min_value=1.01, max_value=500.0)

# a certificate recorded when the split weight was a parameter, at w = 0.5
SPLIT_HALF_JSON = (
    '{"p": 6.0, "rho": 0.9, "rho_tied": false, "delta": 0.0015340121072459818, '
    '"delta_rule": "margin-64", "contraction_rule": "exact", "split_w": 0.5, '
    '"K": 1.2222222222222223, "A": 1.0, "B": 1.0, "c1": 20800.00000000002, '
    '"c2": 6817.96079032393, "q": 0.24544193715935714, "constant": 186.2529535226224, '
    '"valid": true, "failed_step": null, "steps": ['
    '{"name": "rho-lower", "lhs": 0.5, "rhs": 0.9, "pass": true}, '
    '{"name": "rho-upper", "lhs": 0.9, "rhs": 1.0, "pass": true}, '
    '{"name": "delta-nonnegative", "lhs": 0.0, "rhs": 0.0015340121072459818, "pass": true}, '
    '{"name": "delta-margin", "lhs": 0.0015340121072459818, "rhs": 0.0015624999999999997, '
    '"pass": true}, '
    '{"name": "split-admissible", "lhs": 0.0002761221793042767, "rhs": 0.005422314049586775, '
    '"pass": true}, '
    '{"name": "quadratic-absorption", "lhs": 0.00013806108965213834, '
    '"rhs": 0.00013806108965213834, "pass": true}, '
    '{"name": "contraction", "lhs": 0.9999999999990905, "rhs": 1.0, "pass": true}]}'
)


class TestRhoAndK:
    @pytest.mark.parametrize("p,rho", [(3.0, 0.75), (9.0, 0.9)])
    def test_rho_examples(self, p, rho):
        assert 1 - u_for_order(p) == pytest.approx(rho)

    def test_rho_boundary_rejected(self):
        with pytest.raises(ValueError):
            u_for_order(1.0)

    @pytest.mark.parametrize("rho,k", [(0.75, 5 / 3), (1.0, 1.0), (0.5, 3.0)])
    def test_k_examples(self, rho, k):
        assert _k_power(1 - rho, 3.0)[0] == pytest.approx(k)

    @given(orders)
    def test_composition_identity(self, p):
        assert _k_power(u_for_order(p), p)[0] == pytest.approx((p + 2.0) / p, rel=1e-12)

    def test_k_power_bounded_and_decreasing(self):
        ps = np.logspace(math.log10(1.01), 4, 200)
        powers = [_k_power(u_for_order(p), p)[0] ** (p + 1.0) for p in ps]
        assert all(v < 2.0 * math.e**2 for v in powers)
        assert all(a > b for a, b in zip(powers, powers[1:]))
        assert powers[-1] > math.e**2  # decreasing toward e^2 from above


class TestEmbedding:
    def test_equal_coefficients(self):
        emb = embedding(2.0, 2.0, 1 - 0.75)
        assert emb.s == pytest.approx(0.75) and emb.t == pytest.approx(4 / 3)

    def test_delta(self):
        assert embedding(1.0, 1.0, 1 - 0.75).delta == pytest.approx(2.0)

    @pytest.mark.parametrize("sigma, tau, delta", [(1e200, 1e200, 2e200),
                                                   (1e-200, 1e-200, 2e-200),
                                                   (1e300, 1e100, 2e200)])
    def test_delta_where_product_leaves_float_range(self, sigma, tau, delta):
        # sigma*tau overflows or underflows; delta = 2*sqrt(sigma*tau) does not
        emb = embedding(sigma, tau, 1 - 0.75)
        assert emb.delta == pytest.approx(delta, rel=1e-15, abs=0.0)

    @given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.floats(0.501, 0.999))
    def test_correlation_recovered(self, sigma, tau, rho):
        emb = embedding(sigma, tau, 1 - rho)
        assert emb.check_rho == pytest.approx(rho, abs=1e-14)
        assert emb.s < emb.t

    def test_degenerate_product_rejected(self):
        with pytest.raises(ValueError):
            embedding(0.0, 1.0, 1 - 0.75)

    @pytest.mark.parametrize("u", [0.0, 0.5, -0.1])
    def test_u_out_of_range_rejected(self, u):
        with pytest.raises(ValueError, match=r"u = 1 - rho must lie in \(0, 1/2\)"):
            embedding(1.0, 1.0, u)

    @pytest.mark.parametrize("p", [1e16, 3e16, 1e20])
    def test_tied_order_where_rho_rounds_to_one(self, p):
        # 1 - u is still below 1 at p = 1e16 and rounds to 1 at the larger orders
        u = u_for_order(p)
        emb = embedding(2.0, 2.0, u)
        assert emb.s <= emb.t
        assert emb.check_rho == pytest.approx(1 - u, abs=1e-15)

    @pytest.mark.parametrize("sigma, tau", [(1e-300, 1e300), (1e300, 1e-300),
                                            (math.inf, 1.0), (1.0, math.inf)])
    def test_ratio_outside_float_range_rejected(self, sigma, tau):
        # tau/sigma overflows (s = t = inf) or underflows (s = t = 0)
        with pytest.raises(ValueError, match=r"^sigma = \S+ and tau = \S+ put the embedding"):
            embedding(sigma, tau, 1 - 0.75)


class TestTailRecursionCoeffs:
    def test_q_value(self):
        chain = ChainParams(p=3.0, u=1 - 0.75, delta=0.001, K=_k_power(1 - 0.75, 3.0)[0])
        tb = tail_recursion_coeffs(chain)
        assert tb.q == pytest.approx(0.032)
        assert tb.valid

    def test_zero_delta(self):
        chain = ChainParams(p=3.0, u=1 - 0.75, delta=0.0, K=_k_power(1 - 0.75, 3.0)[0])
        tb = tail_recursion_coeffs(chain)
        assert tb.q == 0.0 and tb.valid
        assert math.isfinite(tb.c1) and math.isfinite(tb.c2)

    def test_underflowing_delta_takes_the_zero_delta_split(self):
        # delta*rho*u underflows to 0: the split falls back to a_max, as at delta = 0
        # (the split a = sqrt(2*delta*rho*u) would be 0 and c2 infinite)
        zero, tiny = (tail_recursion_coeffs(ChainParams(p=2.0, u=1 / 3, delta=d, K=2.0))
                      for d in (0.0, 5e-324))
        assert tiny.valid and (tiny.c1, tiny.c2, tiny.a_split) == (zero.c1, zero.c2, zero.a_split)
        assert make_certificate(2.0, contraction_rule="exact", delta=5e-324).valid

    def test_margin_boundary_invalid(self):
        rho = 0.75
        chain = ChainParams(p=3.0, u=1 - rho, delta=(1 - rho) / 64,
                            K=_k_power(1 - rho, 3.0)[0])
        tb = tail_recursion_coeffs(chain)
        assert not tb.valid and tb.failed_step == "delta-margin"

    def test_explicit_coefficients_at_default_split(self):
        a_big, b_lin = 2.5, 0.7
        rho, delta = 0.8, 0.001
        u = 1.0 - rho
        chain = ChainParams(p=4.0, u=1 - rho, delta=delta, K=_k_power(1 - rho, 4.0)[0],
                            A=a_big, B=b_lin)
        tb = tail_recursion_coeffs(chain)
        assert tb.c1 == pytest.approx(4 * a_big / u**2 + 2 * a_big / u**4, rel=1e-12)
        a_split = math.sqrt(2 * delta * rho * u)
        assert tb.c2 == pytest.approx(4 * b_lin / u**2 + b_lin / (a_split * u**2), rel=1e-12)
        assert tb.q == pytest.approx(8 * delta / u, rel=1e-12)

    def test_rho_out_of_range_invalid(self):
        chain = ChainParams(p=3.0, u=1 - 0.4, delta=0.0, K=_k_power(1 - 0.4, 3.0)[0])
        tb = tail_recursion_coeffs(chain)
        assert not tb.valid and tb.failed_step == "rho-lower"

    @pytest.mark.parametrize("rho, delta, a_big, b_lin", [
        (0.75, 0.001, 1.0, 1.0), (0.8, 0.001, 2.5, 0.7), (0.9, 0.0015, 1.0, 1.0),
        (0.999, 1e-6, 0.3, 0.0),
    ])
    def test_pinned_weight_bit_identical_to_general_form(self, rho, delta, a_big, b_lin):
        # the general-weight expressions at w^2 = 1/2, written as before the
        # weight was pinned: halving is exact, so the values agree bit for bit
        chain = ChainParams(p=4.0, u=1 - rho, delta=delta, K=_k_power(1 - rho, 4.0)[0],
                            A=a_big, B=b_lin)
        tb = tail_recursion_coeffs(chain)
        u, w2 = 1.0 - rho, 0.5
        assert tb.c1 == 2.0 * a_big / (w2 * u * u) + 2.0 * a_big / u**4
        assert tb.c2 == 2.0 * b_lin / (w2 * u * u) + (
            0.0 if b_lin == 0.0 else b_lin / (tb.a_split * u * u))
        assert tb.q == 4.0 * delta / (w2 * u)

    @pytest.mark.parametrize("field", ["A", "B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_coefficient_named(self, field, value):
        chain = ChainParams(p=4.0, u=0.2, delta=0.001, K=_k_power(0.2, 4.0)[0], **{field: value})
        with pytest.raises(ValueError, match=f"A and B must be finite and >= 0, got .*{field}={value}"):
            tail_recursion_coeffs(chain)
        with pytest.raises(ValueError, match=f"{field}={value}"):
            make_certificate(4.0, contraction_rule="exact", **{field: value})

    def test_unknown_margin_rule_rejected(self):
        chain = ChainParams(p=3.0, u=1 - 0.75, delta=0.001, K=_k_power(1 - 0.75, 3.0)[0])
        with pytest.raises(ValueError, match="margin_rule must be one of"):
            tail_recursion_coeffs(chain, margin_rule="margin-32")
        with pytest.raises(ValueError, match="margin_rule must be one of"):
            make_certificate(4.0, contraction_rule="exact", margin_rule="margin-32")


def lift_step(p: float, delta: float, rule: str):
    """The one-order moment-lift contraction step of the certificate at (p, delta)."""
    step = make_certificate(p, contraction_rule=rule, delta=delta).steps[-1]
    assert step.name == "contraction"
    return step


class TestMomentLift:
    def test_printed_condition_pass(self):
        step = lift_step(3.0, 0.002, "paper")
        assert step.passed and step.lhs == pytest.approx(0.96)

    def test_printed_condition_boundary_fails(self):
        step = lift_step(3.0, 1.0 / 480.0, "paper")
        assert step.lhs == pytest.approx(1.0) and not step.passed

    def test_exact_coefficient(self):
        # at delta = 1 the contraction value is the coefficient 8(p+1)K^(p+1)
        step = lift_step(4.0, 1.0, "exact")
        assert step.lhs == pytest.approx(8 * 5 * 1.5**5)
        assert step.lhs == 303.75

    @pytest.mark.parametrize("p", [3.0, 128.0, 4229.0, 1e8, 1e12, 1e15, 1e16, 3e16])
    def test_exact_coefficient_accurate_at_every_order(self, p):
        # 8(p+1)K^(p+1) with K = (p+2)/p, against 50-digit decimal arithmetic
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = decimal.Decimal(p)
            want = 8 * (d + 1) * ((d + 2) / d) ** (d + 1)
        got = lift_step(p, 1.0, "exact").lhs
        assert got == pytest.approx(float(want), rel=1e-15)

    @given(orders, st.floats(0.0, 0.01))
    def test_printed_pass_implies_exact_pass(self, p, delta):
        paper = lift_step(p, delta, "paper")
        exact = lift_step(p, delta, "exact")
        if paper.passed:
            assert exact.passed
        assert exact.lhs <= paper.lhs + 1e-12


class TestIntegrabilityConstant:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0, 100.0])
    def test_printed_constant(self, p):
        assert integrability_constant("paper", p) == 240.0

    def test_exact_p4(self):
        assert integrability_constant("exact", 4.0) == 128.0

    @given(orders)
    def test_exact_never_above_printed(self, p):
        assert integrability_constant("exact", p) <= 240.0

    @given(orders)
    def test_exact_closed_form(self, p):
        k = (p + 2.0) / p
        assert integrability_constant("exact", p) == pytest.approx(
            max(16.0 * k ** (p + 1.0), 128.0), rel=1e-12
        )

    def test_limit_is_margin_bound(self):
        # 16 K^(p+1) decreases toward 16 e^2 < 128, so the margin wins
        assert integrability_constant("exact", 1e6) == 128.0


class TestCertificates:
    def test_paper_certificate(self):
        cert = make_certificate(4.0, contraction_rule="paper")
        assert cert.constant == 240.0 and cert.valid and cert.failed_step is None
        u = cert.chain.u
        assert cert.q == pytest.approx(8 * cert.chain.delta / u, rel=1e-12)

    def test_exact_certificate(self):
        cert = make_certificate(4.0, contraction_rule="exact")
        assert cert.constant == 128.0 and cert.valid

    def test_valid_implies_contraction_below_one(self):
        for p in (2.5, 3.0, 4.0, 8.0, 40.0):
            for rule in ("paper", "exact"):
                cert = make_certificate(p, contraction_rule=rule)
                assert cert.valid and cert.q < 1.0
                names = [s.name for s in cert.steps]
                assert names[-1] == "contraction" and cert.steps[-1].passed

    def test_delta_beyond_margin_invalid(self):
        cert = make_certificate(4.0, contraction_rule="exact", delta=0.1)
        assert not cert.valid and cert.failed_step == "delta-margin"

    def test_json_round_trip(self):
        cert = make_certificate(8.0, contraction_rule="exact", margin_rule="margin-exact")
        blob = json.dumps(cert.to_json_dict())
        assert Certificate.from_json_dict(json.loads(blob)) == cert

    def test_replay_identical(self):
        for kwargs in (
            {"contraction_rule": "paper"},
            {"contraction_rule": "exact"},
            {"contraction_rule": "exact", "margin_rule": "margin-exact"},
            {"contraction_rule": "exact", "u": 1 - 0.9},
        ):
            cert = make_certificate(6.0, **kwargs)
            assert replay_certificate(cert) == cert

    def test_recorded_split_weight_does_not_replay(self):
        # the weight is no longer a parameter: a certificate recorded at
        # w = 0.5 replays at the pinned w = 1/sqrt(2) and must not match
        recorded = Certificate.from_json_dict(json.loads(SPLIT_HALF_JSON))
        replayed = replay_certificate(recorded)
        assert replayed != recorded
        assert recorded.c1 == pytest.approx(20800.0) and replayed.c1 == pytest.approx(20400.0)

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    @pytest.mark.parametrize("p", [16399.0, 1e5, 1e7, 1e8, 1e10, 1e12, 1e15])
    def test_tied_valid_at_large_orders(self, p, mode):
        # the witness stays inside every step when the chain carries u = 1/(p+1)
        cert = make_certificate(p, contraction_rule=mode)
        assert cert.valid, cert.failed_step
        assert replay_certificate(cert) == cert

    @pytest.mark.parametrize("mode, constant", [("paper", 240.0), ("exact", 128.0)])
    @pytest.mark.parametrize("p", [1e16, 3e16, 1e20, 1e76])
    def test_tied_constant_exact_where_rho_rounds_to_one(self, p, mode, constant):
        cert = make_certificate(p, contraction_rule=mode)
        assert cert.valid, cert.failed_step
        assert cert.constant == constant
        assert replay_certificate(cert) == cert

    @pytest.mark.parametrize("mode", ["paper", "exact"])
    @pytest.mark.parametrize("p", [1e77, 1e100])
    def test_coefficients_beyond_float_range_rejected(self, p, mode):
        # c1 = 4A/u^2 + 2A/u^4 overflows (and u^4 underflows to 0 further out)
        with pytest.raises(ValueError, match=re.escape(f"p={p}")):
            make_certificate(p, contraction_rule=mode)

    def test_json_records_u(self):
        # rho rounds at this order, so only the recorded u replays the optimum
        cert = optimize_constant(1e16, ["exact-k", "rho"])
        d = json.loads(json.dumps(cert.to_json_dict()))
        assert d["u"] == cert.chain.u and d["rho"] == 1.0 - cert.chain.u
        assert Certificate.from_json_dict(d) == cert
        assert replay_certificate(Certificate.from_json_dict(d)) == cert

    def test_json_without_u_reads_one_minus_rho(self):
        cert = make_certificate(6.0, contraction_rule="exact", u=1 - 0.9)
        d = cert.to_json_dict()
        del d["u"]
        assert Certificate.from_json_dict(d) == cert

    def test_tied_valid_for_every_integer_order(self):
        invalid = [
            (p, mode)
            for p in range(2, 20_001)
            for mode in ("paper", "exact")
            if not make_certificate(float(p), contraction_rule=mode).valid
        ]
        assert invalid == []

    def test_paper_rule_requires_default_rho(self):
        with pytest.raises(ValueError):
            make_certificate(4.0, contraction_rule="paper", u=1 - 0.9)

    def test_gaussian_pair_chain(self):
        # exactly-correlated Gaussian pair: A = 1 - rho^2, B = 0, delta = 0
        for rho in (0.6, 0.75, 0.9):
            cert = make_certificate(
                3.0, contraction_rule="exact", u=1 - rho, A=1 - rho**2, B=0.0, delta=0.0
            )
            assert cert.valid
            u = 1.0 - rho
            expect_c1 = 4 * (1 - rho**2) / u**2 + 2 * (1 - rho**2) / u**4
            assert cert.c1 == pytest.approx(expect_c1, rel=1e-12)
            assert cert.c2 == 0.0 and cert.q == 0.0


class TestOptimizer:
    def test_empty_knobs_reproduces_printed_constant(self):
        cert = optimize_constant(4.0, [])
        assert cert.constant == 240.0 and cert.valid

    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0, 16.0, 32.0])
    def test_exact_k_knob(self, p):
        cert = optimize_constant(p, ["exact-k"])
        assert cert.valid and cert.constant < 240.0
        assert replay_certificate(cert) == cert

    @pytest.mark.parametrize("p", [16.0, 32.0])
    def test_exact_margin_drops_below_128(self, p):
        cert = optimize_constant(p, ["exact-k", "exact-margin"])
        assert cert.valid and cert.constant < 128.0

    def test_free_rho_improves(self):
        base = optimize_constant(8.0, ["exact-k", "exact-margin"])
        freed = optimize_constant(8.0, ["exact-k", "exact-margin", "rho"])
        assert freed.valid and freed.constant < base.constant
        assert replay_certificate(freed) == freed

    def test_split_knob_stays_at_boundary(self):
        # the split weight is capped at 1/sqrt(2) and the constant improves
        # monotonically toward it, so freeing it cannot beat the default
        tied = optimize_constant(8.0, ["exact-k", "exact-margin", "rho"])
        freed = optimize_constant(8.0, ["exact-k", "exact-margin", "rho", "split"])
        assert freed.constant <= tied.constant + 1e-9
        assert "split_w" not in freed.to_json_dict()

    def test_deterministic(self):
        a = optimize_constant(5.0, ["exact-k", "exact-margin", "rho", "split"])
        b = optimize_constant(5.0, ["exact-k", "exact-margin", "rho", "split"])
        assert a == b

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            optimize_constant(4.0, ["turbo"])


class TestExactOptimum:
    """The closed-form optimum: rho* or the margin crossing rho_x."""

    @pytest.mark.parametrize("p", [3.0, 8.0, 32.0, 128.0])
    @pytest.mark.parametrize("margin_rule, knobs", [
        ("margin-64", ["exact-k", "rho"]),
        ("margin-exact", ["exact-k", "exact-margin", "rho"]),
    ])
    def test_not_above_dense_scan(self, p, margin_rule, knobs):
        cert = optimize_constant(p, knobs)
        scan = min(
            _constant_closed_form(p, 1 - float(r), margin_rule, "exact")
            for r in np.linspace(0.5, 1.0, 100_001)[1:-1]
        )
        assert cert.valid and replay_certificate(cert) == cert
        assert cert.constant <= scan * (1.0 + 1e-12)

    @pytest.mark.parametrize("knobs, limit", [
        (["exact-k", "rho"], 256.0 / math.log(8.0)),
        (["exact-k", "exact-margin", "rho"], 32.0 * math.e),
    ])
    def test_large_order_limit(self, knobs, limit):
        cert = optimize_constant(1e6, knobs)
        assert cert.valid
        assert cert.constant == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("p", [1e8, 1e12, 1e15, 1e16, 3e16])
    @pytest.mark.parametrize("knobs, limit", [
        (["exact-k", "rho"], 256.0 / math.log(8.0)),
        (["exact-k", "exact-margin", "rho"], 32.0 * math.e),
    ])
    def test_limit_reached_at_large_orders(self, p, knobs, limit):
        cert = optimize_constant(p, knobs)
        assert cert.valid and replay_certificate(cert) == cert
        assert cert.constant == pytest.approx(limit, rel=1e-12)

    @pytest.mark.parametrize("p", [1000.0, 1e6])
    @pytest.mark.parametrize("knobs", KNOB_SETS)
    def test_large_order_valid(self, p, knobs):
        cert = optimize_constant(p, knobs.split(","))
        assert cert.valid and replay_certificate(cert) == cert
        assert cert.constant <= integrability_constant("exact", p) * (1.0 + 1e-12)

    @pytest.mark.parametrize("knobs", [[], ["exact-k", "rho"]])
    def test_order_at_most_one_rejected(self, knobs):
        with pytest.raises(ValueError, match="need p > 1"):
            optimize_constant(0.5, knobs)

    def test_overflow_is_value_error(self):
        with pytest.raises(ValueError, match=r"p=1000\.0, rho=0\.52"):
            make_certificate(1000.0, contraction_rule="exact", u=1 - 0.52)

    @pytest.mark.parametrize("p, u", [(np.float64(1e6), 0.01), (1e6, np.float64(0.01)),
                                      (np.float64(1e6), np.float64(0.01))])
    def test_overflow_with_numpy_scalars_is_value_error(self, p, u):
        # a numpy scalar's power overflows to inf with a RuntimeWarning where a
        # Python float's raises; both must end in the ValueError naming p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"p=1000000\.0, rho=0\.99"):
                make_certificate(p, contraction_rule="exact", u=u)

    def test_numpy_scalars_give_the_float_certificate(self):
        cert = make_certificate(np.float64(8.0), contraction_rule="exact", u=np.float64(0.1))
        assert cert == make_certificate(8.0, contraction_rule="exact", u=0.1)

    @pytest.mark.parametrize("p", [4.0, 8.0, 128.0])
    @pytest.mark.parametrize("knobs", KNOB_SETS)
    def test_split_knob_changes_nothing(self, p, knobs):
        base = knobs.split(",")
        freed = optimize_constant(p, base + ["split"])
        assert freed == optimize_constant(p, [k for k in base if k != "split"])
        assert "split_w" not in freed.to_json_dict()

    @pytest.mark.parametrize("knobs, evaluations", [
        ([], 1), (["exact-k"], 1), (["exact-k", "exact-margin", "rho"], 2),
        (["exact-k", "rho"], 3),
    ])
    def test_evaluations_counted(self, knobs, evaluations):
        stats = SearchStats()
        optimize_constant(16.0, knobs, stats=stats)
        assert stats == SearchStats(evaluations)


class TestLiftMonotoneInOrder:
    """Lifting one order at a time is implied: along p0 - k, ..., p0 - 1, p0
    (k = ceil(p0 - 2), so the lowest rung is at most 2) the contraction value
    never decreases, so the certificate at p0 covers every rung below it."""

    @pytest.mark.parametrize("rule", ["paper", "exact"])
    @pytest.mark.parametrize("p0", [4.5, 16.0, 128.0, 1e4])
    def test_contraction_never_decreases(self, p0, rule):
        rungs = [p0 - k for k in range(math.ceil(p0 - 2.0), -1, -1)]
        values = [lift_step(p, 1e-6, rule).lhs for p in rungs]
        assert rungs[0] <= 2.0 and rungs[-1] == p0
        assert all(a <= b for a, b in zip(values, values[1:]))


def student_certificate(nu: float, rho: float, **kwargs) -> Certificate | None:
    """The certificate for order nu (lifting past p = nu - 1) of the
    standardized bivariate Student t pair with nu degrees of freedom and
    correlation rho, or None where K^nu overflows (which certifies nothing).

    Var(X | Y) = A + (1 - rho^2) Y^2/(nu - 1) with A = (1 - rho^2)(nu - 2)/(nu - 1)
    (Kotz & Nadarajah 2004, Multivariate t Distributions), so the pair meets
    the hypothesis with B = 0 and delta = (1 + rho)/(rho (nu - 1)).
    """
    try:
        return make_certificate(nu - 1.0, A=(1.0 - rho * rho) * (nu - 2.0) / (nu - 1.0),
                                B=0.0, delta=(1.0 + rho) / (rho * (nu - 1.0)), **kwargs)
    except ValueError as err:
        assert "overflows" in str(err)
        return None


class TestHeavyTailedSoundness:
    """The Student t pair meets the hypothesis exactly, yet E|X|^nu = inf: a
    sound chain never certifies order nu for it.  Its contraction step is
    q K^nu = 8 delta K^nu/u > 16 e^(2x)/x >= 32e with x = u nu, whatever
    the margin step says."""

    @given(st.floats(3.0, 1e6), st.floats(0.5, 1.0 - 1e-6, exclude_min=True),
           st.sampled_from(["margin-64", "margin-exact"]))
    def test_order_nu_never_certified(self, nu, rho, margin_rule):
        cert = student_certificate(nu, rho, contraction_rule="exact",
                                   margin_rule=margin_rule, u=1.0 - rho)
        assert cert is None or not cert.valid and cert.steps[-1].lhs > 32.0 * math.e

    @pytest.mark.parametrize("nu", [3.0, 4.5, 10.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("rule, floor", [("paper", 240.0), ("exact", 32.0 * math.e)])
    @pytest.mark.parametrize("margin_rule", ["margin-64", "margin-exact"])
    def test_tied_order_never_certified(self, nu, rule, floor, margin_rule):
        # the tied u = 1/(p+1) = 1/nu; the paper's step is 120 delta nu > 240
        cert = student_certificate(nu, 1.0 - 1.0 / nu, contraction_rule=rule,
                                   margin_rule=margin_rule)
        assert not cert.valid and cert.chain.u == 1.0 / nu and cert.steps[-1].lhs > floor

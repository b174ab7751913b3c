"""Explicit-constant certificates for the moment-integrability chain.

The chain certifies finiteness of moments of order p+1 for a pair of
standardized variables (X, Y) whose conditional second moments satisfy

    E((X - rho*Y)^2 | Y) <= A + B|Y| + (1-rho)*rho*delta*Y^2      (and X <-> Y)

with correlation rho in (1/2, 1) and a small quadratic coefficient delta.
Writing N(t) = Pr(|X| > t) + Pr(|Y| > t) and K = 2/rho - 1, the tail
recursion

    N(K t) <= (c1/t^2 + c2/t + q) N(t),        q = 8*delta/(1 - rho)

holds whenever delta < (1-rho)/64; a change of variables then lifts
integrability one order provided the contraction q * K^(p+1) < 1.  For a
harness with quadratic coefficients sigma, tau the two time points
s = rho*sqrt(tau/sigma), t = sqrt(tau/sigma)/rho realize exactly this setup
with delta = 2*sqrt(sigma*tau), so the chain certifies a constant c with

    p + 1 <= 1 / (c * sqrt(sigma*tau))   =>   E|X_t|^(p+1) < inf.

The printed chain gives c = 240.  This module makes every inequality of the
chain explicit and machine-checkable, evaluates the sharp variants (exact
K^(p+1) instead of the rounded bound 2e^2, the exact split admissibility
instead of the 1/64 margin), and finds the smallest constant the same proof
structure supports.  That constant is max(contraction, margin), a function
of u = 1 - rho alone, and its minimiser has a closed form (see
``optimize_constant``): the stationary point u* = 1/((p+1) + sqrt((p+1)^2 + 1))
of the contraction term, or, under the 1/64 margin, the crossing
u_x = tanh(ln(8)/(2(p+1))) of the two terms; as p -> inf the optimum tends to
256/ln 8 (1/64 margin) and 32e (exact margin).  The chain carries u, not rho,
from the order-tied default u = 1/(p+1) (``u_for_order``) through the
embedding: rho rounds away the digits of u that K^(p+1) amplifies p-fold.

Certificate semantics: the certified ``constant`` is computed in closed
form; the recorded inequality steps are evaluated at a witness
delta = delta_max * (1 - 2^-40) strictly inside the certified range, since
the contraction is a strict inequality while the certified conclusion is
stated for the closed range (the usual closure gloss).  Only q affects the
constant; c1 and c2 merely have to be finite and explicit so that empirical
tail checks can use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "ChainParams",
    "Step",
    "TailBound",
    "Certificate",
    "SearchStats",
    "u_for_order",
    "embedding",
    "tail_recursion_coeffs",
    "integrability_constant",
    "make_certificate",
    "replay_certificate",
    "optimize_constant",
]

_PAPER_CONSTANT = 240.0  # the constant of the printed chain

# Witness nudge: inequality steps are recorded just inside the certified range.
_WITNESS = 1.0 - 2.0**-40

_MARGIN_RULES = ("margin-64", "margin-exact")
_CONTRACTION_RULES = ("paper", "exact")


def u_for_order(p: float) -> float:
    """Order-tied u = 1 - rho = 1/(p+1) for lifting moments of order p; needs a finite p > 1."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"need p > 1 and finite, got {p}")
    return 1.0 / (p + 1.0)


class Embedding(NamedTuple):
    s: float
    t: float
    delta: float
    check_rho: float


def embedding(sigma: float, tau: float, u: float) -> Embedding:
    """Two time points whose standardized pair has correlation rho = 1 - u.

    s = rho*sqrt(tau/sigma), t = sqrt(tau/sigma)/rho place X_s/sqrt(s) and
    X_t/sqrt(t) at correlation sqrt(s/t) = rho, with quadratic tail
    coefficient delta = 2*sqrt(sigma*tau), formed as 2*sqrt(sigma)*sqrt(tau)
    so that it stays finite and non-zero where sigma*tau leaves the float
    range.  Taking u keeps the embedding defined where rho rounds to 1 (from
    about p = 2e16 at the tied u = 1/(p+1)): s and t then round to the same
    time and check_rho reads 1.
    Undefined for sigma*tau = 0 (nothing needs certifying there), and
    rejected where tau/sigma leaves the float range (s or t not finite and
    positive), which also covers an infinite sigma or tau.
    """
    if not (sigma > 0.0 and tau > 0.0):
        raise ValueError(f"sigma and tau must be > 0, got {sigma}, {tau}")
    if not (0.0 < u < 0.5):
        raise ValueError(f"u = 1 - rho must lie in (0, 1/2), got {u}")
    rho = 1.0 - u
    base = math.sqrt(tau / sigma)
    s = rho * base
    t = base / rho
    if not (0.0 < s and t < math.inf):
        raise ValueError(
            f"sigma = {sigma} and tau = {tau} put the embedding times outside the "
            f"float range: s = {s}, t = {t} (tau/sigma must be finite and positive)"
        )
    return Embedding(s, t, 2.0 * math.sqrt(sigma) * math.sqrt(tau), math.sqrt(s / t))


@dataclass(frozen=True)
class ChainParams:
    """Free parameters of one pass through the chain.

    u = 1 - rho carries the correlation, delta is the quadratic tail
    coefficient, K the tail-scaling factor, and A, B the affine coefficients.
    """

    p: float
    u: float
    delta: float
    K: float
    A: float = 1.0
    B: float = 1.0


@dataclass(frozen=True)
class Step:
    """One recorded inequality: lhs (<)= rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class TailBound:
    """Explicit coefficients of the tail recursion N(Kt) <= (c1/t^2+c2/t+q) N(t)."""

    c1: float
    c2: float
    q: float
    a_split: float
    valid: bool
    failed_step: str | None
    steps: tuple[Step, ...]


def tail_recursion_coeffs(chain: ChainParams, *, margin_rule: str = "margin-64") -> TailBound:
    """Explicit (c1, c2, q) with the hypothesis checks that certify them.

    With u = 1 - rho, the overlap-split weight pinned at w = 1/sqrt(2) and
    escape-split coefficient a:

        c1 = 4A/u^2 + 2A/u^4
        c2 = 4B/u^2 + B/(a u^2)
        q  = 8*delta/u

    For a general weight w the first terms read 2A/(w^2 u^2), 2B/(w^2 u^2)
    and q = 4*delta/(w^2 u); q decreases in w and the event split needs
    w <= 1/sqrt(2), so the boundary is the only weight worth using.

    The two-stage bookkeeping is the standard one: the escape events spill
    at most (1/2) N(Kt), which is absorbed and the remaining coefficients
    doubled.  The escape-split coefficient is a = sqrt(2*delta*rho*(1-rho))
    for delta > 0 (absorption ratio exactly 1/2); where delta*rho*(1-rho) is 0
    that choice degenerates, so the maximal admissible
    a_max = rho^2(1-rho)/(2-rho) is used instead, keeping c2 finite.  Hypothesis violations yield ``valid=False``
    with the first failing step recorded; c1 or c2 beyond floats is a ValueError.
    """
    if margin_rule not in _MARGIN_RULES:
        raise ValueError(f"margin_rule must be one of {_MARGIN_RULES}, got {margin_rule!r}")
    u, delta, A, B = chain.u, chain.delta, chain.A, chain.B
    if not (0.0 < u < 1.0):
        raise ValueError(f"u = 1 - rho must lie in (0, 1), got {u}")
    if not (0.0 <= A < math.inf and 0.0 <= B < math.inf):
        raise ValueError(f"A and B must be finite and >= 0, got A={A}, B={B}")

    rho = 1.0 - u
    a_max = rho * rho * u / (2.0 - rho)
    # The split coefficient is compared in squared form: a^2 = 2*delta*rho*u
    # exactly, so the absorption ratio delta*rho*u / (a^2/2) is exactly 1 and
    # no sqrt round-trip can flip the comparisons by an ulp.
    prod = delta * rho * u
    a_sq = 2.0 * prod if prod > 0.0 else a_max * a_max
    a = math.sqrt(a_sq)

    steps = [
        Step("rho-lower", 0.5, rho, 0.5 < rho),
        Step("rho-upper", 0.0, u, 0.0 < u),
        Step("delta-nonnegative", 0.0, delta, 0.0 <= delta),
    ]
    if margin_rule == "margin-64":
        steps.append(Step("delta-margin", delta, u / 64.0, delta < u / 64.0))
    else:
        bound = rho**4 * u / (2.0 - rho) ** 2
        steps.append(Step("delta-margin", 2.0 * rho * delta, bound, 2.0 * rho * delta < bound))
    steps.append(Step("split-admissible", a_sq, a_max * a_max, a_sq <= a_max * a_max))
    steps.append(Step("quadratic-absorption", prod, 0.5 * a_sq, prod <= 0.5 * a_sq))

    try:
        c1 = 4.0 * A / (u * u) + 2.0 * A / u**4
        c2 = 4.0 * B / (u * u) + (0.0 if B == 0.0 else B / (a * u * u))
    except ZeroDivisionError:  # u**4 or a*u*u underflowed to 0
        c1 = c2 = math.inf
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise ValueError(f"c1 or c2 leaves the float range at p={chain.p}, u={u}")
    q = 8.0 * delta / u

    failed = next((s.name for s in steps if not s.passed), None)
    return TailBound(c1, c2, q, a, failed is None, failed, tuple(steps))


def _k_power(u: float, p: float) -> tuple[float, float]:
    """K = 1 + x, x = 2u/(1-u), and K^(p+1), restoring the exact rounding error
    d = x - (k-1) of k = 1 + x that k^(p+1) alone would amplify p-fold (where k
    is exact, d = 0 and this is k^(p+1)).  Overflow is a ValueError naming p;
    u and p are taken as Python floats, whose power raises on overflow where a
    numpy scalar's gives inf."""
    u, p = float(u), float(p)
    x = 2.0 * u / (1.0 - u)
    k = 1.0 + x
    d = x - (k - 1.0)
    try:
        return k, k ** (p + 1.0) * math.exp((p + 1.0) * math.log1p(d / k))
    except OverflowError:
        raise ValueError(f"K^(p+1) overflows at p={p}, rho={1.0 - u}") from None


def integrability_constant(mode: str, p: float) -> float:
    """Smallest c certified by the chain: moments of order p+1 are finite
    whenever (p+1)*sqrt(sigma*tau) <= 1/c.

    paper mode returns the printed 240 for every p.  exact mode evaluates the
    chain's two binding inequalities sharply at the default u = 1/(p+1):
    max(16*K^(p+1), 128) = 128 for p >= 2, the second term coming from the
    delta-margin requirement 2*sqrt(sigma*tau) < u/64.
    """
    return _constant_closed_form(p, None, "margin-64", mode)


@dataclass(frozen=True)
class Certificate:
    """An explicit-constant certificate with its replayable inequality steps."""

    chain: ChainParams
    c1: float
    c2: float
    q: float
    constant: float
    valid: bool
    failed_step: str | None
    steps: tuple[Step, ...]
    delta_rule: str = "margin-64"
    contraction_rule: str = "paper"
    rho_tied: bool = True

    def to_json_dict(self) -> dict:
        return {
            "p": self.chain.p,
            "rho": 1.0 - self.chain.u,
            "u": self.chain.u,
            "rho_tied": self.rho_tied,
            "delta": self.chain.delta,
            "delta_rule": self.delta_rule,
            "contraction_rule": self.contraction_rule,
            "K": self.chain.K,
            "A": self.chain.A,
            "B": self.chain.B,
            "c1": self.c1,
            "c2": self.c2,
            "q": self.q,
            "constant": self.constant,
            "valid": self.valid,
            "failed_step": self.failed_step,
            "steps": [
                {"name": s.name, "lhs": s.lhs, "rhs": s.rhs, "pass": s.passed}
                for s in self.steps
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certificate":
        # certificates recorded before u was written carry rho alone
        u = d["u"] if "u" in d else 1.0 - d["rho"]
        chain = ChainParams(p=d["p"], u=u, delta=d["delta"], K=d["K"], A=d["A"], B=d["B"])
        steps = tuple(
            Step(s["name"], s["lhs"], s["rhs"], s["pass"]) for s in d["steps"]
        )
        return cls(
            chain=chain,
            c1=d["c1"],
            c2=d["c2"],
            q=d["q"],
            constant=d["constant"],
            valid=d["valid"],
            failed_step=d["failed_step"],
            steps=steps,
            delta_rule=d["delta_rule"],
            contraction_rule=d["contraction_rule"],
            rho_tied=d["rho_tied"],
        )


def _constant_closed_form(
    p: float, u: float | None, margin_rule: str, contraction_rule: str
) -> float:
    """Certified constant max(contraction part, margin part), in closed form.

    Both parts carry the denominator u(p+1), which is 1 at the tied
    u = 1/(p+1): the headline constants come out bit-exact at every order.
    """
    tied = u_for_order(p)  # checks p > 1 for an explicit u too
    if contraction_rule not in _CONTRACTION_RULES:
        raise ValueError(
            f"contraction_rule must be one of {_CONTRACTION_RULES}, got {contraction_rule!r}"
        )
    if u is None:
        u, denom = tied, 1.0
    elif 0.0 < u < 1.0:
        denom = u * (p + 1.0)
    else:
        raise ValueError(f"u = 1 - rho must lie in (0, 1), got {u}")
    r = 1.0 - u

    if contraction_rule == "paper":
        c_contr = _PAPER_CONSTANT
    else:
        c_contr = 16.0 * _k_power(u, p)[1] / denom

    if margin_rule == "margin-64":
        c_margin = 128.0 / denom
    else:
        c_margin = 4.0 * (2.0 - r) ** 2 / (r**3) / denom

    return max(c_contr, c_margin)


def make_certificate(
    p: float,
    *,
    contraction_rule: str = "paper",
    margin_rule: str = "margin-64",
    u: float | None = None,
    A: float = 1.0,
    B: float = 1.0,
    delta: float | None = None,
) -> Certificate:
    """Build and validate a certificate for lifting moments past order p.

    u = 1 - rho defaults to the order-tied 1/(p+1) (pass an explicit value,
    exact for rho in [1/2, 1], only with exact contraction; the printed bound
    is only valid for the default).  When ``delta`` is given, the chain is
    checked at that value (e.g. delta = 0 for an exactly-correlated Gaussian
    pair); otherwise the steps are recorded at the witness just inside the
    certified range.  A ValueError names p when K^(p+1), c1 or c2 overflows.
    The last step is the one-order lift: 120*delta*(p+1) < 1 (paper) or
    q*K^(p+1) < 1 (exact), never decreasing in p at fixed delta, so it also
    covers the orders p-1, p-2, ... below p.
    """
    if contraction_rule == "paper" and u is not None:
        raise ValueError("the printed contraction bound applies only to the default rho")

    constant = _constant_closed_form(p, u, margin_rule, contraction_rule)
    chain_u = u_for_order(p) if u is None else u
    k, k_pow = _k_power(chain_u, p)
    if delta is None:
        delta = (2.0 / (constant * (p + 1.0))) * _WITNESS

    chain = ChainParams(p=p, u=chain_u, delta=delta, K=k, A=A, B=B)
    tb = tail_recursion_coeffs(chain, margin_rule=margin_rule)

    if contraction_rule == "paper":
        contr_value = _PAPER_CONSTANT / 2.0 * delta * (p + 1.0)
    else:
        contr_value = tb.q * k_pow
    contr = Step("contraction", contr_value, 1.0, contr_value < 1.0)

    steps = tb.steps + (contr,)
    failed = next((s.name for s in steps if not s.passed), None)
    return Certificate(
        chain=chain,
        c1=tb.c1,
        c2=tb.c2,
        q=tb.q,
        constant=constant,
        valid=failed is None,
        failed_step=failed,
        steps=steps,
        delta_rule=margin_rule,
        contraction_rule=contraction_rule,
        rho_tied=u is None,
    )


def replay_certificate(cert: Certificate) -> Certificate:
    """Re-derive a certificate from its recorded parameters.

    A valid certificate must replay to an identical one (same coefficients,
    same step margins, same verdict).
    """
    return make_certificate(
        cert.chain.p,
        contraction_rule=cert.contraction_rule,
        margin_rule=cert.delta_rule,
        u=None if cert.rho_tied else cert.chain.u,
        A=cert.chain.A,
        B=cert.chain.B,
        delta=cert.chain.delta,
    )


_KNOBS = ("exact-k", "exact-margin", "rho", "split")


@dataclass
class SearchStats:
    """What one ``optimize_constant`` call spent: certificates evaluated."""

    evaluations: int = 0


def optimize_constant(
    p: float,
    knobs: Iterable[str] = (),
    stats: SearchStats | None = None,
) -> Certificate:
    """Smallest certified constant over the chain's one free parameter, u = 1 - rho.

    Knobs:
      exact-k      evaluate the contraction with the exact K^(p+1)
      exact-margin use the exact split-admissibility margin instead of 1/64
      rho          free the correlation from the order-tied default
      split        accepted and without effect (the split weight is pinned)

    rho only takes effect together with exact-k: the printed contraction
    bound is tied to the default choices, so without exact-k it cannot move
    the constant.  An empty knob set reproduces the printed certificate
    (constant 240).

    With exact-k the constant is max(C(u), M(u)) in u = 1 - rho, where the
    contraction term C(u) = 16*K^(p+1)/(u(p+1)) is log-convex on (0, 1/2)
    with its one stationary point at u* = 1/((p+1) + sqrt((p+1)^2 + 1)).
    The 1/64 margin M(u) = 128/(u(p+1)) decreases in u and meets C where
    K = 8^(1/(p+1)), at u_x = tanh(ln(8)/(2(p+1))) (u = (K-1)/(K+1) =
    tanh(ln(K)/2)), so the optimum is u* or u_x.  Under the exact margin
    C/M = 4(2-rho)^(p-1) rho^(2-p) exceeds 1 for every p > 1, so the optimum
    is u*.  The split weight is not a parameter: ``tail_recursion_coeffs``
    pins it at its boundary 1/sqrt(2), where q is smallest.

    The tied default is evaluated first, then u* (and u_x under the 1/64
    margin), each through ``make_certificate``, so every result carries its
    full step chain, at most three in all; the smallest valid certificate
    wins, ties broken on (constant, rho).  When ``stats`` is given, the
    evaluations used are recorded in it.
    """
    knob_set = frozenset(knobs)
    unknown = knob_set - frozenset(_KNOBS)
    if unknown:
        raise ValueError(f"unknown knobs: {sorted(unknown)}")
    u_for_order(p)  # checks p before the closed-form u* and u_x divide by p + 1
    stats = SearchStats() if stats is None else stats

    contraction_rule = "exact" if "exact-k" in knob_set else "paper"
    margin_rule = "margin-exact" if "exact-margin" in knob_set else "margin-64"
    us: list[float | None] = [None]
    if "rho" in knob_set and contraction_rule == "exact":
        us.append(1.0 / ((p + 1.0) + math.hypot(p + 1.0, 1.0)))
        if margin_rule == "margin-64":
            us.append(math.tanh(math.log(8.0) / (2.0 * (p + 1.0))))

    best = None
    for u in us:
        stats.evaluations += 1
        cert = make_certificate(
            p, contraction_rule=contraction_rule, margin_rule=margin_rule, u=u
        )
        if best is None or cert.valid and (
            not best.valid or (cert.constant, -cert.chain.u) < (best.constant, -best.chain.u)
        ):
            best = cert
    return best

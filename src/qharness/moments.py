"""Hankel-determinant analysis, moment-order thresholds and two-point laws.

The 3x3 Hankel determinant of the first four moments decides whether a
mean-zero law can be supported on more than two points: a vanishing
determinant forces a two-point distribution.  For quadratic harnesses the
determinant has a closed form in the parameters; it vanishes identically on
the hyperplane gamma = -1.

Threshold conventions: +inf is a legitimate value of the threshold
operations (sigma*tau = 0 puts no bound on the moment order), never a
sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import _PAPER_CONSTANT
from .core import HarnessParams, _check_sigma_tau, _check_time

__all__ = [
    "MomentVector",
    "TwoPointLaw",
    "MomentRegion",
    "hankel3",
    "hankel3_closed_form",
    "marginal_moments",
    "two_point_from_moments",
    "pmax_certified",
    "pfail_upper",
    "classify_moment_region",
]

# Slack for the Cauchy-Schwarz checks: moments of exactly-singular laws
# computed in floating point can undershoot the bound by ~1 ulp.
_CS_SLACK = 1e-12


@dataclass(frozen=True)
class MomentVector:
    """Raw moments m0..m4 of one marginal; m0 must be 1."""

    m0: float
    m1: float
    m2: float
    m3: float
    m4: float

    def __post_init__(self) -> None:
        vals = (self.m0, self.m1, self.m2, self.m3, self.m4)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"moments must be finite, got {vals}")
        if self.m0 != 1.0:
            raise ValueError(f"m0 must be 1, got {self.m0}")
        if self.m2 < self.m1**2 - _CS_SLACK * max(1.0, abs(self.m2)):
            raise ValueError(f"m2={self.m2} < m1^2={self.m1 ** 2}")
        if self.m4 < self.m2**2 - _CS_SLACK * max(1.0, abs(self.m4)):
            raise ValueError(f"m4={self.m4} < m2^2={self.m2 ** 2}")


@dataclass(frozen=True)
class TwoPointLaw:
    """A two-atom distribution; atoms ascending, weights summing to one."""

    atom_lo: float
    atom_hi: float
    weight_lo: float
    weight_hi: float

    def __post_init__(self) -> None:
        if not (self.atom_lo < self.atom_hi):
            raise ValueError(f"need atom_lo < atom_hi, got {self.atom_lo}, {self.atom_hi}")
        for w in (self.weight_lo, self.weight_hi):  # the larger may round to 1
            if not (0.0 < w <= 1.0):
                raise ValueError(f"weights must lie in (0,1], got {w}")
        if abs(self.weight_lo + self.weight_hi - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def moment(self, k: int) -> float:
        return self.weight_lo * self.atom_lo**k + self.weight_hi * self.atom_hi**k

    def moment_vector(self) -> MomentVector:
        return MomentVector(1.0, self.moment(1), self.moment(2), self.moment(3), self.moment(4))


def hankel3(m: MomentVector) -> float:
    """Determinant of the moment matrix [[m0,m1,m2],[m1,m2,m3],[m2,m3,m4]].

    Non-negative (up to rounding) for the moments of any probability law.
    Cofactor expansion along the first row, in plain floats.
    """
    return float(m.m0 * (m.m2 * m.m4 - m.m3 * m.m3) - m.m1 * (m.m1 * m.m4 - m.m3 * m.m2)
                 + m.m2 * (m.m1 * m.m3 - m.m2 * m.m2))


def hankel3_closed_form(p: HarnessParams, t: float) -> float:
    """Closed form of the order-3 Hankel determinant of a harness marginal.

    (1+gamma) (t+tau)(1+t*sigma) ((eta*tau+theta)(eta+theta*sigma) + (1-sigma*tau)^2)
    divided by 1-(2+gamma)*sigma*tau.  Identically zero on gamma = -1.

    This is the printed expression, not the determinant itself: for the four
    simulated kinds the determinant of the exact marginal moments equals
    ``t**2 * hankel3_closed_form(known_params(kind), t)`` to 1e-15 at every
    t, so the two agree at t = 1 only (Wiener: 2t against 2t^3).
    """
    _check_time("t", t)
    st = p.sigma * p.tau
    den = 1.0 - (2.0 + p.gamma) * st
    if den == 0.0:
        raise ValueError("denominator 1-(2+gamma)*sigma*tau vanishes")
    num = (
        (1.0 + p.gamma)
        * (t + p.tau)
        * (1.0 + t * p.sigma)
        * ((p.eta * p.tau + p.theta) * (p.eta + p.theta * p.sigma) + (1.0 - st) ** 2)
    )
    return num / den


def marginal_moments(p: HarnessParams, t: float) -> MomentVector:
    """Raw moments of the marginal X_t, fixed by the five parameters (sigma*tau < 1).

    m1 = 0, m2 = t, m3 = ((eta+sigma*theta) t^2 + (theta+tau*eta) t)/(1-sigma*tau)
    from the two one-sided conditional variances, and m4 from the Hankel
    determinant t*m4 - m3^2 - t^3 = t^2 * ``hankel3_closed_form``.
    """
    st = p.sigma * p.tau
    if not st < 1.0:
        raise ValueError(f"sigma*tau must be below 1, got {st}")
    det = t * t * hankel3_closed_form(p, t)
    m3 = ((p.eta + p.sigma * p.theta) * t * t + (p.theta + p.tau * p.eta) * t) / (1.0 - st)
    return MomentVector(1.0, 0.0, t, m3, (det + m3 * m3 + t**3) / t)


def two_point_from_moments(t: float, m3: float) -> TwoPointLaw:
    """The unique two-point law with mean 0, variance t and third moment m3.

    Atoms a > 0 > -b solve a*b = t and a - b = m3/t; the weights are b/(a+b)
    and a/(a+b).  The larger atom is formed by a sum and the smaller as t
    divided by it, so neither cancels however skewed the law; at m3 = 0 both
    are the rounded sqrt(t).  Always solvable for finite t > 0 and finite m3.
    """
    _check_time("t", t)
    if not math.isfinite(m3):
        raise ValueError(f"m3 must be finite, got {m3}")
    d = m3 / t
    big = 0.5 * (abs(d) + math.hypot(d, 2.0 * math.sqrt(t)))
    small = t / big if d else big
    a, b = (big, small) if d >= 0.0 else (small, big)
    return TwoPointLaw(atom_lo=-b, atom_hi=a, weight_lo=a / (a + b), weight_hi=b / (a + b))


def pmax_certified(sigma: float, tau: float = 1.0) -> float:
    """Certified maximal moment order 1/(240*sqrt(sigma*tau)); +inf at sigma*tau = 0.

    Depends on (sigma, tau) only through the product.
    """
    st = _check_sigma_tau(sigma, tau)
    if st == 0.0:
        return math.inf
    return 1.0 / (_PAPER_CONSTANT * math.sqrt(st))


def pfail_upper(sigma: float, tau: float = 1.0) -> float:
    """Order 2 + 1/sqrt(sigma*tau) at which moments may already fail to exist.

    The two moment-order bounds of the module:

    * ``pmax_certified`` = 1/(240*sqrt(sigma*tau)) is the order up to which
      the integrability chain proves moments finite;
    * this bound, 2 + 1/sqrt(sigma*tau), is the order from which they may
      fail.  ``classify_moment_region`` reports it as the "finite-order"
      bound.

    Both are of order 1/sqrt(sigma*tau), the dependence on sigma*tau the
    paper shows to be right.  (1/(sigma*tau) is a different scale: the one
    at which formal moment denominators such as hankel3's
    1 - (2 + gamma)*sigma*tau vanish.)
    """
    st = _check_sigma_tau(sigma, tau)
    if st == 0.0:
        return math.inf
    return 2.0 + 1.0 / math.sqrt(st)


@dataclass(frozen=True)
class MomentRegion:
    """Conjectured integrability region of a parameter point.

    region is one of:
      "finite-order": 0 < sigma*tau < 1 and |gamma - 1| <= 2*sqrt(sigma*tau);
                      finitely many moments conjectured finite; ``bound`` is
                      ``pfail_upper``, the order from which they may fail
      "all-orders":   gamma in [-1, 1 - 2*sqrt(sigma*tau)]; all moments
                      conjectured finite (bound = +inf)
      "boundary":     exactly on the shared edge gamma = 1 - 2*sqrt(sigma*tau)
      "outside":      neither window applies
    """

    region: str
    bound: float | None


def classify_moment_region(p: HarnessParams) -> MomentRegion:
    """Classify (sigma, tau, gamma) into the conjectured moment regions."""
    st = p.sigma * p.tau
    root = 2.0 * math.sqrt(st)
    in_finite = (0.0 < st < 1.0) and (1.0 - root <= p.gamma <= 1.0 + root)
    in_all = -1.0 <= p.gamma <= 1.0 - root
    if in_finite and in_all:
        return MomentRegion("boundary", None)
    if in_finite:
        return MomentRegion("finite-order", pfail_upper(p.sigma, p.tau))
    if in_all:
        return MomentRegion("all-orders", math.inf)
    return MomentRegion("outside", None)

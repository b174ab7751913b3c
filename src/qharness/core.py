"""Closed-form conditional moments of quadratic harness processes.

A quadratic harness is a centered process with covariance min(s, t), a
martingale one-sided mean structure, and conditional variances that are
quadratic polynomials in the conditioning values.  The family is driven by
five constants (eta, theta, sigma, tau, gamma), checked once, when a
``HarnessParams`` is built; ``moments`` classifies their moment region.

Every function here is a pure evaluator of the corresponding formula: no
tolerances are applied and nothing is clamped.  A variance formula returns
its value itself, and a negative "variance" comes back negative, never
truncated, so downstream verification can see the inadmissible
parameter/state combination.

State arguments (x, x_s, x_t, x_u) may be floats or numpy arrays, evaluated
elementwise; ``_check_time`` checks each time once per call.  ``PROCESS_KINDS``
is the table of the process kinds that `simulate` samples; the pascal kind
draws its increments by inverting the CDF tables of ``_nb_cdf`` through a
guide table (Chen and Asau 1974): most uniforms take one bucket lookup, and
every uniform gets the K a binary search of the table gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "HarnessParams",
    "covariance",
    "one_sided_mean",
    "var_forward",
    "var_backward",
    "var_backward_coeffs",
    "double_mean",
    "double_var_scale",
    "double_var",
]

@dataclass(frozen=True)
class HarnessParams:
    """The five-parameter tuple (eta, theta, sigma, tau, gamma).

    eta and theta scale the linear terms of the forward/backward conditional
    variances, sigma and tau the quadratic terms, and gamma the cross term of
    the two-sided conditional variance.  A NaN or infinite field, a negative
    sigma or tau and a NaN sigma*tau (inf*0) are refused when it is built.
    """

    eta: float
    theta: float
    sigma: float
    tau: float
    gamma: float

    def __post_init__(self) -> None:
        _check_sigma_tau(self.sigma, self.tau)
        for name, x in vars(self).items():
            if not math.isfinite(x):
                raise ValueError(f"{name} must be {'finite' if x == x else 'a number'}, got {x}")


def _check_sigma_tau(sigma: float, tau: float) -> float:
    """sigma*tau, for sigma, tau >= 0 whose product is a number (not inf*0)."""
    if not (sigma >= 0 and tau >= 0):  # NaN fails this too
        raise ValueError(f"sigma and tau must be >= 0, got {sigma}, {tau}")
    st = sigma * tau
    if st != st:
        raise ValueError(f"sigma*tau is not a number at sigma={sigma}, tau={tau}")
    return st


def _check_time(name: str, x: float) -> float:
    """x, when it is a positive and finite time; NaN fails this too."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def pascal_theta(q: float) -> float:
    """Linear backward-variance coefficient (2-q)/sqrt(1-q) of the standardized
    negative-binomial martingale; tends to the gamma value 2 as q -> 0."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0,1), got {q}")
    return (2.0 - q) / math.sqrt(1.0 - q)


# Resolution of numpy's uniforms: Generator.random() returns multiples of
# 2**-53 in [0, 1), so an untabulated tail below it changes no draw's law by
# more than one uniform step.
_NB_TAIL = 2.0**-53
# Longest pascal inversion table; where NB(dt, q) needs more, or q**dt
# underflows, the increment is drawn as a gamma-mixed Poisson instead.  The
# cap decides which steps invert, and so the sampled ensembles: it stays at
# 2**11 because moving it would change them, not because inversion stops
# paying there.  On 4096-draw blocks (numpy 2.4, 2-vCPU VM, dt from 0.25 to
# 300) the mixed Poisson takes 4.9x-7.9x the guided inversion's time at 2**11
# entries, and still 3.2x-6.3x at 2**16.
_NB_TABLE_CAP = 1 << 11


def _nb_cdf(dt: float, q: float):
    """The CDF table F(0), ..., F(m-1) of NB(dt, q), or None where
    inversion does not run (q**dt below the smallest normal float, or m would
    pass ``_NB_TABLE_CAP``).

    The pmf follows P(0) = q**dt, P(k+1) = P(k) * (k+dt)/(k+1) * (1-q), and F
    is its running sum.  The ratio r_j = (j+dt)/(j+1) * (1-q) is at most
    rho_k = (1-q) * max(k+dt, k+1)/(k+1) for every j >= k (it rises towards
    1-q when dt < 1 and falls towards it when dt >= 1), so when rho_k < 1

        P(K > k) <= P(k) * rho_k / (1 - rho_k).

    m is the first k where P(k) * rho_k < 2**-53 * (1 - rho_k), so the mass
    past m, the untabulated tail, is below 2**-53.  A draw is the number of
    entries at or below a uniform U, so K = m takes 1 - F(m-1): P(m) plus that
    tail (Devroye 1986, Non-Uniform Random Variate Generation, III.2).  The
    pmf is built once over the cap's ``_NB_TABLE_CAP`` entries and cut at m.
    Not cached: ``sample_ensemble`` builds one table per distinct step per call.
    """
    import numpy as np

    p0 = q**dt
    if p0 < sys.float_info.min:
        return None
    k = np.arange(_NB_TABLE_CAP, dtype=np.float64)
    ratio = (k + dt) / (k + 1.0) * (1.0 - q)
    pmf = np.concatenate(([p0], ratio[:-1])).cumprod()
    rho = (1.0 - q) * np.maximum(k + dt, k + 1.0) / (k + 1.0)
    stop = pmf * rho < _NB_TAIL * (1.0 - rho)
    if not stop.any():
        return None
    return pmf[: stop.argmax()].cumsum()


def _pascal_sampler(dt: float, q: float):
    """The NB(dt, q) increment draw for one step: table inversion, one
    uniform per draw, or numpy's gamma-mixed Poisson where ``_nb_cdf`` gives
    no table.

    A draw is K = cdf.searchsorted(U, side="right"), found through a guide
    table of M buckets, M the smallest power of two >= 4m for a table of m
    entries (within 5-32% of the time at the fastest M, 8m or 16m, at the
    steps timed): guide[j] is K at U = j/M and head[j] the first entry
    above j/M (2.0 past the table).
    j = floor(U*M) is exact, M being a power of two, and for U in
    [j/M, (j+1)/M) K is guide[j] unless head[j] <= U; only those uniforms,
    at most a share m/M, are searched in the table.
    """
    import numpy as np

    cdf = _nb_cdf(dt, q)
    if cdf is None:
        return lambda rng, n: rng.poisson(rng.gamma(dt, (1.0 - q) / q, n)).astype(float)
    buckets = 1 << max(4 * cdf.size - 1, 0).bit_length()
    guide = cdf.searchsorted(np.arange(buckets) / buckets, side="right")
    head = np.append(cdf, 2.0)[guide]
    guide = guide.astype(float)

    def draw(rng, n):
        u = rng.random(n)
        j = (u * buckets).astype(np.intp)
        k = guide[j]
        miss = head[j] <= u
        k[miss] = cdf.searchsorted(u[miss], side="right")
        return k

    return draw


@dataclass(frozen=True)
class KindRecord:
    """One process kind: its exact harness tuple ``params(q)``, which fixes
    its marginal moments too (``moments.marginal_moments``), ``sampler(dt, q)``
    giving the draw ``(rng, n)`` of n raw increments over dt from the numpy
    Generator it is handed (built once per distinct step per call and shared
    by the workers, so a kind can precompute for it), and ``centring(q)`` = (mu, scale): a
    path is (sum of draws - t*mu) * scale.  ``q_default`` is the default of a
    kind's parameter q in (0, 1), None for a kind without one."""

    name: str
    params: Callable[[float | None], HarnessParams]
    sampler: Callable[[float, float | None], Callable[..., Any]]
    centring: Callable[[float | None], tuple[float, float]] = lambda q: (0.0, 1.0)
    q_default: float | None = None


# The kinds `simulate` samples: sigma*tau = 0 martingales with independent
# increments.  A kind's index is its container code, so records are only
# appended.  Free of numpy, so the CLI parser can offer them without numpy.
PROCESS_KINDS = (
    KindRecord(
        "wiener",
        params=lambda q: HarnessParams(0.0, 0.0, 0.0, 0.0, 1.0),
        sampler=lambda dt, q: lambda rng, n: rng.standard_normal(n) * math.sqrt(dt),
    ),
    KindRecord(
        "poisson",  # binomial bridge
        params=lambda q: HarnessParams(0.0, 1.0, 0.0, 0.0, 1.0),
        sampler=lambda dt, q: lambda rng, n: rng.poisson(dt, n).astype(float),
        centring=lambda q: (1.0, 1.0),
    ),
    KindRecord(
        "gamma",  # beta bridge
        params=lambda q: HarnessParams(0.0, 2.0, 0.0, 1.0, 1.0),
        sampler=lambda dt, q: lambda rng, n: rng.gamma(dt, 1.0, n) - dt,
    ),
    KindRecord(
        "pascal",  # beta-binomial bridge; q is the success probability
        params=lambda q: HarnessParams(0.0, pascal_theta(q), 0.0, 1.0, 1.0),
        sampler=_pascal_sampler,  # negative binomial NB(dt, q)
        centring=lambda q: ((1.0 - q) / q, q / math.sqrt(1.0 - q)),
        q_default=0.5,
    ),
)
KINDS = tuple(k.name for k in PROCESS_KINDS)


def kind_record(name: str) -> KindRecord:
    """The table record of a process kind; an unknown name is a ValueError."""
    if name not in KINDS:
        raise ValueError(f"unsupported process {name!r}; choose from {KINDS}")
    return PROCESS_KINDS[KINDS.index(name)]


def _require_pair(s: float, t: float) -> None:
    if _check_time("s", s) >= _check_time("t", t):
        raise ValueError(f"need s < t, got s={s}, t={t}")


def covariance(s: float, t: float) -> float:
    """E(X_s X_t) = min(s, t) for positive times; symmetric in (s, t)."""
    return min(_check_time("s", s), _check_time("t", t))


def one_sided_mean(direction: str, s: float, t: float, x: float) -> float:
    """One-sided conditional mean for s < t.

    forward:  E(X_t | X_s) = X_s          (martingale)
    backward: E(X_s | X_t) = (s/t) X_t    (linear reverse regression)
    """
    _require_pair(s, t)
    if direction == "forward":
        return x
    if direction == "backward":
        return (s / t) * x
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


def var_forward(p: HarnessParams, s: float, t: float, x_s: float) -> float:
    """Forward conditional variance ((t-s)/(1+sigma*s)) * (1 + eta*x + sigma*x^2)."""
    _require_pair(s, t)
    return ((t - s) / (1.0 + p.sigma * s)) * (1.0 + p.eta * x_s + p.sigma * x_s * x_s)


def var_backward(p: HarnessParams, s: float, t: float, x_t: float) -> float:
    """Backward conditional variance (s(t-s)/(t+tau)) * (1 + theta*x/t + tau*x^2/t^2)."""
    _require_pair(s, t)
    r = x_t / t
    return (s * (t - s) / (t + p.tau)) * (1.0 + p.theta * r + p.tau * r * r)


def var_backward_coeffs(p: HarnessParams, s: float, t: float) -> tuple[float, float, float]:
    """The backward variance as c0 + c1*x + c2*x^2 in x = X_t: with
    pref = s(t-s)/(t+tau), the coefficients (pref, pref*theta/t, pref*tau/t^2)."""
    _require_pair(s, t)
    pref = s * (t - s) / (t + p.tau)
    return pref, pref * p.theta / t, pref * p.tau / (t * t)


def _require_triple(s: float, t: float, u: float) -> None:
    for name, x in (("s", s), ("t", t), ("u", u)):
        _check_time(name, x)
    if not (s <= t <= u and s < u):
        raise ValueError(f"need s <= t <= u with s < u, got ({s}, {t}, {u})")


def double_mean(s: float, t: float, u: float, x_s: float, x_u: float) -> float:
    """Two-sided conditional mean: affine interpolation between x_s and x_u.

    Equals x_s at t=s and x_u at t=u.
    """
    _require_triple(s, t, u)
    w = (u - t) / (u - s)
    return w * x_s + (1.0 - w) * x_u


def double_var_scale(p: HarnessParams, s: float, t: float, u: float) -> float:
    """Scale factor (u-t)(t-s) / (u(1+s*sigma) + tau - s*gamma) of the two-sided variance."""
    _require_triple(s, t, u)
    den = u * (1.0 + s * p.sigma) + p.tau - s * p.gamma
    if not den > 0:  # NaN (inf - inf) fails this too
        raise ValueError(
            f"inadmissible parameters on ({s}, {t}, {u}): scale denominator {den} is not positive"
        )
    return (u - t) * (t - s) / den


def double_var(
    p: HarnessParams, s: float, t: float, u: float, x_s: float, x_u: float
) -> float:
    """Two-sided conditional variance, quadratic in the bridge coordinates.

    With dx = (x_u - x_s)/(u - s) and m = (u*x_s - s*x_u)/(u - s) the bracket is
    1 + theta*dx + eta*m + tau*dx^2 + sigma*m^2 - (1-gamma)*m*dx, scaled by
    ``double_var_scale``.  Reduces to the Brownian-bridge variance
    (u-t)(t-s)/(u-s) for (0, 0, 0, 0, 1).
    """
    scale = double_var_scale(p, s, t, u)
    dx = (x_u - x_s) / (u - s)
    m = (u * x_s - s * x_u) / (u - s)
    return scale * (
        1.0
        + p.theta * dx
        + p.eta * m
        + p.tau * dx * dx
        + p.sigma * m * m
        - (1.0 - p.gamma) * m * dx
    )

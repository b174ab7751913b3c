"""Statistical verification of the closed-form conditional moments.

Binned conditional-moment estimation against the exact predictions,
empirical and exact tail curves N(t) = Pr(|X| > t) + Pr(|Y| > t), the
certified tail-recursion inequality check, and Hill tail-index estimation.

Binning is equal-count (quantile) rather than equal-width: it stabilizes the
per-bin standard errors when the conditioning variable is heavy tailed.
Pass thresholds are a fixed multiple of the standard error (3 by default),
configurable by the caller; the predictions inside a table come from the
same closed-form code path the rest of the package uses, never from a
re-derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .certificates import Certificate
from .simulate import Ensemble, known_params

__all__ = [
    "BinnedConditional",
    "QuadraticFit",
    "TailCurve",
    "SlopeCheck",
    "TailBoundRow",
    "TailBoundReport",
    "HillEstimate",
    "estimate_conditional",
    "fit_quadratic",
    "conditional_mean_slope",
    "empirical_covariance",
    "tail_curve",
    "gaussian_pair_tail_curve",
    "check_tail_recursion",
    "hill_tail_index",
    "gaussian_tail",
]

MIN_BIN_COUNT = 30


def gaussian_tail(t: float) -> float:
    """Pr(|Z| > t) for a standard normal Z."""
    return math.erfc(t / math.sqrt(2.0))


@dataclass(frozen=True)
class BinnedConditional:
    """Per-bin conditional moments of the target given the conditioning value.

    ``confident`` marks bins with at least MIN_BIN_COUNT samples; only those
    enter fits.
    """

    direction: str
    s: float
    t: float
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    count: np.ndarray
    x_mean: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    pred_mean: np.ndarray
    pred_var: np.ndarray
    confident: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.count.size

    def rows(self) -> list[dict]:
        out = []
        for i in range(self.n_bins):
            out.append(
                {
                    "bin_lo": float(self.bin_lo[i]),
                    "bin_hi": float(self.bin_hi[i]),
                    "n": int(self.count[i]),
                    "mean": float(self.mean[i]),
                    "var": float(self.var[i]),
                    "se_mean": float(self.se_mean[i]),
                    "se_var": float(self.se_var[i]),
                    "pred_mean": float(self.pred_mean[i]),
                    "pred_var": float(self.pred_var[i]),
                }
            )
        return out


def _check_pair(e: Ensemble, s_index: int, t_index: int) -> None:
    if not (0 <= s_index < t_index < e.n_times):
        raise ValueError(f"need 0 <= s_index < t_index < {e.n_times}")


def _oriented(e: Ensemble, s_index: int, t_index: int, direction: str):
    """(s, t, conditioning column, target column, mean slope) of the pair.

    forward conditions X_t on X_s (slope 1 for a martingale); backward
    conditions X_s on X_t (slope s/t).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    _check_pair(e, s_index, t_index)
    s = float(e.grid[s_index])
    t = float(e.grid[t_index])
    xs = e.paths[:, s_index]
    xt = e.paths[:, t_index]
    if direction == "forward":
        return s, t, xs, xt, 1.0
    return s, t, xt, xs, s / t


def estimate_conditional(
    e: Ensemble,
    s_index: int,
    t_index: int,
    n_bins: int,
    direction: str = "backward",
) -> BinnedConditional:
    """Quantile-bin the conditioning variable and estimate the target moments.

    forward conditions X_t on X_s, backward conditions X_s on X_t.  The
    conditional variance column is the per-bin mean squared deviation of the
    target from its exact conditional mean (the one-sided-mean formula is an
    identity for these processes, so this estimates the conditional variance
    without the within-bin spread of the conditional mean leaking in).  The
    predicted columns are the closed-form values at each bin's
    conditioning-variable mean, using the parameters the process kind is
    known to satisfy.

    When the conditioning variable takes at most n_bins distinct values
    (lattice marginals), each value becomes its own bin; otherwise duplicate
    quantile edges are collapsed, so fewer than n_bins bins may come back.
    """
    s, t, cond, target, slope = _oriented(e, s_index, t_index, direction)
    if n_bins < 5:
        raise ValueError(f"need n_bins >= 5, got {n_bins}")

    # one sort serves the distinct values, the quantile edges and the bin
    # counts; it is freed before the ordering below to keep peak memory flat
    srt = np.sort(cond)
    distinct = np.concatenate(([True], srt[1:] != srt[:-1]))
    n_uniq = int(np.count_nonzero(distinct))
    if n_uniq < 2:
        raise ValueError("conditioning variable is degenerate (constant)")
    lattice = n_uniq <= n_bins
    if lattice:
        edges = np.append(srt[distinct], srt[-1])
    else:
        edges = np.unique(np.quantile(srt, np.linspace(0.0, 1.0, n_bins + 1)))
    nb = edges.size - 1
    starts = np.searchsorted(srt, edges[:-1], side="left")
    count = np.diff(starts, append=srt.size)
    del srt

    # order lists the paths bin by bin: sorted positions [starts[b],
    # starts[b+1]) hold exactly bin b's values, and equal values share a bin,
    # so any argsort puts every bin's paths in its segment, whatever order it
    # gives ties.  One argsort beats a binary search of every value among the
    # edges; a lattice column has few distinct values, where searching for
    # each value's bin (the number of interior edges at or below it) and
    # radix-sorting the narrow labels is cheaper.
    if lattice:
        assign = np.searchsorted(edges[1:-1], cond, side="right").astype(np.min_scalar_type(nb - 1))
        order = np.argsort(assign, kind="stable")
    else:
        order = np.argsort(cond)

    x_mean = np.zeros(nb)
    mean = np.zeros(nb)
    var = np.zeros(nb)
    se_mean = np.zeros(nb)
    se_var = np.zeros(nb)
    for b in np.flatnonzero(count):
        n = int(count[b])
        # ascending path indices: each reduction sums the same values in the
        # same order as a bin mask would (the stable sort leaves the lattice
        # segments ascending already)
        idx = order[starts[b] : starts[b] + n]
        if not lattice:
            idx.sort()
        c = cond[idx]
        y = target[idx]
        r2 = (y - slope * c) ** 2
        x_mean[b] = c.mean()
        mean[b] = y.mean()
        var[b] = r2.mean()
        if n > 1:
            se_mean[b] = y.std(ddof=1) / math.sqrt(n)
            se_var[b] = r2.std(ddof=1) / math.sqrt(n)

    p = known_params(e.kind)
    var_fn = core.var_forward if direction == "forward" else core.var_backward
    filled = count > 0
    pred_mean = np.where(filled, core.one_sided_mean(direction, s, t, x_mean), 0.0)
    pred_var = np.where(filled, var_fn(p, s, t, x_mean).value, 0.0)

    confident = count >= MIN_BIN_COUNT
    return BinnedConditional(
        direction=direction,
        s=s,
        t=t,
        bin_lo=edges[:-1],
        bin_hi=edges[1:],
        count=count,
        x_mean=x_mean,
        mean=mean,
        var=var,
        se_mean=se_mean,
        se_var=se_var,
        pred_mean=pred_mean,
        pred_var=pred_var,
        confident=confident,
    )


@dataclass(frozen=True)
class QuadraticFit:
    c0: float
    c1: float
    c2: float
    r_squared: float
    se: tuple[float, float, float]
    n_bins_used: int


def fit_quadratic(b: BinnedConditional) -> QuadraticFit:
    """Weighted least squares of per-bin variance on (1, x, x^2).

    Weights are 1/se_var^2 over the confident bins; needs at least 5 of them.
    Bins whose variance estimate is exact (zero standard error, e.g. a
    lattice value with a degenerate conditional law) get their se floored at
    1e-3 of the smallest positive one, which pins the fit through them
    without making the normal equations singular; noiseless synthetic input
    (all se zero) falls back to an unweighted fit.
    """
    sel = np.asarray(b.confident, dtype=bool)
    n_used = int(np.count_nonzero(sel))
    if n_used < 5:
        raise ValueError(f"need >= 5 confident bins, got {n_used}")
    x = b.x_mean[sel]
    y = b.var[sel]
    se = b.se_var[sel]
    # ses indistinguishable from 0 at the bin's variance scale count as exact
    exactish = se <= 1e-12 * np.maximum(np.abs(y), 1e-30)
    if np.any(~exactish):
        floor = 1e-3 * se[~exactish].min()
        w = 1.0 / np.maximum(se, floor) ** 2
    else:
        w = np.ones_like(se)

    design = np.column_stack([np.ones_like(x), x, x * x])
    wd = design * w[:, None]
    gram = design.T @ wd
    beta = np.linalg.solve(gram, wd.T @ y)
    cov = np.linalg.inv(gram)

    fitted = design @ beta
    ybar = np.sum(w * y) / np.sum(w)
    ss_res = float(np.sum(w * (y - fitted) ** 2))
    ss_tot = float(np.sum(w * (y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    se = tuple(float(v) for v in np.sqrt(np.diag(cov)))
    return QuadraticFit(float(beta[0]), float(beta[1]), float(beta[2]), r2, se, n_used)


@dataclass(frozen=True)
class SlopeCheck:
    slope: float
    se: float
    predicted: float

    @property
    def deviation_se(self) -> float:
        return abs(self.slope - self.predicted) / self.se if self.se > 0 else math.inf


def conditional_mean_slope(e: Ensemble, s_index: int, t_index: int, direction: str) -> SlopeCheck:
    """OLS slope of the one-sided conditional mean with a robust standard error.

    forward regresses X_t on X_s (slope 1 for a martingale); backward
    regresses X_s on X_t (slope s/t).
    """
    _, _, x, y, predicted = _oriented(e, s_index, t_index, direction)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * yc)) / sxx
    resid = yc - slope * xc
    se = math.sqrt(float(np.sum((xc * resid) ** 2))) / sxx
    return SlopeCheck(slope=slope, se=se, predicted=predicted)


def empirical_covariance(e: Ensemble, i: int, j: int) -> tuple[float, float]:
    """Sample mean of X_{t_i} X_{t_j} and its standard error (target min(t_i, t_j))."""
    prod = e.paths[:, i] * e.paths[:, j]
    return float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(prod.size))


@dataclass(frozen=True)
class TailCurve:
    """Two-variable tail function N(t) on a threshold ladder.

    n_samples is None for exact (analytic) curves: then the sampling
    tolerance is zero.
    """

    thresholds: np.ndarray
    n_values: np.ndarray
    n_samples: int | None

    def __post_init__(self) -> None:
        th = np.asarray(self.thresholds, dtype=np.float64)
        nv = np.asarray(self.n_values, dtype=np.float64)
        if th.ndim != 1 or th.size == 0 or nv.shape != th.shape:
            raise ValueError("thresholds and n_values must be matching 1-d arrays")
        if not np.all(th > 0) or not np.all(np.diff(th) > 0):
            raise ValueError("thresholds must be ascending and positive")
        if np.any(nv < 0) or np.any(nv > 2):
            raise ValueError("tail values must lie in [0, 2]")
        if np.any(np.diff(nv) > 1e-12):
            raise ValueError("tail values must be non-increasing")


def tail_curve(
    e: Ensemble,
    s_index: int,
    t_index: int,
    thresholds=None,
    normalize: bool = True,
) -> TailCurve:
    """Empirical N(t) = Pr(|X| > t) + Pr(|Y| > t) for the pair (X_s, X_t).

    With normalize=True the pair is standardized to X_s/sqrt(s), X_t/sqrt(t)
    (unit variances, correlation sqrt(s/t)).  Without thresholds the ladder
    is 50 geometric points from lo = max(median, 1e-9) to
    max(99.5% quantile, 2*lo) of |Y|.
    """
    _check_pair(e, s_index, t_index)
    # np.abs makes fresh columns, so scale and sort them in place
    xs = np.abs(e.paths[:, s_index])
    ys = np.abs(e.paths[:, t_index])
    if normalize:
        xs /= math.sqrt(float(e.grid[s_index]))
        ys /= math.sqrt(float(e.grid[t_index]))
    xs.sort()
    ys.sort()
    if thresholds is None:
        median, top = np.quantile(ys, [0.5, 0.995]).tolist()
        lo = max(median, 1e-9)
        thresholds = np.geomspace(lo, max(top, lo * 2.0), 50)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = xs.size
    px = 1.0 - np.searchsorted(xs, thresholds, side="right") / n
    py = 1.0 - np.searchsorted(ys, thresholds, side="right") / n
    return TailCurve(thresholds=thresholds, n_values=px + py, n_samples=n)


def gaussian_pair_tail_curve(thresholds) -> TailCurve:
    """Exact N(t) = 4 * Pr(Z > t) for a pair of standard normal marginals."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    values = np.array([2.0 * gaussian_tail(float(t)) for t in thresholds])
    return TailCurve(thresholds=thresholds, n_values=values, n_samples=None)


@dataclass(frozen=True)
class TailBoundRow:
    t: float
    n_t: float
    n_kt: float
    bound: float
    violation: float
    tolerance: float


@dataclass(frozen=True)
class TailBoundReport:
    passed: bool
    max_violation: float
    k: float
    se_multiplier: float
    rows: tuple[TailBoundRow, ...]


def _binomial_se(n_values: np.ndarray, n_samples: int | None) -> np.ndarray | float:
    if n_samples is None:
        return 0.0
    clipped = np.clip(n_values, 0.0, 2.0)
    return np.sqrt(clipped * (2.0 - clipped) / n_samples)


def check_tail_recursion(
    tc: TailCurve,
    cert: Certificate,
    se_multiplier: float = 3.0,
) -> TailBoundReport:
    """Check N(Kt) <= (c1/t^2 + c2/t + q) N(t) on the curve, K = ``cert.chain.K``.

    N(Kt) is log-linearly interpolated in log-threshold between curve points.
    Each threshold passes when the violation does not exceed
    ``se_multiplier`` times the binomial sampling tolerance (zero for exact
    curves).  Thresholds t with K*t beyond the ladder are skipped; at least
    one must remain.
    """
    if not cert.valid:
        raise ValueError(
            f"certificate is invalid (failed step: {cert.failed_step}); "
            "its coefficients certify nothing"
        )
    k = cert.chain.K
    th = tc.thresholds
    nv = tc.n_values
    covered = k * th <= th[-1] * (1.0 + 1e-12)
    if not covered[0]:
        raise ValueError(
            f"insufficient threshold coverage: no t with K*t <= {th[-1]} (K={k})"
        )
    t = th[covered]
    n_t = nv[covered]
    # interpolate N at K*t in (log t, log N): an empty tail's log is -inf, so
    # it interpolates to 0; interp takes the node value on an exact hit and
    # clamps K*t that rounds past the last threshold
    with np.errstate(divide="ignore"):
        n_kt = np.exp(np.interp(np.log(k * t), np.log(th), np.log(nv)))
    coeff = cert.c1 / t**2 + cert.c2 / t + cert.q
    bound = coeff * n_t
    violation = n_kt - bound
    tol = _binomial_se(n_kt, tc.n_samples) + coeff * _binomial_se(n_t, tc.n_samples)
    rows = tuple(
        TailBoundRow(*map(float, r)) for r in zip(t, n_t, n_kt, bound, violation, tol)
    )
    return TailBoundReport(
        passed=bool(np.all(violation <= se_multiplier * tol)),
        max_violation=float(violation.max()),
        k=k,
        se_multiplier=se_multiplier,
        rows=rows,
    )


@dataclass(frozen=True)
class HillEstimate:
    alpha: float
    ci_low: float
    ci_high: float
    k: int
    n: int


def hill_tail_index(samples, k: int) -> HillEstimate:
    """Hill estimator of the polynomial tail exponent on the top-k order
    statistics of |samples|, with the asymptotic 95% interval
    alpha * (1 -+ 1.96/sqrt(k))."""
    x = np.abs(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    if k < 1 or k >= n / 2:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    # only the top k+1 order statistics are needed: partition, then sort those
    top = np.sort(np.partition(x, n - k - 1)[n - k - 1 :])[::-1]
    if top[-1] <= 0.0:
        raise ValueError("top-k order statistics must be positive")
    logs = np.log(top)
    h = float(np.mean(logs[:k]) - logs[k])
    if h <= 0.0:
        raise ValueError("degenerate sample: top order statistics are all equal")
    alpha = 1.0 / h
    half = 1.96 / math.sqrt(k)
    return HillEstimate(
        alpha=alpha,
        ci_low=alpha * (1.0 - half),
        ci_high=alpha * (1.0 + half),
        k=k,
        n=n,
    )

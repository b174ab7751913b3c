"""Statistical verification of the closed-form conditional moments.

Per-path checks of a pair s < t (``path_empirics``): the covariances, the
one-sided mean slopes, the law of total variance, and a weighted regression
of the squared backward residual on (1, X_t, X_t^2) whose coefficients are
the quadratic backward variance, with HC0 standard errors: two passes over
cache-sized blocks of rows sum tables of named products, and the 3x3 fit is
solved in Python floats, so no BLAS or LAPACK kernel enters them.  The binned
moments of X_s given X_t against the exact backward predictions
(``estimate_conditional``) are for display: no verdict reads them.  Also
empirical and exact tail curves N(t) = Pr(|X| > t) + Pr(|Y| > t), the
certified tail-recursion inequality check, and Hill tail-index estimation.

Binning is equal-count (quantile) rather than equal-width: it stabilizes the
per-bin standard errors when the conditioning variable is heavy tailed.
Pass thresholds are a fixed multiple of the standard error (3 by default),
configurable by the caller; the predictions come from the same closed-form
code path the rest of the package uses, never from a re-derivation.

The kernels read a pair only through ``column`` and ``row_blocks``, so they
take an ``Ensemble`` or a ``simulate.Container`` alike; ``column`` hands
over a fresh array on either, which they sort (and take |x| of) in place.
Binning holds the sorted X_t and a mask for the bin edges, which give the
edges, counts and mean X_t of each bin; then, with both freed, one narrow
label per path (uint8 up to 256 bins, uint16 up to 65536): pass 1 over the
streamed blocks labels each path's bin through a guide table on X_t and sums
the squared residual and X_s per bin with ``np.bincount``, in path order,
and pass 2 sums their deviations from those means.  The sort phase, the
set-up of both passes and the first block's labels run on the calling
thread, which allocates every buffer the passes write; one worker thread
streams the passes while the calling thread runs ``beside`` (``verify``'s
checks), so the worker allocates no block-sized array and calls no public
function of the package.  On a 1M-path, 4-time container in the page cache
``verify --bins 400`` of gamma takes about 0.12 s in-process, where it took
0.14-0.15 s with the passes after the checks (2 vCPU).
``tail_curve`` holds one column at a time, made its sorted |column| in
place, and reads the Hill estimate off the sorted |X_t|; ``hill_tail_index``
holds one column copy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from threading import Event, Thread
from typing import Callable

import numpy as np

from . import core
from .certificates import Certificate
from .simulate import ROW_BLOCK, Container, Ensemble, known_params

__all__ = [
    "BinnedConditional",
    "Estimate",
    "QuadraticFit",
    "PathEmpirics",
    "TailCurve",
    "TailBoundRow",
    "TailBoundReport",
    "HillEstimate",
    "estimate_conditional",
    "path_empirics",
    "sorted_quantiles",
    "tail_curve",
    "gaussian_pair_tail_curve",
    "check_tail_recursion",
    "hill_tail_index",
    "gaussian_tail",
]

MIN_BIN_COUNT = 30
# the regression weight 1/v^2 floors v at this share of s(t-s)/(t+tau)
WEIGHT_FLOOR = 1e-2
# a binned prediction pref * (1 + lin + quad) within this many eps of
# pref * (1 + |lin| + quad) is rounding noise and is shown as +0.0: the
# first-order bound on its evaluation error is 11 unit roundoffs (5.5 eps)
ROUNDING_ULPS = 8
# guide-table cells per display bin over the range of X_t: a path is
# binary-searched only where its cell holds two or more bin edges, so where
# bins are narrower than 1/32 of the mean bin width (no path of 1M gamma
# paths at 400 or 2,000 bins, nor of a lattice column, was)
GUIDE_CELLS_PER_BIN = 32


def gaussian_tail(t: float) -> float:
    """Pr(|Z| > t) for a standard normal Z."""
    return math.erfc(t / math.sqrt(2.0))


@dataclass(frozen=True)
class BinnedConditional:
    """Per-bin conditional moments of X_s given X_t.

    ``confident`` marks bins with at least MIN_BIN_COUNT samples;
    ``label_searches`` counts the paths whose bin the guide table left to a
    binary search, and ``wait_s`` is the time the calling thread waited for
    the streamed passes at the join (a timing, left out of ==).
    """

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
    label_searches: int
    wait_s: float = field(compare=False)

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


def _check_pair(e: Ensemble | Container, s_index: int, t_index: int) -> None:
    if not (0 <= s_index < t_index < e.n_times):
        raise ValueError(f"need 0 <= s_index < t_index < {e.n_times}")


def sorted_quantiles(srt: np.ndarray, qs) -> np.ndarray:
    """Quantiles of an ascending column by numpy's default (linear) method.

    Bit-identical to ``np.quantile(srt, qs)``, without its copy and partition
    of a column that is sorted already: the virtual index (n-1)*q lies between
    two neighbours, and numpy's ``_lerp`` measures the step from the nearer
    one (from the upper for weights of 1/2 and more).
    """
    virtual = (srt.size - 1) * np.asarray(qs, dtype=np.float64)
    below = np.floor(virtual)
    lo = below.astype(np.intp)
    a = srt[lo]
    b = srt[np.minimum(lo + 1, srt.size - 1)]
    frac = virtual - below
    diff = b - a
    return np.where(frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac)


def _bin_labeller(edges: np.ndarray):
    """A function that writes the bin of each value x of a block, in
    [edges[0], edges[-1]], into ``out`` (intp) as searchsorted(edges[1:-1],
    x, "right"), and returns how many of them it binary-searched.

    The bin is read through a guide table (Chen and Asau 1974), as pascal
    draws are in ``core``.  The cell k(x) = floor((x - lo) * M / (hi - lo))
    of M = GUIDE_CELLS_PER_BIN equal-width cells per bin over [lo, hi] =
    [edges[0], edges[-1]] is one float expression, applied alike to the
    values and to the inner edges, so it is monotone in x: the edges in
    cells below k(x) are at most x and those in cells above it greater.  So
    x's bin is the count of edges in cells below its own, plus one if x
    reaches the next edge; only a value that also reaches the edge after
    that, in a cell of two or more edges, is binary-searched.  A range whose
    width overflows, or is too small for M cells, is one cell.

    Every block-sized step writes into ``out`` or the function's scratch,
    which the first call on a block larger than it holds allocates: the
    thread that labels the largest block first owns it.
    """
    inner, lo = edges[1:-1], edges[0]
    cells = GUIDE_CELLS_PER_BIN * (edges.size - 1)
    with np.errstate(over="ignore", divide="ignore"):
        h = cells / (edges[-1] - lo)
    if not 0.0 < h < math.inf:
        cells, h = 1, 0.0

    def cell(v: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
        # (x - lo) overflows only where h = 0, and inf * 0 is NaN, which
        # fmin sends to the one cell
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(v, lo, out=u)
            u *= h
        np.fmin(u, cells - 1, out=u)
        np.copyto(out, u, casting="unsafe")  # truncates, as astype does

    # base[j], the count of edges in cells below j, steps up after each edge's cell
    at = np.empty(inner.size, dtype=np.intp)
    cell(inner, np.empty(inner.size), at)
    base = np.repeat(np.arange(edges.size - 1, dtype=np.min_scalar_type(inner.size)),
                     np.diff(at, prepend=-1, append=cells - 1))
    upper = np.append(inner, np.inf)  # the edge above each bin
    scratch = [np.empty(0), np.empty(0, dtype=base.dtype), np.empty(0, dtype=bool)]

    def label(x: np.ndarray, out: np.ndarray) -> int:
        n = x.size
        if scratch[0].size < n:
            scratch[:] = np.empty(n), np.empty(n, dtype=base.dtype), np.empty(n, dtype=bool)
        u, narrow, hit = (a[:n] for a in scratch)
        # take in mode "clip" writes straight into its out, where "raise"
        # would buffer it; every index is in range, so nothing is clipped
        cell(x, u, out)
        np.copyto(out, np.take(base, out, out=narrow, mode="clip"))
        out += np.greater_equal(x, np.take(upper, out, out=u, mode="clip"), out=hit)
        # the paths whose cell holds a further edge
        at = np.flatnonzero(np.greater_equal(x, np.take(upper, out, out=u, mode="clip"), out=hit))
        out[at] = np.searchsorted(inner, x[at], side="right")
        return at.size

    return label


def _sorted_bins(c: np.ndarray, n_bins: int):
    """The sort phase of the binning: sort the fresh column c of X_t in
    place and return the bin edges, each bin's count and its mean of X_t."""
    # the sorted column gives the bins: equal values share one, and sorted
    # positions [starts[b], starts[b+1]) hold exactly bin b's values
    c.sort()
    distinct = np.empty(c.size, dtype=bool)
    distinct[0] = True
    np.not_equal(c[1:], c[:-1], out=distinct[1:])
    n_uniq = int(np.count_nonzero(distinct))
    if n_uniq < 2:
        raise ValueError("conditioning variable is degenerate (constant)")
    if n_uniq <= n_bins:
        edges = np.append(c[distinct], c[-1])
    else:
        edges = np.unique(sorted_quantiles(c, np.linspace(0.0, 1.0, n_bins + 1)))
    del distinct
    starts = np.searchsorted(c, edges[:-1], side="left")
    count = np.diff(starts, append=c.size)

    # reduceat sums each segment up to the next index, and gives a[i] rather
    # than 0 for an empty one, so it runs over the filled bins only
    filled = count > 0
    x_mean = np.zeros(edges.size - 1)
    x_mean[filled] = np.add.reduceat(c, starts[filled]) / count[filled]
    return edges, count, x_mean


class _BinPasses:
    """The binning's two streamed passes over the pair, set up on the
    calling thread for ``run`` on a worker.

    Pass 1 labels each path's bin from its X_t, keeps the labels, and sums
    r^2 = (y - slope*x)^2 and y per bin, each less the bin's first value (so
    a bin of equal values sums zeros); pass 2 sums the deviations d from
    those means and their squares, and each bin's mean and standard error
    come from the corrected two-pass formula, as in ``path_empirics``.
    np.bincount adds in path order, so no sort order, and no tie order of
    equal values, enters a sum.

    The set-up allocates every buffer the passes write, starts both passes'
    ``row_blocks`` (their buffers and the container's read count are the
    calling thread's), and labels the first block and takes its pivots.
    ``run`` then writes with ``out=`` and allocates only per-bin arrays and
    the paths of bins a block holds first.
    """

    def __init__(self, e: Ensemble | Container, s_index: int, t_index: int, slope: float,
                 edges: np.ndarray, count: np.ndarray) -> None:
        nb, rows = edges.size - 1, min(ROW_BLOCK, e.n_paths)
        filled = count > 0
        self.nb, self.slope, self.label = nb, slope, _bin_labeller(edges)
        self.m = np.where(filled, count, 1)
        self.labels = np.empty(e.n_paths, dtype=np.min_scalar_type(nb - 1))
        self.idx = np.empty(rows, dtype=np.intp)  # the labels as intp, which np.bincount reads
        self.r2, self.d, self.fresh = np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool)
        self.pivot, self.seen = np.zeros((2, nb)), ~filled  # an empty bin takes no pivot
        self.m1 = np.empty((2, nb))  # the pass-1 means
        self.sums = np.zeros((6, nb))  # r^2, y less the pivot; d of each; d^2 of each
        self.searches = 0
        self.error: BaseException | None = None
        self.passes = [e.row_blocks(s_index, t_index) for _ in range(2)]
        self.heads = [next(p) for p in self.passes]
        self.first = self.label_block(0, *self.heads[0])

    def cols(self, y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A block's r^2, written into its buffer, and y."""
        r2 = np.multiply(x, -self.slope, out=self.r2[: x.size])
        r2 += y
        r2 *= r2
        return r2, y

    def label_block(self, lo: int, y: np.ndarray, x: np.ndarray):
        """Label the block of paths lo, lo + 1, ... and take the pivots of the
        bins it holds first: its labels as intp and its columns."""
        i = self.idx[: x.size]
        self.searches += self.label(x, out=i)
        self.labels[lo : lo + x.size] = i
        cols = self.cols(y, x)
        if not self.seen.all():  # the first path of each bin not seen before
            unseen = np.take(self.seen, i, out=self.fresh[: x.size], mode="clip")
            fresh = np.flatnonzero(np.logical_not(unseen, out=unseen))
            b, at = np.unique(i[fresh], return_index=True)
            self.seen[b] = True
            for k, v in enumerate(cols):
                self.pivot[k, b] = v[fresh[at]]
        return i, cols

    def run(self, stop: Event) -> None:
        """Both passes, on the worker: stop before the next block once
        ``stop`` is set; an error is kept in ``error``, and both passes are
        closed (with their files) at the end."""
        try:
            nb, sums, m1 = self.nb, self.sums, self.m1
            lo = 0
            for y, x in self._blocks(0, stop):
                i, cols = self.first if lo == 0 else self.label_block(lo, y, x)
                for k, v in enumerate(cols):
                    d = np.take(self.pivot[k], i, out=self.d[: x.size], mode="clip")
                    sums[k] += np.bincount(i, np.subtract(v, d, out=d), nb)
                lo += x.size
            np.divide(sums[:2], self.m, out=m1)
            m1 += self.pivot
            lo = 0
            for y, x in self._blocks(1, stop):
                i = self.idx[: x.size]
                np.copyto(i, self.labels[lo : lo + x.size])
                for k, v in enumerate(self.cols(y, x)):
                    d = np.take(m1[k], i, out=self.d[: x.size], mode="clip")
                    sums[2 + k] += np.bincount(i, np.subtract(v, d, out=d), nb)
                    d *= d
                    sums[4 + k] += np.bincount(i, d, nb)
                lo += x.size
        except BaseException as exc:
            self.error = exc
        finally:
            for blocks in self.passes:
                blocks.close()

    def _blocks(self, k: int, stop: Event):
        """Pass k's blocks, its first as started, each read only while
        ``stop`` is not set (a stopped run's sums are never read)."""
        block = self.heads[k]
        while block is not None and not stop.is_set():
            yield block
            block = next(self.passes[k], None)


def estimate_conditional(e: Ensemble | Container, s_index: int, t_index: int,
                         n_bins: int, beside: Callable[[], None] | None = None
                         ) -> BinnedConditional:
    """Quantile-bin X_t and estimate the moments of X_s in each bin.

    The conditional variance column is the per-bin mean squared deviation of
    X_s from its exact conditional mean (s/t) X_t (the one-sided-mean formula
    is an identity for these processes, so this estimates the conditional
    variance without the within-bin spread of the conditional mean leaking
    in).  The predicted columns are the backward closed forms at each bin's
    mean of X_t, using the parameters the process kind is known to satisfy.

    When X_t takes at most n_bins distinct values (lattice marginals), each
    value becomes its own bin; otherwise duplicate quantile edges are
    collapsed, so fewer than n_bins bins may come back.

    The sort phase (``_sorted_bins``) and the set-up of the streamed passes
    (``_BinPasses``) run on the calling thread; then a worker thread streams
    the passes while the calling thread runs ``beside``, a function of no
    arguments (``verify`` runs its checks there), and joins the worker.  An
    error of ``beside`` comes before any of the binning's, whose set-up
    errors wait for it, and once either side has failed the worker stops
    before its next block.  The worker calls no public function of this
    package and no ``core`` evaluator.
    """
    _check_pair(e, s_index, t_index)
    s = float(e.grid[s_index])
    t = float(e.grid[t_index])
    if n_bins < 5:
        raise ValueError(f"need n_bins >= 5, got {n_bins}")

    try:
        edges, count, x_mean = _sorted_bins(e.column(t_index), n_bins)
        passes = _BinPasses(e, s_index, t_index, s / t, edges, count)
    except Exception:
        if beside is not None:
            beside()  # its error comes first
        raise
    stop = Event()
    worker = Thread(target=passes.run, args=(stop,), name="qharness-binning")
    worker.start()
    try:
        if beside is not None:
            beside()
    except BaseException:
        stop.set()
        raise
    finally:
        joined = time.perf_counter()
        worker.join()
        wait_s = time.perf_counter() - joined
    if passes.error is not None:
        raise passes.error

    m, sums = passes.m, passes.sums
    sd, ssq = sums[2:4], sums[4:6]
    var, mean = passes.m1 + sd / m
    several = count > 1  # an empty or one-path bin keeps standard error 0
    se_var, se_mean = np.where(
        several, np.sqrt(np.maximum(ssq - sd * sd / m, 0.0) / np.maximum(m - 1, 1)) / np.sqrt(m),
        0.0)

    filled = count > 0
    p = known_params(e.kind)
    pred_mean = np.where(filled, core.one_sided_mean("backward", s, t, x_mean), 0.0)
    # at a root of the variance, such as a lattice's lowest value, the
    # closed form gives rounding noise of either sign, shown as +0.0.  Its
    # size pref * (1 + |lin| + quad) is the same formula at |theta| and |x|
    # (tau >= 0).  core itself clamps nothing
    pred = core.var_backward(p, s, t, x_mean)
    size = core.var_backward(replace(p, theta=abs(p.theta)), s, t, np.abs(x_mean))
    noise = ROUNDING_ULPS * np.finfo(np.float64).eps * size
    pred_var = np.where(filled & (np.abs(pred) > noise), pred, 0.0)

    confident = count >= MIN_BIN_COUNT
    return BinnedConditional(
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
        label_searches=passes.searches,
        wait_s=wait_s,
    )


@dataclass(frozen=True)
class Estimate:
    """A sample statistic and its standard error."""

    value: float
    se: float


@dataclass(frozen=True)
class QuadraticFit:
    """Coefficients of the backward conditional variance c0 + c1*x + c2*x^2,
    their HC0 standard errors and the weighted R^2."""

    c0: float
    c1: float
    c2: float
    se: tuple[float, float, float]
    r_squared: float


@dataclass(frozen=True)
class PathEmpirics:
    """The per-path checks of a pair s < t, from ``path_empirics``.

    ``covariance`` holds the sample means of X_s^2, X_s X_t and X_t^2;
    ``slope_forward`` regresses X_t on X_s, ``slope_backward`` X_s on X_t;
    ``lotv`` is the mean of the backward conditional variance.  ``fit`` is
    None when X_t takes fewer than three distinct values: when ``fit_pivot``,
    the smallest pivot of its Gram matrix over its diagonal entry, is not
    above 1e-12.
    """

    covariance: tuple[Estimate, Estimate, Estimate]
    slope_forward: Estimate
    slope_backward: Estimate
    lotv: Estimate
    fit: QuadraticFit | None
    fit_pivot: float
    weights_floored: int
    row_blocks: int


# path_empirics' sums by name: a row (name, f) sums column f, (name, f, g) the
# product f*g.  a and b are X_s and X_t less centres, ef and eb the slopes'
# residuals times their regressors.  e0, e1 and e2 are c (1, z, z^2), with
# z = X_t - shift, and f = q r^2 in pass 1, q res in pass 2 (q = 1/max(v, floor)
# and c = q, then q f), so g{i+j} sums the Gram matrix, then the HC0 meat.
_MOMENTS = (("xx", "x", "x"), ("xy", "x", "y"), ("yy", "y", "y"), ("v", "v"))
_FIT = (("g0", "e0", "e0"), ("g1", "e0", "e1"), ("g2", "e1", "e1"), ("g3", "e1", "e2"),
        ("g4", "e2", "e2"), ("ff", "f", "f"))
_PASS1 = _MOMENTS + _FIT + (
    ("a", "a"), ("b", "b"), ("aa", "a", "a"), ("ab", "a", "b"), ("bb", "b", "b"),
    ("r0", "e0", "f"), ("r1", "e1", "f"), ("r2", "e2", "f"))
_PASS2 = _FIT + (("ef", "ef", "ef"), ("eb", "eb", "eb"))


def _add_sums(acc: dict, table, cols: dict, prod: np.ndarray, centre=None) -> None:
    """Add each row's sum over the block to the Python float acc[name], a
    product formed in ``prod``; with ``centre``, the sums of d = (the row's
    column) - centre[name] and of d^2, to acc[name] and acc[name + "^2"]."""
    for name, f, *g in table:
        col = np.multiply(cols[f], cols[g[0]], out=prod) if g else cols[f]
        if centre is not None:
            col = np.subtract(col, centre[name], out=prod)
        acc[name] = acc.get(name, 0.0) + float(np.add.reduce(col))  # pairwise, no BLAS
        if centre is not None:
            col *= col
            acc[name + "^2"] = acc.get(name + "^2", 0.0) + float(np.add.reduce(col))


def _solve(a: list, rhs: list):
    """Solve a x = r for each column r of rhs, ``a`` being a symmetric 3x3
    matrix of Python floats, by Gauss-Jordan elimination in the natural pivot
    order: the solutions as rows, or None where a pivot is not above 1e-12
    times its diagonal entry, and the smallest such ratio, which is a pivot
    of the diagonally scaled matrix."""
    m = [row + r for row, r in zip(a, rhs)]
    ratios = []
    for i in range(3):
        ratios.append(m[i][i] / a[i][i] if a[i][i] > 0.0 else 0.0)
        if not ratios[-1] > 1e-12:
            return None, min(ratios)
        m[i] = [u / m[i][i] for u in m[i]]
        for j in (j for j in range(3) if j != i):
            m[j] = [u - m[j][i] * v for u, v in zip(m[j], m[i])]
    return [row[3:] for row in m], min(ratios)


def path_empirics(e: Ensemble | Container, s_index: int, t_index: int) -> PathEmpirics:
    """Covariances, mean slopes, law of total variance and the quadratic
    backward-variance fit of the pair, in two passes over blocks of rows.

    Pass 1 gives the estimates: the means of X_s^2, X_s X_t, X_t^2 and of v,
    the slopes, and the weighted regression of r^2 = (X_s - (s/t) X_t)^2 on
    (1, X_t, X_t^2), each path weighing 1/v^2 with v = ``core.var_backward``
    at its X_t, floored at WEIGHT_FLOOR * s(t-s)/(t+tau).  Pass 2 gives each
    standard error as the sum of squares of a per-path influence value: the
    deviation from the mean (corrected two-pass, ddof 1), the residual times
    the centred regressor for a slope (HC0, White 1980), and the weighted
    residual times the basis for the fit's HC0 meat, so the weights affect
    only efficiency, not the validity of the standard errors.  Each pass
    sums its table (``_PASS1``, ``_PASS2``) over columns in seven reused
    buffers, and ``_solve`` solves the fit.  The path count is checked after
    pass 1, so a pair that is not finite fails as such at any count.
    """
    _check_pair(e, s_index, t_index)
    n = e.n_paths
    s = float(e.grid[s_index])
    t = float(e.grid[t_index])
    p = known_params(e.kind)
    k = s / t
    floor = WEIGHT_FLOOR * s * (t - s) / (t + p.tau)
    pool = [np.empty(min(ROW_BLOCK, n)) for _ in range(7)]

    def block(x, y):
        """A block's v and the pool cut to its size, q = 1/max(v, floor) and r^2 first."""
        bufs = [buf[: x.size] for buf in pool]
        v = core.var_backward(p, s, t, y)
        np.reciprocal(np.maximum(v, floor, out=bufs[0]), out=bufs[0])
        np.square(np.add(y * -k, x, out=bufs[1]), out=bufs[1])
        return v, bufs

    # the slopes sum X_s, X_t less the first block's means, and the fit's
    # basis is (1, z, z^2) with z = X_t - shift, shift being the first block's
    # weighted mean of X_t: centring keeps the slopes clear of cancellation
    # and the Gram matrix well conditioned where the weights pile up, as at a
    # lattice's floored values
    pass1: dict = {}
    floored = blocks = 0
    for x, y in e.row_blocks(s_index, t_index):
        v, (q, f, a, b, e1, e2, prod) = block(x, y)
        if not blocks:
            w = q * q
            x0, y0 = float(np.add.reduce(x)) / x.size, float(np.add.reduce(y)) / x.size
            shift = float(np.add.reduce(w * y)) / float(np.add.reduce(w))
        np.subtract(x, x0, out=a)
        np.subtract(y, y0, out=b)
        np.multiply(np.subtract(y, shift, out=e2), q, out=e1)
        e2 *= e1
        f *= q
        _add_sums(pass1, _PASS1, dict(x=x, y=y, v=v, a=a, b=b, e0=q, e1=e1, e2=e2, f=f), prod)
        floored += int(np.count_nonzero(v < floor))
        blocks += 1
    if n < 2:
        raise ValueError(f"need at least 2 paths, got {n}")
    means = {name: pass1[name] / n for name, *_ in _MOMENTS}
    sa, sb = pass1["a"], pass1["b"]
    sxx, sxy, syy = pass1["aa"] - sa * sa / n, pass1["ab"] - sa * sb / n, pass1["bb"] - sb * sb / n
    if not (sxx > 0.0 and syy > 0.0):
        raise ValueError("X_s or X_t is constant across paths")
    mx, my, fwd, bwd = x0 + sa / n, y0 + sb / n, sxy / sxx, sxy / syy

    # beta solves G beta = (r0, r1, r2), and the sandwich's diagonal is h_k' M h_k
    # where G h_k = back_k, row k of the map from (1, z, z^2) to (1, X_t, X_t^2)
    back = ((1.0, -shift, shift * shift), (0.0, 1.0, -2.0 * shift), (0.0, 0.0, 1.0))
    sol, fit_pivot = _solve([[pass1[f"g{i + j}"] for j in range(3)] for i in range(3)],
                            [[pass1[f"r{i}"], *(row[i] for row in back)] for i in range(3)])
    b0, b1, b2 = (row[0] for row in sol) if sol else (0.0, 0.0, 0.0)

    pass2: dict = {}
    for x, y in e.row_blocks(s_index, t_index):
        v, (q, f, a, b, e1, e2, prod) = block(x, y)
        _add_sums(pass2, _MOMENTS, dict(x=x, y=y, v=v), prod, centre=means)
        np.subtract(x, mx, out=a)
        np.subtract(y, my, out=b)
        res_f, res_b = a * -fwd + b, b * -bwd + a
        a *= res_f
        b *= res_b
        z = np.subtract(y, shift, out=e2)
        f -= (b2 * z + b1) * z + b0
        f *= q
        q *= f
        np.multiply(q, z, out=e1)
        e2 *= e1
        _add_sums(pass2, _PASS2, dict(ef=a, eb=b, e0=q, e1=e1, e2=e2, f=f), prod)

    def mean(name: str) -> Estimate:
        # the corrected two-pass formula: a constant column gives exactly 0
        sd, ssq = pass2[name], pass2[name + "^2"]
        return Estimate(means[name] + sd / n, math.sqrt(max(ssq - sd * sd / n, 0.0) / (n - 1) / n))

    fit = None
    if sol:
        meat = [[pass2[f"g{i + j}"] for j in range(3)] for i in range(3)]
        ses = (math.sqrt(math.fsum(row[c] * meat[i][j] * col[c] for i, row in enumerate(sol)
                                   for j, col in enumerate(sol))) for c in (1, 2, 3))
        ss_tot = pass1["ff"] - pass1["r0"] * pass1["r0"] / pass1["g0"]
        fit = QuadraticFit(*(math.fsum(u * v for u, v in zip(row, (b0, b1, b2))) for row in back),
                           tuple(ses), 1.0 if ss_tot == 0.0 else 1.0 - pass2["ff"] / ss_tot)
    return PathEmpirics(
        covariance=(mean("xx"), mean("xy"), mean("yy")),
        slope_forward=Estimate(fwd, math.sqrt(pass2["ef"]) / sxx),
        slope_backward=Estimate(bwd, math.sqrt(pass2["eb"]) / syy),
        lotv=mean("v"),
        fit=fit,
        fit_pivot=fit_pivot,
        weights_floored=floored,
        row_blocks=blocks,
    )


def _check_thresholds(thresholds) -> np.ndarray:
    """Positive, strictly ascending thresholds: TailCurve's rule and the tails command's."""
    th = np.asarray(thresholds, dtype=np.float64)
    if not np.all(th > 0) or not np.all(np.diff(th) > 0):
        raise ValueError("thresholds must be ascending and positive")
    return th


@dataclass(frozen=True)
class TailCurve:
    """Two-variable tail function N(t) on a threshold ladder.

    n_samples is None for exact (analytic) curves: then the sampling
    tolerance is zero.  ``hill`` is the Hill estimate that ``tail_curve``
    read off the sorted |Y| column when asked for one, or the message of the
    ValueError it raised.
    """

    thresholds: np.ndarray
    n_values: np.ndarray
    n_samples: int | None
    hill: HillEstimate | str | None = None

    def __post_init__(self) -> None:
        # frozen: store the validated float64 arrays in place of what was given
        th = np.asarray(self.thresholds, dtype=np.float64)
        nv = np.asarray(self.n_values, dtype=np.float64)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "n_values", nv)
        if th.ndim != 1 or th.size == 0 or nv.shape != th.shape:
            raise ValueError("thresholds and n_values must be matching 1-d arrays")
        _check_thresholds(th)
        if not np.all((nv >= 0) & (nv <= 2)):  # NaN fails this too
            raise ValueError("tail values must lie in [0, 2]")
        if np.any(np.diff(nv) > 1e-12):
            raise ValueError("tail values must be non-increasing")


def tail_curve(
    e: Ensemble | Container,
    s_index: int,
    t_index: int,
    thresholds=None,
    normalize: bool = True,
    hill_k: int | None = None,
) -> TailCurve:
    """Empirical N(t) = Pr(|X| > t) + Pr(|Y| > t) for the pair (X_s, X_t).

    With normalize=True the pair is standardized to X_s/sqrt(s), X_t/sqrt(t)
    (unit variances, correlation sqrt(s/t)).  Without thresholds the ladder
    is 50 geometric points from lo = max(median, 1e-9) to
    max(99.5% quantile, 2*lo) of |Y|.

    One column at a time is read, and its |column| sorted once, then divided
    by its sqrt(time) in place: division by a positive constant is monotone,
    so the scaled column is sorted too, bit for bit.  With hill_k, the Hill
    estimate of |Y| at hill_k (``hill_tail_index(X_t, hill_k)``) is read off
    the top of the sorted column before it is scaled.
    """
    _check_pair(e, s_index, t_index)

    def sorted_abs(j: int) -> np.ndarray:
        # the handle hands over a fresh column: take |x| and sort in place
        col = e.column(j)
        np.abs(col, out=col)
        col.sort()
        return col

    def scale(col: np.ndarray, j: int) -> np.ndarray:
        if normalize:
            col /= math.sqrt(float(e.grid[j]))
        return col

    # one sorted column at a time: |Y| gives Hill, the ladder and Pr(|Y| > t)
    ys = sorted_abs(t_index)
    hill = None
    if hill_k is not None:
        try:
            hill = _hill(ys, hill_k)
        except ValueError as exc:
            hill = str(exc)
    scale(ys, t_index)
    if thresholds is None:
        median, top = sorted_quantiles(ys, [0.5, 0.995]).tolist()
        lo = max(median, 1e-9)
        thresholds = np.geomspace(lo, max(top, lo * 2.0), 50)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n = ys.size
    py = 1.0 - np.searchsorted(ys, thresholds, side="right") / n
    del ys
    px = 1.0 - np.searchsorted(scale(sorted_abs(s_index), s_index), thresholds, side="right") / n
    return TailCurve(thresholds=thresholds, n_values=px + py, n_samples=n, hill=hill)


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


def _hill(x: np.ndarray, k: int) -> HillEstimate:
    """The Hill estimate at k of a non-negative column whose last k+1
    entries are its top order statistics in ascending order."""
    n = x.size
    if k < 1 or k >= n / 2:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    top = x[n - k - 1 :][::-1]
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


def hill_tail_index(samples, k: int) -> HillEstimate:
    """Hill estimator of the polynomial tail exponent on the top-k order
    statistics of |samples|, with the asymptotic 95% interval
    alpha * (1 -+ 1.96/sqrt(k)).  ``tail_curve`` gives the same estimate
    from the column it sorts."""
    # np.abs copies a strided column once and ravel keeps that copy, which
    # is sorted in place as tail_curve sorts its |X_t|
    x = np.abs(np.asarray(samples, dtype=np.float64)).ravel()
    x.sort()
    return _hill(x, k)

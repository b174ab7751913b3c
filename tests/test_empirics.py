import dataclasses
import math
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qharness import core, empirics
from qharness.certificates import make_certificate
from qharness.core import KINDS, var_backward
from qharness.empirics import (
    MIN_BIN_COUNT,
    ROW_BLOCK,
    WEIGHT_FLOOR,
    TailCurve,
    _bin_labeller,
    check_tail_recursion,
    estimate_conditional,
    gaussian_pair_tail_curve,
    gaussian_tail,
    hill_tail_index,
    path_empirics,
    sorted_quantiles,
    tail_curve,
)
from qharness.simulate import (
    BLOCK_PATHS,
    _header,
    Ensemble,
    ProcessKind,
    known_params,
    read_header,
    sample_ensemble,
    save_ensemble,
)

from conftest import GRID, SEED, kind_of, traced_peak


def display_var(p, s, t, x, value):
    """The binned table's predicted variance: +0.0 where the closed form's
    value is within 8 eps of pref * (1 + |linear term| + quadratic term),
    its rounding bound, and the value itself otherwise."""
    pref, r = s * (t - s) / (t + p.tau), x / t
    lin, quad = p.theta * r, p.tau * r * r
    return 0.0 if abs(value) <= 8 * sys.float_info.epsilon * pref * (1 + abs(lin) + quad) else value


def reference_edges(cond, n_bins):
    """Each distinct value of the column as a bin (the last edge repeated)
    when there are at most n_bins of them, else the distinct quantile edges."""
    uniq = np.unique(cond)
    if uniq.size <= n_bins:
        return np.append(uniq, uniq[-1])
    return np.unique(np.quantile(cond, np.linspace(0.0, 1.0, n_bins + 1)))


def masked_reference(e, s_index, t_index, n_bins):
    """Per-bin boolean-mask estimate of X_s given X_t, the largest |value|
    each statistic column sums, and the parameters of the closed forms."""
    s, t = float(e.grid[s_index]), float(e.grid[t_index])
    cond, target = e.paths[:, t_index], e.paths[:, s_index]
    edges = reference_edges(cond, n_bins)
    assign = np.clip(np.searchsorted(edges[:-1], cond, side="right") - 1, 0, edges.size - 2)
    resid_sq = (target - (s / t) * cond) ** 2
    p = known_params(e.kind)
    nb = edges.size - 1
    cols = {k: np.zeros(nb) for k in ("x_mean", "mean", "var", "se_mean", "se_var")}
    top = {k: np.zeros(nb) for k in ("y", "r2")}
    count = np.zeros(nb, dtype=np.int64)
    for b in range(nb):
        sel = assign == b
        n = int(np.count_nonzero(sel))
        count[b] = n
        if n == 0:
            continue
        cols["x_mean"][b] = cond[sel].mean()
        y, r2 = target[sel], resid_sq[sel]
        cols["mean"][b] = y.mean()
        cols["var"][b] = r2.mean()
        top["y"][b], top["r2"][b] = np.abs(y).max(), np.abs(r2).max()
        if n > 1:
            cols["se_mean"][b] = y.std(ddof=1) / math.sqrt(n)
            cols["se_var"][b] = r2.std(ddof=1) / math.sqrt(n)
    return dict(cols, bin_lo=edges[:-1], bin_hi=edges[1:], count=count,
                confident=count >= MIN_BIN_COUNT), top, p


# the bins, counts and confidence flags are exact; the per-bin sums run in
# another order than the reference's, so the statistics agree to rounding
EXACT_COLUMNS = ("bin_lo", "bin_hi", "count", "confident")
# the values each statistic column sums: where a bin's statistic is itself
# rounding noise (a constant bin's SE, a mean that cancels to near 0), it
# agrees to 4 eps of the bin's largest |value|, over sqrt(m) for an SE
STATISTICS = {"mean": "y", "se_mean": "y", "var": "r2", "se_var": "r2"}


def assert_matches_reference(b, reference):
    ref, top, p = reference
    for name, expected in ref.items():
        got = getattr(b, name)
        if name in EXACT_COLUMNS:
            assert np.array_equal(got, expected), name
        elif name in STATISTICS:
            floor = 4 * np.finfo(np.float64).eps * top[STATISTICS[name]]
            if name.startswith("se_"):
                floor /= np.sqrt(np.maximum(ref["count"], 1))
            bound = np.maximum(1e-13 * np.abs(expected), floor)
            assert np.all(np.abs(got - expected) <= bound), name
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0, err_msg=name)
    # the predictions are the closed forms at the program's own x_mean, one
    # scalar call per filled bin, bit for bit (an empty bin predicts +0.0)
    pred_mean, pred_var = np.zeros((2, b.n_bins))
    for i in np.flatnonzero(b.count):
        x = float(b.x_mean[i])
        pred_mean[i] = core.one_sided_mean("backward", b.s, b.t, x)
        pred_var[i] = display_var(p, b.s, b.t, x, core.var_backward(p, b.s, b.t, x))
    assert b.pred_mean.tobytes() == pred_mean.tobytes()
    assert b.pred_var.tobytes() == pred_var.tobytes()


class TestEstimateConditional:
    def test_gamma_backward_mean_tracks_regression(self, gamma_ens):
        b = estimate_conditional(gamma_ens, 1, 3, 30)
        sel = b.confident & (b.se_mean > 0)
        devs = np.abs(b.mean[sel] - b.pred_mean[sel]) / b.se_mean[sel]
        assert np.mean(devs <= 4.0) >= 0.9

    def test_predictions_share_the_closed_form_code_path(self, gamma_ens):
        b = estimate_conditional(gamma_ens, 1, 3, 10)
        p = known_params(gamma_ens.kind)
        for i in range(b.n_bins):
            if b.count[i]:
                expect = var_backward(p, b.s, b.t, float(b.x_mean[i]))
                assert b.pred_var[i] == expect

    def test_rounding_noise_at_a_root_shows_as_zero(self):
        # the lowest pascal lattice value is the root of the backward
        # variance; the closed form gives -1.39e-17 there, the table +0.0
        e = sample_ensemble(ProcessKind("pascal", 0.5), GRID, 200_000, seed=5)
        b = estimate_conditional(e, 1, 3, 40)
        raw = var_backward(known_params(e.kind), b.s, b.t, float(b.x_mean[0]))
        assert raw == -1.3877787807814457e-17
        assert b.pred_var[0] == 0.0 and math.copysign(1.0, b.pred_var[0]) == 1.0
        assert np.all(b.pred_var[1:] > 0.0)

    def test_negatives_beyond_rounding_are_kept(self):
        # at t = 1 the pascal backward variance is negative for X_t between
        # the roots of 1 + theta*x + x^2; the upper root is the lattice's
        # lowest value.  X_t well inside and just (1e-12) beyond it gives
        # negatives beyond the rounding bound, which stay as they are
        kind = ProcessKind("pascal", 0.5)
        theta = known_params(kind).theta
        root = (-theta + math.sqrt(theta * theta - 4.0)) / 2.0
        values = np.array([-1.0, root - 1e-12, 1.0, 2.0, 3.0])
        xt = np.repeat(values, 40)
        paths = np.column_stack((np.random.default_rng(4).standard_normal(xt.size), xt))
        b = estimate_conditional(Ensemble(kind, np.array([0.5, 1.0]), paths, seed=0), 0, 1, 5)
        expect = var_backward(known_params(kind), 0.5, 1.0, b.x_mean)
        assert np.all(expect[:2] < 0.0)
        assert b.pred_var.tolist() == expect.tolist()

    def test_counts_partition_paths(self, poisson_ens):
        b = estimate_conditional(poisson_ens, 1, 3, 40)
        assert b.count.sum() == poisson_ens.n_paths

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_bins", [10, 40])
    def test_matches_masked_reference(self, all_ensembles, kind, n_bins):
        e = all_ensembles[kind]
        b = estimate_conditional(e, 1, 3, n_bins)
        assert_matches_reference(b, masked_reference(e, 1, 3, n_bins))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_bins", [5, 300, 400, 2000])
    def test_narrow_labels_match_masked_reference(self, all_ensembles, kind, n_bins):
        # 5 bins keep uint8 labels, 300, 400 and 2,000 quantile bins uint16;
        # at 5 bins the poisson lattice has more values than bins, so
        # duplicate quantile edges collapse
        e = all_ensembles[kind]
        b = estimate_conditional(e, 1, 3, n_bins)
        if kind == "poisson" and n_bins == 5:
            assert b.n_bins < n_bins
        assert_matches_reference(b, masked_reference(e, 1, 3, n_bins))

    @pytest.mark.parametrize("n_bins, step", [(5, 0.05), (40, 0.05), (400, 0.002)])
    def test_tied_continuous_column_matches_masked_reference(self, gamma_ens, n_bins, step):
        # gamma paths rounded to a grid keep more distinct values than bins, so
        # the bins come from ranks, while runs of ties straddle the quantile
        # positions.  On this ensemble 0.05 leaves fewer than 400 distinct
        # values, so the 400-bin case rounds to 0.002
        e = Ensemble(gamma_ens.kind, gamma_ens.grid,
                     np.round(gamma_ens.paths / step) * step, seed=gamma_ens.seed)
        srt = np.sort(e.paths[:, 3])
        assert np.count_nonzero(srt[1:] != srt[:-1]) + 1 > n_bins
        pos = np.arange(1, n_bins) * (srt.size - 1) // n_bins
        assert np.any(srt[pos - 1] == srt[pos + 1])
        b = estimate_conditional(e, 1, 3, n_bins)
        assert_matches_reference(b, masked_reference(e, 1, 3, n_bins))

    def test_empty_and_one_path_bins(self):
        # 13 values with 7 distinct: the interpolated quantile edges leave a
        # one-path bin [2.4, 4) and an empty bin [5.2, 6), so the per-bin
        # sums must skip the empty segment and the single path keeps SE 0
        column = np.array([0, 2, 2, 3, 4, 4, 5, 5, 6, 6, 6, 8, 8], dtype=float)
        rng = np.random.default_rng(3)
        cond = rng.permutation(column)
        other = rng.standard_normal(column.size)
        paths = np.column_stack((other, cond))
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        b = estimate_conditional(e, 0, 1, 5)
        assert b.count.tolist() == [3, 1, 4, 0, 5]
        assert b.se_mean[1] == b.se_var[1] == 0.0
        assert b.x_mean[3] == b.mean[3] == b.var[3] == b.se_mean[3] == 0.0
        assert_matches_reference(b, masked_reference(e, 0, 1, 5))

    def test_degenerate_conditioning_rejected(self):
        paths = np.tile([[1.0, 2.0]], (100, 1))
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_conditional(e, 0, 1, 10)

    def test_too_few_bins_rejected(self, wiener_ens):
        with pytest.raises(ValueError):
            estimate_conditional(wiener_ens, 1, 3, 4)


def assert_labels(column, n_bins):
    """The guide table labels every value of the column with its bin,
    searchsorted(edges[1:-1], x, "right"); returns how many it searched."""
    column = np.asarray(column, dtype=np.float64)
    edges = reference_edges(column, n_bins)
    assert edges[0] == column.min() and edges[-1] == column.max()
    out = np.empty(column.size, dtype=np.intp)
    searches = _bin_labeller(edges)(column, out)
    assert np.array_equal(out, np.searchsorted(edges[1:-1], column, side="right"))
    assert 0 <= searches <= column.size
    return searches


class TestBinnedInPathOrder:
    """Each path's bin comes from its X_t through a guide table, exactly as a
    binary search of the inner edges gives it, and each bin is summed in
    path order: the columns follow no sort order, so a container and its
    ensemble, in either layout, give them bit for bit, and the binning
    holds X_t's sorted copy and mask, then one narrow label per path."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_bins", [5, 40, 400, 2000, 20_000])
    def test_labels_match_binary_search(self, all_ensembles, kind, n_bins):
        searches = assert_labels(all_ensembles[kind].paths[:, 3], n_bins)
        if n_bins <= 2000:  # a bin narrower than 1/32 of the mean bin width is rare
            assert searches <= all_ensembles[kind].n_paths // 100

    @pytest.mark.parametrize("n_bins", [5, 40, 400])
    def test_labels_on_ties_at_edges(self, gamma_ens, n_bins):
        column = np.round(gamma_ens.paths[:, 3] / 0.05) * 0.05
        edges = reference_edges(column, n_bins)
        assert np.isin(edges[1:-1], column).sum() >= edges.size // 2
        assert_labels(column, n_bins)

    def test_labels_on_signed_zeros(self):
        rng = np.random.default_rng(9)
        assert_labels(rng.choice([-0.0, 0.0, 1.0, 2.0, -1.0], 5000), 5)
        continuous = rng.standard_normal(5000)
        continuous[rng.permutation(continuous.size)[:2000]] = rng.choice([-0.0, 0.0], 2000)
        assert_labels(continuous, 5)

    def test_labels_with_an_outlier(self, gamma_ens):
        # one path at 1e12 squeezes every other into the lowest cell, with
        # every inner edge: those at or past its second edge are searched
        column = gamma_ens.paths[:, 3].copy()
        column[17] = 1e12
        edges = reference_edges(column, 400)
        assert assert_labels(column, 400) == np.count_nonzero(column >= edges[2]) - 1

    @pytest.mark.parametrize("end", [1e308, np.finfo(np.float64).max])
    def test_labels_on_a_range_that_overflows(self, end):
        # max - min overflows, so the table is one cell
        column = np.append(np.random.default_rng(2).standard_normal(3000), [-end, end])
        edges = reference_edges(column, 40)
        assert assert_labels(column, 40) == np.count_nonzero(column >= edges[2])

    def test_labels_on_subnormals(self):
        # a range of a few hundred subnormal steps is too narrow for the
        # cells, so the table is one cell
        column = np.random.default_rng(3).integers(1, 500, 4000) * 5e-324
        assert np.all(column < np.finfo(np.float64).tiny)
        edges = reference_edges(column, 40)
        assert assert_labels(column, 40) == np.count_nonzero(column >= edges[2])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e300, 1e300),
                              st.sampled_from([-0.0, 0.0, 1.0, 2.5, 1e-310])),
                    min_size=2, max_size=300),
           st.integers(5, 60))
    def test_labels_property(self, values, n_bins):
        assume(len(set(values)) >= 2)
        assert_labels(values, n_bins)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, ROW_BLOCK - 1, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7])
    def test_container_equals_ensemble(self, tmp_path, kind, n):
        e = sample_ensemble(kind_of(kind), GRID, n, seed=SEED)
        f = Ensemble(e.kind, e.grid, np.asfortranarray(e.paths), seed=e.seed)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        for n_bins in (5, 400):
            want = estimate_conditional(e, 1, 3, n_bins)
            assert_same(estimate_conditional(f, 1, 3, n_bins), want)
            assert_same(estimate_conditional(read_header(path), 1, 3, n_bins), want)

    def test_constant_bin_has_zero_se(self):
        # every path at pascal's lowest X_t has the lowest X_s too, so that
        # bin's X_s and r^2 are constant.  On this ensemble the plain running
        # sum of its 499,980 X_s strays 4.4e-14 from 499,980 times the value,
        # which left SE 8.7e-25; summed less the bin's first value, a bin of
        # equal values sums zeros
        e = sample_ensemble(kind_of("pascal"), GRID, 10**6, seed=1)
        b = estimate_conditional(e, 1, 3, 40)
        xs = e.paths[e.paths[:, 3] == b.bin_lo[0], 1]
        assert b.count[0] == 499_980 and np.all(xs == xs[0])
        assert b.se_mean[0] == 0.0 and b.se_var[0] == 0.0
        assert b.mean[0] == xs[0]

    @pytest.mark.parametrize("n_bins", [5, 40])
    def test_one_bin_across_blocks(self, n_bins):
        # a bin of 3 ROW_BLOCK + 5 ties among continuous values, so small bins
        # sit on both sides of one whose sums run over every block
        rng = np.random.default_rng(8)
        xt = rng.standard_normal(6 * ROW_BLOCK)
        xt[rng.permutation(xt.size)[: 3 * ROW_BLOCK + 5]] = 0.25
        paths = np.column_stack((rng.standard_normal(xt.size) + xt, xt))
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        b = estimate_conditional(e, 0, 1, n_bins)
        assert b.count.max() >= 3 * ROW_BLOCK + 5
        assert_matches_reference(b, masked_reference(e, 0, 1, n_bins))

    def test_signed_zeros_in_the_conditioning_column(self):
        # -0.0 and 0.0 share a bin, and r^2 is the same at either
        rng = np.random.default_rng(9)
        xt = rng.choice([-0.0, 0.0, 1.0, 2.0, -1.0], 5000)
        paths = np.column_stack((rng.choice([-0.0, 0.0, 0.5], xt.size), xt))
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        assert_matches_reference(estimate_conditional(e, 0, 1, 5), masked_reference(e, 0, 1, 5))

    @pytest.mark.parametrize("name, n_bins", [("gamma", 400), ("pascal", 40)])
    def test_peak_on_column_major_input(self, name, n_bins):
        n = 1_000_000
        e = sample_ensemble(kind_of(name), (0.5, 1.0), n, seed=SEED)
        e = Ensemble(e.kind, e.grid, np.asfortranarray(e.paths), seed=e.seed)
        b = estimate_conditional(e, 0, 1, n_bins)  # first-call allocations
        assert b.label_searches == 0
        # 9 bytes per path: X_t's sorted copy and its mask of distinct values;
        # the labels (1 or 2 bytes per path) come after both are freed
        assert traced_peak(lambda: estimate_conditional(e, 0, 1, n_bins)) <= 9 * n + 2 * 2**20


def covariance_reference(e, i, j):
    """Sample mean of X_{t_i} X_{t_j} and its standard error, over whole columns."""
    prod = e.paths[:, i] * e.paths[:, j]
    return float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(prod.size))


def slope_reference(e, s_index, t_index, direction):
    """OLS slope of the one-sided conditional mean with its HC0 standard error."""
    xs, xt = e.paths[:, s_index], e.paths[:, t_index]
    x, y = (xs, xt) if direction == "forward" else (xt, xs)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * yc)) / sxx
    resid = yc - slope * xc
    return slope, math.sqrt(float(np.sum((xc * resid) ** 2))) / sxx


def lotv_reference(e, s_index, t_index):
    """Mean of the backward conditional variance and its standard error."""
    s, t = float(e.grid[s_index]), float(e.grid[t_index])
    v = var_backward(known_params(e.kind), s, t, e.paths[:, t_index])
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def fit_reference(e, s_index, t_index):
    """Weighted least squares of r^2 = (X_s - (s/t) X_t)^2 on (1, X_t, X_t^2)
    by QR over whole columns, with the HC0 sandwich R^-1 Q' D^2 Q R^-T."""
    s, t = float(e.grid[s_index]), float(e.grid[t_index])
    xs, xt = e.paths[:, s_index], e.paths[:, t_index]
    p = known_params(e.kind)
    v = var_backward(p, s, t, xt)
    sw = 1.0 / np.maximum(v, WEIGHT_FLOOR * s * (t - s) / (t + p.tau))
    design = np.column_stack([np.ones_like(xt), xt, xt * xt])
    r2 = (xs - (s / t) * xt) ** 2
    q, r = np.linalg.qr(design * sw[:, None])
    beta = np.linalg.solve(r, q.T @ (r2 * sw))
    qd = q * (sw * (r2 - design @ beta))[:, None]
    rinv = np.linalg.inv(r)
    return beta, np.sqrt(np.diag(rinv @ (qd.T @ qd) @ rinv.T))


def close(got, want, rel, scale=0.0):
    return abs(got - want) <= rel * max(abs(want), scale)


@pytest.fixture(scope="module")
def block_ensembles():
    """3 blocks and 7 paths of every kind: slices of it end inside, at and
    just past a block boundary."""
    n = 3 * ROW_BLOCK + 7
    return {name: sample_ensemble(kind_of(name), GRID, n, seed=SEED) for name in KINDS}


@contextmanager
def fast_switching():
    """The interpreter switches threads every microsecond inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class Gated:
    """An ensemble's handle whose ``row_blocks`` count the blocks each pass
    yields and hold each pass's second block: they set ``waiting``, then wait
    for ``release``."""

    def __init__(self, e):
        self.e, self.kind, self.grid, self.n_paths, self.n_times = (
            e, e.kind, e.grid, e.n_paths, e.n_times)
        self.waiting, self.release, self.read = threading.Event(), threading.Event(), []

    def column(self, j):
        return self.e.column(j)

    def row_blocks(self, s_index, t_index):
        k = len(self.read)
        self.read.append(0)
        for n, block in enumerate(self.e.row_blocks(s_index, t_index)):
            if n == 1:
                self.waiting.set()
                assert self.release.wait(30)
            self.read[k] += 1
            yield block


class TestThreadedBinning:
    """The binning's streamed passes run on a worker thread while the calling
    thread runs ``beside``: the bins are bit for bit those of a call without
    it, also under fast thread switching; an error of ``beside`` comes before
    the binning's, and the worker stops before its next block and is joined
    before the error leaves."""

    @pytest.fixture(scope="class")
    def handles(self, block_ensembles, tmp_path_factory):
        """Each kind's ensemble row-major, column-major and as a container."""
        d = tmp_path_factory.mktemp("threaded")
        out = {}
        for name, e in block_ensembles.items():
            save_ensemble(e, d / f"{name}.qhe")
            f = Ensemble(e.kind, e.grid, np.asfortranarray(e.paths), seed=e.seed)
            out[name] = (e, f, read_header(d / f"{name}.qhe"))
        return out

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_bins", [5, 40, 400, 2000])
    def test_same_bins_beside_checks(self, handles, kind, n_bins):
        want = estimate_conditional(handles[kind][0], 1, 3, n_bins)
        for h in handles[kind]:
            def checks():
                path_empirics(h, 1, 3)

            assert_same(estimate_conditional(h, 1, 3, n_bins), want)
            assert_same(estimate_conditional(h, 1, 3, n_bins, beside=checks), want)
            with fast_switching():
                assert_same(estimate_conditional(h, 1, 3, n_bins), want)
                assert_same(estimate_conditional(h, 1, 3, n_bins, beside=checks), want)

    def test_beside_error_stops_the_worker_before_its_next_block(self, monkeypatch,
                                                                 block_ensembles):
        # both passes start on the calling thread (one block each); the worker
        # asks for pass 1's second block, beside fails, and the block is let
        # through once the failure is recorded: the worker sums that block
        # and reads no further one of either pass
        g = Gated(block_ensembles["gamma"])

        class Recording(threading.Event):
            def set(self):
                super().set()
                g.release.set()

        def fail():
            assert g.waiting.wait(30)
            raise RuntimeError("beside fails")

        monkeypatch.setattr(empirics, "Event", Recording)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="beside fails"):
            estimate_conditional(g, 1, 3, 40, beside=fail)
        assert threading.active_count() == before
        assert g.read == [2, 1]

    def test_set_up_error_waits_for_beside(self):
        # a constant X_t fails the sort phase: beside still runs, and its
        # error comes first
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), np.tile([[1.0, 2.0]], (100, 1)),
                     seed=0)
        ran = []
        with pytest.raises(ValueError, match="degenerate"):
            estimate_conditional(e, 0, 1, 10, beside=lambda: ran.append(True))
        assert ran == [True]

        def fail():
            raise RuntimeError("beside fails")

        with pytest.raises(RuntimeError, match="beside fails"):
            estimate_conditional(e, 0, 1, 10, beside=fail)

    @pytest.mark.parametrize("row", [3, ROW_BLOCK + 3, 3 * ROW_BLOCK + 6])
    def test_worker_error_after_beside(self, tmp_path, block_ensembles, row):
        # a NaN X_s in the first block fails the set-up, in a later one the
        # worker: either is raised after beside has run, and the worker is joined
        e = block_ensembles["gamma"]
        paths = e.paths.copy()
        paths[row, 1] = np.nan
        head = _header(e.kind, e.seed, e.n_paths, e.grid)
        (tmp_path / "nan.qhe").write_bytes(head + paths.astype("<f8").tobytes())
        c = read_header(tmp_path / "nan.qhe")
        before = threading.active_count()
        ran = []
        with pytest.raises(ValueError, match="path values must be finite"):
            estimate_conditional(c, 1, 3, 40, beside=lambda: ran.append(True))
        assert ran == [True] and threading.active_count() == before


class TestPathEmpirics:
    def test_block_size_is_whole_sampler_blocks(self):
        assert ROW_BLOCK % BLOCK_PATHS == 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7])
    def test_matches_one_shot_reference(self, block_ensembles, kind, n):
        full = block_ensembles[kind]
        e = Ensemble(full.kind, full.grid, full.paths[:n], seed=full.seed)
        pe = path_empirics(e, 1, 3)
        assert pe.row_blocks == -(-n // ROW_BLOCK)
        for est, (i, j) in zip(pe.covariance, ((1, 1), (1, 3), (3, 3))):
            value, se = covariance_reference(e, i, j)
            assert close(est.value, value, 1e-12) and close(est.se, se, 1e-12), (i, j)
        value, se = lotv_reference(e, 1, 3)
        assert close(pe.lotv.value, value, 1e-12) and close(pe.lotv.se, se, 1e-12)
        for direction, est in (("forward", pe.slope_forward), ("backward", pe.slope_backward)):
            slope, se = slope_reference(e, 1, 3, direction)
            assert close(est.value, slope, 1e-12)
            if n == 2:
                # two paths fit exactly: the HC0 numerator is a difference of
                # equal power sums, and its square root is rounding noise
                assert est.se <= 1e-6 * abs(slope), direction
            else:
                assert close(est.se, se, 1e-12), direction
        if n == 2:
            assert pe.fit is None
            return
        beta, se = fit_reference(e, 1, 3)
        got = (pe.fit.c0, pe.fit.c1, pe.fit.c2)
        scale = float(np.max(np.abs(beta)))
        for g, want in zip(got, beta):
            assert close(g, want, 1e-12, scale)
        for g, want in zip(pe.fit.se, se):
            assert close(g, want, 1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("c", [1e3, 1e6])
    def test_slopes_are_translation_invariant(self, block_ensembles, kind, c):
        # the slopes' sums are of shifted columns, so a common offset of the
        # paths cancels instead of swamping the co-moments
        e = block_ensembles[kind]
        moved = Ensemble(e.kind, e.grid, e.paths + c, seed=e.seed)
        pe, pm = path_empirics(e, 1, 3), path_empirics(moved, 1, 3)
        for got, want in ((pm.slope_forward, pe.slope_forward),
                          (pm.slope_backward, pe.slope_backward)):
            assert close(got.value, want.value, 1e-9) and close(got.se, want.se, 1e-9)

    def test_weights_floored_and_counted(self, block_ensembles):
        e = block_ensembles["poisson"]
        s, t = float(e.grid[1]), float(e.grid[3])
        p = known_params(e.kind)
        v = var_backward(p, s, t, e.paths[:, 3])
        floored = int(np.count_nonzero(v < WEIGHT_FLOOR * s * (t - s) / (t + p.tau)))
        assert floored > 0  # the poisson count 0 at t = 1 has v = 0
        assert path_empirics(e, 1, 3).weights_floored == floored

    @pytest.mark.parametrize("grid, s_index", [((0.5, 1.0), 0), ((0.25, 0.75), 0)])
    def test_constant_lotv_column_has_zero_se(self, grid, s_index):
        # wiener's backward variance is the constant s(t-s)/t; at (0.25, 0.75)
        # that is 1/6, which a running sum does not reproduce exactly
        e = sample_ensemble(ProcessKind("wiener"), grid, 3 * ROW_BLOCK + 7, seed=SEED)
        pe = path_empirics(e, s_index, 1)
        s, t = grid
        assert pe.lotv.se == 0.0
        assert pe.lotv.value == s * (t - s) / t

    def test_known_slopes_and_fit(self, all_ensembles):
        for name, e in all_ensembles.items():
            pe = path_empirics(e, 1, 3)
            s, t = float(e.grid[1]), float(e.grid[3])
            assert abs(pe.slope_forward.value - 1.0) <= 3 * pe.slope_forward.se, name
            assert abs(pe.slope_backward.value - s / t) <= 3 * pe.slope_backward.se, name
            p = known_params(e.kind)
            pref = s * (t - s) / (t + p.tau)
            for c, pred, se in zip((pe.fit.c0, pe.fit.c1, pe.fit.c2),
                                   (pref, pref * p.theta / t, pref * p.tau / t**2), pe.fit.se):
                assert abs(c - pred) <= 3 * se, name

    def test_two_distinct_values_leave_no_fit(self):
        rng = np.random.default_rng(1)
        xt = rng.integers(0, 2, 1000).astype(float)
        paths = np.column_stack([xt * 0.5 + rng.standard_normal(1000) * 0.1, xt])
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        assert path_empirics(e, 0, 1).fit is None

    def test_three_values_one_rare_give_a_fit(self):
        # five of 1000 paths hold the third value, which is enough
        rng = np.random.default_rng(1)
        xt = np.where(np.arange(1000) < 5, 2.0, rng.integers(0, 2, 1000).astype(float))
        paths = np.column_stack([xt * 0.5 + rng.standard_normal(1000) * 0.1, xt])
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        pe = path_empirics(e, 0, 1)
        assert pe.fit is not None and pe.fit_pivot > 1e-12

    def test_two_paths_give_no_fit(self):
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]),
                     np.array([[0.1, 0.3], [-0.2, 1.1]]), seed=0)
        pe = path_empirics(e, 0, 1)
        assert pe.fit is None and pe.fit_pivot <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_pivot_rule_agrees_with_matrix_rank(self, all_ensembles, kind):
        # the pivots relative to their diagonal entries are those of the
        # diagonally scaled Gram matrix, whose rank numpy's SVD takes at tol
        # 1e-12; the basis is (1, z, z^2), z = X_t less the first block's
        # weighted mean
        e = all_ensembles[kind]
        s, t = float(e.grid[1]), float(e.grid[3])
        xt = e.paths[:, 3]
        p = known_params(e.kind)
        sw = 1.0 / np.maximum(var_backward(p, s, t, xt), WEIGHT_FLOOR * s * (t - s) / (t + p.tau))
        w = sw[:ROW_BLOCK] ** 2
        basis = sw[:, None] * (xt - np.sum(w * xt[:ROW_BLOCK]) / np.sum(w))[:, None] ** np.arange(3)
        gram = basis.T @ basis
        scaled = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        pe = path_empirics(e, 1, 3)
        assert np.linalg.matrix_rank(scaled, tol=1e-12) == 3 and pe.fit is not None
        assert close(pe.fit_pivot, float(np.min(np.diag(np.linalg.cholesky(scaled)) ** 2)), 1e-9)

    def test_constant_column_rejected(self):
        paths = np.column_stack([np.arange(100.0), np.full(100, 2.0)])
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        with pytest.raises(ValueError, match="constant"):
            path_empirics(e, 0, 1)


class TestSortedQuantiles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 101, 1000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_bit_identical_to_numpy(self, n, ties):
        rng = np.random.default_rng(n)
        col = np.sort(rng.integers(0, 4, n).astype(float) if ties else rng.standard_normal(n))
        qs = np.concatenate([np.linspace(0.0, 1.0, 401), [0.5, 0.995, 0.25, 0.75, 1 / 3, 2 / 3]])
        assert np.array_equal(sorted_quantiles(col, qs), np.quantile(col, qs))

    def test_upper_branch_of_the_interpolation(self):
        # numpy steps down from the upper neighbour at weights of 1/2 and
        # more; a + (b - a) * w alone misses the last bit on this column
        col = np.sort(np.random.default_rng(0).standard_normal(5))
        qs = np.linspace(0.0, 1.0, 101)
        virtual = (col.size - 1) * qs
        lo = np.floor(virtual).astype(int)
        hi = np.minimum(lo + 1, col.size - 1)
        from_below = col[lo] + (col[hi] - col[lo]) * (virtual - lo)
        assert not np.array_equal(from_below, np.quantile(col, qs))
        assert np.array_equal(sorted_quantiles(col, qs), np.quantile(col, qs))


class TestTailCurve:
    def test_gaussian_marginals(self, wiener_ens):
        thresholds = np.linspace(0.2, 3.0, 12)
        tc = tail_curve(wiener_ens, 1, 3, thresholds, normalize=True)
        n = wiener_ens.n_paths
        for tau, val in zip(tc.thresholds, tc.n_values):
            exact = 2.0 * gaussian_tail(float(tau))
            se = 2.0 * math.sqrt(exact / 2 * (1 - exact / 2) / n)
            assert abs(val - exact) <= 5 * se + 1e-12

    def test_tiny_threshold_saturates(self, gamma_ens):
        tc = tail_curve(gamma_ens, 1, 3, [1e-300], normalize=True)
        assert tc.n_values[0] == 2.0

    def test_beyond_max_sample_is_zero(self, wiener_ens):
        big = float(np.abs(wiener_ens.paths).max()) * 10
        tc = tail_curve(wiener_ens, 1, 3, [1.0, big], normalize=False)
        assert tc.n_values[-1] == 0.0

    def test_monotone_and_bounded(self, pascal_ens):
        tc = tail_curve(pascal_ens, 0, 3, np.geomspace(0.05, 20, 40))
        assert np.all(np.diff(tc.n_values) <= 0)
        assert np.all((tc.n_values >= 0) & (tc.n_values <= 2))

    @pytest.mark.parametrize("name", KINDS)
    @pytest.mark.parametrize("normalize", [True, False])
    def test_default_ladder(self, all_ensembles, name, normalize):
        e = all_ensembles[name]
        y = np.abs(e.paths[:, 3])
        if normalize:
            y = y / math.sqrt(float(e.grid[3]))
        lo = max(float(np.quantile(y, 0.5)), 1e-9)
        hi = max(float(np.quantile(y, 0.995)), lo * 2.0)
        tc = tail_curve(e, 1, 3, normalize=normalize)
        assert np.array_equal(tc.thresholds, np.geomspace(lo, hi, 50))
        explicit = tail_curve(e, 1, 3, tc.thresholds, normalize=normalize)
        assert np.array_equal(tc.n_values, explicit.n_values)

    @pytest.mark.parametrize("thresholds", [[], [1.0, 0.5], [0.0, 1.0], [[0.5, 1.0]], 1.0])
    def test_bad_thresholds_rejected(self, wiener_ens, thresholds):
        with pytest.raises(ValueError, match="thresholds"):
            tail_curve(wiener_ens, 1, 3, thresholds)

    def test_validation(self):
        with pytest.raises(ValueError):
            TailCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 10)
        with pytest.raises(ValueError):
            TailCurve(np.array([0.5, 1.0]), np.array([1.0, 3.0]), 10)
        with pytest.raises(ValueError):
            TailCurve(np.array([0.5, 1.0]), np.array([0.5, 1.0]), 10)  # increasing
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            TailCurve(np.array([0.5, 1.0]), np.array([np.nan, np.nan]), 10)


def scalar_tail_recursion(tc, cert, se_multiplier=3.0):
    """Reference: the per-threshold loop check_tail_recursion replaced.

    Returns (passed, max_violation, rows) with rows as (t, n_t, n_kt, bound,
    violation, tolerance) tuples.
    """
    def binomial_se(n_value):
        if tc.n_samples is None:
            return 0.0
        clipped = min(max(n_value, 0.0), 2.0)
        return math.sqrt(clipped * (2.0 - clipped) / tc.n_samples)

    k = cert.chain.K
    th, nv = tc.thresholds, tc.n_values
    log_t = np.log(th)
    rows = []
    for i in range(th.size):
        kt = k * th[i]
        if kt > th[-1] * (1.0 + 1e-12):
            break
        n_t = float(nv[i])
        j = int(np.searchsorted(th, kt, side="left"))
        if j == 0:
            n_kt = float(nv[0])
        elif j >= th.size or math.isclose(kt, th[j], rel_tol=1e-12):
            n_kt = float(nv[min(j, th.size - 1)])
        else:
            lo, hi = j - 1, j
            if nv[lo] <= 0.0 or nv[hi] <= 0.0:
                n_kt = 0.0
            else:
                frac = (math.log(kt) - log_t[lo]) / (log_t[hi] - log_t[lo])
                n_kt = math.exp((1.0 - frac) * math.log(nv[lo]) + frac * math.log(nv[hi]))
        coeff = cert.c1 / th[i] ** 2 + cert.c2 / th[i] + cert.q
        bound = coeff * n_t
        tol = binomial_se(n_kt) + coeff * binomial_se(n_t)
        rows.append((float(th[i]), n_t, n_kt, float(bound), float(n_kt - bound), float(tol)))
    passed = all(r[4] <= se_multiplier * r[5] for r in rows)
    return passed, max(r[4] for r in rows), rows


def gaussian_cert(rho, A=None):
    return make_certificate(3.0, contraction_rule="exact", u=1 - rho,
                            A=1 - rho**2 if A is None else A, B=0.0, delta=0.0)


def exact_hit_curve(k):
    # a geometric ladder merged with t0*K^j built by repeated multiplication,
    # so K*t lands exactly on the next threshold for every t0*K^j; the top
    # threshold sits 4e-13 below the last K*t, which only the 1e-12 coverage
    # slack admits
    hits = [0.3]
    while hits[-1] * k < 6.0:
        hits.append(hits[-1] * k)
    top = hits[-1] * k * (1.0 - 4e-13)
    th = np.unique(np.concatenate([np.geomspace(0.1, 5.0, 25), hits, [top]]))
    return gaussian_pair_tail_curve(th)


class TestTailRecursionCheck:
    @pytest.mark.parametrize("case", ["gauss-0.6", "gauss-0.75", "gauss-0.9", "wiener",
                                      "dead", "flat", "exact-hit"])
    def test_matches_scalar_reference(self, wiener_ens, case):
        if case.startswith("gauss"):
            cert = gaussian_cert(float(case.split("-")[1]))
            tc = gaussian_pair_tail_curve(np.geomspace(0.05, 8.0, 50))
        elif case == "wiener":
            cert = gaussian_cert(math.sqrt(0.5))
            tc = tail_curve(wiener_ens, 1, 3, np.geomspace(0.1, 6.0, 60))
        elif case == "dead":
            cert = gaussian_cert(0.75, A=1.0)
            tc = TailCurve(np.geomspace(1.0, 100.0, 20), np.zeros(20), 500)
        elif case == "flat":
            cert = gaussian_cert(0.75)
            tc = TailCurve(np.geomspace(50.0, 500.0, 30), np.full(30, 0.5), None)
        else:
            cert = gaussian_cert(0.75)
            tc = exact_hit_curve(cert.chain.K)
            kt = cert.chain.K * tc.thresholds
            assert np.count_nonzero(np.isin(kt, tc.thresholds)) >= 3
            assert np.any((kt > tc.thresholds[-1]) & (kt <= tc.thresholds[-1] * (1 + 1e-12)))
        passed, max_violation, ref_rows = scalar_tail_recursion(tc, cert)
        report = check_tail_recursion(tc, cert)
        assert report.passed == passed
        assert len(report.rows) == len(ref_rows)
        got = np.array([[r.t, r.n_t, r.n_kt, r.bound, r.violation, r.tolerance]
                        for r in report.rows])
        np.testing.assert_allclose(got, np.array(ref_rows), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(report.max_violation, max_violation, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rho", [0.6, 0.75, 0.9])
    def test_exact_gaussian_pair_passes(self, rho):
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - rho,
                                A=1 - rho**2, B=0.0, delta=0.0)
        curve = gaussian_pair_tail_curve(np.geomspace(0.05, 8.0, 50))
        report = check_tail_recursion(curve, cert)
        assert report.passed and report.max_violation <= 0.0

    def test_empirical_gaussian_pair_passes(self, wiener_ens):
        rho = math.sqrt(0.5)  # corr(X_s/sqrt(s), X_t/sqrt(t)) at s=0.5, t=1
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - rho,
                                A=1 - rho**2, B=0.0, delta=0.0)
        curve = tail_curve(wiener_ens, 1, 3, np.geomspace(0.1, 6.0, 60))
        report = check_tail_recursion(curve, cert)
        assert report.passed

    def test_empty_tail_trivially_passes(self):
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - 0.75,
                                A=1.0, B=0.0, delta=0.0)
        dead = TailCurve(np.geomspace(1.0, 100.0, 20), np.zeros(20), 500)
        report = check_tail_recursion(dead, cert)
        assert report.passed and report.max_violation == 0.0

    def test_adversarial_curve_fails(self):
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - 0.75,
                                A=1 - 0.75**2, B=0.0, delta=0.0)
        thresholds = np.geomspace(50.0, 500.0, 30)
        flat = TailCurve(thresholds, np.full(30, 0.5), None)
        report = check_tail_recursion(flat, cert)
        assert not report.passed
        worst = max(report.rows, key=lambda r: r.violation)
        assert worst.violation > 0 and worst.t in thresholds

    def test_list_input_gives_the_array_report(self):
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - 0.75,
                                A=1.0, B=0.0, delta=0.0)
        thresholds, n_values = [0.5, 1, 2, 4, 8], [1, 0.5, 0.1, 0.01, 0]
        listed = TailCurve(thresholds=thresholds, n_values=n_values, n_samples=None)
        assert listed.thresholds.dtype == listed.n_values.dtype == np.float64
        arrays = TailCurve(np.array(thresholds, dtype=float), np.array(n_values, dtype=float), None)
        assert check_tail_recursion(listed, cert) == check_tail_recursion(arrays, cert)

    def test_insufficient_coverage_rejected(self):
        cert = make_certificate(3.0, contraction_rule="exact", u=1 - 0.75,
                                A=1.0, B=0.0, delta=0.0)
        narrow = TailCurve(np.array([1.0, 1.05]), np.array([0.5, 0.49]), None)
        with pytest.raises(ValueError, match="coverage"):
            check_tail_recursion(narrow, cert)


class TestHill:
    def test_pareto_tail_recovered(self):
        rng = np.random.default_rng(42)
        samples = rng.random(200_000) ** (-1.0 / 3.0)
        est = hill_tail_index(samples, 4000)
        assert 2.8 <= est.alpha <= 3.2
        half = 1.96 / math.sqrt(est.k)
        assert est.ci_low == pytest.approx(est.alpha * (1 - half))
        assert est.ci_high == pytest.approx(est.alpha * (1 + half))

    def test_light_tail_drifts_up_as_k_shrinks(self):
        rng = np.random.default_rng(43)
        samples = rng.exponential(1.0, 100_000)
        alphas = [hill_tail_index(samples, k).alpha for k in (20_000, 2000, 200)]
        assert alphas[0] < alphas[1] < alphas[2]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            hill_tail_index(np.ones(1000), 100)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            hill_tail_index(np.arange(1.0, 100.0), 50)


def full_sort_hill(samples, k):
    """Hill estimate from a full descending sort of |samples|."""
    x = np.sort(np.abs(np.asarray(samples, dtype=np.float64).ravel()))[::-1]
    logs = np.log(x[: k + 1])
    alpha = 1.0 / float(np.mean(logs[:k]) - logs[k])
    half = 1.96 / math.sqrt(k)
    return alpha, alpha * (1.0 - half), alpha * (1.0 + half)


class TestHillMatchesFullSort:
    @pytest.mark.parametrize("k", [1, 7, 333, 1000, 20_000, 49_999])
    def test_heavy_tails(self, k):
        # at k = 333 and 20000 the Cauchy estimate depends on the order of
        # the top k logs in the mean, so an unsorted top-k would fail here
        rng = np.random.default_rng(0)
        for samples in (rng.standard_cauchy(100_000), -rng.pareto(2.5, 100_000)):
            est = hill_tail_index(samples, k)
            assert (est.alpha, est.ci_low, est.ci_high) == full_sort_hill(samples, k)

    @pytest.mark.parametrize("k", [3, 500])
    def test_lattice_with_ties(self, pascal_ens, k):
        samples = pascal_ens.paths[:, 3]
        est = hill_tail_index(samples, k)
        assert (est.alpha, est.ci_low, est.ci_high) == full_sort_hill(samples, k)

    @pytest.mark.parametrize("k", [1, 7, 333, 20_000, 49_999, 50_000])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_tail_curve_reads_the_same_estimate(self, k, normalize):
        # tail_curve's Hill comes off the sorted |X_t| column before it is
        # scaled; k = 50000 = n/2 is out of range, an error either way
        rng = np.random.default_rng(2)
        for column in (rng.standard_cauchy(100_000), -rng.pareto(2.5, 100_000)):
            paths = np.column_stack((rng.standard_normal(column.size), column))
            e = Ensemble(ProcessKind("wiener"), np.array([0.5, 2.0]), paths, seed=0)
            got = tail_curve(e, 0, 1, normalize=normalize, hill_k=k).hill
            try:
                assert got == hill_tail_index(column, k)
            except ValueError as exc:
                assert got == str(exc)

    def test_tail_curve_hill_errors(self):
        grid = np.array([0.5, 1.0])
        for column, message in ((np.r_[np.zeros(30), 1.0, 2.0], "must be positive"),
                                (np.r_[np.ones(30), -1.0], "degenerate sample"),
                                (np.ones(1), "need 1 <= k < n/2, got k=1, n=1")):
            e = Ensemble(ProcessKind("wiener"), grid, np.column_stack((column, column)), seed=0)
            with pytest.raises(ValueError, match=message):
                hill_tail_index(column, 4 if column.size > 1 else 1)
            got = tail_curve(e, 0, 1, hill_k=4 if column.size > 1 else 1).hill
            assert isinstance(got, str) and message in got

    def test_input_left_unchanged(self):
        # the sort runs on the |samples| copy, never on the caller's array
        samples = np.random.default_rng(1).standard_cauchy(10_000)
        before = samples.copy()
        hill_tail_index(samples, 100)
        assert np.array_equal(samples, before)


class TestInputUnchanged:
    """``column`` hands over a fresh array on either handle, which the kernels
    sort and take |x| of in place: the ensemble they read stays as it was,
    row-major or column-major."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_kernels_leave_the_paths(self, all_ensembles, kind, order):
        e = all_ensembles[kind]
        e = Ensemble(e.kind, e.grid, np.asarray(e.paths, order=order), seed=e.seed)
        before = e.paths.tobytes()
        for n_bins in (5, 400):
            estimate_conditional(e, 1, 3, n_bins)
        for normalize in (True, False):
            for hill_k in (None, 50):
                tail_curve(e, 1, 3, normalize=normalize, hill_k=hill_k)
        assert e.paths.tobytes() == before

    @staticmethod
    def assert_owned(col):
        assert col.dtype == np.float64 and col.flags.writeable and col.flags.c_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_is_a_fresh_array(self, tmp_path, gamma_ens, order):
        e = Ensemble(gamma_ens.kind, gamma_ens.grid, np.asarray(gamma_ens.paths, order=order),
                     seed=gamma_ens.seed)
        save_ensemble(e, tmp_path / "e.qhe")
        c = read_header(tmp_path / "e.qhe")
        for j in range(e.n_times):
            col = e.column(j)
            self.assert_owned(col)
            assert not np.shares_memory(col, e.paths)
            # overwriting the container's column leaves the next read as it was
            col = c.column(j)
            self.assert_owned(col)
            want = col.tobytes()
            col[:] = np.nan
            assert c.column(j).tobytes() == want == e.column(j).tobytes()


class TestMemoryContract:
    """The kernels hold at most one column copy beyond their input, on a
    pair of strided ensemble columns, and the binning also its 1-byte mask
    of distinct values (tails with or without Hill, Hill alone: the copy
    only)."""

    N = 300_000
    MIB = 2**20

    @pytest.fixture(scope="class")
    def ensembles(self):
        return [sample_ensemble(kind_of(name), (0.5, 1.0), self.N, seed=SEED)
                for name in ("gamma", "pascal")]

    @pytest.mark.parametrize("n_bins", [40, 400])
    def test_binning(self, ensembles, n_bins):
        bound = 10 * self.N + self.MIB
        for e in ensembles:
            estimate_conditional(e, 0, 1, n_bins)  # first-call allocations
            assert traced_peak(lambda: estimate_conditional(e, 0, 1, n_bins)) <= bound

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tail_curve(self, ensembles, normalize):
        for e in ensembles:
            tail_curve(e, 0, 1, normalize=normalize)
            assert traced_peak(lambda: tail_curve(e, 0, 1, normalize=normalize)) <= (
                8 * self.N + self.MIB)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tails_with_hill(self, ensembles, normalize):
        # the curve and Hill from one sort per column: still one column copy
        for e in ensembles:
            def tails():
                return tail_curve(e, 0, 1, normalize=normalize, hill_k=self.N // 100)
            tails()
            assert traced_peak(tails) <= 8 * self.N + self.MIB

    def test_hill(self, ensembles):
        for e in ensembles:
            hill_tail_index(e.paths[:, 1], self.N // 100)
            assert traced_peak(lambda: hill_tail_index(e.paths[:, 1], self.N // 100)) <= (
                8 * self.N + self.MIB)


def assert_same(got, want, where=""):
    """Equal field by field: arrays bit for bit, everything else by ==; a
    dataclass field left out of == (a timing) is left out here too."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert got.tobytes() == want.tobytes(), where
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            if f.compare:
                assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


class TestLayout:
    """``load_ensemble`` keeps columns column-major; the kernels give the same
    results on a row-major ensemble, on its column-major copy and on its
    container, which they read through ``column`` and ``row_blocks``."""

    @pytest.fixture(scope="class", params=["gamma", "pascal"])
    def pair(self, request, tmp_path_factory):
        e = sample_ensemble(kind_of(request.param), GRID, ROW_BLOCK + 5, seed=SEED)
        f = Ensemble(e.kind, e.grid, np.asfortranarray(e.paths), seed=e.seed)
        assert e.paths.flags.c_contiguous and f.paths.flags.f_contiguous
        path = tmp_path_factory.mktemp("layout") / "e.qhe"
        save_ensemble(e, path)
        return e, f, read_header(path)

    def test_path_empirics(self, pair):
        e, f, c = pair
        want = path_empirics(e, 1, 3)
        assert_same(path_empirics(f, 1, 3), want)
        assert_same(path_empirics(c, 1, 3), want)

    @pytest.mark.parametrize("n_bins", [5, 40, 400])
    def test_estimate_conditional(self, pair, n_bins):
        e, f, c = pair
        want = estimate_conditional(e, 1, 3, n_bins)
        assert_same(estimate_conditional(f, 1, 3, n_bins), want)
        assert_same(estimate_conditional(c, 1, 3, n_bins), want)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tail_curve(self, pair, normalize):
        e, f, c = pair
        want = tail_curve(e, 1, 3, normalize=normalize, hill_k=50)
        assert_same(tail_curve(f, 1, 3, normalize=normalize, hill_k=50), want)
        assert_same(tail_curve(c, 1, 3, normalize=normalize, hill_k=50), want)

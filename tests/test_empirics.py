import math

import numpy as np
import pytest

from qharness import core
from qharness.certificates import make_certificate
from qharness.core import KINDS, var_backward
from qharness.empirics import (
    MIN_BIN_COUNT,
    BinnedConditional,
    TailCurve,
    check_tail_recursion,
    conditional_mean_slope,
    empirical_covariance,
    estimate_conditional,
    fit_quadratic,
    gaussian_pair_tail_curve,
    gaussian_tail,
    hill_tail_index,
    tail_curve,
)
from qharness.simulate import Ensemble, ProcessKind, known_params


def synthetic_binned(coeffs, xs, se=0.0):
    c0, c1, c2 = coeffs
    xs = np.asarray(xs, dtype=float)
    var = c0 + c1 * xs + c2 * xs**2
    n = xs.size
    return BinnedConditional(
        direction="backward",
        s=0.5,
        t=1.0,
        bin_lo=xs,
        bin_hi=xs,
        count=np.full(n, 1000),
        x_mean=xs,
        mean=np.zeros(n),
        var=var,
        se_mean=np.full(n, 0.01),
        se_var=np.full(n, se),
        pred_mean=np.zeros(n),
        pred_var=var,
        confident=np.full(n, True),
    )


def masked_reference(e, s_index, t_index, n_bins, direction):
    """Per-bin boolean-mask estimate with one scalar closed-form call per bin."""
    s, t = float(e.grid[s_index]), float(e.grid[t_index])
    xs, xt = e.paths[:, s_index], e.paths[:, t_index]
    cond, target = (xs, xt) if direction == "forward" else (xt, xs)
    uniq = np.unique(cond)
    if uniq.size <= n_bins:
        edges = np.append(uniq, uniq[-1])
    else:
        edges = np.unique(np.quantile(cond, np.linspace(0.0, 1.0, n_bins + 1)))
    assign = np.clip(np.searchsorted(edges[:-1], cond, side="right") - 1, 0, edges.size - 2)
    slope = 1.0 if direction == "forward" else s / t
    resid_sq = (target - slope * cond) ** 2
    p = known_params(e.kind)
    var_fn = core.var_forward if direction == "forward" else core.var_backward
    nb = edges.size - 1
    cols = {k: np.zeros(nb) for k in
            ("x_mean", "mean", "var", "se_mean", "se_var", "pred_mean", "pred_var")}
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
        if n > 1:
            cols["se_mean"][b] = y.std(ddof=1) / math.sqrt(n)
            cols["se_var"][b] = r2.std(ddof=1) / math.sqrt(n)
        x = float(cols["x_mean"][b])
        cols["pred_mean"][b] = core.one_sided_mean(direction, s, t, x)
        cols["pred_var"][b] = var_fn(p, s, t, x).value
    return dict(cols, bin_lo=edges[:-1], bin_hi=edges[1:], count=count,
                confident=count >= MIN_BIN_COUNT)


class TestEstimateConditional:
    def test_wiener_forward_flat_variance(self, wiener_ens):
        b = estimate_conditional(wiener_ens, 1, 3, 20, "forward")
        sel = b.confident
        devs = np.abs(b.var[sel] - 0.5) / b.se_var[sel]
        assert np.mean(devs <= 4.0) >= 0.9

    def test_gamma_backward_mean_tracks_regression(self, gamma_ens):
        b = estimate_conditional(gamma_ens, 1, 3, 30, "backward")
        sel = b.confident & (b.se_mean > 0)
        devs = np.abs(b.mean[sel] - b.pred_mean[sel]) / b.se_mean[sel]
        assert np.mean(devs <= 4.0) >= 0.9

    def test_predictions_share_the_closed_form_code_path(self, gamma_ens):
        b = estimate_conditional(gamma_ens, 1, 3, 10, "backward")
        p = known_params(gamma_ens.kind)
        for i in range(b.n_bins):
            if b.count[i]:
                expect = var_backward(p, b.s, b.t, float(b.x_mean[i])).value
                assert b.pred_var[i] == expect

    def test_counts_partition_paths(self, poisson_ens):
        b = estimate_conditional(poisson_ens, 1, 3, 40, "backward")
        assert b.count.sum() == poisson_ens.n_paths

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("n_bins", [10, 40])
    def test_matches_masked_reference(self, all_ensembles, kind, direction, n_bins):
        e = all_ensembles[kind]
        b = estimate_conditional(e, 1, 3, n_bins, direction)
        ref = masked_reference(e, 1, 3, n_bins, direction)
        for name, expected in ref.items():
            assert np.array_equal(getattr(b, name), expected), name

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_bins", [5, 300, 400])
    def test_narrow_labels_match_masked_reference(self, all_ensembles, kind, n_bins):
        # 5 bins label with uint8, 300 and 400 quantile bins with uint16; at 5
        # bins the poisson lattice has more values than bins, so duplicate
        # quantile edges collapse
        e = all_ensembles[kind]
        b = estimate_conditional(e, 1, 3, n_bins, "backward")
        ref = masked_reference(e, 1, 3, n_bins, "backward")
        if kind == "poisson" and n_bins == 5:
            assert b.n_bins < n_bins
        for name, expected in ref.items():
            assert np.array_equal(getattr(b, name), expected), name

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("n_bins, step", [(5, 0.05), (40, 0.05), (400, 0.002)])
    def test_tied_continuous_column_matches_masked_reference(self, gamma_ens, direction,
                                                             n_bins, step):
        # gamma paths rounded to a grid keep more distinct values than bins, so
        # the bins come from ranks, while runs of ties straddle the quantile
        # positions.  On this ensemble 0.05 leaves fewer than 400 distinct
        # values, so the 400-bin case rounds to 0.002
        e = Ensemble(gamma_ens.kind, gamma_ens.grid,
                     np.round(gamma_ens.paths / step) * step, seed=gamma_ens.seed)
        srt = np.sort(e.paths[:, 1 if direction == "forward" else 3])
        assert np.count_nonzero(srt[1:] != srt[:-1]) + 1 > n_bins
        pos = np.arange(1, n_bins) * (srt.size - 1) // n_bins
        assert np.any(srt[pos - 1] == srt[pos + 1])
        b = estimate_conditional(e, 1, 3, n_bins, direction)
        ref = masked_reference(e, 1, 3, n_bins, direction)
        for name, expected in ref.items():
            assert np.array_equal(getattr(b, name), expected), name

    def test_degenerate_conditioning_rejected(self):
        paths = np.tile([[1.0, 2.0]], (100, 1))
        e = Ensemble(ProcessKind("wiener"), np.array([0.5, 1.0]), paths, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_conditional(e, 0, 1, 10, "forward")

    def test_too_few_bins_rejected(self, wiener_ens):
        with pytest.raises(ValueError):
            estimate_conditional(wiener_ens, 1, 3, 4, "forward")


class TestFitQuadratic:
    def test_noiseless_exact_recovery(self):
        coeffs = (0.3, -0.2, 0.05)
        b = synthetic_binned(coeffs, np.linspace(-3, 3, 9))
        fit = fit_quadratic(b)
        assert fit.c0 == pytest.approx(coeffs[0], abs=1e-10)
        assert fit.c1 == pytest.approx(coeffs[1], abs=1e-10)
        assert fit.c2 == pytest.approx(coeffs[2], abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_poisson_backward_recovers_linear_coefficient(self, poisson_ens):
        b = estimate_conditional(poisson_ens, 1, 3, 40, "backward")
        fit = fit_quadratic(b)
        # prefactor s(t-s)/t = 0.25 and linear coefficient theta/t = 1
        assert abs(fit.c1 - 0.25) <= 3 * fit.se[1]
        assert abs(fit.c2 - 0.0) <= 3 * fit.se[2]

    def test_wiener_forward_no_state_dependence(self, wiener_ens):
        b = estimate_conditional(wiener_ens, 1, 3, 40, "forward")
        fit = fit_quadratic(b)
        assert abs(fit.c1) <= 3 * fit.se[1]
        assert abs(fit.c2) <= 3 * fit.se[2]

    def test_insufficient_bins_rejected(self):
        b = synthetic_binned((1.0, 0.0, 0.0), [-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="confident"):
            fit_quadratic(b)


class TestSlope:
    def test_forward_martingale(self, all_ensembles):
        for name, e in all_ensembles.items():
            sl = conditional_mean_slope(e, 1, 3, "forward")
            assert sl.deviation_se <= 3.0, name

    def test_backward_regression(self, all_ensembles):
        for name, e in all_ensembles.items():
            sl = conditional_mean_slope(e, 1, 3, "backward")
            assert sl.predicted == 0.5
            assert sl.deviation_se <= 3.0, name


class TestLawOfTotalVariance:
    def test_backward_prediction_mean(self, all_ensembles):
        for name, e in all_ensembles.items():
            p = known_params(e.kind)
            s, t = float(e.grid[1]), float(e.grid[3])
            vals = np.array([var_backward(p, s, t, float(x)).value for x in e.paths[:, 3]])
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - s * (t - s) / t) <= 4 * se, name


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


class TestCovarianceHelper:
    def test_matches_direct_computation(self, wiener_ens):
        val, se = empirical_covariance(wiener_ens, 1, 3)
        prod = wiener_ens.paths[:, 1] * wiener_ens.paths[:, 3]
        assert val == prod.mean()
        assert se == pytest.approx(prod.std(ddof=1) / math.sqrt(prod.size))

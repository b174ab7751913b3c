import math
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from numpy.random import Generator, Philox

from qharness import core
from qharness.core import _NB_TABLE_CAP, KINDS, _nb_cdf, kind_record, one_sided_mean, var_backward
from qharness.moments import marginal_moments
from qharness.simulate import (
    BLOCK_PATHS,
    READ_ROWS,
    Ensemble,
    ProcessKind,
    ensemble_to_csv,
    known_params,
    load_ensemble,
    pascal_theta,
    read_header,
    sample_ensemble,
    save_ensemble,
)

from conftest import kind_of

GRID = [0.25, 0.5, 0.75, 1.0]


class TestProcessKind:
    def test_unsupported_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            ProcessKind("meixner")

    def test_pascal_needs_parameter(self):
        with pytest.raises(ValueError):
            ProcessKind("pascal")
        with pytest.raises(ValueError):
            ProcessKind("pascal", 1.0)

    def test_only_pascal_takes_parameter(self):
        with pytest.raises(ValueError):
            ProcessKind("wiener", 0.5)


class TestKnownParams:
    def test_classical_kinds(self):
        assert astuple(known_params(ProcessKind("wiener"))) == (0, 0, 0, 0, 1)
        assert astuple(known_params(ProcessKind("poisson"))) == (0, 1, 0, 0, 1)
        assert astuple(known_params(ProcessKind("gamma"))) == (0, 2, 0, 1, 1)

    def test_pascal_theta(self):
        assert pascal_theta(0.5) == pytest.approx(1.5 / math.sqrt(0.5))
        # the negative binomial collapses onto the gamma process as q -> 0
        assert pascal_theta(1e-12) == pytest.approx(2.0)
        p = known_params(ProcessKind("pascal", 0.3))
        assert p.tau == 1.0 and p.theta == pytest.approx(1.7 / math.sqrt(0.7))


class TestBridgeOracles:
    """The conditional-variance formulas against the exact bridge laws."""

    s_t_grid = [(0.5, 1.0), (0.25, 0.75), (1.0, 4.0), (0.3, 2.7)]

    @pytest.mark.parametrize("s,t", s_t_grid)
    def test_poisson_binomial_bridge(self, s, t):
        p = known_params(ProcessKind("poisson"))
        for n in range(0, 12):
            bridge_var = n * (s / t) * (1.0 - s / t)
            x = n - t
            assert var_backward(p, s, t, x).value == pytest.approx(bridge_var, abs=1e-12)
            bridge_mean = n * s / t - s
            assert one_sided_mean("backward", s, t, x) == pytest.approx(bridge_mean, abs=1e-12)

    @pytest.mark.parametrize("s,t", s_t_grid)
    def test_gamma_beta_bridge(self, s, t):
        p = known_params(ProcessKind("gamma"))
        for g in (0.1, 0.5, 1.0, 2.5, 7.0):
            bridge_var = g * g * s * (t - s) / (t * t * (t + 1.0))
            assert var_backward(p, s, t, g - t).value == pytest.approx(bridge_var, rel=1e-12)

    @pytest.mark.parametrize("s,t", s_t_grid)
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_pascal_beta_binomial_bridge(self, s, t, q):
        # N_s | N_t = n is beta-binomial(n; s, t-s):
        # Var = n s (t-s) (t+n) / (t^2 (t+1))
        kind = ProcessKind("pascal", q)
        p = known_params(kind)
        mu = (1.0 - q) / q
        scale = q / math.sqrt(1.0 - q)
        for n in range(0, 12):
            bridge_var = scale**2 * n * s * (t - s) * (t + n) / (t * t * (t + 1.0))
            x = (n - mu * t) * scale
            assert var_backward(p, s, t, x).value == pytest.approx(bridge_var, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("s,t", s_t_grid)
    def test_wiener_brownian_bridge(self, s, t):
        p = known_params(ProcessKind("wiener"))
        assert var_backward(p, s, t, 1.7).value == pytest.approx(s * (t - s) / t)


class TestSampling:
    def test_reproducible_bit_for_bit(self):
        a = sample_ensemble(kind_of("gamma"), GRID, 10_000, seed=11)
        b = sample_ensemble(kind_of("gamma"), GRID, 10_000, seed=11)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_paths(self):
        a = sample_ensemble(kind_of("wiener"), GRID, 1000, seed=1)
        b = sample_ensemble(kind_of("wiener"), GRID, 1000, seed=2)
        assert not np.array_equal(a.paths, b.paths)

    def test_worker_count_irrelevant(self):
        for name in ("wiener", "pascal"):
            ref = sample_ensemble(kind_of(name), GRID, 20_000, seed=3, n_workers=1)
            for workers in (2, 5):
                alt = sample_ensemble(kind_of(name), GRID, 20_000, seed=3, n_workers=workers)
                assert np.array_equal(ref.paths, alt.paths)

    def test_lattice_values_are_exact(self):
        # equal counts must give bit-equal path values, so per-value
        # conditioning groups correctly
        e = sample_ensemble(kind_of("pascal"), GRID, 20_000, seed=5)
        uniq = np.unique(e.paths[:, -1])
        scale = 0.5 / math.sqrt(0.5)
        assert uniq.size < 40
        np.testing.assert_allclose((uniq / scale + 1.0) - np.round(uniq / scale + 1.0), 0.0, atol=1e-12)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_ensemble(kind_of("wiener"), [1.0, 0.5], 10, seed=0)
        with pytest.raises(ValueError):
            sample_ensemble(kind_of("wiener"), [0.0, 0.5], 10, seed=0)
        with pytest.raises(ValueError):
            sample_ensemble(kind_of("wiener"), GRID, 0, seed=0)


def fresh_philox_reference(kind, grid, n_paths, seed):
    """The stream layout built independently: a new Philox keyed by
    (seed, block << 32 | step) for every substream, the draws accumulated
    per block and centred per column as the kind's record says."""
    grid = np.asarray(grid, dtype=np.float64)
    dts = np.diff(grid, prepend=0.0)
    mu, scale = kind.record.centring(kind.q)
    out = np.empty((n_paths, grid.size))
    for block, lo in enumerate(range(0, n_paths, BLOCK_PATHS)):
        m = min(BLOCK_PATHS, n_paths - lo)
        acc = np.zeros(m)
        for step, dt in enumerate(dts):
            gen = Generator(Philox(key=[np.uint64(seed), np.uint64((block << 32) | step)]))
            acc += kind.record.sampler(float(dt), kind.q)(gen, m)
            out[lo : lo + m, step] = (acc - grid[step] * mu) * scale
    return out


class TestStreamLayout:
    @pytest.mark.parametrize("name", KINDS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_fresh_philox_per_substream(self, name, workers):
        # three blocks, the last one short: each worker re-keys its one Philox
        # across blocks and steps, so a state left over from the previous
        # substream (counter or buffered output) would show here
        n = 2 * BLOCK_PATHS + 17
        seed = 2**64 - 5
        ref = fresh_philox_reference(kind_of(name), GRID, n, seed)
        got = sample_ensemble(kind_of(name), GRID, n, seed=seed, n_workers=workers)
        assert np.array_equal(got.paths, ref)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pascal_fallback_matches_fresh_philox_per_substream(self, workers):
        # at q = 1e-4 NB(dt, q) has no inversion table, so every increment
        # is a gamma-mixed Poisson draw
        kind = ProcessKind("pascal", 1e-4)
        assert all(_nb_cdf(dt, 1e-4) is None for dt in np.diff(GRID, prepend=0.0).tolist())
        n = 2 * BLOCK_PATHS + 17
        ref = fresh_philox_reference(kind, GRID, n, 31)
        got = sample_ensemble(kind, GRID, n, seed=31, n_workers=workers)
        assert np.array_equal(got.paths, ref)

    def test_more_workers_than_cores_under_fast_switching(self):
        # each worker must own its Philox: one shared between threads would
        # be re-keyed under another's draws once the interpreter switches
        # threads mid-block
        n = 12 * BLOCK_PATHS + 5
        ref = fresh_philox_reference(kind_of("gamma"), GRID, n, 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_ensemble(kind_of("gamma"), GRID, n, seed=9, n_workers=7)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.paths, ref)


def nb_inversion_reference(u, dt, q):
    """One NB(dt, q) draw from the uniform u, walking the pmf recursion
    P(k+1) = P(k) * (k+dt)/(k+1) * (1-q) from P(0) = q**dt: the first k with
    u < F(k), or the k at which the tail bound P(k) * rho / (1 - rho) first
    falls below 2**-53, whichever comes first."""
    k, p = 0, q**dt
    f = p
    while True:
        rho = (1.0 - q) * max(k + dt, k + 1.0) / (k + 1.0)
        if u < f or p * rho < 2.0**-53 * (1.0 - rho):
            return k
        p *= (k + dt) / (k + 1.0) * (1.0 - q)
        k += 1
        f += p


def nb_pmf(dt, q, kmax):
    """P(K = k) of NB(dt, q) for k = 0..kmax, from log-gamma functions."""
    return np.array([math.exp(math.lgamma(k + dt) - math.lgamma(dt) - math.lgamma(k + 1.0)
                              + dt * math.log(q) + k * math.log1p(-q))
                     for k in range(kmax + 1)])


class FixedUniforms:
    """A stand-in generator whose random(n) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.array(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u


def pascal_draws(dt, q, n, key=17):
    """n pascal increments from a fresh Philox, and a second generator on
    the same stream for a reference to draw from."""
    gen = Generator(Philox(key=[key, 3]))
    return kind_record("pascal").sampler(dt, q)(gen, n), Generator(Philox(key=[key, 3]))


INVERTED = [(0.25, 0.5), (1.0, 0.1), (3.0, 0.9), (0.25, 0.3), (1000.0, 0.5)]
FALLBACK = [(1.0, 1e-4), (2000.0, 0.5), (0.25, 1e-4)]


class TestPascalInversion:
    @pytest.mark.parametrize("dt, q", INVERTED)
    def test_equals_per_draw_reference(self, dt, q):
        n = 5000 if dt < 100 else 300  # the walk takes about dt steps per draw
        got, gen = pascal_draws(dt, q, n)
        want = [nb_inversion_reference(u, dt, q) for u in gen.random(n).tolist()]
        assert got.dtype == np.float64 and got.tolist() == want

    @pytest.mark.parametrize("dt, q", INVERTED)
    def test_equals_reference_at_table_entries(self, dt, q):
        # uniforms on and next to the first and last CDF entries, and the
        # smallest and largest uniforms, which sampled streams seldom hit
        cdf = _nb_cdf(dt, q).tolist()
        near = [v for f in cdf[:3] + cdf[-3:]
                for v in (math.nextafter(f, 0.0), f, math.nextafter(f, 1.0))]
        u = [v for v in [0.0, 1.0 - 2.0**-53] + near if v < 1.0]
        got = kind_record("pascal").sampler(dt, q)(FixedUniforms(u), len(u))
        assert got.tolist() == [nb_inversion_reference(v, dt, q) for v in u]
        assert got.max() <= len(cdf)

    @pytest.mark.parametrize("dt, q", FALLBACK)
    def test_fallback_is_the_gamma_mixed_poisson(self, dt, q):
        assert _nb_cdf(dt, q) is None
        got, gen = pascal_draws(dt, q, 5000)
        assert np.array_equal(got, gen.poisson(gen.gamma(dt, (1.0 - q) / q, 5000)).astype(float))

    @pytest.mark.parametrize("dt, q", INVERTED[:3] + FALLBACK[:2])
    def test_empirical_pmf_matches_negative_binomial(self, dt, q):
        # 40 cells of about equal NB probability (an atom above 1/40 is a cell
        # of its own); each cell's frequency within 5 standard errors
        n, cells = 200_000, 40
        mean, sd = dt * (1.0 - q) / q, math.sqrt(dt * (1.0 - q)) / q
        kmax = int(mean + 40.0 * sd) + 10
        pmf = nb_pmf(dt, q, kmax)
        below = np.cumsum(pmf) - pmf
        cell = np.minimum((below * cells).astype(int), cells - 1)
        want = np.bincount(cell, weights=pmf, minlength=cells)
        want[cell[-1]] += 1.0 - pmf.sum()
        draws, _ = pascal_draws(dt, q, n)
        assert np.all(draws == np.round(draws)) and draws.min() >= 0
        got = np.bincount(cell[np.minimum(draws.astype(int), kmax)], minlength=cells) / n
        used = want > 0
        se = np.sqrt(want[used] * (1.0 - want[used]) / n)
        assert np.all(np.abs(got[used] - want[used]) <= 5.0 * se)
        assert got[~used].sum() == 0

    @pytest.mark.parametrize("dt, q", INVERTED)
    def test_table_is_monotone(self, dt, q):
        assert np.all(np.diff(_nb_cdf(dt, q)) >= 0)

    @pytest.mark.parametrize("dt, q", INVERTED)
    def test_tail_bound_below_uniform_resolution(self, dt, q):
        # the table stops at the first k = m whose bound P(m) rho/(1 - rho) on
        # P(K > m) is below 2**-53; the bound holds for the exact tail too
        m = _nb_cdf(dt, q).size
        pmf = nb_pmf(dt, q, m + 20_000)

        def bound(k):
            rho = (1.0 - q) * max(k + dt, k + 1.0) / (k + 1.0)
            return pmf[k] * rho / (1.0 - rho) if rho < 1.0 else math.inf

        assert bound(m) < 2.0**-53
        assert m == 0 or bound(m - 1) >= 2.0**-53 * (1.0 - 1e-9)
        assert math.fsum(pmf[m + 1 :].tolist()) <= bound(m) * (1.0 + 1e-9)

    def test_table_length_cap(self):
        # q = 0.025 needs about 1.46k entries, q = 0.01 about 3.66k and
        # q = 1e-4 about 367k: the last two are past the cap
        assert 0.5 * _NB_TABLE_CAP < _nb_cdf(1.0, 0.025).size < _NB_TABLE_CAP
        assert _nb_cdf(1.0, 0.01) is None and _nb_cdf(1.0, 1e-4) is None

    @pytest.mark.parametrize("dt", [0.25, 1.0, 16.0, 300.0])
    def test_cap_decision_matches_the_table_walk(self, dt):
        # q runs across the cap at each dt: a table exactly where the walk of
        # the pmf recursion stops before the cap, and of the walk's length
        for q in np.geomspace(0.01, 0.25, 40).tolist():
            k, p = 0, q**dt
            while True:
                rho = (1.0 - q) * max(k + dt, k + 1.0) / (k + 1.0)
                if p * rho < 2.0**-53 * (1.0 - rho) or k == _NB_TABLE_CAP:
                    break
                p *= (k + dt) / (k + 1.0) * (1.0 - q)
                k += 1
            cdf = _nb_cdf(dt, q)
            assert (None if k == _NB_TABLE_CAP else k) == (None if cdf is None else cdf.size), q

    @pytest.mark.parametrize("dt, q", INVERTED + FALLBACK)
    def test_one_array_pass(self, dt, q, monkeypatch):
        # the pmf is built once over the cap's entries and cut at its first
        # stop; where q**dt underflows no array is built
        sizes = []
        arange = np.arange
        monkeypatch.setattr(np, "arange", lambda n, **kw: sizes.append(n) or arange(n, **kw))
        _nb_cdf(dt, q)
        assert sizes == ([] if q**dt < sys.float_info.min else [_NB_TABLE_CAP])

    @pytest.mark.parametrize("q", [0.5, 1e-4])
    def test_one_table_per_distinct_step_per_call(self, q, monkeypatch):
        # 300 distinct steps over two blocks: each step's table is built
        # once, not once per block
        grid = np.geomspace(1e-3, 1.0, 300)
        steps = len(set(np.diff(grid, prepend=0.0).tolist()))
        assert steps == 300
        calls = []
        monkeypatch.setattr(core, "_nb_cdf", lambda dt, q: calls.append(dt) or _nb_cdf(dt, q))
        sample_ensemble(ProcessKind("pascal", q), grid, BLOCK_PATHS + 1, seed=5)
        assert len(calls) == steps


class TestStatistics:
    def test_mean_and_covariance(self, all_ensembles):
        for name, e in all_ensembles.items():
            n = e.n_paths
            mean = e.paths[:, -1].mean()
            assert abs(mean) <= 4.0 / math.sqrt(n), name
            for i in range(e.n_times):
                for j in range(i, e.n_times):
                    prod = e.paths[:, i] * e.paths[:, j]
                    se = prod.std(ddof=1) / math.sqrt(n)
                    target = min(e.grid[i], e.grid[j])
                    assert abs(prod.mean() - target) <= 5 * se, (name, i, j)

    def test_martingale_increments(self, all_ensembles):
        for name, e in all_ensembles.items():
            inc = e.paths[:, -1] - e.paths[:, 1]
            se = inc.std(ddof=1) / math.sqrt(inc.size)
            assert abs(inc.mean()) <= 5 * se, name

    def test_marginal_moments_match_exact(self, all_ensembles):
        for name, e in all_ensembles.items():
            x = e.paths[:, -1]
            mv = marginal_moments(known_params(e.kind), float(e.grid[-1]))
            for k, target in ((2, mv.m2), (3, mv.m3), (4, mv.m4)):
                vals = x**k
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                assert abs(vals.mean() - target) <= 5 * se, (name, k)

    def test_root_n_convergence(self):
        # quadrupling the sample size should roughly halve the error band
        small, large = 2000, 32_000
        errs_small, errs_large = [], []
        for seed in range(200, 208):
            es = sample_ensemble(kind_of("wiener"), [1.0], small, seed=seed)
            el = sample_ensemble(kind_of("wiener"), [1.0], large, seed=seed)
            errs_small.append(es.paths[:, 0].mean())
            errs_large.append(el.paths[:, 0].mean())
        ratio = np.sqrt(np.mean(np.square(errs_small)) / np.mean(np.square(errs_large)))
        assert 2.0 < ratio < 8.0


class TestContainer:
    def test_round_trip(self, tmp_path):
        e = sample_ensemble(kind_of("pascal"), GRID, 5000, seed=21)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        loaded = load_ensemble(path)
        assert loaded.kind == e.kind
        assert loaded.seed == e.seed
        assert np.array_equal(loaded.grid, e.grid)
        assert np.array_equal(loaded.paths, e.paths)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.qhe"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_ensemble(path)

    def test_truncation_rejected(self, tmp_path):
        e = sample_ensemble(kind_of("wiener"), GRID, 100, seed=0)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_ensemble(path)

    def test_read_header(self, tmp_path):
        e = sample_ensemble(kind_of("pascal"), GRID, 100, seed=21)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        head = read_header(path)
        assert (head.kind, head.seed, head.n_paths) == (e.kind, 21, 100)
        assert head.grid.tolist() == GRID
        assert head.time_index(0.75) == 2

    @pytest.mark.parametrize("rows", [1, READ_ROWS - 1, READ_ROWS, READ_ROWS + 1,
                                      3 * READ_ROWS + 7])
    def test_column_load_matches_full_load(self, tmp_path, rows):
        e = sample_ensemble(kind_of("gamma"), GRID, rows, seed=4)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        full = load_ensemble(path)
        assert np.array_equal(full.paths, e.paths) and np.array_equal(full.grid, e.grid)
        for times in ([0.5, 1.0], [0.25, 0.75], [1.0], GRID):
            cols = [GRID.index(t) for t in times]
            part = load_ensemble(path, times)
            assert part.grid.tolist() == times
            assert part.paths.flags.c_contiguous
            assert np.array_equal(part.paths, full.paths[:, cols])
            assert (part.kind, part.seed) == (full.kind, full.seed)

    def test_load_errors_keep_their_messages(self, tmp_path):
        e = sample_ensemble(kind_of("wiener"), GRID, 100, seed=0)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        raw = path.read_bytes()
        with pytest.raises(ValueError, match=r"time 0\.3 is not on the grid "
                                             r"\[0\.25, 0\.5, 0\.75, 1\.0\]"):
            load_ensemble(path, [0.5, 0.3])
        cases = [(raw[:20], "truncated header$"),
                 (raw[:-16], f"truncated container: {len(raw) - 16} bytes, "
                             f"header needs {len(raw)}$"),
                 (b"NOPE" + raw[4:], r"not an ensemble container \(bad magic b'NOPE'\)$"),
                 (raw[:4] + bytes([9]) + raw[5:], "unknown kind code 9$")]
        for data, message in cases:
            path.write_bytes(data)
            for read in (read_header, load_ensemble, lambda p: load_ensemble(p, [0.5, 1.0])):
                with pytest.raises(ValueError, match=message):
                    read(path)

    @pytest.mark.parametrize("grid", [(0.5, np.inf), (0.5, np.nan), (1.0, 0.5), (0.0, 1.0)])
    def test_bad_grid_rejected_as_the_sampler_rejects_it(self, tmp_path, grid):
        e = sample_ensemble(kind_of("wiener"), [0.5, 1.0], 10, seed=0)
        path = tmp_path / "e.qhe"
        save_ensemble(e, path)
        raw = path.read_bytes()
        # the grid's two float64 times follow the 40-byte header
        path.write_bytes(raw[:40] + np.array(grid, dtype="<f8").tobytes() + raw[56:])
        with pytest.raises(ValueError) as sampled:
            sample_ensemble(kind_of("wiener"), grid, 10, seed=0)
        for read in (read_header, load_ensemble, lambda p: load_ensemble(p, [0.5])):
            with pytest.raises(ValueError) as loaded:
                read(path)
            assert str(loaded.value) == str(sampled.value)

    def test_csv_export(self, tmp_path):
        e = sample_ensemble(kind_of("wiener"), [0.5, 1.0], 10, seed=4)
        path = tmp_path / "e.csv"
        ensemble_to_csv(e, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("path_id,")
        assert len(lines) == 11
        first = lines[1].split(",")
        assert int(first[0]) == 0 and float(first[1]) == e.paths[0, 0]


def row_loop_csv(e: Ensemble, path) -> None:
    """CSV export with one repr per cell, written row by row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"t_{t!r}" for t in e.grid.tolist())
        fh.write(f"path_id,{cols}\n")
        for i in range(e.n_paths):
            row = ",".join(repr(v) for v in e.paths[i].tolist())
            fh.write(f"{i},{row}\n")


class TestCsvMatchesRowLoop:
    @pytest.mark.parametrize("name", ["pascal", "gamma"])
    def test_sampled(self, tmp_path, name):
        e = sample_ensemble(kind_of(name), GRID, 20_000, seed=13)
        ensemble_to_csv(e, tmp_path / "new.csv")
        row_loop_csv(e, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_signed_zeros_keep_their_text(self, tmp_path):
        paths = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -1.5], [0.0, 0.0, 1e-300]])
        e = Ensemble(kind_of("wiener"), np.array([0.25, 0.5, 1.0]), paths, seed=0)
        ensemble_to_csv(e, tmp_path / "new.csv")
        row_loop_csv(e, tmp_path / "ref.csv")
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert text.splitlines()[2] == "1,-0.0,0.0,-1.5"

    @pytest.mark.parametrize("name, grid, n", [
        ("gamma", [1.0], 300),                        # a one-time grid
        ("pascal", GRID, 1),
        ("pascal", GRID, BLOCK_PATHS),
        ("gamma", GRID, 2 * BLOCK_PATHS + 17),
        ("poisson", GRID, 2 * BLOCK_PATHS + 17),
        ("wiener", [0.5, 1.0], BLOCK_PATHS + 1),
    ])
    def test_shapes_and_kinds(self, tmp_path, name, grid, n):
        e = sample_ensemble(kind_of(name), grid, n, seed=21)
        ensemble_to_csv(e, tmp_path / "new.csv")
        row_loop_csv(e, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fortran_ordered_paths(self, tmp_path):
        e = sample_ensemble(kind_of("pascal"), GRID, BLOCK_PATHS + 5, seed=2)
        f = Ensemble(e.kind, e.grid, np.asfortranarray(e.paths), seed=e.seed)
        assert f.paths.flags.f_contiguous and not f.paths.flags.c_contiguous
        ensemble_to_csv(f, tmp_path / "new.csv")
        row_loop_csv(e, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_signed_zeros_across_a_block_boundary(self, tmp_path):
        # the last row of block 0 holds -0.0 where the first row of block 1
        # holds 0.0 and the other way round, so each block keys both zeros
        paths = np.ones((BLOCK_PATHS + 2, 3))
        paths[BLOCK_PATHS - 1] = [-0.0, 0.0, -0.0]
        paths[BLOCK_PATHS] = [0.0, -0.0, 0.0]
        paths[BLOCK_PATHS + 1] = [-0.0, -0.0, 2.5]
        e = Ensemble(kind_of("wiener"), np.array([0.25, 0.5, 1.0]), paths, seed=0)
        ensemble_to_csv(e, tmp_path / "new.csv")
        row_loop_csv(e, tmp_path / "ref.csv")
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "ref.csv").read_text()
        assert text.splitlines()[BLOCK_PATHS:] == [
            f"{BLOCK_PATHS - 1},-0.0,0.0,-0.0", f"{BLOCK_PATHS},0.0,-0.0,0.0",
            f"{BLOCK_PATHS + 1},-0.0,-0.0,2.5"]

    @pytest.mark.parametrize("name", ["pascal", "gamma"])
    def test_peak_memory_does_not_grow_with_paths(self, tmp_path, name):
        def peak(n: int) -> int:
            e = sample_ensemble(kind_of(name), GRID, n, seed=6)
            ensemble_to_csv(e, tmp_path / "e.csv")  # first-call allocations
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ensemble_to_csv(e, tmp_path / "e.csv")
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # one block's tables, cells and text, whatever the path count
        small, large = peak(2 * BLOCK_PATHS), peak(16 * BLOCK_PATHS)
        assert large <= 1.02 * small + 2**16


class TestEnsembleValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            Ensemble(kind_of("wiener"), np.array([1.0, 1.0]), np.zeros((3, 2)), seed=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_grid_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="grid must be finite, positive and strictly ascending"):
            Ensemble(kind_of("wiener"), np.array([0.5, bad]), np.zeros((3, 2)), seed=0)

    def test_list_grid_is_kept_as_a_float64_array(self):
        e = Ensemble(kind_of("wiener"), [0.5, 1], np.zeros((3, 2)), seed=0)
        assert isinstance(e.grid, np.ndarray) and e.grid.dtype == np.float64
        assert e.grid.tolist() == [0.5, 1.0] and e.n_times == 2
        assert e.time_index(1.0) == 1

    def test_list_paths_are_kept_as_a_float64_array(self):
        e = Ensemble(ProcessKind("wiener"), [0.5, 1.0], [[1.0, 2.0]], seed=0)
        assert isinstance(e.paths, np.ndarray) and e.paths.dtype == np.float64
        assert e.paths.tolist() == [[1.0, 2.0]] and e.n_paths == 1

    @pytest.mark.parametrize("paths", [1.0, [1.0, 2.0], [[1.0, 2.0, 3.0]], [[[1.0, 2.0]]]])
    def test_paths_must_be_a_matrix_over_the_grid(self, paths):
        with pytest.raises(ValueError, match="paths must be n_paths x n_times"):
            Ensemble(ProcessKind("wiener"), [0.5, 1.0], paths, seed=0)

    def test_values_must_be_finite(self):
        paths = np.zeros((3, 2))
        paths[1, 1] = np.inf
        with pytest.raises(ValueError):
            Ensemble(kind_of("wiener"), np.array([0.5, 1.0]), paths, seed=0)

    def test_time_index(self):
        e = sample_ensemble(kind_of("wiener"), GRID, 10, seed=0)
        assert e.time_index(0.75) == 2
        with pytest.raises(ValueError):
            e.time_index(0.6)

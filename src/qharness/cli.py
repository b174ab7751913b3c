"""Command-line entry point.

Subcommands: simulate | verify | moments | hankel | certificate | optimize |
tails.  Every run is driven by a RunConfig (flags, optionally preloaded from
a --config JSON file with identical keys; explicit flags win).  Artifacts
are written atomically, embed {tool version, config echo, seed} and carry no
timestamps, so equal configs give byte-identical outputs; a ``<out>.log``
sidecar records wall-clock info instead.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage,
I/O or any other error (one ``qharness <cmd>: error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

from . import __version__, core, moments
from . import certificates as certs

# simulate and empirics, and with them numpy, are imported inside the Monte
# Carlo handlers (simulate, verify, tails), so the other subcommands start
# without numpy.

_DEFAULTS: dict[str, dict[str, Any]] = {
    "simulate": {"seed": 0, "workers": 1},
    "verify": {"seed": 0, "bins": 40},
    "moments": {"seed": 0, "eta": 0.0, "theta": 0.0, "sigma": 0.0,
                "tau": 0.0, "gamma": 1.0, "t": 1.0},
    "hankel": {"seed": 0},
    "certificate": {"seed": 0, "mode": "paper"},
    "optimize": {"seed": 0, "knobs": "exact-k"},
    "tails": {"seed": 0, "raw": False},
}

# the artifact formats each subcommand writes; the first is the default
_FORMATS: dict[str, tuple[str, ...]] = {
    "simulate": ("qhe", "csv"), "verify": ("json", "csv"), "tails": ("json", "csv"),
    **{c: ("json",) for c in ("moments", "hankel", "certificate", "optimize")},
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "simulate": ("process", "grid", "paths", "out"),
    "verify": ("ensemble", "s", "t"),
    "moments": (),
    "hankel": ("moments",),
    "certificate": ("p",),
    "optimize": ("p",),
    "tails": ("ensemble", "s", "t"),
}


@dataclass
class RunConfig:
    """A fully-resolved invocation: subcommand plus its parameter map."""

    command: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "json"
    # extra key=value fields a handler adds to the <out>.log line (never the artifact)
    log_fields: dict[str, Any] = field(default_factory=dict, compare=False)


def _float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    parts = [p for p in str(value).split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(p) for p in parts]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The qharness parser, built on the first call and shared for the rest
    of the process: argparse keeps no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="qharness",
        description="Quadratic-harness conditional moments, integrability "
        "certificates and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"qharness {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="JSON file with the same keys as the flags; explicit flags override")
        p.add_argument("--seed", type=int, default=None, help="seed recorded in every artifact")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", default=None,
                       help="output format: qhe|csv (simulate), json|csv (verify, "
                       "tails), json (the others)")

    p = sub.add_parser(
        "simulate",
        help="sample a seeded ensemble of a centered Levy martingale "
        "(mean 0, covariance min(s,t), martingale increments)",
    )
    p.add_argument("--process", choices=core.KINDS, default=None, help=" | ".join(core.KINDS))
    p.add_argument("--pascal-q", type=float, default=None,
                   help="success probability of the pascal kind (default "
                   f"{core.kind_record('pascal').q_default}); "
                   "an error with a kind that takes no parameter")
    p.add_argument("--grid", default=None, help="comma-separated ascending times")
    p.add_argument("--paths", type=int, default=None, help="number of sample paths")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (never changes the sampled values)")
    add_common(p)

    p = sub.add_parser(
        "verify",
        help="check an ensemble against the closed-form conditional moments: "
        "covariance min(s,t), one-sided means, and the quadratic "
        "conditional-variance coefficients",
    )
    p.add_argument("ensemble", help="ensemble container written by simulate")
    p.add_argument("--s", type=float, default=None, help="earlier grid time")
    p.add_argument("--t", type=float, default=None, help="later grid time")
    p.add_argument("--bins", type=int, default=None, help="quantile bins (default 40)")
    add_common(p)

    p = sub.add_parser(
        "moments",
        help="moment-order thresholds, region classification, the closed-form "
        "order-3 Hankel determinant, and the forced two-point law at gamma=-1",
    )
    for f in fields(core.HarnessParams):
        p.add_argument(f"--{f.name}", type=float, default=None)
    p.add_argument("--t", type=float, default=None, help="marginal time (default 1)")
    p.add_argument("--s", type=float, default=None,
                   help="with --t/--u: also report the two-sided variance scale")
    p.add_argument("--u", type=float, default=None)
    add_common(p)

    p = sub.add_parser(
        "hankel",
        help="order-3 Hankel determinant of a moment vector m0..m4; for a "
        "centered vector also the two-point reconstruction it forces when zero",
    )
    p.add_argument("--moments", default=None, help="comma-separated m0,m1,m2,m3,m4")
    add_common(p)

    p = sub.add_parser(
        "certificate",
        help="explicit-constant certificate for the moment-integrability chain "
        "(tail recursion N(Kt) <= (c1/t^2+c2/t+q)N(t) plus the one-order lift)",
    )
    p.add_argument("--p", type=float, default=None, help="moment order to lift past")
    p.add_argument("--mode", choices=("paper", "exact"), default=None,
                   help="paper: the printed constant chain (240); "
                   "exact: sharply evaluated inequalities")
    p.add_argument("--sigma", type=float, default=None,
                   help="with --tau: evaluate the chain at delta=2*sqrt(sigma*tau)")
    p.add_argument("--tau", type=float, default=None)
    add_common(p)

    p = sub.add_parser(
        "optimize",
        help="smallest certified integrability constant over the chain's free "
        "parameter u = 1 - rho and margin rule, solved in closed form (at most 3 "
        "certificate evaluations; the <out>.log line reports them)",
    )
    p.add_argument("--p", type=float, default=None, help="moment order to lift past")
    p.add_argument("--knobs", default=None,
                   help="comma-separated subset of exact-k,exact-margin,rho,split "
                   "(default exact-k); rho adds the closed-form optimal u = 1 - rho; "
                   "split is accepted and has no effect (the split weight is pinned "
                   "at 1/sqrt(2))")
    add_common(p)

    p = sub.add_parser(
        "tails",
        help="empirical two-variable tail curve N(t)=Pr(|X|>t)+Pr(|Y|>t) and "
        "Hill tail-index estimate",
    )
    p.add_argument("ensemble", help="ensemble container written by simulate")
    p.add_argument("--s", type=float, default=None, help="earlier grid time")
    p.add_argument("--t", type=float, default=None, help="later grid time")
    p.add_argument("--thresholds", default=None,
                   help="comma-separated ascending thresholds (default: data-driven ladder)")
    p.add_argument("--k", type=int, default=None,
                   help="Hill order-statistics count, 1 <= k < n/2 (default n//100)")
    p.add_argument("--raw", action="store_true", default=None,
                   help="skip the X_s/sqrt(s), X_t/sqrt(t) standardization")
    add_common(p)

    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv (raises SystemExit(2) on usage errors, ValueError on bad values)."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.error("a subcommand is required")

    raw = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    merged = dict(_DEFAULTS[ns.command])

    if ns.config is not None:
        with open(ns.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{ns.config}: config must be a JSON object")
        known = set(raw) | set(_DEFAULTS[ns.command]) | {"out", "format", "seed"}
        unknown = set(file_cfg) - known
        if unknown:
            raise ValueError(f"{ns.config}: unknown keys {sorted(unknown)}")
        merged.update(file_cfg)

    merged.update({k: v for k, v in raw.items() if v is not None})

    missing = [k for k in _REQUIRED[ns.command] if merged.get(k) is None]
    if missing:
        parser.error(f"{ns.command}: missing required flags: {', '.join(missing)}")

    out = merged.pop("out", None)
    formats = _FORMATS[ns.command]
    fmt = merged.pop("format", formats[0])
    if fmt not in formats:
        raise ValueError(f"{ns.command}: --format must be {'|'.join(formats)}, got {fmt!r}")
    seed = int(merged.pop("seed"))
    merged["seed"] = seed
    return RunConfig(command=ns.command, params=merged, seed=seed, out=out, format=fmt)


# ---------------------------------------------------------------------------
# artifact emission


_ESCAPE = json.encoder.encode_basestring_ascii


def _dump(obj, nl: str | None) -> str:
    """The text of ``json.dumps(obj, sort_keys=True)``: with ``indent=2`` when ``nl``
    is a newline plus the current indentation, on one line when it is None.  It
    converts as it writes: numpy scalars and arrays through ``tolist()``, tuples
    as lists, and the floats inf, -inf and nan as the strings "inf", "-inf", "nan"."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return '"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"'
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        inner = nl and nl + "  "
        return _join("{}", [f"{_ESCAPE(k)}: {_dump(obj[k], inner)}" for k in sorted(obj)], nl)
    if isinstance(obj, (list, tuple)):
        inner = nl and nl + "  "
        return _join("[]", [_dump(v, inner) for v in obj], nl)
    if hasattr(obj, "tolist"):  # numpy scalars and arrays, without importing numpy
        return _dump(obj.tolist(), nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _join(brackets: str, items: list[str], nl: str | None) -> str:
    """A container's items between its brackets, laid out as json.dumps lays them."""
    if not items:
        return brackets
    if nl is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _atomic_write(path: str, content: bytes | Callable[[str], Any]) -> None:
    """Write ``content`` (bytes, or a callable given the file name to write) to a
    temporary file beside ``path``, then rename it onto ``path``.

    The hidden ``.qharness-<hex>`` temporary is created once with ``open(tmp, "xb")``:
    O_CREAT|O_EXCL at mode 0o666, so the kernel applies the umask, as for a plain
    ``open``.  The directory is made only when that create finds it missing.  On
    any error the temporary is removed and ``path`` keeps what it held."""
    d = os.path.dirname(os.path.abspath(path))
    made_dir = False
    while True:
        tmp = os.path.join(d, f".qharness-{os.urandom(6).hex()}")
        try:
            fh = open(tmp, "xb")
            break
        except FileExistsError:
            continue
        except FileNotFoundError:
            if made_dir:
                raise
            os.makedirs(d, exist_ok=True)
            made_dir = True
    try:
        with fh:
            if isinstance(content, bytes):
                fh.write(content)
        if callable(content):
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, results: dict, csv_rows: tuple[list[str], list[list]] | None = None) -> None:
    """Write (or print) the artifact as CSV rows when format=csv, else as JSON
    (2-space indent, sorted keys); the time taken goes to the sidecar as emit_s."""
    started = time.perf_counter()
    if config.format == "csv":
        header, rows = csv_rows
        lines = [
            f"# version={__version__}",
            f"# command={config.command}",
            f"# seed={config.seed}",
            f"# config={_dump(config.params, None)}",
            ",".join(header),
        ]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        artifact = {"version": __version__, "command": config.command, "seed": config.seed,
                    "config": config.params, "results": results}
        text = _dump(artifact, "\n") + "\n"

    if config.out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(config.out, text.encode())
        config.log_fields["emit_s"] = time.perf_counter() - started


def _sidecar(config: RunConfig, started: float) -> None:
    if config.out is None:
        return
    fields = dict(config.log_fields)
    emit_s = fields.pop("emit_s", 0.0)
    line = (
        f"command={config.command} out={config.out} "
        f"wall_clock={time.strftime('%Y-%m-%dT%H:%M:%S%z')} "
        f"elapsed_s={time.monotonic() - started:.3f} emit_s={emit_s:.6f}"
        + "".join(f" {k}={json.dumps(v)}" for k, v in fields.items())
        + "\n"
    )
    with open(config.out + ".log", "a", encoding="utf-8") as fh:
        fh.write(line)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_simulate(config: RunConfig) -> int:
    from . import simulate

    cfg = config.params
    q = cfg.get("pascal_q")
    if q is None:
        q = core.kind_record(cfg["process"]).q_default
    kind = simulate.ProcessKind(cfg["process"], None if q is None else float(q))
    grid = _float_list(cfg["grid"])
    ens = simulate.sample_ensemble(
        kind, grid, int(cfg["paths"]), config.seed, n_workers=int(cfg["workers"])
    )
    n_blocks = -(-ens.n_paths // simulate.BLOCK_PATHS)
    config.log_fields.update(substreams=n_blocks * ens.n_times,
                             workers=min(int(cfg["workers"]), n_blocks))
    writer = simulate.save_ensemble if config.format == "qhe" else simulate.ensemble_to_csv
    started = time.perf_counter()
    _atomic_write(config.out, lambda tmp: writer(ens, tmp))
    config.log_fields.update(emit_s=time.perf_counter() - started,
                             bytes_written=os.path.getsize(config.out))
    return 0


def _check(name: str, value: float, expected: float, se: float, max_se: float) -> dict:
    dev = abs(value - expected) / se if se > 0 else (0.0 if value == expected else math.inf)
    return {
        "test": name,
        "value": value,
        "expected": expected,
        "se": se,
        "statistic": dev,
        "tolerance": max_se,
        "pass": bool(dev <= max_se),
    }


def _resolve_pair(cfg: dict):
    """The container's header and the grid times s < t that --s and --t name;
    read from the header alone, before any column."""
    from . import simulate

    head = simulate.read_header(cfg["ensemble"])
    si = head.time_index(float(cfg["s"]))
    ti = head.time_index(float(cfg["t"]))
    if si >= ti:
        raise ValueError("need s < t")
    return head, float(head.grid[si]), float(head.grid[ti])


def _run_verify(config: RunConfig) -> int:
    from . import empirics, simulate

    cfg = config.params
    head, s, t = _resolve_pair(cfg)
    n_bins = int(cfg["bins"])
    if n_bins < 5:
        raise ValueError(f"need n_bins >= 5, got {n_bins}")
    # only the columns of s and t are read
    ens = simulate.load_ensemble(cfg["ensemble"], times=(s, t))
    p = simulate.known_params(ens.kind)

    pe = empirics.path_empirics(ens, 0, 1)
    fit = pe.fit
    if fit is None:
        raise ValueError("the quadratic fit needs at least 3 distinct values of X_t")
    checks = [
        _check(f"covariance({a},{b})", est.value, core.covariance(a, b), est.se, 5.0)
        for est, (a, b) in zip(pe.covariance, ((s, s), (s, t), (t, t)))
    ]
    for direction, est, predicted in (("forward", pe.slope_forward, 1.0),
                                      ("backward", pe.slope_backward, s / t)):
        checks.append(_check(f"mean-slope-{direction}", est.value, predicted, est.se, 3.0))
    pref = s * (t - s) / (t + p.tau)
    preds = (pref, pref * p.theta / t, pref * p.tau / (t * t))
    for coef, se_c, pred, label in zip(
        (fit.c0, fit.c1, fit.c2), fit.se, preds, ("c0", "c1", "c2")
    ):
        checks.append(_check(f"backward-quadratic-{label}", coef, pred, se_c, 3.0))
    checks.append(_check("law-of-total-variance-backward", pe.lotv.value, s * (t - s) / t,
                         pe.lotv.se, 4.0))

    # the bins are display only: no verdict reads them
    binned = empirics.estimate_conditional(ens, 0, 1, n_bins, "backward")
    config.log_fields.update(bins_requested=n_bins, bins_returned=binned.n_bins,
                             bins_confident=int(binned.confident.sum()),
                             weights_floored=pe.weights_floored, row_blocks=pe.row_blocks,
                             columns_read=ens.n_times)

    all_pass = all(c["pass"] for c in checks)
    bins = binned.rows()
    results = {
        "ensemble": {"kind": ens.kind.name, "q": ens.kind.q, "seed": ens.seed,
                     "n_paths": ens.n_paths, "grid": head.grid.tolist()},
        "s": s,
        "t": t,
        "checks": checks,
        "binned": bins,
        "fit": {"c0": fit.c0, "c1": fit.c1, "c2": fit.c2, "r_squared": fit.r_squared},
        "pass": all_pass,
    }
    header = ["bin_lo", "bin_hi", "n", "mean", "var", "se_mean", "se_var", "pred_mean", "pred_var"]
    rows = [[r[h] for h in header] for r in bins]
    _emit(config, results, (header, rows))
    return 0 if all_pass else 1


def _two_point_json(law: moments.TwoPointLaw) -> dict:
    """A two-point law's atoms and weights, as moments and hankel report them."""
    return {"atom_lo": law.atom_lo, "atom_hi": law.atom_hi,
            "weight_lo": law.weight_lo, "weight_hi": law.weight_hi}


def _run_moments(config: RunConfig) -> int:
    cfg = config.params
    t = core._check_time("--t", float(cfg["t"]))
    p = core.HarnessParams(**{f.name: float(cfg[f.name]) for f in fields(core.HarnessParams)})
    warnings = core.validate_params(p)
    region = moments.classify_moment_region(p)

    results: dict[str, Any] = {
        "params": asdict(p),
        "t": t,
        "warnings": warnings,
        "region": {"region": region.region, "bound": region.bound},
        "pmax_certified": moments.pmax_certified(p.sigma, p.tau),
        "pfail_upper": moments.pfail_upper(p.sigma, p.tau),
    }
    try:
        results["hankel3_closed_form"] = moments.hankel3_closed_form(p, t)
    except ValueError as exc:
        results["hankel3_closed_form"] = None
        results["hankel3_closed_form_error"] = str(exc)

    if p.gamma == -1.0:  # the harness's own law: its Hankel determinant vanishes
        try:
            m3 = moments.marginal_moments(p, t).m3
            law = moments.two_point_from_moments(t, m3)
            results["two_point"] = {"third_moment": m3, **_two_point_json(law)}
        except ValueError as exc:
            results["two_point"] = None
            results["two_point_error"] = str(exc)

    if cfg.get("s") is not None and cfg.get("u") is not None:
        s, u = float(cfg["s"]), float(cfg["u"])
        results["two_sided"] = {
            "scale": core.double_var_scale(p, s, t, u),
            "brownian_reference": (u - t) * (t - s) / (u - s),
        }

    _emit(config, results)
    return 0


def _run_hankel(config: RunConfig) -> int:
    cfg = config.params
    vals = _float_list(cfg["moments"])
    if len(vals) != 5:
        raise ValueError(f"--moments needs exactly 5 values m0..m4, got {len(vals)}")
    mv = moments.MomentVector(*vals)
    det = moments.hankel3(mv)
    results: dict[str, Any] = {"moments": vals, "determinant": det, "nonneg": bool(det >= -1e-10)}
    if mv.m1 == 0.0 and mv.m2 > 0.0:
        law = moments.two_point_from_moments(mv.m2, mv.m3)
        results["two_point"] = {
            **_two_point_json(law),
            "reproduces_m4": bool(abs(law.moment(4) - mv.m4) <= 1e-10 * max(1.0, abs(mv.m4))),
        }
    _emit(config, results)
    return 0


def _run_certificate(config: RunConfig) -> int:
    cfg = config.params
    p = float(cfg["p"])
    mode = cfg["mode"]
    sigma, tau = cfg.get("sigma"), cfg.get("tau")
    results: dict[str, Any] = {}
    if (sigma is None) != (tau is None):
        raise ValueError("--sigma and --tau must be given together")
    if sigma is not None:
        emb = certs.embedding(float(sigma), float(tau), certs.u_for_order(p))
        cert = certs.make_certificate(p, contraction_rule=mode, delta=emb.delta)
        results["embedding"] = {"s": emb.s, "t": emb.t, "delta": emb.delta,
                                "check_rho": emb.check_rho}
        lhs = (p + 1.0) * (emb.delta / 2.0)  # (p+1)*sqrt(sigma*tau)
        results["order_condition"] = {"lhs": lhs, "rhs": 1.0 / cert.constant,
                                      "within": lhs <= 1.0 / cert.constant}
    else:
        cert = certs.make_certificate(p, contraction_rule=mode)
    results.update(cert.to_json_dict())
    _emit(config, results)
    return 0 if cert.valid else 1


def _run_optimize(config: RunConfig) -> int:
    cfg = config.params
    knobs = [k.strip() for k in str(cfg["knobs"]).split(",") if k.strip()]
    stats = certs.SearchStats()
    cert = certs.optimize_constant(float(cfg["p"]), knobs, stats=stats)
    config.log_fields.update(evaluations=stats.evaluations)
    results = {"knobs": knobs}
    results.update(cert.to_json_dict())
    _emit(config, results)
    return 0 if cert.valid else 1


def _run_tails(config: RunConfig) -> int:
    from . import empirics, simulate

    cfg = config.params
    head, s, t = _resolve_pair(cfg)
    normalize = not bool(cfg.get("raw"))
    # the default k too is checked here, so tail_curve never meets a bad one
    k = int(cfg["k"]) if cfg.get("k") is not None else max(1, head.n_paths // 100)
    if not (1 <= k < head.n_paths / 2):
        raise ValueError(f"--k must satisfy 1 <= k < n/2 = {head.n_paths / 2}, got {k}")
    thresholds = cfg.get("thresholds")
    if thresholds is not None:
        thresholds = empirics._check_thresholds(_float_list(thresholds))
    # only the columns of s and t are read
    ens = simulate.load_ensemble(cfg["ensemble"], times=(s, t))
    # Hill comes from the |X_t| column the curve sorts: one sort per column
    curve = empirics.tail_curve(ens, 0, 1, thresholds, normalize=normalize, hill_k=k)
    hill = curve.hill
    hill_info = ({"error": hill} if isinstance(hill, str) else
                 {"alpha": hill.alpha, "ci_low": hill.ci_low, "ci_high": hill.ci_high,
                  "k": hill.k, "n": hill.n})

    results = {
        "ensemble": {"kind": ens.kind.name, "q": ens.kind.q, "seed": ens.seed,
                     "n_paths": ens.n_paths},
        "s": s,
        "t": t,
        "normalized": normalize,
        "thresholds": curve.thresholds.tolist(),
        "n_values": curve.n_values.tolist(),
        "n_samples": curve.n_samples,
        "hill": hill_info,
    }
    config.log_fields.update(columns_read=ens.n_times, thresholds=curve.thresholds.size,
                             hill_k=k)
    header = ["threshold", "n_value"]
    rows = [[float(a), float(b)] for a, b in zip(curve.thresholds, curve.n_values)]
    _emit(config, results, (header, rows))
    return 0


_HANDLERS = {
    "simulate": _run_simulate,
    "verify": _run_verify,
    "moments": _run_moments,
    "hankel": _run_hankel,
    "certificate": _run_certificate,
    "optimize": _run_optimize,
    "tails": _run_tails,
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit code."""
    started = time.monotonic()
    try:
        code = _HANDLERS[config.command](config)
        _sidecar(config, started)
    except (ValueError, OSError) as exc:
        print(f"qharness {config.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal fault still ends in one line and exit 2
        print(f"qharness {config.command}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"qharness: error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

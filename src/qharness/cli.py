"""Command-line entry point.

Subcommands: simulate | verify | moments | hankel | certificate | optimize |
tails.  Every run is driven by a RunConfig parsed from the flags; the keys of
a --config JSON file are parsed as the flags they name, and explicit flags
win.  Artifacts are written atomically, embed {tool version, config echo,
seed} and carry no timestamps, so equal configs give byte-identical outputs;
a ``<out>.log`` sidecar records wall-clock info instead.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage,
config-file, I/O or any other error (one ``qharness <cmd>: error: ...`` line
on stderr, a CR or LF in it written as ``\\r`` or ``\\n``).
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

# checked once a config file's flags are in, which required=True cannot wait for
_REQUIRED: dict[str, tuple[str, ...]] = {
    "simulate": ("process", "grid", "paths", "out"),
    "verify": ("s", "t"),
    "moments": (),
    "hankel": ("moments",),
    "certificate": ("p",),
    "optimize": ("p",),
    "tails": ("s", "t"),
}


@dataclass
class RunConfig:
    """A fully-resolved invocation: subcommand plus its parameter map."""

    command: str
    params: dict[str, Any]
    seed: int
    out: str | None
    format: str
    # extra key=value fields a handler adds to the <out>.log line (never the artifact)
    log_fields: dict[str, Any] = field(default_factory=dict, compare=False)


def _float_list(value: str) -> list[float]:
    parts = [p for p in value.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(p) for p in parts]


def _error_line(prog: str, message: str) -> str:
    """``prog: error: message`` as one stderr line: a CR or LF in it (an argv
    token or a path may hold one) is written as ``\\r`` or ``\\n``."""
    return f"{prog}: error: {message}".replace("\r", "\\r").replace("\n", "\\n") + "\n"


class _Parser(argparse.ArgumentParser):
    """Prints each usage error as one ``qharness <cmd>: error: ...`` line and exits 2."""

    def error(self, message: str):
        self.exit(2, _error_line(self.prog, message))


@functools.cache
def _build_parser() -> _Parser:
    """The qharness parser, built on the first call and shared for the rest
    of the process: argparse keeps no state between ``parse_args`` calls."""
    parser = _Parser(
        prog="qharness",
        description="Quadratic-harness conditional moments, integrability "
        "certificates and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"qharness {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    parser.commands = sub.choices  # each subcommand's own parser

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json",)) -> None:
        p.add_argument("--config", help="JSON file of flag values by name; explicit flags win")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in every artifact")
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=formats, default=formats[0], help=f"default {formats[0]}")

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("ensemble", help="ensemble container written by simulate")
        p.add_argument("--s", type=float, help="earlier grid time")
        p.add_argument("--t", type=float, help="later grid time")

    p = sub.add_parser(
        "simulate",
        help="sample a seeded ensemble of a centered Levy martingale "
        "(mean 0, covariance min(s,t), martingale increments)",
    )
    p.add_argument("--process", choices=core.KINDS, help=" | ".join(core.KINDS))
    p.add_argument("--pascal-q", type=float,
                   help="success probability of the pascal kind (default "
                   f"{core.kind_record('pascal').q_default}); "
                   "an error with a kind that takes no parameter")
    p.add_argument("--grid", help="comma-separated ascending times")
    p.add_argument("--paths", type=int, help="number of sample paths")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads (never changes the sampled values)")
    add_common(p, ("qhe", "csv"))

    p = sub.add_parser(
        "verify",
        help="check an ensemble against the closed-form conditional moments: "
        "covariance min(s,t), one-sided means, and the quadratic "
        "conditional-variance coefficients",
    )
    add_pair(p)
    p.add_argument("--bins", type=int, default=40, help="quantile bins (default 40)")
    add_common(p, ("json", "csv"))

    p = sub.add_parser(
        "moments",
        help="moment-order thresholds, region classification, the closed-form "
        "order-3 Hankel determinant, and the forced two-point law at gamma=-1",
    )
    for f in fields(core.HarnessParams):
        p.add_argument(f"--{f.name}", type=float, default=1.0 if f.name == "gamma" else 0.0)
    p.add_argument("--t", type=float, default=1.0, help="marginal time (default 1)")
    p.add_argument("--s", type=float, help="with --t/--u: also report the two-sided variance scale")
    p.add_argument("--u", type=float)
    add_common(p)

    p = sub.add_parser(
        "hankel",
        help="order-3 Hankel determinant of a moment vector m0..m4; for a "
        "centered vector also the two-point reconstruction it forces when zero",
    )
    p.add_argument("--moments", help="comma-separated m0,m1,m2,m3,m4")
    add_common(p)

    p = sub.add_parser(
        "certificate",
        help="explicit-constant certificate for the moment-integrability chain "
        "(tail recursion N(Kt) <= (c1/t^2+c2/t+q)N(t) plus the one-order lift)",
    )
    p.add_argument("--p", type=float, help="moment order to lift past")
    p.add_argument("--mode", choices=("paper", "exact"), default="paper",
                   help="paper: the printed constant chain (240); "
                   "exact: sharply evaluated inequalities")
    p.add_argument("--sigma", type=float,
                   help="with --tau: evaluate the chain at delta=2*sqrt(sigma*tau)")
    p.add_argument("--tau", type=float)
    add_common(p)

    p = sub.add_parser(
        "optimize",
        help="smallest certified integrability constant over the chain's free "
        "parameter u = 1 - rho and margin rule, solved in closed form (at most 3 "
        "certificate evaluations; the <out>.log line reports them)",
    )
    p.add_argument("--p", type=float, help="moment order to lift past")
    p.add_argument("--knobs", default="exact-k",
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
    add_pair(p)
    p.add_argument("--thresholds",
                   help="comma-separated ascending thresholds (default: data-driven ladder)")
    p.add_argument("--k", type=int,
                   help="Hill order-statistics count, 1 <= k < n/2 (default n//100)")
    p.add_argument("--raw", action="store_true",
                   help="skip the X_s/sqrt(s), X_t/sqrt(t) standardization")
    add_common(p, ("json", "csv"))

    return parser


def _config_flags(path: str, keys: set[str]) -> list[str]:
    """A --config file's keys as the flags they name: ``--key=value``, a list
    joined by commas, ``true`` a bare switch, ``false`` and ``null`` nothing."""
    with open(path, "r", encoding="utf-8") as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(file_cfg) - keys
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    flags = []
    for key, value in file_cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            flags.append(f"{flag}={text}")
    return flags


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv; a usage error, config-file ones too, is one stderr line and SystemExit(2)."""
    parser = _build_parser()
    ns, extra = parser.parse_known_args(argv)
    if ns.command is None:
        parser.error("a subcommand is required")
    command = parser.commands[ns.command]
    if ns.config is not None:  # the file's flags go first, so explicit ones win
        at = argv.index(ns.command) + 1
        keys = set(vars(ns)) - {"command", "config", "ensemble"}  # ensemble is positional
        try:  # JSON nested too deep is a RecursionError; strerror leaves out the path
            flags = _config_flags(ns.config, keys)
        except (ValueError, OSError, RecursionError) as exc:
            command.error(f"--config {ns.config}: {getattr(exc, 'strerror', None) or exc}")
        ns, extra = parser.parse_known_args([*argv[:at], *flags, *argv[at:]])
    if extra:
        command.error(f"unrecognized arguments: {' '.join(extra)}")
    missing = [k for k in _REQUIRED[ns.command] if getattr(ns, k) is None]
    if missing:
        command.error(f"missing required flags: {', '.join(missing)}")

    params = {k: v for k, v in vars(ns).items()
              if v is not None and k not in ("command", "config", "out", "format")}
    return RunConfig(ns.command, params, ns.seed, ns.out, ns.format)


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
        + "".join(f" {k}={_dump(v, None)}" for k, v in fields.items())
        + "\n"
    )
    with open(config.out + ".log", "a", encoding="utf-8") as fh:
        fh.write(line)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_simulate(config: RunConfig) -> int:
    from . import simulate

    cfg = config.params
    q = cfg.get("pascal_q", core.kind_record(cfg["process"]).q_default)
    n, workers = cfg["paths"], cfg["workers"]
    kind = simulate.ProcessKind(cfg["process"], q)
    grid = simulate.check_sampling(_float_list(cfg["grid"]), n, config.seed, workers)
    n_blocks = -(-n // simulate.BLOCK_PATHS)
    config.log_fields.update(substreams=n_blocks * grid.size, workers=min(workers, n_blocks))
    args = (kind, grid, n, config.seed)
    if config.format == "qhe":  # emit_s covers the sampling too
        write = functools.partial(simulate.sample_to_container, *args, n_workers=workers)
    else:
        write = functools.partial(simulate.ensemble_to_csv, simulate.sample_ensemble(*args, workers))
    started = time.perf_counter()
    _atomic_write(config.out, write)
    config.log_fields.update(emit_s=time.perf_counter() - started,
                             bytes_written=os.path.getsize(config.out))
    return 0


def _check(name: str, value: float, expected: float, se: float, max_se: float) -> dict:
    dev = abs(value - expected) / se if se > 0 else (0.0 if value == expected else math.inf)
    return {"test": name, "value": value, "expected": expected, "se": se, "statistic": dev,
            "tolerance": max_se, "pass": bool(dev <= max_se)}


def _resolve_pair(cfg: dict):
    """The container's handle and the grid indices of s < t that --s and --t
    name; read from the header alone, before any column."""
    from . import simulate

    head = simulate.read_header(cfg["ensemble"])
    si, ti = head.time_index(cfg["s"]), head.time_index(cfg["t"])
    if si >= ti:
        raise ValueError("need s < t")
    return head, si, ti


def _run_verify(config: RunConfig) -> int:
    from . import empirics, simulate

    cfg = config.params
    head, si, ti = _resolve_pair(cfg)
    s, t = float(head.grid[si]), float(head.grid[ti])
    n_bins = cfg["bins"]
    if n_bins < 5:
        raise ValueError(f"need n_bins >= 5, got {n_bins}")
    p = simulate.known_params(head.kind)

    # the kernels read only the columns of s and t, streamed from the file.
    # The checks run on this thread while a worker streams the binning's
    # passes, so checks_s lies inside binning_s; wait_s is this thread's wait
    # for the passes after the checks
    done: dict = {}

    def run_checks() -> None:
        started = time.perf_counter()
        pe = empirics.path_empirics(head, si, ti)
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
        for coef, se_c, pred, label in zip(
            (fit.c0, fit.c1, fit.c2), fit.se, core.var_backward_coeffs(p, s, t), ("c0", "c1", "c2")
        ):
            checks.append(_check(f"backward-quadratic-{label}", coef, pred, se_c, 3.0))
        checks.append(_check("law-of-total-variance-backward", pe.lotv.value, s * (t - s) / t,
                             pe.lotv.se, 4.0))
        done.update(pe=pe, fit=fit, checks=checks, checks_s=time.perf_counter() - started)

    # the bins are display only: no verdict reads them
    started = time.perf_counter()
    binned = empirics.estimate_conditional(head, si, ti, n_bins, beside=run_checks)
    pe, fit, checks = done["pe"], done["fit"], done["checks"]
    config.log_fields.update(bins_requested=n_bins, bins_returned=binned.n_bins,
                             bins_confident=int(binned.confident.sum()),
                             label_searches=binned.label_searches,
                             weights_floored=pe.weights_floored, fit_pivot=pe.fit_pivot,
                             row_blocks=pe.row_blocks, columns_read=2, container_reads=head.reads,
                             checks_s=done["checks_s"], binning_s=time.perf_counter() - started,
                             wait_s=binned.wait_s)

    all_pass = all(c["pass"] for c in checks)
    bins = binned.rows()
    results = {
        "ensemble": {"kind": head.kind.name, "q": head.kind.q, "seed": head.seed,
                     "n_paths": head.n_paths, "grid": head.grid.tolist()},
        "s": s, "t": t,
        "checks": checks,
        "binned": bins,
        "fit": {"c0": fit.c0, "c1": fit.c1, "c2": fit.c2, "r_squared": fit.r_squared},
        "pass": all_pass,
    }
    header = ["bin_lo", "bin_hi", "n", "mean", "var", "se_mean", "se_var", "pred_mean", "pred_var"]
    rows = [[r[h] for h in header] for r in bins]
    _emit(config, results, (header, rows))
    return 0 if all_pass else 1


def _run_moments(config: RunConfig) -> int:
    cfg = config.params
    if (cfg.get("s") is None) != (cfg.get("u") is None):
        raise ValueError("--s and --u must be given together")
    t = core._check_time("--t", cfg["t"])
    p = core.HarnessParams(**{f.name: cfg[f.name] for f in fields(core.HarnessParams)})
    region = moments.classify_moment_region(p)

    results: dict[str, Any] = {
        "params": asdict(p),
        "t": t,
        "warnings": [region.reason] if region.reason else [],
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
            m3, law = moments.harness_two_point(p, t)
            results["two_point"] = {"third_moment": m3, **asdict(law)}
        except ValueError as exc:
            results["two_point"] = None
            results["two_point_error"] = str(exc)

    if cfg.get("s") is not None:
        s, u = cfg["s"], cfg["u"]
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
            **asdict(law),
            "reproduces_m4": bool(abs(law.moment(4) - mv.m4) <= 1e-10 * max(1.0, abs(mv.m4))),
        }
    _emit(config, results)
    return 0


def _run_certificate(config: RunConfig) -> int:
    cfg = config.params
    p, mode, sigma, tau = cfg["p"], cfg["mode"], cfg.get("sigma"), cfg.get("tau")
    results: dict[str, Any] = {}
    if (sigma is None) != (tau is None):
        raise ValueError("--sigma and --tau must be given together")
    if sigma is not None:
        emb = certs.embedding(sigma, tau, certs.u_for_order(p))
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
    knobs = [k.strip() for k in cfg["knobs"].split(",") if k.strip()]
    stats = certs.SearchStats()
    cert = certs.optimize_constant(cfg["p"], knobs, stats=stats)
    config.log_fields.update(evaluations=stats.evaluations)
    results = {"knobs": knobs, **cert.to_json_dict()}
    _emit(config, results)
    return 0 if cert.valid else 1


def _run_tails(config: RunConfig) -> int:
    from . import empirics

    cfg = config.params
    head, si, ti = _resolve_pair(cfg)
    s, t = float(head.grid[si]), float(head.grid[ti])
    normalize = not cfg["raw"]
    # the default k too is checked here, so tail_curve never meets a bad one
    k = cfg["k"] if cfg.get("k") is not None else max(1, head.n_paths // 100)
    if not (1 <= k < head.n_paths / 2):
        raise ValueError(f"--k must satisfy 1 <= k < n/2 = {head.n_paths / 2}, got {k}")
    thresholds = cfg.get("thresholds")
    if thresholds is not None:
        thresholds = empirics._check_thresholds(_float_list(thresholds))
    # only the columns of s and t are read, one at a time; Hill comes from
    # the |X_t| column the curve sorts: one sort per column
    started = time.perf_counter()
    curve = empirics.tail_curve(head, si, ti, thresholds, normalize=normalize, hill_k=k)
    curve_s = time.perf_counter() - started
    hill = curve.hill
    hill_info = ({"error": hill} if isinstance(hill, str) else
                 {"alpha": hill.alpha, "ci_low": hill.ci_low, "ci_high": hill.ci_high,
                  "k": hill.k, "n": hill.n})

    results = {
        "ensemble": {"kind": head.kind.name, "q": head.kind.q, "seed": head.seed,
                     "n_paths": head.n_paths},
        "s": s, "t": t,
        "normalized": normalize,
        "thresholds": curve.thresholds.tolist(),
        "n_values": curve.n_values.tolist(),
        "n_samples": curve.n_samples,
        "hill": hill_info,
    }
    config.log_fields.update(columns_read=2, container_reads=head.reads, curve_s=curve_s,
                             thresholds=curve.thresholds.size, hill_k=k)
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
    except Exception as exc:  # an internal fault too ends in one line and exit 2
        name = "" if isinstance(exc, (ValueError, OSError)) else f"{type(exc).__name__}: "
        sys.stderr.write(_error_line(f"qharness {config.command}", f"{name}{exc}"))
        return 2
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

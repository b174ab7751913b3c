"""Correctness oracles for the artifacts the benchmarked CLI writes.

Each oracle reads one artifact and returns a list of problems (empty when
the artifact is correct).  The ensemble container and the CSV export are
parsed here with an independent reader, and the verify/tails numbers are
recomputed with plain vectorized numpy, so these checks stay a reference
when the program's own loops are replaced.  Certificates are rebuilt from
their JSON and replayed through ``qharness.certificates``; the replay must
be valid and reproduce the artifact.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

KINDS = ("wiener", "poisson", "gamma", "pascal")
_CONTAINER = struct.Struct("<4sBxxxdQQQ")

# (theta, tau) of the backward conditional variance of each simulated kind
_BACKWARD = {
    "wiener": lambda q: (0.0, 0.0),
    "poisson": lambda q: (1.0, 0.0),
    "gamma": lambda q: (2.0, 1.0),
    "pascal": lambda q: ((2.0 - q) / math.sqrt(1.0 - q), 1.0),
}

# README anchors: the printed chain certifies 240, its sharp evaluation 128
ANCHORS = {(4.0, "paper"): 240.0, (4.0, "exact"): 128.0}

REL = 1e-9


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _mismatch(label: str, got, want) -> str:
    return f"{label}: artifact has {got!r}, oracle gives {want!r}"


def _results(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


def read_container(path: str):
    """Parse an ensemble container: (kind, q, seed, grid, paths)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, code, q, seed, n_paths, n_times = _CONTAINER.unpack_from(raw)
    if magic != b"QHE1":
        raise ValueError(f"bad magic {magic!r}")
    expected = _CONTAINER.size + 8 * n_times * (n_paths + 1)
    if len(raw) != expected:
        raise ValueError(f"container is {len(raw)} bytes, header implies {expected}")
    grid = np.frombuffer(raw, "<f8", n_times, _CONTAINER.size)
    paths = np.frombuffer(raw, "<f8", n_paths * n_times, _CONTAINER.size + 8 * n_times)
    return KINDS[code], q, seed, grid, paths.reshape(n_paths, n_times)


def _lattice_problems(kind: str, q: float, grid, paths) -> list[str]:
    """Structural checks on sampled paths: lattice kinds are integer counts
    (nondecreasing along each path), gamma increments are bounded below by -dt."""
    dts = np.diff(grid, prepend=0.0)
    if kind == "pascal":
        counts = paths / (q / math.sqrt(1.0 - q)) + grid * ((1.0 - q) / q)
    elif kind == "poisson":
        counts = paths + grid
    elif kind == "gamma":
        steps = np.diff(paths, axis=1, prepend=0.0)
        if np.any(steps < -dts - 1e-9):
            return ["gamma increment below -dt"]
        return []
    else:
        return []
    if np.any(np.abs(counts - np.round(counts)) > 1e-6):
        return [f"{kind} path values are off the lattice"]
    if np.any(np.diff(np.round(counts), axis=1, prepend=0.0) < 0):
        return [f"{kind} counts decrease along a path"]
    return []


def check_ensemble(path: str, code: int, *, kind: str, q: float | None, seed: int,
                   grid, n_paths: int) -> list[str]:
    if code != 0:
        return [f"simulate exited {code}"]
    try:
        got_kind, got_q, got_seed, got_grid, paths = read_container(path)
    except (OSError, ValueError, struct.error) as exc:
        return [f"unreadable container: {exc}"]
    problems = []
    if (got_kind, got_seed, paths.shape[0]) != (kind, seed, n_paths):
        problems.append(_mismatch("header", (got_kind, got_seed, paths.shape[0]),
                                  (kind, seed, n_paths)))
    if kind == "pascal" and got_q != q:
        problems.append(_mismatch("pascal q", got_q, q))
    if not np.array_equal(got_grid, np.asarray(grid, dtype=np.float64)):
        problems.append(_mismatch("grid", got_grid.tolist(), list(grid)))
    if not np.all(np.isfinite(paths)):
        problems.append("non-finite path values")
        return problems
    return problems + _lattice_problems(kind, q or 0.0, got_grid, paths)


def check_csv(path: str, code: int, *, kind: str, q: float | None, grid,
              n_paths: int) -> list[str]:
    if code != 0:
        return [f"simulate --format csv exited {code}"]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    want = "path_id," + ",".join(f"t_{t!r}" for t in grid)
    if header != want:
        return [_mismatch("csv header", header, want)]
    data = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])
    if data.shape != (n_paths, len(grid) + 1):
        return [_mismatch("csv shape", data.shape, (n_paths, len(grid) + 1))]
    if not np.array_equal(data[:, 0], np.arange(n_paths)):
        return ["csv path_id column is not 0..n-1"]
    return _lattice_problems(kind, q or 0.0, np.asarray(grid, dtype=np.float64), data[:, 1:])


def _ols_slope(x, y) -> float:
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def check_verify(path: str, code: int, *, ensemble: str, s: float, t: float) -> list[str]:
    """Recompute the covariances, slopes and law-of-total-variance mean."""
    if code not in (0, 1):
        return [f"verify exited {code}"]
    res = _results(path)
    kind, q, _, grid, paths = read_container(ensemble)
    si, ti = int(np.flatnonzero(grid == s)[0]), int(np.flatnonzero(grid == t)[0])
    xs, xt = paths[:, si], paths[:, ti]
    checks = {c["test"]: c for c in res["checks"]}
    problems = []

    theta, tau = _BACKWARD[kind](q)
    r = xt / t
    lotv = (s * (t - s) / (t + tau)) * (1.0 + theta * r + tau * r * r)
    want = {
        f"covariance({s},{s})": (float(np.mean(xs * xs)), s),
        f"covariance({s},{t})": (float(np.mean(xs * xt)), s),
        f"covariance({t},{t})": (float(np.mean(xt * xt)), t),
        "mean-slope-forward": (_ols_slope(xs, xt), 1.0),
        "mean-slope-backward": (_ols_slope(xt, xs), s / t),
        "law-of-total-variance-backward": (float(lotv.mean()), s * (t - s) / t),
    }
    for name, (value, expected) in want.items():
        c = checks.get(name)
        if c is None:
            problems.append(f"verify report lacks check {name}")
            continue
        if not _close(c["value"], value):
            problems.append(_mismatch(f"{name} value", c["value"], value))
        if not _close(c["expected"], expected, rel=1e-15):
            problems.append(_mismatch(f"{name} expected", c["expected"], expected))

    if sum(row["n"] for row in res["binned"]) != paths.shape[0]:
        problems.append("binned counts do not sum to the number of paths")
    verdict = all(c["pass"] for c in res["checks"])
    if res["pass"] != verdict or code != (0 if verdict else 1):
        problems.append(_mismatch("verdict/exit code", (res["pass"], code), verdict))
    return problems


def check_tails(path: str, code: int, *, ensemble: str, s: float, t: float) -> list[str]:
    """Recompute N(t) at the artifact's thresholds and the Hill estimate."""
    if code != 0:
        return [f"tails exited {code}"]
    res = _results(path)
    _, _, _, grid, paths = read_container(ensemble)
    si, ti = int(np.flatnonzero(grid == s)[0]), int(np.flatnonzero(grid == t)[0])
    x = np.abs(paths[:, si]) / math.sqrt(s)
    y = np.abs(paths[:, ti]) / math.sqrt(t)
    n = x.size
    problems = []
    for th, got in zip(res["thresholds"], res["n_values"]):
        want = int(np.count_nonzero(x > th) + np.count_nonzero(y > th)) / n
        if not _close(got, want):
            problems.append(_mismatch(f"N({th})", got, want))
    if res["n_samples"] != n:
        problems.append(_mismatch("n_samples", res["n_samples"], n))

    k = max(1, n // 100)
    top = np.sort(np.abs(paths[:, ti]))[::-1][: k + 1]
    alpha = 1.0 / (float(np.mean(np.log(top[:k]))) - math.log(top[k]))
    if not _close(res["hill"].get("alpha", math.nan), alpha):
        problems.append(_mismatch("hill alpha", res["hill"].get("alpha"), alpha))
    return problems


def _replay_problems(res: dict, certs) -> list[str]:
    cert = certs.Certificate.from_json_dict(res)
    replay = certs.replay_certificate(cert)
    problems = []
    if not replay.valid:
        problems.append(f"replay is invalid (failed step {replay.failed_step})")
    if replay.constant != cert.constant:
        problems.append(_mismatch("replayed constant", cert.constant, replay.constant))
    if replay.to_json_dict() != cert.to_json_dict():
        problems.append("replay differs from the recorded certificate")
    return problems


def check_certificate(path: str, code: int, *, p: float, mode: str, certs) -> list[str]:
    if code != 0:
        return [f"certificate exited {code}"]
    res = _results(path)
    problems = _replay_problems(res, certs)
    anchor = ANCHORS.get((p, mode))
    if anchor is not None and res["constant"] != anchor:
        problems.append(_mismatch(f"anchor p={p} mode={mode}", res["constant"], anchor))
    if "order_condition" in res and not res["order_condition"]["within"]:
        problems.append("order condition not met")
    return problems


def check_optimize(path: str, code: int, *, p: float, certs) -> list[str]:
    """Replay the optimized certificate; with exact-k it must not be worse
    than the sharp order-tied chain max(16*K^(p+1), 128)."""
    if code != 0:
        return [f"optimize exited {code}"]
    res = _results(path)
    problems = _replay_problems(res, certs)
    if "exact-k" in res["knobs"]:
        k = 2.0 / (1.0 - 1.0 / (p + 1.0)) - 1.0
        tied = max(16.0 * k ** (p + 1.0), 128.0)
        if res["constant"] > tied * (1.0 + 1e-12):
            problems.append(_mismatch("optimized constant above the tied chain",
                                      res["constant"], tied))
    return problems


def _number(v) -> float:
    return math.inf if v == "inf" else float(v)


def check_moments(path: str, code: int, *, gamma: float, sigma: float, tau: float,
                  s: float, t: float, u: float) -> list[str]:
    """Thresholds, two-sided variance scale and Hankel closed form, for the
    eta = theta = 0 points the sweep evaluates."""
    if code != 0:
        return [f"moments exited {code}"]
    res = _results(path)
    st = sigma * tau
    want = {
        "pmax_certified": math.inf if st == 0 else 1.0 / (240.0 * math.sqrt(st)),
        "pfail_upper": math.inf if st == 0 else 2.0 + 1.0 / math.sqrt(st),
        "scale": (u - t) * (t - s) / (u * (1.0 + s * sigma) + tau - s * gamma),
        "hankel3_closed_form": (1.0 + gamma) * (t + tau) * (1.0 + t * sigma)
        * ((1.0 - st) ** 2) / (1.0 - (2.0 + gamma) * st),
    }
    got = {
        "pmax_certified": _number(res["pmax_certified"]),
        "pfail_upper": _number(res["pfail_upper"]),
        "scale": res["two_sided"]["scale"],
        "hankel3_closed_form": res["hankel3_closed_form"],
    }
    return [_mismatch(k, got[k], w) for k, w in want.items() if not _close(got[k], w)]


def check_hankel(path: str, code: int, *, m) -> list[str]:
    if code != 0:
        return [f"hankel exited {code}"]
    res = _results(path)
    m0, m1, m2, m3, m4 = m
    det = (m0 * (m2 * m4 - m3 * m3) - m1 * (m1 * m4 - m3 * m2)
           + m2 * (m1 * m3 - m2 * m2))
    if not _close(res["determinant"], det):
        return [_mismatch("determinant", res["determinant"], det)]
    return []

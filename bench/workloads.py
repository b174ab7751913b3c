"""The benchmark workloads: the CLI invocations of one pass, and their oracles.

A pass is a closed loop with one client: each invocation of
``qharness.cli.main(argv)`` starts when the previous one has returned, as in
a user's shell pipeline.  The seed only generates the argv -- the ensemble
seed of the Monte Carlo workloads and the invocation order of the analytic
sweep -- so the same seed gives the same inputs.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles

GRID = (0.25, 0.5, 0.75, 1.0)
S, T = 0.5, 1.0
ORDERS = (3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
KNOB_SETS = ("exact-k", "exact-k,rho", "exact-k,exact-margin,rho",
             "exact-k,exact-margin,rho,split")
MOMENT_GAMMAS = (-1.0, 0.0, 0.5, 1.0, 1.5)
MOMENT_SIGMA_TAU = (0.0, 1e-4, 1e-2)
HANKEL_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0)
OPT_CONSTANT_ARGV = ("optimize", "--p", "128", "--knobs", "exact-k,rho")

# --smoke: tiny sizes and a cut-down sweep that still holds both README
# anchors (p=4) and the opt_constant invocation (p=128)
SIZES = {False: {"paths": 1_000_000, "csv_paths": 100_000, "orders": ORDERS,
                 "gammas": MOMENT_GAMMAS, "sigma_tau": MOMENT_SIGMA_TAU},
         True: {"paths": 20_000, "csv_paths": 2_000, "orders": (4, 128),
                "gammas": (-1.0, 1.0), "sigma_tau": (1e-4,)}}

WORKLOADS = ("mc_gamma_fine", "mc_pascal_lattice", "analytic")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the stage it is timed under, its argv, its artifact and oracle."""

    stage: str
    argv: tuple[str, ...]
    out: str
    check: Callable[[str, int], list[str]]


@dataclass(frozen=True)
class Sampler:
    """The ensemble a Monte Carlo workload samples (for the thread-speedup run)."""

    kind: str
    q: float | None
    n_paths: int
    seed: int
    workers: int


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    invocations: tuple[Invocation, ...]
    sampler: Sampler | None = None


def _mc(name: str, seed: int, workdir: str, smoke: bool, *, kind: str, q: float | None,
        workers: int, bins: int, csv: bool) -> Workload:
    size = SIZES[smoke]
    grid = ",".join(repr(g) for g in GRID)
    ens = os.path.join(workdir, "ensemble.qhe")
    process = ["--process", kind] + (["--pascal-q", repr(q)] if q is not None else [])
    common = ["--seed", str(seed)]
    st = ["--s", repr(S), "--t", repr(T)]

    def out(n: str) -> str:
        return os.path.join(workdir, n)

    invs = [
        Invocation("simulate",
                   ("simulate", *process, "--grid", grid, "--paths", str(size["paths"]),
                    "--workers", str(workers), *common, "--out", ens),
                   ens,
                   functools.partial(oracles.check_ensemble, kind=kind, q=q, seed=seed,
                                     grid=GRID, n_paths=size["paths"])),
        Invocation("verify",
                   ("verify", ens, *st, "--bins", str(bins), *common, "--out", out("verify.json")),
                   out("verify.json"),
                   functools.partial(oracles.check_verify, ensemble=ens, s=S, t=T)),
        Invocation("tails",
                   ("tails", ens, *st, *common, "--out", out("tails.json")),
                   out("tails.json"),
                   functools.partial(oracles.check_tails, ensemble=ens, s=S, t=T)),
    ]
    stages = ["simulate", "verify", "tails"]
    if csv:
        invs.append(Invocation(
            "export",
            ("simulate", *process, "--grid", grid, "--paths", str(size["csv_paths"]),
             "--workers", str(workers), "--format", "csv", *common, "--out", out("export.csv")),
            out("export.csv"),
            functools.partial(oracles.check_csv, kind=kind, q=q, grid=GRID,
                              n_paths=size["csv_paths"])))
        stages.append("export")
    sampler = Sampler(kind, q, size["paths"], seed, workers)
    return Workload(name, tuple(stages), tuple(invs), sampler)


def _analytic(seed: int, workdir: str, smoke: bool, certs) -> Workload:
    size = SIZES[smoke]
    common = ("--seed", str(seed))
    invs = []

    def add(stage: str, argv: tuple[str, ...], check) -> None:
        out = os.path.join(workdir, f"{stage}-{len(invs):03d}.json")
        invs.append(Invocation(stage, argv + common + ("--out", out), out, check))

    for p in size["orders"]:
        for mode in ("paper", "exact"):
            for extra in ((), ("--sigma", "1e-06", "--tau", "1e-06")):
                add("certificate", ("certificate", "--p", str(p), "--mode", mode) + extra,
                    functools.partial(oracles.check_certificate, p=float(p), mode=mode,
                                      certs=certs))
        for knobs in KNOB_SETS:
            add("optimize", ("optimize", "--p", str(p), "--knobs", knobs),
                functools.partial(oracles.check_optimize, p=float(p), certs=certs))
    for gamma in size["gammas"]:
        for st in size["sigma_tau"]:
            add("moments", ("moments", "--gamma", repr(gamma), "--sigma", repr(st),
                            "--tau", repr(st), "--s", "1", "--t", "2", "--u", "3"),
                functools.partial(oracles.check_moments, gamma=gamma, sigma=st, tau=st,
                                  s=1.0, t=2.0, u=3.0))
    add("hankel", ("hankel", "--moments", ",".join(repr(m) for m in HANKEL_MOMENTS)),
        functools.partial(oracles.check_hankel, m=HANKEL_MOMENTS))

    random.Random(seed).shuffle(invs)
    return Workload("analytic", ("certificate", "optimize", "moments", "hankel"), tuple(invs))


def build(name: str, seed: int, workdir: str, smoke: bool, certs) -> Workload:
    """The invocations of one pass of workload ``name`` for ``seed``."""
    if name == "mc_gamma_fine":
        return _mc(name, seed, workdir, smoke, kind="gamma", q=None, workers=2, bins=400,
                   csv=False)
    if name == "mc_pascal_lattice":
        return _mc(name, seed, workdir, smoke, kind="pascal", q=0.5, workers=1, bins=40,
                   csv=True)
    if name == "analytic":
        return _analytic(seed, workdir, smoke, certs)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

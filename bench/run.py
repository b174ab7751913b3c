"""Benchmark of the qharness CLI: the Monte Carlo pipeline and the analytic
sweep, timed end to end and per module.

Run from the repository root (stdlib and numpy only; nothing is installed,
the program is imported from ``src/``):

    python3 bench/run.py --workload mc_gamma_fine --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each was chosen):
``mc_gamma_fine``, ``mc_pascal_lattice``, ``analytic``.  Load is one process
driving ``qharness.cli.main(argv)`` in a closed loop with one client; the only
second thread is the sampler's ``--workers 2`` on ``mc_gamma_fine``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
set-up (fresh-interpreter ``import qharness``), pass and per-subcommand wall
times over repeated passes, the pass time over a reference kernel
(``pipeline_norm``, see ``Reference``), and the peak RSS of one child process
running a pass.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracer.py``) plus the tracing
overhead.  Times are medians over the passes of the run.

Every invocation's artifact is checked: by an oracle the first time it is
produced (``oracles.py``) and by its sha256 digest on every repetition, which
must not change.  ``verify`` exiting 1 is a verdict, not a failure.

Output: one ``name: value unit (note)`` line per metric, then as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics declared in BENCHMARK.json for the mode.  Scratch artifacts go to a
temporary directory under ``--workdir`` that is removed at exit; the spans
of the last traced pass are written to ``<workdir>/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

UNITS = {
    # end to end
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_norm": "ref",
    "simulate_s": "s",
    "verify_s": "s",
    "tails_s": "s",
    "export_s": "s",
    "analytic_s": "s",
    "certificate_s": "s",
    "optimize_s": "s",
    "peak_rss_mib": "MiB",
    "failed_share": "ratio",
    "opt_constant": "dimensionless",
    # per layer
    "cli.self_s": "s",
    "simulate.sample_s": "s",
    "simulate.substreams": "count",
    "simulate.thread_speedup": "ratio",
    "simulate.save_s": "s",
    "simulate.load_s": "s",
    "simulate.load_calls": "count",
    "simulate.bytes_read_computed": "B",
    "simulate.csv_s": "s",
    "simulate.csv_bytes": "B",
    "empirics.binning_s": "s",
    "empirics.bins_requested": "count",
    "empirics.bins_returned": "count",
    "empirics.bins_confident": "count",
    "empirics.confident_ratio": "ratio",
    "empirics.regress_s": "s",
    "empirics.tail_s": "s",
    "core.calls": "count",
    "core.busy_s": "s",
    "core.ns_per_call": "ns",
    "moments.calls": "count",
    "moments.busy_s": "s",
    "certificates.make_calls": "count",
    "certificates.make_s": "s",
    "certificates.optimize_s": "s",
    "certificates.optimize_evals": "evals/call",
    "certificates.valid_ratio": "ratio",
    "trace.overhead_s": "s",
}

# The metrics of the last JSON line.  The JSON line must carry the same
# metrics on every workload, so the end-to-end ones that apply to only some
# workloads (per-subcommand times, opt_constant) and failed_share (0 when the
# program is correct; failures are in "failed") are printed as lines only.
# The pass time is gated as pipeline_norm rather than pipeline_s: see Reference.
JSON_END_TO_END = ("setup_s", "pipeline_norm", "peak_rss_mib")
PER_LAYER = tuple(name for name in UNITS if "." in name)

MIN_PASSES = 3
IMPORT_RUNS = {False: 9, True: 2}
SPEEDUP_RUNS = 3
CHILD_TIMEOUT_S = 120

_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qharness; print(time.perf_counter() - t)"
)
_CHILD_CODE = (
    "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import run; "
    "print(json.dumps(run.child_pass(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6] == '1')))"
)


def report_metrics(workload: str, trace: int) -> dict[str, str]:
    """Every metric the report prints for a workload and mode, with its unit."""
    if trace:
        names = PER_LAYER
    else:
        names = ["setup_s", "pipeline_s", "pipeline_norm", "peak_rss_mib", "failed_share"]
        if workload == "analytic":
            names += ["analytic_s", "certificate_s", "optimize_s", "opt_constant"]
        else:
            names += ["simulate_s", "verify_s", "tails_s"]
            if workload == "mc_pascal_lattice":
                names.append("export_s")
    return {n: UNITS[n] for n in names}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import qharness from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qharness" / "__init__.py").is_file():
        raise ProgramMissing(f"no qharness package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qharness
    import qharness.cli

    if Path(qharness.__file__).resolve().parent != (SRC / "qharness").resolve():
        raise ProgramMissing(f"qharness was imported from {qharness.__file__}, not {SRC}")
    return qharness


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc_kib = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if size.endswith("K") and level >= 3:
            llc_kib = max(llc_kib, int(size[:-1]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "llc_mib": llc_kib / 1024,
    }


def sha256(path: str) -> str | None:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError:
        return None
    return h.hexdigest()


@dataclass
class Pass:
    wall: float
    stages: dict[str, float]


class Reference:
    """A fixed kernel timed around each pass, as a gauge of host speed.

    On a shared two-vCPU host the same code runs up to 20-40% slower for tens
    of seconds at a time, so medians of raw pass times drift between runs by
    more than a useful regression bound.  Pass time divided by the mean time
    of this kernel just before and just after the pass cancels much of that
    drift.  The kernel mixes the kinds of work the passes do -- Python-level
    calls that allocate small objects, fresh million-element arrays, masked
    reductions and a sort -- on fixed inputs, so it does the same work on
    every commit.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(1_000_000)
        self.labels = rng.integers(0, 400, self.values.size)

    @staticmethod
    def _call(v: float) -> tuple[float, bool]:
        return v * 0.5 + 1.0, v >= 0.0

    def seconds(self) -> float:
        start = time.perf_counter()
        np.array([self._call(v)[0] for v in self.values[:400_000].tolist()])
        scaled = self.values * 1.5
        for label in range(100):
            float(scaled[self.labels == label].mean())
        np.sort(scaled)
        return time.perf_counter() - start


class Bench:
    """Runs passes of one workload and keeps the correctness tally."""

    def __init__(self, qh, workload: workloads.Workload) -> None:
        self.qh = qh
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self._seen: dict[str, tuple[str, int]] = {}

    def _invoke(self, argv, tracer=None) -> int | None:
        try:
            if tracer is None:
                return self.qh.cli.main(list(argv))
            with tracer.root("cli." + argv[0]):
                return self.qh.cli.main(list(argv))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    def record(self, inv: workloads.Invocation, code: int | None, digest: str | None,
               key: str | None = None) -> None:
        """Check one invocation: its oracle on the first artifact under ``key``
        (default: its output path), digest and exit code on every later one."""
        key = key or inv.out
        self.attempted += 1
        if code is None:
            problems = ["raised an exception"]
        elif digest is None:
            problems = [f"exited {code} without writing {inv.out}"]
        elif key in self._seen:
            problems = [] if self._seen[key] == (digest, code) else [
                f"artifact digest/exit code drifted: {self._seen[key]} -> {(digest, code)}"]
        else:
            try:
                problems = inv.check(inv.out, code)
            except Exception as exc:  # a malformed artifact is a failed check
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            self._seen[key] = (digest, code)
        if problems:
            self.failed += 1
            print(f"bench: FAILED {' '.join(inv.argv)}: {'; '.join(problems)}", file=sys.stderr)

    def run_pass(self, tracer=None) -> Pass:
        """One timed pass over the workload's invocations, then its checks."""
        stages = dict.fromkeys(self.wl.stages, 0.0)
        codes = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for inv in self.wl.invocations:
                t0 = time.perf_counter()
                codes.append(self._invoke(inv.argv, tracer))
                stages[inv.stage] += time.perf_counter() - t0
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        for inv, code in zip(self.wl.invocations, codes):
            self.record(inv, code, sha256(inv.out))
        return Pass(wall, stages)

    # -- end to end ------------------------------------------------------

    @staticmethod
    def import_seconds() -> float:
        """Time of ``import qharness`` in a fresh interpreter."""
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        return float(proc.stdout)

    def peak_rss_mib(self, seed: int, workdir: str, smoke: bool) -> float:
        """Peak RSS of a child process running one pass; its artifacts must
        match this process's."""
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_CODE, str(BENCH_DIR), str(SRC), self.wl.name,
             str(seed), workdir, "1" if smoke else "0"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            self.attempted += 1
            self.failed += 1
            print(f"bench: FAILED peak-RSS child pass: exit {proc.returncode}", file=sys.stderr)
            return 0.0
        child = json.loads(proc.stdout.splitlines()[-1])
        for inv, (code, digest) in zip(self.wl.invocations, child["results"]):
            self.record(inv, code, digest)
        return child["maxrss_kib"] / 1024

    # -- traced ----------------------------------------------------------

    def thread_speedup(self) -> float:
        """Sampling time with 1 worker over that with 2, on the workload's
        ensemble; the CLI must write the same container with either count."""
        s = self.wl.sampler
        sim = self.qh.simulate
        kind = sim.ProcessKind(s.kind, s.q)
        times: dict[int, list[float]] = {1: [], 2: []}
        for _ in range(SPEEDUP_RUNS):
            for workers in (1, 2):
                t0 = time.perf_counter()
                sim.sample_ensemble(kind, workloads.GRID, s.n_paths, s.seed, n_workers=workers)
                times[workers].append(time.perf_counter() - t0)

        first = self.wl.invocations[0]
        out = first.out + ".alt"
        argv = list(first.argv)
        argv[argv.index("--workers") + 1] = str(3 - s.workers)
        argv[argv.index("--out") + 1] = out
        alt = workloads.Invocation(first.stage, tuple(argv), out, first.check)
        self.record(alt, self._invoke(alt.argv), sha256(out), key=first.out)
        return statistics.median(times[1]) / statistics.median(times[2])


def child_pass(workload: str, seed: int, workdir: str, smoke: bool) -> dict:
    """One untraced pass in a fresh interpreter, for the peak-RSS figure."""
    import resource

    qh = import_program()
    wl = workloads.build(workload, seed, workdir, smoke, qh.certificates)
    results = []
    for inv in wl.invocations:
        code = qh.cli.main(list(inv.argv))
        results.append((code, sha256(inv.out)))
    return {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "results": results}


def _spread_note(values, what: str) -> str:
    if len(values) < 2:
        return f"{what}, n={len(values)}"
    return f"median of {len(values)} {what}; min {min(values):.4g}, max {max(values):.4g}"


def measure_end_to_end(bench: Bench, args, workdir: str) -> dict[str, tuple[float, str]]:
    bench.import_seconds()  # untimed: compiles the bytecode
    # the child's pass is the warm-up: it fills the page cache and writes the
    # artifacts every oracle runs on
    rss = bench.peak_rss_mib(args.seed, workdir, args.smoke)
    reference = Reference()

    # import samples are spread over the run, like the passes, so both see
    # the same mix of fast and slow spells of the host
    n_setup = IMPORT_RUNS[args.smoke]
    setup, passes, refs = [], [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < args.seconds or len(passes) < MIN_PASSES:
        if len(setup) < n_setup and len(setup) * args.seconds <= elapsed * n_setup:
            setup.append(bench.import_seconds())
        refs.append(reference.seconds())
        passes.append(bench.run_pass())
    refs.append(reference.seconds())
    setup += [bench.import_seconds() for _ in range(n_setup - len(setup))]

    walls = [p.wall for p in passes]
    norm = [p.wall / ((before + after) / 2) for p, before, after in zip(passes, refs, refs[1:])]
    m = {
        "setup_s": (statistics.median(setup), _spread_note(setup, "fresh interpreters")),
        "pipeline_s": (statistics.median(walls), _spread_note(walls, "passes")),
        "pipeline_norm": (statistics.median(norm),
                          _spread_note(norm, "passes") + ", each over the reference kernel "
                          f"timed around it (median {statistics.median(refs):.4g} s)"),
        "peak_rss_mib": (rss, "one child process running one pass"),
    }
    for stage in bench.wl.stages:
        name = f"{stage}_s"
        if name in UNITS:
            vals = [p.stages[stage] for p in passes]
            m[name] = (statistics.median(vals), _spread_note(vals, "passes"))
    if bench.wl.name == "analytic":
        m["analytic_s"] = m["pipeline_s"]
        opt = next(i for i in bench.wl.invocations
                   if i.argv[:len(workloads.OPT_CONSTANT_ARGV)] == workloads.OPT_CONSTANT_ARGV)
        with open(opt.out, encoding="utf-8") as fh:
            m["opt_constant"] = (json.load(fh)["results"]["constant"],
                                 " ".join(workloads.OPT_CONSTANT_ARGV))
    m["failed_share"] = (bench.failed / bench.attempted,
                         f"{bench.failed} of {bench.attempted} invocations")
    return m


def measure_traced(bench: Bench, args, trace_path: Path) -> dict[str, tuple[float, str]]:
    from tracer import Tracer

    bench.run_pass()  # warm-up, untraced; runs every oracle
    speedup = bench.thread_speedup() if bench.wl.sampler else 0.0
    untraced, traced, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_PASSES:
        untraced.append(bench.run_pass().wall)
        tracer = Tracer(bench.qh)
        traced.append(bench.run_pass(tracer).wall)
        layers.append(tracer.layer_metrics())

    note = f"median of {len(layers)} traced passes"
    m = {k: (statistics.median([lm[k] for lm in layers]), note) for k in layers[0]}
    m["simulate.thread_speedup"] = (
        speedup, f"median of {SPEEDUP_RUNS} samplings per worker count" if bench.wl.sampler
        else "no sampling in this workload")
    m["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced),
        f"median traced pass {statistics.median(traced):.4g} s minus untraced {statistics.median(untraced):.4g} s")

    trace_path.write_text(json.dumps({
        "workload": bench.wl.name,
        "seed": args.seed,
        "environment": environment(),
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "aggregated_child_ns"],
        "spans": tracer.spans,
        "core": {"calls": tracer.core_calls, "busy_ns": tracer.core_ns},
        "counters": dict(tracer.counters),
    }))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and a cut-down sweep")
    ap.add_argument("--workdir", default=str(ROOT / ".bench_work"),
                    help="parent of the run's temporary directory and the trace output")
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2**64):
        ap.error("--seed must be an unsigned 64-bit integer")

    try:
        qh = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    env = environment()
    os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.workdir, prefix="run-") as tmp:
        bench = Bench(qh, workloads.build(args.workload, args.seed, tmp, args.smoke,
                                          qh.certificates))
        if args.trace:
            trace_path = Path(args.workdir) / f"trace-{args.workload}.json"
            measured = measure_traced(bench, args, trace_path)
        else:
            measured = measure_end_to_end(bench, args, tmp)

    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"cpu={env['cpu']} llc={env['llc_mib']:g} MiB")
    if bench.wl.sampler:
        matrix_mb = bench.wl.sampler.n_paths * len(workloads.GRID) * 8 / 1e6
        fits = env["llc_mib"] and matrix_mb * 1e6 < 4 * env["llc_mib"] * 2**20
        print(f"note: the path matrix is {matrix_mb:g} MB (computed from array sizes)"
              + (f", below 4x the {env['llc_mib']:g} MiB last-level cache, so no memory "
                 "bandwidth figure is claimed" if fits else "; no bandwidth figure is claimed"))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client, {len(bench.wl.invocations)} invocations per pass")
    for name, unit in report_metrics(args.workload, args.trace).items():
        value, note = measured[name]
        print(f"{name}: {value!r} {unit} ({note})")

    names = PER_LAYER if args.trace else JSON_END_TO_END
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": measured[n][0], "unit": UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

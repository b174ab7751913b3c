"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of ``simulate``, ``empirics``,
``moments`` and ``certificates`` by replacing the module attributes, so
every call made through the module is caught: calls from ``qharness.cli``
(which uses ``simulate.load_ensemble``, ``certs.make_certificate``, ...) and
calls from one public function to another of the same module, such as
``optimize_constant`` -> ``make_certificate``.  Names a module imported by
value (``from .simulate import known_params`` in ``empirics``) are not
caught; their time is the caller's self time.

Each caught call becomes a span: id, parent id, name, start and end in
nanoseconds.  The ``core`` evaluators run about a million times per
``verify``, so they are aggregated into a call count and summed time instead;
the summed time of a core call is charged to the innermost open span, so
self times stay exact.  Spans are kept in memory and written out by the
caller when the run ends.

Counters are taken at the same boundaries, from the arguments and results of
the wrapped calls (bins requested and returned, substreams sampled, bytes of
the arrays loaded, certificates found valid).

The tracer is single-threaded: wrapped functions must be called from the
thread that opened the root span.  No public function of the traced modules
runs on a sampler worker thread.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN_MODULES = ("simulate", "empirics", "moments", "certificates")
AGGREGATED_MODULE = "core"

_REGRESS = ("empirical_covariance", "conditional_mean_slope", "fit_quadratic")
_TAIL = ("tail_curve", "hill_tail_index")


def _public_functions(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj


class Tracer:
    """Records spans and counters while installed on the qharness modules."""

    def __init__(self, qharness_pkg) -> None:
        self._pkg = qharness_pkg
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._open: list[list] = []  # [id, parent, name, start_ns, aggregated_child_ns]
        self._next_id = 1
        self.core_calls = 0
        self.core_ns = 0
        self._in_core = False
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else 0
        frame = [self._next_id, parent, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, frame[4]))

    @contextmanager
    def root(self, name: str):
        """Span around one CLI invocation; its self time is the cli layer's."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, qualname: str, fn, hook):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _aggregated_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_core:  # nested core call: timed by the outer one
                return fn(*args, **kwargs)
            self._in_core = True
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._in_core = False
                self.core_calls += 1
                self.core_ns += elapsed
                if self._open:
                    self._open[-1][4] += elapsed

        return wrapper

    def _hooks(self) -> dict:
        c = self.counters
        block = self._pkg.simulate.BLOCK_PATHS

        def sampled(args, ens):
            c["simulate.substreams"] += -(-ens.n_paths // block) * ens.n_times

        def loaded(args, ens):
            c["simulate.bytes_read_computed"] += ens.grid.nbytes + ens.paths.nbytes

        def exported(args, _):
            c["simulate.csv_bytes"] += os.path.getsize(args["path"])

        def binned(args, b):
            c["empirics.bins_requested"] += args["n_bins"]
            c["empirics.bins_returned"] += b.n_bins
            c["empirics.bins_confident"] += int(b.confident.sum())

        def made(args, cert):
            c["certificates.valid"] += bool(cert.valid)

        return {
            "simulate.sample_ensemble": sampled,
            "simulate.load_ensemble": loaded,
            "simulate.ensemble_to_csv": exported,
            "empirics.estimate_conditional": binned,
            "certificates.make_certificate": made,
        }

    def install(self) -> None:
        """Replace the public functions of the traced modules with wrappers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for mod_name in SPAN_MODULES:
            module = getattr(self._pkg, mod_name)
            for name, fn in _public_functions(module):
                qualname = f"{mod_name}.{name}"
                self._saved.append((module, name, fn))
                setattr(module, name, self._span_wrapper(qualname, fn, hooks.get(qualname)))
        module = getattr(self._pkg, AGGREGATED_MODULE)
        for name, fn in _public_functions(module):
            self._saved.append((module, name, fn))
            setattr(module, name, self._aggregated_wrapper(fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times, self time and counts over the recorded spans.

        A layer's busy time sums its outermost spans (spans whose parent is
        in another layer), so nested calls are not counted twice.
        """
        name_of = {sid: name for sid, _, name, _, _, _ in self.spans}
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent:
                child_ns[parent] += t1 - t0

        by_name: defaultdict[str, int] = defaultdict(int)
        outer_ns: defaultdict[str, int] = defaultdict(int)
        outer_calls: Counter = Counter()
        cli_self_ns = 0
        make_in_optimize = 0
        calls: Counter = Counter()
        for sid, parent, name, t0, t1, agg in self.spans:
            d = t1 - t0
            layer = name.partition(".")[0]
            parent_name = name_of.get(parent, "")
            calls[name] += 1
            by_name[name] += d
            if layer == "cli":
                cli_self_ns += d - child_ns[sid] - agg
            elif parent_name.partition(".")[0] != layer:
                outer_ns[layer] += d
                outer_calls[layer] += 1
            if name == "certificates.make_certificate" and parent_name == "certificates.optimize_constant":
                make_in_optimize += 1

        def secs(*names: str, mod: str) -> float:
            return sum(by_name[f"{mod}.{n}"] for n in names) / 1e9

        c = self.counters
        make_calls = calls["certificates.make_certificate"]
        optimize_calls = calls["certificates.optimize_constant"]
        requested = c["empirics.bins_requested"]
        return {
            "cli.self_s": cli_self_ns / 1e9,
            "simulate.sample_s": secs("sample_ensemble", mod="simulate"),
            "simulate.substreams": c["simulate.substreams"],
            "simulate.save_s": secs("save_ensemble", mod="simulate"),
            "simulate.load_s": secs("load_ensemble", mod="simulate"),
            "simulate.load_calls": calls["simulate.load_ensemble"],
            "simulate.bytes_read_computed": c["simulate.bytes_read_computed"],
            "simulate.csv_s": secs("ensemble_to_csv", mod="simulate"),
            "simulate.csv_bytes": c["simulate.csv_bytes"],
            "empirics.binning_s": secs("estimate_conditional", mod="empirics"),
            "empirics.bins_requested": requested,
            "empirics.bins_returned": c["empirics.bins_returned"],
            "empirics.bins_confident": c["empirics.bins_confident"],
            "empirics.confident_ratio": c["empirics.bins_confident"] / requested if requested else 0.0,
            "empirics.regress_s": secs(*_REGRESS, mod="empirics"),
            "empirics.tail_s": secs(*_TAIL, mod="empirics"),
            "core.calls": self.core_calls,
            "core.busy_s": self.core_ns / 1e9,
            "core.ns_per_call": self.core_ns / self.core_calls if self.core_calls else 0.0,
            "moments.calls": outer_calls["moments"],
            "moments.busy_s": outer_ns["moments"] / 1e9,
            "certificates.make_calls": make_calls,
            "certificates.make_s": secs("make_certificate", mod="certificates"),
            "certificates.optimize_s": secs("optimize_constant", mod="certificates"),
            "certificates.optimize_evals": make_in_optimize / optimize_calls if optimize_calls else 0.0,
            "certificates.valid_ratio": c["certificates.valid"] / make_calls if make_calls else 0.0,
        }

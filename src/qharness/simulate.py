"""Seeded Monte Carlo ensembles of the classical sigma*tau = 0 harnesses.

Each kind is one record of ``core.PROCESS_KINDS`` (Wiener, centered Poisson,
gamma and Pascal): exact independent increments, standardized so that
E(X_t) = 0 and E(X_s X_t) = min(s, t) hold exactly in law.  Adding a kind
means one more record plus its tests; nothing here changes.  Only these
sigma*tau = 0 processes are simulated; verification for sigma*tau > 0 is
certificate/formula based.

Randomness is counter-based: each (path block, grid step) pair owns a Philox
substream keyed by (seed, block << 32 | step) with counter 0, so regenerating
an ensemble is bit-identical regardless of how many worker threads assemble
it.  ``sample_ensemble`` runs W workers on a pool of W threads; worker w fills
blocks w, w+W, ... and re-keys one Philox per substream instead of building a
new one, which sets the same state, so the stream layout is unchanged.

``load_ensemble`` reads the container in blocks of rows through one buffer
and can keep only some grid columns, as ``verify`` and ``tails`` do.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .core import KINDS, PROCESS_KINDS, HarnessParams, KindRecord, kind_record, pascal_theta

__all__ = [
    "BLOCK_PATHS",
    "ProcessKind",
    "Ensemble",
    "known_params",
    "pascal_theta",
    "sample_ensemble",
    "save_ensemble",
    "Header",
    "read_header",
    "load_ensemble",
    "ensemble_to_csv",
]

# Paths per substream block; part of the stream layout (changing it changes
# the sampled ensembles).
BLOCK_PATHS = 4096

# rows per block when reading a container: each block passes through one
# reused buffer of READ_ROWS x n_times values
READ_ROWS = 8192

_MAGIC = b"QHE1"
_HEADER = struct.Struct("<4sBxxxdQQQ")


def _check_grid(grid) -> np.ndarray:
    """The grid as a float64 array of finite, positive, strictly ascending
    times (the one grid check: sampler, ensembles and containers)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(grid)) or not np.all(grid > 0) or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be finite, positive and strictly ascending")
    return grid


def _time_index(grid: np.ndarray, t: float) -> int:
    idx = np.nonzero(np.isclose(grid, t, rtol=1e-12, atol=1e-12))[0]
    if idx.size != 1:
        raise ValueError(f"time {t} is not on the grid {grid.tolist()}")
    return int(idx[0])


@dataclass(frozen=True)
class ProcessKind:
    """One of the simulated process kinds, with its parameter q if its record takes one."""

    name: str
    q: float | None = None

    def __post_init__(self) -> None:
        if kind_record(self.name).q_default is not None:
            if self.q is None or not (0.0 < self.q < 1.0):
                raise ValueError(f"{self.name} needs a success probability in (0,1), got {self.q}")
        elif self.q is not None:
            raise ValueError(f"{self.name} takes no extra parameter")

    @property
    def record(self) -> KindRecord:
        return kind_record(self.name)


def known_params(kind: ProcessKind) -> HarnessParams:
    """The (eta, theta, sigma, tau, gamma) for which the closed-form
    conditional moments match the process exactly (from the kind's record)."""
    return kind.record.params(kind.q)


@dataclass(frozen=True)
class Ensemble:
    """Sample paths on a time grid: paths[i, j] = X_{grid[j]} of path i."""

    kind: ProcessKind
    grid: np.ndarray
    paths: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        # frozen: store the validated float64 grid and paths in place of what was given
        object.__setattr__(self, "grid", _check_grid(self.grid))
        object.__setattr__(self, "paths", np.asarray(self.paths, dtype=np.float64))
        if self.paths.ndim != 2 or self.paths.shape[1] != self.grid.size:
            raise ValueError("paths must be n_paths x n_times")
        if not np.all(np.isfinite(self.paths)):
            raise ValueError("path values must be finite")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_times(self) -> int:
        return self.grid.size

    def time_index(self, t: float) -> int:
        return _time_index(self.grid, t)


class _Substreams:
    """One Philox and its Generator, re-keyed for each (block, step)
    substream into the state ``Philox(key=[seed, block << 32 | step])``
    starts in: that key, counter 0 and an empty output buffer."""

    def __init__(self, seed: int) -> None:
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._bits = Philox(key=self._key)
        self._gen = Generator(self._bits)
        zeros = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": zeros, "key": self._key},
                       "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __call__(self, block: int, step: int) -> Generator:
        self._key[1] = (block << 32) | step
        self._bits.state = self._state
        return self._gen


def sample_ensemble(
    kind: ProcessKind,
    grid,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
) -> Ensemble:
    """Sample n_paths independent trajectories on the grid.

    Deterministic per (kind, grid, n_paths, seed): the worker count only
    distributes blocks, it never changes the streams.
    """
    grid = _check_grid(grid)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")

    dts = np.diff(grid, prepend=0.0)
    out = np.empty((n_paths, grid.size), dtype=np.float64)
    n_blocks = (n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS
    n_workers = min(n_workers, n_blocks)
    # one draw per distinct step, made before the blocks are handed out, so
    # a kind's per-step precomputation (a pascal table) runs once per call
    steps = dts.tolist()
    samplers = {dt: kind.record.sampler(dt, kind.q) for dt in set(steps)}
    draws = [samplers[dt] for dt in steps]
    mu, scale = kind.record.centring(kind.q)

    def work(first: int) -> None:
        """Fill blocks first, first + n_workers, ... with one re-keyed Philox."""
        substream = _Substreams(seed)
        for block in range(first, n_blocks, n_workers):
            lo = block * BLOCK_PATHS
            hi = min(lo + BLOCK_PATHS, n_paths)
            acc = np.zeros(hi - lo)
            for step, draw in enumerate(draws):
                # accumulate the raw draws and centre once per column, so equal
                # lattice counts give bit-equal path values (exact lattice)
                acc += draw(substream(block, step), hi - lo)
                out[lo:hi, step] = (acc - grid[step] * mu) * scale

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(work, range(n_workers)))

    return Ensemble(kind=kind, grid=grid, paths=out, seed=seed)


def save_ensemble(e: Ensemble, path) -> None:
    """Write the little-endian container: magic, kind code (its table index),
    q (0 when unused), seed, shape, grid and the row-major float64 paths."""
    header = _HEADER.pack(
        _MAGIC,
        KINDS.index(e.kind.name),
        e.kind.q if e.kind.q is not None else 0.0,
        e.seed,
        e.n_paths,
        e.n_times,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(e.grid, dtype="<f8").tobytes())
        # a view of the path matrix, not a tobytes() copy of it
        fh.write(memoryview(np.ascontiguousarray(e.paths, dtype="<f8")))


class Header(NamedTuple):
    """A container's header and grid: its kind, seed, path count and grid."""

    kind: ProcessKind
    seed: int
    n_paths: int
    grid: np.ndarray

    def time_index(self, t: float) -> int:
        return _time_index(self.grid, t)


def _read_header(fh, path) -> Header:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, code, q, seed, n_paths, n_times = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not an ensemble container (bad magic {magic!r})")
    if code >= len(PROCESS_KINDS):
        raise ValueError(f"{path}: unknown kind code {code}")
    record = PROCESS_KINDS[code]
    kind = ProcessKind(record.name, None if record.q_default is None else q)
    need = _HEADER.size + 8 * n_times * (n_paths + 1)
    size = os.fstat(fh.fileno()).st_size
    if size < need:
        raise ValueError(f"{path}: truncated container: {size} bytes, header needs {need}")
    grid = _check_grid(np.frombuffer(fh.read(8 * n_times), dtype="<f8"))
    return Header(kind, seed, n_paths, grid)


def read_header(path) -> Header:
    """Read a container's header and grid; a file shorter than the header's
    shape, or one with a bad magic, kind code or grid, is a ValueError."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_ensemble(path, times=None) -> Ensemble:
    """Read a container, keeping the grid columns at ``times`` (all of them
    when None; the times must be ascending and each on the grid).

    The rows pass through one reused buffer of READ_ROWS rows, so only the
    kept columns are held in full.
    """
    with open(path, "rb") as fh:
        head = _read_header(fh, path)
        n, width = head.n_paths, head.grid.size
        cols = (np.arange(width) if times is None
                else np.array([head.time_index(float(t)) for t in times], dtype=np.intp))
        paths = np.empty((n, cols.size), dtype="<f8")
        buf = np.empty((min(READ_ROWS, n), width), dtype="<f8")
        for lo in range(0, n, READ_ROWS):
            rows = buf[: n - lo]
            if fh.readinto(rows) != rows.nbytes:
                raise ValueError(f"{path}: truncated container")
            # mode="clip" writes straight into out, where the default mode
            # would buffer it; cols are valid indices
            np.take(rows, cols, axis=1, out=paths[lo : lo + rows.shape[0]], mode="clip")
    return Ensemble(kind=head.kind, grid=head.grid[cols], paths=paths, seed=head.seed)


def ensemble_to_csv(e: Ensemble, path) -> None:
    """CSV export: path_id, then one column per grid time.

    Written one block of BLOCK_PATHS rows at a time (bounded memory).  Within
    a block each distinct value is formatted once, keyed on its bit pattern
    (so -0.0 and 0.0 keep their own text), into two tables: ",value" and
    ",value\\n" for the last column.  The block's cells are gathered from
    those tables by object-array indexing, next to a path_id column, and the
    block is written as one join: no Python code runs per row or per cell.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"t_{t!r}" for t in e.grid.tolist())
        fh.write(f"path_id,{cols}\n")
        for lo in range(0, e.n_paths, BLOCK_PATHS):
            block = e.paths[lo : lo + BLOCK_PATHS]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            # numpy 1.x gives a flat inverse, 2.x one of the block's shape
            inverse = inverse.reshape(block.shape)
            mid = "," + np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            # distinct value i's cell is table[i] mid-row and table[u + i] last
            table = np.concatenate((mid, mid + "\n"))
            inverse[:, -1] += mid.size
            cells = np.empty((block.shape[0], e.n_times + 1), dtype=object)
            cells[:, 0] = list(map(str, range(lo, lo + block.shape[0])))
            cells[:, 1:] = table[inverse]
            fh.write("".join(cells.ravel().tolist()))

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
it.  One block loop runs W workers, worker 0 on the calling thread and the
others on a pool of W - 1 threads; worker w fills blocks w, w+W, ... in one
reused block buffer and re-keys one Philox per substream instead of building
a new one, which sets the same state, so the stream layout is unchanged; a
block that fails stops the other workers before their next block.  ``sample_ensemble`` copies each finished block
into the path matrix; ``sample_to_container`` writes it straight to its
offset in the container, so no path matrix is ever built.

One reader loop reads a container in blocks of rows through one reused
buffer and copies each kept column straight out of it.  ``load_ensemble``
keeps some grid columns (all by default) column-major, so each kept column
is contiguous.  ``read_header`` gives a ``Container``, the handle ``verify``
and ``tails`` read a pair through: ``column`` reads one column in one pass
and ``row_blocks`` streams blocks of (X_s, X_t) in another, so they hold at
most one column of the file at a time.  ``Ensemble`` has the same two
methods over the path matrix, so the kernels read either; on both,
``column`` gives a fresh array that the caller may overwrite.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Event, Lock
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .core import KINDS, PROCESS_KINDS, HarnessParams, KindRecord, kind_record, pascal_theta

__all__ = [
    "BLOCK_PATHS",
    "ProcessKind",
    "Ensemble",
    "known_params",
    "pascal_theta",
    "check_sampling",
    "sample_ensemble",
    "sample_to_container",
    "save_ensemble",
    "ROW_BLOCK",
    "Container",
    "read_header",
    "load_ensemble",
    "ensemble_to_csv",
]

# Paths per substream block; part of the stream layout (changing it changes
# the sampled ensembles).
BLOCK_PATHS = 4096

# rows per block when loading a container: each block passes through one
# reused buffer of READ_ROWS x n_times values
READ_ROWS = 8192
# rows per block of the per-path passes over a pair (``row_blocks``), which
# the checks and the binning stream: 32768 rows keep the slices and the
# per-block temporaries in cache
ROW_BLOCK = 8 * BLOCK_PATHS

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

    def column(self, j: int) -> np.ndarray:
        """Column j of the path matrix as ``Container.column`` gives it: a
        fresh, contiguous float64 copy that the caller owns and may
        overwrite."""
        return self.paths[:, j].copy()

    def row_blocks(self, s_index: int, t_index: int):
        """Views (X_s, X_t) of each block of ROW_BLOCK paths of the two columns."""
        xs, xt = self.paths[:, s_index], self.paths[:, t_index]
        for lo in range(0, self.n_paths, ROW_BLOCK):
            yield xs[lo : lo + ROW_BLOCK], xt[lo : lo + ROW_BLOCK]


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


def check_sampling(grid, n_paths: int, seed: int, n_workers: int) -> np.ndarray:
    """Check the sampler's inputs and return the grid as a float64 array."""
    grid = _check_grid(grid)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    return grid


def _sample_blocks(kind: ProcessKind, grid: np.ndarray, n_paths: int, seed: int,
                   n_workers: int, put: Callable[[int, np.ndarray], None]) -> None:
    """The one block loop: worker w of W fills blocks w, w + W, ... in one
    reused BLOCK_PATHS x n_times buffer and hands each finished block to
    ``put(lo, rows)``, rows being paths lo, lo + 1, ... (on the worker's
    thread, worker 0's being the calling thread; rows is overwritten by the
    worker's next block).  A block whose draw or ``put`` raises stops the
    other workers before their next block, and its error is raised."""
    dts = np.diff(grid, prepend=0.0)
    n_blocks = (n_paths + BLOCK_PATHS - 1) // BLOCK_PATHS
    n_workers = min(n_workers, n_blocks)
    # one draw per distinct step, made before the blocks are handed out, so
    # a kind's per-step precomputation (a pascal table) runs once per call
    steps = dts.tolist()
    samplers = {dt: kind.record.sampler(dt, kind.q) for dt in set(steps)}
    draws = [samplers[dt] for dt in steps]
    mu, scale = kind.record.centring(kind.q)

    failed = Event()

    def work(first: int) -> None:
        """Fill blocks first, first + n_workers, ... with one re-keyed Philox;
        stop before the next block once any worker's block has failed."""
        substream = _Substreams(seed)
        buf = np.empty((min(BLOCK_PATHS, n_paths), grid.size))
        try:
            for block in range(first, n_blocks, n_workers):
                if failed.is_set():
                    return
                lo = block * BLOCK_PATHS
                rows = buf[: n_paths - lo]
                acc = np.zeros(rows.shape[0])
                for step, draw in enumerate(draws):
                    # accumulate the raw draws and centre once per column, so equal
                    # lattice counts give bit-equal path values (exact lattice)
                    acc += draw(substream(block, step), rows.shape[0])
                    rows[:, step] = (acc - grid[step] * mu) * scale
                put(lo, rows)
        except BaseException:
            failed.set()
            raise

    # worker 0 runs on the calling thread and the others on a pool, which
    # starts a thread per task, so one worker starts none; worker 0's error
    # is raised first, then the others' in order
    with ThreadPoolExecutor(max_workers=max(1, n_workers - 1)) as pool:
        others = [pool.submit(work, w) for w in range(1, n_workers)]
        work(0)
        for other in others:
            other.result()


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
    grid = check_sampling(grid, n_paths, seed, n_workers)
    out = np.empty((n_paths, grid.size), dtype=np.float64)

    def put(lo: int, rows: np.ndarray) -> None:
        out[lo : lo + rows.shape[0]] = rows

    _sample_blocks(kind, grid, n_paths, seed, n_workers, put)
    return Ensemble(kind=kind, grid=grid, paths=out, seed=seed)


def _header(kind: ProcessKind, seed: int, n_paths: int, grid: np.ndarray) -> bytes:
    """The container's header and grid: magic, kind code (its table index),
    q (0 when unused), seed, shape, then the grid as little-endian float64."""
    return _HEADER.pack(_MAGIC, KINDS.index(kind.name), kind.q if kind.q is not None else 0.0,
                        seed, n_paths, grid.size) + grid.astype("<f8").tobytes()


def sample_to_container(kind: ProcessKind, grid, n_paths: int, seed: int, path,
                        n_workers: int = 1) -> None:
    """Sample as ``sample_ensemble`` does and write the container that
    ``save_ensemble`` would write of the result, byte for byte, holding only
    each worker's block buffer: the header and grid go first, then every
    finished block to its own offset.  A block with a value that is not
    finite stops the write with the Ensemble's error."""
    grid = check_sampling(grid, n_paths, seed, n_workers)
    head = _header(kind, seed, n_paths, grid)
    lock = Lock()
    with open(path, "wb") as fh:
        fh.write(head)

        def put(lo: int, rows: np.ndarray) -> None:
            if not np.all(np.isfinite(rows)):
                raise ValueError("path values must be finite")
            data = memoryview(np.ascontiguousarray(rows, dtype="<f8"))
            with lock:
                fh.seek(len(head) + 8 * grid.size * lo)
                fh.write(data)

        _sample_blocks(kind, grid, n_paths, seed, n_workers, put)


def save_ensemble(e: Ensemble, path) -> None:
    """Write the little-endian container: the header and grid of
    ``sample_to_container``, then the row-major float64 paths."""
    with open(path, "wb") as fh:
        fh.write(_header(e.kind, e.seed, e.n_paths, e.grid))
        # a view of the path matrix, not a tobytes() copy of it
        fh.write(memoryview(np.ascontiguousarray(e.paths, dtype="<f8")))


@dataclass(eq=False)
class Container:
    """A container on disk, known by its header: its kind, seed, path count
    and grid.  ``column`` and ``row_blocks`` read it as the kernels read an
    ``Ensemble``, each call one pass over the file, counted in ``reads``."""

    kind: ProcessKind
    seed: int
    n_paths: int
    grid: np.ndarray
    path: str | os.PathLike
    reads: int = 0

    @property
    def n_times(self) -> int:
        return self.grid.size

    def time_index(self, t: float) -> int:
        return _time_index(self.grid, t)

    def column(self, j: int) -> np.ndarray:
        """Column j, read as ``load_ensemble`` reads it: a fresh, contiguous,
        finite-checked float64 array that the caller owns and may overwrite."""
        self.reads += 1
        return load_ensemble(self.path, times=(self.grid[j],)).paths[:, 0]

    def row_blocks(self, s_index: int, t_index: int):
        """(X_s, X_t) of each block of ROW_BLOCK paths, as ``Ensemble.row_blocks``
        gives them, finite-checked: copied READ_ROWS rows at a time out of one
        reused read buffer into one reused block, so each pair is overwritten
        by the next.  Every buffer is allocated before the first block is
        yielded."""
        self.reads += 1
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size + 8 * self.n_times)
            pair = np.empty((min(ROW_BLOCK, self.n_paths), 2), dtype=np.float64, order="F")
            finite = np.empty(pair.shape, dtype=bool, order="F")
            for lo, rows in _read_rows(fh, self.path, self.n_paths, self.n_times):
                at = lo % ROW_BLOCK  # READ_ROWS divides ROW_BLOCK
                end = at + rows.shape[0]
                pair[at:end, 0] = rows[:, s_index]
                pair[at:end, 1] = rows[:, t_index]
                if end == pair.shape[0] or lo + rows.shape[0] == self.n_paths:
                    if not np.isfinite(pair[:end], out=finite[:end]).all():
                        raise ValueError("path values must be finite")
                    yield pair[:end, 0], pair[:end, 1]


def _read_header(fh, path) -> Container:
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
    return Container(kind, seed, n_paths, grid, path)


def read_header(path) -> Container:
    """Read a container's header and grid; a file shorter than the header's
    shape, or one with a bad magic, kind code or grid, is a ValueError."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _read_rows(fh, path, n_paths: int, width: int):
    """The one reader loop: the rows from the file's position on, READ_ROWS
    at a time through one reused buffer, as (lo, rows) with rows being paths
    lo, lo + 1, ... (overwritten by the next block)."""
    buf = np.empty((min(READ_ROWS, n_paths), width), dtype="<f8")
    for lo in range(0, n_paths, READ_ROWS):
        rows = buf[: n_paths - lo]
        if fh.readinto(rows) != rows.nbytes:
            raise ValueError(f"{path}: truncated container")
        yield lo, rows


def load_ensemble(path, times=None) -> Ensemble:
    """Read a container, keeping the grid columns at ``times`` (all of them
    when None; the times must be ascending and each on the grid).

    The rows pass through one reused buffer of READ_ROWS rows, from which
    each kept column is copied into place, so only the kept columns are held
    in full, column-major: each column is contiguous.
    """
    with open(path, "rb") as fh:
        head = _read_header(fh, path)
        cols = (range(head.n_times) if times is None
                else [head.time_index(float(t)) for t in times])
        paths = np.empty((head.n_paths, len(cols)), dtype="<f8", order="F")
        for lo, rows in _read_rows(fh, path, head.n_paths, head.n_times):
            for k, c in enumerate(cols):
                paths[lo : lo + rows.shape[0], k] = rows[:, c]
    return Ensemble(kind=head.kind, grid=head.grid[list(cols)], paths=paths, seed=head.seed)


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

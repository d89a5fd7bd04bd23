"""Counter-based random number streams for reproducible parallel Monte Carlo.

Each path owns a Philox stream keyed by (base_seed, path_index); the step index
is carried by the counter because every step consumes a fixed number of
uniforms.  Results are therefore independent of how paths are distributed over
workers.  Gaussian increments come from the inverse normal CDF, so refinement
coupling (summing child increments pairwise) is exact.

A batch reuses one Philox generator: before each path its key, counter and
output buffer are reset to those of a fresh generator keyed by that path, so
no buffered word of one path leaks into the next and the draws equal those
of a generator built per path.  The reset state holds Python lists, not
arrays: numpy's setter reads them about four times faster and sets the same
state.

A batch of increments is stored time-major, as an (n_steps, n_paths, dbar)
buffer, because the runners read one step of every path at a time; callers
see it through the (n_paths, n_steps, dbar) transposed view.

map_columns is the one chunked Monte Carlo driver: every estimator, check and
CLI path scenario reduces the per-path columns it joins in path order, over
one worker or a pool, so no result depends on a chunk size or a worker count.
The chunk follows what a runner stores: STORED_ROW_CHUNK paths where every
row of a path is kept (the plain or transformed states; a coupled pair's
pulled-back rows are a ring), ESTIMATOR_CHUNK where only a ring of rows is.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

__all__ = [
    "path_generator", "normal_increments", "map_columns", "mean_stderr",
]

_U64 = np.uint64
# each word of a Philox key is a uint64
KEY_LIMIT = 2**64
# random() can return exactly 0.0; ndtri(0) = -inf.  Substitute the smallest
# representable draw instead of re-drawing, to keep consumption fixed.
_U_FLOOR = 2.0 ** -54
# Paths drawn per contiguous tile before it is copied into the time-major
# buffer; the tile size does not change any draw.
_FILL_TILE = 256


def path_generator(base_seed: int, path_index: int) -> Generator:
    """Philox generator for one path, independent across path indices."""
    if not (0 <= base_seed < KEY_LIMIT and 0 <= path_index < KEY_LIMIT):
        raise ValueError(
            f"base_seed and path_index must lie in [0, 2^64), got {base_seed} and {path_index}"
        )
    key = np.array([base_seed, path_index], dtype=_U64)
    return Generator(Philox(key=key))


def normal_increments(
    base_seed: int, path_index: int, n_steps: int, dbar: int, h: float
) -> np.ndarray:
    """Gaussian increments dW ~ N(0, h I), shape (n_steps, dbar)."""
    return batch_increments(base_seed, path_index, 1, n_steps, dbar, h)[0]


def batch_increments(
    base_seed: int, path_offset: int, n_paths: int, n_steps: int, dbar: int, h: float
) -> np.ndarray:
    """Increments for paths path_offset..path_offset+n_paths-1, shape
    (n_paths, n_steps, dbar): the transposed view of a time-major
    (n_steps, n_paths, dbar) buffer.  Each path is drawn whole into a tile
    of _FILL_TILE paths, which is then copied into the buffer.  The last
    path index must lie below 2^64, as every path_generator key does."""
    last = path_offset + n_paths - 1
    if n_paths > 0 and not last < KEY_LIMIT:
        raise ValueError(f"path indices must lie in [0, 2^64), got up to {last}")
    gen = path_generator(base_seed, path_offset)
    bitgen = gen.bit_generator
    fresh = bitgen.state  # zero counter, empty buffer
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    out = np.empty((n_steps, n_paths, dbar))
    tile = np.empty((min(_FILL_TILE, n_paths), n_steps, dbar))
    scale = np.sqrt(h)
    for lo in range(0, n_paths, _FILL_TILE):
        part = tile[: min(_FILL_TILE, n_paths - lo)]
        for i in range(len(part)):
            key[1] = path_offset + lo + i
            bitgen.state = fresh
            gen.random(out=part[i])
        np.maximum(part, _U_FLOOR, out=part)
        ndtri(part, out=part)
        part *= scale
        out[:, lo : lo + len(part)] = part.transpose(1, 0, 2)
    return out.transpose(1, 0, 2)


def path_increments(dW, base_seed, path_offset, n_paths, n_steps, dbar, h) -> np.ndarray:
    """A caller's increments, checked to have shape (n_paths, n_steps, dbar),
    or when dW is None the batch_increments of those paths."""
    if dW is None:
        return batch_increments(base_seed, path_offset, n_paths, n_steps, dbar, h)
    if dW.shape != (n_paths, n_steps, dbar):
        raise ValueError(f"dW shape {dW.shape} != {(n_paths, n_steps, dbar)}")
    return dW


# Paths per chunk.  They set memory only: every result reduces the joined
# columns, so no bit depends on them.  Runners that store every row of their
# states (run_coupling_batch, whose two pulled-back histories are rings of
# n0 + 2 rows, and simulate with keep_path=True) take STORED_ROW_CHUNK
# paths; the estimators, which keep only a ring of n0 + 2 rows, take
# ESTIMATOR_CHUNK.
STORED_ROW_CHUNK = 2048
ESTIMATOR_CHUNK = 8192

# fn of map_columns inside a forked pool worker.  The pool initializer sets
# it; under fork it reaches the worker unpickled, which fn needs when it
# holds closures, as transformed models do.
_WORKER = None


def _init_worker(fn):
    global _WORKER
    _WORKER = fn


def _worker_chunk(chunk):
    return _WORKER(*chunk)


def map_columns(n_paths: int, chunk: int, fn, workers: int = 1) -> list:
    """Each per-path column that fn(start, count) returns, as a tuple of
    arrays, over paths 0..n_paths-1 taken in consecutive chunks of `chunk`
    paths, joined in path order.  With workers > 1 and more than one chunk
    the chunks run on a fork pool of min(workers, chunks) processes; the
    chunk list does not depend on the worker count."""
    if n_paths < 1 or chunk < 1:
        raise ValueError("need n_paths >= 1 and chunk >= 1")
    chunks = [(s, min(chunk, n_paths - s)) for s in range(0, n_paths, chunk)]
    workers = min(workers, len(chunks))
    if workers == 1:
        parts = [fn(*c) for c in chunks]
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_init_worker, initargs=(fn,)) as pool:
            parts = pool.map(_worker_chunk, chunks)
    return [np.concatenate(col) for col in zip(*parts)]


def mean_stderr(v) -> tuple:
    """Sample mean of the values v and its standard error; a negative
    rounded variance counts as 0."""
    n = len(v)
    mean = np.sum(v) / n
    return mean, math.sqrt(max(np.sum(v * v) / n - mean**2, 0.0) / n)

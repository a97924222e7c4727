"""Reproducible, shardable random streams.

All stochastic code in the library draws from counter-based Philox
generators keyed by (seed, stream_index). Bulk sampling is chunked with a
fixed chunk size and one stream per chunk, so serial generation and any
parallel dispatch of chunks produce bit-identical results, and a consumer
can process one chunk at a time in constant memory.

`normal_moments` uses that: it folds the chunks of a long stream on one
thread per CPU the process may run on, each drawing whichever chunk is
next, and adds the per-chunk sums in chunk order, so its result is the
serial fold's bit for bit on any number of CPUs.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Iterator

import numpy as np

CHUNK = 8192
# Fewest chunks per thread of a threaded `normal_moments` fold.
THREAD_CHUNKS = 8


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for a (seed, stream) pair: its key is the first two
    64-bit words of SeedSequence([seed, stream]), its counter 0. Passing
    the sequence itself, not the key, spares Philox a default sequence
    drawn from OS entropy and thrown away."""
    seeds = np.random.SeedSequence([int(seed), int(stream)])
    return np.random.Generator(np.random.Philox(seeds))


def normal_chunks(seed: int, n: int, cols: int) -> Iterator[np.ndarray]:
    """Row blocks of (n, cols) standard normals: CHUNK rows each (the last
    one shorter), block k drawn from the stream (seed, k)."""
    for chunk_index, start in enumerate(range(0, n, CHUNK)):
        yield generator(seed, chunk_index).standard_normal((min(CHUNK, n - start), cols))


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def normal_moments(seed: int, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of the (n, cols) standard normals of the
    `normal_chunks` stream, folded chunk by chunk into a column sum s and a
    Gram matrix G = z^T z, both BLAS products, so memory is flat in n.

    The chunks are folded on one thread per CPU the process may run on
    (the caller's thread is one of them), at most one per THREAD_CHUNKS
    chunks, so a stream of fewer than 2 * THREAD_CHUNKS chunks is folded
    on the caller's thread alone. With a few chunks per thread the call
    ends with the last chunk of the slowest CPU, so its time would follow
    the state of every CPU rather than of the caller's, and vary from one
    call to the next. Each
    thread claims the next unclaimed chunk index, draws that chunk into its
    own row block and computes the chunk's column sum and Gram matrix. The
    per-chunk results are added into s and G strictly in chunk order, each
    as soon as the chunks before it are added, so the additions, and with
    them every bit of the result, are those of the serial loop over
    `normal_chunks`, whatever the number of CPUs or the order in which the
    threads finish. A chunk result waiting for its turn is cols + cols^2
    numbers, not the chunk. An exception raised while folding a chunk stops
    the other threads after their current chunk and is raised here once
    they have ended, so no thread outlives the call.

    The covariance is (G - s s^T / n) / (n - 1). This is as exact as a
    triangular-factor fold because the z are unit normals: the entries of
    G, like those of R^T R, carry rounding of order eps * sqrt(n) relative
    to their size, and centring subtracts s s^T / n, which is O(1), from
    entries that are O(n) on the diagonal and O(sqrt(n)) off it. Samples
    of scale sqrt(V) would lose their residual in such a fold, so
    `simulator.empirical_mi` applies the scale after it.
    """
    chunks = -(-n // CHUNK)
    threads = max(1, min(_cpus(), chunks // THREAD_CHUNKS))
    blocks = np.empty((threads, CHUNK, cols))
    total, gram = np.zeros(cols), np.zeros((cols, cols))
    claims = itertools.count()
    pending, lock, errors = {}, threading.Lock(), []
    added = 0

    def fold(block: np.ndarray) -> None:
        nonlocal total, gram, added
        try:
            for k in claims:
                if k >= chunks or errors:
                    return
                z = block[:min(CHUNK, n - k * CHUNK)]
                generator(seed, k).standard_normal(out=z)
                part = np.ones(len(z)) @ z, z.T @ z
                with lock:
                    pending[k] = part
                    while added in pending:
                        s, g = pending.pop(added)
                        total += s
                        gram += g
                        added += 1
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=fold, args=(block,)) for block in blocks[1:]]
    for helper in helpers:
        helper.start()
    fold(blocks[0])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    mean = total / n
    return mean, (gram - np.outer(total, mean)) / (n - 1)


def normal_matrix(seed: int, n: int, cols: int) -> np.ndarray:
    """(n, cols) standard normals: the blocks of `normal_chunks` stacked."""
    out = np.empty((n, cols))
    start = 0
    for block in normal_chunks(seed, n, cols):
        out[start:start + len(block)] = block
        start += len(block)
    return out

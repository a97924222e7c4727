"""Reproducible, shardable random streams.

All stochastic code in the library draws from counter-based Philox
generators keyed by (seed, stream_index). Bulk sampling is chunked with a
fixed chunk size and one stream per chunk, so serial generation and any
parallel dispatch of chunks produce bit-identical results, and a consumer
can process one chunk at a time in constant memory.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

CHUNK = 8192


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for a (seed, stream) pair."""
    key = np.random.SeedSequence([int(seed), int(stream)]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_chunks(seed: int, n: int, cols: int) -> Iterator[np.ndarray]:
    """Row blocks of (n, cols) standard normals: CHUNK rows each (the last
    one shorter), block k drawn from the stream (seed, k)."""
    for chunk_index, start in enumerate(range(0, n, CHUNK)):
        yield generator(seed, chunk_index).standard_normal((min(CHUNK, n - start), cols))


def normal_moments(seed: int, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and covariance of the (n, cols) standard normals of the
    `normal_chunks` stream, folded chunk by chunk into a column sum s and a
    Gram matrix G = z^T z, both BLAS products, so memory is flat in n.

    The covariance is (G - s s^T / n) / (n - 1). This is as exact as a
    triangular-factor fold because the z are unit normals: the entries of
    G, like those of R^T R, carry rounding of order eps * sqrt(n) relative
    to their size, and centring subtracts s s^T / n, which is O(1), from
    entries that are O(n) on the diagonal and O(sqrt(n)) off it. Samples
    of scale sqrt(V) would lose their residual in such a fold, so
    `simulator.empirical_mi` applies the scale after it.
    """
    total, gram = np.zeros(cols), np.zeros((cols, cols))
    for z in normal_chunks(seed, n, cols):
        total += np.ones(len(z)) @ z
        gram += z.T @ z
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

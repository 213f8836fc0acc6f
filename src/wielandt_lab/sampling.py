"""Deterministic seed derivation and Haar-measure sampling helpers.

Sub-seeds are derived with a fixed 64-bit mixing function (splitmix64 over an
FNV-1a tag hash), so component streams are order-independent and batch runs
parallelize without changing results; ``fan_out`` runs such index ranges on
worker processes.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import DimensionMismatch

MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


@functools.lru_cache(maxsize=64)
def _text_key(tag: str) -> int:
    return _splitmix64(_fnv1a(tag))


def mix_seed(seed: int, tag: int | str) -> int:
    """Derive an independent 64-bit sub-seed from ``(seed, tag)``."""
    key = _text_key(tag) if isinstance(tag, str) else _splitmix64(tag & MASK64)
    return _splitmix64((seed & MASK64) ^ key)


def rng_from(seed: int) -> np.random.Generator:
    """PCG64 generator keyed by a (possibly mixed) integer seed."""
    return np.random.default_rng(seed & MASK64)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix with i.i.d. standard complex Gaussian entries."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def qr_positive(a: np.ndarray) -> np.ndarray:
    """Q factor of a thin QR with column phases fixed so R has a positive real
    diagonal.  With a Gaussian input this yields Haar-distributed frames.
    Stacks ``(..., rows, cols)`` are factored matrix by matrix."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0.0, 1.0, d)
    phases = d / np.abs(d)
    return q * phases[..., np.newaxis, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary on C^dim."""
    return qr_positive(complex_gaussian(rng, dim, dim))


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random ``rows x cols`` matrix with orthonormal columns."""
    if rows < cols:
        raise DimensionMismatch(f"isometry needs rows >= cols, got {rows} < {cols}")
    return qr_positive(complex_gaussian(rng, rows, cols))


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Re-project a numerically drifted frame back onto orthonormal columns."""
    return qr_positive(a)


def fan_out(fn, head: tuple, trials: int, workers: int) -> list:
    """Results of ``fn(*head, start, stop)`` over contiguous trial ranges that
    cover [0, trials), in range order: one range per worker, the first run in
    the calling process and the rest on a pool of ``workers - 1`` processes,
    or a single in-process call when workers == 1 or trials < 4 * workers."""
    workers = max(1, int(workers))
    if workers == 1 or trials < 4 * workers:
        return [fn(*head, 0, trials)]
    edges = np.linspace(0, trials, workers + 1, dtype=int).tolist()
    (first, *rest) = zip(edges[:-1], edges[1:])
    with ProcessPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(fn, *head, a, b) for a, b in rest]
        return [fn(*head, *first)] + [f.result() for f in futures]

"""Deterministic seed derivation, generator seeding and Haar-measure draws.

Sub-seeds are derived with a fixed 64-bit mixing function (splitmix64 over an
FNV-1a tag hash), so component streams are order-independent and batch runs
parallelize without changing results.  ``fan_out`` is the one walk over
trial blocks: it cuts an index range into blocks of ``block_size(N)`` trials,
each worker process taking a contiguous share, and returns one result per
block in index order.

Each sampled component draws from ``default_rng(sub_seed)``.  A one-seed
sampler takes its generator from ``rng_from``.  A stacked block of
``block_size(ambient)`` trials hashes its sub-seeds with ``mix_seeds``, and
``rngs_from`` runs numpy's SeedSequence and PCG64 seeding on uint64 arrays and
writes each lane's four state words into one reused Generator's PCG64 struct:
the state ``default_rng`` gives, checked in full against it on the first lane
of every call.

Draws are written once, for stacks: ``lane_draws`` is the one per-lane loop,
lane i drawing its standard normals, then its uniforms, from the i-th next
generator; ``complex_draws`` turns normals into complex Gaussians and
``haar_frames`` into Haar-distributed frames, orthonormalized by
``qr_positive``'s two-pass Gram-Schmidt over the whole stack at once.  A
one-seed draw is a stack of one.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from collections.abc import Iterator

import numpy as np

MASK64 = (1 << 64) - 1

# Trial indices evaluated together as one stack, by ambient dimension N (see
# block_size).  A stacked block pays a fixed numpy call cost (about 0.9 ms for
# a search block, 3 ms for a six-exponent verify block, in CPU time on a shared
# 2 vCPU x86_64 host with BLAS on one thread; medians of five fits, single
# fits spread by half) against about 14 and 51 us per lane at N = 4, so 512
# lanes keep that cost near a tenth of the block.  A verify block scores its
# exponents in groups of block_size(d) // lanes (at least one; d is the size
# of the compressed products), so a small block pays the fixed cost of its
# exponent checks once per group and a long p grid is never one stack larger
# than about one full block at one exponent.  A lane's work grows faster than
# that fixed cost, so larger N gains little from more lanes (128 lanes time as
# 512 at N = 16, 64 lanes are about 5% slower than 512 at N = 32 and 6-12%
# faster at N = 64), while a lane's arrays grow as N^2: one full six-exponent
# verify block of 512 lanes peaks at 18.5 MiB of arrays at (N, n) = (16, 4)
# and 238 MiB at (64, 8), per worker.  So a block holds at most
# LANE_BUDGET / N^2 lanes, between MIN_BLOCK and BLOCK_SIZE, which keeps that
# peak under about 8 MiB up to N = 22 and at 64 lanes beyond.
BLOCK_SIZE = 512
MIN_BLOCK = 64
LANE_BUDGET = BLOCK_SIZE * 8**2

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


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    # Wrapping arithmetic on uint64 arrays; on numpy scalars it would warn.
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix_seeds(seeds, tags) -> np.ndarray:
    """mix_seed lane for lane, as a uint64 array: ``seeds`` (an int or a
    uint64 array) against ``tags`` (strings or integers), broadcast like
    numpy arrays."""
    tags = np.atleast_1d(tags)
    if tags.dtype.kind == "U":
        keys = np.array([_text_key(tag) for tag in tags.tolist()], dtype=np.uint64)
    else:
        keys = _splitmix64_array(tags.astype(np.uint64))
    return _splitmix64_array(np.asarray(seeds & MASK64, dtype=np.uint64) ^ keys)


_MASK32 = np.uint64(0xFFFFFFFF)
_1, _32 = np.uint64(1), np.uint64(32)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hashmix(value: np.ndarray, const: list, mult: int) -> np.ndarray:
    """SeedSequence's hashmix; advances its running constant const[0]."""
    before, const[0] = const[0], const[0] * mult & 0xFFFFFFFF
    value = (value ^ np.uint64(before)) * np.uint64(const[0]) & _MASK32
    return value ^ (value >> np.uint64(16))


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple:
    """(high, low) uint64 words of the 128-bit products a * b, from 32-bit
    halves."""
    a_lo, a_hi, b_lo, b_hi = a & _MASK32, a >> _32, b & _MASK32, b >> _32
    lh, hl, ll = a_lo * b_hi, a_hi * b_lo, a_lo * b_lo
    mid = (ll >> _32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> _32) + (hl >> _32) + (mid >> _32), a * b


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """PCG64(SeedSequence(seed)) for each uint64 seed, as a (lanes, 4)
    uint64 array of (state high, state low, inc high, inc low) words,
    computed step for step as numpy does, as arithmetic on uint64 arrays."""
    const, zero = [0x43B0D7E5], np.zeros_like(seeds)
    words = (seeds & _MASK32, seeds >> _32, zero, zero)
    pool = [_hashmix(word, const, 0x931E8875) for word in words]
    for src, dst in itertools.permutations(range(4), 2):  # src-major, src != dst
        hashed = _hashmix(pool[src], const, 0x931E8875)
        mixed = np.uint64(0xCA01F9DD) * pool[dst] - np.uint64(0x4973F715) * hashed & _MASK32
        pool[dst] = mixed ^ (mixed >> np.uint64(16))
    const = [0x8B51F9DD]
    out = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    s0, s1, s2, s3 = (out[j] | out[j + 1] << _32 for j in (0, 2, 4, 6))
    # inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) * PCG_MULT + inc, mod 2^128
    inc_hi, inc_lo = s2 << _1 | s3 >> np.uint64(63), s3 << _1 | _1
    sum_lo = inc_lo + s1
    sum_hi = inc_hi + s0 + (sum_lo < inc_lo)
    prod_hi, prod_lo = _mul64(sum_lo, _PCG_MULT_LO)
    prod_hi += sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


# Distinct (state high, state low, inc high, inc low) words set through
# numpy's state setter to learn where its PCG64 struct keeps each word.
_PROBE_WORDS = (0x11, 0x22, 0x33, 0x45)


def _state_words(bit_generator) -> tuple:
    """A writable uint64 view of a PCG64's four state words, and the column
    order that maps _pcg64_states' rows onto it.  numpy's pcg64_state starts
    with a pointer to pcg64_random_t: state then inc, each low word first
    where the compiler has a 128-bit integer and high word first where it
    has not; the order is read back from a probe state, not assumed."""
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    view = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)
    hi, lo, inc_hi, inc_lo = _PROBE_WORDS
    bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
    read = view.tolist()
    if sorted(read) != sorted(_PROBE_WORDS):
        raise RuntimeError("numpy's PCG64 state no longer holds four uint64 words")
    return view, [_PROBE_WORDS.index(word) for word in read]


def rngs_from(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """rng_from(seed) for each seed of a uint64 array, in C order: one reused
    Generator set to each seed's state in turn, so draw before advancing.
    Each lane's state is written as _pcg64_states' four words straight into
    the generator's PCG64 struct, leaving its buffered 32-bit half-word as
    it is, so lanes draw only with 64-bit methods (``standard_normal``,
    ``random``); the generator is private to the iterator.  Raises
    RuntimeError unless the first seed's whole state, written so, is
    default_rng's."""
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    if not seeds.size:
        return
    rng = np.random.default_rng(int(seeds[0]))
    expected = rng.bit_generator.state
    view, order = _state_words(rng.bit_generator)
    words = _pcg64_states(seeds)[:, order]
    view[:] = words[0]
    if rng.bit_generator.state != expected:
        raise RuntimeError("vectorized seeding no longer matches numpy's default_rng")
    for row in words:
        view[:] = row
        yield rng


def lane_draws(rngs, lanes: int, shape: tuple, uniforms: int = 0) -> tuple:
    """(lanes, *shape) standard normals and (lanes, `uniforms`) values in
    [0, 1), lane i drawn from the i-th next generator of `rngs`: its normals,
    then its uniforms (no ``random`` call when `uniforms` is 0)."""
    g, u = np.empty((lanes, *shape)), np.empty((lanes, uniforms))
    for normals, row in zip(g, u):
        rng = next(rngs)
        rng.standard_normal(out=normals)
        if uniforms:
            rng.random(out=row)
    return g, u


def complex_draws(g: np.ndarray) -> np.ndarray:
    """(..., 2, r, c) standard normals, real block then imaginary block, as
    (..., r, c) standard complex Gaussians."""
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix with i.i.d. standard complex Gaussian entries: complex_draws of
    one lane."""
    return complex_draws(rng.standard_normal((2, rows, cols)))


def qr_positive(a: np.ndarray) -> np.ndarray:
    """Q factor of the thin QR of each matrix of a stack (..., rows, cols),
    rows >= cols, with R's diagonal positive real.  Classical Gram-Schmidt
    with one reorthogonalization pass, run column by column over the whole
    stack: column j loses its projection on columns 0..j-1 twice, each pass
    two stacked matrix-vector products, and is divided by its norm, the
    diagonal entry of R.  With a Gaussian input this yields Haar-distributed
    frames.  Each matrix gets the same bits at any stack length."""
    q = np.empty_like(a)
    # Q* kept row by row, so each pass takes Q*v without conjugating Q again
    q_adj = np.empty((*a.shape[:-2], a.shape[-1], a.shape[-2]), dtype=a.dtype)
    for j in range(a.shape[-1]):
        v = a[..., j : j + 1]
        for _ in range(2 if j else 0):
            v = v - q[..., :j] @ (q_adj[..., :j, :] @ v)
        v_adj = v.conj().swapaxes(-1, -2)
        norm = np.sqrt((v_adj @ v).real)
        q[..., j : j + 1] = v / norm
        q_adj[..., j : j + 1, :] = v_adj / norm
    return q


def haar_frames(g: np.ndarray) -> np.ndarray:
    """Haar-random (..., rows, cols) frames (orthonormal columns; unitaries
    when square) from (..., 2, rows, cols) standard normals, rows >= cols:
    qr_positive of their complex Gaussians, the whole stack at once."""
    return qr_positive(complex_draws(g))


def block_size(ambient: int) -> int:
    """Trials per stacked block at ambient dimension ``ambient``: BLOCK_SIZE
    up to N = 8, then LANE_BUDGET / N^2, and MIN_BLOCK from N = 23."""
    return max(MIN_BLOCK, min(BLOCK_SIZE, LANE_BUDGET // ambient**2))


def _walk(fn, head: tuple, block: int, indices: range) -> list:
    """``fn(*head, part)`` for each consecutive part of `block` indices."""
    return [fn(*head, indices[lo : lo + block]) for lo in range(0, len(indices), block)]


def fan_out(fn, head: tuple, indices: range, workers: int, ambient: int) -> list:
    """Results of ``fn(*head, block)`` over consecutive blocks of
    ``block_size(ambient)`` trial indices that cover `indices`, in index
    order; the one walk over trial blocks.  `indices` is cut into one
    contiguous range per worker, the first walked in the calling process and
    the rest on a pool of ``workers - 1`` processes, or walked whole in the
    calling process unless every worker gets at least one full block: a
    pool's start-up costs more than a block of stacked work.  The pool module
    is imported only here, as most runs never reach it and its import is a
    large share of a short run's start-up."""
    block = block_size(ambient)
    workers = max(1, int(workers))
    if workers == 1 or len(indices) < block * workers:
        return _walk(fn, head, block, indices)
    from concurrent.futures import ProcessPoolExecutor

    edges = np.linspace(0, len(indices), workers + 1, dtype=int).tolist()
    first, *rest = (indices[a:b] for a, b in zip(edges[:-1], edges[1:]))
    with ProcessPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(_walk, fn, head, block, part) for part in rest]
        return _walk(fn, head, block, first) + [r for f in futures for r in f.result()]

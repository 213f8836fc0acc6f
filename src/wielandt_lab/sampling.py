"""Deterministic seed derivation, generator seeding and Haar-measure draws.

Sub-seeds are derived with a fixed 64-bit mixing function (splitmix64 over an
FNV-1a tag hash), so component streams are order-independent and batch runs
parallelize without changing results.  ``fan_out`` is the one walk over
blocks of indices: each worker takes a contiguous share of an index range
and walks it in parts cut at the multiples of the caller's walk length
(``block_size(N)`` trials for a search, twice that for verify's units), and
the results come back one per part in index order.  The worker processes
form one pool per process, started by a range that gives every worker a
full block or by the second range that could split over as many workers,
and reused by every later range that gives each worker an index; each pool
process takes its ranges through a pipe of its own, and ``close_pool`` ends
them, at exit at the latest.

Each sampled component draws as ``default_rng(sub_seed)`` does.  Trial
blocks hash their sub-seeds with ``mix_seeds``, and ``rngs_from`` makes a
seed array a ``LaneStream``, its seeds, position and words: numpy's
SeedSequence and PCG64 seeding run on arrays and give each lane's four PCG64
state words; where ``_lane_path``'s probe fails, each lane draws from its
own ``default_rng``.  A one-seed sampler is a stream of one lane per
component.
``rng_from`` is a whole generator, for draws not laid out in lanes.

Draws are written once, for stacks: ``lane_draws`` is the one per-lane loop.
It points the process's one generator at each lane's state words in turn
and fills the lane's normals, then its uniforms, straight into the block's
arrays with numpy's C distribution routines, checked once per process with
the seeding and word layout to give ``default_rng``'s bits.
``complex_draws`` turns normals into complex Gaussians and ``haar_frames``
into Haar-distributed frames, orthonormalized by ``qr_positive``'s two-pass
Gram-Schmidt over the whole stack at once.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import pickle

import numpy as np

MASK64 = (1 << 64) - 1

# Trial indices evaluated together as one stack, by ambient dimension N (see
# block_size).  A stacked block pays a fixed numpy call cost (about 0.8-1.1 ms
# for a search block, 5 ms for a six-exponent verify block, in CPU time on a
# shared 2 vCPU x86_64 host with BLAS on one thread; medians of five fits in
# each of two runs, single fits spread by half) against about 14-19 and 76-78
# us per lane at N = 4, so 512 lanes keep that cost near a tenth of the block.
# A verify block scores its exponents in groups of block_size(d) // lanes (at
# least one; d is the size of the compressed products), so a small block pays
# the fixed cost of its exponent checks once per group and a long p grid is
# never one stack larger than about one full block at one exponent.  A lane's
# work grows faster than that fixed cost, so larger N gains little from more
# lanes (128 lanes time as 512 at N = 16, 64 lanes are about 5% slower than
# 512 at N = 32 and 6-12% faster at N = 64), while a lane's arrays grow as
# N^2: one full six-exponent verify block of 512 lanes peaks at 18.5 MiB of
# arrays at (N, n) = (16, 4) and 238 MiB at (64, 8), per worker.  So a block
# holds at most LANE_BUDGET / N^2 lanes, between MIN_BLOCK and BLOCK_SIZE,
# which keeps that peak under about 8 MiB up to N = 22 and at 64 lanes beyond.
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


def _hash_constants(const: int, mult: int, steps: int) -> tuple:
    """SeedSequence's running hash constant before and after each of `steps`
    hashmix steps from `const`, as (steps, 1) uint32 columns: they do not
    depend on the data, so they are computed once."""
    consts = [const]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    column = np.array(consts, dtype=np.uint32)[:, np.newaxis]
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, before, after) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words at the running constants
    `before`, `after`; uint32 arithmetic wraps as SeedSequence's does."""
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


# SeedSequence hashes its four pool words, then mixes hashmix(pool[src])
# into every other word dst, src-major and dst ascending: 12 steps on one
# running constant.  One src's three steps write three distinct words and
# read only pool[src], so they run as one round on a (3, lanes) array.  The
# eight output words are hashed on a second running constant.
_POOL_BEFORE, _POOL_AFTER = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12)
_MIX_ROUNDS = [
    ([dst for dst in range(4) if dst != src], slice(4 + 3 * src, 7 + 3 * src)) for src in range(4)
]
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_DST, _MIX_SRC = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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
    computed step for step as numpy does, as arithmetic on arrays: the
    SeedSequence pool in uint32, then PCG64's 128-bit seeding on pairs of
    uint64 words."""
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = np.stack([seeds.astype(np.uint32), (seeds >> _32).astype(np.uint32), zero, zero])
    pool = _hashmix(words, _POOL_BEFORE[:4], _POOL_AFTER[:4])
    for src, (dsts, steps) in enumerate(_MIX_ROUNDS):
        hashed = _hashmix(pool[src], _POOL_BEFORE[steps], _POOL_AFTER[steps])
        mixed = _MIX_DST * pool[dsts] - _MIX_SRC * hashed
        pool[dsts] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(np.tile(pool, (2, 1)), *_OUT_HASH).astype(np.uint64)
    s0, s1, s2, s3 = out[0::2] | out[1::2] << _32
    # inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) * PCG_MULT + inc, mod 2^128
    inc_hi, inc_lo = s2 << _1 | s3 >> np.uint64(63), s3 << _1 | _1
    sum_lo = inc_lo + s1
    sum_hi = inc_hi + s0 + (sum_lo < inc_lo)
    prod_hi, prod_lo = _mul64(sum_lo, _PCG_MULT_LO)
    prod_hi += sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


# Column orders of _pcg64_states' rows as numpy's pcg64_random_t holds them:
# state then inc, each low half first (with a 128-bit integer type) or high.
_WORD_ORDERS = ((1, 0, 3, 2), (0, 1, 2, 3))


# numpy's documented C distribution routines (numpy/random/c_distributions.pxd),
# exported by its numpy.random._generator extension, each
#   void fill(bitgen_t *bitgen_state, npy_intp cnt, double *out)
_FILL_NAMES = ("random_standard_normal_fill", "random_standard_uniform_fill")
# The seed and draw count of _lane_path's check against Generator.
_PROBE_SEED, _PROBE_DRAWS = 0x5EED, 1000


@functools.cache
def _lane_path() -> tuple | None:
    """The process's one lane generator as (fills, order, generator,
    pointer, own, bitgen), checked once per process.  A Generator seeded
    apart from the probe seed has the state pointer numpy's pcg64_state
    starts with (`pointer`, to its own struct at `own`) set to the probe
    seed's _pcg64_states words in each of _WORD_ORDERS in turn; the first
    order in which numpy's normal and uniform fill routines (ctypes
    functions of a bitgen_t address, a count and an output address) give
    ``default_rng``'s ``standard_normal``, then ``random`` bits is taken,
    which checks the fills, the seeding and the layout at once.  None if no
    order does or the fills cannot be loaded.  The fills call no Python, so
    they keep the GIL (``PyDLL``).  One generator a process: lane draws run
    on one thread, as the lab's do."""
    try:
        lib = ctypes.PyDLL(np.random._generator.__file__)
        fills = tuple(getattr(lib, name) for name in _FILL_NAMES)
    except (OSError, AttributeError):
        return None
    for fill in fills:
        fill.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
        fill.restype = None
    ref = np.random.default_rng(_PROBE_SEED)
    want = np.stack([ref.standard_normal(_PROBE_DRAWS), ref.random(_PROBE_DRAWS)]).tobytes()
    rng = np.random.default_rng(_PROBE_SEED ^ 1)
    bitgen = rng.bit_generator.ctypes.bit_generator
    pointer = ctypes.c_void_p.from_address(rng.bit_generator.ctypes.state_address)
    own, states = pointer.value, _pcg64_states(np.array([_PROBE_SEED], dtype=np.uint64))
    got = np.empty((len(fills), _PROBE_DRAWS))
    for order in _WORD_ORDERS:
        words = np.ascontiguousarray(states[:, order])
        pointer.value = words.ctypes.data
        for fill, row in zip(fills, got):
            fill(bitgen, _PROBE_DRAWS, row.ctypes.data)
        pointer.value = own
        if got.tobytes() == want:
            return fills, order, rng, pointer, own, bitgen
    return None


class LaneStream:
    """Lanes drawn in turn through the process's one generator (see
    _lane_path: one thread at a time), lane i as ``default_rng(seeds[i])``
    draws.  The first draw builds `words`, every lane's four PCG64 state
    words, a 32-byte row a lane in the probe's order; `pos` is the next
    lane.  Where the probe failed, `words` stays None and each lane draws
    from its own ``default_rng``, with the same bits.  A lane's state is its
    four words alone, the buffered 32-bit half-word left as it is."""

    def __init__(self, seeds: np.ndarray):
        self.seeds, self.pos, self.words = seeds, 0, None

    def take(self, lanes: int) -> int:
        """The index of the first of the next `lanes` lanes, which the caller
        then draws; IndexError if fewer are left."""
        start = self.pos
        if start + lanes > self.seeds.size:
            left = self.seeds.size - start
            raise IndexError(f"{lanes} lanes asked of a lane stream with {left} left")
        if lanes and self.words is None and (path := _lane_path()):
            self.words = np.ascontiguousarray(_pcg64_states(self.seeds)[:, path[1]])
        self.pos = start + lanes
        return start


def rngs_from(seeds: np.ndarray) -> LaneStream:
    """The lane stream of a uint64 seed array, read in C order: lane i draws
    as ``default_rng(seed)`` of the i-th seed does."""
    return LaneStream(np.asarray(seeds, dtype=np.uint64).ravel())


def lane_draws(stream: LaneStream, lanes: int, shape: tuple, uniforms: int = 0) -> tuple:
    """(lanes, *shape) standard normals and (lanes, `uniforms`) values in
    [0, 1) from the next `lanes` lanes of `stream`, the one per-lane draw
    loop, on one thread: the process's generator is pointed at each lane's
    row of `words` in turn and fills the lane's normals, then its uniforms
    (none when `uniforms` is 0), straight into the block's arrays through
    numpy's C fill routines, the bits of ``standard_normal(out=)`` then
    ``random(out=)`` without their per-call cost; or, with no `words`,
    through each lane's own ``default_rng``.  The generator then points at
    its own struct again: no pointer into `words` outlives the call."""
    g, u = np.empty((lanes, *shape)), np.empty((lanes, uniforms))
    start = stream.take(lanes)
    if stream.words is None:
        for lane, seed in enumerate(stream.seeds[start : start + lanes].tolist()):
            rng = np.random.default_rng(seed)
            g[lane], u[lane] = rng.standard_normal(shape), rng.random(uniforms)
        return g, u
    (normal_fill, uniform_fill), _, _, pointer, own, bitgen = _lane_path()
    g_at, u_at = g.ctypes.data, u.ctypes.data
    count, u_count = ctypes.c_ssize_t(math.prod(shape)), ctypes.c_ssize_t(uniforms)
    # rows are 32 bytes apart: the strides of a one-row array need not say so
    g_step, u_step, base = g.strides[0], u.strides[0], stream.words.ctypes.data
    try:
        for row in range(base + 32 * start, base + 32 * stream.pos, 32):
            pointer.value = row
            normal_fill(bitgen, count, g_at)
            g_at += g_step
            if uniforms:
                uniform_fill(bitgen, u_count, u_at)
                u_at += u_step
    finally:
        pointer.value = own
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
    """``fn(*head, part)`` for each part of `indices` between consecutive
    multiples of `block`, so a range that starts inside a block walks the
    rest of that block first."""
    start, stop = indices.start, indices.stop
    firsts = range(start - start % block, stop, block) if indices else ()
    return [fn(*head, range(max(lo, start), min(lo + block, stop))) for lo in firsts]


# The shared pool as (workers, its workers - 1 processes, the calling end of
# each one's pipe), or None before fan_out first starts one and after
# close_pool; and the worker count of the last range walked serially though
# it could have split over a pool.
_pool = None
_waiting = None


def close_pool() -> None:
    """Close the shared pool's pipes, which ends its processes, wait for
    them to exit and drop the pool, so the next fan_out decides as a fresh
    process does.  It also runs at exit, after multiprocessing's exit hook
    has ended the (daemonic) processes."""
    global _pool, _waiting
    pool, _pool, _waiting = _pool, None, None
    for end in pool[2] if pool else ():
        end.close()
    for process in pool[1] if pool else ():
        process.join()


atexit.register(close_pool)


def _serve(end, inherited: list) -> None:
    """A pool process: run each ``(fn, args)`` received on pipe end `end`
    and send back ``(True, result)`` or ``(False, exception)``, an error in
    unpickling the request or pickling the result included, until the
    calling end closes; an exception that does not survive pickling goes as
    a RuntimeError naming its type and message.  It first closes the calling
    ends the fork left it (`inherited`), or closing them in the caller would
    not reach it."""
    for other in inherited:
        other.close()
    try:
        while True:
            request = end.recv_bytes()
            try:
                fn, args = pickle.loads(request)
                reply = pickle.dumps((True, fn(*args)))
            except Exception as exc:
                try:
                    reply = pickle.dumps((False, exc))
                    pickle.loads(reply)
                except Exception:
                    reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            end.send_bytes(reply)
    except (EOFError, OSError):  # the calling end is closed
        return


def _pipes(workers: int) -> list:
    """The calling ends of the pipes of the shared pool of ``workers - 1``
    processes, (re)started first when there is none, it has another size or
    a process of it has died (polling reaps a dead one)."""
    global _pool
    if _pool is None or _pool[0] != workers or not all(p.is_alive() for p in _pool[1]):
        import multiprocessing

        close_pool()
        fork, processes, ends = multiprocessing.get_context("fork"), [], []
        for _ in range(workers - 1):
            end, theirs = fork.Pipe()
            ends.append(end)
            # the process gets `ends` as they are at its fork
            processes.append(fork.Process(target=_serve, args=(theirs, ends), daemon=True))
            processes[-1].start()
            theirs.close()
        _pool = workers, processes, ends
    return _pool[2]


def _replies(workers: int) -> list:
    """Each pool process's reply to the range sent down its pipe, in index
    order.  Every reply is read before any is unpickled, so one that fails
    to unpickle raises with no other left in its pipe for the next range.
    Where a process has ended instead, the pool is closed at once, so no
    other reply outlives the call, and the next range that could split over
    `workers` starts a new one; the RuntimeError raised names the process
    and how it ended."""
    global _waiting
    _, processes, ends = _pool
    replies = []
    for process, end in zip(processes, ends):
        try:
            replies.append(end.recv_bytes())
        except (EOFError, OSError) as exc:
            import signal

            close_pool()
            _waiting, code = workers, process.exitcode
            how = (f"exited with code {code}" if code >= 0
                   else f"was killed by signal {-code} ({signal.strsignal(-code)})")
            raise RuntimeError(f"pool process {process.pid} {how} before it replied") from exc
    return [pickle.loads(reply) for reply in replies]


def fan_out(fn, head: tuple, indices: range, workers: int, block: int) -> list:
    """Results of ``fn(*head, part)`` over the parts of `indices` cut at
    the multiples of the walk length `block` (see _walk), in index order;
    the one walk over blocks of indices.  `indices` is cut into one
    contiguous range per worker.  Each range but the first goes down the
    pipe of one process of the shared pool of ``workers - 1`` processes,
    which lives as long as the process; the caller walks the first, then
    receives every process's reply in index order before it re-raises an
    error, its own or a process's (see _replies for a process that ends).
    A range splits whenever every worker gets an index and the pool runs or
    starts: a pool of `workers` starts (or replaces one of another size)
    when every worker gets `block` indices, or on the second range that
    could split over `workers`; the first is walked whole in the calling
    process.  So a run that fans out once starts a pool only when every
    worker gets a full block, and otherwise does not import
    multiprocessing."""
    global _waiting
    workers = max(1, int(workers))
    share = len(indices) // workers
    # A hand-off costs about 0.12-0.17 ms on a 2 vCPU x86_64 host, the time
    # of about 15 search lanes at N = 4, so a smaller share can lose that
    # much.  A verify index is one family's checks of a trial, so a share
    # that cuts a verify block pays only its own families' fixed costs.
    if workers == 1 or share == 0:
        return _walk(fn, head, block, indices)
    if share < block and (_pool is None or _pool[0] != workers) and _waiting != workers:
        _waiting = workers
        return _walk(fn, head, block, indices)
    edges = np.linspace(0, len(indices), workers + 1, dtype=int).tolist()
    first, *rest = (indices[a:b] for a, b in zip(edges[:-1], edges[1:]))
    # pickled before any is sent: a request that fails to pickle raises here,
    # not after a process has been left without one to reply to
    requests = [pickle.dumps((_walk, (fn, head, block, part))) for part in rest]
    ends = _pipes(workers)
    try:
        for end, request in zip(ends, requests):
            end.send_bytes(request)
        results = _walk(fn, head, block, first)
    finally:
        # on an error too, so no share runs into the next call
        replies = _replies(workers)
    for ok, value in replies:
        if not ok:
            raise value
        results += value
    return results

import contextlib
import multiprocessing
from multiprocessing.connection import Connection

import numpy as np
import pytest

from wielandt_lab import maps, sampling, search


def rand_complex(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def rand_herm(seed: int, dim: int) -> np.ndarray:
    g = rand_complex(seed, dim, dim)
    return (g + g.conj().T) / 2


def rand_psd(seed: int, dim: int) -> np.ndarray:
    g = rand_complex(seed, dim, dim)
    h = g @ g.conj().T
    return (h + h.conj().T) / 2


def transpose_map(n: int) -> maps.LinearActionMap:
    """The transpose on n x n matrices: the permutation of row-major vec(T)
    that swaps entries (i, j) and (j, i).  Positive, not 2-positive."""
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    return maps.LinearActionMap(np.eye(n * n, dtype=np.complex128)[swap])


def assert_instance_invariants(inst) -> None:
    """X and Y orthonormal with X*Y = 0, A's spectrum pinned to [m, M] (both
    ends attained within 1e-12 relative) and a map whose input dimension is
    the frames' rank."""
    n = inst.rank
    assert inst.x.shape == inst.y.shape == (inst.ambient, n)
    for frame in (inst.x, inst.y):
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(n)) <= 1e-12 * np.sqrt(n)
    assert np.linalg.norm(inst.x.conj().T @ inst.y) <= 1e-12 * np.sqrt(n)
    w = np.linalg.eigvalsh((inst.a + inst.a.conj().T) / 2)
    scale = max(1.0, abs(inst.m), abs(inst.M))
    assert abs(w[0] - inst.m) <= 1e-12 * scale and abs(w[-1] - inst.M) <= 1e-12 * scale
    assert inst.phi.in_dim == n


def fail_refine_proposals(monkeypatch, seed: int, error: Exception) -> None:
    """Make proposals 2, 4 and 5 (counted from 1) of a refinement seeded
    `seed` fail with `error`.  A ladder lane is told by its row of draws:
    proposal i draws row i - 1 of the refinement's generator."""
    real = search._ladder

    def flagged(cfg, start, state, draws, steps):
        proposals, values, errors = real(cfg, start, state, draws, steps)
        rng = sampling.rng_from(sampling.mix_seed(seed, "refine"))
        rows = rng.standard_normal((5, draws.shape[1]))
        for lane, row in enumerate(draws):
            match = np.flatnonzero((rows == row).all(axis=1))
            if match.size and match[0] + 1 in (2, 4, 5):
                errors[lane] = error
        return proposals, values, errors

    monkeypatch.setattr(search, "_ladder", flagged)


def lapack_qr_positive(a: np.ndarray) -> np.ndarray:
    """Reference Haar QR: LAPACK's thin Q of each matrix, column phases fixed
    so R has a positive real diagonal (a zero diagonal entry keeps its
    column)."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0.0, 1.0, d)
    return q * (d / np.abs(d))[..., np.newaxis, :]


@contextlib.contextmanager
def lapack_frames():
    """Inside the block, sampling.qr_positive is lapack_qr_positive, so the
    samplers draw their frames with the reference QR."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "qr_positive", lapack_qr_positive)
        yield


@pytest.fixture
def tmp_chdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(autouse=True)
def fresh_pool():
    """Close sampling's shared worker pool before and after every test.  Its
    workers keep the code they were forked with, so a pool left by another
    test would run code this test has monkeypatched since; a closed pool
    also resets the start rule.  After the test no child process started
    through multiprocessing is left, so a leak names its test."""
    sampling.close_pool()
    yield
    sampling.close_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session", autouse=True)
def no_process_left():
    """At the end of the session, once the shared pool is closed, no child
    process started through multiprocessing is left: a pool that a test or
    fan_out dropped without closing shows here."""
    yield
    sampling.close_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture
def pool_submits(monkeypatch):
    """Record as (start, stop) every trial range fan_out sends down a pool
    process's pipe."""
    ranges = []
    send = Connection.send

    def recording(self, obj):
        if obj[0] is sampling._walk:
            ranges.append((obj[1][-1].start, obj[1][-1].stop))
        send(self, obj)

    monkeypatch.setattr(Connection, "send", recording)
    return ranges


@pytest.fixture
def pool_ranges(monkeypatch, pool_submits):
    """pool_submits with trial blocks of 4 (sampling.block_size), so every
    worker of a small run gets a full block, which starts the pool at once."""
    monkeypatch.setattr(sampling, "block_size", lambda ambient: 4)
    return pool_submits

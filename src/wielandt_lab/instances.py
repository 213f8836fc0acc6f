"""Test-instance construction: operators with prescribed spectral bounds,
isometry pairs with orthogonal ranges, the closed-form equality case, and the
combined bundle used by every inequality check.

Every witness the lab reports is the identity-map instance (C, [I;0], [0;I])
of a 2d x 2d matrix C, laid out by ``compression_instance`` alone.

Sampled instances are drawn once, for stacks: ``operator_stack`` draws
operators and ``draw_instances`` whole bundles from a lane stream
(``sampling.rngs_from``), one lane per trial and component, the form the
stacked trial blocks of ``verify`` and ``search`` use, each lane drawn by
``lane_draws``.  The one-seed sampler ``gen_instance`` is a stack of one: a
stream of one lane per component, seeded as a block seeds that trial, so a
lane of a block and ``gen_instance`` at its seed give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds
from .maps import IdentityMap, PositiveMap, StinespringMap, check_dims, map_from_json, map_to_json
from .matcore import from_eig, matrix_from_json, matrix_to_json
from .sampling import MASK64, haar_frames, lane_draws, mix_seeds, rngs_from

# gen_instance's sub-seed tags, one generator per component, in draw order.
TAG_OPERATOR = "operator"
TAG_ISOMETRIES = "isometries"
TAG_MAP = "map"
INSTANCE_TAGS = (TAG_OPERATOR, TAG_ISOMETRIES, TAG_MAP)


@dataclass(eq=False)
class Instance:
    """One test case: A with spectral bounds [m, M], isometries X, Y with
    X*Y = 0 sharing rank n, and a unital map with input dimension n."""

    a: np.ndarray
    m: float
    M: float
    x: np.ndarray
    y: np.ndarray
    phi: PositiveMap
    seed: int = 0

    @property
    def ambient(self) -> int:
        return self.a.shape[0]

    @property
    def rank(self) -> int:
        return self.x.shape[1]


def check_bounds(m: float, M: float, strict: bool = False) -> tuple[float, float]:
    """(m, M) as floats; raises InvalidBounds unless both are finite and
    0 < m <= M (m < M when `strict`)."""
    m = float(m)
    M = float(M)
    if not (math.isfinite(m) and math.isfinite(M)) or m <= 0.0 or M < m:
        raise InvalidBounds(f"need finite 0 < m <= M, got m={m!r}, M={M!r}")
    if strict and M == m:
        raise InvalidBounds(f"need m < M strictly, got m = M = {m!r}")
    return m, M


def operator_stack(rngs, lanes: int, ambient: int, m: float, M: float) -> np.ndarray:
    """Random Hermitian A = U diag(lam) U* for `lanes` generators of `rngs`:
    each draws the Gaussians of a Haar U, then eigenvalues lam uniform in
    [m, M], the extreme ones pinned to m and M exactly so the bounds are
    attained.  The uniforms are drawn as ``random`` values in [0, 1) and
    mapped to m + (M - m) u for the whole block at once, the arithmetic of
    ``Generator.uniform``, so they have its bits."""
    g, lam = lane_draws(rngs, lanes, (2, ambient, ambient), ambient)
    u = haar_frames(g)
    lam = m + (M - m) * lam
    lam.sort(axis=-1)
    lam[:, 0] = m
    lam[:, -1] = M
    return from_eig(lam, u)


def draw_instances(
    rngs, lanes: int, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """(A, X, Y, W) of gen_instance for `lanes` generators of `rngs` per
    component: every lane's operator generator, then every lane's isometries
    generator, then every lane's map generator (the order of INSTANCE_TAGS).
    W is the Stinespring isometry, not yet checked (``maps.flag_isometry``)."""
    a = operator_stack(rngs, lanes, ambient, m, M)
    xy = haar_frames(lane_draws(rngs, lanes, (2, ambient, ambient))[0])
    w = haar_frames(lane_draws(rngs, lanes, (2, rank * ancilla, out_dim))[0])
    return a, xy[..., :rank], xy[..., rank : 2 * rank], w


def instance_seeds(seeds) -> np.ndarray:
    """(3, B) sub-seeds of the generators draw_instances takes for the
    instance seeds `seeds`: row i holds every lane's INSTANCE_TAGS[i] seed."""
    return mix_seeds(np.asarray(seeds, dtype=np.uint64)[:, np.newaxis], INSTANCE_TAGS).T


def compression_instance(c: np.ndarray, m: float, M: float, seed: int = 0) -> Instance:
    """The identity-map instance (C, [I;0], [0;I]) of a Hermitian 2d x 2d
    matrix C: its compression C' (``stacked.compression_stack``) is C."""
    d = c.shape[-1] // 2
    return Instance(c, m, M, np.eye(2 * d, d, dtype=np.complex128),
                    np.eye(2 * d, d, -d, dtype=np.complex128), IdentityMap(d), seed=seed)


def extremal_instance(m: float, M: float) -> Instance:
    """The 2x2 equality case: A with eigenvalues {m, M} and eigenvectors at 45
    degrees to X = e1, Y = e2, identity map.  It attains equality in the
    operator Wielandt inequality, with both sides ((M-m)/(M+m))^2 (M+m)/2."""
    m, M = check_bounds(m, M, strict=True)
    avg, off = (M + m) / 2.0, (M - m) / 2.0
    return compression_instance(np.array([[avg, off], [off, avg]], dtype=np.complex128), m, M)


def degenerate_instance(m: float) -> Instance:
    """Collapsed-spectrum companion of the extremal case (A = m I, so the
    off-diagonal compression vanishes identically)."""
    m, _ = check_bounds(m, m)
    return compression_instance(m * np.eye(2, dtype=np.complex128), m, m)


def gen_instance(seed: int, N: int, n: int, d: int, k: int, m: float, M: float) -> Instance:
    """draw_instances for one seed: each component draws from its own lane,
    seeded with the block's instance_seeds, so the bundle is deterministic
    in `seed` and component streams stay independent."""
    m, M = check_bounds(m, M)
    check_dims(N, n, d, k)
    rngs = rngs_from(instance_seeds([seed & MASK64]))
    a, x, y, w = draw_instances(rngs, 1, N, n, d, k, m, M)
    return Instance(a[0], m, M, x[0], y[0], StinespringMap(w[0], k), seed=seed)


def instance_to_json(inst: Instance) -> dict:
    """Serializable bundle; floats round-trip bit-identically through JSON."""
    return {
        "kind": "instance",
        "seed": int(inst.seed),
        "m": float(inst.m),
        "M": float(inst.M),
        "ambient": inst.ambient,
        "rank": inst.rank,
        "a": matrix_to_json(inst.a),
        "x": matrix_to_json(inst.x),
        "y": matrix_to_json(inst.y),
        "map": map_to_json(inst.phi),
    }


def instance_from_json(obj: dict) -> Instance:
    return Instance(
        a=matrix_from_json(obj["a"]),
        m=float(obj["m"]),
        M=float(obj["M"]),
        x=matrix_from_json(obj["x"]),
        y=matrix_from_json(obj["y"]),
        phi=map_from_json(obj["map"]),
        seed=int(obj["seed"]),
    )

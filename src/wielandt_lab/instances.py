"""Test-instance construction: operators with prescribed spectral bounds,
isometry pairs with orthogonal ranges, the closed-form equality case, and the
combined bundle used by every inequality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidBounds
from .maps import (
    ISOMETRY_TOL,
    IdentityMap,
    PositiveMap,
    check_isometry,
    map_from_json,
    map_to_json,
)
from .matcore import (
    as_herm,
    frob,
    herm_eig,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
)
from .sampling import haar_unitary, mix_seed, rng_from

# gen_instance's sub-seed tags, one generator per component.
TAG_OPERATOR = "operator"
TAG_ISOMETRIES = "isometries"
TAG_MAP = "map"


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

    @property
    def out_dim(self) -> int:
        return self.phi.out_dim


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


def gen_operator(seed: int, n_dim: int, m: float, M: float) -> np.ndarray:
    """Random Hermitian A = U diag(lam) U* with Haar U and lam uniform in
    [m, M]; the extreme eigenvalues are pinned to m and M exactly so the
    bounds are attained."""
    m, M = check_bounds(m, M)
    if n_dim < 2:
        raise DimensionMismatch("need dimension >= 2")
    rng = rng_from(seed)
    u = haar_unitary(rng, n_dim)
    lam = np.sort(rng.uniform(m, M, size=n_dim))
    lam[0] = m
    lam[-1] = M
    return hermitian_part((u * lam) @ u.conj().T)


def gen_isometry_pair(seed: int, n_dim: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) = first and next `rank` columns of a Haar unitary on C^n_dim;
    X*X = Y*Y = I and X*Y = 0 by construction."""
    if rank < 1 or n_dim < 2 * rank:
        raise DimensionMismatch(f"need ambient >= 2*rank >= 2, got {n_dim} < {2 * rank}")
    u = haar_unitary(rng_from(seed), n_dim)
    return u[:, :rank].copy(), u[:, rank : 2 * rank].copy()


def _extremal_operator(m: float, M: float) -> np.ndarray:
    avg = (M + m) / 2.0
    off = (M - m) / 2.0
    return np.array([[avg, off], [off, avg]], dtype=np.complex128)


def extremal_instance(m: float, M: float) -> Instance:
    """The 2x2 equality case: A with eigenvalues {m, M} and eigenvectors at 45
    degrees to X = e1, Y = e2, identity map.  It attains equality in the
    operator Wielandt inequality, with both sides ((M-m)/(M+m))^2 (M+m)/2."""
    m, M = check_bounds(m, M, strict=True)
    x = np.array([[1.0], [0.0]], dtype=np.complex128)
    y = np.array([[0.0], [1.0]], dtype=np.complex128)
    return Instance(_extremal_operator(m, M), m, M, x, y, IdentityMap(1), seed=0)


def degenerate_instance(m: float) -> Instance:
    """Collapsed-spectrum companion of the extremal case (A = m I, so the
    off-diagonal compression vanishes identically)."""
    m, _ = check_bounds(m, m)
    x = np.array([[1.0], [0.0]], dtype=np.complex128)
    y = np.array([[0.0], [1.0]], dtype=np.complex128)
    return Instance(_extremal_operator(m, m), m, m, x, y, IdentityMap(1), seed=0)


def gen_instance(
    seed: int,
    N: int,
    n: int,
    d: int,
    k: int,
    m: float,
    M: float,
    identity_phi: bool = False,
) -> Instance:
    """Combine the generators with fixed sub-seed mixing so the bundle is
    deterministic in `seed` and component streams stay independent."""
    from .maps import random_unital_cp  # local import keeps module load light

    m, M = check_bounds(m, M)
    if N < 2 * n:
        raise DimensionMismatch(f"need N >= 2n, got N={N}, n={n}")
    a = gen_operator(mix_seed(seed, TAG_OPERATOR), N, m, M)
    x, y = gen_isometry_pair(mix_seed(seed, TAG_ISOMETRIES), N, n)
    if identity_phi:
        if d != n:
            raise DimensionMismatch("identity map needs d == n")
        phi: PositiveMap = IdentityMap(n)
    else:
        phi = random_unital_cp(mix_seed(seed, TAG_MAP), n, d, k)
    return Instance(a, m, M, x, y, phi, seed=seed)


def validate_instance(inst: Instance, tol: float = 1e-10) -> list[str]:
    """Return a list of invariant violations (empty when the bundle is sound):
    shapes, orthonormal and mutually orthogonal frames, the spectrum of A
    inside [m, M] with its endpoints pinned to m and M, and the map's input
    dimension."""
    problems: list[str] = []
    a = as_herm(inst.a)
    n_amb = inst.ambient
    rank = inst.rank
    if inst.x.shape != (n_amb, rank) or inst.y.shape != (n_amb, rank):
        problems.append("isometry shapes do not match the ambient space")
        return problems
    if n_amb < 2 * rank:
        problems.append(f"ambient {n_amb} smaller than 2*rank {2 * rank}")
    try:
        check_isometry(inst.x, "X")
        check_isometry(inst.y, "Y")
    except ValueError as exc:
        problems.append(str(exc))
    cross = frob(inst.x.conj().T @ inst.y)
    if cross > ISOMETRY_TOL * max(1.0, frob(inst.x)):
        problems.append(f"ranges are not orthogonal (|X*Y| = {cross:g})")
    w, _ = herm_eig(a)
    lo, hi = float(w[0]), float(w[-1])
    scale = max(1.0, abs(inst.m), abs(inst.M))
    if lo < inst.m - tol * scale or hi > inst.M + tol * scale:
        problems.append(f"spectrum [{lo:g}, {hi:g}] escapes [{inst.m:g}, {inst.M:g}]")
    if abs(lo - inst.m) > 1e-12 * scale or abs(hi - inst.M) > 1e-12 * scale:
        problems.append(
            f"spectral endpoints [{lo:g}, {hi:g}] not pinned to [{inst.m:g}, {inst.M:g}]"
        )
    if inst.phi.in_dim != rank:
        problems.append(
            f"map input dimension {inst.phi.in_dim} differs from rank {rank}"
        )
    return problems


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

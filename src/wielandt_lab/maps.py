"""Unital positive linear maps: representations, application, Choi matrices,
complete-positivity certificates, and a sampling probe for 2-positivity.

Maps act in the "compression" convention: a map with input dimension n and
output dimension d sends an n x n matrix T to a d x d matrix.  Three
representations cover every map the laboratory uses: the identity, a
Stinespring isometry W with T -> W*(T (x) I_k)W, and an arbitrary linear
action on vec(T).  A compression V*TV is a Stinespring map with k = 1; Kraus
operators K_1..K_k stack on the ancilla (row i*k + a of W is row i of K_a);
a convex mix of CP maps scales each part's Kraus operators by the square root
of its weight; a mix with non-CP parts is a linear action.  Complete
positivity is certified through the Choi matrix; a CP certificate is
sufficient for the 2-positivity assumed by the inequality checks, while
arbitrary user maps can only be probed by sampling (a necessary condition,
not a certificate).

The isometry guard is written once, for stacks: ``flag_isometry`` records a
ValueError for each lane whose frame does not have orthonormal columns, and
``check_isometry`` runs it on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .matcore import (
    PSD_TOL,
    LaneErrors,
    adj,
    as_cmatrix,
    frob,
    herm_eig,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
)
from .sampling import complex_gaussian, haar_frames, rng_from

ISOMETRY_TOL = 1e-12


def flag_isometry(errors: LaneErrors, v: np.ndarray, what: str) -> None:
    """ValueError on the lanes of a stack of frames V, labelled `what`,
    unless V*V = I within ISOMETRY_TOL * max(1, ||V*V||_F)."""
    gram = adj(v) @ v
    defect = np.linalg.norm(gram - np.eye(v.shape[-1]), axis=(-2, -1))
    errors.flag(defect > ISOMETRY_TOL * np.maximum(1.0, np.linalg.norm(gram, axis=(-2, -1))),
                lambda i: ValueError(
                    f"{what} does not have orthonormal columns (defect {defect[i]:g})"))


def check_isometry(v: np.ndarray, what: str) -> None:
    """flag_isometry on one frame V; raises its ValueError."""
    errors = LaneErrors(1)
    flag_isometry(errors, v[np.newaxis], what)
    if errors:
        raise errors[0]


def tensor_identity(t: np.ndarray, k: int) -> np.ndarray:
    """T (x) I_k, filled block-diagonally; stacks (..., n, n) act per matrix.
    Entry (i*k + a, j*k + a) is T[i, j]; every other entry is zero."""
    *lead, n, _ = t.shape
    big = np.zeros((*lead, n, k, n, k), dtype=np.complex128)
    for a in range(k):
        big[..., :, a, :, a] = t
    return big.reshape(*lead, n * k, n * k)


class PositiveMap:
    """Base class; concrete representations implement ``apply``."""

    in_dim: int
    out_dim: int

    def apply(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, t) -> np.ndarray:
        m = as_cmatrix(t, square=True)
        if m.shape[0] != self.in_dim:
            raise DimensionMismatch(
                f"map expects {self.in_dim}x{self.in_dim} input, got {m.shape}"
            )
        return m


@dataclass(frozen=True, eq=False)
class IdentityMap(PositiveMap):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def apply(self, t) -> np.ndarray:
        return self._check_input(t).copy()


@dataclass(frozen=True, eq=False)
class StinespringMap(PositiveMap):
    """T -> W*(T (x) I_k)W for an (n*k) x d isometry W with ancilla size k."""

    w: np.ndarray
    ancilla: int

    def __post_init__(self):
        w = as_cmatrix(self.w)
        if self.ancilla < 1 or w.shape[0] % self.ancilla != 0:
            raise DimensionMismatch(
                f"rows {w.shape[0]} not divisible by ancilla {self.ancilla}"
            )
        check_isometry(w, "Stinespring isometry")
        object.__setattr__(self, "w", w)

    @property
    def in_dim(self) -> int:
        return self.w.shape[0] // self.ancilla

    @property
    def out_dim(self) -> int:
        return self.w.shape[1]

    def apply(self, t) -> np.ndarray:
        m = self._check_input(t)
        return self.w.conj().T @ tensor_identity(m, self.ancilla) @ self.w


@dataclass(frozen=True, eq=False)
class LinearActionMap(PositiveMap):
    """Arbitrary user-supplied linear map given by its d^2 x n^2 action on
    row-major vec(T).  Carries no positivity guarantee; classify before use."""

    matrix: np.ndarray
    in_dim_: int = field(repr=False, default=0)
    out_dim_: int = field(repr=False, default=0)

    def __post_init__(self):
        m = as_cmatrix(self.matrix)
        n = self.in_dim_ or int(round(m.shape[1] ** 0.5))
        d = self.out_dim_ or int(round(m.shape[0] ** 0.5))
        if m.shape != (d * d, n * n):
            raise DimensionMismatch(f"action matrix shape {m.shape} != ({d*d},{n*n})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "in_dim_", n)
        object.__setattr__(self, "out_dim_", d)

    @property
    def in_dim(self) -> int:
        return self.in_dim_

    @property
    def out_dim(self) -> int:
        return self.out_dim_

    def apply(self, t) -> np.ndarray:
        m = self._check_input(t)
        vec = m.reshape(-1)
        return (self.matrix @ vec).reshape(self.out_dim, self.out_dim)


def is_unital(phi: PositiveMap, tol: float = 1e-12) -> bool:
    image = phi.apply(np.eye(phi.in_dim, dtype=np.complex128))
    return frob(image - np.eye(phi.out_dim)) <= tol * max(1.0, frob(image))


def transpose_map(n: int) -> LinearActionMap:
    """The transpose on n x n matrices: positive but not 2-positive for n >= 2."""
    mat = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            mat[i * n + j, j * n + i] = 1.0
    return LinearActionMap(mat, n, n)


def choi(phi: PositiveMap) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) Phi(E_ij), an (n*d) x (n*d) matrix."""
    n, d = phi.in_dim, phi.out_dim
    c = np.zeros((n * d, n * d), dtype=np.complex128)
    basis = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            basis[i, j] = 1.0
            c[i * d : (i + 1) * d, j * d : (j + 1) * d] = phi.apply(basis)
            basis[i, j] = 0.0
    return c


def is_cp(phi: PositiveMap, tol: float = PSD_TOL) -> bool:
    """True iff the Choi matrix is Hermitian and PSD within tolerance."""
    c = choi(phi)
    scale = max(1.0, frob(c))
    if frob(c - c.conj().T) > 2.0 * tol * scale:
        return False
    w, _ = herm_eig(hermitian_part(c))
    return float(w[0]) >= -tol * max(1.0, float(np.max(np.abs(w))))


@dataclass
class ProbeReport:
    violated: bool
    trials_requested: int
    trials_done: int
    min_eigenvalue: float  # most negative eigenvalue seen across samples
    witness: Optional[np.ndarray]  # 2n x 2n PSD input block matrix, if violated
    tol: float

    @property
    def message(self) -> str:
        if self.violated:
            return (
                f"violation found at trial {self.trials_done} "
                f"(min eigenvalue {self.min_eigenvalue:.6g})"
            )
        return f"no violation found in {self.trials_done} trials"


def _entangled_block_witness(n: int) -> np.ndarray:
    """Rank-one PSD 2x2 block matrix with matrix-unit blocks; its blockwise
    image under the transpose has eigenvalue -1."""
    u = np.zeros(2 * n, dtype=np.complex128)
    u[0] = 1.0  # e_1 in the first block
    u[n + 1] = 1.0  # e_2 in the second block
    return np.outer(u, u.conj())


def two_positivity_probe(
    phi: PositiveMap, trials: int, seed: int, tol: float = PSD_TOL
) -> ProbeReport:
    """Sample PSD 2x2 block matrices, apply the map blockwise, and test that
    the image stays PSD.  A clean run is necessary, not sufficient, for
    2-positivity; the first sample is the deterministic entangled-block
    witness that catches the transpose map.

    Returns at the first violation with the offending input as witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = phi.in_dim
    rng = rng_from(seed)
    worst = np.inf
    for trial in range(trials):
        if trial == 0 and n >= 2:
            block = _entangled_block_witness(n)
        else:
            g = complex_gaussian(rng, 2 * n, 2 * n)
            block = g @ g.conj().T
        block = hermitian_part(block)
        a = block[:n, :n]
        b = block[:n, n:]
        c = block[n:, n:]
        image = np.block(
            [
                [phi.apply(a), phi.apply(b)],
                [phi.apply(b.conj().T), phi.apply(c)],
            ]
        )
        scale = max(1.0, frob(image))
        if frob(image - image.conj().T) > 2.0 * tol * scale:
            return ProbeReport(True, trials, trial + 1, -np.inf, block, tol)
        w, _ = herm_eig(hermitian_part(image))
        lam = float(w[0])
        worst = min(worst, lam)
        if lam < -tol * max(1.0, float(np.max(np.abs(w)))):
            return ProbeReport(True, trials, trial + 1, lam, block, tol)
    return ProbeReport(False, trials, trials, worst, None, tol)


def check_map_dims(n: int, d: int, k: int) -> None:
    """Raise ValueError unless n, d, k >= 1 and DimensionMismatch unless
    n*k >= d, the rows and columns of a Stinespring isometry."""
    if min(n, d, k) < 1:
        raise ValueError("n, d, k must all be >= 1")
    if n * k < d:
        raise DimensionMismatch(f"need n*k >= d for an isometry, got {n*k} < {d}")


def random_unital_cp(seed: int, n: int, d: int, k: int) -> StinespringMap:
    """Haar-random Stinespring map C^{n x n} -> C^{d x d} with ancilla k;
    unital and CP by construction, deterministic in the seed."""
    check_map_dims(n, d, k)
    return StinespringMap(haar_frames(rng_from(seed).standard_normal((2, n * k, d))), k)


def classify_map(
    phi: PositiveMap, tol: float = PSD_TOL, trials: int = 200, seed: int = 0
) -> str:
    """Label a user map: 'certified CP', 'probe-passed', or 'violated'."""
    if is_cp(phi, tol=tol):
        return "certified CP"
    report = two_positivity_probe(phi, trials=trials, seed=seed, tol=tol)
    return "violated" if report.violated else "probe-passed"


def map_to_json(phi: PositiveMap) -> dict:
    """Tagged-union JSON form mirroring the representation."""
    if isinstance(phi, IdentityMap):
        return {"type": "identity", "dim": phi.dim}
    if isinstance(phi, StinespringMap):
        return {
            "type": "stinespring",
            "w": matrix_to_json(phi.w),
            "ancilla": phi.ancilla,
        }
    if isinstance(phi, LinearActionMap):
        return {
            "type": "linear",
            "matrix": matrix_to_json(phi.matrix),
            "in_dim": phi.in_dim,
            "out_dim": phi.out_dim,
        }
    raise TypeError(f"unknown map type {type(phi)!r}")


def map_from_json(obj: dict) -> PositiveMap:
    kind = obj["type"]
    if kind == "identity":
        return IdentityMap(int(obj["dim"]))
    if kind == "stinespring":
        return StinespringMap(matrix_from_json(obj["w"]), int(obj["ancilla"]))
    if kind == "linear":
        return LinearActionMap(
            matrix_from_json(obj["matrix"]), int(obj["in_dim"]), int(obj["out_dim"])
        )
    raise ValueError(f"unknown map tag {kind!r}")

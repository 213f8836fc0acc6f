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

The isometry guard and each map's action are written once, for stacks:
``flag_isometry`` records a ValueError for each lane whose frame does not have
orthonormal columns, and ``map_stack`` gives a map's action on stacks
``(B, n, n)`` of inputs (``stinespring_stack`` for a stack of isometries).
``check_isometry`` and the maps' ``apply`` run them on one matrix.  The shape
rule of an instance's dimensions is ``check_dims``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    stack_scale,
)
from .sampling import complex_gaussian, haar_frames, rng_from

ISOMETRY_TOL = 1e-12


def check_dims(N: int, n: int, d: int, k: int) -> None:
    """Raise DimensionMismatch unless instances of shape (N, n, d, k) exist:
    an isometry pair of rank n in C^N and an (n*k) x d Stinespring
    isometry."""
    if N < 2 * n or min(n, d, k) < 1 or d > n * k:
        raise DimensionMismatch(f"invalid dims N={N}, n={n}, d={d}, k={k}: N must be >= 2n, "
                                "n, d, k >= 1 and d <= n*k")


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


def stinespring_stack(w: np.ndarray, k: int):
    """The map T -> W*(T (x) I_k)W on stacks of T, for one isometry W or a
    stack of them."""
    wh = adj(w)
    return lambda t: wh @ tensor_identity(t, k) @ w


def linear_stack(matrix: np.ndarray):
    """The map vec(T) -> matrix vec(T) on stacks of row-major T, as one
    matmul."""
    d = math.isqrt(matrix.shape[0])
    return lambda t: (matrix @ t.reshape(*t.shape[:-2], -1, 1)).reshape(*t.shape[:-2], d, d)


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
        return stinespring_stack(self.w, self.ancilla)(self._check_input(t))


@dataclass(frozen=True, eq=False)
class LinearActionMap(PositiveMap):
    """Arbitrary user-supplied linear map given by its d^2 x n^2 action on
    row-major vec(T).  Carries no positivity guarantee; classify before use."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_cmatrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.out_dim**2, self.in_dim**2):
            raise DimensionMismatch(f"action matrix shape {m.shape} is not (d^2, n^2)")

    @property
    def in_dim(self) -> int:
        return math.isqrt(self.matrix.shape[1])

    @property
    def out_dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    def apply(self, t) -> np.ndarray:
        return linear_stack(self.matrix)(self._check_input(t))


def map_stack(phi: PositiveMap):
    """`phi` acting on stacks of inputs, unchecked: the identity through the
    isometry I_n."""
    if isinstance(phi, IdentityMap):
        return stinespring_stack(np.eye(phi.dim, dtype=np.complex128), 1)
    if isinstance(phi, StinespringMap):
        return stinespring_stack(phi.w, phi.ancilla)
    if isinstance(phi, LinearActionMap):
        return linear_stack(phi.matrix)
    raise TypeError(f"unknown map type {type(phi)!r}")


def is_unital(phi: PositiveMap, tol: float = 1e-12) -> bool:
    image = phi.apply(np.eye(phi.in_dim, dtype=np.complex128))
    return frob(image - np.eye(phi.out_dim)) <= tol * max(1.0, frob(image))


def transpose_map(n: int) -> LinearActionMap:
    """The transpose on n x n matrices: positive but not 2-positive for n >= 2."""
    mat = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            mat[i * n + j, j * n + i] = 1.0
    return LinearActionMap(mat)


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


def _psd_verdict(c: np.ndarray, tol: float) -> tuple[float, bool]:
    """(minimum eigenvalue, PSD verdict) of C: C must be Hermitian within
    2 tol max(1, ||C||_F), else (-inf, False), and its minimum eigenvalue
    >= -tol max(1, max |eigenvalue|)."""
    if frob(c - adj(c)) > 2.0 * tol * max(1.0, frob(c)):
        return -np.inf, False
    w, _ = herm_eig(hermitian_part(c))
    return float(w[0]), bool(w[0] >= -tol * stack_scale(w))


def is_cp(phi: PositiveMap, tol: float = PSD_TOL) -> bool:
    """True iff the Choi matrix is Hermitian and PSD within tolerance."""
    return _psd_verdict(choi(phi), tol)[1]


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
        lam, psd = _psd_verdict(image, tol)
        if not psd:
            return ProbeReport(True, trials, trial + 1, lam, block, tol)
        worst = min(worst, lam)
    return ProbeReport(False, trials, trials, worst, None, tol)


def random_unital_cp(seed: int, n: int, d: int, k: int) -> StinespringMap:
    """Haar-random Stinespring map C^{n x n} -> C^{d x d} with ancilla k;
    unital and CP by construction, deterministic in the seed."""
    check_dims(2 * n, n, d, k)  # no isometry pair: any N >= 2n
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
        phi = LinearActionMap(matrix_from_json(obj["matrix"]))
        if (phi.in_dim, phi.out_dim) != (int(obj["in_dim"]), int(obj["out_dim"])):
            raise DimensionMismatch(f"action matrix shape {phi.matrix.shape} does not match "
                                    f"in_dim {obj['in_dim']}, out_dim {obj['out_dim']}")
        return phi
    raise ValueError(f"unknown map tag {kind!r}")

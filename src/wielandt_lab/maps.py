"""Linear maps on matrices: representations and their actions on stacks.

Maps act in the "compression" convention: a map with input dimension n and
output dimension d sends an n x n matrix T to a d x d matrix.  Three
representations cover every map the laboratory uses: the identity, a
Stinespring isometry W with T -> W*(T (x) I_k)W, and an arbitrary linear
action on vec(T).  A compression V*TV is a Stinespring map with k = 1; Kraus
operators K_1..K_k stack on the ancilla (row i*k + a of W is row i of K_a);
a convex mix of CP maps scales each part's Kraus operators by the square root
of its weight; a mix with non-CP parts is a linear action.  The lab samples
only unital CP Stinespring maps (``random_unital_cp``), which are 2-positive
by construction; no command reads a user-supplied map yet, and
``map_from_json`` refuses a linear action that does not preserve adjoints.

The isometry guard and each map's action are written once, for stacks:
``flag_isometry`` records a ValueError for each lane whose frame does not have
orthonormal columns, and ``map_stack`` gives a map's action on stacks
``(B, n, n)`` of inputs; a Stinespring action is evaluated in Kraus form
(``stinespring_stack``).  ``check_isometry`` and the maps' ``apply`` run them
on one matrix.  The compression reads a map through id_2 (x) Phi on 2n x 2n
matrices (``lift_stack``): for a Stinespring map W it is the Stinespring map
of I_2 (x) W with the same ancilla (``stinespring_lift``), one Kraus-form
pass; the identity and a linear action act on the four n x n blocks.  The
shape rule of an instance's dimensions is ``check_dims``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .matcore import LaneErrors, adj, as_cmatrix, matrix_from_json, matrix_to_json
from .sampling import haar_frames, rng_from

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


def stinespring_stack(w: np.ndarray, k: int):
    """The map T -> W*(T (x) I_k)W on stacks of T, for one isometry W or a
    stack of them as long as T's, in Kraus form: K_a is rows a::k of W and
    the map is sum_a K_a* T K_a.  T times every K_a at once is T times W's
    rows regrouped as n x kd; regrouped back as nk x d, W* contracts it, so
    T (x) I_k is never built."""
    *lead, nk, d = w.shape
    wh, kraus = adj(w), w.reshape(*lead, nk // k, k * d)
    return lambda t: wh @ (t @ kraus).reshape(*t.shape[:-2], nk, d)


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
    """Arbitrary linear map given by its d^2 x n^2 action on row-major
    vec(T).  Carries no positivity guarantee."""

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
    """`phi` acting on stacks of inputs, unchecked."""
    if isinstance(phi, IdentityMap):
        return lambda t: t
    if isinstance(phi, StinespringMap):
        return stinespring_stack(phi.w, phi.ancilla)
    if isinstance(phi, LinearActionMap):
        return linear_stack(phi.matrix)
    raise TypeError(f"unknown map type {type(phi)!r}")


def stinespring_lift(w: np.ndarray, k: int):
    """id_2 (x) (T -> W*(T (x) I_k)W) on stacks of 2n x 2n matrices, for one
    isometry W or a (B, nk, d) stack: the Stinespring map of I_2 (x) W (W in
    both diagonal blocks, zeros elsewhere), whose ancilla is still k."""
    *lead, nk, d = w.shape
    lifted = np.zeros((*lead, 2 * nk, 2 * d), dtype=np.complex128)
    lifted[..., :nk, :d] = lifted[..., nk:, d:] = w
    return stinespring_stack(lifted, k)


def lift_stack(phi: PositiveMap):
    """id_2 (x) `phi` acting on stacks (B, 2n, 2n), unchecked: a Stinespring
    map through ``stinespring_lift``, any other map as `phi` on each of the
    four n x n blocks."""
    if isinstance(phi, StinespringMap):
        return stinespring_lift(phi.w, phi.ancilla)
    act = map_stack(phi)

    def lifted(c):
        *lead, size, _ = c.shape
        half = size // 2
        out = act(c.reshape(*lead, 2, half, 2, half).swapaxes(-3, -2))
        d = out.shape[-1]
        return out.swapaxes(-3, -2).reshape(*lead, 2 * d, 2 * d)

    return lifted


def random_unital_cp(seed: int, n: int, d: int, k: int) -> StinespringMap:
    """Haar-random Stinespring map C^{n x n} -> C^{d x d} with ancilla k;
    unital and CP by construction, deterministic in the seed."""
    check_dims(2 * n, n, d, k)  # no isometry pair: any N >= 2n
    return StinespringMap(haar_frames(rng_from(seed).standard_normal((2, n * k, d))), k)


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
        # Phi(T*) = Phi(T)*, as products_stack assumes: on row-major vec,
        # L P_n = conj(P_d L), where P_k transposes a k x k matrix
        act, n, d = phi.matrix, phi.in_dim, phi.out_dim
        defect = np.linalg.norm(act[:, np.arange(n * n).reshape(n, n).T.ravel()]
                                - act[np.arange(d * d).reshape(d, d).T.ravel()].conj())
        if defect > ISOMETRY_TOL * max(1.0, np.linalg.norm(act)):
            raise ValueError(f"linear action does not preserve adjoints (defect {defect:g})")
        return phi
    raise ValueError(f"unknown map tag {kind!r}")

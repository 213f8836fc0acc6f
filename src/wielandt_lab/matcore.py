"""Dense complex matrix core: Hermitian eigendecomposition (single matrices
and stacks), spectral powers, operator norm, and the JSON matrix form.

Everything operates on plain ``complex128`` numpy arrays.  Hermitian inputs
are symmetrized ``(H + H*)/2`` on entry so accumulated arithmetic drift cannot
leak into spectral computations.  The eigensolver is LAPACK's Hermitian
``eigh`` (via numpy), with a vectorized closed form for stacks of 2x2
matrices, the common case in searches and several times cheaper than LAPACK.
Stacked products whose factors can both be 2x2 go through ``matprod``, which
takes them in closed form too, not as one BLAS call per matrix.

Spectral powers, norms and their hypothesis guards are written once, for
stacks ``(B, n, n)``: ``flag_psd`` and ``flag_pd`` record in a ``LaneErrors``
the exception of each lane that is not PSD or not positive definite,
``from_eig`` builds V diag(w) V* per lane, and ``stack_pows`` raises each
lane's eigenvalues to each power of an exponent grid, giving a
``(P, B, n, n)`` stack; ``stack_pow`` is its one-exponent case.  The
Hermitian norm is ``herm_norm_stack`` (``top_abs`` of a lane's eigenvalues)
and the operator norm ``op_norm_stack`` (``sqrt_top`` of those of its Gram
matrix).  Callers that read only eigenvalues take ``herm_eigvals_stack``,
the eigenvalue half of ``herm_eig_stack`` with the same bits.
``eig_pow_psd``, ``eig_pow_pd`` and ``op_norm`` run them on a stack of one
and raise that lane's exception.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidExponent,
    NotPSD,
    Singular,
)

# Relative eigenvalue window clamped to zero before fractional powers.
PSD_TOL = 1e-10
# Relative positive-definiteness threshold for inversion.
PD_TOL = 1e-12
# Accepted anti-Hermitian drift, relative to ||H||_F, on Hermitian inputs.
HERM_DRIFT_TOL = 1e-13


def as_cmatrix(a, square: bool = False) -> np.ndarray:
    """Validate and coerce to a finite complex128 matrix."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 without any validation; stacks (..., n, n) act per matrix."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def as_herm(a, tol: float = HERM_DRIFT_TOL) -> np.ndarray:
    """Coerce to Hermitian, rejecting inputs whose anti-Hermitian part exceeds
    ``tol * max(1, ||A||_F)``."""
    m = as_cmatrix(a, square=True)
    h = hermitian_part(m)
    drift = frob(m - h)
    if drift > tol * max(1.0, frob(m)):
        raise ValueError(f"matrix is not Hermitian within tolerance (drift={drift:g})")
    return h


class EigDecomp(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]


def herm_eig(h) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix, checked by ``as_herm``:
    ``herm_eig_stack`` on a stack of one.

    Returns eigenvalues in ascending order with matching eigenvector columns.
    """
    w, v = herm_eig_stack(as_herm(h)[np.newaxis])
    return EigDecomp(w[0], v[0])


def herm_eig_stack(h: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a stack (..., n, n) of Hermitian matrices, with
    no validation: for 2x2 matrices one complex Jacobi rotation, which
    diagonalizes exactly, in vectorized closed form; LAPACK ``eigh`` for
    every other shape.  Each matrix gets the same bits at any stack length.
    Raises LinAlgError, as LAPACK does on NaN input, at any size, if an
    eigenvalue is not finite."""
    if h.shape[-2:] != (2, 2):
        return EigDecomp(*_finite(np.linalg.eigh(h)))
    w, (swap, ct, st, b, r) = _herm_eigvals2_stack(h)
    pc = np.divide(b, r, out=np.ones_like(b), where=r != 0.0).conj()
    neg = -st
    v = np.empty(h.shape, dtype=np.complex128)
    v[..., 0, 0] = np.where(swap, neg, ct)
    v[..., 1, 0] = pc * np.where(swap, ct, st)
    v[..., 0, 1] = np.where(swap, ct, neg)
    v[..., 1, 1] = pc * np.where(swap, st, ct)
    return EigDecomp(*_finite((w, v)))


def herm_eigvals_stack(h: np.ndarray) -> np.ndarray:
    """herm_eig_stack's eigenvalues alone, bit for bit: at 2x2 the closed
    form's eigenvalue half, at every other shape eigh's eigenvalues (those
    of ``eigvalsh`` differ in the last bits)."""
    if h.shape[-2:] != (2, 2):
        return _finite(np.linalg.eigh(h))[0]
    return _finite(_herm_eigvals2_stack(h))[0]


def _finite(decomp: tuple) -> tuple:
    """`decomp`, (eigenvalues, ...), once every eigenvalue is finite, or
    LinAlgError."""
    if not np.isfinite(decomp[0]).all():
        raise np.linalg.LinAlgError("non-finite eigenvalues")
    return decomp


def _herm_eigvals2_stack(h: np.ndarray) -> tuple:
    """The 2x2 closed form's ascending eigenvalues, and the rotation's
    (swap, cos, sin, off-diagonal, |off-diagonal|) its vectors are built
    from."""
    a = h[..., 0, 0].real
    c = h[..., 1, 1].real
    b = (h[..., 0, 1] + h[..., 1, 0].conj()) / 2.0
    r = np.abs(b)
    theta = 0.5 * np.arctan2(2.0 * r, a - c)
    ct = np.cos(theta)
    st = np.sin(theta)
    cc, ss, cs = ct * ct, st * st, 2.0 * ct * st * r
    lam_p = cc * a + cs + ss * c
    lam_q = ss * a - cs + cc * c
    swap = lam_p > lam_q
    w = np.empty(h.shape[:-1])
    w[..., 0] = np.where(swap, lam_q, lam_p)
    w[..., 1] = np.where(swap, lam_p, lam_q)
    return w, (swap, ct, st, b, r)


class LaneErrors(dict):
    """lane -> the exception the lane's computation raises first.  Flags
    must be added in the order the checks run: a lane keeps its first."""

    def __init__(self, lanes: int):
        super().__init__()
        self.lanes = lanes

    def flag(self, mask: np.ndarray, make) -> None:
        """Give every lane of `mask` that has no exception yet `make(lane)`."""
        for lane in np.flatnonzero(mask).tolist():
            if lane not in self:
                self[lane] = make(lane)

    @property
    def bad(self) -> np.ndarray:
        mask = np.zeros(self.lanes, dtype=bool)
        mask[list(self)] = True
        return mask


def adj(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def matprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; stacks of 2x2 by 2x2 matrices as the two-term broadcast sum,
    which costs a third of numpy's one BLAS call per matrix."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
    return a @ b


def from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V*, symmetrized; stacks (..., n) of w and (..., n, n) of V
    broadcast per matrix."""
    return hermitian_part(matprod(v * w[..., np.newaxis, :], adj(v)))


def gram(x: np.ndarray) -> np.ndarray:
    """X*X per lane, symmetrized."""
    return hermitian_part(matprod(adj(x), x))


def gram_eig(x: np.ndarray) -> EigDecomp:
    """Eigendecomposition of X*X per lane."""
    return herm_eig_stack(gram(x))


def top_abs(w: np.ndarray) -> np.ndarray:
    """Per-lane max |eigenvalue|: the Hermitian norm from the eigenvalues."""
    return np.abs(w).max(axis=-1)


def herm_norm_stack(h: np.ndarray) -> np.ndarray:
    """Per-lane operator norm of a stack of Hermitian matrices, with no
    validation: top_abs of their eigenvalues."""
    return top_abs(herm_eigvals_stack(h))


def sqrt_top(w: np.ndarray) -> np.ndarray:
    """The operator norm from the eigenvalues of X*X: sqrt of the top one, 0
    unless it is > 0."""
    top = w[..., -1]
    return np.sqrt(np.where(top > 0.0, top, 0.0))


def op_norm_stack(x: np.ndarray) -> np.ndarray:
    """Per-lane operator norm: sqrt_top of the eigenvalues of X*X."""
    return sqrt_top(herm_eigvals_stack(gram(x)))


def stack_scale(w: np.ndarray) -> np.ndarray:
    """Per-lane max(1, max |eigenvalue|), the scale of the PSD and PD
    thresholds."""
    return np.maximum(1.0, top_abs(w))


def stack_pows(w: np.ndarray, v: np.ndarray, p_values, bad: np.ndarray) -> np.ndarray:
    """(v diag(w^p) v*) per lane for each exponent of `p_values`, as a
    (P, B, n, n) stack; lanes in `bad` get eigenvalues 1 first, so nothing
    divides by zero (their values are discarded).  Each w^p is one power with
    a Python float, so numpy's scalar fast paths (p = 0.5, 1, 2, -1) give
    every exponent the bits of a one-exponent call."""
    w = np.where(bad[:, np.newaxis], 1.0, w)
    w_p = np.empty((len(p_values), *w.shape))
    for out, p in zip(w_p, p_values):
        out[...] = w**p
    return from_eig(w_p, v)


def stack_pow(w: np.ndarray, v: np.ndarray, p: float, bad: np.ndarray) -> np.ndarray:
    """stack_pows at the one exponent p: a (B, n, n) stack."""
    return stack_pows(w, v, (p,), bad)[0]


def clamp_psd(w: np.ndarray) -> np.ndarray:
    """Negative eigenvalues clamped to zero (convention 0^p = 0)."""
    return np.where(w < 0.0, 0.0, w)


def flag_psd(errors: LaneErrors, w: np.ndarray) -> None:
    """NotPSD on the lanes whose minimum eigenvalue is below -PSD_TOL * scale."""
    scale = stack_scale(w)
    errors.flag(w[:, 0] < -PSD_TOL * scale, lambda i: NotPSD(
        f"minimum eigenvalue {w[i, 0]:g} below -{PSD_TOL:g}*{scale[i]:g}"))


def flag_pd(errors: LaneErrors, w: np.ndarray) -> None:
    """Singular on the lanes whose minimum eigenvalue is at most PD_TOL * scale."""
    scale = stack_scale(w)
    errors.flag(w[:, 0] <= PD_TOL * scale, lambda i: Singular(
        f"minimum eigenvalue {w[i, 0]:g} below {PD_TOL:g}*{scale[i]:g}"))


def eig_pow_psd(d: EigDecomp, p: float) -> np.ndarray:
    """S^p from a decomposition of PSD S; eigenvalues in [-PSD_TOL*scale, 0)
    are clamped to zero: flag_psd and stack_pow on a stack of one."""
    w, v = (part[np.newaxis] for part in d)
    errors = LaneErrors(1)
    flag_psd(errors, w)
    if errors:
        raise errors[0]
    return stack_pow(clamp_psd(w), v, p, errors.bad)[0]


def eig_pow_pd(d: EigDecomp, p: float) -> np.ndarray:
    """T^p (any real p, including negative) from a decomposition of PD T:
    flag_pd and stack_pow on a stack of one."""
    w, v = (part[np.newaxis] for part in d)
    errors = LaneErrors(1)
    flag_pd(errors, w)
    if errors:
        raise errors[0]
    return stack_pow(w, v, p, errors.bad)[0]


def check_exponent(p: float) -> float:
    """The exponent as a float; raises InvalidExponent unless finite and > 0."""
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise InvalidExponent(f"need a finite exponent p > 0, got {p!r}")
    return p


def mat_pow(s, p: float) -> np.ndarray:
    """S^p for PSD Hermitian S and p > 0, via spectral calculus."""
    return eig_pow_psd(herm_eig(s), check_exponent(p))


def op_norm(x) -> float:
    """Operator (spectral) norm: largest singular value, op_norm_stack of
    one lane."""
    m = as_cmatrix(x)
    if m.size == 0:
        return 0.0
    return float(op_norm_stack(m[np.newaxis])[0])


def matrix_to_json(a) -> dict:
    """Row-major JSON exchange form {rows, cols, re, im}."""
    m = as_cmatrix(a)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj["im"], dtype=np.float64)
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise DimensionMismatch("re/im length does not match rows*cols")
    return as_cmatrix((re + 1j * im).reshape(rows, cols))

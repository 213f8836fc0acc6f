"""Dense complex matrix core: Hermitian eigendecomposition, spectral calculus,
operator norm, and Loewner-order tests.

Everything operates on plain ``complex128`` numpy arrays.  Hermitian inputs
are symmetrized ``(H + H*)/2`` on entry so accumulated arithmetic drift cannot
leak into spectral computations.  The eigensolver is LAPACK's Hermitian
``eigh`` (via numpy), with a scalar closed form for the 2x2 case, which is
the common one in searches and several times cheaper than a LAPACK call.
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
    """(A + A*)/2 without any validation."""
    return (a + a.conj().T) / 2.0


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


def _herm_eig2(m: np.ndarray) -> EigDecomp:
    """Dimension-2 closed form: one complex Jacobi rotation diagonalizes
    exactly, so it is computed with scalar arithmetic."""
    h00 = complex(m[0, 0])
    h01 = complex(m[0, 1])
    h10 = complex(m[1, 0])
    h11 = complex(m[1, 1])
    for z in (h00, h01, h10, h11):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("matrix has non-finite entries")
    a = h00.real
    c = h11.real
    b = (h01 + h10.conjugate()) / 2.0
    drift = math.sqrt(
        h00.imag**2 + h11.imag**2 + 2.0 * abs((h01 - h10.conjugate()) / 2.0) ** 2
    )
    total = math.sqrt(abs(h00) ** 2 + abs(h01) ** 2 + abs(h10) ** 2 + abs(h11) ** 2)
    if drift > HERM_DRIFT_TOL * max(1.0, total):
        raise ValueError(f"matrix is not Hermitian within tolerance (drift={drift:g})")
    r = abs(b)
    if r == 0.0:
        v = np.eye(2, dtype=np.complex128)
        if a <= c:
            return EigDecomp(np.array([a, c]), v)
        return EigDecomp(np.array([c, a]), v[:, ::-1].copy())
    phase = b / r
    theta = 0.5 * math.atan2(2.0 * r, a - c)
    ct = math.cos(theta)
    st = math.sin(theta)
    lam_p = ct * ct * a + 2.0 * ct * st * r + st * st * c
    lam_q = st * st * a - 2.0 * ct * st * r + ct * ct * c
    pc = phase.conjugate()
    v = np.empty((2, 2), dtype=np.complex128)
    if lam_p <= lam_q:
        v[0, 0] = ct
        v[1, 0] = pc * st
        v[0, 1] = -st
        v[1, 1] = pc * ct
        return EigDecomp(np.array([lam_p, lam_q]), v)
    v[0, 0] = -st
    v[1, 0] = pc * ct
    v[0, 1] = ct
    v[1, 1] = pc * st
    return EigDecomp(np.array([lam_q, lam_p]), v)


def herm_eig(h) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order with matching eigenvector columns.
    2x2 inputs use the scalar closed form; every other shape is checked by
    ``as_herm`` and solved by LAPACK (``numpy.linalg.eigh``).
    """
    m = np.asarray(h, dtype=np.complex128)
    if m.shape == (2, 2):
        return _herm_eig2(m)
    w, v = np.linalg.eigh(as_herm(m))
    return EigDecomp(w, v)


def _eig_scale(w: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)


def eig_pow_psd(d: EigDecomp, p: float, psd_tol: float = PSD_TOL) -> np.ndarray:
    """S^p from a decomposition of PSD S; eigenvalues in [-psd_tol*scale, 0)
    are clamped to zero (convention 0^p = 0)."""
    w, v = d
    scale = _eig_scale(w)
    if float(w[0]) < -psd_tol * scale:
        raise NotPSD(f"minimum eigenvalue {w[0]:g} below -{psd_tol:g}*{scale:g}")
    wc = np.where(w < 0.0, 0.0, w)
    return hermitian_part((v * wc**p) @ v.conj().T)


def eig_pow_pd(d: EigDecomp, p: float, pd_tol: float = PD_TOL) -> np.ndarray:
    """T^p (any real p, including negative) from a decomposition of PD T."""
    w, v = d
    scale = _eig_scale(w)
    if float(w[0]) <= pd_tol * scale:
        raise Singular(f"minimum eigenvalue {w[0]:g} below {pd_tol:g}*{scale:g}")
    return hermitian_part((v * w**p) @ v.conj().T)


def _check_exponent(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 0.0:
        raise InvalidExponent(f"exponent must be finite and > 0, got {p!r}")
    return p


def mat_pow(s, p: float, psd_tol: float = PSD_TOL) -> np.ndarray:
    """S^p for PSD Hermitian S and p > 0, via spectral calculus."""
    p = _check_exponent(p)
    return eig_pow_psd(herm_eig(s), p, psd_tol=psd_tol)


def mat_inv_pow(t, p: float, pd_tol: float = PD_TOL) -> np.ndarray:
    """T^{-p} for PD Hermitian T and p > 0."""
    p = _check_exponent(p)
    return eig_pow_pd(herm_eig(t), -p, pd_tol=pd_tol)


def abs_op(h) -> np.ndarray:
    """Spectral absolute value of a Hermitian matrix (flips negative eigenvalues)."""
    w, v = herm_eig(h)
    return hermitian_part((v * np.abs(w)) @ v.conj().T)


def op_norm(x) -> float:
    """Operator (spectral) norm: largest singular value, computed from the
    Hermitian eigenproblem of X*X."""
    m = as_cmatrix(x)
    if m.size == 0:
        return 0.0
    gram = hermitian_part(m.conj().T @ m)
    w, _ = herm_eig(gram)
    top = float(w[-1])
    return math.sqrt(top) if top > 0.0 else 0.0


def herm_norm(h) -> float:
    """Operator norm of a Hermitian matrix (max |eigenvalue|)."""
    w, _ = herm_eig(h)
    return float(np.max(np.abs(w))) if w.size else 0.0


class LoewnerResult(NamedTuple):
    ok: bool
    min_eigenvalue: float  # of B - A; >= -threshold when ok
    witness: np.ndarray  # unit vector attaining the minimum eigenvalue
    threshold: float


def loewner_leq(a, b, tol: float = 1e-9) -> LoewnerResult:
    """Test A <= B in the Loewner order within a relative tolerance.

    Passes iff the minimum eigenvalue of B - A is >= -tol * max(1, ||A||, ||B||);
    the witness is that eigenvalue's eigenvector.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    am = as_herm(a)
    bm = as_herm(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shape mismatch {am.shape} vs {bm.shape}")
    w, v = herm_eig(bm - am)
    threshold = tol * max(1.0, herm_norm(am), herm_norm(bm))
    lam = float(w[0])
    return LoewnerResult(lam >= -threshold, lam, v[:, 0].copy(), threshold)


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

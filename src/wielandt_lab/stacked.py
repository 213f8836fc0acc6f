"""Stacked kernels shared by ``search`` and ``verify``: many trials evaluated
at once on ``(B, n, n)`` arrays.

Draws come from the same per-trial generators, in the same order, as the
scalar generators (``gen_instance``, ``gen_operator``), so the instance stream
does not depend on how trials are grouped: a block hashes its sub-seeds with
``mix_seeds`` and seeds their generators in one vectorized pass
(``sampling.rngs_from``), each in the state ``default_rng`` gives.

Nothing here validates its input or raises: every test the scalar path could
fail is evaluated per lane with a guard band (twice or half the scalar
threshold) far wider than the ~1e-15 stacked-vs-scalar drift, and the flagged
lanes are handed back to the scalar path by the caller.
"""

from __future__ import annotations

import numpy as np

from .instances import TAG_ISOMETRIES, TAG_MAP, TAG_OPERATOR
from .maps import ISOMETRY_TOL, tensor_identity
from .matcore import PD_TOL, PSD_TOL, EigDecomp, herm_eig_stack, hermitian_part
from .sampling import mix_seeds, qr_positive, rngs_from


def adj(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def stack_scale(w: np.ndarray) -> np.ndarray:
    """Per-lane max(1, max |eigenvalue|), the scale of matcore's thresholds."""
    return np.maximum(1.0, np.abs(w).max(axis=-1))


def stack_pow(w: np.ndarray, v: np.ndarray, p: float, bad: np.ndarray) -> np.ndarray:
    """(v diag(w^p) v*) per lane; lanes in `bad` get eigenvalues 1 first, so
    nothing divides by zero (their values are discarded)."""
    w = np.where(bad[:, np.newaxis], 1.0, w)
    return hermitian_part((v * w[:, np.newaxis, :] ** p) @ adj(v))


def clamp_psd(w: np.ndarray) -> np.ndarray:
    """eig_pow_psd's clamp of negative eigenvalues to zero."""
    return np.where(w < 0.0, 0.0, w)


def not_pd(w: np.ndarray) -> np.ndarray:
    """Lanes that eig_pow_pd could reject as singular; NaN lanes included."""
    return ~(w[:, 0] > 2.0 * PD_TOL * stack_scale(w))


def top_abs(w: np.ndarray) -> np.ndarray:
    """Per-lane max |eigenvalue|, i.e. herm_norm of each matrix."""
    return np.abs(w).max(axis=-1)


def complex_draws(g: np.ndarray) -> np.ndarray:
    """(B, 2, r, c) standard normals, real block then imaginary block as
    complex_gaussian draws them, as (B, r, c) complex Gaussians."""
    return (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)


def draw_operator(rng: np.random.Generator, g: np.ndarray, lam: np.ndarray, m: float, M: float):
    """Fill one lane of gen_operator's draws: Gaussians, then eigenvalues."""
    rng.standard_normal(out=g)
    lam[:] = rng.uniform(m, M, size=lam.shape[-1])


def operator_stack(g: np.ndarray, lam: np.ndarray, m: float, M: float) -> np.ndarray:
    """gen_operator on stacks: Haar U, sorted eigenvalues pinned to m and M."""
    u = qr_positive(complex_draws(g))
    lam = np.sort(lam, axis=-1)
    lam[:, 0] = m
    lam[:, -1] = M
    return hermitian_part((u * lam[:, np.newaxis, :]) @ adj(u))


def compressed_products_stack(
    seed: int, trials, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """compressed_products of gen_instance(mix_seed(seed, trial), ...) for
    every trial index of `trials`.

    Returns (s, t, t_eig, bad): ``bad`` flags lanes whose Stinespring isometry
    check could fail or whose Phi(Y*AY) or Phi(X*AX) could be singular."""
    b, n, k = len(trials), rank, ancilla
    g_a = np.empty((b, 2, ambient, ambient))
    lam = np.empty((b, ambient))
    g_xy = np.empty((b, 2, ambient, ambient))
    g_w = np.empty((b, 2, rank * ancilla, out_dim))
    seeds = mix_seeds(seed, trials)[:, np.newaxis]
    rngs = rngs_from(mix_seeds(seeds, (TAG_OPERATOR, TAG_ISOMETRIES, TAG_MAP)))
    for i in range(b):
        draw_operator(next(rngs), g_a[i], lam[i], m, M)
        next(rngs).standard_normal(out=g_xy[i])
        next(rngs).standard_normal(out=g_w[i])
    a = operator_stack(g_a, lam, m, M)
    xy = qr_positive(complex_draws(g_xy))
    x, y = xy[..., :n], xy[..., n : 2 * n]
    w = qr_positive(complex_draws(g_w))
    gram = adj(w) @ w
    defect = np.linalg.norm(gram - np.eye(out_dim), axis=(-2, -1))
    bad = ~(defect <= 0.5 * ISOMETRY_TOL * np.maximum(1.0, np.linalg.norm(gram, axis=(-2, -1))))

    def phi(t):
        return adj(w) @ tensor_identity(t, k) @ w

    xh, yh = adj(x), adj(y)
    bxy = phi(xh @ a @ y)
    byx = phi(yh @ a @ x)
    c_w, c_v = herm_eig_stack(hermitian_part(phi(yh @ a @ y)))
    t = hermitian_part(phi(xh @ a @ x))
    t_w, t_v = herm_eig_stack(t)
    c_bad = not_pd(c_w)
    s = hermitian_part(bxy @ stack_pow(c_w, c_v, -1.0, c_bad) @ byx)
    bad |= c_bad | not_pd(t_w)
    return s, t, EigDecomp(t_w, t_v), bad


def gamma_stack(
    s: np.ndarray, t_eig: EigDecomp, bad: np.ndarray, m: float, M: float, p_values
) -> tuple:
    """gamma_from_products on stacks.  Returns (s_eig, bad, powers): S's
    eigendecomposition; `bad` widened by the lanes on which the spectrum
    window of T or the PSD check of S could fail (at half the scalar
    thresholds); and (S^p, Gamma = S^p T^{-p}) for each exponent."""
    s_w, s_v = herm_eig_stack(s)
    t_w, t_v = t_eig
    spread = 0.5e-8 * max(1.0, M)
    bad = bad | ~((t_w[:, 0] >= m - spread) & (t_w[:, -1] <= M + spread))
    bad |= ~(s_w[:, 0] >= -0.5 * PSD_TOL * stack_scale(s_w))
    s_psd = clamp_psd(s_w)
    powers = []
    for p in p_values:
        sp = stack_pow(s_psd, s_v, p, bad)
        powers.append((sp, sp @ stack_pow(t_w, t_v, -p, bad)))
    return EigDecomp(s_w, s_v), bad, powers

"""Stacked kernels shared by ``search`` and ``verify``: many trials evaluated
at once on ``(B, n, n)`` arrays.  They are the only implementation of the
compressed products, Gamma and the checks built on them; a single instance is
a stack of one (``instance_products``).

Draws come from the same per-trial generators, in the same order, as the
scalar generators (``gen_instance``, ``gen_operator``), so the instance stream
does not depend on how trials are grouped: a block hashes its sub-seeds with
``mix_seeds`` and seeds their generators in one vectorized pass
(``sampling.rngs_from``), each in the state ``default_rng`` gives.

Nothing here raises for one lane: every hypothesis a lane can fail is tested
at the threshold of the one-matrix code (``eig_pow_pd``, ``eig_pow_psd``,
``check_isometry``), and the lane's exception (the class and message that
code raises first) is recorded in a ``LaneErrors``.  The values of a flagged
lane are meaningless; its eigenvalues are replaced by 1 before any power, so
nothing divides by zero.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSD, PreconditionViolated, Singular
from .instances import TAG_ISOMETRIES, TAG_MAP, TAG_OPERATOR, Instance
from .maps import ISOMETRY_TOL, IdentityMap, StinespringMap, tensor_identity
from .matcore import PD_TOL, PSD_TOL, EigDecomp, as_cmatrix, herm_eig_stack, hermitian_part
from .sampling import mix_seeds, qr_positive, rngs_from


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


def top_abs(w: np.ndarray) -> np.ndarray:
    """Per-lane max |eigenvalue|, i.e. herm_norm of each matrix."""
    return np.abs(w).max(axis=-1)


def sqrt_top(w: np.ndarray) -> np.ndarray:
    """op_norm from the eigenvalues of X*X: sqrt of the top one, 0 unless > 0."""
    top = w[..., -1]
    return np.sqrt(np.where(top > 0.0, top, 0.0))


def flag_psd(errors: LaneErrors, w: np.ndarray) -> None:
    """eig_pow_psd's NotPSD: a minimum eigenvalue below -PSD_TOL * scale."""
    scale = stack_scale(w)
    errors.flag(w[:, 0] < -PSD_TOL * scale, lambda i: NotPSD(
        f"minimum eigenvalue {w[i, 0]:g} below -{PSD_TOL:g}*{scale[i]:g}"))


def flag_pd(errors: LaneErrors, w: np.ndarray) -> None:
    """eig_pow_pd's Singular: a minimum eigenvalue at most PD_TOL * scale."""
    scale = stack_scale(w)
    errors.flag(w[:, 0] <= PD_TOL * scale, lambda i: Singular(
        f"minimum eigenvalue {w[i, 0]:g} below {PD_TOL:g}*{scale[i]:g}"))


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


def draw_instances(
    seed: int, trials, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """(A, X, Y, W, errors) of gen_instance(mix_seed(seed, trial), ...) for
    every trial index of `trials`: `errors` holds the ValueError of each lane
    whose Stinespring isometry W fails gen_instance's isometry check."""
    b, n = len(trials), rank
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
    w = qr_positive(complex_draws(g_w))
    errors = LaneErrors(b)
    flag_isometry(errors, w)
    return a, xy[..., :n], xy[..., n : 2 * n], w, errors


def flag_isometry(errors: LaneErrors, w: np.ndarray) -> None:
    """check_isometry's ValueError on the lanes whose Stinespring isometry W
    does not have orthonormal columns."""
    gram = adj(w) @ w
    defect = np.linalg.norm(gram - np.eye(w.shape[-1]), axis=(-2, -1))
    errors.flag(defect > ISOMETRY_TOL * np.maximum(1.0, np.linalg.norm(gram, axis=(-2, -1))),
                lambda i: ValueError(
                    f"Stinespring isometry does not have orthonormal columns (defect {defect[i]:g})"))


def stinespring_stack(w: np.ndarray, k: int):
    """The map T -> W*(T (x) I_k)W on stacks of T."""
    return lambda t: adj(w) @ tensor_identity(t, k) @ w


def products_stack(a, x, y, phi, errors: LaneErrors) -> tuple:
    """compressed_products per lane: S = Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX)
    and T = Phi(X*AX), both symmetrized, with `phi` acting on stacks.
    Returns (S, T, T's eigendecomposition); flags lanes whose Phi(Y*AY) is
    singular."""
    xh, yh = adj(x), adj(y)
    bxy = phi(xh @ a @ y)
    byx = phi(yh @ a @ x)
    c_w, c_v = herm_eig_stack(hermitian_part(phi(yh @ a @ y)))
    t = hermitian_part(phi(xh @ a @ x))
    t_eig = herm_eig_stack(t)
    flag_pd(errors, c_w)
    s = hermitian_part(bxy @ stack_pow(c_w, c_v, -1.0, errors.bad) @ byx)
    return s, t, t_eig


def compressed_products_stack(
    seed: int, trials, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """products_stack of gen_instance(mix_seed(seed, trial), ...) for every
    trial index of `trials`; returns (S, T, T's eigendecomposition, errors)."""
    a, x, y, w, errors = draw_instances(seed, trials, ambient, rank, out_dim, ancilla, m, M)
    return (*products_stack(a, x, y, stinespring_stack(w, ancilla), errors), errors)


def map_stack(phi):
    """`phi` acting on stacks: identity and Stinespring maps through their
    isometry, any other map through its own ``apply``, lane by lane."""
    if isinstance(phi, IdentityMap):
        return stinespring_stack(np.eye(phi.dim, dtype=np.complex128), 1)
    if isinstance(phi, StinespringMap):
        return stinespring_stack(phi.w, phi.ancilla)
    return lambda t: np.stack([phi.apply(lane) for lane in t])


def instance_products(inst: Instance) -> tuple:
    """products_stack of one instance, as a stack of one.  Returns (S, T,
    T's eigendecomposition, errors)."""
    a = hermitian_part(as_cmatrix(inst.a, square=True))
    errors = LaneErrors(1)
    return (*products_stack(a[np.newaxis], inst.x[np.newaxis], inst.y[np.newaxis],
                            map_stack(inst.phi), errors), errors)


def gamma_stack(
    s: np.ndarray, t_eig: EigDecomp, errors: LaneErrors, m: float, M: float, p_values
) -> tuple:
    """Gamma = S^p T^{-p} on stacks.  Flags, in this order, the lanes on which
    T's spectrum escapes [m, M] by more than 1e-8 max(1, M), S is not PSD or
    T is singular.  Returns (S's eigendecomposition, [(S^p, Gamma)] for each
    exponent)."""
    s_w, s_v = herm_eig_stack(s)
    t_w, t_v = t_eig
    spread = 1e-8 * max(1.0, M)
    t_lo, t_hi = t_w[:, 0], t_w[:, -1]
    errors.flag((t_lo < m - spread) | (t_hi > M + spread), lambda i: PreconditionViolated(
        f"compressed operator spectrum [{t_lo[i]:g}, {t_hi[i]:g}] escapes [{m:g}, {M:g}]"))
    flag_psd(errors, s_w)
    flag_pd(errors, t_w)
    bad = errors.bad
    s_psd = clamp_psd(s_w)
    powers = []
    for p in p_values:
        sp = stack_pow(s_psd, s_v, p, bad)
        powers.append((sp, sp @ stack_pow(t_w, t_v, -p, bad)))
    return EigDecomp(s_w, s_v), powers

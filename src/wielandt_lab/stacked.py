"""Stacked kernels shared by ``search`` and ``verify``: many trials evaluated
at once on ``(B, n, n)`` arrays.  They are the only implementation of the
compressed products, Gamma and the checks built on them; a single instance is
a stack of one (``instance_products``).

A block of trials draws its instances with ``instances.draw_instances``: it
hashes the trials' sub-seeds with ``mix_seeds`` and seeds their generators in
one vectorized pass (``sampling.rngs_from``), each in the state
``default_rng`` gives, so the instance stream does not depend on how trials
are grouped.

Nothing here raises for one lane: every hypothesis a lane can fail is tested
by a stacked guard (``matcore.flag_pd``, ``matcore.flag_psd``,
``maps.flag_isometry``), and the lane's exception (the class and message the
first failing guard gives) is recorded in a ``LaneErrors``.  The values of a
flagged lane are meaningless; its eigenvalues are replaced by 1 before any
power, so nothing divides by zero.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated
from .instances import INSTANCE_TAGS, Instance, draw_instances
from .maps import IdentityMap, StinespringMap, flag_isometry, tensor_identity
from .matcore import (
    EigDecomp,
    LaneErrors,
    adj,
    as_cmatrix,
    clamp_psd,
    flag_pd,
    flag_psd,
    herm_eig_stack,
    hermitian_part,
    stack_pow,
)
from .sampling import mix_seeds, rngs_from


def top_abs(w: np.ndarray) -> np.ndarray:
    """Per-lane max |eigenvalue|, i.e. herm_norm of each matrix."""
    return np.abs(w).max(axis=-1)


def sqrt_top(w: np.ndarray) -> np.ndarray:
    """op_norm from the eigenvalues of X*X: sqrt of the top one, 0 unless > 0."""
    top = w[..., -1]
    return np.sqrt(np.where(top > 0.0, top, 0.0))


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
    seeds = mix_seeds(seed, trials)[:, np.newaxis]
    rngs = rngs_from(mix_seeds(seeds, INSTANCE_TAGS).T)  # every lane's operator seed first
    a, x, y, w = draw_instances(rngs, len(trials), ambient, rank, out_dim, ancilla, m, M)
    errors = LaneErrors(len(trials))
    flag_isometry(errors, w, "Stinespring isometry")
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

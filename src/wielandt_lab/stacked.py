"""Stacked kernels shared by ``search`` and ``verify``: many trials evaluated
at once on ``(B, n, n)`` arrays.  They are the only implementation of the
compressed products S and T and of Gamma; a single instance is a stack of one
(``instance_products``).  The map acts on stacks through ``maps.map_stack``.

A block of trials draws its instances with ``instances.draw_instances`` from
the generators its caller seeds in one vectorized pass (``sampling.rngs_from``
over ``instances.instance_seeds``), each in the state ``default_rng`` gives,
so the instance stream does not depend on how trials are grouped.

Gamma is built for an exponent grid at once: ``flag_gamma`` guards its
hypotheses and solves S's eigenproblem once per block, and ``gamma_stack``
returns S^p and Gamma for a group of P exponents as ``(P, B, n, n)`` stacks.

Nothing here raises for one lane: every hypothesis a lane can fail is tested
by a stacked guard (``matcore.flag_pd``, ``matcore.flag_psd``,
``maps.flag_isometry``, ``flag_spectrum``), and the lane's exception (the
class and message the first failing guard gives) is recorded in a
``LaneErrors``.  The values of a flagged lane are meaningless; its
eigenvalues are replaced by 1 before any power, so nothing divides by zero.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated
from .instances import Instance, draw_instances
from .maps import flag_isometry, map_stack, stinespring_stack
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
    stack_pows,
)


def products_stack(a, x, y, phi, errors: LaneErrors) -> tuple:
    """compressed_products per lane: S = Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX)
    and T = Phi(X*AX), both symmetrized, with `phi` acting on stacks.
    Returns (S, T, T's eigendecomposition); flags lanes whose Phi(Y*AY) is
    singular."""
    xa, ya = adj(x) @ a, adj(y) @ a
    bxy = phi(xa @ y)
    byx = phi(ya @ x)
    c_w, c_v = herm_eig_stack(hermitian_part(phi(ya @ y)))
    t = hermitian_part(phi(xa @ x))
    t_eig = herm_eig_stack(t)
    flag_pd(errors, c_w)
    s = hermitian_part(bxy @ stack_pow(c_w, c_v, -1.0, errors.bad) @ byx)
    return s, t, t_eig


def compressed_products_stack(
    rngs, lanes: int, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """products_stack of the `lanes` instances draw_instances draws from
    `rngs`: gen_instance(seed, ...) per lane when `rngs` are seeded with
    instance_seeds.  Returns (S, T, T's eigendecomposition, errors)."""
    a, x, y, w = draw_instances(rngs, lanes, ambient, rank, out_dim, ancilla, m, M)
    errors = LaneErrors(lanes)
    flag_isometry(errors, w, "Stinespring isometry")
    return (*products_stack(a, x, y, stinespring_stack(w, ancilla), errors), errors)


def instance_products(inst: Instance) -> tuple:
    """products_stack of one instance, as a stack of one.  Returns (S, T,
    T's eigendecomposition, errors)."""
    a = hermitian_part(as_cmatrix(inst.a, square=True))
    errors = LaneErrors(1)
    return (*products_stack(a[np.newaxis], inst.x[np.newaxis], inst.y[np.newaxis],
                            map_stack(inst.phi), errors), errors)


def flag_gamma(
    s: np.ndarray, t_eig: EigDecomp, errors: LaneErrors, m: float, M: float
) -> EigDecomp:
    """The hypotheses of Gamma = S^p T^{-p} on stacks.  Flags, in this order,
    the lanes on which T's spectrum escapes [m, M] (``flag_spectrum``), S is
    not PSD or T is singular.  Returns S's eigendecomposition."""
    s_eig = herm_eig_stack(s)
    flag_spectrum(errors, t_eig.eigenvalues, m, M)
    flag_psd(errors, s_eig.eigenvalues)
    flag_pd(errors, t_eig.eigenvalues)
    return s_eig


def flag_spectrum(errors: LaneErrors, w: np.ndarray, m: float, M: float) -> None:
    """PreconditionViolated on the lanes whose ascending eigenvalues `w`
    escape [m, M] by more than 1e-8 max(1, M)."""
    spread = 1e-8 * max(1.0, M)
    lo, hi = w[:, 0], w[:, -1]
    errors.flag((lo < m - spread) | (hi > M + spread), lambda i: PreconditionViolated(
        f"compressed operator spectrum [{lo[i]:g}, {hi[i]:g}] escapes [{m:g}, {M:g}]"))


def gamma_stack(s_eig: EigDecomp, t_eig: EigDecomp, bad: np.ndarray, p_values) -> tuple:
    """(S^p, Gamma = S^p T^{-p}) for each exponent of `p_values`, as
    (P, B, n, n) stacks, from the decompositions of S (see flag_gamma) and
    T; S's negative eigenvalues are clamped to zero and the lanes in `bad`
    are meaningless."""
    s_w, s_v = s_eig
    sp = stack_pows(clamp_psd(s_w), s_v, p_values, bad)
    return sp, sp @ stack_pows(*t_eig, [-p for p in p_values], bad)

"""Stacked kernels shared by ``search`` and ``verify``: many trials evaluated
at once on ``(B, n, n)`` arrays.  They are the only implementation of the
compression ``C' = (id_2 (x) Phi)([X Y]* A [X Y])`` (``compression_stack``),
the one way an instance reaches the kernels, of the compressed products S
and T read off it, and of Gamma; a single instance is a stack of one
(``instance_products``).  C' is one product ``Z* A Z``, Z = [X Y], mapped
whole by id_2 (x) Phi (``maps.lift_stack``; a sampled block's Stinespring
maps through ``maps.stinespring_lift``), and S is read off it without
inverting ``C'_yy``: a sampled conjecture lane takes eight stacked products,
four of them 2x2 by 2x2 at d = 2, which ``matcore.matprod`` takes in closed
form.

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
from .maps import flag_isometry, lift_stack, stinespring_lift
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
    matprod,
    stack_pows,
)


def compression_stack(a, x, y, lift) -> np.ndarray:
    """C' = (id_2 (x) Phi)(Z* A Z), Z = [X Y], per lane, as a (B, 2d, 2d)
    stack: C0 = Z* A Z is one product, and `lift`, id_2 (x) Phi acting on
    (B, 2n, 2n) stacks (``maps.lift_stack``), maps it whole."""
    z = np.concatenate((x, y), axis=-1)
    return lift(adj(z) @ a @ z)


def products_stack(c: np.ndarray, errors: LaneErrors) -> tuple:
    """compressed_products per lane of C' (see compression_stack):
    S = C'_xy C'_yy^{-1} C'_yx and T = C'_xx, both symmetrized.  S is read as
    B* diag(1/w) B with B = V* C'_yx, where C'_yy = V diag(w) V*: C' is
    Hermitian for a map that preserves adjoints, so C'_xy = C'_yx*, and
    C'_yy^{-1} is never formed.  Returns (S, T, T's eigendecomposition);
    flags lanes whose C'_yy = Phi(Y*AY) is singular, whose w count as 1."""
    d = c.shape[-1] // 2
    t = hermitian_part(c[:, :d, :d])
    (c_w, t_w), (c_v, t_v) = herm_eig_stack(np.stack([hermitian_part(c[:, d:, d:]), t]))
    t_eig = EigDecomp(t_w, t_v)
    flag_pd(errors, c_w)
    b = matprod(adj(c_v), c[:, d:, :d])
    scaled = b / np.where(errors.bad[:, np.newaxis], 1.0, c_w)[..., np.newaxis]
    return hermitian_part(matprod(adj(b), scaled)), t, t_eig


def compressed_products_stack(
    rngs, lanes: int, ambient: int, rank: int, out_dim: int, ancilla: int, m: float, M: float
) -> tuple:
    """products_stack of the `lanes` instances draw_instances draws from
    `rngs`: gen_instance(seed, ...) per lane when `rngs` are seeded with
    instance_seeds.  Returns (S, T, T's eigendecomposition, errors)."""
    a, x, y, w = draw_instances(rngs, lanes, ambient, rank, out_dim, ancilla, m, M)
    errors = LaneErrors(lanes)
    flag_isometry(errors, w, "Stinespring isometry")
    c = compression_stack(a, x, y, stinespring_lift(w, ancilla))
    return (*products_stack(c, errors), errors)


def instance_compression(inst: Instance) -> np.ndarray:
    """compression_stack of one instance, as a stack of one."""
    a = hermitian_part(as_cmatrix(inst.a, square=True))
    return compression_stack(a[np.newaxis], inst.x[np.newaxis], inst.y[np.newaxis],
                             lift_stack(inst.phi))


def instance_products(inst: Instance) -> tuple:
    """products_stack of one instance, as a stack of one.  Returns (S, T,
    T's eigendecomposition, errors)."""
    errors = LaneErrors(1)
    return (*products_stack(instance_compression(inst), errors), errors)


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
    return sp, matprod(sp, stack_pows(*t_eig, [-p for p in p_values], bad))

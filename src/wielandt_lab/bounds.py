"""Bound families, inequality checks, and lemma certifications.

For an instance (A, m, M, X, Y, Phi) and exponent p > 0 the central object is

    Gamma = (Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX))^p  Phi(X*AX)^{-p},

built strictly by spectral calculus on its two Hermitian factors S and T.
Three scalar bound families (``bound_thm1/2/3``) dominate both (Gamma+Gamma*)/2
and its spectral absolute value.

Every check yields one ``Report`` record: the check's name, its verdict, a
signed margin (None for the boolean meta-check ``abs_implies_sym``) and the
rest of its JSON form.  Margin conventions: Loewner-style checks report the
minimum eigenvalue of (bound side - lhs side); scalar checks report
(bound - lhs).  A check passes when its margin is >= -tol * max(1, |lhs|,
|bound|).

``run_instance_checks`` and ``run_lemma_trial`` build the reports of one
trial; the CLI's ``verify`` runs nothing else on the scalar path.  Their
stacked counterparts, ``instance_checks_stack`` and
``lemma_checks_stack``, evaluate the same checks on blocks of trials and
return only per-lane margins plus the lanes that passed every check with
``GUARD_BAND`` to spare and raised no precondition flag; any other lane is
left to the scalar drivers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidBounds, NotPSD, PreconditionViolated
from .instances import Instance, check_bounds, gen_operator
from .matcore import (
    PSD_TOL,
    EigDecomp,
    as_cmatrix,
    as_herm,
    check_exponent,
    eig_pow_pd,
    eig_pow_psd,
    herm_eig,
    herm_eig_stack,
    herm_norm,
    hermitian_part,
    mat_pow,
    op_norm,
)
from .sampling import (
    complex_gaussian, haar_unitary, mix_seed, mix_seeds, qr_positive, rng_from, rngs_from,
)
from .stacked import (
    adj,
    clamp_psd,
    complex_draws,
    draw_operator,
    gamma_stack,
    operator_stack,
    stack_pow,
    stack_scale,
    top_abs,
)

DEFAULT_TOL = 1e-9
ORDERING_TOL = 1e-12

# Deterministic emission order for aggregated reports.
ALL_CHECK_NAMES = (
    "bhatia_davis",
    "thm1_abs",
    "thm1_sym",
    "thm2_abs",
    "thm2_sym",
    "thm3_abs",
    "thm3_sym",
    "abs_implies_sym",
    "sym_norm_le_gamma",
    "gamma_norm_le_thm2",
    "thm1_chain",
    "power_monotone",
    "block_norm_equivalence",
    "square_order",
    "anticommutator_norm",
    "scalar_wielandt",
    "trial_error",
)


def check_tol(tol: float) -> float:
    """tol as a float; raises ValueError unless it is finite and >= 0."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"need a finite tol >= 0, got {tol!r}")
    return tol


def wielandt_factor(m: float, M: float) -> float:
    """((M - m)/(M + m))^2, the square of the spectral contrast."""
    m, M = check_bounds(m, M)
    return ((M - m) / (M + m)) ** 2


def ceil_exponent(p: float) -> int:
    """Ceiling of p with exponents within 1e-12 of an integer snapped first,
    so float parsing cannot flip the discontinuity."""
    p = check_exponent(p)
    nearest = round(p)
    if abs(p - nearest) <= 1e-12 and nearest >= 1:
        return int(nearest)
    return int(math.ceil(p))


def bound_thm1(m: float, M: float, p: float) -> float:
    """Arithmetic-mean bound: (((M-m)/(M+m))^{4p} M^{2p} + m^{-2p}) / 2."""
    m, M = check_bounds(m, M)
    p = check_exponent(p)
    ratio = (M - m) / (M + m)
    return (ratio ** (4.0 * p) * M ** (2.0 * p) + m ** (-2.0 * p)) / 2.0


def bound_thm2(m: float, M: float, p: float) -> float:
    """Two-branch bound: ((M-m)/(M+m))^{2p} for 0 < p <= 1/2, times (M/m)^p
    beyond; the left branch is closed at p = 1/2."""
    m, M = check_bounds(m, M)
    p = check_exponent(p)
    base = ((M - m) / (M + m)) ** (2.0 * p)
    if p <= 0.5:
        return base
    return base * (M / m) ** p


def bound_thm3(m: float, M: float, p: float) -> float:
    """Ceiling-exponent bound:
    ((M-m)/(M+m))^{2p} * (((M/m)^{p/2} + (m/M)^{p/2}) / 2)^{ceil(p)}."""
    m, M = check_bounds(m, M)
    p = check_exponent(p)
    base = ((M - m) / (M + m)) ** (2.0 * p)
    mean = ((M / m) ** (p / 2.0) + (m / M) ** (p / 2.0)) / 2.0
    return base * mean ** ceil_exponent(p)


def crossover_threshold(m: float, M: float) -> float:
    """2 + 2 log 2 / log(M/m): beyond this exponent the two-branch bound is
    tighter again than the ceiling-exponent bound."""
    m, M = check_bounds(m, M)
    if M == m:
        raise InvalidBounds("crossover undefined for m == M")
    return 2.0 + 2.0 * math.log(2.0) / math.log(M / m)


def square_order_factor(m: float, M: float) -> float:
    """(M+m)^2 / (4Mm), the constant of the square-order lemma A^2 <= c B^2."""
    return (M + m) ** 2 / (4.0 * M * m)


def _evaluate(fn, *args) -> float:
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        return math.nan


def check_in_range(
    m: float, M: float, p_values=(), bounds=(bound_thm1, bound_thm2, bound_thm3),
    square_order: bool = False,
) -> None:
    """Raise InvalidBounds unless every constant a command evaluates at (m, M)
    is a finite, normal double > 0: each of `bounds` at each p, the contrast
    power ((M-m)/(M+m))^(2p) that bound_thm2 and bound_thm3 scale (when it is
    subnormal the bound keeps few significant bits, though it looks normal)
    and, with `square_order`, the top eigenvalue scale c M^2 of the
    square-order lemma's c B^2.  At m == M bound_thm2 and bound_thm3 are
    exactly 0 and are not checked."""
    scaled = M > m and (bound_thm2 in bounds or bound_thm3 in bounds)
    terms = {}
    for p in p_values:
        for fn in bounds:
            if M > m or fn is bound_thm1:
                terms[f"{fn.__name__} at p={p!r}"] = _evaluate(fn, m, M, p)
        if scaled:
            terms[f"((M-m)/(M+m))^(2p) at p={p!r}"] = ((M - m) / (M + m)) ** (2.0 * p)
    if square_order:
        terms["(M+m)^2/(4Mm) * M^2"] = _evaluate(lambda: square_order_factor(m, M) * M**2)
    for name, value in terms.items():
        if not (math.isfinite(value) and value >= sys.float_info.min):
            raise InvalidBounds(
                f"{name} leaves the double range for m={m!r}, M={M!r}"
                " (it must be a finite, normal double > 0)"
            )


@dataclass
class Report:
    """Outcome of one check on one trial.  `payload` holds the rest of the
    check's JSON form, in emission order; every verdict is a Python bool."""

    check: str
    passed: bool
    margin: Optional[float]
    payload: dict

    def to_json(self) -> dict:
        return {"check": self.check, **self.payload}


def _inequality(
    check: str,
    lhs: float,
    bound: float,
    margin: float,
    loewner_pass: Optional[bool],
    norm_pass: bool,
    tol: float,
    context: dict,
    witness: Optional[tuple] = None,
) -> Report:
    """Report of an inequality check in Loewner and/or norm form; `witness`
    is (eigenvalue, eigenvector) at the margin."""
    loewner_pass = None if loewner_pass is None else bool(loewner_pass)
    norm_pass = bool(norm_pass)
    payload = {
        "lhs": lhs,
        "bound": bound,
        "margin": margin,
        "loewner_pass": loewner_pass,
        "norm_pass": norm_pass,
        "tol": tol,
    }
    for key in ("seed", "dims", "m", "M", "p"):
        payload[key] = context.get(key)
    if witness is not None:
        value, vector = witness
        payload["witness"] = {
            "eigenvalue": value,
            "re": vector.real.tolist(),
            "im": vector.imag.tolist(),
        }
    # passes when every verdict the check has (the Loewner one is optional) passes
    return Report(check, norm_pass and loewner_pass is not False, margin, payload)


def _threshold(tol: float, *magnitudes: float) -> float:
    return tol * max(1.0, *(abs(v) for v in magnitudes))


# ---------------------------------------------------------------------------
# Gamma assembly
# ---------------------------------------------------------------------------


def compressed_products(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(S, T) with S = Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX) and T = Phi(X*AX),
    both symmetrized.  S is PSD because the map preserves adjoints."""
    a = hermitian_part(as_cmatrix(inst.a, square=True))
    xh = inst.x.conj().T
    yh = inst.y.conj().T
    bxy = inst.phi.apply(xh @ a @ inst.y)
    byx = inst.phi.apply(yh @ a @ inst.x)
    c = hermitian_part(inst.phi.apply(yh @ a @ inst.y))
    t = hermitian_part(inst.phi.apply(xh @ a @ inst.x))
    c_inv = eig_pow_pd(herm_eig(c), -1.0)
    s = hermitian_part(bxy @ c_inv @ byx)
    return s, t


@dataclass(eq=False)
class GammaParts:
    """S, T, the exponent, and Gamma = S^p T^{-p}, with the two spectral
    decompositions cached for downstream checks."""

    s: np.ndarray
    t: np.ndarray
    p: float
    gamma: np.ndarray
    m: float
    M: float
    s_eig: EigDecomp
    t_eig: EigDecomp


def gamma_from_products(
    s: np.ndarray,
    t: np.ndarray,
    p: float,
    m: float,
    M: float,
    s_eig: Optional[EigDecomp] = None,
    t_eig: Optional[EigDecomp] = None,
) -> GammaParts:
    p = check_exponent(p)
    m, M = check_bounds(m, M)
    if s_eig is None:
        s_eig = herm_eig(s)
    if t_eig is None:
        t_eig = herm_eig(t)
    spread = 1e-8 * max(1.0, M)
    t_lo = float(t_eig.eigenvalues[0])
    t_hi = float(t_eig.eigenvalues[-1])
    if t_lo < m - spread or t_hi > M + spread:
        raise PreconditionViolated(
            f"compressed operator spectrum [{t_lo:g}, {t_hi:g}] escapes [{m:g}, {M:g}]"
        )
    g = eig_pow_psd(s_eig, p) @ eig_pow_pd(t_eig, -p)
    return GammaParts(s=s, t=t, p=p, gamma=g, m=m, M=M, s_eig=s_eig, t_eig=t_eig)


class LhsValues(NamedTuple):
    half_abs: np.ndarray  # |Gamma + Gamma*| / 2
    half_sym: np.ndarray  # (Gamma + Gamma*) / 2
    half_abs_norm: float


def _half_sym_eig(g: GammaParts) -> tuple[np.ndarray, EigDecomp]:
    half_sym = (g.gamma + g.gamma.conj().T) / 2.0
    return half_sym, herm_eig(half_sym)


def lhs_values(g: GammaParts) -> LhsValues:
    """Both left-hand sides; the symmetrized form never exceeds its absolute
    value in the Loewner order."""
    half_sym, (w, v) = _half_sym_eig(g)
    half_abs = hermitian_part((v * np.abs(w)) @ v.conj().T)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    return LhsValues(half_abs, half_sym, norm)


# ---------------------------------------------------------------------------
# Instance-level checks
# ---------------------------------------------------------------------------


def _bound_fn(which: int):
    return (bound_thm1, bound_thm2, bound_thm3)[which - 1]


def chain_report(
    g: GammaParts,
    half_sum_norm: float,
    tol: float = DEFAULT_TOL,
    context: Optional[dict] = None,
) -> Report:
    """Link-by-link certification of the norm chain behind the
    arithmetic-mean bound: ||Gamma+Gamma*||/2 <= ||S^{2p}+T^{-2p}||/2
    <= (||S||^{2p} + ||T^{-1}||^{2p})/2 <= bound_thm1, where
    `half_sum_norm` = ||Gamma+Gamma*||/2 (lhs_values' half_abs_norm)."""
    p = g.p
    context = context or {}
    s2p = eig_pow_psd(g.s_eig, 2.0 * p)
    t2pinv = eig_pow_pd(g.t_eig, -2.0 * p)
    mixed_norm = herm_norm(s2p + t2pinv) / 2.0
    s_norm = max(float(g.s_eig.eigenvalues[-1]), 0.0)
    t_inv_norm = 1.0 / float(g.t_eig.eigenvalues[0])
    split = (s_norm ** (2.0 * p) + t_inv_norm ** (2.0 * p)) / 2.0
    top = bound_thm1(g.m, g.M, p)
    links = (half_sum_norm, mixed_norm, split, top)
    margins = tuple(
        links[i + 1] - links[i] + _threshold(tol, links[i], links[i + 1])
        for i in range(3)
    )
    passed = all(mg >= 0.0 for mg in margins)
    raw_margins = [links[i + 1] - links[i] for i in range(3)]
    payload = {"links": list(links), "link_margins": raw_margins, "passed": passed, "tol": tol}
    payload.update((key, context.get(key)) for key in ("seed", "m", "M", "p"))
    return Report("thm1_chain", passed, min(raw_margins), payload)


def power_monotone_report(
    g: GammaParts, tol: float = DEFAULT_TOL, context: Optional[dict] = None
) -> Optional[Report]:
    """Loewner power inequality S^p <= ((M-m)/(M+m))^{2p} T^p, valid for
    0 < p <= 1 (operator monotonicity of fractional powers); None otherwise."""
    if g.p > 1.0 + 1e-12:
        return None
    factor = wielandt_factor(g.m, g.M) ** g.p
    sp = eig_pow_psd(g.s_eig, g.p)
    tp = eig_pow_pd(g.t_eig, g.p)
    w, v = herm_eig(factor * tp - sp)
    lam_min = float(w[0])
    lhs_norm = max(float(g.s_eig.eigenvalues[-1]), 0.0) ** g.p
    bound_norm = factor * float(g.t_eig.eigenvalues[-1]) ** g.p
    thr = _threshold(tol, lhs_norm, bound_norm)
    return _inequality(
        "power_monotone", lhs_norm, bound_norm, lam_min, lam_min >= -thr,
        lhs_norm <= bound_norm + thr, tol, context or {}, (lam_min, v[:, 0]),
    )


# ---------------------------------------------------------------------------
# Lemma and scalar checks
# ---------------------------------------------------------------------------


def check_lemma_block_equivalence(x, t: float, tol: float = DEFAULT_TOL) -> Report:
    """Evaluate |X| <= tI, ||X|| <= t, and [[tI, X], [X*, tI]] >= 0 by three
    separate routes; passes when all three verdicts agree.  The margin is the
    distance |t - ||X||| from the boundary where they could split."""
    xm = as_cmatrix(x, square=True)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"need t >= 0, got {t!r}")
    n = xm.shape[0]
    x_norm = op_norm(xm)
    thr = _threshold(tol, t, x_norm)

    abs_x = mat_pow(hermitian_part(xm.conj().T @ xm), 0.5)
    abs_ok = float(herm_eig(abs_x).eigenvalues[-1]) <= t + thr

    norm_ok = x_norm <= t + thr

    eye = np.eye(n, dtype=np.complex128)
    block = np.block([[t * eye, xm], [xm.conj().T, t * eye]])
    w, _ = herm_eig(block)
    block_ok = float(w[0]) >= -thr

    agree = abs_ok == norm_ok == block_ok
    payload = {
        "t": t,
        "x_norm": x_norm,
        "abs_ok": abs_ok,
        "norm_ok": norm_ok,
        "block_ok": block_ok,
        "agree": agree,
        "tol": tol,
    }
    return Report("block_norm_equivalence", agree, abs(t - x_norm), payload)


def check_lemma_square_order(a, b, m: float, M: float, tol: float = DEFAULT_TOL) -> Report:
    """Given 0 <= A <= B with spectrum(B) inside [m, M], certify the
    Kantorovich-type squared comparison A^2 <= ((M+m)^2 / 4Mm) B^2."""
    m, M = check_bounds(m, M)
    am = as_herm(a)
    bm = as_herm(b)
    wa, _ = herm_eig(am)
    wb, _ = herm_eig(bm)
    pre_thr = _threshold(tol, float(np.max(np.abs(wa))), float(np.max(np.abs(wb))))
    if float(wa[0]) < -pre_thr:
        raise PreconditionViolated(f"A has negative eigenvalue {wa[0]:g}")
    gap = herm_eig(bm - am).eigenvalues[0]
    if float(gap) < -pre_thr:
        raise PreconditionViolated(f"A <= B fails by {gap:g}")
    if float(wb[0]) < m - pre_thr or float(wb[-1]) > M + pre_thr:
        raise PreconditionViolated(
            f"spectrum of B [{wb[0]:g}, {wb[-1]:g}] escapes [{m:g}, {M:g}]"
        )
    factor = square_order_factor(m, M)
    lhs_sq = hermitian_part(am @ am)
    rhs_sq = factor * hermitian_part(bm @ bm)
    w, v = herm_eig(rhs_sq - lhs_sq)
    lam_min = float(w[0])
    lhs_norm = herm_norm(lhs_sq)
    rhs_norm = herm_norm(rhs_sq)
    thr = _threshold(tol, lhs_norm, rhs_norm)
    return _inequality(
        "square_order", lhs_norm, rhs_norm, lam_min, lam_min >= -thr,
        lhs_norm <= rhs_norm + thr, tol, {"m": m, "M": M}, (lam_min, v[:, 0]),
    )


def check_fact_norm_anticommutator(a, b, tol: float = DEFAULT_TOL) -> Report:
    """||AB + BA|| <= ||A^2 + B^2|| for PSD A, B."""
    am = as_herm(a)
    bm = as_herm(b)
    for name, mat in (("A", am), ("B", bm)):
        w, _ = herm_eig(mat)
        if float(w[0]) < -_threshold(tol, float(np.max(np.abs(w)))):
            raise NotPSD(f"{name} has negative eigenvalue {w[0]:g}")
    lhs = herm_norm(hermitian_part(am @ bm + bm @ am))
    rhs = herm_norm(hermitian_part(am @ am + bm @ bm))
    thr = _threshold(tol, lhs, rhs)
    return _inequality("anticommutator_norm", lhs, rhs, rhs - lhs, None, lhs <= rhs + thr, tol, {})


def check_scalar_wielandt(x, y, a, m: float, M: float, tol: float = DEFAULT_TOL) -> Report:
    """Classical scalar Wielandt inequality for orthogonal vectors x, y:
    |<x, Ay>|^2 <= ((M-m)/(M+m))^2 <x, Ax> <y, Ay>."""
    m, M = check_bounds(m, M)
    xv = np.asarray(x, dtype=np.complex128).reshape(-1)
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    am = as_herm(a)
    if xv.shape != yv.shape or am.shape[0] != xv.shape[0]:
        raise PreconditionViolated("vector/matrix dimensions do not match")
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    if abs(np.vdot(xv, yv)) > tol * max(1.0, nx * ny):
        raise PreconditionViolated("x and y are not orthogonal within tolerance")
    w, _ = herm_eig(am)
    pre_thr = _threshold(tol, float(np.max(np.abs(w))))
    if float(w[0]) < m - pre_thr or float(w[-1]) > M + pre_thr:
        raise PreconditionViolated(
            f"spectrum [{w[0]:g}, {w[-1]:g}] escapes [{m:g}, {M:g}]"
        )
    lhs = abs(np.vdot(xv, am @ yv)) ** 2
    rhs = (
        wielandt_factor(m, M)
        * float(np.vdot(xv, am @ xv).real)
        * float(np.vdot(yv, am @ yv).real)
    )
    thr = _threshold(tol, lhs, rhs)
    return _inequality(
        "scalar_wielandt", float(lhs), float(rhs), float(rhs - lhs), None, lhs <= rhs + thr,
        tol, {"m": m, "M": M},
    )


# ---------------------------------------------------------------------------
# Bound comparison and the documented tail-comparison note
# ---------------------------------------------------------------------------


@dataclass
class BoundComparison:
    m: float
    M: float
    p: float
    thm1: float
    thm2: float
    thm3: float
    tightest: str
    p_star: Optional[float]
    orderings: dict
    ok: bool

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "M": self.M,
            "p": self.p,
            "thm1": self.thm1,
            "thm2": self.thm2,
            "thm3": self.thm3,
            "tightest": self.tightest,
            "p_star": self.p_star,
            "orderings": dict(self.orderings),
            "ok": self.ok,
        }


def compare_bounds(m: float, M: float, p: float, tol: float = ORDERING_TOL) -> BoundComparison:
    """All three bounds plus the expected-region orderings: the arithmetic-mean
    bound never beats the two-branch bound; the ceiling-exponent bound loses
    for p <= 1/2, wins for 1/2 < p <= 2, and loses again past the crossover."""
    m, M = check_bounds(m, M)
    p = check_exponent(p)
    b1 = bound_thm1(m, M, p)
    b2 = bound_thm2(m, M, p)
    b3 = bound_thm3(m, M, p)
    values = {"thm1": b1, "thm2": b2, "thm3": b3}
    tightest = min(values, key=lambda k: (values[k], k))
    p_star = crossover_threshold(m, M) if M > m else None
    orderings = {"thm1_ge_thm2": b1 >= b2 - _threshold(tol, b1, b2)}
    if p <= 0.5:
        orderings["thm3_ge_thm2"] = b3 >= b2 - _threshold(tol, b2, b3)
    elif p <= 2.0:
        orderings["thm3_le_thm2"] = b3 <= b2 + _threshold(tol, b2, b3)
    if p_star is not None and p > p_star:
        orderings["thm2_le_thm3"] = b2 <= b3 + _threshold(tol, b2, b3)
    return BoundComparison(
        m=m,
        M=M,
        p=p,
        thm1=b1,
        thm2=b2,
        thm3=b3,
        tightest=tightest,
        p_star=p_star,
        orderings=orderings,
        ok=all(orderings.values()),
    )


def thm2_tail_note(m: float, M: float, p_values) -> dict:
    """Flagged note: the tail comparison bound_thm2 >= ((M-m)/(M+m))^p with a
    single exponent fails whenever M < (1 + sqrt 2) m, while the doubled
    exponent ((M-m)/(M+m))^{2p} is dominated for every p."""
    m, M = check_bounds(m, M)
    ratio = (M - m) / (M + m)
    cases = []
    for p in p_values:
        p = check_exponent(p)
        b2 = bound_thm2(m, M, p)
        single = ratio**p
        double = ratio ** (2.0 * p)
        cases.append(
            {
                "p": p,
                "thm2": b2,
                "single_exponent_rhs": single,
                "single_holds": b2 >= single - _threshold(ORDERING_TOL, b2, single),
                "double_exponent_rhs": double,
                "double_holds": b2 >= double - _threshold(ORDERING_TOL, b2, double),
            }
        )
    return {
        "id": "thm2_tail_comparison",
        "m": m,
        "M": M,
        "contrast_boundary": (1.0 + math.sqrt(2.0)) * m,
        "cases": cases,
        "note": (
            "The single-exponent tail comparison thm2 >= ((M-m)/(M+m))^p fails "
            "for M below (1+sqrt(2))*m; the doubled-exponent variant "
            "thm2 >= ((M-m)/(M+m))^(2p) holds for every p > 0."
        ),
    }


# ---------------------------------------------------------------------------
# Batch drivers (used by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------


def run_instance_checks(inst: Instance, p_values, tol: float = DEFAULT_TOL) -> list:
    """Every per-instance check for each exponent, sharing one set of spectral
    decompositions; returns Reports (see the module docstring for margin
    conventions)."""
    m, M = inst.m, inst.M
    base_ctx = {"seed": inst.seed, "m": m, "M": M}
    s, t = compressed_products(inst)
    s_eig = herm_eig(s)
    t_eig = herm_eig(t)

    # the operator Wielandt inequality S <= ((M-m)/(M+m))^2 T
    factor = wielandt_factor(m, M)
    w, v = herm_eig(factor * t - s)
    lam_min = float(w[0])
    s_norm = float(np.max(np.abs(s_eig.eigenvalues)))
    rhs_norm = factor * float(np.max(np.abs(t_eig.eigenvalues)))
    thr = _threshold(tol, s_norm, rhs_norm)
    reports = [
        _inequality(
            "bhatia_davis", s_norm, rhs_norm, lam_min, lam_min >= -thr,
            s_norm <= rhs_norm + thr, tol, base_ctx, (lam_min, v[:, 0]),
        )
    ]

    for p in p_values:
        p = check_exponent(p)
        ctx = dict(base_ctx, p=p)
        g = gamma_from_products(s, t, p, m, M, s_eig=s_eig, t_eig=t_eig)
        _, (w, v) = _half_sym_eig(g)
        abs_norm = float(np.max(np.abs(w))) if w.size else 0.0
        lam_max = float(w[-1]) if w.size else 0.0
        idx_abs = int(np.argmax(np.abs(w)))
        implied = []
        for which in (1, 2, 3):
            # |Gamma+Gamma*|/2 <= bound*I and (Gamma+Gamma*)/2 <= bound*I
            bound = _bound_fn(which)(m, M, p)
            thr = _threshold(tol, abs_norm, bound)
            ok = abs_norm <= bound + thr
            rep_abs = _inequality(
                f"thm{which}_abs", abs_norm, bound, bound - abs_norm, ok, ok, tol, ctx,
                (abs_norm, v[:, idx_abs]),
            )
            rep_sym = _inequality(
                f"thm{which}_sym", abs_norm, bound, bound - lam_max, lam_max <= bound + thr, ok,
                tol, ctx, (lam_max, v[:, -1]),
            )
            reports += (rep_abs, rep_sym)
            implied.append((not rep_abs.passed) or rep_sym.passed)
        passed = all(implied)
        payload = {"passed": passed, "detail": f"p={p}"}
        reports.append(Report("abs_implies_sym", passed, None, payload))

        # ||(Gamma+Gamma*)/2|| <= ||Gamma|| <= bound_thm2(m, M, p)
        gnorm = op_norm(g.gamma)
        thr = _threshold(tol, abs_norm, gnorm)
        reports.append(
            _inequality("sym_norm_le_gamma", abs_norm, gnorm, gnorm - abs_norm, None,
                        abs_norm <= gnorm + thr, tol, ctx)
        )
        bound = bound_thm2(m, M, p)
        thr = _threshold(tol, gnorm, bound)
        reports.append(
            _inequality("gamma_norm_le_thm2", gnorm, bound, bound - gnorm, None,
                        gnorm <= bound + thr, tol, ctx)
        )
        reports.append(chain_report(g, abs_norm, tol, ctx))
        monotone = power_monotone_report(g, tol, ctx)
        if monotone is not None:
            reports.append(monotone)
    return reports


# run_lemma_trial's sub-seed tags, one generator per sampled input.
TAG_LEMMA_BLOCK = "lemma_block"
TAG_SQUARE = "square"
TAG_SQUARE_B = "square_b"
TAG_SQUARE_P = "square_p"
TAG_PSD_PAIR = "psd_pair"
TAG_WIELANDT_A = "wielandt_a"
TAG_WIELANDT_XY = "wielandt_xy"


def gen_square_order_pair(
    seed: int, dim: int, m: float, M: float
) -> tuple[np.ndarray, np.ndarray]:
    """Construct (A, B) with 0 <= A <= B and spectrum(B) in [m, M]: B is a
    random bounded operator and A = B - sP for a random PSD P scaled to keep
    A PSD."""
    m, M = check_bounds(m, M)
    b = gen_operator(mix_seed(seed, TAG_SQUARE_B), dim, m, M)
    rng = rng_from(mix_seed(seed, TAG_SQUARE_P))
    gmat = complex_gaussian(rng, dim, dim)
    psd = hermitian_part(gmat @ gmat.conj().T)
    top = float(herm_eig(psd).eigenvalues[-1])
    lo_b = float(herm_eig(b).eigenvalues[0])
    scale = 0.0 if top <= 0.0 else rng.uniform(0.0, 1.0) * lo_b / top
    a = hermitian_part(b - scale * psd)
    return a, b


def gen_psd_pair(seed: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_from(seed)
    g1 = complex_gaussian(rng, dim, dim)
    g2 = complex_gaussian(rng, dim, dim)
    return (
        hermitian_part(g1 @ g1.conj().T),
        hermitian_part(g2 @ g2.conj().T),
    )


def lemma_block_case(seed: int, dim: int, variant: int) -> tuple[np.ndarray, float]:
    """Random matrix plus a threshold chosen to exercise both sides of the
    boundary, including t = ||X|| +/- 1e-6."""
    rng = rng_from(seed)
    x = complex_gaussian(rng, dim, dim) / math.sqrt(dim)
    x_norm = op_norm(x)
    offsets = {
        0: x_norm + 1e-6,
        1: max(x_norm - 1e-6, 0.0),
        2: 0.5 * x_norm,
        3: 1.5 * x_norm,
    }
    return x, offsets[variant % 4]


def run_lemma_trial(
    seed: int,
    dim: int,
    ambient: int,
    m: float,
    M: float,
    tol: float = DEFAULT_TOL,
    *,
    variant: int,
) -> list:
    """One round of the lemma/fact/scalar checks on freshly sampled inputs;
    `variant` picks the side of the block-norm boundary (see lemma_block_case)."""
    reports: list = []
    x, t = lemma_block_case(mix_seed(seed, TAG_LEMMA_BLOCK), dim, variant)
    reports.append(check_lemma_block_equivalence(x, t, tol))

    a, b = gen_square_order_pair(mix_seed(seed, TAG_SQUARE), dim, m, M)
    reports.append(check_lemma_square_order(a, b, m, M, tol))

    p1, p2 = gen_psd_pair(mix_seed(seed, TAG_PSD_PAIR), dim)
    reports.append(check_fact_norm_anticommutator(p1, p2, tol))

    op = gen_operator(mix_seed(seed, TAG_WIELANDT_A), ambient, m, M)
    uni = haar_unitary(rng_from(mix_seed(seed, TAG_WIELANDT_XY)), ambient)
    reports.append(check_scalar_wielandt(uni[:, 0], uni[:, 1], op, m, M, tol))
    return reports


# ---------------------------------------------------------------------------
# Stacked drivers: run_instance_checks and run_lemma_trial on trial blocks
# ---------------------------------------------------------------------------

# A stacked lane counts as passed only when every pass/fail decision clears
# its threshold by this much, relative to the threshold's own scale
# max(1, |lhs|, |bound|); stacked and scalar values agree to ~1e-15 of it.
GUARD_BAND = 1e-10


class LaneChecks:
    """Per-lane margins of every report a scalar driver would emit, and the
    lanes on which all of them pass with the guard band to spare."""

    def __init__(self, ok: np.ndarray):
        self.ok = ok
        self.margins: dict[str, list] = {}

    def report(self, name: str, margin: Optional[np.ndarray]) -> None:
        self.margins.setdefault(name, []).append(margin)

    def passes(self, q: np.ndarray, scale: np.ndarray) -> None:
        """Require the pass condition q >= 0 with the guard band to spare."""
        self.ok &= q > GUARD_BAND * scale

    def decided(self, q: np.ndarray, scale: np.ndarray) -> None:
        """Require q to lie outside the guard band around 0, on either side."""
        self.ok &= np.abs(q) > GUARD_BAND * scale


def _scale(*magnitudes) -> np.ndarray:
    """Per-lane max(1, |magnitudes|), the scale of _threshold."""
    out = 1.0
    for value in magnitudes:
        out = np.maximum(out, np.abs(value))
    return out


def instance_checks_stack(
    s: np.ndarray,
    t: np.ndarray,
    t_eig: EigDecomp,
    bad: np.ndarray,
    m: float,
    M: float,
    p_values,
    tol: float = DEFAULT_TOL,
) -> LaneChecks:
    """run_instance_checks on stacks of compressed products (see
    ``stacked.compressed_products_stack``); lanes in `bad` are never passed."""
    t_w, t_v = t_eig
    p_values = [check_exponent(p) for p in p_values]
    (s_w, s_v), bad, powers = gamma_stack(s, t_eig, bad, m, M, p_values)
    lanes = LaneChecks(~bad)

    factor = wielandt_factor(m, M)
    lam_min = herm_eig_stack(factor * t - s).eigenvalues[:, 0]
    s_norm = top_abs(s_w)
    rhs_norm = factor * top_abs(t_w)
    sc = _scale(s_norm, rhs_norm)
    lanes.passes(lam_min + tol * sc, sc)
    lanes.passes(rhs_norm + tol * sc - s_norm, sc)
    lanes.report("bhatia_davis", lam_min)

    s_psd = clamp_psd(s_w)
    s_top = np.maximum(s_w[:, -1], 0.0)
    t_lo = np.where(bad, 1.0, t_w[:, 0])
    t_hi = np.where(bad, 1.0, t_w[:, -1])
    for p, (sp, g) in zip(p_values, powers):
        half_sym = herm_eig_stack(hermitian_part(g)).eigenvalues
        abs_norm = top_abs(half_sym)
        gram_top = herm_eig_stack(hermitian_part(adj(g) @ g)).eigenvalues[:, -1]
        gnorm = np.sqrt(np.maximum(gram_top, 0.0))
        for which in (1, 2, 3):
            bound = _bound_fn(which)(m, M, p)
            sc = _scale(abs_norm, bound)
            lanes.passes(bound + tol * sc - abs_norm, sc)
            lanes.passes(bound + tol * sc - half_sym[:, -1], sc)
            lanes.report(f"thm{which}_abs", bound - abs_norm)
            lanes.report(f"thm{which}_sym", bound - half_sym[:, -1])
        lanes.report("abs_implies_sym", None)

        sc = _scale(abs_norm, gnorm)
        lanes.passes(gnorm + tol * sc - abs_norm, sc)
        lanes.report("sym_norm_le_gamma", gnorm - abs_norm)
        bound = bound_thm2(m, M, p)
        sc = _scale(gnorm, bound)
        lanes.passes(bound + tol * sc - gnorm, sc)
        lanes.report("gamma_norm_le_thm2", bound - gnorm)

        # chain_report, link by link
        mixed = stack_pow(s_psd, s_v, 2.0 * p, bad) + stack_pow(t_w, t_v, -2.0 * p, bad)
        split = (s_top ** (2.0 * p) + (1.0 / t_lo) ** (2.0 * p)) / 2.0
        links = (abs_norm, top_abs(herm_eig_stack(mixed).eigenvalues) / 2.0, split,
                 bound_thm1(m, M, p))
        gaps = [(hi - lo, _scale(lo, hi)) for lo, hi in zip(links, links[1:])]
        for gap, sc in gaps:
            lanes.passes(gap + tol * sc, sc)
        lanes.report("thm1_chain", np.minimum.reduce([gap for gap, _ in gaps]))

        if p <= 1.0 + 1e-12:  # power_monotone_report
            factor_p = factor**p
            lam_min = herm_eig_stack(factor_p * stack_pow(t_w, t_v, p, bad) - sp).eigenvalues[:, 0]
            lhs_norm = s_top**p
            bound_norm = factor_p * t_hi**p
            sc = _scale(lhs_norm, bound_norm)
            lanes.passes(lam_min + tol * sc, sc)
            lanes.passes(bound_norm + tol * sc - lhs_norm, sc)
            lanes.report("power_monotone", lam_min)
    return lanes


def lemma_checks_stack(
    seed: int, trials, variants: np.ndarray, dim: int, ambient: int, m: float, M: float,
    tol: float = DEFAULT_TOL,
) -> LaneChecks:
    """run_lemma_trial(mix_seed(seed, trial), dim, ambient, m, M, tol, variant)
    for every (trial, variant) pair, on stacks drawn from the same generators."""
    b = len(trials)
    g_x = np.empty((b, 2, dim, dim))
    g_b, lam_b = np.empty((b, 2, dim, dim)), np.empty((b, dim))
    g_p, frac = np.empty((b, 2, dim, dim)), np.empty(b)
    g_pair = np.empty((b, 2, 2, dim, dim))
    g_a, lam_a = np.empty((b, 2, ambient, ambient)), np.empty((b, ambient))
    g_u = np.empty((b, 2, ambient, ambient))
    tagged = mix_seeds(mix_seeds(seed, trials)[:, np.newaxis], (
        TAG_LEMMA_BLOCK, TAG_SQUARE, TAG_PSD_PAIR, TAG_WIELANDT_A, TAG_WIELANDT_XY))
    square = mix_seeds(tagged[:, 1:2], (TAG_SQUARE_B, TAG_SQUARE_P))
    rngs = rngs_from(np.hstack([tagged[:, :1], square, tagged[:, 2:]]))
    for i in range(b):
        next(rngs).standard_normal(out=g_x[i])
        draw_operator(next(rngs), g_b[i], lam_b[i], m, M)
        rng = next(rngs)
        rng.standard_normal(out=g_p[i])
        frac[i] = rng.uniform(0.0, 1.0)
        next(rngs).standard_normal(out=g_pair[i])
        draw_operator(next(rngs), g_a[i], lam_a[i], m, M)
        next(rngs).standard_normal(out=g_u[i])
    lanes = LaneChecks(np.ones(b, dtype=bool))

    # lemma_block_case + check_lemma_block_equivalence
    x = complex_draws(g_x) / math.sqrt(dim)
    gram_w, gram_v = herm_eig_stack(hermitian_part(adj(x) @ x))
    x_norm = np.sqrt(np.maximum(gram_w[:, -1], 0.0))
    t = np.choose(variants % 4, [x_norm + 1e-6, np.maximum(x_norm - 1e-6, 0.0),
                                 0.5 * x_norm, 1.5 * x_norm])
    lanes.ok &= gram_w[:, 0] >= -0.5 * PSD_TOL * stack_scale(gram_w)
    abs_x = stack_pow(clamp_psd(gram_w), gram_v, 0.5, ~lanes.ok)
    abs_top = herm_eig_stack(abs_x).eigenvalues[:, -1]
    block = np.zeros((b, 2 * dim, 2 * dim), dtype=np.complex128)
    block[:, :dim, dim:] = x
    block[:, dim:, :dim] = adj(x)
    diag = np.arange(2 * dim)
    block[:, diag, diag] = t[:, np.newaxis]
    block_min = herm_eig_stack(block).eigenvalues[:, 0]
    sc = _scale(t, x_norm)
    thr = tol * sc
    verdicts = (abs_top <= t + thr, x_norm <= t + thr, block_min >= -thr)
    lanes.ok &= (verdicts[0] == verdicts[1]) & (verdicts[1] == verdicts[2])
    for q in (t + thr - abs_top, t + thr - x_norm, block_min + thr):
        lanes.decided(q, sc)
    lanes.report("block_norm_equivalence", np.abs(t - x_norm))

    # gen_square_order_pair + check_lemma_square_order
    b_op = operator_stack(g_b, lam_b, m, M)
    g = complex_draws(g_p)
    psd = hermitian_part(g @ adj(g))
    top = herm_eig_stack(psd).eigenvalues[:, -1]
    wb = herm_eig_stack(b_op).eigenvalues
    lanes.ok &= top > 0.0
    shrink = frac * wb[:, 0] / np.where(lanes.ok, top, 1.0)
    a_op = hermitian_part(b_op - shrink[:, np.newaxis, np.newaxis] * psd)
    wa = herm_eig_stack(a_op).eigenvalues
    gap = herm_eig_stack(b_op - a_op).eigenvalues[:, 0]
    sc = _scale(top_abs(wa), top_abs(wb))
    for q in (wa[:, 0], gap, wb[:, 0] - m, M - wb[:, -1]):
        lanes.passes(q + tol * sc, sc)
    factor = square_order_factor(m, M)
    lhs_sq = hermitian_part(a_op @ a_op)
    rhs_sq = factor * hermitian_part(b_op @ b_op)
    lam_min = herm_eig_stack(rhs_sq - lhs_sq).eigenvalues[:, 0]
    lhs_norm = top_abs(herm_eig_stack(lhs_sq).eigenvalues)
    rhs_norm = top_abs(herm_eig_stack(rhs_sq).eigenvalues)
    sc = _scale(lhs_norm, rhs_norm)
    lanes.passes(lam_min + tol * sc, sc)
    lanes.passes(rhs_norm + tol * sc - lhs_norm, sc)
    lanes.report("square_order", lam_min)

    # gen_psd_pair + check_fact_norm_anticommutator
    g1, g2 = complex_draws(g_pair[:, 0]), complex_draws(g_pair[:, 1])
    p1, p2 = hermitian_part(g1 @ adj(g1)), hermitian_part(g2 @ adj(g2))
    for mat in (p1, p2):
        w = herm_eig_stack(mat).eigenvalues
        sc = _scale(top_abs(w))
        lanes.passes(w[:, 0] + tol * sc, sc)
    lhs = top_abs(herm_eig_stack(hermitian_part(p1 @ p2 + p2 @ p1)).eigenvalues)
    rhs = top_abs(herm_eig_stack(hermitian_part(p1 @ p1 + p2 @ p2)).eigenvalues)
    sc = _scale(lhs, rhs)
    lanes.passes(rhs + tol * sc - lhs, sc)
    lanes.report("anticommutator_norm", rhs - lhs)

    # check_scalar_wielandt on the first two columns of a Haar unitary
    op = operator_stack(g_a, lam_a, m, M)
    uni = qr_positive(complex_draws(g_u))
    xv, yv = uni[:, :, 0], uni[:, :, 1]
    sc = _scale(np.linalg.norm(xv, axis=-1) * np.linalg.norm(yv, axis=-1))
    lanes.passes(tol * sc - np.abs(np.sum(xv.conj() * yv, axis=-1)), sc)
    w = herm_eig_stack(op).eigenvalues
    sc = _scale(top_abs(w))
    lanes.passes(w[:, 0] - m + tol * sc, sc)
    lanes.passes(M - w[:, -1] + tol * sc, sc)

    def form(u, v):  # <u, op v> per lane
        return np.sum(u.conj() * (op @ v[:, :, np.newaxis])[:, :, 0], axis=-1)

    lhs = np.abs(form(xv, yv)) ** 2
    rhs = wielandt_factor(m, M) * form(xv, xv).real * form(yv, yv).real
    sc = _scale(lhs, rhs)
    lanes.passes(rhs + tol * sc - lhs, sc)
    lanes.report("scalar_wielandt", rhs - lhs)
    return lanes

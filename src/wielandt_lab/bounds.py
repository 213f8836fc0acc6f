"""Bound families, inequality checks, and lemma certifications.

For an instance (A, m, M, X, Y, Phi) and exponent p > 0 the central object is

    Gamma = (Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX))^p  Phi(X*AX)^{-p},

built strictly by spectral calculus on its two Hermitian factors S and T.
Three scalar bound families (``bound_thm1/2/3``) dominate both (Gamma+Gamma*)/2
and its spectral absolute value.

Every check yields one ``Report`` record per trial: the check's name, its
verdict, a signed margin (None for the boolean meta-check
``abs_implies_sym``) and its report fields, laid out per kind as README's
"Report and exchange formats" lists them.  Margin conventions: Loewner-style
checks report the minimum eigenvalue of (bound side - lhs side); scalar
checks report (bound - lhs).  A check passes when its margin is >= -tol *
max(1, |lhs|, |bound|).  ``thm1_chain`` passes when every link gap (hi - lo)
is >= -tol * max(1, |lo|, |hi|); its margin is the smallest gap divided by
that scale, or 0 when that is within MIN_TOL of 0 (rounding).

Every check is implemented once, as a stacked kernel over a block of trials
(``instance_checks_stack``, ``lemma_checks_stack`` and the four lemma
kernels).  A kernel hands ``LaneChecks`` each check's per-lane verdicts,
margins and report fields, and ``LaneChecks.reports`` alone builds Reports
from them; a lane that fails a hypothesis carries the exception its
one-trial computation raises first.  The one-trial entry points
(``run_instance_checks``, ``run_lemma_trial``, ``check_*``) run the kernel
on a stack of one and return that lane's Reports or raise its exception.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidBounds, NotPSD, PreconditionViolated
from .instances import Instance, check_bounds, operator_stack
from .matcore import (
    EigDecomp,
    LaneErrors,
    adj,
    as_cmatrix,
    as_herm,
    check_exponent,
    clamp_psd,
    flag_psd,
    gram_eig,
    herm_eig_stack,
    herm_eigvals_stack,
    herm_norm_stack,
    hermitian_part,
    matprod,
    op_norm_stack,
    sqrt_top,
    stack_pow,
    stack_pows,
    stack_scale,
    top_abs,
)
from .sampling import (
    MASK64,
    block_size,
    complex_draws,
    haar_frames,
    lane_draws,
    mix_seeds,
    rngs_from,
)
from .stacked import flag_gamma, gamma_stack, instance_products

DEFAULT_TOL = 1e-9
# Smallest tol a command accepts: below it, rounding turns into verdicts
# (trial errors from tol 1e-16 at M/m = 2 and 1e-15 at M/m = 100, and the
# template's 1 + 2^-52 into a discovery at tol 0).
MIN_TOL = 1e-14
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
    """tol as a float; raises ValueError unless it is finite and >= MIN_TOL."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"need a finite tol >= {MIN_TOL:g} (the rounding floor), got {tol!r}")
    return tol


def wielandt_factor(m: float, M: float) -> float:
    """((M - m)/(M + m))^2, the square of the spectral contrast."""
    m, M = check_bounds(m, M)
    return ((M - m) / (M + m)) ** 2


def snap_exponent(p: float) -> float:
    """p, or the integer >= 1 within 1e-12 of it, so float parsing cannot
    flip the ceiling in bound_thm3."""
    nearest = round(p)
    return float(nearest) if nearest >= 1 and abs(p - nearest) <= 1e-12 else p


def ceil_exponent(p: float) -> int:
    """Ceiling of p, snapped first (snap_exponent)."""
    return int(math.ceil(snap_exponent(check_exponent(p))))


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


def _threshold(tol: float, *magnitudes: float) -> float:
    return tol * max(1.0, *(abs(v) for v in magnitudes))


def _scale(*magnitudes) -> np.ndarray:
    """Per-lane max(1, |magnitudes|), the scale of _threshold."""
    out = 1.0
    for value in magnitudes:
        out = np.maximum(out, np.abs(value))
    return out


def _field(value, lane: int):
    """A report field at one lane: a callable's value at the lane, a per-lane
    array's entry, or the value every lane shares; numpy values become
    Python ones."""
    if callable(value):
        value = value(lane)
    elif isinstance(value, np.ndarray):
        value = value[lane]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


class LaneChecks:
    """Every check's results on each lane of a stack, in emission order, as
    (name, verdicts, margins or None, report fields), and each flagged lane's
    exception.  A field is a per-lane array, a value every lane shares or a
    callable of the lane; ``reports`` builds a lane's Reports from them, the
    same Reports the one-trial checks return."""

    def __init__(self, errors: LaneErrors):
        self.errors = errors
        self.checks: list = []

    def add(self, name: str, passed: np.ndarray, margin, /, **fields) -> None:
        self.checks.append((name, passed, margin, fields))

    def inequality(
        self, name, lhs, bound, margin, loewner, norm, tol, witness=None, *,
        seed=None, m=None, M=None, p=None,
    ) -> None:
        """An inequality check in Loewner and/or norm form (`loewner` is None
        for a norm-only check); it passes when every verdict it has passes.
        `witness` is (values, vectors, column): lane i's witness pairs
        values[i] with that column (one per lane, or shared) of vectors[i],
        taken only when a report is built."""
        fields = dict(lhs=lhs, bound=bound, margin=margin, loewner_pass=loewner,
                      norm_pass=norm, tol=tol, seed=seed, dims=None, m=m, M=M, p=p)
        if witness is not None:
            values, vectors, column = witness

            def witness_at(i):
                vector = vectors[i][:, column[i] if np.ndim(column) else column]
                return {"eigenvalue": float(values[i]), "re": vector.real.tolist(),
                        "im": vector.imag.tolist()}

            fields["witness"] = witness_at
        self.add(name, norm if loewner is None else norm & loewner, margin, **fields)

    def reports(self, lane: int) -> list:
        """Every Report of one lane; raises the lane's exception instead."""
        if lane in self.errors:
            raise self.errors[lane]
        return [Report(name, bool(passed[lane]), None if margin is None else float(margin[lane]),
                       {key: _field(value, lane) for key, value in fields.items()})
                for name, passed, margin, fields in self.checks]

    def extend(self, other: "LaneChecks") -> None:
        """Append the checks of `other`, which run after these."""
        self.checks += other.checks
        for lane, exc in other.errors.items():
            self.errors.setdefault(lane, exc)


# ---------------------------------------------------------------------------
# Instance-level checks
# ---------------------------------------------------------------------------


def instance_checks_stack(
    s: np.ndarray,
    t: np.ndarray,
    t_eig: EigDecomp,
    errors: LaneErrors,
    seeds,
    m: float,
    M: float,
    p_values,
    tol: float = DEFAULT_TOL,
) -> LaneChecks:
    """Every per-instance check for each exponent on stacks of compressed
    products (see ``stacked.products_stack``); `seeds` are the lanes'
    instance seeds, which their reports carry.  The exponents are scored in
    groups of block_size(d) // B of them (at least one), each group as
    (P, B) stacks, so a group's arrays stay near those of one full block at
    one exponent; the checks are appended exponent by exponent.  See the
    module docstring for margin conventions."""
    t_w, t_v = t_eig
    p_values = [check_exponent(p) for p in p_values]
    s_eig = flag_gamma(s, t_eig, errors, m, M)
    s_w, s_v = s_eig
    bad = errors.bad
    lanes = LaneChecks(errors)
    seeds = np.asarray(seeds)
    # the operator Wielandt inequality S <= ((M-m)/(M+m))^2 T
    factor = wielandt_factor(m, M)
    w, v = herm_eig_stack(factor * t - s)
    s_norm = top_abs(s_w)
    rhs_norm = factor * top_abs(t_w)
    thr = tol * _scale(s_norm, rhs_norm)
    lanes.inequality("bhatia_davis", s_norm, rhs_norm, w[:, 0], w[:, 0] >= -thr,
                     s_norm <= rhs_norm + thr, tol, (w[:, 0], v, 0), seed=seeds, m=m, M=M)

    s_psd = clamp_psd(s_w)
    s_top = np.maximum(s_w[:, -1], 0.0)
    t_lo_inv = 1.0 / np.where(bad, 1.0, t_w[:, 0])
    t_hi = np.where(bad, 1.0, t_w[:, -1])
    group = max(1, block_size(s.shape[-1]) // len(s))
    for first in range(0, len(p_values), group):
        ps = p_values[first : first + group]
        sp, g = gamma_stack(s_eig, t_eig, bad, ps)
        h_w, h_v = herm_eig_stack(hermitian_part(g))
        abs_norm = top_abs(h_w)
        lam_max = h_w[..., -1]
        top = np.argmax(np.abs(h_w), axis=-1)
        # |Gamma+Gamma*|/2 <= bound*I and (Gamma+Gamma*)/2 <= bound*I for the
        # three bound families at once: (3, P, 1) bounds, (3, P, B) verdicts
        bound = [[fn(m, M, p) for p in ps] for fn in (bound_thm1, bound_thm2, bound_thm3)]
        col = np.array(bound)[:, :, np.newaxis]
        thr = tol * _scale(abs_norm, col)
        margin, ok = col - abs_norm, abs_norm <= col + thr
        sym_margin, sym_ok = col - lam_max, lam_max <= col + thr
        implied = np.logical_and.reduce(~ok | sym_ok)

        # ||(Gamma+Gamma*)/2|| <= ||Gamma|| <= bound_thm2(m, M, p)
        gnorm = op_norm_stack(g)
        below_gamma = abs_norm <= gnorm + tol * _scale(abs_norm, gnorm)
        below_thm2 = gnorm <= col[1] + tol * _scale(gnorm, col[1])
        gnorm_gap, thm2_gap = gnorm - abs_norm, col[1] - gnorm

        # Link-by-link certification of the norm chain behind the
        # arithmetic-mean bound: ||Gamma+Gamma*||/2 <= ||S^{2p}+T^{-2p}||/2
        # <= (||S||^{2p} + ||T^{-1}||^{2p})/2 <= bound_thm1.
        mixed = (stack_pows(s_psd, s_v, [2.0 * p for p in ps], bad)
                 + stack_pows(t_w, t_v, [-2.0 * p for p in ps], bad))
        split = (np.stack([s_top ** (2.0 * p) for p in ps])
                 + np.stack([t_lo_inv ** (2.0 * p) for p in ps])) / 2.0
        links = np.stack(np.broadcast_arrays(
            abs_norm, herm_norm_stack(mixed) / 2.0, split, col[0]))
        gaps = links[1:] - links[:-1]
        scales = _scale(links[:-1], links[1:])
        chained = np.logical_and.reduce(gaps + tol * scales >= 0.0)
        # the margin is the smallest gap relative to its link scale: the raw
        # gaps of links near 1e23 are rounding noise.  So is a relative gap
        # within MIN_TOL of 0; it reads 0, and ties go to the lowest trial.
        relative = np.minimum.reduce(gaps / scales)
        relative[np.abs(relative) <= MIN_TOL] = 0.0

        # S^p <= ((M-m)/(M+m))^{2p} T^p, valid for 0 < p <= 1 (operator
        # monotonicity of fractional powers); row k of these arrays is
        # exponent monotone[k] of the group
        monotone = [j for j, p in enumerate(ps) if p <= 1.0 + 1e-12]
        if monotone:
            low = [ps[j] for j in monotone]
            factor_p = np.array([factor**p for p in low])
            mono_w, mono_v = herm_eig_stack(
                factor_p[:, np.newaxis, np.newaxis, np.newaxis] * stack_pows(t_w, t_v, low, bad)
                - sp[monotone])
            mono_margin = mono_w[..., 0]
            mono_lhs = np.stack([s_top**p for p in low])
            mono_bound = factor_p[:, np.newaxis] * np.stack([t_hi**p for p in low])
            mono_thr = tol * _scale(mono_lhs, mono_bound)
            mono_loewner = mono_margin >= -mono_thr
            mono_norm = mono_lhs <= mono_bound + mono_thr

        for j, p in enumerate(ps):
            at = dict(seed=seeds, m=m, M=M, p=p)
            for f in range(3):
                lanes.inequality(f"thm{f + 1}_abs", abs_norm[j], bound[f][j], margin[f, j],
                                 ok[f, j], ok[f, j], tol, (abs_norm[j], h_v[j], top[j]), **at)
                lanes.inequality(f"thm{f + 1}_sym", abs_norm[j], bound[f][j], sym_margin[f, j],
                                 sym_ok[f, j], ok[f, j], tol, (lam_max[j], h_v[j], -1), **at)
            lanes.add("abs_implies_sym", implied[j], None, passed=implied[j], detail=f"p={p}")
            lanes.inequality("sym_norm_le_gamma", abs_norm[j], gnorm[j], gnorm_gap[j], None,
                             below_gamma[j], tol, **at)
            lanes.inequality("gamma_norm_le_thm2", gnorm[j], bound[1][j], thm2_gap[j], None,
                             below_thm2[j], tol, **at)
            # (lane, link) views of this exponent's links and gaps
            lanes.add("thm1_chain", chained[j], relative[j], links=links[:, j].T,
                      link_margins=gaps[:, j].T, passed=chained[j], tol=tol, **at)
            if j in monotone:
                k = monotone.index(j)
                lanes.inequality("power_monotone", mono_lhs[k], mono_bound[k], mono_margin[k],
                                 mono_loewner[k], mono_norm[k], tol,
                                 (mono_margin[k], mono_v[k], 0), **at)
    return lanes


def compressed_products(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(S, T) with S = Phi(X*AY) Phi(Y*AY)^{-1} Phi(Y*AX) and T = Phi(X*AX),
    both symmetrized, read off the compression C' (``stacked.compression_stack``,
    one product Z*AZ mapped whole by id_2 (x) Phi).  S is PSD because the map
    preserves adjoints: ``stacked.products_stack`` reads it as B* diag(1/w) B,
    B = V* Phi(Y*AX) and Phi(Y*AY) = V diag(w) V*."""
    s, t, _, errors = instance_products(inst)
    if errors:
        raise errors[0]
    return s[0], t[0]


def run_instance_checks(inst: Instance, p_values, tol: float = DEFAULT_TOL) -> list:
    """The Reports of instance_checks_stack on one instance."""
    s, t, t_eig, errors = instance_products(inst)
    lanes = instance_checks_stack(s, t, t_eig, errors, [inst.seed], inst.m, inst.M, p_values, tol)
    return lanes.reports(0)


# ---------------------------------------------------------------------------
# Lemma and scalar checks: draws, stacked kernels and one-input adapters
# ---------------------------------------------------------------------------

# run_lemma_trial's sub-seed tags, one generator per sampled input.
TAG_LEMMA_BLOCK = "lemma_block"
TAG_SQUARE = "square"
TAG_SQUARE_B = "square_b"
TAG_SQUARE_P = "square_p"
TAG_PSD_PAIR = "psd_pair"
TAG_WIELANDT_A = "wielandt_a"
TAG_WIELANDT_XY = "wielandt_xy"


def _one(seed: int) -> np.ndarray:
    return np.array([seed & MASK64], dtype=np.uint64)


def lemma_block_draws(rngs, lanes: int, dim: int, variants: np.ndarray) -> tuple:
    """lemma_block_case for `lanes` generators of `rngs`: a random matrix
    X per lane plus a threshold chosen to exercise both sides of the
    boundary, including t = ||X|| +/- 1e-6.  Returns (X, t)."""
    x = complex_draws(lane_draws(rngs, lanes, (2, dim, dim))[0]) / math.sqrt(dim)
    x_norm = op_norm_stack(x)
    t = np.choose(np.asarray(variants) % 4, [x_norm + 1e-6, np.maximum(x_norm - 1e-6, 0.0),
                                             0.5 * x_norm, 1.5 * x_norm])
    return x, t


def block_equivalence_stack(x: np.ndarray, t: np.ndarray, tol: float = DEFAULT_TOL) -> LaneChecks:
    """Evaluate |X| <= tI, ||X|| <= t, and [[tI, X], [X*, tI]] >= 0 by three
    separate routes; passes when all three verdicts agree.  The margin is the
    distance |t - ||X||| from the boundary where they could split."""
    b, dim = x.shape[0], x.shape[-1]
    errors = LaneErrors(b)
    gram_w, gram_v = gram_eig(x)
    x_norm = sqrt_top(gram_w)
    flag_psd(errors, gram_w)
    abs_top = herm_eigvals_stack(stack_pow(clamp_psd(gram_w), gram_v, 0.5, errors.bad))
    block = np.zeros((b, 2 * dim, 2 * dim), dtype=np.complex128)
    block[:, :dim, dim:] = x
    block[:, dim:, :dim] = adj(x)
    diag = np.arange(2 * dim)
    block[:, diag, diag] = t[:, np.newaxis]
    block_min = herm_eigvals_stack(block)[:, 0]
    thr = tol * _scale(t, x_norm)
    abs_ok, norm_ok, block_ok = abs_top[:, -1] <= t + thr, x_norm <= t + thr, block_min >= -thr
    agree = (abs_ok == norm_ok) & (norm_ok == block_ok)
    lanes = LaneChecks(errors)
    lanes.add("block_norm_equivalence", agree, np.abs(t - x_norm), t=t, x_norm=x_norm,
              abs_ok=abs_ok, norm_ok=norm_ok, block_ok=block_ok, agree=agree, tol=tol)
    return lanes


def square_order_draws(rngs, lanes: int, dim: int, m: float, M: float) -> tuple:
    """gen_square_order_pair for 2 * `lanes` generators of `rngs` (every
    lane's B generator, then every lane's P generator): (A, B) with
    0 <= A <= B and spectrum(B) in [m, M], where B is a random bounded
    operator and A = B - sP for a random PSD P scaled to keep A PSD."""
    b = operator_stack(rngs, lanes, dim, m, M)
    g_p, frac = lane_draws(rngs, lanes, (2, dim, dim), 1)
    g = complex_draws(g_p)
    psd = hermitian_part(matprod(g, adj(g)))
    top, wb = herm_eigvals_stack(np.stack([psd, b]))
    top = top[:, -1]
    shrink = np.where(top > 0.0, frac[:, 0] * wb[:, 0] / np.where(top > 0.0, top, 1.0), 0.0)
    return hermitian_part(b - shrink[:, np.newaxis, np.newaxis] * psd), b


def square_order_stack(a, b, m: float, M: float, tol: float = DEFAULT_TOL) -> LaneChecks:
    """Given 0 <= A <= B with spectrum(B) inside [m, M], certify the
    Kantorovich-type squared comparison A^2 <= ((M+m)^2 / 4Mm) B^2."""
    errors = LaneErrors(len(a))
    factor = square_order_factor(m, M)
    lhs_sq = hermitian_part(matprod(a, a))
    rhs_sq = factor * hermitian_part(matprod(b, b))
    wa, wb, gap, lhs_w, rhs_w = herm_eigvals_stack(np.stack([a, b, b - a, lhs_sq, rhs_sq]))
    thr = tol * _scale(top_abs(wa), top_abs(wb))
    errors.flag(wa[:, 0] < -thr,
                lambda i: PreconditionViolated(f"A has negative eigenvalue {wa[i, 0]:g}"))
    gap = gap[:, 0]
    errors.flag(gap < -thr, lambda i: PreconditionViolated(f"A <= B fails by {gap[i]:g}"))
    errors.flag((wb[:, 0] < m - thr) | (wb[:, -1] > M + thr), lambda i: PreconditionViolated(
        f"spectrum of B [{wb[i, 0]:g}, {wb[i, -1]:g}] escapes [{m:g}, {M:g}]"))
    w, v = herm_eig_stack(rhs_sq - lhs_sq)
    lhs_norm, rhs_norm = top_abs(lhs_w), top_abs(rhs_w)
    thr = tol * _scale(lhs_norm, rhs_norm)
    lanes = LaneChecks(errors)
    lanes.inequality("square_order", lhs_norm, rhs_norm, w[:, 0], w[:, 0] >= -thr,
                     lhs_norm <= rhs_norm + thr, tol, (w[:, 0], v, 0), m=m, M=M)
    return lanes


def psd_pair_draws(rngs, lanes: int, dim: int) -> tuple:
    """gen_psd_pair for `lanes` generators of `rngs`: two Gram matrices of
    complex Gaussians per lane."""
    g = complex_draws(lane_draws(rngs, lanes, (2, 2, dim, dim))[0])
    psd = hermitian_part(matprod(g, adj(g)))
    return psd[:, 0], psd[:, 1]


def anticommutator_stack(a, b, tol: float = DEFAULT_TOL) -> LaneChecks:
    """||AB + BA|| <= ||A^2 + B^2|| for PSD A, B."""
    errors = LaneErrors(len(a))
    anti = hermitian_part(matprod(a, b) + matprod(b, a))
    squares = hermitian_part(matprod(a, a) + matprod(b, b))
    wa, wb, anti_w, squares_w = herm_eigvals_stack(np.stack([a, b, anti, squares]))
    for name, w in (("A", wa), ("B", wb)):
        errors.flag(w[:, 0] < -(tol * stack_scale(w)), lambda i, name=name, w=w: NotPSD(
            f"{name} has negative eigenvalue {w[i, 0]:g}"))
    lhs, rhs = top_abs(anti_w), top_abs(squares_w)
    thr = tol * _scale(lhs, rhs)
    lanes = LaneChecks(errors)
    lanes.inequality("anticommutator_norm", lhs, rhs, rhs - lhs, None, lhs <= rhs + thr, tol)
    return lanes


def wielandt_draws(rngs, lanes: int, ambient: int, m: float, M: float) -> tuple:
    """For 2 * `lanes` generators of `rngs` (every lane's operator generator,
    then every lane's unitary generator): the first two columns x, y of a
    Haar unitary and operator_stack's A."""
    a = operator_stack(rngs, lanes, ambient, m, M)
    uni = haar_frames(lane_draws(rngs, lanes, (2, ambient, ambient))[0])
    return uni[:, :, 0], uni[:, :, 1], a


def scalar_wielandt_stack(x, y, a, m: float, M: float, tol: float = DEFAULT_TOL) -> LaneChecks:
    """Classical scalar Wielandt inequality for orthogonal vectors x, y:
    |<x, Ay>|^2 <= ((M-m)/(M+m))^2 <x, Ax> <y, Ay>."""
    errors = LaneErrors(len(a))
    norms = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    errors.flag(np.abs(np.sum(x.conj() * y, axis=-1)) > tol * _scale(norms),
                lambda i: PreconditionViolated("x and y are not orthogonal within tolerance"))
    w = herm_eigvals_stack(a)
    thr = tol * stack_scale(w)
    errors.flag((w[:, 0] < m - thr) | (w[:, -1] > M + thr), lambda i: PreconditionViolated(
        f"spectrum [{w[i, 0]:g}, {w[i, -1]:g}] escapes [{m:g}, {M:g}]"))

    def form(u, v):  # <u, A v> per lane
        return np.sum(u.conj() * (a @ v[:, :, np.newaxis])[:, :, 0], axis=-1)

    lhs = np.abs(form(x, y)) ** 2
    rhs = wielandt_factor(m, M) * form(x, x).real * form(y, y).real
    thr = tol * _scale(lhs, rhs)
    lanes = LaneChecks(errors)
    lanes.inequality("scalar_wielandt", lhs, rhs, rhs - lhs, None, lhs <= rhs + thr, tol,
                     m=m, M=M)
    return lanes


def lemma_seeds(seeds) -> np.ndarray:
    """(6, B) sub-seeds of the generators lemma_checks_stack takes for the
    trial seeds `seeds`, one row per generator in the order it draws them,
    each row in lane order."""
    seeds = np.asarray(seeds, dtype=np.uint64)[:, np.newaxis]
    tagged = mix_seeds(seeds, (TAG_LEMMA_BLOCK, TAG_SQUARE, TAG_PSD_PAIR))
    square = mix_seeds(tagged[:, 1:2], (TAG_SQUARE_B, TAG_SQUARE_P))
    wielandt = mix_seeds(seeds, (TAG_WIELANDT_A, TAG_WIELANDT_XY))
    return np.vstack([tagged[:, 0], *square.T, tagged[:, 2], *wielandt.T])


def lemma_checks_stack(
    rngs, variants, dim: int, ambient: int, m: float, M: float, tol: float = DEFAULT_TOL
) -> LaneChecks:
    """run_lemma_trial(seed, dim, ambient, m, M, tol, variant=variant) for
    every lane's variant, on stacks drawn from `rngs`: the trial seeds'
    generators when `rngs` are seeded with lemma_seeds."""
    b = len(variants)
    lanes = block_equivalence_stack(*lemma_block_draws(rngs, b, dim, variants), tol)
    lanes.extend(square_order_stack(*square_order_draws(rngs, b, dim, m, M), m, M, tol))
    lanes.extend(anticommutator_stack(*psd_pair_draws(rngs, b, dim), tol))
    lanes.extend(scalar_wielandt_stack(*wielandt_draws(rngs, b, ambient, m, M), m, M, tol))
    return lanes


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
    m, M = check_bounds(m, M)
    rngs = rngs_from(lemma_seeds(_one(seed)))
    return lemma_checks_stack(rngs, [variant], dim, ambient, m, M, tol).reports(0)


def lemma_block_case(seed: int, dim: int, variant: int) -> tuple[np.ndarray, float]:
    """lemma_block_draws for one seed."""
    x, t = lemma_block_draws(rngs_from(_one(seed)), 1, dim, [variant])
    return x[0], float(t[0])


def gen_square_order_pair(seed: int, dim: int, m: float, M: float) -> tuple[np.ndarray, np.ndarray]:
    """square_order_draws for one seed."""
    m, M = check_bounds(m, M)
    a, b = square_order_draws(rngs_from(mix_seeds(seed, (TAG_SQUARE_B, TAG_SQUARE_P))),
                              1, dim, m, M)
    return a[0], b[0]


def gen_psd_pair(seed: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """psd_pair_draws for one seed."""
    p1, p2 = psd_pair_draws(rngs_from(_one(seed)), 1, dim)
    return p1[0], p2[0]


def check_lemma_block_equivalence(x, t: float, tol: float = DEFAULT_TOL) -> Report:
    """block_equivalence_stack on one (X, t)."""
    xm = as_cmatrix(x, square=True)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"need t >= 0, got {t!r}")
    return block_equivalence_stack(xm[np.newaxis], np.array([t]), tol).reports(0)[0]


def check_lemma_square_order(a, b, m: float, M: float, tol: float = DEFAULT_TOL) -> Report:
    """square_order_stack on one (A, B)."""
    m, M = check_bounds(m, M)
    lanes = square_order_stack(as_herm(a)[np.newaxis], as_herm(b)[np.newaxis], m, M, tol)
    return lanes.reports(0)[0]


def check_fact_norm_anticommutator(a, b, tol: float = DEFAULT_TOL) -> Report:
    """anticommutator_stack on one (A, B)."""
    return anticommutator_stack(as_herm(a)[np.newaxis], as_herm(b)[np.newaxis], tol).reports(0)[0]


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

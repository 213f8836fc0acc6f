"""Randomized and derivative-free search over the instance space.

Objectives are normalized so 1.0 means the inequality under study is tight:
``conjecture`` tracks ||S T^{-1}|| / ((M-m)/(M+m))^2 (values above 1 would be
counterexample candidates and are reported, never asserted away), while the
``tightness_thm*`` objectives track the checked left-hand side against the
respective bound.  Sampling is deterministic in the seed and partitions over
workers by trial index; refinement is a sequential step-shrinking local ascent
that perturbs unitary factors multiplicatively so instance invariants are
preserved by construction.

The sampled phase walks its trial range in blocks of ``BLOCK_SIZE`` indices.
Each block draws every trial from the same per-trial generators as
``gen_instance`` and evaluates the objective on stacked ``(B, n, n)`` arrays.
A stacked value only screens out trials that cannot improve on the running
best; every other trial (the first of each range, each candidate improvement
and every lane whose stacked checks raised a flag) is rebuilt and scored by
the scalar ``objective_value``, so reports are exactly those of a scalar walk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .bounds import (
    DEFAULT_TOL,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    compressed_products,
    gamma_from_products,
    wielandt_factor,
)
from .errors import DegenerateBounds, InvalidBounds, Singular, WielandtLabError
from .instances import (
    TAG_ISOMETRIES,
    TAG_MAP,
    TAG_OPERATOR,
    Instance,
    extremal_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)
from .maps import ISOMETRY_TOL, StinespringMap, tensor_identity
from .matcore import (
    PD_TOL,
    PSD_TOL,
    eig_pow_pd,
    herm_eig,
    herm_eig_stack,
    hermitian_part,
    op_norm,
)
from .sampling import (
    complex_gaussian,
    fan_out,
    mix_seed,
    orthonormalize,
    qr_positive,
    rng_from,
)

OBJECTIVES = ("conjecture", "tightness_thm1", "tightness_thm2", "tightness_thm3")

_INITIAL_STEP = 0.1
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-6

# Trial indices evaluated together as one stack in the sampled phase.
BLOCK_SIZE = 64
# A stacked value screens its trial out only when it lies below the running
# best by this much, relative to max(1, |best|).  Stacked and scalar values
# agree to about 1e-15 relative.
_SCREEN_MARGIN = 1e-12


def conjecture_ratio(inst: Instance) -> float:
    """||S T^{-1}|| divided by ((M-m)/(M+m))^2; 1.0 at the extremal instance,
    values above 1 + tol would contradict the conjectured norm bound."""
    if inst.M == inst.m:
        raise DegenerateBounds("ratio undefined for m == M")
    s, t = compressed_products(inst)
    t_inv = eig_pow_pd(herm_eig(t), -1.0)
    return op_norm(s @ t_inv) / wielandt_factor(inst.m, inst.M)


def corollary_ratios(inst: Instance) -> tuple[float, float]:
    """Normalized probes of the two consequences of the conjecture, using the
    inverse-ordered product G = S T^{-1}: r2 compares |||G+G*|/2|| and r3 the
    top eigenvalue of (G+G*)/2 against ((M-m)/(M+m))^2."""
    if inst.M == inst.m:
        raise DegenerateBounds("ratio undefined for m == M")
    s, t = compressed_products(inst)
    t_inv = eig_pow_pd(herm_eig(t), -1.0)
    g = s @ t_inv
    w, _ = herm_eig((g + g.conj().T) / 2.0)
    factor = wielandt_factor(inst.m, inst.M)
    r2 = float(np.max(np.abs(w))) / factor if w.size else 0.0
    r3 = float(w[-1]) / factor if w.size else 0.0
    return r2, r3


@dataclass
class SearchConfig:
    objective: str = "conjecture"
    ambient: int = 4
    rank: int = 2
    out_dim: int = 2
    ancilla: int = 2
    m: float = 1.0
    M: float = 2.0
    p: Optional[float] = None
    trials: int = 1000
    refine_steps: int = 0
    seed: int = 0
    tol: float = DEFAULT_TOL

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        if not (0.0 < self.m < self.M):
            raise InvalidBounds(
                f"search needs 0 < m < M strictly, got m={self.m!r}, M={self.M!r}"
            )
        if self.ambient < 2 * self.rank or min(self.rank, self.out_dim, self.ancilla) < 1:
            raise ValueError(
                f"invalid dims N={self.ambient}, n={self.rank}, "
                f"d={self.out_dim}, k={self.ancilla}"
            )
        if self.objective != "conjecture":
            if self.p is None:
                raise ValueError(f"objective {self.objective} requires p")
            if not (math.isfinite(self.p) and self.p > 0.0):
                raise ValueError(f"need p > 0, got {self.p!r}")

    def to_json(self) -> dict:
        return asdict(self)


_BOUND_FNS = {
    "tightness_thm1": bound_thm1,
    "tightness_thm2": bound_thm2,
    "tightness_thm3": bound_thm3,
}


def objective_value(cfg: SearchConfig, inst: Instance) -> float:
    """Evaluate the configured objective on one instance."""
    if cfg.objective == "conjecture":
        return conjecture_ratio(inst)
    s, t = compressed_products(inst)
    g = gamma_from_products(s, t, cfg.p, inst.m, inst.M)
    half_sym = (g.gamma + g.gamma.conj().T) / 2.0
    w, _ = herm_eig(half_sym)
    lhs = float(np.max(np.abs(w))) if w.size else 0.0
    return lhs / _BOUND_FNS[cfg.objective](inst.m, inst.M, cfg.p)


@dataclass
class SearchRecord:
    objective: str
    best_value: float
    best_instance: Instance
    best_index: int
    trials_done: int
    trace: list  # [(phase, index, value)] with non-decreasing value
    config: SearchConfig
    skipped: int = 0  # sampled trials dropped because an operator was singular
    refine_errors: int = 0  # refinement proposals whose evaluation raised

    def to_json(self) -> dict:
        return {
            "objective": self.objective,
            "best_value": self.best_value,
            "best_index": self.best_index,
            "trials": self.trials_done,
            "config": self.config.to_json(),
            "best_instance": instance_to_json(self.best_instance),
            "trace": [list(entry) for entry in self.trace],
        }


def _trial_instance(cfg: SearchConfig, index: int) -> Instance:
    """Trial 0 is the closed-form equality template; the rest are random."""
    if index == 0:
        return extremal_instance(cfg.m, cfg.M)
    return gen_instance(
        mix_seed(cfg.seed, index),
        cfg.ambient,
        cfg.rank,
        cfg.out_dim,
        cfg.ancilla,
        cfg.m,
        cfg.M,
    )


# Stacked kernels of the sampled phase.  Each precondition test below uses
# a guard band (twice or half the scalar threshold) far wider than the ~1e-15
# stacked-vs-scalar drift, so every lane the scalar path could reject is
# flagged and handed to it.


def _adj(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _stack_scale(w: np.ndarray) -> np.ndarray:
    """Per-lane max(1, max |eigenvalue|), the scale of matcore's thresholds."""
    return np.maximum(1.0, np.abs(w).max(axis=-1))


def _stack_pow(w: np.ndarray, v: np.ndarray, p: float, bad: np.ndarray) -> np.ndarray:
    """(v diag(w^p) v*) per lane; lanes in `bad` get eigenvalues 1 first, so
    nothing divides by zero (their values are discarded)."""
    w = np.where(bad[:, np.newaxis], 1.0, w)
    return hermitian_part((v * w[:, np.newaxis, :] ** p) @ _adj(v))


def _not_pd(w: np.ndarray) -> np.ndarray:
    """Lanes that eig_pow_pd could reject as singular; NaN lanes included."""
    return ~(w[:, 0] > 2.0 * PD_TOL * _stack_scale(w))


def _block_draws(cfg: SearchConfig, indices: range) -> tuple:
    """Complex Gaussians and operator eigenvalues of trials `indices`, from
    the same per-trial generators, in the same order, as gen_instance."""
    n_amb, rows, cols = cfg.ambient, cfg.rank * cfg.ancilla, cfg.out_dim
    b = len(indices)
    g_a = np.empty((b, 2, n_amb, n_amb))  # real block, then imaginary block
    lam = np.empty((b, n_amb))
    g_xy = np.empty((b, 2, n_amb, n_amb))
    g_w = np.empty((b, 2, rows, cols))
    for i, index in enumerate(indices):
        seed = mix_seed(cfg.seed, index)
        rng = rng_from(mix_seed(seed, TAG_OPERATOR))
        rng.standard_normal(out=g_a[i])
        lam[i] = rng.uniform(cfg.m, cfg.M, size=n_amb)
        rng_from(mix_seed(seed, TAG_ISOMETRIES)).standard_normal(out=g_xy[i])
        rng_from(mix_seed(seed, TAG_MAP)).standard_normal(out=g_w[i])
    gaussians = [(g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0) for g in (g_a, g_xy, g_w)]
    return gaussians, lam


def _block_values(cfg: SearchConfig, indices: range) -> np.ndarray:
    """Objective values of random trials `indices` (all > 0) on stacks.  NaN
    marks a lane the scalar path must decide: an operator may be singular, a
    spectrum precondition may fail, or the isometry check failed."""
    n, k = cfg.rank, cfg.ancilla
    (g_a, g_xy, g_w), lam = _block_draws(cfg, indices)
    u = qr_positive(g_a)
    lam.sort(axis=-1)
    lam[:, 0] = cfg.m
    lam[:, -1] = cfg.M
    a = hermitian_part((u * lam[:, np.newaxis, :]) @ _adj(u))
    xy = qr_positive(g_xy)
    x, y = xy[..., :n], xy[..., n : 2 * n]
    w = qr_positive(g_w)
    gram = _adj(w) @ w
    defect = np.linalg.norm(gram - np.eye(cfg.out_dim), axis=(-2, -1))
    bad = ~(defect <= 0.5 * ISOMETRY_TOL * np.maximum(1.0, np.linalg.norm(gram, axis=(-2, -1))))

    def phi(t):
        return _adj(w) @ tensor_identity(t, k) @ w

    # compressed_products, lane by lane
    xh, yh = _adj(x), _adj(y)
    bxy = phi(xh @ a @ y)
    byx = phi(yh @ a @ x)
    c_w, c_v = herm_eig_stack(hermitian_part(phi(yh @ a @ y)))
    t_w, t_v = herm_eig_stack(hermitian_part(phi(xh @ a @ x)))
    c_bad = _not_pd(c_w)
    s = hermitian_part(bxy @ _stack_pow(c_w, c_v, -1.0, c_bad) @ byx)
    bad |= c_bad | _not_pd(t_w)

    if cfg.objective == "conjecture":
        g = s @ _stack_pow(t_w, t_v, -1.0, bad)
        top = herm_eig_stack(hermitian_part(_adj(g) @ g)).eigenvalues[:, -1]
        values = np.sqrt(np.maximum(top, 0.0)) / wielandt_factor(cfg.m, cfg.M)
    else:
        # gamma_from_products' spectrum window and eig_pow_psd's PSD check
        s_w, s_v = herm_eig_stack(s)
        spread = 0.5e-8 * max(1.0, cfg.M)
        bad |= ~((t_w[:, 0] >= cfg.m - spread) & (t_w[:, -1] <= cfg.M + spread))
        bad |= ~(s_w[:, 0] >= -0.5 * PSD_TOL * _stack_scale(s_w))
        g = _stack_pow(np.maximum(s_w, 0.0), s_v, cfg.p, bad)
        g = g @ _stack_pow(t_w, t_v, -cfg.p, bad)
        half_sym = herm_eig_stack(hermitian_part(g)).eigenvalues
        values = np.abs(half_sym).max(axis=-1) / _BOUND_FNS[cfg.objective](cfg.m, cfg.M, cfg.p)
    values[bad] = np.nan
    return values


def _eval_range(cfg: SearchConfig, start: int, stop: int) -> tuple:
    """Evaluate trials [start, stop); returns the chunk best, the chunk's
    running-max improvements for trace merging, and the number of trials
    skipped as singular.  Trials are screened block by block on stacks and
    confirmed by the scalar objective, which alone decides every result."""
    best_value = -math.inf
    best_index = -1
    best_json = None
    improvements = []
    skipped = 0
    screen = -math.inf  # stacked values below this cannot beat best_value
    for lo in range(start, stop, BLOCK_SIZE):
        hi = min(lo + BLOCK_SIZE, stop)
        first = max(lo, 1)  # trial 0 is the extremal template, never stacked
        stacked = _block_values(cfg, range(first, hi)).tolist() if first < hi else []
        for index in range(lo, hi):
            if index >= first and stacked[index - first] < screen:
                continue
            inst = _trial_instance(cfg, index)
            try:
                value = objective_value(cfg, inst)
            except Singular:
                skipped += 1
                continue
            if value > best_value:
                best_value = value
                best_index = index
                best_json = instance_to_json(inst)
                improvements.append((index, value))
                screen = value - _SCREEN_MARGIN * max(1.0, abs(value))
    return best_value, best_index, best_json, improvements, skipped


def random_search(cfg: SearchConfig, workers: int = 1) -> SearchRecord:
    """Evaluate the objective on `trials` seeded instances (trial 0 is the
    extremal template) and keep the maximum.  Results are independent of the
    worker count: chunks merge in index order, ties prefer the lowest index."""
    cfg.validate()
    trials = cfg.trials
    chunks = fan_out(_eval_range, (cfg,), trials, workers)

    # Merge chunk bests in index order; ties go to the lowest trial index.
    best_value = -math.inf
    best_index = -1
    best_json = None
    for value, index, inst_json, _, _ in chunks:
        if inst_json is None:
            continue
        if value > best_value or (value == best_value and index < best_index):
            best_value = value
            best_index = index
            best_json = inst_json
    if best_json is None:
        raise WielandtLabError("no trial produced an evaluable instance")
    # Rebuild a monotone trace from the concatenated chunk improvements.
    merged = []
    running = -math.inf
    for _, _, _, improvements, _ in chunks:
        for idx, val in improvements:
            if val > running:
                running = val
                merged.append(("sample", idx, val))
    return SearchRecord(
        objective=cfg.objective,
        best_value=best_value,
        best_instance=instance_from_json(best_json),
        best_index=best_index,
        trials_done=trials,
        trace=merged,
        config=cfg,
        skipped=sum(chunk[4] for chunk in chunks),
    )


class _RefineState:
    """Smooth parameterization of an instance: pinned-endpoint eigenvalues of
    A, its eigenbasis, a joint unitary carrying X and Y, and the Stinespring
    isometry when the map has one."""

    def __init__(self, lam, basis_a, basis_xy, rank, w_iso, phi_static, m, M, seed):
        self.lam = lam
        self.basis_a = basis_a
        self.basis_xy = basis_xy
        self.rank = rank
        self.w_iso = w_iso
        self.phi_static = phi_static
        self.m = m
        self.M = M
        self.seed = seed

    @classmethod
    def from_instance(cls, inst: Instance) -> "_RefineState":
        w, v = herm_eig(inst.a)
        lam = w.copy()
        lam[0] = inst.m
        lam[-1] = inst.M
        n_amb = inst.ambient
        rank = inst.rank
        stacked = np.hstack([inst.x, inst.y])
        q_full, _ = np.linalg.qr(stacked, mode="complete")
        q_full = np.array(q_full, dtype=np.complex128)
        q_full[:, : 2 * rank] = stacked
        if isinstance(inst.phi, StinespringMap):
            w_iso = inst.phi.w.copy()
            phi_static = None
        else:
            w_iso = None
            phi_static = inst.phi
        return cls(lam, v, q_full, rank, w_iso, phi_static, inst.m, inst.M, inst.seed)

    def instance(self) -> Instance:
        a = hermitian_part((self.basis_a * self.lam) @ self.basis_a.conj().T)
        x = self.basis_xy[:, : self.rank].copy()
        y = self.basis_xy[:, self.rank : 2 * self.rank].copy()
        if self.w_iso is not None:
            k = self.w_iso.shape[0] // self.rank
            phi = StinespringMap(self.w_iso, k)
        else:
            phi = self.phi_static
        return Instance(a, self.m, self.M, x, y, phi, seed=self.seed)

    def perturbed(self, rng: np.random.Generator, step: float) -> "_RefineState":
        lam = self.lam.copy()
        if lam.size > 2:
            lam[1:-1] = np.clip(
                lam[1:-1] + step * (self.M - self.m) * rng.standard_normal(lam.size - 2),
                self.m,
                self.M,
            )
        basis_a = orthonormalize(self.basis_a @ _small_unitary(rng, self.lam.size, step))
        basis_xy = orthonormalize(self.basis_xy @ _small_unitary(rng, self.lam.size, step))
        if self.w_iso is not None:
            rows = self.w_iso.shape[0]
            w_iso = orthonormalize(_small_unitary(rng, rows, step) @ self.w_iso)
        else:
            w_iso = None
        return _RefineState(
            lam, basis_a, basis_xy, self.rank, w_iso, self.phi_static, self.m, self.M, self.seed
        )


def _small_unitary(rng: np.random.Generator, dim: int, step: float) -> np.ndarray:
    """exp(i * step * G) for a random Hermitian generator G with unit scale."""
    g = hermitian_part(complex_gaussian(rng, dim, dim))
    norm = float(np.linalg.norm(g))
    if norm > 0.0:
        g = g / norm
    w, v = herm_eig(g)
    return (v * np.exp(1j * step * w)) @ v.conj().T


def refine(start: Instance, cfg: SearchConfig) -> SearchRecord:
    """Step-shrinking local ascent from `start`: propose a multiplicative
    perturbation, accept if it improves the objective, otherwise halve the
    step; stops below step 1e-6 or when the budget runs out."""
    cfg.validate()
    rng = rng_from(mix_seed(cfg.seed, "refine"))
    state = _RefineState.from_instance(start)
    best_value = objective_value(cfg, start)
    best_instance = start
    trace = [("refine", 0, best_value)]
    step = _INITIAL_STEP
    done = 0
    errors = 0
    for i in range(cfg.refine_steps):
        if step < _MIN_STEP:
            break
        candidate_state = state.perturbed(rng, step)
        candidate = candidate_state.instance()
        try:
            value = objective_value(cfg, candidate)
        except WielandtLabError:
            value = -math.inf
            errors += 1
        done += 1
        if value > best_value:
            best_value = value
            best_instance = candidate
            state = candidate_state
            trace.append(("refine", i + 1, value))
        else:
            step *= _STEP_SHRINK
    return SearchRecord(
        objective=cfg.objective,
        best_value=best_value,
        best_instance=best_instance,
        best_index=-1,
        trials_done=done,
        trace=trace,
        config=cfg,
        refine_errors=errors,
    )


def run_search(cfg: SearchConfig, workers: int = 1) -> SearchRecord:
    """Random sampling followed by optional refinement from the best sample."""
    record = random_search(cfg, workers=workers)
    if cfg.refine_steps > 0:
        refined = refine(record.best_instance, cfg)
        record = replace(
            record,
            trials_done=record.trials_done + refined.trials_done,
            refine_errors=refined.refine_errors,
        )
        if refined.best_value > record.best_value:
            record = replace(
                record,
                best_value=refined.best_value,
                best_instance=refined.best_instance,
                trace=record.trace
                + [entry for entry in refined.trace if entry[2] > record.best_value],
            )
    return record

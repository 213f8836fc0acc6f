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
``gen_instance`` and evaluates the objective on stacked ``(B, n, n)`` arrays
(the kernels of ``stacked``, shared with ``verify``).
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
    _half_sym_eig,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    check_tol,
    compressed_products,
    gamma_from_products,
    wielandt_factor,
)
from .errors import DegenerateBounds, Singular, WielandtLabError
from .instances import (
    Instance,
    check_bounds,
    extremal_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)
from .maps import StinespringMap
from .matcore import (
    check_exponent,
    eig_pow_pd,
    herm_eig,
    herm_eig_stack,
    hermitian_part,
    op_norm,
)
from .sampling import complex_gaussian, fan_out, mix_seed, qr_positive, rng_from
from .stacked import BLOCK_SIZE, adj, compressed_products_stack, gamma_stack, stack_pow

OBJECTIVES = ("conjecture", "tightness_thm1", "tightness_thm2", "tightness_thm3")

_INITIAL_STEP = 0.1
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-6

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
        check_bounds(self.m, self.M, strict=True)
        check_tol(self.tol)
        n, d, k = self.rank, self.out_dim, self.ancilla
        if self.ambient < 2 * n or min(n, d, k) < 1 or d > n * k:  # no Stinespring isometry
            raise ValueError(f"invalid dims N={self.ambient}, n={n}, d={d}, k={k}")
        if self.objective != "conjecture":
            if self.p is None:
                raise ValueError(f"objective {self.objective} requires p")
            check_exponent(self.p)

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
    _, (w, _) = _half_sym_eig(g)
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


def _block_values(cfg: SearchConfig, indices: range) -> np.ndarray:
    """Objective values of random trials `indices` (all > 0) on stacks.  NaN
    marks a lane the scalar path must decide: an operator may be singular, a
    spectrum precondition may fail, or the isometry check failed."""
    seeds = [mix_seed(cfg.seed, index) for index in indices]
    s, _, t_eig, bad = compressed_products_stack(
        seeds, cfg.ambient, cfg.rank, cfg.out_dim, cfg.ancilla, cfg.m, cfg.M
    )
    if cfg.objective == "conjecture":
        g = s @ stack_pow(*t_eig, -1.0, bad)
        top = herm_eig_stack(hermitian_part(adj(g) @ g)).eigenvalues[:, -1]
        values = np.sqrt(np.maximum(top, 0.0)) / wielandt_factor(cfg.m, cfg.M)
    else:
        _, bad, [(_, g)] = gamma_stack(s, t_eig, bad, cfg.m, cfg.M, (cfg.p,))
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
        basis_a = qr_positive(self.basis_a @ _small_unitary(rng, self.lam.size, step))
        basis_xy = qr_positive(self.basis_xy @ _small_unitary(rng, self.lam.size, step))
        if self.w_iso is not None:
            rows = self.w_iso.shape[0]
            w_iso = qr_positive(_small_unitary(rng, rows, step) @ self.w_iso)
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

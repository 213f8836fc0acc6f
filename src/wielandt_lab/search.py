"""Randomized and derivative-free search over the instance space.

Objectives are normalized so 1.0 means the inequality under study is tight:
``conjecture`` tracks ||S T^{-1}|| / ((M-m)/(M+m))^2 (values above 1 would be
counterexample candidates and are reported, never asserted away), while the
``tightness_thm*`` objectives track the checked left-hand side against the
respective bound.  Sampling is deterministic in the seed and partitions over
workers by trial index; refinement is a sequential step-shrinking local ascent
on the 2d x 2d compression C' of the best sample (see refine).

Every objective value comes from one stacked kernel (``_objective_stack``)
on the S and T that ``stacked.products_stack`` reads off a compression C'.
The sampled phase is handed its trials one block at a time by
``sampling.fan_out`` and scores each block (``_eval_block``) on stacked
``(B, n, n)`` arrays drawn by ``draw_instances``, the sampler
``gen_instance`` runs on a stack of one;
trial 0 (the closed-form equality template), which heads the first block,
and the refinement's start are stacks of one (``_one_value``); the start is
scored on the C' its state is built from.
Each block returns only the values of its trials; ``random_search`` builds
the trace from them and rebuilds the one best trial as an ``Instance``, the
witness.  Refinement keeps one state type, ``_RefineState``, lane axis first:
the start and an accepted proposal are states of one lane; a rejection
ladder, the proposals refinement would make if it rejected each one in turn,
is one state of many lanes, built and scored as one stack, then walked in
order as the sequential ascent would.  The refined witness is the
identity-map instance of the best C (``instances.compression_instance``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import sampling
from .bounds import (
    DEFAULT_TOL,
    MIN_TOL,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    check_in_range,
    check_tol,
    wielandt_factor,
)
from .errors import DegenerateBounds, Singular, WielandtLabError
from .instances import (
    Instance,
    check_bounds,
    check_dims,
    compression_instance,
    extremal_instance,
    gen_instance,
    instance_from_json,
    instance_seeds,
    instance_to_json,
)
from .matcore import (
    LaneErrors,
    adj,
    check_exponent,
    flag_pd,
    from_eig,
    herm_eig,
    herm_eig_stack,
    herm_norm_stack,
    hermitian_part,
    matprod,
    op_norm_stack,
)
from .sampling import (
    complex_draws,
    fan_out,
    mix_seed,
    mix_seeds,
    qr_positive,
    rng_from,
    rngs_from,
)
from .stacked import (
    compressed_products_stack,
    flag_gamma,
    flag_spectrum,
    gamma_stack,
    instance_compression,
    products_stack,
)

OBJECTIVES = ("conjecture", "tightness_thm1", "tightness_thm2", "tightness_thm3")

_INITIAL_STEP = 0.1
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-6
# Smallest contrast (M-m)/(M+m) times tol a conjecture search accepts: near
# m = M rounding alone lifts the template's value, capped at exactly 1, by up
# to 8.4e-16 / contrast, under 0.84 tol here against the threshold 1 + 10 tol.
CONTRAST_FLOOR = 1e-15
# Lanes scored together after an accept, doubled while every one is
# rejected: an ascent often accepts again at once, and each lane scored past
# an accept costs its share of the stack (about 0.1 ms at N = 8).
_AFTER_ACCEPT = 4


def _objective_stack(objective: str, p, m: float, M: float, s, t_eig, errors) -> np.ndarray:
    """`objective` on every lane of stacked compressed products (see
    ``stacked.products_stack``); flags the lanes whose one-instance
    evaluation raises."""
    if objective == "conjecture":
        # ||S T^-1|| = ||S V diag(1/t) V*|| = ||(S V) diag(1/t)||, T = V diag(t) V*
        flag_pd(errors, t_eig.eigenvalues)
        t_w, t_v = t_eig
        g = matprod(s, t_v) / np.where(errors.bad[:, np.newaxis], 1.0, t_w)[:, np.newaxis, :]
        return op_norm_stack(g) / wielandt_factor(m, M)
    _, g = gamma_stack(flag_gamma(s, t_eig, errors, m, M), t_eig, errors.bad,
                       (check_exponent(p),))
    return herm_norm_stack(hermitian_part(g[0])) / _BOUND_FNS[objective](m, M, p)


def _compression_values(objective: str, p, m: float, M: float, c: np.ndarray) -> tuple:
    """`objective` on every lane of a stack of compressions C' (see
    ``stacked.compression_stack``), and the LaneErrors of the lanes whose
    one-instance evaluation raises."""
    errors = LaneErrors(len(c))
    s, _, t_eig = products_stack(c, errors)
    return _objective_stack(objective, p, m, M, s, t_eig, errors), errors


def _one_value(objective: str, p, m: float, M: float, c: np.ndarray) -> float:
    """_compression_values of a stack of one C'; raises its lane's error,
    or DegenerateBounds for the conjecture at m = M."""
    if objective == "conjecture" and M == m:
        raise DegenerateBounds("ratio undefined for m == M")
    values, errors = _compression_values(objective, p, m, M, c)
    if errors:
        raise errors[0]
    return float(values[0])


def conjecture_ratio(inst: Instance) -> float:
    """||S T^{-1}|| divided by ((M-m)/(M+m))^2; 1.0 at the extremal instance,
    values above 1 + tol would contradict the conjectured norm bound."""
    return _one_value("conjecture", None, inst.m, inst.M, instance_compression(inst))


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
        check_dims(self.ambient, self.rank, self.out_dim, self.ancilla)
        if self.p is not None:
            check_exponent(self.p)
        contrast = (self.M - self.m) / (self.M + self.m)
        if self.objective == "conjecture" and self.p is not None:
            raise ValueError("p applies only to the tightness objectives")
        if self.objective == "conjecture" and contrast < CONTRAST_FLOOR / self.tol:
            raise ValueError(f"need contrast (M-m)/(M+m) >= {CONTRAST_FLOOR:g}/tol = "
                             f"{CONTRAST_FLOOR / self.tol:g} (rounding floor), got {contrast:g}")
        if self.objective != "conjecture":
            if self.p is None:
                raise ValueError(f"objective {self.objective} requires p")
            check_in_range(self.m, self.M, [self.p], bounds=(_BOUND_FNS[self.objective],))

    def to_json(self) -> dict:
        return asdict(self)


_BOUND_FNS = {
    "tightness_thm1": bound_thm1,
    "tightness_thm2": bound_thm2,
    "tightness_thm3": bound_thm3,
}


def objective_value(cfg: SearchConfig, inst: Instance) -> float:
    """Evaluate the configured objective on one instance."""
    return _one_value(cfg.objective, cfg.p, inst.m, inst.M, instance_compression(inst))


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


def _block_values(cfg: SearchConfig, indices: range) -> tuple:
    """Objective values of random trials `indices` (all > 0) on stacks, and
    the exceptions of the lanes whose one-instance evaluation raises."""
    rngs = rngs_from(instance_seeds(mix_seeds(cfg.seed, indices)))
    s, _, t_eig, errors = compressed_products_stack(
        rngs, len(indices), cfg.ambient, cfg.rank, cfg.out_dim, cfg.ancilla, cfg.m, cfg.M
    )
    return _objective_stack(cfg.objective, cfg.p, cfg.m, cfg.M, s, t_eig, errors), errors


def _eval_block(cfg: SearchConfig, indices: range) -> np.ndarray:
    """Objective values of trials `indices`, NaN where a trial is skipped as
    singular; an objective value is never NaN.  A block from 0 scores the
    template first, on a stack of one, and its random trials with
    _block_values.  Any other failing trial raises its exception, the first
    in index order."""
    head = []
    if indices.start == 0:
        try:
            head = [objective_value(cfg, _trial_instance(cfg, 0))]
        except Singular:
            head = [math.nan]
        indices = indices[1:]
    if not indices:
        return np.array(head)
    values, errors = _block_values(cfg, indices)
    for lane in sorted(errors):
        if not isinstance(errors[lane], Singular):
            raise errors[lane]
    values[errors.bad] = np.nan
    return np.concatenate([head, values])


def random_search(cfg: SearchConfig, workers: int = 1) -> SearchRecord:
    """Evaluate the objective on `trials` seeded instances (trial 0 is the
    extremal template) and keep the maximum.  Trial 0 heads the first
    share of the fan-out, so the calling process scores the template while
    the pool walks the other shares.  The trace is the strict running maxima
    of the block values in index order, so ties keep the lowest index and
    the result does not depend on the worker count.  The witness is the best
    trial rebuilt as the report stores it."""
    cfg.validate()
    block = sampling.block_size(cfg.ambient)
    values = np.concatenate(fan_out(_eval_block, (cfg,), range(cfg.trials), workers, block))
    before = np.fmax.accumulate(np.concatenate([[-math.inf], values[:-1]]))  # skips NaNs
    floats = values.tolist()
    trace = [("sample", i, floats[i]) for i in np.flatnonzero(values > before).tolist()]
    if not trace:
        raise WielandtLabError("no trial produced an evaluable instance")
    _, best_index, best_value = trace[-1]
    return SearchRecord(
        objective=cfg.objective,
        best_value=best_value,
        best_instance=instance_from_json(instance_to_json(_trial_instance(cfg, best_index))),
        best_index=best_index,
        trials_done=cfg.trials,
        trace=trace,
        config=cfg,
        skipped=int(np.count_nonzero(np.isnan(values))),
    )


class _RefineState(NamedTuple):
    """Matrices C = V diag(lam) V*, lane axis first: eigenvalues (L, 2d) with
    the ends pinned to m and M, and eigenbases V (L, 2d, 2d).  A lane is the
    identity-map instance ``compression_instance`` builds from its C."""

    lam: np.ndarray
    basis: np.ndarray

    def lane(self, i: int) -> "_RefineState":
        return _RefineState(self.lam[i : i + 1], self.basis[i : i + 1])


def _start_state(inst: Instance) -> tuple:
    """The compression C' of `inst` (see refine), as a stack of one, and C'
    as a one-lane state; raises PreconditionViolated when its spectrum
    escapes [m, M]."""
    c = instance_compression(inst)
    w, v = herm_eig(c[0])
    errors = LaneErrors(1)
    flag_spectrum(errors, w[np.newaxis], inst.m, inst.M)
    if errors:
        raise errors[0]
    lam = np.concatenate([[inst.m], w[1:-1], [inst.M]])
    return c, _RefineState(lam[np.newaxis], v[np.newaxis])


def _ladder(cfg: SearchConfig, start: Instance, state: _RefineState, draws: np.ndarray,
            steps: np.ndarray) -> tuple:
    """Proposals from one-lane `state`, one per row of `draws` (see refine),
    lane i perturbed with steps[i]: interior eigenvalues move by step (M - m)
    times a normal, clipped to [m, M], and the eigenbasis turns by a small
    unitary on the right.  Returns the stacked state, the objective on each
    lane and the LaneErrors of the lanes whose one-instance evaluation
    raises."""
    lanes, size = len(steps), state.lam.shape[1]
    lam = np.repeat(state.lam, lanes, axis=0)
    move = (steps * (start.M - start.m))[:, np.newaxis] * draws[:, : size - 2]
    lam[:, 1:-1] = np.clip(state.lam[:, 1:-1] + move, start.m, start.M)
    turns = _small_unitaries(draws[:, size - 2 :].reshape(lanes, 2, size, size), steps)
    basis = qr_positive(state.basis @ turns)
    values, errors = _compression_values(cfg.objective, cfg.p, start.m, start.M,
                                         from_eig(lam, basis))
    return _RefineState(lam, basis), values, errors


def _small_unitaries(draws: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """exp(i * step * G / ||G||_F) per lane, G the Hermitian part of the
    lane's complex Gaussian from `draws` (L, 2, d, d): real then imaginary
    block, as complex_gaussian draws them."""
    g = hermitian_part(complex_draws(draws))
    norms = np.linalg.norm(g, axis=(-2, -1))
    g = g / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis]
    w, v = herm_eig_stack(g)
    return (v * np.exp(1j * steps[:, np.newaxis] * w)[:, np.newaxis, :]) @ adj(v)


def _ladder_steps(step: float, budget: int) -> np.ndarray:
    """The steps of the proposals refine makes from `step` if it rejects
    every one: halving until below _MIN_STEP, at most `budget` of them."""
    steps = []
    while step >= _MIN_STEP and len(steps) < budget:
        steps.append(step)
        step *= _STEP_SHRINK
    return np.array(steps)


def refine(start: Instance, cfg: SearchConfig) -> SearchRecord:
    """Step-shrinking local ascent from `start` on its compression C'
    (``_start_state``): propose a move of C's interior eigenvalues and a small
    unitary turn of its eigenbasis, accept if it improves the objective by
    more than the rounding floor MIN_TOL max(1, |best value|), otherwise halve
    the step; stops below step 1e-6 or when the budget runs out.  A proposal
    whose evaluation raises a WielandtLabError scores -inf and counts in
    refine_errors.

    Every objective sees (A, X, Y, Phi) only through the d x d blocks
    Phi(X*AX), Phi(X*AY), Phi(Y*AX) and Phi(Y*AY) of C'
    (``stacked.compression_stack``), so ``products_stack`` scores each state
    C as a C', and the improved witness is the identity-map instance
    (C, [I;0], [0;I]) of shape (2d, d, d), whose C' is C.  For a unital
    2-positive Phi, id_2 (x) Phi keeps [X Y]*(A - m)[X Y] and
    [X Y]*(M - A)[X Y] PSD, so m <= C' <= M; a start whose C' escapes
    [m, M] by more than flag_gamma's spread raises PreconditionViolated.

    Each proposal draws one row of standard normals: the 2d - 2 interior
    eigenvalues, then the real and imaginary Gaussians of the turn's
    generator.  No row depends on the state or the step, so proposals are
    scored as rejection ladders: the proposals that follow if each is
    rejected are built and scored as one stacked state (`_ladder`), then
    walked in order; an accept keeps its lane (`_RefineState.lane`), and the
    rows after it wait in the queue for the next ladder.  The record is the
    proposal-by-proposal ascent's, bit for bit.  A start's first ladder is
    scored whole; after an accept, _AFTER_ACCEPT lanes, doubling while all
    are rejected."""
    cfg.validate()
    rng = rng_from(mix_seed(cfg.seed, "refine"))
    c, state = _start_state(start)
    size = state.lam.shape[1]
    queue = np.empty((0, size - 2 + 2 * size * size))  # drawn, not yet proposed
    best_value = _one_value(cfg.objective, cfg.p, start.m, start.M, c)
    trace = [("refine", 0, best_value)]
    step = _INITIAL_STEP
    done = 0
    errors = 0
    width = cfg.refine_steps  # a start is often stationary: score its whole ladder
    while done < cfg.refine_steps and step >= _MIN_STEP:
        steps = _ladder_steps(step, min(width, cfg.refine_steps - done))
        fresh = rng.standard_normal((max(len(steps) - len(queue), 0), queue.shape[1]))
        queue = np.concatenate([queue, fresh])
        proposals, values, lane_errors = _ladder(cfg, start, state, queue[: len(steps)], steps)
        for lane, value in enumerate(values.tolist()):
            done += 1
            error = lane_errors.get(lane)
            if error is not None:
                if not isinstance(error, WielandtLabError):
                    raise error
                value = -math.inf
                errors += 1
            if value - best_value > MIN_TOL * max(1.0, abs(best_value)):
                best_value = value
                state = proposals.lane(lane)
                trace.append(("refine", done, value))
                width = _AFTER_ACCEPT
                break
            step *= _STEP_SHRINK
        else:
            width *= 2
        queue = queue[lane + 1 :]
    return SearchRecord(
        objective=cfg.objective,
        best_value=best_value,
        best_instance=start if len(trace) == 1 else compression_instance(
            from_eig(state.lam[0], state.basis[0]), start.m, start.M, start.seed),
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

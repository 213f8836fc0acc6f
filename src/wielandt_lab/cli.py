"""Command-line front end: batch verification, bound tables, conjecture
search, and the closed-form equality demo.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage
error, 3 the conjecture probe crossed its discovery threshold (a witness dump
is written for replay).  Reports are deterministic given the seed; wall-clock
fields live only in the manifest so diffing reports stays meaningful.  The
environment variable WIELANDT_LAB_THREADS caps worker processes (default:
the CPUs in this process's affinity mask); results never depend on the worker
count.

``verify`` walks each worker's trial range in blocks of ``BLOCK_SIZE`` and
evaluates every check on stacked arrays (``bounds.instance_checks_stack`` and
``bounds.lemma_checks_stack``).  A trial that fails a check, lands within the
guard band of a threshold or raises a flag is rebuilt and run through the
scalar ``run_instance_checks`` and ``run_lemma_trial``, which alone set its
verdicts, failure entries and ``trial_error``.  So counts, verdicts and
failures are those of a trial-by-trial scalar walk; a worst margin taken from
a stacked lane stays within 1e-13 * max(1, |margin|, values compared) of the
scalar one.  Each check reports the trial of its worst margin
(``worst_trial``, lowest index on ties) so near misses can be replayed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import (
    ALL_CHECK_NAMES,
    DEFAULT_TOL,
    bound_thm1,
    bound_thm2,
    bound_thm3,
    check_tol,
    compare_bounds,
    compressed_products,
    crossover_threshold,
    gamma_from_products,
    instance_checks_stack,
    lemma_checks_stack,
    lhs_values,
    run_instance_checks,
    run_lemma_trial,
    thm2_tail_note,
    wielandt_factor,
)
from .errors import InvalidBounds, InvalidExponent, WielandtLabError
from .instances import check_bounds, degenerate_instance, extremal_instance, gen_instance
from .matcore import check_exponent, op_norm
from .sampling import fan_out, mix_seed
from .search import OBJECTIVES, SearchConfig, conjecture_ratio, run_search
from .stacked import BLOCK_SIZE, compressed_products_stack

DISCOVERY_FACTOR = 10.0  # discovery threshold: best_value > 1 + 10 * tol


class UsageError(Exception):
    """Invalid flags or flag combinations; mapped to exit code 2."""


def worker_count() -> int:
    raw = os.environ.get("WIELANDT_LAB_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"WIELANDT_LAB_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise UsageError("WIELANDT_LAB_THREADS must be >= 1")
        return value
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def parse_p_list(text: str) -> list[float]:
    """Comma list ("0.5,1,2") or inclusive grid ("start:stop:step"); values
    within 1e-12 of an integer are normalized so the ceiling-exponent bound
    cannot flicker from float parsing."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise UsageError(f"non-numeric grid {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise UsageError(f"invalid grid {text!r}")
        n_steps = int(math.floor((stop - start) / step + 1e-6))
        values = [start + i * step for i in range(n_steps + 1)]
        values = [v for v in values if v <= stop + step * 1e-6]
    else:
        try:
            values = [float(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise UsageError(f"non-numeric p list {text!r}") from exc
        if not values:
            raise UsageError("empty p list")
    out = []
    for v in values:
        if not math.isfinite(v) or v <= 0.0:
            raise UsageError(f"p values must be finite and > 0, got {v!r}")
        nearest = round(v)
        if abs(v - nearest) <= 1e-12:
            v = float(nearest)
        out.append(v)
    return out


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _manifest(subcommand: str, config: dict, seed: int, started: str, counters: dict) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "config": config,
        "started_at": started,
        "finished_at": _now(),
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyParams:
    trials: int
    ambient: int
    rank: int
    out_dim: int
    ancilla: int
    m: float
    M: float
    p_values: tuple
    tol: float
    seed: int

    def config(self) -> dict:
        return {
            "trials": self.trials,
            "N": self.ambient,
            "n": self.rank,
            "d": self.out_dim,
            "k": self.ancilla,
            "m": self.m,
            "M": self.M,
            "p": list(self.p_values),
            "tol": self.tol,
            "seed": self.seed,
        }


def _stackable(params: VerifyParams) -> bool:
    """Whether trials of this shape can run on stacks; for every other shape
    the scalar generators raise on each trial."""
    n, d, k = params.rank, params.out_dim, params.ancilla
    return (
        0.0 < params.m <= params.M < math.inf
        and n >= 2
        and 1 <= d <= n * k
        and params.ambient >= 2 * n
        and all(0.0 < p < math.inf for p in params.p_values)
    )


def _tally(stats: dict, name: str, run: int, fail: int, margin, trial) -> None:
    """Add counts to a check's [run, fail, worst_margin, worst_trial] entry;
    the worst margin is the smallest (margin, trial) pair."""
    entry = stats.setdefault(name, [0, 0, None, None])
    entry[0] += run
    entry[1] += fail
    if margin is not None and (entry[2] is None or (margin, trial) < (entry[2], entry[3])):
        entry[2], entry[3] = margin, trial


def _scalar_trial(params: VerifyParams, trial: int, stats: dict, failures: list) -> None:
    """Run every check of one trial on the scalar path and record it."""
    trial_seed = mix_seed(params.seed, trial)
    try:
        inst = gen_instance(
            trial_seed,
            params.ambient,
            params.rank,
            params.out_dim,
            params.ancilla,
            params.m,
            params.M,
        )
        reports = run_instance_checks(inst, params.p_values, params.tol)
        reports.extend(
            run_lemma_trial(
                trial_seed,
                params.rank,
                params.ambient,
                params.m,
                params.M,
                params.tol,
                variant=trial % 4,
            )
        )
    except WielandtLabError as exc:
        _tally(stats, "trial_error", 1, 1, None, None)
        failures.append({"check": "trial_error", "trial": trial, "error": str(exc)})
        return
    for report in reports:
        passed = report.passed
        _tally(stats, report.check, 1, 0 if passed else 1, report.margin, trial)
        if not passed:
            detail = report.to_json()
            detail["trial"] = trial
            failures.append(detail)


def _stacked_lanes(params: VerifyParams, trials: range) -> tuple[dict, np.ndarray]:
    """Per-check lane margins of trials `trials` and the lanes that passed
    every check on stacks; see bounds.instance_checks_stack."""
    seeds = [mix_seed(params.seed, trial) for trial in trials]
    s, t, t_eig, bad = compressed_products_stack(
        seeds, params.ambient, params.rank, params.out_dim, params.ancilla, params.m, params.M
    )
    checks = instance_checks_stack(
        s, t, t_eig, bad, params.m, params.M, params.p_values, params.tol
    )
    lemmas = lemma_checks_stack(
        seeds, np.arange(trials.start, trials.stop) % 4, params.rank, params.ambient,
        params.m, params.M, params.tol,
    )
    return {**checks.margins, **lemmas.margins}, checks.ok & lemmas.ok


def _tally_clean(stats: dict, margins: dict, trials: range, lanes: np.ndarray) -> None:
    """Record the lanes `lanes` of `trials`, which passed every check on
    stacks: their run counts and their worst margins."""
    if not lanes.size:
        return
    for name, entries in margins.items():
        worst = trial = None
        if entries[0] is not None:
            lane_worst = np.minimum.reduce(entries)[lanes]
            j = int(np.argmin(lane_worst))  # the lowest trial on ties
            worst, trial = float(lane_worst[j]), trials[lanes[j]]
        _tally(stats, name, len(entries) * lanes.size, 0, worst, trial)


def _verify_chunk(params: VerifyParams, start: int, stop: int) -> tuple:
    """Run all checks for trials [start, stop); returns per-check statistics
    and the JSON of every failing report, in trial order.  Trials run in
    blocks of BLOCK_SIZE on stacks; a lane that fails a check, comes within
    the guard band of a threshold or raises a flag is rerun on the scalar
    path, which alone decides its verdicts and failure entries."""
    stats: dict[str, list] = {}
    failures: list[dict] = []
    stackable = _stackable(params)
    for lo in range(start, stop, BLOCK_SIZE):
        trials = range(lo, min(lo + BLOCK_SIZE, stop))
        clean = np.zeros(len(trials), dtype=bool)
        if stackable:
            margins, clean = _stacked_lanes(params, trials)
            _tally_clean(stats, margins, trials, np.flatnonzero(clean))
        for lane in np.flatnonzero(~clean):
            _scalar_trial(params, trials[lane], stats, failures)
    return stats, failures


def _merge_chunks(chunks: list) -> tuple[dict, list]:
    stats: dict[str, list] = {}
    failures: list[dict] = []
    for chunk_stats, chunk_failures in chunks:
        for name, (run, fail, worst, trial) in chunk_stats.items():
            _tally(stats, name, run, fail, worst, trial)
        failures.extend(chunk_failures)
    ordered = {}
    for name in ALL_CHECK_NAMES:
        if name in stats:
            run, fail, worst, trial = stats[name]
            ordered[name] = {"run": run, "fail": fail, "worst_margin": worst, "worst_trial": trial}
    return ordered, failures


def run_verify(params: VerifyParams, workers: int = 1) -> dict:
    """Full verification sweep; returns the JSON-ready report."""
    started = _now()
    chunks = fan_out(_verify_chunk, (params,), params.trials, workers)
    checks, failures = _merge_chunks(chunks)
    checks_run = sum(c["run"] for c in checks.values())
    n_failures = sum(c["fail"] for c in checks.values())
    counters = {
        "checks_run": checks_run,
        "passes": checks_run - n_failures,
        "failures": n_failures,
    }
    return {
        "schema": 1,
        "manifest": _manifest("verify", params.config(), params.seed, started, counters),
        "pass": n_failures == 0,
        "flagged_notes": [thm2_tail_note(params.m, params.M, params.p_values)],
        "checks": checks,
        "failures": failures,
    }


def cmd_verify(args) -> int:
    m, M = check_bounds(args.m, args.M)
    try:
        tol = check_tol(args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if min(args.n, args.d, args.k) < 1 or args.d > args.n * args.k:
        raise UsageError("need n, d, k >= 1 and d <= n*k for a Stinespring isometry")
    ambient = args.N if args.N is not None else 2 * args.n
    if ambient < 2 * args.n:
        raise UsageError("N must be >= 2n")
    params = VerifyParams(
        trials=args.trials,
        ambient=ambient,
        rank=args.n,
        out_dim=args.d,
        ancilla=args.k,
        m=m,
        M=M,
        p_values=tuple(parse_p_list(args.p)),
        tol=tol,
        seed=args.seed,
    )
    report = run_verify(params, workers=worker_count())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    counters = report["manifest"]["counters"]
    print(
        f"verify: {params.trials} trials, p={list(params.p_values)}, "
        f"N={params.ambient}, n={params.rank}, d={params.out_dim}, "
        f"k={params.ancilla}, m={params.m:g}, M={params.M:g}, tol={params.tol:g}"
    )
    print(f"checks run: {counters['checks_run']}, failures: {counters['failures']}")
    print(f"report: {args.out}")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def bounds_table(m: float, M: float, p_values) -> str:
    """CSV with a p_star comment header and one row per exponent."""
    lines = []
    if M > m:
        lines.append(f"# p_star={crossover_threshold(m, M):.12g}")
    else:
        lines.append("# p_star=nan")
    lines.append("m,M,p,thm1,thm2,thm3,tightest")
    for p in p_values:
        cmp_ = compare_bounds(m, M, p)
        lines.append(
            f"{m:.12g},{M:.12g},{p:.12g},"
            f"{cmp_.thm1!r},{cmp_.thm2!r},{cmp_.thm3!r},{cmp_.tightest}"
        )
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> int:
    m, M = check_bounds(args.m, args.M)
    table = bounds_table(m, M, parse_p_list(args.p_grid))
    if args.csv == "-":
        sys.stdout.write(table)
    else:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table)
        print(f"table: {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    try:
        dims = [int(x) for x in args.dims.split(",")]
    except ValueError as exc:
        raise UsageError(f"--dims must be N,n,d,k integers, got {args.dims!r}") from exc
    if len(dims) != 4:
        raise UsageError("--dims must have exactly four entries N,n,d,k")
    cfg = SearchConfig(
        objective=args.objective,
        ambient=dims[0],
        rank=dims[1],
        out_dim=dims[2],
        ancilla=dims[3],
        m=float(args.m),
        M=float(args.M),
        p=args.p,
        trials=args.trials,
        refine_steps=args.refine_steps,
        seed=args.seed,
        tol=float(args.tol),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    started = _now()
    record = run_search(cfg, workers=worker_count())
    discovery = (
        cfg.objective == "conjecture"
        and record.best_value > 1.0 + DISCOVERY_FACTOR * cfg.tol
    )
    counters = {
        "checks_run": record.trials_done,
        "passes": record.trials_done - record.skipped - record.refine_errors,
        "skipped": record.skipped,
        "refine_errors": record.refine_errors,
    }
    payload = record.to_json()
    payload_out = {
        "schema": 1,
        "manifest": _manifest("search", cfg.to_json(), cfg.seed, started, counters),
        "discovery": discovery,
        **payload,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload_out, fh, indent=2)
        fh.write("\n")
    print(
        f"search: objective={cfg.objective}, trials={cfg.trials}, "
        f"refine_steps={cfg.refine_steps}, seed={cfg.seed}"
    )
    print(f"best_value: {record.best_value!r} (trial {record.best_index})")
    print(f"result: {args.out}")
    if discovery:
        print(
            "DISCOVERY: objective exceeded the conjectured bound; "
            f"witness serialized in {args.out}"
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_extremal(args) -> int:
    m, M = check_bounds(args.m, args.M)
    p = check_exponent(args.p)
    degenerate = M == m
    inst = degenerate_instance(m) if degenerate else extremal_instance(m, M)
    s, t = compressed_products(inst)
    factor = wielandt_factor(m, M)
    lhs = float(s[0, 0].real)
    rhs = factor * float(t[0, 0].real)
    print(f"equality-case instance (m={m:g}, M={M:g}, p={p:g})")
    if degenerate:
        print("degenerate bounds: m == M, the off-diagonal compression vanishes")
    print("A =")
    for row in inst.a.real:
        print("  [" + ", ".join(_fmt(v) for v in row) + "]")
    print("x = e1, y = e2, map = identity on C^1")
    print(f"wielandt_lhs = {_fmt(lhs)}")
    print(f"wielandt_rhs = {_fmt(rhs)}")
    print(f"equality_gap = {_fmt(abs(lhs - rhs))}")
    g = gamma_from_products(s, t, p, m, M)
    vals = lhs_values(g)
    gnorm = op_norm(g.gamma)
    print(f"gamma = {_fmt(g.gamma[0, 0].real)}")
    print(f"half_abs_norm = {_fmt(vals.half_abs_norm)}")
    print(f"gamma_norm = {_fmt(gnorm)}")
    if degenerate:
        print("conjecture_ratio = n/a (m == M)")
    else:
        print(f"conjecture_ratio = {_fmt(conjecture_ratio(inst))}")
    for name, fn in (("thm1", bound_thm1), ("thm2", bound_thm2), ("thm3", bound_thm3)):
        bound = fn(m, M, p)
        print(
            f"bound_{name} = {_fmt(bound)}   margin = {_fmt(bound - vals.half_abs_norm)}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wielandt-lab",
        description=(
            "Numerical checks, bound tables, and counterexample search for "
            "operator Wielandt-type inequalities at finite matrix scale."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    v = sub.add_parser("verify", help="run every inequality check on random instances")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--n", type=int, default=2, help="isometry rank (map input dim)")
    v.add_argument("--d", type=int, default=2, help="map output dimension")
    v.add_argument("--k", type=int, default=2, help="Stinespring ancilla size")
    v.add_argument("--N", type=int, default=None, help="ambient dimension (default 2n)")
    v.add_argument("--m", type=float, default=1.0)
    v.add_argument("--M", type=float, default=2.0)
    v.add_argument("--p", type=str, default="0.5,1,2", help="comma list or start:stop:step")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--out", type=str, default="verify_report.json")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="emit the bound-family table as CSV")
    b.add_argument("--m", type=float, default=1.0)
    b.add_argument("--M", type=float, default=2.0)
    b.add_argument("--p-grid", dest="p_grid", type=str, default="0.1:6:0.1")
    b.add_argument("--csv", type=str, default="-", help="output path or - for stdout")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("search", help="randomized search over the instance space")
    s.add_argument("--objective", type=str, required=True, choices=OBJECTIVES)
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--refine-steps", dest="refine_steps", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dims", type=str, default="4,2,2,2", help="N,n,d,k")
    s.add_argument("--m", type=float, default=1.0)
    s.add_argument("--M", type=float, default=2.0)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--out", type=str, default="search_result.json")
    s.set_defaults(func=cmd_search)

    e = sub.add_parser("extremal", help="print the closed-form equality case")
    e.add_argument("--m", type=float, default=1.0)
    e.add_argument("--M", type=float, default=2.0)
    e.add_argument("--p", type=float, default=1.0)
    e.set_defaults(func=cmd_extremal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, InvalidBounds, InvalidExponent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WielandtLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
